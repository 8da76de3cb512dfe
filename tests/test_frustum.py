"""Image encoder and frustum-lift tests.

The load-bearing checks that back training:
  the depth marginal of the frustum volume reproduces the feature grid
    (softmax rows sum to one),
  foreground selection is mask-faithful and index-ordered,
  pseudo points are the exact lift of their recorded (pixel, depth)
    provenance, and with planted grids they land back on the source
    points,
  KPS and FPS share source indices and differ only through the offsets,
  sources drawn once and passed in give the same pseudo points,
  gradients reach the offset head only in KPS mode.
"""

import numpy as np
import pytest

import pointfuse.tensor as T
from pointfuse.frustum import (
    DepthPrediction,
    FrustumError,
    ImageEncoder,
    ImageFeatureGrid,
    OffsetGrid,
    build_frustum,
    encode_image,
    generate_pseudo_points,
    pseudo_sources,
    sample_keypoint_offsets,
    select_foreground,
    space_to_depth,
)
from pointfuse.geometry import Calibration, LidBinning, PointSet, lid_encode
from pointfuse.nn import Rng
from pointfuse.tensor import Tensor


def small_encoder(seed=0, depth_bins=6):
    return ImageEncoder(Rng(seed), in_channels=3, block_channels=(4, 5),
                        strides=(2, 2), feature_channels=4, depth_bins=depth_bins,
                        binning=LidBinning(1.0, 41.0, depth_bins))


def forward_camera():
    """Canonical forward-looking camera: LiDAR x ahead, y left, z up."""
    tr = np.array([[0.0, -1.0, 0.0, 0.0],
                   [0.0, 0.0, -1.0, 0.0],
                   [1.0, 0.0, 0.0, 0.0]])
    p2 = np.array([[20.0, 0.0, 16.0, 0.0],
                   [0.0, 20.0, 8.0, 0.0],
                   [0.0, 0.0, 1.0, 0.0]])
    return Calibration(p2, np.eye(3), tr)


# -- space_to_depth ---------------------------------------------------------------


def test_space_to_depth_folds_patches():
    x = Tensor(np.arange(16.0).reshape(4, 4, 1))
    out = space_to_depth(x, 2)
    assert out.shape == (2, 2, 4)
    assert out.data[0, 0].tolist() == [0.0, 1.0, 4.0, 5.0]
    assert out.data[1, 1].tolist() == [10.0, 11.0, 14.0, 15.0]
    with pytest.raises(FrustumError):
        space_to_depth(Tensor(np.zeros((5, 4, 1))), 2)


# -- encoder ------------------------------------------------------------------------


def test_encoder_output_shapes_and_ranges():
    enc = small_encoder()
    assert enc.stride == 4
    image = np.random.default_rng(50).uniform(size=(8, 16, 3))
    fi, dp, og = encode_image(image, enc)
    assert fi.feats.shape == (2, 4, 4)
    assert fi.stride == 4
    assert dp.bin_logits.shape == (2, 4, 6)
    assert dp.residuals.shape == (2, 4, 6)
    assert og.offsets.shape == (2, 4, 2)
    assert np.all((dp.residuals.data > 0.0) & (dp.residuals.data < 1.0))


def test_encoder_rejects_bad_images():
    enc = small_encoder()
    with pytest.raises(FrustumError):
        encode_image(np.zeros((7, 16, 3)), enc)  # not divisible by stride
    with pytest.raises(FrustumError):
        encode_image(np.zeros((8, 16)), enc)
    with pytest.raises(FrustumError):
        ImageEncoder(Rng(0), block_channels=(4,), strides=(2, 2))


def test_encoder_is_deterministic_in_the_seed():
    image = np.random.default_rng(51).uniform(size=(8, 16, 3))
    a = encode_image(image, small_encoder(seed=3))[0].feats.data
    b = encode_image(image, small_encoder(seed=3))[0].feats.data
    c = encode_image(image, small_encoder(seed=4))[0].feats.data
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# -- frustum ------------------------------------------------------------------------


def test_frustum_depth_marginal_reproduces_features():
    rng = np.random.default_rng(52)
    for _ in range(20):
        hf, wf, c, d = rng.integers(1, 5), rng.integers(1, 5), rng.integers(1, 6), rng.integers(2, 9)
        fi = ImageFeatureGrid(Tensor(rng.standard_normal((hf, wf, c))), 4)
        dp = DepthPrediction(Tensor(rng.standard_normal((hf, wf, d)) * 5.0),
                             Tensor(rng.uniform(0.01, 0.99, size=(hf, wf, d))))
        vol = build_frustum(fi, dp)
        marginal = vol.feats.data.sum(axis=2)
        assert np.max(np.abs(marginal - fi.feats.data)) <= 1e-6


def test_frustum_shape_mismatch_raises():
    fi = ImageFeatureGrid(Tensor(np.zeros((2, 3, 4))), 4)
    dp = DepthPrediction(Tensor(np.zeros((3, 3, 5))), Tensor(np.full((3, 3, 5), 0.5)))
    with pytest.raises(FrustumError):
        build_frustum(fi, dp)


# -- foreground selection -------------------------------------------------------------


def grid_scene(depths, calib, n_side=4):
    """Points placed on the back-projections of an n x n pixel grid."""
    coords = []
    for i, d in zip(range(n_side * n_side), depths):
        u, v = 2.0 + 4.0 * (i % n_side), 1.0 + 2.0 * (i // n_side)
        coords.append(calib.image_to_lidar(np.array([u, v]), d))
    return PointSet(np.array(coords))


def test_select_foreground_prefers_mask_hits_in_index_order():
    calib = forward_camera()
    pts = grid_scene(np.full(16, 20.0), calib)
    mask = np.zeros((16, 32), dtype=bool)
    mask[:, :16] = True  # left half of the image
    sel = select_foreground(pts, mask, calib, 8, Rng(0))
    uv, _, _ = calib.project_points(pts.coords)
    hits = np.nonzero(uv[:, 0] < 16.0)[0]
    assert sel.n_foreground == min(8, hits.size)
    assert sel.indices[:sel.n_foreground].tolist() == hits[:sel.n_foreground].tolist()


def test_select_foreground_pads_with_background():
    calib = forward_camera()
    pts = grid_scene(np.full(16, 20.0), calib)
    mask = np.zeros((16, 32), dtype=bool)
    uv, _, _ = calib.project_points(pts.coords)
    mask[int(uv[5, 1]), int(uv[5, 0])] = True  # single-point foreground
    sel = select_foreground(pts, mask, calib, 6, Rng(1))
    assert sel.n_foreground == 1
    assert sel.indices[0] == 5
    assert len(sel.indices) == 6
    assert len(set(sel.indices.tolist())) == 6
    # same seed, same pad
    sel2 = select_foreground(pts, mask, calib, 6, Rng(1))
    assert np.array_equal(sel.indices, sel2.indices)


def test_select_foreground_requires_a_hit():
    calib = forward_camera()
    pts = grid_scene(np.full(16, 20.0), calib)
    with pytest.raises(FrustumError):
        select_foreground(pts, np.zeros((16, 32), dtype=bool), calib, 4, Rng(0))
    with pytest.raises(FrustumError):
        select_foreground(pts, np.ones((16, 32), dtype=bool), calib, 17, Rng(0))


# -- keypoint offsets ------------------------------------------------------------------


def test_sample_keypoint_offsets_reads_at_feature_scale():
    # offset grid linear in the cell coordinate: value = [u_f, -v_f]
    hf, wf = 3, 5
    vals = np.zeros((hf, wf, 2))
    for v in range(hf):
        for u in range(wf):
            vals[v, u] = (u, -v)
    og = OffsetGrid(Tensor(vals))
    pixels = np.array([[8.0, 4.0], [2.0, 6.0]])  # stride 4 -> cells (2,1), (0.5,1.5)
    out = sample_keypoint_offsets(og, pixels, 4)
    assert np.allclose(out.data, [[2.0, -1.0], [0.5, -1.5]], atol=1e-12)
    # reads outside the grid clamp to the border cell
    out = sample_keypoint_offsets(og, np.array([[2.0, 99.0]]), 4)
    assert np.allclose(out.data, [[0.5, -2.0]], atol=1e-12)


# -- pseudo points ----------------------------------------------------------------------


def planted_scene(m=6, depth_bins=6):
    """Scene whose depth grids are planted so the pseudo-point lift can
    be predicted in closed form: every point sits at a cell centre, the
    logits are peaked on its true bin, and the residual is written into
    the full 2x2 cell footprint the half-cell trilinear read straddles.
    Cells are spaced two apart so the footprints stay disjoint."""
    calib = forward_camera()
    binning = LidBinning(1.0, 41.0, depth_bins)
    stride, hf, wf, c = 4, 4, 8, 3
    rng = np.random.default_rng(53)
    cells = [(u, v) for v in (0, 2) for u in (0, 2, 4, 6)]
    rng.shuffle(cells)
    cells = cells[:m]
    depths = rng.uniform(3.0, 39.0, size=m)
    coords, logits, res = [], np.zeros((hf, wf, depth_bins)), np.full((hf, wf, depth_bins), 0.5)
    for (u, v), d in zip(cells, depths):
        px = np.array([(u + 0.5) * stride, (v + 0.5) * stride])
        coords.append(calib.image_to_lidar(px, d))
    bins, residuals = lid_encode(depths, binning)
    for (u, v), b, r in zip(cells, bins, residuals):
        logits[v:v + 2, u:u + 2, :] = -40.0
        logits[v:v + 2, u:u + 2, b] = 40.0
        res[v:v + 2, u:u + 2, :] = r
    mask = np.zeros((hf * stride, wf * stride), dtype=bool)
    for (u, v) in cells:
        mask[v * stride:(v + 1) * stride, u * stride:(u + 1) * stride] = True
    fi = ImageFeatureGrid(Tensor(rng.standard_normal((hf, wf, c))), stride)
    dp = DepthPrediction(Tensor(logits), Tensor(res))
    og = OffsetGrid(Tensor(np.zeros((hf, wf, 2))))
    return PointSet(np.array(coords)), mask, calib, fi, dp, og, binning


def test_pseudo_points_reproduce_planted_sources():
    pts, mask, calib, fi, dp, og, binning = planted_scene()
    for mode in ("KPS", "FPS"):
        out = generate_pseudo_points(pts, mask, calib, fi, dp, og, len(pts),
                                     binning, mode=mode, rng=Rng(2))
        src = pts.coords[out.source_indices]
        assert np.max(np.abs(out.coords.data - src)) <= 1e-6
        assert out.clamped == 0


def test_pseudo_points_coords_match_recorded_provenance():
    pts, mask, calib, fi, dp, og, binning = planted_scene()
    # non-trivial offsets so KPS actually moves the pixels
    og = OffsetGrid(Tensor(np.full((4, 8, 2), 1.5)))
    out = generate_pseudo_points(pts, mask, calib, fi, dp, og, 4, binning,
                                 mode="KPS", rng=Rng(3))
    relift = calib.image_to_lidar(np.clip(out.pixel_uv, 0.0, [31.0, 15.0]), out.source_depth)
    assert np.max(np.abs(out.coords.data - relift)) <= 1e-9


def test_kps_and_fps_share_sources_and_differ_by_offsets():
    pts, mask, calib, fi, dp, og, binning = planted_scene()
    og = OffsetGrid(Tensor(np.full((4, 8, 2), 2.0)))
    kps = generate_pseudo_points(pts, mask, calib, fi, dp, og, 5, binning, "KPS", Rng(4))
    fps = generate_pseudo_points(pts, mask, calib, fi, dp, og, 5, binning, "FPS", Rng(4))
    assert np.array_equal(kps.source_indices, fps.source_indices)
    assert np.max(np.abs(kps.pixel_uv - (fps.pixel_uv + 2.0))) <= 1e-9
    with pytest.raises(FrustumError):
        generate_pseudo_points(pts, mask, calib, fi, dp, og, 5, binning, "bad", Rng(4))
    with pytest.raises(FrustumError):
        generate_pseudo_points(pts, mask, calib, fi, dp, og, 99, binning, "KPS", Rng(4))


def test_sources_passed_in_give_the_pseudo_points_that_drawing_them_gives():
    pts, mask, calib, fi, dp, og, binning = planted_scene()
    og = OffsetGrid(Tensor(np.full((4, 8, 2), 1.5)))
    sources = pseudo_sources(pts, mask, calib, 5)
    assert not sources.indices.flags.writeable and not sources.uv.flags.writeable
    for mode in ("KPS", "FPS"):
        drawn = generate_pseudo_points(pts, mask, calib, fi, dp, og, 5, binning, mode, Rng(7))
        given = generate_pseudo_points(pts, mask, calib, fi, dp, og, 5, binning, mode,
                                       sources=sources)
        assert given.coords.data.tobytes() == drawn.coords.data.tobytes()
        assert given.feats.data.tobytes() == drawn.feats.data.tobytes()
        assert np.array_equal(given.source_indices, drawn.source_indices)
    with pytest.raises(FrustumError, match="4 pseudo sources for m=5"):
        generate_pseudo_points(pts, mask, calib, fi, dp, og, 5, binning,
                               sources=pseudo_sources(pts, mask, calib, 4))
    with pytest.raises(FrustumError, match="only 6 foreground points for m=9"):
        pseudo_sources(pts, mask, calib, 9)


def test_pseudo_point_gradients_route_by_mode():
    pts, mask, calib, fi, dp, og, binning = planted_scene()
    og = OffsetGrid(Tensor(np.zeros((4, 8, 2)), requires_grad=True))
    dp = DepthPrediction(Tensor(dp.bin_logits.data, requires_grad=True),
                         Tensor(dp.residuals.data, requires_grad=True))
    out = generate_pseudo_points(pts, mask, calib, fi, dp, og, 4, binning, "KPS", Rng(5))
    T.tsum(out.coords * out.coords).backward()
    assert np.any(og.offsets.grad != 0.0)      # KPS: offsets shape the lift
    assert np.any(dp.residuals.grad != 0.0)    # residual read is differentiable

    og.offsets.zero_grad()
    dp.residuals.zero_grad()
    out = generate_pseudo_points(pts, mask, calib, fi, dp, og, 4, binning, "FPS", Rng(5))
    T.tsum(out.coords * out.coords).backward()
    assert np.all(og.offsets.grad == 0.0)      # FPS: the offset head is unused
    assert np.any(dp.residuals.grad != 0.0)


def test_pseudo_point_features_come_from_the_frustum():
    pts, mask, calib, fi, dp, og, binning = planted_scene()
    out = generate_pseudo_points(pts, mask, calib, fi, dp, og, 3, binning, "FPS", Rng(6))
    assert out.feats.shape == (3, fi.feats.data.shape[2])
    # planted logits are one-hot at the true bin, so the frustum read at
    # (cell centre, bin + residual) interpolates the cell feature scaled
    # by the softmax weight along the residual direction
    assert np.all(np.isfinite(out.feats.data))
    assert len(out) == 3
