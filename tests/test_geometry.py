"""Geometry tests: sampling, grouping, interpolation, depth binning,
calibration and cropping.

Sampling and grouping are checked against independent brute-force
re-derivations (a literal greedy loop for farthest-point sampling, a
sort of explicit distance lists for kNN) over seeded random clouds, and
bit for bit against the previous array kernels kept in ``oracles``
(the loop sampler and the full stable argsort), including clouds with
ties at the k-th distance.  The single-position grid reads and the
scalar IDW in ``oracles`` are checked here too, since other tests
compare the library against them.
"""

import numpy as np
import pytest

from pointfuse.geometry import (
    Calibration,
    CalibrationError,
    GeometryError,
    LidBinning,
    PointSet,
    SCENE_BOUNDS,
    crop_points,
    farthest_point_sampling,
    knn_group,
    lid_decode,
    lid_encode,
)
from pointfuse.tensor import Tensor
from pointfuse.tensor import bilinear_sample as bilinear_batch, trilinear_sample as trilinear_batch

from oracles import (
    bilinear_sample,
    clamp_coord,
    fps_loop,
    idw_interpolate,
    knn_argsort,
    trilinear_sample,
)


# -- brute-force oracles -------------------------------------------------------


def fps_oracle(coords, m, start=0):
    """Greedy max-min selection, written independently of the library:
    scan all candidates each round, keep the first max."""
    chosen = [start]
    for _ in range(m - 1):
        best_idx, best_val = None, -1.0
        for i in range(len(coords)):
            dmin = min(float(np.sum((coords[i] - coords[j]) ** 2)) for j in chosen)
            if dmin > best_val:
                best_idx, best_val = i, dmin
        chosen.append(best_idx)
    return np.array(chosen)


def knn_oracle(query, coords, k):
    d2 = [(float(np.sum((coords[i] - query) ** 2)), i) for i in range(len(coords))]
    d2.sort()
    return np.array([i for _, i in d2[:k]])


# -- farthest point sampling ---------------------------------------------------


def test_fps_worked_example():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.1, 0, 0], [3.0, 0, 0]])
    # after {0, 3}: point 1 has min-d2 1.0, point 2 has 1.21 -> pick 2
    assert farthest_point_sampling(pts, 3).tolist() == [0, 3, 2]


def test_fps_matches_oracle_on_random_clouds():
    rng = np.random.default_rng(20)
    for trial in range(100):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(1, n + 1))
        coords = rng.uniform(-5.0, 5.0, size=(n, 3))
        got = farthest_point_sampling(coords, m)
        assert got.tolist() == fps_oracle(coords, m).tolist(), f"trial {trial}"


def test_fps_tie_break_takes_smaller_index():
    # two candidates at exactly the same max-min distance
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [-1.0, 0, 0]])
    assert farthest_point_sampling(pts, 2).tolist() == [0, 1]


def test_fps_start_and_validation():
    pts = np.random.default_rng(21).uniform(size=(5, 3))
    assert farthest_point_sampling(pts, 1, start=3).tolist() == [3]
    with pytest.raises(GeometryError):
        farthest_point_sampling(pts, 0)
    with pytest.raises(GeometryError):
        farthest_point_sampling(pts, 6)
    with pytest.raises(GeometryError):
        farthest_point_sampling(pts, 2, start=5)


def test_fps_equals_loop_sampler_on_large_and_tied_clouds():
    rng = np.random.default_rng(27)
    for trial in range(6):
        n = int(rng.integers(200, 700))
        if trial % 2:
            coords = rng.integers(-4, 5, size=(n, 3)).astype(np.float64)  # many equal distances
        else:
            coords = rng.uniform(-30.0, 30.0, size=(n, 3))
        m = int(rng.integers(1, n // 2))
        start = int(rng.integers(0, n))
        assert np.array_equal(farthest_point_sampling(coords, m, start),
                              fps_loop(coords, m, start)), f"trial {trial}"


# -- knn -------------------------------------------------------------------------


def test_knn_matches_oracle():
    rng = np.random.default_rng(22)
    for trial in range(50):
        n = int(rng.integers(1, 30))
        k = int(rng.integers(1, n + 1))
        coords = rng.uniform(-3.0, 3.0, size=(n, 3))
        queries = rng.uniform(-3.0, 3.0, size=(4, 3))
        got = knn_group(queries, coords, k)
        assert got.shape == (4, k)
        for qi in range(4):
            assert got[qi].tolist() == knn_oracle(queries[qi], coords, k).tolist(), f"trial {trial}"


def test_knn_equal_distances_keep_index_order():
    coords = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0.0, 1.0, 0]])
    got = knn_group(np.zeros((1, 3)), coords, 3)
    assert got[0].tolist() == [0, 1, 2]
    with pytest.raises(GeometryError):
        knn_group(np.zeros((1, 3)), coords, 4)


def test_knn_equals_stable_argsort_on_large_clouds():
    rng = np.random.default_rng(28)
    for trial in range(12):
        n = int(rng.integers(40, 400))
        coords = rng.uniform(-20.0, 20.0, size=(n, 3))
        queries = np.concatenate([coords[rng.integers(0, n, size=30)],
                                  rng.uniform(-25.0, 25.0, size=(int(rng.integers(40, 200)), 3))])
        for k in (1, 3, 8, n):
            got = knn_group(queries, coords, k)
            assert got.dtype == np.int64
            assert np.array_equal(got, knn_argsort(queries, coords, k)), f"trial {trial}, k {k}"


def test_knn_ties_at_the_kth_distance_keep_the_smaller_indices():
    # an integer grid with repeated points: many rows have more than k
    # candidates within their k-th distance, others have exactly k
    rng = np.random.default_rng(29)
    for trial in range(8):
        n = int(rng.integers(60, 300))
        coords = rng.integers(-3, 4, size=(n, 3)).astype(np.float64)
        coords[rng.integers(0, n, size=n // 4)] = coords[0]
        queries = np.concatenate([coords, rng.integers(-3, 4, size=(20, 3)) + 0.5])
        for k in (1, 4, 8):
            d2 = np.sum((queries[:, None, :] - coords[None, :, :]) ** 2, axis=2)
            kth = np.sort(d2, axis=1)[:, k - 1:k]
            within = np.count_nonzero(d2 <= kth, axis=1)
            assert np.any(within > k) and np.any(within == k)  # both paths run
            assert np.array_equal(knn_group(queries, coords, k),
                                  knn_argsort(queries, coords, k)), f"trial {trial}, k {k}"


# -- inverse distance weighting ---------------------------------------------------


def test_idw_two_neighbor_closed_form():
    # distances 1 and 2 with p=2: weights 1 and 1/4
    neighbors = PointSet(np.array([[1.0, 0, 0], [-2.0, 0, 0]]),
                         np.array([[10.0], [20.0]]))
    got = idw_interpolate(np.zeros(3), neighbors, k=2)
    assert got[0] == pytest.approx((1.0 * 10 + 0.25 * 20) / 1.25, rel=1e-12)


def test_idw_exact_hit_short_circuits():
    neighbors = PointSet(np.array([[0.0, 0, 0], [1.0, 0, 0]]),
                         np.array([[5.0], [9.0]]))
    got = idw_interpolate(np.zeros(3), neighbors, k=2)
    assert got[0] == 5.0


def test_idw_uses_k_nearest_only():
    coords = np.array([[1.0, 0, 0], [2.0, 0, 0], [50.0, 0, 0]])
    feats = np.array([[1.0], [2.0], [1000.0]])
    got = idw_interpolate(np.zeros(3), PointSet(coords, feats), k=2)
    assert got[0] < 3.0  # the far outlier must not contribute
    with pytest.raises(GeometryError):
        idw_interpolate(np.zeros(3), PointSet(np.zeros((0, 3)), np.zeros((0, 1))))


# -- grid interpolation ------------------------------------------------------------


def test_bilinear_matches_corners_and_midpoints():
    grid = np.array([[[0.0], [1.0]],
                     [[2.0], [3.0]]])  # [H=2, W=2, C=1]
    assert bilinear_sample(grid, [0.0, 0.0])[0] == 0.0
    assert bilinear_sample(grid, [1.0, 1.0])[0] == 3.0
    assert bilinear_sample(grid, [0.5, 0.5])[0] == pytest.approx(1.5)
    assert bilinear_sample(grid, [5.0, -1.0])[0] == 1.0  # clamps to (u=1, v=0)
    uv = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5], [5.0, -1.0]])
    got = bilinear_batch(Tensor(grid), Tensor(uv)).data[:, 0]
    assert got.tolist() == [bilinear_sample(grid, p)[0] for p in uv]


def test_trilinear_matches_separable_product():
    rng = np.random.default_rng(23)
    vol = rng.standard_normal((3, 4, 5, 2))
    pos = np.array([1.3, 0.6, 2.9])
    # independent evaluation: two bilinear reads along d, then a lerp
    lo = bilinear_sample(vol[:, :, 2, :], pos[:2])
    hi = bilinear_sample(vol[:, :, 3, :], pos[:2])
    want = 0.1 * lo + 0.9 * hi
    got = trilinear_sample(vol, pos)
    assert np.allclose(got, want, atol=1e-12)
    assert np.allclose(trilinear_batch(Tensor(vol), Tensor(pos[None, :])).data[0], want, atol=1e-12)


def test_clamp_coord_reports_clamping():
    c, flagged = clamp_coord(np.array([-0.5, 2.0, 7.0]), 5)
    assert c.tolist() == [0.0, 2.0, 4.0]
    assert flagged
    _, flagged = clamp_coord(np.array([0.0, 4.0]), 5)
    assert not flagged


# -- LID depth binning ---------------------------------------------------------------


def test_lid_edges_start_end_and_grow():
    binning = LidBinning(2.0, 46.8, 10)
    edges = binning.edges
    assert edges[0] == 2.0
    assert edges[-1] == pytest.approx(46.8, abs=1e-12)
    widths = np.diff(edges)
    assert np.all(np.diff(widths) > 0)  # strictly growing bins
    # linear growth: width(i+1) - width(i) is constant
    assert np.allclose(np.diff(widths, 2), 0.0, atol=1e-12)


def test_lid_edge_closed_form():
    binning = LidBinning(0.0, 55.0, 10)
    # edge(i) = span * i(i+1)/(D(D+1))
    for i in range(11):
        assert binning.edges[i] == pytest.approx(55.0 * i * (i + 1) / 110.0, abs=1e-12)


def test_lid_round_trip_dense():
    binning = LidBinning(1.0, 60.0, 24)
    depths = np.linspace(1.0, 60.0, 2001)
    b, res = lid_encode(depths, binning)
    assert np.all((b >= 0) & (b < 24))
    assert np.all(res >= 0.0) and np.all(res <= 1.0)
    back = lid_decode(b, res, binning)
    assert np.max(np.abs(back - depths)) <= 1e-9


def test_lid_endpoints_and_clamping():
    binning = LidBinning(1.0, 60.0, 24)
    b, res = lid_encode(1.0, binning)
    assert (b, res) == (0, 0.0)
    b, res = lid_encode(60.0, binning)
    assert b == 23 and res == pytest.approx(1.0)  # last bin closes at d_max
    # out-of-range depths clamp to the range ends
    assert lid_encode(0.0, binning) == lid_encode(1.0, binning)
    assert lid_encode(99.0, binning) == lid_encode(60.0, binning)


def test_lid_residuals_inside_half_open_bins():
    binning = LidBinning(0.0, 70.4, 80)
    rng = np.random.default_rng(24)
    d = rng.uniform(0.0, 70.39, size=500)
    b, res = lid_encode(d, binning)
    assert np.all(res < 1.0)
    assert np.all((binning.edges[b] <= d) & (d < binning.edges[b + 1]))


def test_lid_decode_validates_bins():
    binning = LidBinning(0.0, 10.0, 4)
    with pytest.raises(GeometryError):
        lid_decode(4, 0.0, binning)
    with pytest.raises(GeometryError):
        LidBinning(5.0, 5.0, 4)


# -- calibration -----------------------------------------------------------------


def random_calibration(rng):
    """Well-conditioned random KITTI-style calibration."""
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    tr = np.hstack([q, rng.uniform(-0.5, 0.5, size=(3, 1))])
    qr, _ = np.linalg.qr(np.eye(3) + 0.05 * rng.standard_normal((3, 3)))
    if np.linalg.det(qr) < 0:
        qr[:, 0] = -qr[:, 0]
    fx, fy = rng.uniform(300.0, 900.0, size=2)
    cx, cy = rng.uniform(200.0, 700.0), rng.uniform(100.0, 250.0)
    p2 = np.array([[fx, 0.0, cx, rng.uniform(-50, 50)],
                   [0.0, fy, cy, rng.uniform(-5, 5)],
                   [0.0, 0.0, 1.0, rng.uniform(-0.05, 0.05)]])
    return Calibration(p2, qr, tr)


def test_identity_calibration_projects_like_a_pinhole():
    calib = Calibration.identity(fx=100.0, fy=100.0, cx=50.0, cy=25.0)
    uv, depth = calib.project_to_image(np.array([1.0, 2.0, 10.0]))
    assert depth == pytest.approx(10.0)
    assert uv[0] == pytest.approx(100.0 * 1.0 / 10.0 + 50.0)
    assert uv[1] == pytest.approx(100.0 * 2.0 / 10.0 + 25.0)


def test_camera_lidar_round_trip_random_calibs():
    rng = np.random.default_rng(25)
    for _ in range(10):
        calib = random_calibration(rng)
        pts = rng.uniform(-20.0, 20.0, size=(200, 3))
        back = calib.camera_to_lidar(calib.lidar_to_camera(pts))
        assert np.max(np.abs(back - pts)) <= 1e-9


def test_image_round_trip_random_calibs():
    rng = np.random.default_rng(26)
    for _ in range(10):
        calib = random_calibration(rng)
        cam = rng.uniform([-10, -5, 2.0], [10, 5, 60.0], size=(200, 3))
        uv, depth = calib.project_to_image(cam)
        back = calib.image_to_camera(uv, depth)
        assert np.max(np.abs(back - cam)) <= 1e-9
        lidar = calib.camera_to_lidar(cam)
        back_l = calib.image_to_lidar(uv, depth)
        assert np.max(np.abs(back_l - lidar)) <= 1e-9


def test_project_points_masks_points_behind_camera():
    calib = Calibration.identity()
    pts = np.array([[0.0, 0.0, 5.0], [0.0, 0.0, -5.0]])
    uv, depth, ok = calib.project_points(pts)
    assert ok.tolist() == [True, False]
    assert np.array_equal(uv[1], [0.0, 0.0])
    with pytest.raises(GeometryError):
        calib.project_to_image(np.array([0.0, 0.0, -1.0]))


def test_calibration_validation():
    with pytest.raises(CalibrationError):
        Calibration(np.zeros((3, 3)), np.eye(3), np.zeros((3, 4)))
    p2 = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0]])
    with pytest.raises(CalibrationError):
        Calibration(p2, np.zeros((3, 3)), np.hstack([np.eye(3), np.zeros((3, 1))]))  # singular R0
    bad = p2.copy()
    bad[0, 0] = np.nan
    with pytest.raises(CalibrationError):
        Calibration(bad, np.eye(3), np.hstack([np.eye(3), np.zeros((3, 1))]))


# -- cropping --------------------------------------------------------------------


def test_crop_points_closed_bounds():
    pts = PointSet(np.array([[0.0, 0.0, 0.0],
                             [70.4, 40.0, 1.0],
                             [70.5, 0.0, 0.0],
                             [-0.1, 0.0, 0.0],
                             [10.0, -41.0, 0.0]]),
                   np.arange(5.0)[:, None])
    kept, removed = crop_points(pts)
    assert removed == 3
    assert len(kept) == 2
    assert kept.feats[:, 0].tolist() == [0.0, 1.0]
    lo, hi = SCENE_BOUNDS[0]
    assert lo == 0.0 and hi == 70.4
