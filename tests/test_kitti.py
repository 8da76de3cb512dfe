"""Dataset I/O and synthetic scene tests.

File formats round-trip through their writers; parse errors carry line
numbers.  The difficulty thresholds pin the standard pixel-height /
occlusion / truncation buckets.  Scene generation is checked for
determinism and for the physical properties the pipeline assumes
(points on box surfaces, mask covering the boxes, labels inside the
camera view, non-overlapping placements).
"""

from types import SimpleNamespace

import numpy as np
import pytest

from pointfuse import kitti
from pointfuse.boxes import Box3D, iou_bev
from pointfuse.geometry import PointSet
from pointfuse.kitti import (
    LabeledObject,
    SceneError,
    SceneSample,
    SyntheticSceneSpec,
    convex_hull,
    difficulty_of,
    fill_convex,
    generate_scene,
    make_camera,
    place_boxes,
    rasterize_foreground,
    write_calib,
    write_labels,
    write_velodyne,
)
from pointfuse.nn import Rng

from formats import KittiParseError, parse_calib, parse_labels, read_velodyne
from oracles import iou_bev_scalar


# -- difficulty -----------------------------------------------------------------


def test_difficulty_buckets():
    assert difficulty_of(45.0, 0, 0.10) == 0
    assert difficulty_of(45.0, 1, 0.10) == 1   # occlusion pushes a level
    assert difficulty_of(30.0, 0, 0.10) == 1   # height below 40 px
    assert difficulty_of(30.0, 2, 0.10) == 2
    assert difficulty_of(30.0, 0, 0.45) == 2   # truncation pushes levels
    assert difficulty_of(20.0, 0, 0.0) == 3    # too small for any bucket
    assert difficulty_of(45.0, 3, 0.0) == 3


# -- calibration files -------------------------------------------------------------


def sample_calib_text():
    p2 = "P2: " + " ".join(str(float(v)) for v in
                           [55.0, 0, 32, 0, 0, 55.0, 17.6, 0, 0, 0, 1, 0])
    r0 = "R0_rect: 1 0 0 0 1 0 0 0 1"
    tr = "Tr_velo_to_cam: 0 -1 0 0 0 0 -1 0 1 0 0 0"
    return "\n".join(["# comment line without a colon is skipped", p2, r0, tr])


def test_parse_calib_round_trip():
    calib = parse_calib(sample_calib_text())
    assert calib.p2[0, 0] == 55.0
    again = parse_calib(write_calib(calib))
    assert np.array_equal(again.p2, calib.p2)
    assert np.array_equal(again.r0_rect, calib.r0_rect)
    assert np.array_equal(again.tr_velo_to_cam, calib.tr_velo_to_cam)


def test_parse_calib_errors_carry_line_numbers():
    with pytest.raises(KittiParseError, match="missing"):
        parse_calib("P2: " + " ".join(["1"] * 12))
    bad_count = sample_calib_text().replace("R0_rect: 1 0 0 0 1 0 0 0 1", "R0_rect: 1 0 0")
    with pytest.raises(KittiParseError, match="line 3"):
        parse_calib(bad_count)
    bad_float = sample_calib_text().replace("Tr_velo_to_cam: 0", "Tr_velo_to_cam: x")
    with pytest.raises(KittiParseError, match="line 4"):
        parse_calib(bad_float)


# -- velodyne scans ------------------------------------------------------------------


def test_velodyne_round_trip():
    rng = np.random.default_rng(90)
    pts = PointSet(rng.uniform(-10, 10, size=(17, 3)).astype(np.float32).astype(np.float64),
                   rng.uniform(0, 1, size=(17, 1)).astype(np.float32).astype(np.float64))
    blob = write_velodyne(pts)
    assert len(blob) == 17 * 16
    back = read_velodyne(blob)
    assert np.array_equal(back.coords, pts.coords)  # f4 values survive exactly
    assert np.array_equal(back.feats, pts.feats)
    # writer with no features emits zero intensity
    assert read_velodyne(write_velodyne(PointSet(pts.coords))).feats.max() == 0.0


def test_velodyne_rejects_bad_blobs():
    with pytest.raises(KittiParseError):
        read_velodyne(b"\x00" * 15)
    nan_blob = np.array([[np.nan, 0, 0, 0]], dtype="<f4").tobytes()
    with pytest.raises(KittiParseError):
        read_velodyne(nan_blob)


# -- label files ----------------------------------------------------------------------


def test_labels_round_trip_through_camera_frame():
    calib = parse_calib(sample_calib_text())
    objs = [LabeledObject("Car", Box3D(15.0, 2.0, -1.0, 4.2, 1.8, 1.5, 0.3),
                          truncation=0.1, occlusion=1, alpha=0.2,
                          bbox=np.array([10.0, 5.0, 30.0, 31.0])),
            LabeledObject("Pedestrian", Box3D(8.0, -1.0, -1.2, 0.9, 0.6, 1.8, -1.0))]
    text = write_labels(objs, calib)
    back = parse_labels(text, calib)
    assert len(back) == 2
    for a, b in zip(back, objs):
        assert a.klass == b.klass
        assert np.max(np.abs(a.box.as_array() - b.box.as_array())) < 1e-5
        assert a.occlusion == b.occlusion
    assert write_labels([], calib) == ""


def test_labels_skip_dontcare_and_report_lines():
    calib = parse_calib(sample_calib_text())
    keep = write_labels([LabeledObject("Car", Box3D(15.0, 0, -1, 4, 2, 1.5, 0.0))], calib)
    text = "DontCare -1 -1 -10 0 0 0 0 -1 -1 -1 -1000 -1000 -1000 -10\n" + keep
    out = parse_labels(text, calib)
    assert [o.klass for o in out] == ["Car"]
    with pytest.raises(KittiParseError, match="line 1"):
        parse_labels("Car 0 0 0 0 0", calib)
    with pytest.raises(KittiParseError, match="line 2"):
        parse_labels(keep + "Car a b c d e f g h i j k l m n\n", calib)


def test_label_difficulty_follows_bbox_height():
    calib = parse_calib(sample_calib_text())
    obj = LabeledObject("Car", Box3D(15.0, 0, -1, 4, 2, 1.5, 0.0),
                        bbox=np.array([0.0, 0.0, 10.0, 45.0]))
    text = write_labels([obj], calib)
    assert parse_labels(text, calib)[0].difficulty == 0  # 45 px tall, clean
    obj.bbox = np.array([0.0, 0.0, 10.0, 30.0])
    assert parse_labels(write_labels([obj], calib), calib)[0].difficulty == 1


# -- hull and raster -------------------------------------------------------------------


def test_convex_hull_drops_interior_points():
    square = np.array([[0.0, 0], [4, 0], [4, 4], [0, 4], [2, 2], [1, 1]])
    hull = convex_hull(square)
    assert len(hull) == 4
    assert set(map(tuple, hull)) == {(0, 0), (4, 0), (4, 4), (0, 4)}
    # CCW orientation
    x, y = hull[:, 0], hull[:, 1]
    assert 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) > 0


def test_fill_convex_counts_pixel_centers():
    tri = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    mask = fill_convex(4, 4, tri)
    # pixel centers strictly under the diagonal x + y = 4
    want = np.array([[(x + 0.5) + (y + 0.5) <= 4.0 for x in range(4)] for y in range(4)])
    assert np.array_equal(mask, want)
    assert not fill_convex(4, 4, tri[:2]).any()  # degenerate polygon


def test_rasterize_foreground_covers_projected_boxes():
    spec = SyntheticSceneSpec()
    calib = make_camera(spec)
    obj = LabeledObject("Car", Box3D(15.0, 0.0, -0.9, 4.0, 1.8, 1.5, 0.2))
    mask = rasterize_foreground([obj], calib, (spec.image_height, spec.image_width))
    assert mask.any()
    uv, _, ok = calib.project_points(obj.box.corners())
    assert np.all(ok)
    # the projected center pixel of the box lies in the mask
    cu, cv = uv.mean(axis=0)
    assert mask[int(cv), int(cu)]


# -- synthetic scenes --------------------------------------------------------------------


def test_generate_scene_is_deterministic():
    spec = SyntheticSceneSpec()
    a = generate_scene(spec, Rng(42))
    b = generate_scene(spec, Rng(42))
    assert np.array_equal(a.points.coords, b.points.coords)
    assert np.array_equal(a.points.feats, b.points.feats)
    assert np.array_equal(a.image, b.image)
    assert np.array_equal(a.mask, b.mask)
    assert len(a.labels) == len(b.labels)
    c = generate_scene(spec, Rng(43))
    assert not np.array_equal(a.points.coords, c.points.coords)


def test_generate_scene_contents():
    spec = SyntheticSceneSpec(n_pedestrians=1)
    scene = generate_scene(spec, Rng(7))
    assert isinstance(scene, SceneSample)
    assert [o.klass for o in scene.labels].count("Car") == 2
    assert [o.klass for o in scene.labels].count("Pedestrian") == 1
    assert scene.image.shape == (32, 64, 3)
    assert scene.mask.shape == (32, 64)
    assert scene.mask.any()
    assert scene.points.feats.shape[1] == 1

    for obj in scene.labels:
        assert spec.x_range[0] <= obj.box.x <= spec.x_range[1]
        near = obj.box.contains(scene.points.coords, inflate=1.05)
        assert near.sum() > spec.points_per_box // 2  # surface points survive the crop
        uv, _, ok = scene.calib.project_points(obj.box.corners())
        assert np.all(ok)

    # placements keep their BEV clearance
    for i, a in enumerate(scene.labels):
        for b in scene.labels[i + 1:]:
            assert iou_bev(a.box, b.box) == 0.0


def test_generate_scene_mask_matches_rasterizer():
    spec = SyntheticSceneSpec()
    scene = generate_scene(spec, Rng(8))
    want = rasterize_foreground(scene.labels, scene.calib,
                                (spec.image_height, spec.image_width))
    assert np.array_equal(scene.mask, want)


def test_generate_scene_difficulty_is_rescaled_for_small_rasters():
    # the 32-pixel raster stands in for a 375-pixel frame; a nearby car
    # must still land in the easy bucket
    scene = generate_scene(SyntheticSceneSpec(), Rng(9))
    assert all(o.difficulty <= 2 for o in scene.labels)
    assert any(o.difficulty == 0 for o in scene.labels)


def test_generate_scene_impossible_placement_raises():
    spec = SyntheticSceneSpec(n_cars=40, x_range=(10.0, 12.0), min_gap=3.0)
    with pytest.raises(SceneError, match=r"^place_boxes: could not place Car \d+ of 40 .*"
                                         r"x_range=\[10.0, 12.0\], min_gap=3.0, n_cars=40"):
        generate_scene(spec, Rng(10))


PLACEMENT_SPECS = (
    SyntheticSceneSpec(),
    SyntheticSceneSpec(n_cars=5, n_pedestrians=3, n_cyclists=3),
    SyntheticSceneSpec(min_gap=0.0),
    SyntheticSceneSpec(yaw_range=(-np.pi, np.pi)),
)


def test_place_boxes_places_as_the_scalar_overlap_oracle_does(monkeypatch):
    # a candidate is placed when pair_iou reads 0 against every placed box;
    # with the scalar clip of the oracles deciding instead, every seed and
    # spec gives the same labels, byte for byte
    def placements(spec, seed):
        half_fov = np.arctan((spec.image_width / 2.0 - 1.0) / spec.focal)
        return [(o.klass, o.box.as_array().tobytes())
                for o in place_boxes(spec, Rng(seed), half_fov)]

    seeds = range(80)
    want = [placements(spec, seed) for spec in PLACEMENT_SPECS for seed in seeds]
    overlaps = []

    def scalar_pair_iou(table, _, rows, cols):
        got = [iou_bev_scalar(table[r], table[c]) for r, c in zip(rows, cols)]
        overlaps.extend(got)
        return np.array(got)

    # the "table" is then the box list itself
    monkeypatch.setattr(kitti, "BoxArrays", SimpleNamespace(of=list))
    monkeypatch.setattr(kitti, "pair_iou", scalar_pair_iou)
    got = [placements(spec, seed) for spec in PLACEMENT_SPECS for seed in seeds]
    assert got == want
    # the sweep rejects candidates as well as placing them
    assert 0 < sum(v > 0.0 for v in overlaps) < len(overlaps)


def test_make_camera_geometry():
    spec = SyntheticSceneSpec()
    calib = make_camera(spec)
    # a point straight ahead on the LiDAR x axis hits the image center column
    uv, depth, ok = calib.project_points(np.array([[20.0, 0.0, 0.0]]))
    assert ok[0] and depth[0] == pytest.approx(20.0)
    assert uv[0, 0] == pytest.approx(spec.image_width / 2.0)
    # +y (left in LiDAR) moves the pixel left (smaller u)
    uv2, _, _ = calib.project_points(np.array([[20.0, 2.0, 0.0]]))
    assert uv2[0, 0] < uv[0, 0]
    # +z (up) moves the pixel up (smaller v)
    uv3, _, _ = calib.project_points(np.array([[20.0, 0.0, 1.0]]))
    assert uv3[0, 1] < uv[0, 1]
