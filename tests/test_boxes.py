"""Box overlap, suppression, assignment, AP and detection I/O tests.

The overlap tests use boxes whose intersection is computable by hand
(axis-aligned offsets, 45-degree rotations), and hold the batched kernel
to the scalar clip of ``oracles``; suppression is checked against a
literal O(n^2) re-derivation over random detection sets; the AP test
freezes a fully hand-worked 3-detection / 2-ground-truth
example whose AP-40 is exactly 5/6.
"""

import numpy as np
import pytest

from pointfuse import boxes
from pointfuse.boxes import (
    Box3D,
    BoxArrays,
    BoxError,
    CLASSES,
    CLASS_IOU_THRESHOLD,
    DEFAULT_ANCHORS,
    DetectionResult,
    GroundTruth,
    average_precision_40,
    format_detection_row,
    iou_3d,
    iou_bev,
    iou_bound,
    nms,
    normalize_angle,
    pair_iou,
    write_detections,
)

from formats import parse_detection_row, read_detections
from oracles import (
    Assignment,
    CLS_NEGATIVE_IOU,
    CLS_POSITIVE_IOU,
    REG_ACTIVE_IOU,
    assign_proposals,
    box_from_array,
    clip_convex,
    iou_3d_scalar,
    iou_bev_scalar,
    polygon_area,
)


def make_box(x=0.0, y=0.0, z=0.0, l=4.0, w=2.0, h=1.5, yaw=0.0):
    return Box3D(x, y, z, l, w, h, yaw)


# overlap -> the one-pair kernel call, and its scalar oracle
KERNEL = {"bev": iou_bev, "3d": iou_3d}
SCALAR = {"bev": iou_bev_scalar, "3d": iou_3d_scalar}


# -- box basics -----------------------------------------------------------------


def test_box_validation_and_yaw_wrap():
    with pytest.raises(BoxError):
        make_box(l=0.0)
    with pytest.raises(BoxError):
        make_box(h=-1.0)
    for field in range(7):
        for bad in (np.nan, np.inf, -np.inf):
            vals = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0]
            vals[field] = bad
            with pytest.raises(BoxError):
                Box3D(*vals)
    assert make_box(yaw=3.0 * np.pi).yaw == pytest.approx(np.pi)
    assert normalize_angle(-np.pi) == pytest.approx(np.pi)
    assert normalize_angle(0.5) == 0.5


def test_bev_corners_counter_clockwise_and_rotated():
    box = make_box(l=4.0, w=2.0)
    corners = box.bev_corners()
    assert polygon_area(corners) == pytest.approx(8.0)
    # CCW: positive signed shoelace sum
    x, y = corners[:, 0], corners[:, 1]
    signed = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert signed > 0
    quarter = make_box(yaw=np.pi / 2).bev_corners()
    # rotating by 90 degrees swaps the extents
    assert np.max(np.abs(quarter[:, 0])) == pytest.approx(1.0)
    assert np.max(np.abs(quarter[:, 1])) == pytest.approx(2.0)


def test_contains_is_box_frame_aligned():
    box = make_box(l=4.0, w=2.0, h=2.0, yaw=np.pi / 2)
    inside = box.contains(np.array([[0.0, 1.9, 0.0], [1.9, 0.0, 0.0]]))
    assert inside.tolist() == [True, False]
    assert box.contains(np.array([0.0, 2.5, 0.0]), inflate=1.5)[0]


def test_box_array_round_trip():
    box = make_box(x=1.0, y=-2.0, z=0.5, yaw=0.3)
    back = box_from_array(box.as_array())
    assert np.array_equal(back.as_array(), box.as_array())


# -- polygon clipping and IoU ------------------------------------------------------


def test_clip_convex_square_overlap():
    a = np.array([[0.0, 0], [2, 0], [2, 2], [0, 2]])
    b = np.array([[1.0, 1], [3, 1], [3, 3], [1, 3]])
    inter = clip_convex(a, b)
    assert polygon_area(inter) == pytest.approx(1.0)
    far = b + 10.0
    assert polygon_area(clip_convex(a, far)) == 0.0


def test_iou_bev_axis_aligned_closed_form():
    a = make_box(l=4.0, w=2.0)
    b = make_box(x=2.0, l=4.0, w=2.0)  # half-length shift: overlap 4
    assert iou_bev(a, b) == pytest.approx(4.0 / 12.0)
    assert iou_bev(a, a) == pytest.approx(1.0)
    assert iou_bev(a, make_box(x=100.0)) == 0.0


def test_iou_bev_rotated_square_closed_form():
    # unit squares, one rotated 45 degrees about the shared centre:
    # intersection is a regular octagon of area 8*(sqrt(2)-1)/2 = 0.8284...
    a = make_box(l=2.0, w=2.0)
    b = make_box(l=2.0, w=2.0, yaw=np.pi / 4)
    inter = 4.0 * (2.0 * np.sqrt(2.0) - 2.0)
    assert iou_bev(a, b) == pytest.approx(inter / (8.0 - inter), rel=1e-9)


def test_iou_3d_separates_in_height():
    a = make_box(h=2.0)
    b = make_box(z=1.0, h=2.0)  # half-height offset
    bev_only = iou_bev(a, b)
    assert bev_only == pytest.approx(1.0)
    assert iou_3d(a, b) == pytest.approx(1.0 / 3.0)  # overlap 1 of (2+2-1)
    assert iou_3d(a, make_box(z=5.0)) == 0.0


def test_iou_is_symmetric():
    rng = np.random.default_rng(30)
    for _ in range(20):
        a = make_box(*rng.uniform(-2, 2, size=3), *rng.uniform(1, 4, size=3), rng.uniform(-np.pi, np.pi))
        b = make_box(*rng.uniform(-2, 2, size=3), *rng.uniform(1, 4, size=3), rng.uniform(-np.pi, np.pi))
        assert iou_bev(a, b) == pytest.approx(iou_bev(b, a), abs=1e-12)
        assert iou_3d(a, b) == pytest.approx(iou_3d(b, a), abs=1e-12)


def degenerate_pairs(rng, n):
    """Pairs at random poses whose clip runs edge-on to the other box, by
    kind: end-to-end touching, side-by-side sharing a whole edge, the same
    footprint labelled with l/w swapped and yaw + pi/2, identical, and
    nested at half size.  Values are the exact BEV (and 3D) IoU."""
    pairs = {"touching": [], "shared": [], "swapped": [], "identical": [], "nested": []}
    for _ in range(n):
        x, y, yaw = rng.uniform(0, 30), rng.uniform(-5, 5), rng.uniform(-np.pi, np.pi)
        l, w, h = rng.uniform(1, 5), rng.uniform(0.5, 3), rng.uniform(1, 2)
        c, s = np.cos(yaw), np.sin(yaw)
        a = Box3D(x, y, 0.0, l, w, h, yaw)
        l2 = rng.uniform(1, 5)
        along = (l + l2) / 2
        pairs["touching"].append((a, Box3D(x + along * c, y + along * s, 0.0, l2, w, h, yaw)))
        pairs["shared"].append((a, Box3D(x - w * s, y + w * c, 0.0, l, w, h, yaw)))
        pairs["swapped"].append((a, Box3D(x, y, 0.0, w, l, h, yaw + np.pi / 2)))
        pairs["identical"].append((a, Box3D(x, y, 0.0, l, w, h, yaw)))
        pairs["nested"].append((a, Box3D(x, y, 0.0, l / 2, w / 2, h, yaw)))
    return pairs


DEGENERATE_IOU = {"touching": 0.0, "shared": 0.0, "swapped": 1.0, "identical": 1.0, "nested": 0.25}


def test_iou_is_finite_and_exact_on_degenerate_pairs():
    # a segment parallel to a clip edge whose side test rounding flipped
    # used to divide by zero: NaN for touching and swapped-label boxes.
    # The kernel runs batched (the bytes of its one-pair calls), the
    # oracle pair by pair.
    with np.errstate(all="raise"):
        for kind, pairs in degenerate_pairs(np.random.default_rng(32), 500).items():
            table = BoxArrays.of([box for pair in pairs for box in pair])
            first, second = np.arange(0, 2 * len(pairs), 2), np.arange(1, 2 * len(pairs), 2)
            for overlap in ("bev", "3d"):
                v = pair_iou(table, table, first, second, overlap)
                u = pair_iou(table, table, second, first, overlap)
                assert np.all((0.0 <= v) & (v <= 1.0)) and np.max(np.abs(v - u)) <= 1e-12, kind
                assert np.max(np.abs(v - DEGENERATE_IOU[kind])) <= 1e-12, kind
                for a, b in pairs:
                    v, u = SCALAR[overlap](a, b), SCALAR[overlap](b, a)
                    assert 0.0 <= v <= 1.0 and abs(v - u) <= 1e-12, kind
                    assert abs(v - DEGENERATE_IOU[kind]) <= 1e-12, kind


def random_box(rng):
    """A box drawn as the acceptance gate's oracle-equivalence sets draw them."""
    return Box3D(float(rng.uniform(0, 10)), float(rng.uniform(-4, 4)),
                 float(rng.uniform(-0.5, 0.5)), float(rng.uniform(2, 5)),
                 float(rng.uniform(1, 3)), float(rng.uniform(1, 2)),
                 float(rng.uniform(-np.pi, np.pi)))


def assert_pair_iou_matches_scalar(subjects, clips):
    """pair_iou over all (subject, clip) pairs equals the scalar oracle,
    and iou_bound is never below it."""
    rows, cols = (g.ravel() for g in np.meshgrid(np.arange(len(subjects)),
                                                  np.arange(len(clips)), indexing="ij"))
    sub, clip = BoxArrays.of(subjects), BoxArrays.of(clips)
    for overlap, iou_fn in SCALAR.items():
        got = pair_iou(sub, clip, rows, cols, overlap)
        want = np.array([iou_fn(subjects[r], clips[c]) for r, c in zip(rows, cols)])
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12, overlap
        assert np.all(got <= iou_bound(sub, clip, rows, cols, overlap)), overlap


def test_box_arrays_corners_match_bev_corners():
    rng = np.random.default_rng(35)
    sample = [random_box(rng) for _ in range(200)] + [make_box(yaw=np.pi), make_box(yaw=-np.pi / 2)]
    table = BoxArrays.of(sample)
    want = np.stack([b.bev_corners() for b in sample])
    assert np.max(np.abs(table.corners - want)) <= 1e-12
    assert BoxArrays.of([]).corners.shape == (0, 4, 2)


def test_pair_iou_matches_scalar_on_random_sets(monkeypatch):
    rng = np.random.default_rng(33)
    sample = [random_box(rng) for _ in range(40)]
    assert_pair_iou_matches_scalar(sample, sample)
    # the gate's Monte-Carlo pairs: a box at the origin and one near it
    near = [Box3D(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0)), 0.0,
                  float(rng.uniform(2, 4)), float(rng.uniform(2, 4)), 2.0,
                  float(rng.uniform(-np.pi, np.pi))) for _ in range(20)]
    origin = [Box3D(0.0, 0.0, 0.0, float(rng.uniform(2, 4)), float(rng.uniform(2, 4)), 2.0,
                    float(rng.uniform(-np.pi, np.pi))) for _ in range(20)]
    assert_pair_iou_matches_scalar(origin, near)
    # block boundaries cut pairs anywhere; results must not depend on them
    monkeypatch.setattr(boxes, "PAIR_BLOCK", 7)
    assert_pair_iou_matches_scalar(sample[:15], sample[10:])


def test_pair_iou_matches_scalar_on_degenerate_pairs():
    pairs = [p for kind in degenerate_pairs(np.random.default_rng(34), 60).values() for p in kind]
    # the swapped-label pairs clip to 10 vertices in floating point, past
    # the 8 of exact arithmetic
    assert max(len(clip_convex(b.bev_corners(), a.bev_corners())) for a, b in pairs) > 8
    for a, b in pairs:
        assert_pair_iou_matches_scalar([a, b], [a, b])


def test_iou_bev_and_iou_3d_give_the_bytes_of_a_batched_pair_iou(monkeypatch):
    # each pair_iou value depends on its own pair only: the one-pair calls
    # equal a batched call bytewise, whatever else the tables and blocks hold
    rng = np.random.default_rng(41)
    sample = [random_box(rng) for _ in range(20)]
    sample += [b for kind in degenerate_pairs(rng, 2).values() for pair in kind for b in pair]
    table = BoxArrays.of(sample)
    rows, cols = np.indices((len(sample), len(sample))).reshape(2, -1)
    monkeypatch.setattr(boxes, "PAIR_BLOCK", 61)
    for overlap, iou_fn in KERNEL.items():
        got = pair_iou(table, table, rows, cols, overlap)
        assert (got > 0.0).sum() > len(sample), overlap
        want = np.array([iou_fn(sample[r], sample[c]) for r, c in zip(rows, cols)])
        assert got.tobytes() == want.tobytes(), overlap


def test_pair_iou_of_no_pairs_is_empty():
    table = BoxArrays.of([make_box()])
    empty = np.zeros(0, dtype=np.int64)
    assert pair_iou(table, table, empty, empty).shape == (0,)


# -- nms ------------------------------------------------------------------------


def nms_oracle(dets, thr, overlap="bev", ious=SCALAR):
    """Independent quadratic pass: visit by (-score, index), keep unless
    overlapping a kept box by ious[overlap](candidate, kept)."""
    iou_fn = ious[overlap]
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    kept = []
    for i in order:
        if all(iou_fn(dets[i].box, dets[k].box) <= thr for k in kept):
            kept.append(i)
    return kept


def random_detections(rng, n):
    dets = []
    for _ in range(n):
        box = make_box(x=float(rng.uniform(0, 12)), y=float(rng.uniform(-4, 4)),
                       z=float(rng.uniform(-0.5, 0.5)),
                       l=float(rng.uniform(2, 5)), w=float(rng.uniform(1, 3)),
                       h=float(rng.uniform(1, 2)), yaw=float(rng.uniform(-np.pi, np.pi)))
        # quantised scores so ties actually occur
        dets.append(DetectionResult(box, round(float(rng.uniform(0, 1)), 1), "Car"))
    return dets


def test_nms_matches_oracle_on_random_sets():
    rng = np.random.default_rng(31)
    for trial in range(60):
        dets = random_detections(rng, int(rng.integers(1, 12)))
        thr = float(rng.uniform(0.05, 0.7))
        for overlap in ("bev", "3d"):
            assert nms(dets, thr, overlap) == nms_oracle(dets, thr, overlap), f"trial {trial}"


def test_nms_matches_oracle_on_degenerate_sets():
    rng = np.random.default_rng(36)
    groups = degenerate_pairs(rng, 8)
    for trial in range(20):
        chosen = [groups[kind][int(rng.integers(8))] for kind in groups]
        dets = [DetectionResult(b, round(float(rng.uniform(0, 1)), 1), "Car")
                for pair in chosen for b in pair]
        thr = float(rng.uniform(0.0, 0.99))
        for overlap in ("bev", "3d"):
            assert nms(dets, thr, overlap) == nms_oracle(dets, thr, overlap), f"trial {trial}"


def test_nms_matches_oracle_on_desk_proposals():
    from pointfuse.config import NetworkConfig
    from pointfuse.kitti import SyntheticSceneSpec, generate_scene
    from pointfuse.nn import Rng
    from pointfuse.pipeline import DetectionModel, prepare_scene

    cfg = NetworkConfig.desk()
    prepared = prepare_scene(generate_scene(SyntheticSceneSpec(), Rng(4)), cfg, Rng(1004))
    model = DetectionModel(cfg, Rng(40))
    props = model.head.decode_proposals(model.forward(prepared).rpn, 0.0)
    assert len(props.boxes) == cfg.n_raw == 128
    # proposals cluster on the cars: many pairs have overlapping BEV AABBs
    table = BoxArrays.of(props.boxes)
    later, earlier = np.tril_indices(len(props.boxes), -1)
    near = np.all(np.minimum(table.hi[later], table.hi[earlier])
                  >= np.maximum(table.lo[later], table.lo[earlier]), axis=1)
    assert near.mean() > 0.2
    for overlap, iou_fn in SCALAR.items():
        got = pair_iou(table, table, later, earlier, overlap)
        want = np.array([iou_fn(props.boxes[r], props.boxes[c]) for r, c in zip(later, earlier)])
        assert np.max(np.abs(got - want)) <= 1e-12, overlap
        assert np.all(got <= iou_bound(table, table, later, earlier, overlap)), overlap
    dets = [DetectionResult(b, float(s), c) for b, s, c in zip(props.boxes, props.scores, props.classes)]
    for overlap, thr in (("bev", cfg.nms_test), ("3d", 0.3)):
        assert nms(dets, thr, overlap) == nms_oracle(dets, thr, overlap), overlap


NEAR_THRESHOLD_STEPS = (-1e-6, -1e-9, 0.0, 1e-9, 1e-6)


def near_threshold_copies(base, thr):
    """Copies of ``base`` slid along its heading so that their overlap
    with it is thr + each of NEAR_THRESHOLD_STEPS, as exactly as the
    rounding of the slide allows: two boxes of length l a distance d
    apart along it overlap at (l - d) / (l + d).  For an axis-aligned
    base the AABB bound is nearly exact, so only its slack separates the
    pairs it may skip from those it must not."""
    c, s = np.cos(base.yaw), np.sin(base.yaw)
    out = []
    for step in NEAR_THRESHOLD_STEPS:
        iou = thr + step
        d = base.l * (1.0 - iou) / (1.0 + iou)
        out.append(Box3D(base.x + d * c, base.y + d * s, base.z, base.l, base.w, base.h, base.yaw))
    return out


def near_threshold_scene(rng, thr):
    """Bases at yaws where the bound is tight (0, pi/2) and loose (random),
    up to 60 m from the origin, each with its near-threshold copies."""
    bases = [Box3D(float(rng.uniform(0, 60)), float(rng.uniform(-20, 20)), 0.0,
                   float(rng.uniform(1, 5)), float(rng.uniform(0.5, 2)), 1.5, yaw)
             for yaw in (0.0, np.pi / 2, float(rng.uniform(-np.pi, np.pi)))]
    return bases, [near_threshold_copies(b, thr) for b in bases]


@pytest.mark.parametrize("thr", [0.85, 0.7, 0.5, 0.25])
def test_nms_and_ap40_keep_their_results_at_the_threshold(thr, monkeypatch):
    # the bound may only skip pairs that cannot reach the threshold: with
    # overlaps a rounding step to 1e-6 from it, NMS and AP-40 equal the
    # kernel that clips every pair, and, where the overlap is not on the
    # threshold itself (there the kernel and the scalar calls may round to
    # different sides), the scalar oracles
    rng = np.random.default_rng(38)
    bases, copies = near_threshold_scene(rng, thr)
    n = len(bases)
    table = BoxArrays.of([b for b, cs in zip(bases, copies) for b in [b] * len(cs)])
    moved = BoxArrays.of([c for cs in copies for c in cs])
    k = np.arange(len(moved.area))
    steps = np.tile(NEAR_THRESHOLD_STEPS, n)
    assert np.max(np.abs(pair_iou(moved, table, k, k) - (thr + steps))) <= 1e-12
    off = [True] * n + [bool(step) for step in steps]

    def unbounded(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(boxes, "iou_bound",
                      lambda sub, clip, rows, cols, overlap: np.full(len(rows), np.inf))
            return fn(*args)

    every = bases + [c for cs in copies for c in cs]
    for trial in range(10):
        rank = rng.permutation(len(every)).astype(float)
        rank[:n] += len(every)  # bases rank first and meet each copy at its step
        dets = [DetectionResult(b, r / (2 * len(every)), "Car") for b, r in zip(every, rank)]
        apart = [d for d, o in zip(dets, off) if o]
        gts = [GroundTruth(b, "Car", int(rng.integers(0, 4))) for b in bases]
        for overlap in ("bev", "3d"):
            assert nms(dets, thr, overlap) == unbounded(nms, dets, thr, overlap), (trial, overlap)
            assert nms(apart, thr, overlap) == nms_oracle(apart, thr, overlap), (trial, overlap)
            for max_difficulty in (None, 1):
                args = ("Car", overlap, max_difficulty)
                res = average_precision_40(dets[n:], gts, thr, *args)
                # flagged (no counted ground truth) reads NaN, which equals nothing
                assert res.flagged or res == unbounded(average_precision_40, dets[n:], gts, thr,
                                                       *args)
                res = average_precision_40(apart[n:], gts, thr, *args)
                want = ap40_oracle(apart[n:], gts, thr, *args)
                assert res.flagged == want[0], (trial, overlap)
                assert res.flagged or (res.ap, res.n_gt, res.n_det) == want[1:], (trial, overlap)


@pytest.mark.parametrize("thr", [0.85, 0.7, 0.5, 0.25])
def test_nms_equals_the_quadratic_pass_over_iou_bev_on_the_threshold(thr):
    # boxes.iou_bev and iou_3d are one-pair calls of the kernel NMS decides
    # with, so the quadratic pass over them keeps what NMS keeps even where
    # an overlap sits on the threshold itself, and rounds to either side
    rng = np.random.default_rng(38)
    bases, copies = near_threshold_scene(rng, thr)
    every = bases + [c for cs in copies for c in cs]
    for trial in range(10):
        rank = rng.permutation(len(every)).astype(float)
        rank[:len(bases)] += len(every)  # bases rank first and meet each copy at its step
        dets = [DetectionResult(b, r / (2 * len(every)), "Car") for b, r in zip(every, rank)]
        for overlap in ("bev", "3d"):
            assert nms(dets, thr, overlap) == nms_oracle(dets, thr, overlap, KERNEL), (trial, overlap)


def test_nms_bounds_only_the_pairs_whose_aabbs_meet(monkeypatch):
    # pairs whose BEV AABBs do not meet overlap by 0, which suppresses
    # nothing at a threshold of 0 or more; NMS rejects one below 0
    rng = np.random.default_rng(39)
    dets = random_detections(rng, 40)
    table = BoxArrays.of([d.box for d in dets])
    later, earlier = np.tril_indices(len(dets), -1)
    meet = np.all(np.minimum(table.hi[later], table.hi[earlier])
                  >= np.maximum(table.lo[later], table.lo[earlier]), axis=1)
    assert 0 < meet.sum() < len(later)
    asked = []
    bound = boxes.iou_bound
    monkeypatch.setattr(boxes, "iou_bound",
                        lambda sub, clip, rows, cols, overlap: asked.append(len(rows))
                        or bound(sub, clip, rows, cols, overlap))
    for thr in (0.0, 0.3):
        for overlap in ("bev", "3d"):
            asked.clear()
            assert nms(dets, thr, overlap) == nms_oracle(dets, thr, overlap), (thr, overlap)
            assert asked == [meet.sum()], (thr, overlap)
    with pytest.raises(BoxError, match="threshold must be >= 0"):
        nms(dets, -0.1)


def test_nms_keeps_identical_boxes_only_once():
    box = make_box()
    dets = [DetectionResult(box, 0.9, "Car"), DetectionResult(box, 0.8, "Car")]
    assert nms(dets, 0.5) == [0]
    # strict >: IoU exactly at the threshold is kept
    b = make_box(x=2.0)  # IoU 1/3 with a
    dets = [DetectionResult(make_box(), 0.9, "Car"), DetectionResult(b, 0.8, "Car")]
    assert nms(dets, 1.0 / 3.0) == [0, 1]


def test_nms_empty_input():
    assert nms([], 0.5) == []


# -- assignment ------------------------------------------------------------------


def test_assignment_thresholds():
    assert (CLS_POSITIVE_IOU, CLS_NEGATIVE_IOU, REG_ACTIVE_IOU) == (0.6, 0.45, 0.55)
    gt = make_box(l=4.0, w=2.0)
    # x-shifts of a 4m box give IoU (4-dx)/(4+dx); invert for targets
    def shifted(iou):
        dx = 4.0 * (1.0 - iou) / (1.0 + iou)
        return make_box(x=dx)

    cases = [
        (shifted(0.7), 1, True),
        (shifted(0.5), -1, False),   # between negative and positive, below reg
        (shifted(0.58), -1, True),   # ignored for cls, active for reg
        (shifted(0.3), 0, False),
    ]
    out = assign_proposals([b for b, _, _ in cases], [gt])
    for got, (_, cls_label, reg) in zip(out, cases):
        assert got.cls_label == cls_label
        assert got.reg_active == reg
        assert got.gt_index == 0


def test_assignment_without_ground_truth_is_negative():
    out = assign_proposals([make_box()], [])
    assert out == [Assignment(0, False, -1, 0.0)]


def test_assignment_picks_best_overlap():
    gts = [make_box(x=0.0), make_box(x=1.0)]
    out = assign_proposals([make_box(x=0.9)], gts)
    assert out[0].gt_index == 1


# -- average precision ---------------------------------------------------------------


def golden_ap_inputs():
    """Two ground truths; three detections: TP at 0.9, FP at 0.8, TP at 0.7.

    Precision envelope: 1.0 up to recall 1/2, then 2/3 up to recall 1.
    AP-40 = (20 * 1 + 20 * 2/3) / 40 = 5/6.
    """
    g1 = make_box(x=0.0)
    g2 = make_box(x=10.0)
    gts = [GroundTruth(g1, "Car"), GroundTruth(g2, "Car")]
    dets = [DetectionResult(g1, 0.9, "Car"),
            DetectionResult(make_box(x=5.0), 0.8, "Car"),
            DetectionResult(g2, 0.7, "Car")]
    return dets, gts


def ap40_oracle(dets, gts, iou_threshold, klass, overlap="bev", max_difficulty=None):
    """The per-pair scalar AP-40: the same greedy matching and ignore
    rule, one scalar oracle call per same-scene (det, gt) pair."""
    iou_fn = SCALAR[overlap]
    gts = [g for g in gts if g.klass == klass]
    counted = [max_difficulty is None or g.difficulty <= max_difficulty for g in gts]
    n_pos = int(sum(counted))
    dets = [d for d in dets if d.klass == klass]
    if n_pos == 0:
        return (True, float("nan"), 0, len(dets))
    order = np.argsort(-np.array([d.score for d in dets]), kind="stable")
    matched = [False] * len(gts)
    tp_flags = []
    for i in order:
        det = dets[int(i)]
        best = {True: (0.0, -1), False: (0.0, -1)}
        for j, gt in enumerate(gts):
            if matched[j] or gt.scene != det.scene:
                continue
            v = iou_fn(det.box, gt.box)
            if v >= iou_threshold and v > best[counted[j]][0]:
                best[counted[j]] = (v, j)
        best_j = best[True][1] if best[True][1] >= 0 else best[False][1]
        if best_j < 0:
            tp_flags.append(0)
            continue
        matched[best_j] = True
        if counted[best_j]:
            tp_flags.append(1)
    tp = np.cumsum(tp_flags)
    fp = np.cumsum([1 - f for f in tp_flags])
    recall = tp / n_pos
    precision = tp / np.maximum(tp + fp, 1)
    ap = 0.0
    for k in range(1, 41):
        mask = recall >= k / 40 - 1e-12
        ap += float(precision[mask].max()) if mask.any() else 0.0
    return (False, ap / 40, n_pos, len(dets))


def test_ap40_matches_scalar_path_on_multi_scene_sets():
    rng = np.random.default_rng(37)
    for trial in range(25):
        gts, dets = [], []
        for scene in range(3):
            for _ in range(int(rng.integers(0, 5))):
                g = GroundTruth(random_box(rng), str(rng.choice(CLASSES)),
                                int(rng.integers(0, 4)), scene)
                gts.append(g)
                if rng.uniform() < 0.4:
                    # an overlapping twin of the other difficulty class, so a
                    # detection can match both a counted and an ignored box
                    b = g.box
                    twin = Box3D(b.x + rng.normal(0, 0.2), b.y, b.z, b.l, b.w, b.h, b.yaw)
                    gts.append(GroundTruth(twin, g.klass, 3 - g.difficulty, scene))
                # near-copies straddle the 0.5 / 0.7 thresholds; some land
                # in another scene, where they must not match
                for _ in range(int(rng.integers(0, 4))):
                    b = g.box
                    box = Box3D(b.x + rng.normal(0, 0.3), b.y + rng.normal(0, 0.3), b.z,
                                b.l * rng.uniform(0.8, 1.2), b.w, b.h, b.yaw + rng.normal(0, 0.1))
                    dets.append(DetectionResult(box, round(float(rng.uniform(0, 1)), 1), g.klass,
                                                int(rng.choice([scene, scene, (scene + 1) % 3]))))
        dets += [DetectionResult(random_box(rng), round(float(rng.uniform(0, 1)), 1),
                                 str(rng.choice(CLASSES)), int(rng.integers(0, 3)))
                 for _ in range(int(rng.integers(0, 6)))]
        for klass in CLASSES:
            for overlap in ("bev", "3d"):
                for max_difficulty in (None, 1):
                    thr = CLASS_IOU_THRESHOLD[klass]
                    res = average_precision_40(dets, gts, thr, klass, overlap, max_difficulty)
                    want = ap40_oracle(dets, gts, thr, klass, overlap, max_difficulty)
                    got = (res.flagged, res.ap, res.n_gt, res.n_det)
                    assert got[0] == want[0] and got[2:] == want[2:], f"trial {trial}"
                    assert got[1] == want[1] or (np.isnan(got[1]) and np.isnan(want[1])), f"trial {trial}"


def test_ap40_equal_overlaps_go_to_the_first_ground_truth():
    # the first detection overlaps both ground truths at exactly 0.6 and
    # takes the first, so the second detection, which overlaps only the
    # first ground truth, is a false positive
    gts = [GroundTruth(make_box(x=0.0), "Car"), GroundTruth(make_box(x=2.0), "Car")]
    dets = [DetectionResult(make_box(x=1.0), 0.9, "Car"), DetectionResult(make_box(x=0.0), 0.8, "Car")]
    res = average_precision_40(dets, gts, 0.5, "Car")
    assert res.ap == 0.5
    assert (False, res.ap, 2, 2) == ap40_oracle(dets, gts, 0.5, "Car")


def test_ap40_golden_value_exact():
    dets, gts = golden_ap_inputs()
    res = average_precision_40(dets, gts, CLASS_IOU_THRESHOLD["Car"], "Car")
    assert abs(res.ap - 5.0 / 6.0) <= 1e-9
    assert not res.flagged
    assert (res.n_gt, res.n_det) == (2, 3)


def test_ap40_perfect_and_empty_cases():
    dets, gts = golden_ap_inputs()
    perfect = [d for d in dets if d.score != 0.8]
    assert average_precision_40(perfect, gts, 0.7, "Car").ap == pytest.approx(1.0)
    assert average_precision_40([], gts, 0.7, "Car").ap == 0.0
    flagged = average_precision_40(dets, [], 0.7, "Car")
    assert flagged.flagged and np.isnan(flagged.ap)


def test_ap40_each_gt_matched_once():
    g = make_box()
    gts = [GroundTruth(g, "Car")]
    dets = [DetectionResult(g, 0.9, "Car"), DetectionResult(g, 0.8, "Car")]
    res = average_precision_40(dets, gts, 0.7, "Car")
    # second detection of the same object is a false positive:
    # precision at full recall is 1.0 (reached at the first detection)
    assert res.ap == pytest.approx(1.0)
    # but a score flip makes the FP come first and halves the envelope
    dets_flipped = [DetectionResult(make_box(x=50.0), 0.95, "Car")] + dets
    res2 = average_precision_40(dets_flipped, gts, 0.7, "Car")
    assert res2.ap == pytest.approx(0.5)


def test_ap40_ignores_high_difficulty_ground_truth():
    g1, g2 = make_box(x=0.0), make_box(x=10.0)
    gts = [GroundTruth(g1, "Car", difficulty=0), GroundTruth(g2, "Car", difficulty=3)]
    dets = [DetectionResult(g1, 0.9, "Car"), DetectionResult(g2, 0.8, "Car")]
    res = average_precision_40(dets, gts, 0.7, "Car", max_difficulty=2)
    # the difficulty-3 object is an ignore region: its detection is
    # neither TP nor FP, and it does not add to n_gt
    assert res.n_gt == 1
    assert res.ap == pytest.approx(1.0)


def test_ap40_scene_separation():
    g = make_box()
    gts = [GroundTruth(g, "Car", scene=0)]
    dets = [DetectionResult(g, 0.9, "Car", scene=1)]  # right box, wrong scene
    assert average_precision_40(dets, gts, 0.7, "Car").ap == 0.0


def test_ap40_filters_other_classes():
    g = make_box()
    gts = [GroundTruth(g, "Car"), GroundTruth(make_box(x=10.0), "Pedestrian")]
    dets = [DetectionResult(g, 0.9, "Car")]
    res = average_precision_40(dets, gts, 0.7, "Car")
    assert res.n_gt == 1 and res.ap == pytest.approx(1.0)


# -- constants and I/O -----------------------------------------------------------


def test_class_table():
    assert CLASSES == ("Car", "Pedestrian", "Cyclist")
    assert set(DEFAULT_ANCHORS) == set(CLASSES)
    assert CLASS_IOU_THRESHOLD["Car"] == 0.7
    assert CLASS_IOU_THRESHOLD["Pedestrian"] == 0.5
    for l, w, h in DEFAULT_ANCHORS.values():
        assert l > 0 and w > 0 and h > 0


def test_detection_row_round_trip(tmp_path):
    dets = [DetectionResult(make_box(x=1.23456789, yaw=-0.5), 0.875, "Car"),
            DetectionResult(make_box(x=-3.0, l=0.8, w=0.6, h=1.7), 0.125, "Pedestrian")]
    path = str(tmp_path / "dets.txt")
    write_detections(path, dets)
    back = read_detections(path, scene=7)
    assert len(back) == 2
    for a, b in zip(back, dets):
        assert a.scene == 7
        assert a.klass == b.klass
        assert a.score == b.score
        assert np.allclose(a.box.as_array(), b.box.as_array(), atol=1e-7)
    row = format_detection_row(dets[0])
    assert row.split()[0] == "Car"
    with pytest.raises(BoxError):
        parse_detection_row("Car 0.5 1 2 3")
    with pytest.raises(BoxError):
        DetectionResult(make_box(), 1.5, "Car")
    with pytest.raises(BoxError):
        DetectionResult(make_box(), 0.5, "Tree")
