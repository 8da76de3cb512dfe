"""Property tests (hypothesis) for the routing kernels, depth binning,
the batched rotated IoU and its AABB bound, NMS and the subnormal-lifted
matmul gradients.

Every property runs derandomized with a bounded number of examples and
no example database, so the suite stays deterministic and quick.
Integer-grid coordinates make distances exact, so ties are real ties
and the tie rules can be checked exactly.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import pointfuse.tensor as T
from pointfuse.boxes import Box3D, BoxArrays, DetectionResult, iou_bound, nms, pair_iou
from pointfuse.geometry import LidBinning, farthest_point_sampling, knn_group, lid_decode, lid_encode

from oracles import iou_bev_scalar, knn_argsort

BOUNDED = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@st.composite
def grid_cloud(draw, min_n, max_n):
    """[n, 3] integer-grid points drawn from a pool on a grid of drawn
    extent, so points repeat and many distances are equal."""
    n = draw(st.integers(min_n, max_n))
    spread = draw(st.integers(1, 8))
    pool = draw(hnp.arrays(np.int64, (draw(st.integers(1, n)), 3),
                           elements=st.integers(-spread, spread)))
    picks = draw(hnp.arrays(np.int64, n, elements=st.integers(0, len(pool) - 1)))
    return pool[picks].astype(np.float64)


@BOUNDED
@given(coords=grid_cloud(1, 150), queries=grid_cloud(1, 60), half=st.booleans(),
       k_frac=st.floats(0, 1))
def test_knn_equals_stable_argsort_on_tied_grids(coords, queries, half, k_frac):
    if half:
        queries = queries + 0.5
    n = len(coords)
    for k in sorted({1, n, 1 + int(k_frac * (n - 1))}):
        got = knn_group(queries, coords, k)
        assert got.shape == (len(queries), k)
        assert np.array_equal(got, knn_argsort(queries, coords, k)), k


@BOUNDED
@given(coords=grid_cloud(1, 150), m_frac=st.floats(0, 1), start_frac=st.floats(0, 1))
def test_fps_takes_the_first_farthest_point(coords, m_frac, start_frac):
    n = len(coords)
    m = 1 + int(m_frac * (n - 1))
    start = min(int(start_frac * n), n - 1)
    chosen = farthest_point_sampling(coords, m, start)
    assert chosen[0] == start
    d2 = np.sum((coords[:, None, :] - coords[None, :, :]) ** 2, axis=2)
    for j in range(1, m):
        gap = d2[chosen[:j]].min(axis=0)
        # the pick is the smallest index among the points farthest from the picks so far
        assert chosen[j] == np.flatnonzero(gap == gap.max())[0], j


@BOUNDED
@given(d_min=st.floats(0.0, 5.0), span=st.floats(1.0, 80.0), n_bins=st.integers(1, 100),
       fracs=hnp.arrays(np.float64, st.integers(1, 50), elements=st.floats(0.0, 1.0)))
def test_lid_encode_decode_round_trip(d_min, span, n_bins, fracs):
    binning = LidBinning(d_min, d_min + span, n_bins)
    depth = np.minimum(binning.d_min + fracs * span, binning.d_max)
    b, res = lid_encode(depth, binning)
    assert np.all((b >= 0) & (b < n_bins))
    assert np.all((res >= 0.0) & (res <= 1.0))
    inner = depth < binning.d_max  # bins are half-open except the last
    assert np.all(binning.edges[b[inner]] <= depth[inner])
    assert np.all(depth[inner] < binning.edges[b[inner] + 1])
    assert np.max(np.abs(lid_decode(b, res, binning) - depth)) <= 1e-9


box = st.builds(
    Box3D,
    x=st.floats(-3.0, 3.0), y=st.floats(-3.0, 3.0), z=st.floats(-0.5, 0.5),
    l=st.floats(0.5, 4.0), w=st.floats(0.5, 4.0), h=st.floats(0.5, 2.0),
    yaw=st.one_of(st.sampled_from([0.0, np.pi / 2, np.pi, -np.pi / 4]),
                  st.floats(-np.pi, np.pi)))


@BOUNDED
@given(a=st.lists(box, min_size=1, max_size=4), b=st.lists(box, min_size=1, max_size=4),
       same=st.booleans())
def test_pair_iou_symmetric_bounded_and_scalar(a, b, same):
    if same:
        b = a + b  # identical boxes on both sides
    rows, cols = (g.ravel() for g in np.meshgrid(np.arange(len(a)), np.arange(len(b)), indexing="ij"))
    ta, tb = BoxArrays.of(a), BoxArrays.of(b)
    ab = pair_iou(ta, tb, rows, cols)
    ba = pair_iou(tb, ta, cols, rows)
    assert np.all((ab >= 0.0) & (ab <= 1.0))
    assert np.max(np.abs(ab - ba)) <= 1e-12
    want = np.array([iou_bev_scalar(a[r], b[c]) for r, c in zip(rows, cols)])
    assert np.max(np.abs(ab - want)) <= 1e-12


@st.composite
def box_pair_set(draw):
    """Boxes in pairs that test the bound's edges: a free box, an identical
    copy, the same centre turned 45 or 90 degrees (also with l and w
    swapped, the same footprint), or a box touching its partner end to end
    or side by side, exactly or 1e-12 (relative) apart either way, also at
    yaws where the AABBs touch too.  The set sits up to 70 m from the origin, where the clip
    rounds coarser."""
    shift = draw(st.sampled_from([0.0, 30.0, 70.0]))
    out = []
    for _ in range(draw(st.integers(1, 3))):
        a = draw(box)
        a = Box3D(a.x + shift, a.y - shift / 2, a.z, a.l, a.w, a.h, a.yaw)
        kind = draw(st.sampled_from(["free", "identical", "turned", "end", "side"]))
        if kind == "free":
            b = draw(box)
            b = Box3D(b.x + shift, b.y - shift / 2, b.z, b.l, b.w, b.h, b.yaw)
        elif kind == "identical":
            b = Box3D(a.x, a.y, a.z, a.l, a.w, a.h, a.yaw)
        elif kind == "turned":
            l, w = (a.w, a.l) if draw(st.booleans()) else (a.l, a.w)
            turn = draw(st.sampled_from([np.pi / 2, np.pi / 4]))
            b = Box3D(a.x, a.y, a.z, l, w, a.h, a.yaw + turn)
        else:
            other = draw(box)
            gap = draw(st.sampled_from([0.0, 1e-12, -1e-12]))
            yaw = a.yaw if draw(st.booleans()) else draw(st.sampled_from([0.0, np.pi / 2]))
            a = Box3D(a.x, a.y, a.z, a.l, a.w, a.h, yaw)
            c, s = np.cos(yaw), np.sin(yaw)
            if kind == "end":
                d = (a.l + other.l) / 2 * (1.0 + gap)
                b = Box3D(a.x + d * c, a.y + d * s, other.z, other.l, a.w, other.h, yaw)
            else:
                d = (a.w + other.w) / 2 * (1.0 + gap)
                b = Box3D(a.x - d * s, a.y + d * c, other.z, a.l, other.w, other.h, yaw)
        out += [a, b]
    return out


@BOUNDED
@given(sample=box_pair_set())
def test_iou_bound_is_never_below_pair_iou(sample):
    rows, cols = (g.ravel() for g in np.meshgrid(np.arange(len(sample)), np.arange(len(sample)),
                                                  indexing="ij"))
    table = BoxArrays.of(sample)
    for overlap in ("bev", "3d"):
        iou = pair_iou(table, table, rows, cols, overlap)
        bound = iou_bound(table, table, rows, cols, overlap)
        assert np.all(iou <= bound), overlap


@BOUNDED
@given(boxes=st.lists(box, min_size=1, max_size=10), data=st.data(),
       thr=st.floats(0.05, 0.95))
def test_nms_keeps_map_through_a_permutation_of_distinct_scores(boxes, data, thr):
    scores = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(boxes), max_size=len(boxes),
                                unique=True))
    perm = data.draw(st.permutations(range(len(boxes))))
    dets = [DetectionResult(b, s, "Car") for b, s in zip(boxes, scores)]
    kept = nms(dets, thr)
    assert [perm[i] for i in nms([dets[p] for p in perm], thr)] == kept


@BOUNDED
@given(others=st.lists(box, max_size=6), copy=box, slots=st.lists(st.integers(0, 6), min_size=2,
       max_size=5), score=st.floats(0.0, 1.0), data=st.data(), thr=st.floats(0.05, 0.95))
def test_nms_keeps_the_smallest_index_among_equal_overlapping_scores(others, copy, slots, score,
                                                                      data, thr):
    # copies of one box (IoU 1 with each other) share a score and sit at
    # drawn places among other boxes with other scores
    dets = [DetectionResult(b, s, "Car") for b, s in zip(others, data.draw(st.lists(
        st.floats(0.0, 1.0).filter(lambda v: v != score), min_size=len(others),
        max_size=len(others))))]
    for slot in slots:
        dets.insert(min(slot, len(dets)), DetectionResult(copy, score, "Car"))
    copies = [i for i, d in enumerate(dets) if d.box is copy]
    kept = nms(dets, thr)
    assert [i for i in kept if i in copies] in ([], [copies[0]])


@BOUNDED
@given(m=st.integers(1, 12), n=st.integers(1, 12), extra_k=st.integers(0, 64),
       sub_frac=st.floats(0, 1), zero_frac=st.floats(0, 0.5), seed=st.integers(0, 2**32 - 1))
def test_lifted_matmul_gradients_differ_only_where_the_plain_ones_underflow(
        m, n, extra_k, sub_frac, zero_frac, seed):
    # integer operands keep every product with a normal gradient entry
    # normal, so only rows (g @ b.T) and columns (a.T @ g) of g that hold
    # subnormals can round differently, and by at most one subnormal
    # step per summed term
    rng = np.random.default_rng(seed)
    k = T.LIFT_MIN_K + extra_k
    a = rng.integers(-8, 9, (m, k)).astype(np.float64)
    b = rng.integers(-8, 9, (k, n)).astype(np.float64)
    g = rng.normal(0.0, 1e-3, (m, n))
    sub = rng.random((m, n)) < sub_frac
    g[sub] = rng.uniform(-1.0, 1.0, int(sub.sum())) * T._TINY
    g[rng.random((m, n)) < zero_frac] = 0.0
    has_sub = (g != 0) & (np.abs(g) < T._TINY)
    lifted = T.grad_products_lifted
    out = T.matmul(T.Tensor(a, requires_grad=True), T.Tensor(b, requires_grad=True))
    ga, gb = out._vjp(g)
    assert T.grad_products_lifted == lifted + (2 if has_sub.any() else 0)
    for got, plain, clean, terms in ((ga, g @ b.T, ~has_sub.any(axis=1)[:, None], n),
                                     (gb, a.T @ g, ~has_sub.any(axis=0)[None, :], m)):
        assert np.abs(got - plain).max() <= terms * 2.0 ** -1074
        clean = np.broadcast_to(clean, got.shape)
        assert got[clean].tobytes() == plain[clean].tobytes()
