"""Property tests (hypothesis) for the routing kernels, depth binning and
the batched rotated IoU.

Every property runs derandomized with a bounded number of examples and
no example database, so the suite stays deterministic and quick.
Integer-grid coordinates make distances exact, so ties are real ties
and the tie rules can be checked exactly.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from pointfuse.boxes import Box3D, BoxArrays, iou_bev, pair_iou
from pointfuse.geometry import LidBinning, farthest_point_sampling, knn_group, lid_decode, lid_encode

from oracles import knn_argsort

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
    want = np.array([iou_bev(a[r], b[c]) for r, c in zip(rows, cols)])
    assert np.max(np.abs(ab - want)) <= 1e-12
