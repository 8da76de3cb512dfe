"""Two-stream fusion block tests.

Structural invariants, each checked bitwise where the implementation
promises it:
  differentiable IDW agrees with the plain-number oracle, including
    coincident targets,
  attention is invariant to the listed order of a neighbour group, and
    its one fused op equals its tape-op chain in ``oracles.py``,
  cross fusion is symmetric under swapping the streams together with
    their parameters, and its attention rows are stochastic; a one-way
    link is bitwise the raw half of a two-way one, and only the
    backbone's final link is one-way,
  switching attention or combine modes actually changes the output,
  the backbone honours its width contract and per-stage links can be
    disabled without changing shapes.
"""

import tracemalloc

import numpy as np
import pytest

import pointfuse.geometry as G
import pointfuse.tensor as T
from pointfuse.boxes import Box3D, DEFAULT_ANCHORS
from pointfuse.config import NetworkConfig
from pointfuse.fusion import (
    CrossFusion,
    FeatureProp,
    RAW_IN_CHANNELS,
    FusionError,
    PointAttention,
    ProposalHead,
    RpnOutput,
    TransitionDown,
    TransitionUp,
    TwoStreamNetwork,
    attend,
    idw_interpolate,
    route_down,
    route_stream,
    route_up,
)
from pointfuse.nn import Mlp, Rng, gradcheck, init_weight, named_params
from pointfuse.tensor import NonFiniteError, Tensor

import oracles


def cloud(rng, n, c):
    coords = Tensor(rng.uniform(-4.0, 4.0, size=(n, 3)))
    feats = Tensor(rng.standard_normal((n, c)), requires_grad=True)
    return coords, feats


def tiny_config(**overrides) -> NetworkConfig:
    cfg = NetworkConfig.desk()
    cfg.n_foreground = 64
    cfg.n_raw = 24
    cfg.n_pseudo = 12
    cfg.raw_stages = (12, 6)
    cfg.pseudo_stages = (8, 4)
    cfg.stage_channels = (6, 8)
    cfg.l_group = 4
    cfg.feature_channels = 5
    for k, v in overrides.items():
        setattr(cfg, k, v)
    cfg.validate()
    return cfg


# -- differentiable idw -----------------------------------------------------------


def test_idw_matches_geometry_oracle():
    rng = np.random.default_rng(70)
    for trial in range(20):
        n_src = int(rng.integers(4, 15))
        src = G.PointSet(rng.uniform(-2, 2, size=(n_src, 3)), rng.standard_normal((n_src, 4)))
        targets = rng.uniform(-2, 2, size=(5, 3))
        idx = G.knn_group(targets, src.coords, 3)
        got = idw_interpolate(Tensor(targets), Tensor(src.coords), Tensor(src.feats), idx)
        for i in range(5):
            want = oracles.idw_interpolate(targets[i], src, k=3)
            assert np.max(np.abs(got.data[i] - want)) < 1e-9, f"trial {trial}"


def test_idw_coincident_target_copies_the_source():
    src_coords = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [0.0, 0, 0]])
    src_feats = np.array([[10.0], [20.0], [30.0], [40.0]])
    # first exact match (smallest index) wins; the other weights vanish
    idx = G.knn_group(np.zeros((1, 3)), src_coords, 4)
    got = idw_interpolate(Tensor(np.zeros((1, 3))), Tensor(src_coords), Tensor(src_feats), idx)
    assert got.data[0, 0] == 10.0


def test_idw_gradients_away_from_coincidence():
    rng = np.random.default_rng(71)
    tc = Tensor(rng.uniform(-1, 1, size=(4, 3)), requires_grad=True)
    sc = Tensor(rng.uniform(2, 4, size=(8, 3)), requires_grad=True)
    sf = Tensor(rng.standard_normal((8, 3)), requires_grad=True)
    idx = G.knn_group(tc.data, sc.data, 3)
    err = gradcheck(lambda: T.tsum(idw_interpolate(tc, sc, sf, idx) ** 2), [tc, sc, sf], rng=Rng(72))
    assert err < 1e-6


def test_idw_coincident_rows_keep_finite_gradients():
    sc = Tensor(np.array([[0.0, 0, 0], [1.0, 0, 0], [0.5, 0.5, 0]]), requires_grad=True)
    sf = Tensor(np.array([[1.0], [2.0], [3.0]]), requires_grad=True)
    tc = Tensor(np.array([[0.0, 0, 0], [0.2, 0.1, 0]]), requires_grad=True)
    out = idw_interpolate(tc, sc, sf, G.knn_group(tc.data, sc.data, 3))
    assert out.data[0, 0] == 1.0
    T.tsum(out).backward()
    assert np.all(np.isfinite(tc.grad))
    assert np.all(np.isfinite(sc.grad))
    # the copied row contributes no coordinate gradient
    assert np.all(tc.grad[0] == 0.0)


# -- point attention ----------------------------------------------------------------


def test_attention_shapes_and_validation():
    rng = np.random.default_rng(73)
    coords, feats = cloud(rng, 10, 6)
    attn = PointAttention(Rng(0), 6)
    groups = G.knn_group(coords.data, coords.data, 4)
    out = attn(coords, feats, groups)
    assert out.shape == (10, 6)
    with pytest.raises(FusionError):
        PointAttention(Rng(0), 6, mode="divide")
    with pytest.raises(FusionError):
        attn(coords, Tensor(np.zeros((10, 5))), groups)
    with pytest.raises(FusionError):
        attn(coords, feats, groups[:7])


def test_attention_is_bitwise_invariant_to_group_listing_order():
    rng = np.random.default_rng(74)
    coords, feats = cloud(rng, 12, 6)
    groups = G.knn_group(coords.data, coords.data, 5)
    for mode in ("subtract", "multiply"):
        attn = PointAttention(Rng(1), 6, mode=mode)
        base = attn(coords, feats, groups).data
        for trial in range(5):
            shuffled = groups.copy()
            perm_rng = np.random.default_rng(100 + trial)
            for row in shuffled:
                perm_rng.shuffle(row)
            again = attn(coords, feats, shuffled).data
            assert np.array_equal(base, again), f"mode {mode}, trial {trial}"


def test_attention_modes_produce_different_outputs():
    rng = np.random.default_rng(75)
    coords, feats = cloud(rng, 10, 6)
    groups = G.knn_group(coords.data, coords.data, 4)
    sub = PointAttention(Rng(2), 6, mode="subtract")(coords, feats, groups).data
    mul = PointAttention(Rng(2), 6, mode="multiply")(coords, feats, groups).data
    assert np.max(np.abs(sub - mul)) > 1e-6


def test_attention_keeps_residual_path():
    # zeroing the output LBR's scale and shift collapses the block to
    # its input residual exactly
    rng = np.random.default_rng(76)
    coords, feats = cloud(rng, 8, 4)
    attn = PointAttention(Rng(3), 4)
    attn.out_lbr.norm_scale.data[:] = 0.0
    attn.out_lbr.norm_shift.data[:] = 0.0
    groups = G.knn_group(coords.data, coords.data, 3)
    out = attn(coords, feats, groups)
    assert np.array_equal(out.data, feats.data)


# -- fused attention ops against their tape-op chains ---------------------------------


def _backward_twice(run, leaves, w, second_consumer=None):
    """Backward twice through sum(run() * w) (after sum(c * c) when c =
    second_consumer is given) from zeroed grads; returns the output, the
    loss and the leaf grads after each backward."""
    T.zero_grads(leaves)
    out = run()
    loss = T.tsum(out * w)
    if second_consumer is not None:     # its gradient enters c's sum before the op's
        loss = T.tsum(second_consumer * second_consumer) + loss
    grads = []
    for _ in range(2):     # the second backward accumulates onto the first
        loss.backward()
        grads.append([p.grad.copy() for p in leaves])
    return out, loss, grads


def _assert_same_bits(got, want):
    """Outputs, losses and every leaf grad of two _backward_twice runs
    are equal byte for byte."""
    (got_out, got_loss, got_grads), (want_out, want_loss, want_grads) = got, want
    assert got_out.data.tobytes() == want_out.data.tobytes()
    assert got_loss.data.tobytes() == want_loss.data.tobytes()
    for got_pass, want_pass in zip(got_grads, want_grads):
        for g, h in zip(got_pass, want_pass):
            assert g.tobytes() == h.tobytes()


# The case ids name the LBR normalisation the block runs ("standardize",
# its only one) ahead of the mode, as they did when a second one existed.
@pytest.mark.parametrize("mode", ["subtract", "multiply"], ids=lambda m: f"standardize-{m}")
@pytest.mark.parametrize("group", [1, 4])
@pytest.mark.parametrize("leaves", ["params", "params-feats", "params-feats-coords"])
def test_attention_equals_its_chain_bit_for_bit(mode, group, leaves):
    rng = np.random.default_rng(80 + group)
    coords = Tensor(rng.uniform(-4.0, 4.0, (10, 3)), requires_grad="coords" in leaves)
    feats = Tensor(rng.standard_normal((10, 6)), requires_grad="feats" in leaves)
    w = Tensor(rng.standard_normal((10, 6)))
    groups = G.knn_group(coords.data, coords.data, group)
    block = PointAttention(Rng(8), 6, mode=mode)
    ps = [p for _, p in named_params(block, "a")] + [t for t in (coords, feats) if t.requires_grad]
    second = coords if "coords" in leaves else None
    got = _backward_twice(lambda: block(coords, feats, groups), ps, w, second)
    _assert_same_bits(got, _backward_twice(
        lambda: oracles.attention_chain(block, coords, feats, groups), ps, w, second))
    assert not np.array_equal(got[2][0][0], 0.0)


def _attend_chain(qkv, coords, groups, mode, pos_mlp, score_mlp):
    """``fusion.attend`` as its chain: the positional encoding's, then the
    attention's."""
    pos = oracles.pos_encoding_chain(coords, groups, pos_mlp)
    return oracles.attend_chain(qkv, pos, groups, mode, score_mlp)


@pytest.mark.parametrize("group", [1, 4])
@pytest.mark.parametrize("coords_as", ["constant", "leaf", "leaf-second-consumer"])
def test_pos_encoding_equals_its_chain_bit_for_bit(group, coords_as):
    # the positional encoding inside attend, with the attention it feeds;
    # each group lists its centre, whose offset is exactly zero
    rng = np.random.default_rng(86 + group)
    coords = Tensor(rng.uniform(-4.0, 4.0, (10, 3)), requires_grad=coords_as != "constant")
    qkv = Tensor(rng.standard_normal((10, 18)), requires_grad=True)
    groups = np.sort(G.knn_group(coords.data, coords.data, group), axis=1)
    pos_mlp, score_mlp = Mlp(Rng(11), 3, 6, 6), Mlp(Rng(12), 6, 6, 6)
    w = Tensor(rng.standard_normal((10, 6)))
    ps = ([qkv] + [p for _, p in named_params(pos_mlp, "p") + named_params(score_mlp, "s")]
          + ([coords] if coords.requires_grad else []))
    second = coords if coords_as == "leaf-second-consumer" else None
    for mode in ("subtract", "multiply"):
        args = (qkv, coords, groups, mode, pos_mlp, score_mlp)
        got = _backward_twice(lambda: attend(*args), ps, w, second)
        _assert_same_bits(got, _backward_twice(lambda: _attend_chain(*args), ps, w, second))
        # with groups of one, every offset and so every coordinate gradient is 0
        assert all(np.any(g != 0.0) for g in got[2][0]) or group == 1


def _nodes_behind(out, inputs, block):
    """Op nodes between out and the inputs or the block's parameters."""
    stop = {id(t) for t in inputs} | {id(p) for _, p in named_params(block, "a")}
    stack, seen, nodes = [out], {id(out)}, 0
    while stack:
        node = stack.pop()
        nodes += 1
        for p in node._parents:
            if id(p) not in seen and id(p) not in stop:
                seen.add(id(p))
                stack.append(p)
    return nodes


def test_attention_records_at_most_five_tape_nodes():
    # fails if the attention's layers or its op are split back into chains
    rng = np.random.default_rng(81)
    coords, feats = cloud(rng, 10, 6)
    coords.requires_grad = True
    groups = G.knn_group(coords.data, coords.data, 4)
    block = PointAttention(Rng(9), 6)
    assert _nodes_behind(block(coords, feats, groups), (coords, feats), block) <= 5
    assert _nodes_behind(oracles.attention_chain(block, coords, feats, groups),
                         (coords, feats), block) == 25


def test_attention_without_a_tape_records_no_parents():
    rng = np.random.default_rng(82)
    coords, feats = cloud(rng, 10, 6)
    groups = G.knn_group(coords.data, coords.data, 4)
    block = PointAttention(Rng(10), 6)
    with T.no_grad():
        qkv = T.matmul(block.qkv_lbr(feats), block.expand)
        args = (qkv, coords, groups, "subtract", block.pos, block.score)
        pooled, want_pooled = attend(*args), _attend_chain(*args)
        out = block(coords, feats, groups)
        want = oracles.attention_chain(block, coords, feats, groups)
    for t in (pooled, out):
        assert not t.requires_grad and t._parents == () and t._vjp is None
    assert pooled.data.tobytes() == want_pooled.data.tobytes()
    assert out.data.tobytes() == want.data.tobytes()


BIG = 1e308
PAIRS = np.array([[0, 1], [0, 1]])


def _t(values):
    return Tensor(np.array(values, dtype=np.float64))


def _score_mlp(w1=0.5, w2=0.5, c_in=1):
    """A c_in -> 1 -> 1 MLP with the given weights and zero biases."""
    score = Mlp(Rng(0), c_in, 1, 1)
    score.fc1.weight.data[:] = w1
    score.fc2.weight.data[:] = w2
    score.fc1.bias.data[:] = score.fc2.bias.data[:] = 0.0
    return score


def _pos_mlp(shift=0.0):
    """A 3 -> 1 -> 1 MLP whose output is ``shift`` at every offset."""
    pos = _score_mlp(w1=0.0, w2=0.0, c_in=3)
    pos.fc2.bias.data[:] = shift
    return pos


ZEROS = _t(np.zeros((2, 3)))


@pytest.mark.parametrize("args", [
    lambda: (ZEROS, _t([[BIG, 0.0, 0.0], [-BIG, 0.0, 0.0]]), _score_mlp(c_in=3)),
    lambda: (ZEROS, _t([[1e300, 0.0, 0.0], [-1e300, 0.0, 0.0]]), _score_mlp(w1=1e10, c_in=3)),
    lambda: (ZEROS, _t([[1e300, 0.0, 0.0], [-1e300, 0.0, 0.0]]),
             _score_mlp(w1=1.0, w2=1e10, c_in=3)),
    lambda: (_t([[BIG, -BIG, 0.0]] * 2), ZEROS, _pos_mlp()),
    lambda: (_t([[1e200, 1e200, 0.0]] * 2), ZEROS, _pos_mlp(), "multiply"),
    lambda: (_t([[BIG, 0.0, 0.0]] * 2), ZEROS, _pos_mlp(BIG)),
    lambda: (_t([[BIG, 0.0, 0.0]] * 2), ZEROS, _pos_mlp(), "subtract", _score_mlp(w1=4.0)),
    lambda: (_t([[BIG, 0.0, 0.0]] * 2), ZEROS, _pos_mlp(), "subtract",
             _score_mlp(w1=1.0, w2=4.0)),
    lambda: (_t([[0.0, 0.0, BIG]] * 2), ZEROS, _pos_mlp(BIG)),
], ids=["pos-encoding", "pos-hidden", "pos-out", "q-minus-k", "q-times-k", "plus-pos",
        "score-hidden", "score-logits", "v-plus-pos"])
def test_attention_ops_raise_where_their_chains_raise(args):
    # (qkv, coords, pos_mlp[, mode[, score_mlp]]); mode defaults to
    # subtract, score_mlp to _score_mlp()
    def call(op):
        given = args()
        qkv, coords, pos_mlp, mode, score_mlp = given + ("subtract", _score_mlp())[len(given) - 3:]
        return op(qkv, coords, PAIRS, mode, pos_mlp, score_mlp)

    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError):
            call(_attend_chain)
        with pytest.raises(NonFiniteError, match=r"from attend on operand shapes"):
            call(attend)


def test_attention_ops_validate_their_groups():
    coords, pos_mlp, score_mlp = Tensor(np.zeros((3, 3))), Mlp(Rng(0), 3, 2, 2), Mlp(Rng(0), 2, 2, 2)
    qkv = Tensor(np.zeros((3, 6)))
    with pytest.raises(T.ShapeError, match="attend index out of range"):
        attend(qkv, coords, np.array([[0, 3]] * 3), "subtract", pos_mlp, score_mlp)
    with pytest.raises(T.ShapeError, match="attend needs integer indices"):
        attend(qkv, coords, np.array([[0.0, 1.0]] * 3), "subtract", pos_mlp, score_mlp)
    groups = np.array([[0, 1]] * 3)
    with pytest.raises(T.ShapeError, match=r"attend needs groups \[3, L\]"):
        attend(qkv, coords, groups[:2], "subtract", pos_mlp, score_mlp)
    # qkv must be exactly 3c wide for the score MLP's c, not pooled over
    # its first 3c columns; coords need qkv's rows; MLPs d -> c and c -> c
    shapes = "attend needs qkv \\[m, 3c\\], coords \\[m, d\\], a d -> c positional MLP"
    for width in (5, 7, 8):
        with pytest.raises(T.ShapeError, match=shapes + r".* got qkv \(3, %d\)" % width):
            attend(Tensor(np.zeros((3, width))), coords, groups, "subtract", pos_mlp, score_mlp)
    for bad in (np.zeros((4, 3)), np.zeros((3, 3, 1)), np.zeros(3)):
        with pytest.raises(T.ShapeError, match=shapes):
            attend(qkv, Tensor(bad), groups, "subtract", pos_mlp, score_mlp)
    for pos in (Mlp(Rng(0), 2, 2, 2), Mlp(Rng(0), 3, 2, 1), Mlp(Rng(0), 3, 2, 3)):
        with pytest.raises(T.ShapeError, match=shapes):
            attend(qkv, coords, groups, "subtract", pos, score_mlp)
    with pytest.raises(T.ShapeError, match=shapes + ".* 2 -> 3$"):
        attend(qkv, coords, groups, "subtract", pos_mlp, Mlp(Rng(0), 2, 2, 3))
    # qkv [5, 14] with a 4 -> 4 score MLP: columns 12-13 would go unread
    with pytest.raises(T.ShapeError, match=shapes + r".* got qkv \(5, 14\)"):
        attend(Tensor(np.zeros((5, 14))), Tensor(np.zeros((5, 3))), np.array([[0, 1, 2]] * 5),
               "subtract", Mlp(Rng(0), 3, 4, 4), Mlp(Rng(0), 4, 4, 4))


# -- the one-op IDW against its chain --------------------------------------------------


def _idw_inputs(coords_as, coincident):
    rng = np.random.default_rng(90 + coincident)
    leaf = coords_as != "constant"
    sc = Tensor(rng.uniform(-2, 2, (9, 3)), requires_grad=leaf)
    targets = rng.uniform(-2, 2, (6, 3))
    if coincident:          # two rows sit on a source, one on a duplicated pair
        targets[1], targets[4] = sc.data[3], sc.data[7]
        sc.data[5] = sc.data[7]
    tc = Tensor(targets, requires_grad=leaf)
    sf = Tensor(rng.standard_normal((9, 4)), requires_grad=True)
    return tc, sc, sf, G.knn_group(tc.data, sc.data, 3), Tensor(rng.standard_normal((6, 4)))


@pytest.mark.parametrize("coincident", [False, True])
@pytest.mark.parametrize("coords_as", ["constant", "leaf", "leaf-second-consumer"])
def test_idw_equals_its_chain_bit_for_bit(coords_as, coincident):
    tc, sc, sf, idx, w = _idw_inputs(coords_as, coincident)
    ps = [t for t in (tc, sc, sf) if t.requires_grad]
    second = sc if coords_as == "leaf-second-consumer" else None
    got = _backward_twice(lambda: idw_interpolate(tc, sc, sf, idx), ps, w, second)
    _assert_same_bits(got, _backward_twice(
        lambda: oracles.idw_chain(tc, sc, sf, idx), ps, w, second))
    assert all(np.any(g != 0.0) for g in got[2][0])
    if coincident:
        assert got[0].data[1].tobytes() == sf.data[3].tobytes()
    if coincident and tc.requires_grad:
        assert np.all(got[2][0][0][1] == 0.0)       # the copied row: no coordinate gradient


def test_idw_without_a_tape_records_no_parents():
    tc, sc, sf, idx, _ = _idw_inputs("leaf", True)
    with T.no_grad():
        out = idw_interpolate(tc, sc, sf, idx)
        want = oracles.idw_chain(tc, sc, sf, idx)
    assert not out.requires_grad and out._parents == () and out._vjp is None
    assert out.data.tobytes() == want.data.tobytes()


def test_idw_validates_its_neighbour_index():
    tc, sc, sf, idx, _ = _idw_inputs("leaf", False)
    bad = idx.copy()
    bad[2, 1] = 9
    with pytest.raises(T.ShapeError, match="idw_interpolate index out of range"):
        idw_interpolate(tc, sc, sf, bad)
    with pytest.raises(T.ShapeError, match="idw_interpolate"):
        idw_interpolate(tc, sc, sf, idx[:4])


@pytest.mark.parametrize("target, feats", [
    ([[BIG, 0.0, 0.0]], [[1.0]]),           # the offsets overflow
    ([[1e200, 0.0, 0.0]], [[1.0]]),         # their squares do
    ([[1e-9, 0.0, 0.0]], [[1e300]]),        # the weighted features do
], ids=["offsets", "squares", "weighted"])
def test_idw_raises_where_its_chain_raises(target, feats):
    args = (_t(target), _t([[-1e-9, 0.0, 0.0]]), _t(feats), np.zeros((1, 1), dtype=np.int64))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError):
            oracles.idw_chain(*args)
        with pytest.raises(NonFiniteError, match="from idw_interpolate on operand shapes"):
            idw_interpolate(*args)


# n = 512 targets, k = 3 neighbours and c = 48 channels, as a train-mid
# TransitionUp reads them: one [n, k, c] float64 array is 590 KB.  The
# chain kept two (the gathered features and their weighted product).
IDW_NKC_BYTES = 512 * 3 * 48 * 8


def test_idw_keeps_less_than_one_gathered_feature_array_alive():
    rng = np.random.default_rng(95)
    tc = Tensor(rng.uniform(-2, 2, (512, 3)), requires_grad=True)
    sc = Tensor(rng.uniform(-2, 2, (128, 3)), requires_grad=True)
    sf = Tensor(rng.standard_normal((128, 48)), requires_grad=True)
    idx = G.knn_group(tc.data, sc.data, 3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = idw_interpolate(tc, sc, sf, idx)
        kept = tracemalloc.get_traced_memory()[0] - base - out.data.nbytes
    finally:
        tracemalloc.stop()
    assert out.requires_grad and kept < IDW_NKC_BYTES, kept


# -- transitions ----------------------------------------------------------------------


def test_transition_down_contract():
    rng = np.random.default_rng(77)
    coords, feats = cloud(rng, 20, 5)
    td = TransitionDown(Rng(4), 5, 7, m_out=8, l_group=4)
    route = route_down(coords.data, 8, 4)
    down_coords, out = td(coords, feats, route)
    assert down_coords.shape == (8, 3)
    assert out.shape == (8, 7)
    assert np.array_equal(route.centers, G.farthest_point_sampling(coords.data, 8))
    assert np.array_equal(down_coords.data, coords.data[route.centers])
    with pytest.raises(FusionError):
        td(coords, Tensor(np.zeros((20, 4))), route)
    with pytest.raises(FusionError):
        route_down(coords.data, 20, 4)
    with pytest.raises(FusionError):  # a route built for another block
        td(coords, feats, route_down(coords.data, 9, 4))


def test_transition_up_and_feature_prop_contract():
    rng = np.random.default_rng(78)
    coarse_c, coarse_f = cloud(rng, 6, 8)
    skip_c, skip_f = cloud(rng, 15, 5)
    tu = TransitionUp(Rng(5), 8, 5, l_group=4)
    route = route_up(coarse_c.data, skip_c.data, 4, attention=True)
    out = tu(coarse_c, coarse_f, skip_c, skip_f, route)
    assert out.shape == (15, 8)  # width stays at the coarse width
    fp = FeatureProp(Rng(6), 8, 5, 9)
    out = fp(coarse_c, coarse_f, skip_c, skip_f, route_up(coarse_c.data, skip_c.data, 4, attention=False))
    assert out.shape == (15, 9)
    with pytest.raises(FusionError):
        tu(coarse_c, Tensor(np.zeros((6, 5))), skip_c, skip_f, route)
    with pytest.raises(FusionError):  # groups of another size
        tu(coarse_c, coarse_f, skip_c, skip_f, route_up(coarse_c.data, skip_c.data, 3, attention=True))


def test_transition_gradients_flow_to_both_levels():
    rng = np.random.default_rng(79)
    coarse_c, coarse_f = cloud(rng, 5, 4)
    skip_c, skip_f = cloud(rng, 9, 3)
    tu = TransitionUp(Rng(7), 4, 3, l_group=3)
    route = route_up(coarse_c.data, skip_c.data, 3, attention=True)
    T.tsum(tu(coarse_c, coarse_f, skip_c, skip_f, route) ** 2).backward()
    assert np.any(coarse_f.grad != 0.0)
    assert np.any(skip_f.grad != 0.0)


# -- cross fusion -----------------------------------------------------------------------


def mirror_cross_fusion(a: CrossFusion) -> CrossFusion:
    """Build the stream-swapped twin of ``a`` by copying parameters."""
    c_raw, c_embed = a.k_raw.data.shape
    c_pseudo = a.k_pseudo.data.shape[0]
    b = CrossFusion(Rng(999), c_pseudo, c_raw, c_embed,
                    a.n_pseudo, a.n_raw, a.combine, a.mode)
    pairs = [(getattr(b, f"{w}_{side}"), getattr(a, f"{w}_{other}"))
             for w in ("q", "k", "v", "proj") for side, other in (("raw", "pseudo"), ("pseudo", "raw"))]
    for dst, src in ((b.mix_raw, a.mix_pseudo), (b.mix_pseudo, a.mix_raw)):
        pairs += [(dst.fc1.weight, src.fc1.weight), (dst.fc1.bias, src.fc1.bias),
                  (dst.fc2.weight, src.fc2.weight), (dst.fc2.bias, src.fc2.bias)]
    for dst, src in ((b.out_raw, a.out_pseudo), (b.out_pseudo, a.out_raw)):
        pairs += [(dst.weight, src.weight), (dst.norm_scale, src.norm_scale),
                  (dst.norm_shift, src.norm_shift)]
    for dst, src in pairs:
        dst.data = src.data.copy()
    return b


def test_cross_fusion_shapes_rows_and_validation():
    rng = np.random.default_rng(80)
    f_raw = Tensor(rng.standard_normal((9, 6)))
    f_pseudo = Tensor(rng.standard_normal((5, 6)))
    for combine in ("subtract", "add", "concat"):
        cf = CrossFusion(Rng(8), 6, 6, 6, 9, 5, combine=combine)
        enh_raw, enh_pseudo, aux = cf(f_raw, f_pseudo)
        assert enh_raw.shape == (9, 6)
        assert enh_pseudo.shape == (5, 6)
        assert aux["attn_raw"].shape == (9, 5)
        assert aux["attn_pseudo"].shape == (5, 9)
        assert np.allclose(aux["attn_raw"].sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(aux["attn_pseudo"].sum(axis=1), 1.0, atol=1e-12)
    with pytest.raises(FusionError):
        CrossFusion(Rng(8), 6, 6, 6, 9, 5)(f_pseudo, f_raw)
    with pytest.raises(FusionError):
        CrossFusion(Rng(8), 6, 6, 6, 9, 5, combine="xor")


def test_cross_fusion_swap_symmetry_is_bitwise():
    rng = np.random.default_rng(81)
    f_raw = Tensor(rng.standard_normal((7, 6)))
    f_pseudo = Tensor(rng.standard_normal((4, 6)))
    for mode in ("multiply", "subtract"):
        for combine in ("subtract", "add", "concat"):
            a = CrossFusion(Rng(9), 6, 6, 6, 7, 4, combine=combine, mode=mode)
            b = mirror_cross_fusion(a)
            er_a, ep_a, aux_a = a(f_raw, f_pseudo)
            er_b, ep_b, aux_b = b(f_pseudo, f_raw)
            assert np.array_equal(er_a.data, ep_b.data), (mode, combine)
            assert np.array_equal(ep_a.data, er_b.data), (mode, combine)
            assert np.array_equal(aux_a["attn_raw"], aux_b["attn_pseudo"])


def test_one_way_cross_fusion_is_the_raw_half_of_the_two_way_link():
    rng = np.random.default_rng(85)
    f_raw = Tensor(rng.standard_normal((7, 6)), requires_grad=True)
    f_pseudo = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    for combine in ("subtract", "add", "concat"):
        both = CrossFusion(Rng(14), 6, 6, 6, 7, 4, combine=combine)
        one = CrossFusion(Rng(14), 6, 6, 6, 7, 4, combine=combine, one_way=True)
        halves = ("q_raw", "v_raw", "k_pseudo", "proj_pseudo", "mix_pseudo", "out_pseudo")
        assert [(n, p.data.tobytes()) for n, p in named_params(one, "l")] == [
            (n, p.data.tobytes()) for n, p in named_params(both, "l") if n.split(".")[1] not in halves]
        er_b, _, aux_b = both(f_raw, f_pseudo)
        er_o, ep_o, aux_o = one(f_raw, f_pseudo)
        assert ep_o is f_pseudo
        assert er_o.data.tobytes() == er_b.data.tobytes(), combine
        assert list(aux_o) == ["attn_raw"]
        assert aux_o["attn_raw"].tobytes() == aux_b["attn_raw"].tobytes()
    assert {n.split(".")[1] for n, _ in named_params(one, "l")} == {
        "k_raw", "q_pseudo", "v_pseudo", "proj_raw", "mix_raw", "out_raw"}
    # each stream's q, k and v blocks are the column blocks of one draw
    for side in ("raw", "pseudo"):
        blocks = [getattr(both, f"{w}_{side}").data for w in "qkv"]
        draw = init_weight(Rng(14).derive(f"w_{side}"), 6, 18).data
        assert np.hstack(blocks).tobytes() == draw.tobytes()


def test_backbone_final_link_is_one_way():
    cfg = tiny_config()
    net = TwoStreamNetwork(cfg, Rng(15))
    _, pf, aux = net(*backbone_inputs(cfg))
    assert list(aux["final"]) == ["attn_raw"]
    assert all("attn_pseudo" in info for info in aux["links"])
    names = [n for n, _ in named_params(net, "net")]
    assert not any(n.startswith("net.final_link.") and "_pseudo." in n for n in names)
    assert sum(n.startswith(f"net.link{k}.out_pseudo.") for n in names
               for k in range(len(cfg.stage_channels))) == 3 * len(cfg.stage_channels)
    net.final_link = None       # without the final link, the decoder's own output
    _, pf_decoder, _ = net(*backbone_inputs(cfg))
    assert pf.data.tobytes() == pf_decoder.data.tobytes()


def test_cross_fusion_combine_modes_differ_pairwise():
    rng = np.random.default_rng(82)
    f_raw = Tensor(rng.standard_normal((9, 6)))
    f_pseudo = Tensor(rng.standard_normal((5, 6)))
    outs = {}
    for combine in ("subtract", "add", "concat"):
        cf = CrossFusion(Rng(10), 6, 6, 6, 9, 5, combine=combine)
        outs[combine] = cf(f_raw, f_pseudo)[0].data
    names = list(outs)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            assert np.max(np.abs(outs[names[i]] - outs[names[j]])) > 1e-6, (names[i], names[j])


def test_cross_fusion_attention_modes_differ():
    rng = np.random.default_rng(83)
    f_raw = Tensor(rng.standard_normal((9, 6)))
    f_pseudo = Tensor(rng.standard_normal((5, 6)))
    mul = CrossFusion(Rng(11), 6, 6, 6, 9, 5, mode="multiply")(f_raw, f_pseudo)[0].data
    sub = CrossFusion(Rng(11), 6, 6, 6, 9, 5, mode="subtract")(f_raw, f_pseudo)[0].data
    assert np.max(np.abs(mul - sub)) > 1e-6


# -- two-stream backbone --------------------------------------------------------------


def backbone_inputs(cfg, seed=84):
    """Raw coords and feats, pseudo coords and feats, and the raw route."""
    rng = np.random.default_rng(seed)
    rc = rng.uniform(-4, 4, size=(cfg.n_raw, 3))
    return (Tensor(rc),
            Tensor(rng.standard_normal((cfg.n_raw, RAW_IN_CHANNELS))),
            Tensor(rng.uniform(-4, 4, size=(cfg.n_pseudo, 3))),
            Tensor(rng.standard_normal((cfg.n_pseudo, cfg.feature_channels))),
            route_stream(rc, cfg.raw_stages, cfg.l_group, attention_up=True))


def test_backbone_width_contract_and_aux():
    cfg = tiny_config()
    net = TwoStreamNetwork(cfg, Rng(12))
    rf, pf, aux = net(*backbone_inputs(cfg))
    assert rf.shape == (cfg.n_raw, cfg.stage_channels[-1])
    assert pf.shape == (cfg.n_pseudo, cfg.stage_channels[-1])
    assert len(aux["links"]) == len(cfg.stage_channels)
    assert "final" in aux
    names = [n for n, _ in named_params(net, "net")]
    assert len(names) == len(set(names))  # no duplicate parameter names


def test_backbone_disabled_links_change_structure_not_shapes():
    cfg = tiny_config(pft_enabled=False, pft_final=False)
    net = TwoStreamNetwork(cfg, Rng(13))
    rf, pf, aux = net(*backbone_inputs(cfg))
    assert rf.shape == (cfg.n_raw, cfg.stage_channels[-1])
    assert aux["links"] == []
    assert "final" not in aux
    assert not any("link" in n for n, _ in named_params(net, "net"))


def test_backbone_without_links_isolates_the_streams():
    cfg = tiny_config(pft_enabled=False, pft_final=False)
    net = TwoStreamNetwork(cfg, Rng(14))
    rc, rfeat, pc, pfeat, route = backbone_inputs(cfg)
    base_raw = net(rc, rfeat, pc, pfeat, route)[0].data
    pc2 = Tensor(pc.data + 0.25)
    pfeat2 = Tensor(pfeat.data * -1.5)
    again_raw = net(rc, rfeat, pc2, pfeat2, route)[0].data
    assert np.array_equal(base_raw, again_raw)
    # with links enabled the pseudo stream must influence the raw output
    cfg2 = tiny_config()
    net2 = TwoStreamNetwork(cfg2, Rng(14))
    a = net2(rc, rfeat, pc, pfeat, route)[0].data
    b = net2(rc, rfeat, pc2, pfeat2, route)[0].data
    assert np.max(np.abs(a - b)) > 1e-9


def test_backbone_validates_input_shapes():
    cfg = tiny_config()
    net = TwoStreamNetwork(cfg, Rng(15))
    rc, rfeat, pc, pfeat, route = backbone_inputs(cfg)
    with pytest.raises(FusionError):
        net(rc, Tensor(np.zeros((cfg.n_raw, 9))), pc, pfeat, route)
    with pytest.raises(FusionError):
        net(rc, rfeat, pc, Tensor(np.zeros((cfg.n_pseudo + 1, cfg.feature_channels))), route)


# -- box encoding and the proposal head ---------------------------------------------


def test_encode_decode_box_round_trip():
    rng = np.random.default_rng(85)
    anchor = DEFAULT_ANCHORS["Car"]
    for _ in range(50):
        gt = Box3D(*rng.uniform(-10, 10, size=3), *rng.uniform(1.0, 5.0, size=3),
                   rng.uniform(-np.pi, np.pi))
        vote = rng.uniform(-10, 10, size=3)
        res = oracles.encode_box(gt, vote, anchor)
        back = oracles.decode_box(res, vote, anchor)
        assert np.max(np.abs(back.as_array() - gt.as_array())) < 1e-9


def test_zero_residuals_decode_to_the_anchor_at_the_vote():
    anchor = DEFAULT_ANCHORS["Pedestrian"]
    res = np.zeros(8)
    res[7] = 1.0  # (sin, cos) = (0, 1) -> yaw 0
    box = oracles.decode_box(res, np.array([1.0, 2.0, 3.0]), anchor)
    assert (box.x, box.y, box.z) == (1.0, 2.0, 3.0)
    assert (box.l, box.w, box.h) == anchor
    assert box.yaw == 0.0


def test_yaw_decodes_through_atan2():
    anchor = DEFAULT_ANCHORS["Car"]
    for yaw in (-3.0, -1.2, 0.0, 0.7, 2.9):
        res = np.zeros(8)
        res[6], res[7] = np.sin(yaw), np.cos(yaw)
        assert oracles.decode_box(res, np.zeros(3), anchor).yaw == pytest.approx(yaw, abs=1e-12)


def test_proposal_head_outputs_and_threshold():
    rng = np.random.default_rng(86)
    coords = Tensor(rng.uniform(-3, 3, size=(10, 3)))
    feats = Tensor(rng.standard_normal((10, 7)))
    head = ProposalHead(Rng(16), 7, ("Car", "Pedestrian", "Cyclist"), DEFAULT_ANCHORS,
                        vote_hidden=8, head_hidden=8)
    out = head(coords, feats)
    assert out.votes.shape == (10, 3)
    assert out.cls_prob.shape == (10, 3)
    assert out.reg.shape == (10, 8)
    assert np.all((out.cls_prob.data > 0.0) & (out.cls_prob.data < 1.0))

    best = out.cls_prob.data.max(axis=1)
    thr = float(np.median(best))
    props = head.decode_proposals(out, thr)
    want = np.flatnonzero(best >= thr)  # threshold is inclusive
    assert np.array_equal(props.indices, want)
    assert len(props.boxes) == len(want)
    assert all(k in ("Car", "Pedestrian", "Cyclist") for k in props.classes)
    none = head.decode_proposals(out, 1.0)
    assert len(none.boxes) == 0
    with pytest.raises(FusionError):
        head(coords, Tensor(np.zeros((10, 6))))


def assert_decoded_rows_equal_the_oracle(head, out, props):
    assert len(props.boxes) == len(props.indices) > 0
    for box, klass, i in zip(props.boxes, props.classes, props.indices):
        want = oracles.decode_box(out.reg.data[i], out.votes.data[i], head.anchors[klass])
        assert box.as_array().tobytes() == want.as_array().tobytes(), i


def test_decoded_proposals_equal_the_per_row_oracle_bytewise():
    from pointfuse.kitti import SyntheticSceneSpec, generate_scene
    from pointfuse.pipeline import DetectionModel, prepare_scene

    cfg = NetworkConfig.desk()
    prepared = prepare_scene(generate_scene(SyntheticSceneSpec(), Rng(4)), cfg, Rng(1004))
    model = DetectionModel(cfg, Rng(40))
    out = model.forward(prepared).rpn
    props = model.head.decode_proposals(out, 0.0)
    assert len(props.boxes) == cfg.n_raw
    assert_decoded_rows_equal_the_oracle(model.head, out, props)
    # wide residuals on rows of every class, and a threshold that drops some
    rng = np.random.default_rng(87)
    n = 3000
    out = RpnOutput(Tensor(rng.uniform(-50, 50, (n, 3))), Tensor(rng.uniform(0.0, 1.0, (n, 3))),
                    Tensor(rng.normal(0.0, 3.0, (n, 8))))
    props = model.head.decode_proposals(out, 0.3)
    assert set(props.classes) == set(model.head.classes) and len(props.boxes) < n
    assert_decoded_rows_equal_the_oracle(model.head, out, props)
