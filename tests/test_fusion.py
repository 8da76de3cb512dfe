"""Two-stream fusion block tests.

Structural invariants, each checked bitwise where the implementation
promises it:
  differentiable IDW agrees with the plain-number oracle, including
    coincident targets,
  attention is invariant to the listed order of a neighbour group,
  cross fusion is symmetric under swapping the streams together with
    their parameters, and its attention rows are stochastic,
  switching attention or combine modes actually changes the output,
  the backbone honours its width contract and per-stage links can be
    disabled without changing shapes.
"""

import numpy as np
import pytest

import pointfuse.geometry as G
import pointfuse.tensor as T
from pointfuse.boxes import Box3D, DEFAULT_ANCHORS
from pointfuse.config import NetworkConfig
from pointfuse.fusion import (
    CrossFusion,
    FeatureProp,
    FusionError,
    PointAttention,
    ProposalHead,
    TransitionDown,
    TransitionUp,
    TwoStreamNetwork,
    decode_box,
    encode_box,
    idw_interpolate,
)
from pointfuse.nn import Rng, gradcheck
from pointfuse.tensor import Tensor

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
        got = idw_interpolate(Tensor(targets), Tensor(src.coords), Tensor(src.feats))
        for i in range(5):
            want = oracles.idw_interpolate(targets[i], src, k=3)
            assert np.max(np.abs(got.data[i] - want)) < 1e-9, f"trial {trial}"


def test_idw_coincident_target_copies_the_source():
    src_coords = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [0.0, 0, 0]])
    src_feats = np.array([[10.0], [20.0], [30.0], [40.0]])
    # first exact match (smallest index) wins; the other weights vanish
    got = idw_interpolate(Tensor(np.zeros((1, 3))), Tensor(src_coords), Tensor(src_feats), k=4)
    assert got.data[0, 0] == 10.0


def test_idw_gradients_away_from_coincidence():
    rng = np.random.default_rng(71)
    tc = Tensor(rng.uniform(-1, 1, size=(4, 3)), requires_grad=True)
    sc = Tensor(rng.uniform(2, 4, size=(8, 3)), requires_grad=True)
    sf = Tensor(rng.standard_normal((8, 3)), requires_grad=True)
    err = gradcheck(lambda: T.tsum(idw_interpolate(tc, sc, sf) ** 2), [tc, sc, sf], rng=Rng(72))
    assert err < 1e-6


def test_idw_coincident_rows_keep_finite_gradients():
    sc = Tensor(np.array([[0.0, 0, 0], [1.0, 0, 0], [0.5, 0.5, 0]]), requires_grad=True)
    sf = Tensor(np.array([[1.0], [2.0], [3.0]]), requires_grad=True)
    tc = Tensor(np.array([[0.0, 0, 0], [0.2, 0.1, 0]]), requires_grad=True)
    out = idw_interpolate(tc, sc, sf, k=3)
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


# -- transitions ----------------------------------------------------------------------


def test_transition_down_contract():
    rng = np.random.default_rng(77)
    coords, feats = cloud(rng, 20, 5)
    td = TransitionDown(Rng(4), 5, 7, m_out=8, l_group=4)
    down_coords, out, centers = td(coords, feats)
    assert down_coords.shape == (8, 3)
    assert out.shape == (8, 7)
    assert np.array_equal(centers, G.farthest_point_sampling(coords.data, 8))
    assert np.array_equal(down_coords.data, coords.data[centers])
    with pytest.raises(FusionError):
        td(coords, Tensor(np.zeros((20, 4))))
    with pytest.raises(FusionError):
        TransitionDown(Rng(4), 5, 7, m_out=20, l_group=4)(coords, feats)


def test_transition_up_and_feature_prop_contract():
    rng = np.random.default_rng(78)
    coarse_c, coarse_f = cloud(rng, 6, 8)
    skip_c, skip_f = cloud(rng, 15, 5)
    tu = TransitionUp(Rng(5), 8, 5, l_group=4)
    out = tu(coarse_c, coarse_f, skip_c, skip_f)
    assert out.shape == (15, 8)  # width stays at the coarse width
    fp = FeatureProp(Rng(6), 8, 5, 9)
    out = fp(coarse_c, coarse_f, skip_c, skip_f)
    assert out.shape == (15, 9)
    with pytest.raises(FusionError):
        tu(coarse_c, Tensor(np.zeros((6, 5))), skip_c, skip_f)


def test_transition_gradients_flow_to_both_levels():
    rng = np.random.default_rng(79)
    coarse_c, coarse_f = cloud(rng, 5, 4)
    skip_c, skip_f = cloud(rng, 9, 3)
    tu = TransitionUp(Rng(7), 4, 3, l_group=3)
    T.tsum(tu(coarse_c, coarse_f, skip_c, skip_f) ** 2).backward()
    assert np.any(coarse_f.grad != 0.0)
    assert np.any(skip_f.grad != 0.0)


# -- cross fusion -----------------------------------------------------------------------


def mirror_cross_fusion(a: CrossFusion) -> CrossFusion:
    """Build the stream-swapped twin of ``a`` by copying parameters."""
    c_raw = a.w_raw.data.shape[0]
    c_pseudo = a.w_pseudo.data.shape[0]
    b = CrossFusion(Rng(999), c_pseudo, c_raw, a.c_embed,
                    a.n_pseudo, a.n_raw, a.combine, a.mode)
    pairs = [(b.w_raw, a.w_pseudo), (b.w_pseudo, a.w_raw)]
    for dst, src in ((b.proj_raw, a.proj_pseudo), (b.proj_pseudo, a.proj_raw)):
        pairs += [(dst.weight, src.weight), (dst.bias, src.bias)]
    for dst, src in ((b.mix_raw, a.mix_pseudo), (b.mix_pseudo, a.mix_raw)):
        pairs += [(dst.fc1.weight, src.fc1.weight), (dst.fc1.bias, src.fc1.bias),
                  (dst.fc2.weight, src.fc2.weight), (dst.fc2.bias, src.fc2.bias)]
    for dst, src in ((b.out_raw, a.out_pseudo), (b.out_pseudo, a.out_raw)):
        pairs += [(dst.weight, src.weight), (dst.bias, src.bias),
                  (dst.norm_scale, src.norm_scale), (dst.norm_shift, src.norm_shift)]
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
    rng = np.random.default_rng(seed)
    return (Tensor(rng.uniform(-4, 4, size=(cfg.n_raw, 3))),
            Tensor(rng.standard_normal((cfg.n_raw, cfg.raw_in_channels))),
            Tensor(rng.uniform(-4, 4, size=(cfg.n_pseudo, 3))),
            Tensor(rng.standard_normal((cfg.n_pseudo, cfg.feature_channels))))


def test_backbone_width_contract_and_aux():
    cfg = tiny_config()
    net = TwoStreamNetwork(cfg, Rng(12))
    rf, pf, aux = net(*backbone_inputs(cfg))
    assert rf.shape == (cfg.n_raw, cfg.stage_channels[-1])
    assert pf.shape == (cfg.n_pseudo, cfg.stage_channels[-1])
    assert len(aux["links"]) == len(cfg.stage_channels)
    assert "final" in aux
    names = [n for n, _ in net.params()]
    assert len(names) == len(set(names))  # no duplicate parameter names


def test_backbone_disabled_links_change_structure_not_shapes():
    cfg = tiny_config(pft_enabled=False, pft_final=False)
    net = TwoStreamNetwork(cfg, Rng(13))
    rf, pf, aux = net(*backbone_inputs(cfg))
    assert rf.shape == (cfg.n_raw, cfg.stage_channels[-1])
    assert aux["links"] == []
    assert "final" not in aux
    assert not any("link" in n for n, _ in net.params())


def test_backbone_without_links_isolates_the_streams():
    cfg = tiny_config(pft_enabled=False, pft_final=False)
    net = TwoStreamNetwork(cfg, Rng(14))
    rc, rfeat, pc, pfeat = backbone_inputs(cfg)
    base_raw = net(rc, rfeat, pc, pfeat)[0].data
    pc2 = Tensor(pc.data + 0.25)
    pfeat2 = Tensor(pfeat.data * -1.5)
    again_raw = net(rc, rfeat, pc2, pfeat2)[0].data
    assert np.array_equal(base_raw, again_raw)
    # with links enabled the pseudo stream must influence the raw output
    cfg2 = tiny_config()
    net2 = TwoStreamNetwork(cfg2, Rng(14))
    a = net2(rc, rfeat, pc, pfeat)[0].data
    b = net2(rc, rfeat, pc2, pfeat2)[0].data
    assert np.max(np.abs(a - b)) > 1e-9


def test_backbone_validates_input_shapes():
    cfg = tiny_config()
    net = TwoStreamNetwork(cfg, Rng(15))
    rc, rfeat, pc, pfeat = backbone_inputs(cfg)
    with pytest.raises(FusionError):
        net(rc, Tensor(np.zeros((cfg.n_raw, 9))), pc, pfeat)
    with pytest.raises(FusionError):
        net(rc, rfeat, pc, Tensor(np.zeros((cfg.n_pseudo + 1, cfg.feature_channels))))


# -- box encoding and the proposal head ---------------------------------------------


def test_encode_decode_box_round_trip():
    rng = np.random.default_rng(85)
    anchor = DEFAULT_ANCHORS["Car"]
    for _ in range(50):
        gt = Box3D(*rng.uniform(-10, 10, size=3), *rng.uniform(1.0, 5.0, size=3),
                   rng.uniform(-np.pi, np.pi))
        vote = rng.uniform(-10, 10, size=3)
        res = encode_box(gt, vote, anchor)
        back = decode_box(res, vote, anchor)
        assert np.max(np.abs(back.as_array() - gt.as_array())) < 1e-9


def test_zero_residuals_decode_to_the_anchor_at_the_vote():
    anchor = DEFAULT_ANCHORS["Pedestrian"]
    res = np.zeros(8)
    res[7] = 1.0  # (sin, cos) = (0, 1) -> yaw 0
    box = decode_box(res, np.array([1.0, 2.0, 3.0]), anchor)
    assert (box.x, box.y, box.z) == (1.0, 2.0, 3.0)
    assert (box.l, box.w, box.h) == anchor
    assert box.yaw == 0.0


def test_yaw_decodes_through_atan2():
    anchor = DEFAULT_ANCHORS["Car"]
    for yaw in (-3.0, -1.2, 0.0, 0.7, 2.9):
        res = np.zeros(8)
        res[6], res[7] = np.sin(yaw), np.cos(yaw)
        assert decode_box(res, np.zeros(3), anchor).yaw == pytest.approx(yaw, abs=1e-12)


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
