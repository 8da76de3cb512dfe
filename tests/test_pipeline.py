"""End-to-end pipeline tests on the scaled configuration.

Everything here uses one or two seeded synthetic scenes.  The training
test is a short smoke (the full 200-step overfit lives with the
acceptance criteria); it asserts direction, not convergence.
"""

import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest

from pointfuse import cli, frustum, fusion, pipeline, tensor as T
from pointfuse.boxes import (CLASSES, DEFAULT_ANCHORS, DetectionResult, format_detection_row,
                             iou_bev, nms)
from pointfuse.config import NetworkConfig, RunConfig, TrainSettings, apply_override
from pointfuse.frustum import generate_pseudo_points
from pointfuse.kitti import SyntheticSceneSpec, generate_scene
from pointfuse.losses import LossWeights
from pointfuse.nn import Rng
from pointfuse.pipeline import (
    DetectionModel,
    PipelineError,
    build_rpn_targets,
    compute_losses,
    detect,
    evaluate,
    prepare_scene,
    train,
)

from oracles import encode_box


def make_prepared(seed=0, scene_id=0, cfg=None):
    cfg = cfg or NetworkConfig.desk()
    scene = generate_scene(SyntheticSceneSpec(), Rng(seed))
    return cfg, prepare_scene(scene, cfg, Rng(seed + 1000), scene_id=scene_id)


# -- scene preparation -----------------------------------------------------------


def test_prepare_scene_shapes_and_targets():
    cfg, prepared = make_prepared(1)
    assert prepared.raw_indices.shape == (cfg.n_raw,)
    assert len(np.unique(prepared.raw_indices)) == cfg.n_raw
    t = prepared.depth_targets
    assert len(t) > 0
    assert np.all((t.gt_bin >= 0) & (t.gt_bin < cfg.depth_bins))
    assert np.all((t.gt_res >= 0.0) & (t.gt_res < 1.0))
    wf = cfg.image_width // cfg.stride
    hf = cfg.image_height // cfg.stride
    assert np.all((t.cells[:, 0] >= 0) & (t.cells[:, 0] < wf))
    assert np.all((t.cells[:, 1] >= 0) & (t.cells[:, 1] < hf))


def test_prepare_scene_is_deterministic():
    _, a = make_prepared(2)
    _, b = make_prepared(2)
    assert np.array_equal(a.raw_indices, b.raw_indices)
    assert np.array_equal(a.depth_targets.cells, b.depth_targets.cells)


def test_prepare_scene_validates_raster():
    cfg = NetworkConfig.desk()
    scene = generate_scene(SyntheticSceneSpec(), Rng(3))
    bad = NetworkConfig.desk()
    bad.image_width = 128
    with pytest.raises(PipelineError):
        prepare_scene(scene, bad, Rng(0))


def test_ground_truths_carry_scene_id_and_difficulty():
    _, prepared = make_prepared(4, scene_id=9)
    gts = prepared.ground_truths()
    assert len(gts) == len(prepared.scene.labels)
    assert all(g.scene == 9 for g in gts)
    assert all(g.klass in CLASSES for g in gts)


# -- forward -----------------------------------------------------------------------


def test_forward_state_contract():
    cfg, prepared = make_prepared(5)
    model = DetectionModel(cfg, Rng(50))
    state = model.forward(prepared)
    assert state.rpn.cls_prob.shape == (cfg.n_raw, len(CLASSES))
    assert state.rpn.reg.shape == (cfg.n_raw, 8)
    assert state.rpn.votes.shape == (cfg.n_raw, 3)
    assert state.raw_out.shape == (cfg.n_raw, cfg.stage_channels[-1])
    assert state.pseudo_out.shape == (cfg.n_pseudo, cfg.stage_channels[-1])
    assert len(state.pseudo) == cfg.n_pseudo
    # pseudo provenance identity holds on a real scene
    relift = prepared.scene.calib.image_to_lidar(state.pseudo.pixel_uv,
                                                 state.pseudo.source_depth)
    assert np.max(np.abs(relift - state.pseudo.coords.data)) <= 1e-9


def test_forward_is_deterministic_and_seed_sensitive():
    cfg, prepared = make_prepared(6)
    a = DetectionModel(cfg, Rng(60)).forward(prepared)
    b = DetectionModel(cfg, Rng(60)).forward(prepared)
    c = DetectionModel(cfg, Rng(61)).forward(prepared)
    assert np.array_equal(a.rpn.cls_prob.data, b.rpn.cls_prob.data)
    assert not np.array_equal(a.rpn.cls_prob.data, c.rpn.cls_prob.data)


def test_model_checkpoint_round_trip(tmp_path):
    cfg, prepared = make_prepared(7)
    model = DetectionModel(cfg, Rng(70))
    before = model.forward(prepared).rpn.cls_prob.data
    path = str(tmp_path / "model.bin")
    model.save(path)
    other = DetectionModel(cfg, Rng(71))
    assert not np.array_equal(other.forward(prepared).rpn.cls_prob.data, before)
    other.load(path)
    assert np.array_equal(other.forward(prepared).rpn.cls_prob.data, before)


def test_model_params_unique_and_trainable():
    cfg = NetworkConfig.desk()
    model = DetectionModel(cfg, Rng(72))
    params = model.params()
    assert len(params) > 50
    assert all(p.requires_grad for p in params.values())


def test_desk_checkpoint_keys_are_pinned():
    # parameter names are attribute paths (nn.named_params) and checkpoints
    # store them, so a renamed attribute silently orphans every saved
    # checkpoint.  Moving this digest breaks every saved checkpoint: a
    # change that does so must say so in CHANGES.md.
    params = DetectionModel(NetworkConfig.desk(), Rng(0)).params()
    keys = "\n".join(f"{n} {params[n].data.shape}" for n in sorted(params))
    assert len(params) == 363
    assert hashlib.sha256(keys.encode()).hexdigest() == (
        "8b6c1c09b5403c3a921cdbe0a66dc571d8f193a4af782e59e54e3fdc498529be")


# A parameter is dead in a row when its largest |gradient| is at most this
# share of the row's largest: parameters the output cannot see get rounding
# residues (at most 2e-14 of the top), every live one at least 1e-5 of it.
DEAD_SHARE = 1e-9
# Dead under every row: each score MLP's output bias adds one constant per
# channel to every member of a group, and the softmax over the group cancels it.
SOFTMAX_CANCELLED = (12, lambda n: n.endswith(".attn.score.fc2.bias"))
# Ablation rows under which more parameters reach no loss by design: the
# row's count, which names, and why.  Every other row trains all the rest.
LAST_LINK = f"net.link{len(NetworkConfig.desk().stage_channels) - 1}."
DEAD_BY_DESIGN = {
    # no link reads the pseudo stream, so neither it nor the image heads that feed it
    "no-fusion-links": (100, lambda n: n.startswith(("net.pseudo_", "image.feat_head.",
                                                     "image.offset_head."))),
    # the pseudo decoder feeds only the final link, the last link's pseudo half only the decoder
    "stage-links-only": (35, lambda n: n.startswith("net.pseudo_up") or n.startswith(
        tuple(LAST_LINK + half for half in ("q_raw", "v_raw", "k_pseudo", "proj_pseudo",
                                            "mix_pseudo.", "out_pseudo.")))),
    # only keypoint sampling reads the predicted pixel offsets
    "sampling-fps": (2, lambda n: n.startswith("image.offset_head.")),
}


def test_every_parameter_reaches_the_loss_under_every_ablation_row():
    # one seeded desk pass over 4 scenes per row, gradients summed without a
    # step; a parameter that falls off the loss path shows up here, and a
    # trained leaf that ``named_params`` cannot see (one kept in a dict, say)
    # would be neither updated nor saved
    scenes = cli._make_scenes(RunConfig(), Rng(0), 4)
    for label, overrides in cli.ABLATION_ROWS:
        cfg = RunConfig()
        for key, value in overrides.items():
            apply_override(cfg, key, value)
        cfg.validate()
        model = DetectionModel(cfg.net, Rng(0).derive("model"))
        params = model.params()
        named = {id(p) for p in params.values()}
        for prepared in scenes:
            total, _ = compute_losses(prepared, model.forward(prepared), cfg.loss)
            total.backward()
            unnamed = [t.data.shape for t in T._topo_order(total)
                       if not t._parents and id(t) not in named]
            assert not unnamed, (label, unnamed)
        top = {n: np.max(np.abs(p.grad)) for n, p in params.items()}
        dead = sorted(n for n, g in top.items() if g <= DEAD_SHARE * max(top.values()))
        expected = []
        for count, rule in (SOFTMAX_CANCELLED, DEAD_BY_DESIGN.get(label, (0, lambda n: False))):
            names = list(filter(rule, params))
            assert len(names) == count, label
            expected += names
        expected = sorted(set(expected))
        assert dead == expected, (f"{label}: dead {sorted(set(dead) - set(expected))}, "
                                  f"alive {sorted(set(expected) - set(dead))}")


def test_a_second_backward_through_a_training_graph_doubles_every_gradient():
    # the first backward releases what attend, lbr and mlp kept for it and
    # the second rebuilds it, through every op of every ablate row's graph
    # (attend's multiply mode under attn-all-multiply); x + x is exact, so
    # a rebuilt array that moved one byte moves a gradient
    prepared = cli._make_scenes(RunConfig(), Rng(0), 1)[0]
    for label, overrides in cli.ABLATION_ROWS:
        cfg = RunConfig()
        for key, value in overrides.items():
            apply_override(cfg, key, value)
        cfg.validate()
        model = DetectionModel(cfg.net, Rng(0).derive("model"))
        params = model.params()
        total, _ = compute_losses(prepared, model.forward(prepared), cfg.loss)
        total.backward()
        twice = {n: p.grad * 2.0 for n, p in params.items()}
        total.backward()
        moved = [n for n, p in params.items() if p.grad.tobytes() != twice[n].tobytes()]
        assert not moved, (label, moved)


# -- raw routing, built once per scene ----------------------------------------------


def one_step(model, prepared):
    """Loss parts and leaf gradients of one step (no optimiser update)."""
    params = model.params()
    for t in params.values():
        t.zero_grad()
    total, parts = compute_losses(prepared, model.forward(prepared), LossWeights())
    total.backward()
    return parts, {k: t.grad.copy() for k, t in params.items()}


def assert_steps_equal(a, b):
    assert {k: float(v).hex() for k, v in a[0].items()} == {k: float(v).hex() for k, v in b[0].items()}
    assert a[1].keys() == b[1].keys()
    for k in a[1]:
        assert a[1][k].tobytes() == b[1][k].tobytes(), k


def test_a_step_on_a_routed_scene_equals_one_on_a_fresh_copy():
    cfg, used = make_prepared(11)
    _, fresh = make_prepared(11)
    one_step(DetectionModel(cfg, Rng(110)), used)      # fills used's raw routing
    assert len(used.routes) == 1 and not fresh.routes
    routed = one_step(DetectionModel(cfg, Rng(111)), used)
    first = one_step(DetectionModel(cfg, Rng(111)), fresh)
    assert_steps_equal(routed, first)


def test_raw_routing_runs_once_per_scene_and_pseudo_routing_every_step(monkeypatch):
    cfg = NetworkConfig.desk()
    scenes = [make_prepared(12 + i, scene_id=i, cfg=cfg)[1] for i in range(2)]
    raw_rows = [{r.tobytes() for r in p.scene.points.coords[p.raw_indices]} for p in scenes]
    calls = {"fps": [], "knn": []}

    def stream(coords):
        # which scene's raw stream these coordinates come from, else "pseudo"
        for i, rows in enumerate(raw_rows):
            if all(r.tobytes() in rows for r in coords):
                return i
        return "pseudo"

    fps, knn = fusion.farthest_point_sampling, fusion.knn_group
    monkeypatch.setattr(fusion, "farthest_point_sampling",
                        lambda coords, m: calls["fps"].append(stream(coords)) or fps(coords, m))
    monkeypatch.setattr(fusion, "knn_group",
                        lambda q, coords, k: calls["knn"].append(stream(coords)) or knn(q, coords, k))
    model = DetectionModel(cfg, Rng(120))
    steps = 5
    for step in range(steps):
        one_step(model, scenes[step % 2])
    stages = len(cfg.raw_stages)
    for scene in (0, 1):
        assert calls["fps"].count(scene) == stages
        assert calls["knn"].count(scene) == 4 * stages   # 2 per encoder stage, 2 per decoder step
    assert calls["fps"].count("pseudo") == steps * len(cfg.pseudo_stages)
    assert calls["knn"].count("pseudo") == steps * 3 * len(cfg.pseudo_stages)


def test_a_second_stage_config_gets_its_own_raw_routing():
    cfg, prepared = make_prepared(13)
    DetectionModel(cfg, Rng(130)).forward(prepared)
    others = [NetworkConfig.desk(), NetworkConfig.desk()]
    others[0].raw_stages = (48, 24, 12, 8)
    others[1].l_group = 4
    for other in others:
        _, fresh = make_prepared(13, cfg=other)
        model = DetectionModel(other, Rng(131))
        got = model.forward(prepared).raw_out.data
        assert got.tobytes() == model.forward(fresh).raw_out.data.tobytes()
    assert sorted(prepared.routes) == sorted([((64, 32, 16, 8), 8), ((48, 24, 12, 8), 8),
                                              ((64, 32, 16, 8), 4)])
    assert [len(r.centers) for r in prepared.routes[((48, 24, 12, 8), 8)].down] == [48, 24, 12, 8]


def test_pseudo_sources_are_drawn_once_per_scene(monkeypatch):
    cfg, prepared = make_prepared(14)
    calls = []
    fps = frustum.farthest_point_sampling
    monkeypatch.setattr(frustum, "farthest_point_sampling",
                        lambda coords, m: calls.append(m) or fps(coords, m))
    model = DetectionModel(cfg, Rng(140))
    model.forward(prepared)
    with T.no_grad():
        model.forward(prepared)
    detect(model, prepared)
    assert calls == [cfg.n_pseudo]
    assert list(prepared.sources) == [cfg.n_pseudo]


@pytest.mark.parametrize("mode", ["KPS", "FPS"])
def test_a_forward_on_cached_sources_equals_one_that_draws_them(mode):
    cfg, prepared = make_prepared(15)
    cfg.sampling_mode = mode
    model = DetectionModel(cfg, Rng(150))
    model.forward(prepared)                  # draws the sources
    state = model.forward(prepared)          # reuses them
    s = prepared.scene
    drawn = generate_pseudo_points(s.points, s.mask, s.calib, state.features, state.depth,
                                   state.offsets, cfg.n_pseudo, model.binning, mode)
    got = state.pseudo
    for a, b in ((got.coords.data, drawn.coords.data), (got.feats.data, drawn.feats.data),
                 (got.pixel_uv, drawn.pixel_uv), (got.source_depth, drawn.source_depth),
                 (got.source_indices, drawn.source_indices)):
        assert a.tobytes() == b.tobytes()
    assert got.clamped == drawn.clamped


# -- supervision --------------------------------------------------------------------


def test_build_rpn_targets_point_in_box_semantics():
    cfg, prepared = make_prepared(8)
    model = DetectionModel(cfg, Rng(80))
    state = model.forward(prepared)
    targets = build_rpn_targets(prepared, state.rpn)
    coords = prepared.scene.points.coords[prepared.raw_indices]
    inside = np.zeros(cfg.n_raw, dtype=bool)
    for obj in prepared.scene.labels:
        hit = obj.box.contains(coords)
        inside |= hit
        k = CLASSES.index(obj.klass)
        assert np.all(targets.cls_target[hit, k] == 1.0)
        assert np.allclose(targets.vote_target[hit], obj.box.center)
    assert np.array_equal(targets.vote_mask.astype(bool), inside)
    assert np.array_equal(targets.reg_mask.astype(bool), inside)
    assert np.all(targets.cls_target[~inside] == 0.0)
    assert np.all(targets.cls_valid == 1.0)


def test_rpn_regression_targets_match_the_per_point_encoder_bit_for_bit():
    # the per-point loop build_rpn_targets ran before it encoded each box's
    # points in one array expression
    cfg = NetworkConfig.desk()
    model = DetectionModel(cfg, Rng(81))
    checked = 0
    for seed in (8, 10, 11, 12):
        _, prepared = make_prepared(seed, cfg=cfg)
        state = model.forward(prepared)
        targets = build_rpn_targets(prepared, state.rpn)
        coords = prepared.scene.points.coords[prepared.raw_indices]
        want = np.zeros((cfg.n_raw, 8))
        for obj in prepared.scene.labels:
            for i in np.flatnonzero(obj.box.contains(coords)):
                want[i] = encode_box(obj.box, state.rpn.votes.data[i],
                                     DEFAULT_ANCHORS[obj.klass])
                checked += 1
        assert targets.reg_target.tobytes() == want.tobytes()
    assert checked > 100


def test_compute_losses_reports_finite_components():
    cfg, prepared = make_prepared(9)
    model = DetectionModel(cfg, Rng(90))
    state = model.forward(prepared)
    total, parts = compute_losses(prepared, state, LossWeights())
    assert total.item() == pytest.approx(parts["total"])
    for key in ("total", "depth", "depth_bin", "depth_res", "rpn",
                "rpn_cls", "rpn_reg", "rpn_vote"):
        assert np.isfinite(parts[key]), key
        assert parts[key] >= 0.0, key
    assert parts["n_vote_active"] > 0


# -- training ------------------------------------------------------------------------


def test_train_zero_lr_keeps_parameters_and_loss():
    cfg, prepared = make_prepared(10)
    model = DetectionModel(cfg, Rng(100))
    snapshot = {k: v.data.copy() for k, v in model.params().items()}
    history = train(model, [prepared], TrainSettings(steps=3, lr=0.0))
    assert len(history) == 3
    assert history[0]["total"] == pytest.approx(history[2]["total"], rel=1e-12)
    for k, v in model.params().items():
        assert np.array_equal(v.data, snapshot[k]), k


def test_train_short_run_decreases_loss_and_round_robins():
    cfg, p0 = make_prepared(11, scene_id=0)
    _, p1 = make_prepared(12, scene_id=1)
    model = DetectionModel(cfg, Rng(110))
    history = train(model, [p0, p1], TrainSettings(steps=8, lr=0.01))
    assert [h["scene"] for h in history] == [0, 1] * 4
    assert [h["step"] for h in history] == list(range(8))
    # same-scene comparison; the landscape is noisy this early, so just
    # require net improvement where both steps saw scene 0
    assert history[6]["total"] < history[0]["total"]


def test_train_frees_each_step_graph_before_the_next_forward(monkeypatch):
    # weak references to the loss and to a head output of every step; both
    # arrays live exactly as long as that step's tape
    cfg, prepared = make_prepared(14)
    model = DetectionModel(cfg, Rng(140))
    refs, alive = [], []
    real_forward, real_losses = model.forward, pipeline.compute_losses

    def forward(p):
        alive.append([r() is not None for r in refs])
        return real_forward(p)

    def compute_losses_recorded(p, state, weights):
        total, parts = real_losses(p, state, weights)
        refs.extend([weakref.ref(total.data), weakref.ref(state.rpn.cls_prob.data)])
        return total, parts

    monkeypatch.setattr(model, "forward", forward)
    monkeypatch.setattr(pipeline, "compute_losses", compute_losses_recorded)
    train(model, [prepared], TrainSettings(steps=3, lr=0.01))
    assert alive == [[], [False] * 2, [False] * 4]


def test_a_desk_training_step_builds_a_fixed_number_of_tape_nodes():
    # fails if a fused layer or attention op is split back into its chain
    # (the unfused chains built 668 op nodes here)
    cfg, prepared = make_prepared(0)
    model = DetectionModel(cfg, Rng(0))
    total, _ = compute_losses(prepared, model.forward(prepared), LossWeights())
    assert len([node for node in T._topo_order(total) if node._parents]) == 339


def test_every_column_of_every_cross_fusion_projection_gets_a_gradient():
    # a column that nothing reads gets exactly 0: a per-tensor liveness
    # test cannot see it inside a tensor whose other columns are live
    cfg, prepared = make_prepared(0)
    model = DetectionModel(cfg, Rng(0))
    links = [f"net.link{k}." for k in range(len(cfg.stage_channels))] + ["net.final_link."]
    projections = {n: p for n, p in model.params().items()
                   if n.startswith(tuple(links)) and n.count(".") == 2}
    assert {n.rsplit(".", 1)[0] + "." for n in projections} == set(links)
    compute_losses(prepared, model.forward(prepared), LossWeights())[0].backward()
    dead = {n: np.flatnonzero(~np.any(p.grad != 0.0, axis=0)).tolist()
            for n, p in projections.items()}
    assert {n: cols for n, cols in dead.items() if cols} == {}


# bytes a desk forward plus compute_losses keeps alive: 4.90 MB at seed 0
# (5.18 MB when this bound was set; 6.56 MB while idw_interpolate and the
# positional encoding ran as chains and the depth loss picked its bins
# with one-hot products; 9.48 MB while the attention glue kept every
# [m, L, c] intermediate)
DESK_GRAPH_BYTES = 5_400_000
# bytes the same graph keeps once backward has run: 2.61 MB at seed 0
# (4.88 MB while attend, lbr and mlp held what only their backward reads
# for as long as the graph lived)
DESK_USED_GRAPH_BYTES = 2_900_000
GRAPH_SITE_FRAMES = 32     # deep enough to reach the pointfuse frame of a numpy allocation


def _largest_sites(before, after, count=5):
    """The pointfuse source lines that gained the most traced bytes from
    snapshot before to after, each allocation charged to its innermost
    pointfuse frame."""
    sizes = {}
    for stat in after.compare_to(before, "traceback"):
        frame = next((f for f in reversed(stat.traceback) if "pointfuse" in f.filename), None)
        if frame is not None:
            site = f"{frame.filename.rsplit('pointfuse', 1)[1].lstrip('/')}:{frame.lineno}"
            sizes[site] = sizes.get(site, 0) + stat.size_diff
    top = sorted(sizes.items(), key=lambda kv: -kv[1])[:count]
    return ", ".join(f"{site} {size / 1e6:.2f} MB" for site, size in top)


def test_a_desk_training_graph_keeps_a_bounded_number_of_bytes_alive():
    # fails if a tape op goes back to keeping arrays its backward can
    # rebuild, or to holding them after its backward has run
    cfg, prepared = make_prepared(0)
    model = DetectionModel(cfg, Rng(0))
    total, _ = compute_losses(prepared, model.forward(prepared), LossWeights())
    total.backward()          # a warm step: the raw route and other lazy state exist
    del total
    tracemalloc.start(GRAPH_SITE_FRAMES)
    try:
        before = tracemalloc.take_snapshot()
        base = tracemalloc.get_traced_memory()[0]
        state = model.forward(prepared)
        total, _ = compute_losses(prepared, state, LossWeights())
        kept = tracemalloc.get_traced_memory()[0] - base
        after = tracemalloc.take_snapshot()
        total.backward()
        used = tracemalloc.get_traced_memory()[0] - base
        after_backward = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert total.requires_grad
    assert kept <= DESK_GRAPH_BYTES, (f"{kept / 1e6:.2f} MB kept; largest sites: "
                                      f"{_largest_sites(before, after)}")
    assert used <= DESK_USED_GRAPH_BYTES, (f"{used / 1e6:.2f} MB kept after backward; largest "
                                           f"sites: {_largest_sites(before, after_backward)}")


def test_train_requires_scenes():
    cfg = NetworkConfig.desk()
    with pytest.raises(PipelineError):
        train(DetectionModel(cfg, Rng(1)), [], TrainSettings(steps=1))


# -- detection and evaluation -----------------------------------------------------------


def overfit_one_scene(steps=60):
    cfg, prepared = make_prepared(13)
    model = DetectionModel(cfg, Rng(130))
    train(model, [prepared], TrainSettings(steps=steps, lr=0.01))
    return cfg, model, prepared


def test_detect_applies_nms_and_scene_ids():
    cfg, model, prepared = overfit_one_scene()
    dets = detect(model, prepared)
    assert all(d.scene == prepared.scene_id for d in dets)
    for i, a in enumerate(dets):
        for b in dets[i + 1:]:
            assert iou_bev(a.box, b.box) <= cfg.nms_test
    # a permissive threshold can only keep more boxes
    loose = detect(model, prepared, nms_threshold=1.0)
    assert len(loose) >= len(dets)


def test_detect_without_a_tape_matches_a_taped_forward(monkeypatch):
    cfg, model, prepared = overfit_one_scene()
    taped = model.forward(prepared)
    with T.no_grad():
        free = model.forward(prepared)
    assert taped.rpn.cls_prob.requires_grad and not free.rpn.cls_prob.requires_grad
    assert free.rpn.cls_prob._parents == () and free.raw_out._parents == ()
    for a, b in ((taped.raw_out, free.raw_out), (taped.pseudo_out, free.pseudo_out),
                 (taped.rpn.cls_prob, free.rpn.cls_prob), (taped.rpn.reg, free.rpn.reg),
                 (taped.rpn.votes, free.rpn.votes)):
        assert a.data.tobytes() == b.data.tobytes()
    props = model.head.decode_proposals(taped.rpn, cfg.score_threshold)
    dets = [DetectionResult(b, float(s), c, prepared.scene_id)
            for b, s, c in zip(props.boxes, props.scores, props.classes)]
    want = [format_detection_row(dets[i]) for i in nms(dets, cfg.nms_test, overlap="bev")]
    decoded = []
    decode = model.head.decode_proposals

    def spy(out, score_threshold):
        decoded.append(out.cls_prob.requires_grad or bool(out.cls_prob._parents))
        return decode(out, score_threshold)

    monkeypatch.setattr(model.head, "decode_proposals", spy)
    got = [format_detection_row(d) for d in detect(model, prepared)]
    assert got == want and got
    assert decoded == [False]  # detect decoded head outputs that carry no tape
    assert (model.params()["head.cls.fc2.bias"] * 1.0).requires_grad  # detect restored the tape


def test_evaluate_recovers_a_trained_scene():
    _, model, prepared = overfit_one_scene()
    out = evaluate(model, [prepared], RunConfig().eval)
    assert set(out["ap"]) == set(CLASSES)
    car = out["ap"]["Car"]
    assert car.n_gt == len(prepared.scene.labels)
    assert not car.flagged
    assert car.ap > 0.0  # the memorised scene must be partially recovered
    assert out["ap"]["Pedestrian"].flagged  # no pedestrians in the scene
    assert len(out["detections"]) > 0
    assert len(out["ground_truths"]) == len(prepared.scene.labels)
