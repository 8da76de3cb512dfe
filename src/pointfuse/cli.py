"""Command line entry points.

Every command that writes artifacts records a manifest first
(manifest.jsonl in the output directory): one run line carrying the
command, seed and the full flattened configuration, then one line per
artifact with its sha256.  ``replay`` re-executes a manifest into a
scratch directory and verifies every artifact hash matches, which is
the determinism contract for the whole pipeline.

Exit codes: 0 success, 1 a check/replay/run failed, 2 bad usage or
configuration.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__, boxes, frustum, fusion, geometry, kitti, losses, nn, pipeline, tensor
from .config import ConfigError, RunConfig, apply_override, flatten_config, load_config
from .nn import Rng
from .tensor import Tensor


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class Manifest:
    """Append-only run record; the run line goes out before any result."""

    def __init__(self, out_dir: str, command: str, seed: int, cfg: RunConfig,
                 checkpoint: str | None = None):
        """A run that reads a checkpoint records its absolute path and
        sha256, so replay can evaluate the same weights."""
        self.out_dir = out_dir
        self.path = os.path.join(out_dir, "manifest.jsonl")
        os.makedirs(out_dir, exist_ok=True)
        run = {"kind": "run", "tool": "pointfuse", "version": __version__,
               "command": command, "seed": seed, "config": flatten_config(cfg)}
        if checkpoint:
            run["checkpoint"] = {"path": os.path.abspath(checkpoint),
                                 "sha256": _sha256_file(checkpoint)}
        with open(self.path, "w") as fh:
            fh.write(json.dumps(run, sort_keys=True) + "\n")

    def artifact(self, name: str) -> None:
        line = {"kind": "artifact", "name": name,
                "sha256": _sha256_file(os.path.join(self.out_dir, name))}
        with open(self.path, "a") as fh:
            fh.write(json.dumps(line, sort_keys=True) + "\n")


def _write_csv(path: str, header: list, rows: list) -> None:
    def fmt(v):
        if isinstance(v, float):
            return f"{v:.12g}"
        return str(v)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def _build_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        cfg = load_config(args.config, cfg)
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        apply_override(cfg, key.strip(), value.strip())
    cfg.validate()
    return cfg


def _make_scenes(cfg: RunConfig, rng: Rng, count: int):
    prepared = []
    for i in range(count):
        scene = kitti.generate_scene(cfg.scene, rng.derive(f"scene{i}"))
        prepared.append(pipeline.prepare_scene(scene, cfg.net, rng.derive(f"prep{i}"), scene_id=i))
    return prepared


# -- check: fast named invariants ---------------------------------------------------


def _check_autodiff():
    rng = Rng(0)
    a = Tensor(rng.normal((4, 3)), requires_grad=True)
    b = Tensor(rng.normal((3, 5)), requires_grad=True)
    err = nn.gradcheck(lambda: tensor.tsum(tensor.relu(a @ b) ** 2.0), [a, b])
    if err > 1e-6:
        raise AssertionError(f"matmul/relu chain gradcheck err {err:.3g}")


def _check_softmax():
    out = tensor.softmax(Tensor(np.array([[0.0, np.log(2.0)]])), axis=1)
    if not np.allclose(out.data, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-12):
        raise AssertionError(f"softmax([0, ln 2]) gave {out.data}")


def _check_frustum_marginal():
    rng = Rng(1)
    fi = frustum.ImageFeatureGrid(Tensor(rng.normal((3, 4, 5))), 4)
    dp = frustum.DepthPrediction(Tensor(rng.normal((3, 4, 6))),
                                 tensor.sigmoid(Tensor(rng.normal((3, 4, 6)))))
    vol = frustum.build_frustum(fi, dp)
    err = np.abs(vol.feats.data.sum(axis=2) - fi.feats.data).max()
    if err > 1e-9:
        raise AssertionError(f"depth marginal deviates by {err:.3g}")


def _check_depth_binning():
    binning = geometry.LidBinning(n_bins=24)
    d = np.linspace(binning.d_min, binning.d_max, 997)
    b, r = geometry.lid_encode(d, binning)
    back = geometry.lid_decode(b, r, binning)
    err = np.abs(back - d).max()
    if err > 1e-9:
        raise AssertionError(f"bin round trip err {err:.3g}")


def _check_calibration():
    calib = kitti.make_camera(kitti.SyntheticSceneSpec())
    rng = Rng(2)
    pts = np.stack([rng.uniform(5, 40, 50), rng.uniform(-8, 8, 50), rng.uniform(-2, 1, 50)], axis=1)
    uv, depth, ok = calib.project_points(pts)
    if not np.all(ok):
        raise AssertionError("test points should project forward")
    back = calib.image_to_lidar(uv, depth)
    err = np.abs(back - pts).max()
    if err > 1e-9:
        raise AssertionError(f"projection round trip err {err:.3g}")


def _check_rotated_iou():
    a = boxes.Box3D(0, 0, 0, 1, 1, 1, 0.0)
    b = boxes.Box3D(0.5, 0, 0, 1, 1, 1, 0.0)
    v = boxes.iou_3d(a, b)
    if abs(v - 1.0 / 3.0) > 1e-12:
        raise AssertionError(f"half-offset cube IoU {v}")
    if abs(boxes.iou_3d(a, a) - 1.0) > 1e-12:
        raise AssertionError("self IoU must be 1")


def _check_nms():
    mk = lambda x, s: boxes.DetectionResult(boxes.Box3D(x, 0, 0, 2, 2, 2, 0.0), s, "Car")
    dets = [mk(0.0, 0.9), mk(0.2, 0.8), mk(5.0, 0.7)]
    keep = boxes.nms(dets, 0.3)
    if keep != [0, 2]:
        raise AssertionError(f"nms kept {keep}")


def _check_fps():
    # picks: start 0, then 3 (farthest), then 1 (max min-distance 1 vs 0.01)
    pts = np.array([[0.0, 0, 0], [1, 0, 0], [5, 0, 0], [5.1, 0, 0]])
    got = geometry.farthest_point_sampling(pts, 3).tolist()
    if got != [0, 3, 1]:
        raise AssertionError(f"fps picked {got}")


def _check_checkpoint(tmp_dir: str):
    path = os.path.join(tmp_dir, "ck_check.bin")
    params = {"a": Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True),
              "b": Tensor(np.ones(4), requires_grad=True)}
    nn.save_checkpoint(path, sorted(params.items()))
    loaded = nn.load_checkpoint(path)
    for name, t in params.items():
        if not np.array_equal(loaded[name], t.data):
            raise AssertionError(f"tensor {name} changed across save/load")
    blob = bytearray(open(path, "rb").read())
    blob[1] ^= 0xFF  # corrupt the magic
    bad = os.path.join(tmp_dir, "ck_bad.bin")
    open(bad, "wb").write(bytes(blob))
    try:
        nn.load_checkpoint(bad)
    except nn.CheckpointError:
        pass
    else:
        raise AssertionError("corrupted magic was accepted")
    open(bad, "wb").write(open(path, "rb").read()[:-4])
    try:
        nn.load_checkpoint(bad)
    except nn.CheckpointError:
        pass
    else:
        raise AssertionError("truncated payload was accepted")


def _check_pseudo_points():
    spec = kitti.SyntheticSceneSpec()
    scene = kitti.generate_scene(spec, Rng(5))
    from .config import NetworkConfig
    cfg = NetworkConfig.desk()
    model = pipeline.DetectionModel(cfg, Rng(6))
    prepared = pipeline.prepare_scene(scene, cfg, Rng(7))
    with tensor.no_grad():
        state = model.forward(prepared)
    ppc = state.pseudo
    lifted = scene.calib.image_to_lidar(ppc.pixel_uv, ppc.source_depth)
    err = np.abs(lifted - ppc.coords.data).max()
    if err > 1e-9:
        raise AssertionError(f"pseudo point lift inconsistency {err:.3g}")


def _check_scene_determinism():
    spec = kitti.SyntheticSceneSpec()
    s1 = kitti.generate_scene(spec, Rng(9))
    s2 = kitti.generate_scene(spec, Rng(9))
    if not (np.array_equal(s1.points.coords, s2.points.coords)
            and np.array_equal(s1.image, s2.image)
            and np.array_equal(s1.mask, s2.mask)):
        raise AssertionError("same spec and seed produced different scenes")


def cmd_check(args) -> int:
    cfg = _build_config(args)
    out_dir = args.out or "."
    checks = [
        ("autodiff-chain", _check_autodiff),
        ("softmax-normalisation", _check_softmax),
        ("frustum-marginalisation", _check_frustum_marginal),
        ("depth-binning-round-trip", _check_depth_binning),
        ("calibration-round-trip", _check_calibration),
        ("rotated-iou", _check_rotated_iou),
        ("nms-ordering", _check_nms),
        ("fps-ties", _check_fps),
        ("checkpoint-io", lambda: _check_checkpoint(out_dir if args.out else "/tmp")),
        ("pseudo-point-consistency", _check_pseudo_points),
        ("scene-determinism", _check_scene_determinism),
    ]
    manifest = Manifest(args.out, "check", args.seed, cfg) if args.out else None
    rows, failed = [], 0
    for name, fn in checks:
        try:
            fn()
            print(f"ok   {name}")
            rows.append((name, "ok", ""))
        except Exception as exc:  # noqa: BLE001 - report and keep going
            failed += 1
            print(f"FAIL {name}: {exc}")
            rows.append((name, "fail", str(exc)))
    if manifest:
        _write_csv(os.path.join(args.out, "checks.csv"), ["check", "status", "detail"], rows)
        manifest.artifact("checks.csv")
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


# -- gradcheck: the gradient verification suite --------------------------------------


def _gradcheck_cases(seed: int):
    """Yield (name, tolerance, fn) for every differentiable stage."""
    rng = Rng(seed)

    def case_linear():
        layer = nn.LinearLayer(rng.derive("lin"), 5, 4)
        x = Tensor(rng.normal((7, 5)), requires_grad=True)
        ps = [t for _, t in layer.params("l")] + [x]
        return nn.gradcheck(lambda: tensor.tsum(layer(x) ** 2.0), ps, rng=rng.derive("c1"))

    def case_lbr():
        layer = nn.LbrLayer(rng.derive("lbr"), 5, 4)
        x = Tensor(rng.normal((9, 5)), requires_grad=True)
        ps = [t for _, t in layer.params("l")] + [x]
        return nn.gradcheck(lambda: tensor.tsum(layer(x) ** 2.0), ps, rng=rng.derive("c2"))

    def case_softmax():
        x = Tensor(rng.normal((6, 5)), requires_grad=True)
        w = Tensor(rng.normal((6, 5)))
        return nn.gradcheck(lambda: tensor.tsum(tensor.softmax(x, axis=1) * w), [x], rng=rng.derive("c3"))

    def case_bilinear():
        grid = Tensor(rng.normal((6, 7, 3)), requires_grad=True)
        uv = Tensor(rng.uniform(0.2, 5.5, (9, 2)), requires_grad=True)
        return nn.gradcheck(lambda: tensor.tsum(tensor.bilinear_sample(grid, uv) ** 2.0),
                            [grid, uv], rng=rng.derive("c4"))

    def case_trilinear():
        vol = Tensor(rng.normal((5, 6, 4, 3)), requires_grad=True)
        uvd = Tensor(np.stack([rng.uniform(0.2, 4.5, 8), rng.uniform(0.2, 4.2, 8),
                               rng.uniform(0.2, 3.5, 8)], axis=1), requires_grad=True)
        return nn.gradcheck(lambda: tensor.tsum(tensor.trilinear_sample(vol, uvd) ** 2.0),
                            [vol, uvd], rng=rng.derive("c5"))

    def case_attention(mode):
        def run():
            pa = fusion.PointAttention(rng.derive(f"pa{mode}"), 6, mode)
            coords = Tensor(rng.uniform(-1, 1, (10, 3)))
            feats = Tensor(rng.normal((10, 6)), requires_grad=True)
            groups = geometry.knn_group(coords.data, coords.data, 4)
            ps = [t for _, t in pa.params("pa")] + [feats]
            w = Tensor(rng.normal((10, 6)))
            return nn.gradcheck(lambda: tensor.tsum(pa(coords, feats, groups) * w),
                                ps, max_coords=12, rng=rng.derive("c6"))
        return run

    def case_cross_fusion():
        cf = fusion.CrossFusion(rng.derive("cf"), 5, 4, 6, 9, 7)
        fr = Tensor(rng.normal((9, 5)), requires_grad=True)
        fp = Tensor(rng.normal((7, 4)), requires_grad=True)
        wr, wp = Tensor(rng.normal((9, 6))), Tensor(rng.normal((7, 6)))
        ps = [t for _, t in cf.params("cf")] + [fr, fp]

        def f():
            a, b, _ = cf(fr, fp)
            return tensor.tsum(a * wr) + tensor.tsum(b * wp)
        return nn.gradcheck(f, ps, max_coords=8, rng=rng.derive("c7"))

    def case_down_up():
        coords = Tensor(rng.uniform(-2, 2, (18, 3)))
        feats = Tensor(rng.normal((18, 4)), requires_grad=True)
        td = fusion.TransitionDown(rng.derive("td"), 4, 6, 8, 4)
        tu = fusion.TransitionUp(rng.derive("tu"), 6, 4, 4)
        w = Tensor(rng.normal((18, 6)))
        ps = [t for _, t in td.params("td") + tu.params("tu")] + [feats]
        return nn.gradcheck(lambda: tensor.tsum(tu(*td(coords, feats)[:2], coords, feats) * w),
                            ps, max_coords=8, rng=rng.derive("c8"))

    def case_idw():
        sc = Tensor(rng.uniform(-2, 2, (10, 3)), requires_grad=True)
        sf = Tensor(rng.normal((10, 4)), requires_grad=True)
        tc = Tensor(rng.uniform(-2, 2, (6, 3)), requires_grad=True)
        w = Tensor(rng.normal((6, 4)))
        return nn.gradcheck(lambda: tensor.tsum(fusion.idw_interpolate(tc, sc, sf) * w),
                            [sc, sf, tc], rng=rng.derive("c9"))

    def case_head():
        head = fusion.ProposalHead(rng.derive("head"), 5, boxes.CLASSES, boxes.DEFAULT_ANCHORS, 6, 6)
        coords = Tensor(rng.uniform(0, 10, (8, 3)))
        feats = Tensor(rng.normal((8, 5)), requires_grad=True)
        ws = (Tensor(rng.normal((8, 3))), Tensor(rng.normal((8, 3))), Tensor(rng.normal((8, 8))))
        ps = [t for _, t in head.params()] + [feats]

        def f():
            o = head(coords, feats)
            return (tensor.tsum(o.votes * ws[0]) + tensor.tsum(o.cls_prob * ws[1])
                    + tensor.tsum(o.reg * ws[2]))
        return nn.gradcheck(f, ps, max_coords=8, rng=rng.derive("c10"))

    def case_losses():
        logits = Tensor(rng.normal((12, 3)), requires_grad=True)
        fg = rng.integers(0, 2, (12, 3)).astype(float)
        x = Tensor(rng.normal((12,)), requires_grad=True)

        def f():
            return (tensor.tsum(losses.focal_loss(tensor.sigmoid(logits), fg))
                    + tensor.tsum(losses.smooth_l1(x)))
        return nn.gradcheck(f, [logits, x], rng=rng.derive("c11"))

    def case_encoder_heads():
        enc = frustum.ImageEncoder(rng.derive("enc"), 3, (4, 6), (2, 2), 5, 8)
        image = rng.uniform(0, 1, (8, 12, 3))
        ws = (Tensor(rng.normal((2, 3, 5))), Tensor(rng.normal((2, 3, 8))),
              Tensor(rng.normal((2, 3, 8))), Tensor(rng.normal((2, 3, 2))))
        ps = [t for _, t in enc.params()]

        def f():
            fi, dp, og = enc(image)
            return (tensor.tsum(fi.feats * ws[0]) + tensor.tsum(dp.bin_logits * ws[1])
                    + tensor.tsum(dp.residuals * ws[2]) + tensor.tsum(og.offsets * ws[3]))
        return nn.gradcheck(f, ps, max_coords=6, rng=rng.derive("c12"))

    def _miniature():
        from .config import NetworkConfig
        cfg = NetworkConfig()
        cfg.n_foreground = 64
        cfg.n_raw = 32
        cfg.n_pseudo = 16
        cfg.raw_stages = (16, 8)
        cfg.pseudo_stages = (8, 4)
        cfg.stage_channels = (6, 8)
        cfg.l_group = 4
        cfg.feature_channels = 5
        net = fusion.TwoStreamNetwork(cfg, rng.derive("mini"))
        rc = Tensor(rng.uniform(0, 10, (32, 3)))
        rf = Tensor(rng.normal((32, 1)), requires_grad=True)
        pc = Tensor(rng.uniform(0, 10, (16, 3)))
        pf = Tensor(rng.normal((16, 5)), requires_grad=True)
        return net, rc, rf, pc, pf

    def case_miniature_network():
        net, rc, rf, pc, pf = _miniature()
        wr = Tensor(rng.normal((32, net.width)))
        wp = Tensor(rng.normal((16, net.width)))
        ps = [t for _, t in net.params()][:10] + [rf, pf]

        def f():
            ro, po, _ = net(rc, rf, pc, pf)
            return tensor.tsum(ro * wr) + tensor.tsum(po * wp)
        return nn.gradcheck(f, ps, max_coords=4, rng=rng.derive("c13"))

    def case_total_loss():
        net, rc, rf, pc, pf = _miniature()
        head = fusion.ProposalHead(rng.derive("mhead"), net.width, boxes.CLASSES,
                                   boxes.DEFAULT_ANCHORS, 6, 6)
        logits = Tensor(rng.normal((3, 4, 6)), requires_grad=True)
        cells = np.stack([rng.integers(0, 4, 5), rng.integers(0, 3, 5)], axis=1)
        dtargets = losses.DepthTargets(cells, rng.integers(0, 6, 5),
                                       rng.uniform(0.1, 0.9, 5))
        rtargets = losses.RpnTargets(
            rng.integers(0, 2, (32, 3)).astype(float), np.ones(32, dtype=bool),
            rng.normal((32, 8), 0.3), rng.integers(0, 2, 32).astype(bool),
            rng.uniform(0, 10, (32, 3)), rng.integers(0, 2, 32).astype(bool))
        weights = losses.LossWeights()
        ps = [t for _, t in net.params()][-8:] + [t for _, t in head.params()][:4] + [rf, pf, logits]

        def f():
            ro, _, _ = net(rc, rf, pc, pf)
            out = head(rc, ro)
            d_total, _, _ = losses.depth_loss(logits, tensor.sigmoid(logits), dtargets, weights)
            r_total, _ = losses.rpn_loss(out.cls_prob, out.reg, out.votes, rtargets, weights)
            return losses.total_loss(d_total, r_total, weights)
        return nn.gradcheck(f, ps, max_coords=4, rng=rng.derive("c14"))

    yield "linear", 1e-6, case_linear
    yield "lbr", 1e-6, case_lbr
    yield "softmax", 1e-6, case_softmax
    yield "bilinear-sample", 1e-6, case_bilinear
    yield "trilinear-sample", 1e-6, case_trilinear
    yield "attention-subtract", 1e-6, case_attention("subtract")
    yield "attention-multiply", 1e-6, case_attention("multiply")
    yield "cross-fusion", 1e-6, case_cross_fusion
    yield "transition-down-up", 1e-6, case_down_up
    yield "idw-interpolation", 1e-6, case_idw
    yield "proposal-head", 1e-6, case_head
    yield "loss-terms", 1e-6, case_losses
    yield "image-encoder-heads", 1e-4, case_encoder_heads
    yield "miniature-network", 1e-4, case_miniature_network
    yield "total-loss", 1e-4, case_total_loss


def cmd_gradcheck(args) -> int:
    cfg = _build_config(args)
    manifest = Manifest(args.out, "gradcheck", args.seed, cfg) if args.out else None
    rows, failed = [], 0
    for name, tol, fn in _gradcheck_cases(args.seed):
        err = fn()
        ok = err <= tol
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name:22s} err {err:.3e} (tol {tol:.0e})")
        rows.append((name, err, tol, "ok" if ok else "fail"))
    if manifest:
        _write_csv(os.path.join(args.out, "gradcheck.csv"),
                   ["case", "max_rel_err", "tolerance", "status"], rows)
        manifest.artifact("gradcheck.csv")
    return 1 if failed else 0


# -- overfit / eval / ablate ---------------------------------------------------------


def _loss_csv_rows(history):
    cols = ["step", "scene", "total", "depth", "depth_bin", "depth_res",
            "rpn", "rpn_cls", "rpn_reg", "rpn_vote"]
    return cols, [[h[c] for c in cols] for h in history]


def _best_overlap(dets, gts) -> float:
    best = 0.0
    for d in dets:
        for g in gts:
            best = max(best, boxes.iou_bev(d.box, g.box))
    return best


def cmd_overfit(args) -> int:
    cfg = _build_config(args)
    if not args.out:
        print("overfit requires --out", file=sys.stderr)
        return 2
    manifest = Manifest(args.out, "overfit", args.seed, cfg)
    rng = Rng(args.seed)
    scenes = _make_scenes(cfg, rng, 1)
    model = pipeline.DetectionModel(cfg.net, rng.derive("model"))

    def log(parts):
        print(f"step {parts['step']:4d}  total {parts['total']:.4f}  "
              f"depth {parts['depth']:.4f}  rpn {parts['rpn']:.4f}")

    history = pipeline.train(model, scenes, cfg.train, cfg.loss, log=log)
    cols, rows = _loss_csv_rows(history)
    _write_csv(os.path.join(args.out, "losses.csv"), cols, rows)
    manifest.artifact("losses.csv")
    model.save(os.path.join(args.out, "checkpoint.bin"))
    manifest.artifact("checkpoint.bin")

    dets = pipeline.detect(model, scenes[0])
    boxes.write_detections(os.path.join(args.out, "detections_0000.txt"), dets)
    manifest.artifact("detections_0000.txt")

    gts = scenes[0].ground_truths()
    first = history[0]["total"] if history else float("nan")
    final = history[-1]["total"] if history else float("nan")
    drop = (first - final) / first if history and first else 0.0
    top_iou = _best_overlap(dets, gts)
    _write_csv(os.path.join(args.out, "summary.csv"),
               ["first_loss", "final_loss", "drop_fraction", "top_bev_iou", "n_detections"],
               [[first, final, drop, top_iou, len(dets)]])
    manifest.artifact("summary.csv")
    print(f"loss {first:.4f} -> {final:.4f} (drop {100 * drop:.1f}%), "
          f"top BEV IoU {top_iou:.3f}, {len(dets)} detections")
    return 0


def cmd_eval(args) -> int:
    cfg = _build_config(args)
    if not args.out:
        print("eval requires --out", file=sys.stderr)
        return 2
    manifest = Manifest(args.out, "eval", args.seed, cfg, args.checkpoint)
    rng = Rng(args.seed)
    scenes = _make_scenes(cfg, rng, cfg.eval.n_scenes)
    model = pipeline.DetectionModel(cfg.net, rng.derive("model"))
    if args.checkpoint:
        model.load(args.checkpoint)
    result = pipeline.evaluate(model, scenes, cfg.eval)

    by_scene = {s.scene_id: [] for s in scenes}
    for d in result["detections"]:
        by_scene[d.scene].append(d)
    for sid, dets in sorted(by_scene.items()):
        name = f"detections_{sid:04d}.txt"
        boxes.write_detections(os.path.join(args.out, name), dets)
        manifest.artifact(name)

    rows = []
    for klass, ap in result["ap"].items():
        rows.append((klass, ap.ap, int(ap.flagged), ap.n_gt, ap.n_det))
        shown = "n/a (no ground truth)" if ap.flagged else f"{ap.ap:.4f}"
        print(f"AP40[{klass:10s}] = {shown}   gt={ap.n_gt} det={ap.n_det}")
    _write_csv(os.path.join(args.out, "ap.csv"),
               ["class", "ap40", "flagged", "n_gt", "n_det"], rows)
    manifest.artifact("ap.csv")
    return 0


ABLATION_ROWS = [
    ("reference", {}),
    ("attn-all-subtract", {"net.attn_fusion": "subtract"}),
    ("attn-all-multiply", {"net.attn_down": "multiply", "net.attn_up": "multiply"}),
    ("attn-flipped", {"net.attn_down": "multiply", "net.attn_up": "multiply",
                      "net.attn_fusion": "subtract"}),
    ("combine-add", {"net.combine_mode": "add"}),
    ("combine-concat", {"net.combine_mode": "concat"}),
    ("no-fusion-links", {"net.pft_enabled": "false", "net.pft_final": "false"}),
    ("stage-links-only", {"net.pft_final": "false"}),
    ("sampling-fps", {"net.sampling_mode": "FPS"}),
]


def _state_hash(state: pipeline.ForwardState) -> str:
    h = hashlib.sha256()
    for arr in (state.raw_out.data, state.pseudo_out.data,
                state.rpn.cls_prob.data, state.rpn.reg.data):
        h.update(arr.tobytes())
    return h.hexdigest()


def cmd_ablate(args) -> int:
    cfg = _build_config(args)
    if not args.out:
        print("ablate requires --out", file=sys.stderr)
        return 2
    manifest = Manifest(args.out, "ablate", args.seed, cfg)
    rows = []
    for label, overrides in ABLATION_ROWS:
        run_cfg = _build_config(args)
        for key, value in overrides.items():
            apply_override(run_cfg, key, value)
        run_cfg.validate()
        rng = Rng(args.seed)
        scenes = _make_scenes(run_cfg, rng, 1)
        model = pipeline.DetectionModel(run_cfg.net, rng.derive("model"))
        history = pipeline.train(model, scenes, run_cfg.train, run_cfg.loss)
        with tensor.no_grad():
            state = model.forward(scenes[0])
        dets = pipeline.detect(model, scenes[0])
        final = history[-1]["total"] if history else float("nan")
        digest = _state_hash(state)
        rows.append((label, json.dumps(overrides, sort_keys=True), final, len(dets), digest))
        print(f"{label:20s} loss {final:8.4f}  dets {len(dets):3d}  out {digest[:12]}")
    _write_csv(os.path.join(args.out, "ablation.csv"),
               ["variant", "overrides", "final_loss", "n_detections", "output_sha256"], rows)
    manifest.artifact("ablation.csv")
    digests = [r[4] for r in rows]
    if len(set(digests)) != len(digests):
        print("ablation rows collapsed to identical outputs", file=sys.stderr)
        return 1
    return 0


def cmd_genscene(args) -> int:
    cfg = _build_config(args)
    if not args.out:
        print("genscene requires --out", file=sys.stderr)
        return 2
    manifest = Manifest(args.out, "genscene", args.seed, cfg)
    rng = Rng(args.seed)
    scene = kitti.generate_scene(cfg.scene, rng.derive("scene0"))

    def dump(name, payload):
        path = os.path.join(args.out, name)
        if name.endswith(".npy"):
            np.save(path, payload)
        else:
            binary = isinstance(payload, bytes)
            with open(path, "wb" if binary else "w") as fh:
                fh.write(payload)
        manifest.artifact(name)

    dump("000000.bin", kitti.write_velodyne(scene.points))
    dump("000000_calib.txt", kitti.write_calib(scene.calib))
    dump("000000_label.txt", kitti.write_labels(scene.labels, scene.calib))
    dump("000000_image.npy", scene.image)
    dump("000000_mask.npy", scene.mask)
    print(f"scene with {len(scene.points)} points, {len(scene.labels)} objects, "
          f"{int(scene.mask.sum())} foreground pixels ({scene.n_cropped} points cropped)")
    return 0


# -- replay ---------------------------------------------------------------------


def cmd_replay(args) -> int:
    if not args.manifest or not args.out:
        print("replay requires --manifest and --out", file=sys.stderr)
        return 2
    with open(args.manifest) as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    if not lines or lines[0].get("kind") != "run":
        print("manifest has no run record", file=sys.stderr)
        return 2
    run = lines[0]
    expected = {l["name"]: l["sha256"] for l in lines[1:] if l.get("kind") == "artifact"}
    command = run["command"]
    if command == "replay":
        print("refusing to replay a replay", file=sys.stderr)
        return 2
    handler = COMMANDS.get(command)
    if handler is None:
        print(f"unknown command in manifest: {command}", file=sys.stderr)
        return 2

    checkpoint = run.get("checkpoint")
    if checkpoint is not None:
        path = checkpoint["path"]
        if not os.path.exists(path):
            print(f"checkpoint {path} named by the manifest is missing", file=sys.stderr)
            return 2
        if _sha256_file(path) != checkpoint["sha256"]:
            print(f"checkpoint {path} differs from the one the manifest recorded "
                  f"(sha256 {checkpoint['sha256']})", file=sys.stderr)
            return 2
        checkpoint = path

    replay_args = argparse.Namespace(
        config=None, seed=run["seed"], out=args.out, set=[], checkpoint=checkpoint,
        manifest=None)
    for key, value in sorted(run["config"].items()):
        replay_args.set.append(f"{key}={json.dumps(value)}")
    rc = handler(replay_args)
    if rc != 0:
        print(f"replayed command exited {rc}", file=sys.stderr)
        return 1

    mismatched = []
    for name, digest in sorted(expected.items()):
        path = os.path.join(args.out, name)
        actual = _sha256_file(path) if os.path.exists(path) else "<missing>"
        status = "ok" if actual == digest else "MISMATCH"
        if status != "ok":
            mismatched.append(name)
        print(f"{status:8s} {name}")
    if mismatched:
        print(f"{len(mismatched)} artifact(s) differ from the manifest", file=sys.stderr)
        return 1
    print(f"all {len(expected)} artifacts reproduced bit for bit")
    return 0


COMMANDS = {
    "check": cmd_check,
    "gradcheck": cmd_gradcheck,
    "overfit": cmd_overfit,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "genscene": cmd_genscene,
    "replay": cmd_replay,
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output directory (manifest + artifacts)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="config override, repeatable")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pointfuse",
                                     description="multi-modal 3D detection pipeline")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "check": "run fast named invariant checks",
        "gradcheck": "verify gradients of every differentiable stage",
        "overfit": "train on one seeded scene and report the loss drop",
        "eval": "detect on seeded scenes and report 40-point AP",
        "ablate": "train every architecture variant and compare outputs",
        "genscene": "write one synthetic scene in dataset layout",
        "replay": "re-run a manifest and verify artifacts bit for bit",
    }
    for name, handler in COMMANDS.items():
        p = sub.add_parser(name, help=helps[name])
        _add_common(p)
        if name == "eval":
            p.add_argument("--checkpoint", help="trained weights to evaluate")
        else:
            p.set_defaults(checkpoint=None)
        if name == "replay":
            p.add_argument("--manifest", required=True, help="manifest.jsonl to reproduce")
        else:
            p.set_defaults(manifest=None)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
