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
import csv
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__, boxes, frustum, geometry, kitti, nn, pipeline, tensor
from .config import ConfigError, RunConfig, apply_override, flatten_config, load_config
from .gradsuite import gradcheck_cases as _gradcheck_cases
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
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows([fmt(v) for v in row] for row in rows)


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


def _generate_scene(cfg: RunConfig, rng: Rng, i: int) -> kitti.SceneSample:
    """Scene i of a run; its errors name the stage and the scene, as in
    ``generate_scene (scene 3) / place_boxes: ...``."""
    try:
        return kitti.generate_scene(cfg.scene, rng.derive(f"scene{i}"))
    except kitti.SceneError as exc:
        raise kitti.SceneError(f"generate_scene (scene {i}) / {exc}") from exc


def _make_scenes(cfg: RunConfig, rng: Rng, count: int):
    prepared = []
    for i in range(count):
        scene = _generate_scene(cfg, rng, i)
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
    for iou in (boxes.iou_bev, boxes.iou_3d):
        v = iou(a, b)
        if abs(v - 1.0 / 3.0) > 1e-12:
            raise AssertionError(f"half-offset cube {iou.__name__} {v}")
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


def _check_checkpoint():
    with tempfile.TemporaryDirectory() as tmp_dir:
        path, bad = Path(tmp_dir, "ck_check.bin"), Path(tmp_dir, "ck_bad.bin")
        params = {"a": Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True),
                  "b": Tensor(np.ones(4), requires_grad=True)}
        nn.save_checkpoint(str(path), params)
        loaded = nn.load_checkpoint(str(path))
        for name, t in params.items():
            if not np.array_equal(loaded[name], t.data):
                raise AssertionError(f"tensor {name} changed across save/load")
        blob = path.read_bytes()
        for broken, what in ((blob[:1] + bytes([blob[1] ^ 0xFF]) + blob[2:], "corrupted magic"),
                             (blob[:-4], "truncated payload")):
            bad.write_bytes(broken)
            try:
                nn.load_checkpoint(str(bad))
            except nn.CheckpointError:
                continue
            raise AssertionError(f"{what} was accepted")


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
    checks = [
        ("autodiff-chain", _check_autodiff),
        ("softmax-normalisation", _check_softmax),
        ("frustum-marginalisation", _check_frustum_marginal),
        ("depth-binning-round-trip", _check_depth_binning),
        ("calibration-round-trip", _check_calibration),
        ("rotated-iou", _check_rotated_iou),
        ("nms-ordering", _check_nms),
        ("fps-ties", _check_fps),
        ("checkpoint-io", _check_checkpoint),
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


def cmd_gradcheck(args) -> int:
    cfg = _build_config(args)
    manifest = Manifest(args.out, "gradcheck", args.seed, cfg) if args.out else None
    rows, failed, report = [], 0, []
    for name, tol, fn in _gradcheck_cases(args.seed, report):
        err = fn()
        ok = err <= tol
        failed += not ok
        max_abs, skipped, probed, directional = report[-1]
        print(f"{'ok  ' if ok else 'FAIL'} {name:22s} err {err:.3e} (tol {tol:.0e})  "
              f"max |a-n| {max_abs:.3e}, skipped {skipped}/{probed}, "
              f"directional {directional:.1e}")
        rows.append((name, err, tol, "ok" if ok else "fail", directional))
    if manifest:
        _write_csv(os.path.join(args.out, "gradcheck.csv"),
                   ["case", "max_rel_err", "tolerance", "status", "directional_rel_err"], rows)
        manifest.artifact("gradcheck.csv")
    return 1 if failed else 0


# -- overfit / eval / ablate ---------------------------------------------------------


def _loss_csv_rows(history):
    cols = ["step", "scene", "total", "depth", "depth_bin", "depth_res",
            "rpn", "rpn_cls", "rpn_reg", "rpn_vote"]
    return cols, [[h[c] for c in cols] for h in history]


def _best_overlap(dets, gts) -> float:
    rows, cols = np.indices((len(dets), len(gts))).reshape(2, -1)
    ious = boxes.pair_iou(boxes.BoxArrays.of([d.box for d in dets]),
                          boxes.BoxArrays.of([g.box for g in gts]), rows, cols)
    return float(ious.max(initial=0.0))


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


def _ablation_run(cfg: RunConfig, seed: int):
    """One ablate row: train ``cfg``'s model on its seed's first scene.
    Returns the model, the scene, the loss history and the trained
    model's no-grad forward state, which ``_state_hash`` digests."""
    rng = Rng(seed)
    scene = _make_scenes(cfg, rng, 1)[0]
    model = pipeline.DetectionModel(cfg.net, rng.derive("model"))
    history = pipeline.train(model, [scene], cfg.train, cfg.loss)
    with tensor.no_grad():
        state = model.forward(scene)
    return model, scene, history, state


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
        model, scene, history, state = _ablation_run(run_cfg, args.seed)
        dets = pipeline.detect(model, scene)
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
    scene = _generate_scene(cfg, rng, 0)

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
