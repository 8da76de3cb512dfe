"""The benchmark's workloads: set-up, closed-loop timing, output checks
and counts.

Each workload is one client in a closed loop: it sends its next op only
after the previous one returned.  The seed picks the scenes; the weights
are always those `pointfuse eval` starts from at its default seed, so two
seeds run the same program on different inputs.  The first pass over the
scenes is untimed: it warms caches and is where counts and reference
outputs are taken.  Timed passes follow until the run time is used up.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import math
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from pointfuse import boxes, fusion, kitti, pipeline
from pointfuse.config import RunConfig
from pointfuse.nn import Adam, Rng
from spans import summarize

MODEL_SEED = 0          # `pointfuse eval` default --seed
SETUP_REPEATS = 30      # set-ups per run, spread over it; setup_s is their median
MIN_TIMED_OPS = 20      # so .tail always has ten samples beyond it

# train-mid: everything not listed stays at the desk value
MID_NET = dict(image_height=96, image_width=320, depth_bins=80, feature_channels=16,
               n_foreground=1024, n_raw=512, n_pseudo=192,
               raw_stages=(256, 128, 64, 32), pseudo_stages=(96, 48, 32, 24),
               stage_channels=(16, 24, 32, 48), l_group=8)
MID_SCENE = dict(image_height=96, image_width=320, focal=275.0,
                 points_per_box=1024, background_points=1024)

# name -> (kind, scenes per pass, net overrides, scene overrides)
WORKLOADS = {
    "train-desk": ("train", 4, {}, {}),
    "train-mid": ("train", 4, MID_NET, MID_SCENE),
    "detect-desk": ("detect", 8, {}, {}),
}


def make_config(name: str) -> RunConfig:
    _, _, net, scene = WORKLOADS[name]
    cfg = RunConfig()
    cfg.net = dataclasses.replace(cfg.net, **net)
    cfg.scene = dataclasses.replace(cfg.scene, **scene)
    cfg.validate()
    return cfg


@dataclasses.dataclass
class Setup:
    scenes: list
    model: pipeline.DetectionModel
    opt: Adam | None
    generate_s: float
    prepare_s: float
    model_init_s: float


def set_up(cfg: RunConfig, seed: int, n_scenes: int, train: bool) -> Setup:
    """Scene generation, prepare_scene, and model (plus optimiser)
    construction.  Scenes are seeded as `pointfuse eval --seed seed` seeds
    them; the weights always come from MODEL_SEED."""
    rng = Rng(seed)
    gen = prep = 0.0
    scenes = []
    for i in range(n_scenes):
        t0 = time.perf_counter()
        scene = kitti.generate_scene(cfg.scene, rng.derive(f"scene{i}"))
        t1 = time.perf_counter()
        scenes.append(pipeline.prepare_scene(scene, cfg.net, rng.derive(f"prep{i}"), scene_id=i))
        t2 = time.perf_counter()
        gen += t1 - t0
        prep += t2 - t1
    t0 = time.perf_counter()
    model = pipeline.DetectionModel(cfg.net, Rng(MODEL_SEED).derive("model"))
    opt = None
    if train:
        s = cfg.train
        opt = Adam(model.params(), lr=s.lr, beta1=s.beta1, beta2=s.beta2,
                   eps=s.eps, weight_decay=s.weight_decay)
    return Setup(scenes, model, opt, gen, prep, time.perf_counter() - t0)


class Loop:
    """Closed-loop pass scheduler shared by both kinds of workload.

    Pass 0 is untimed.  With a tracer, odd passes are traced and even
    passes are not, so the two sets of latencies interleave in time and
    their ratio gives the tracing overhead.

    The loop also times SETUP_REPEATS calls of set_up.  The first gives
    ``main``, the set-up the ops run on; the others run between untraced
    ops, spread evenly over the timed passes, so setup_s sees the same
    host speed as the ops do rather than that of one moment.  Their time
    does not count toward the run time.  ``replica`` is the last set-up.
    """

    def __init__(self, seconds: float, tracer, set_up):
        self.seconds = seconds
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.latencies = {False: [], True: []}     # traced? -> seconds per op
        self.pass_seconds: list[float] = []          # untraced timed passes
        self._next_op = 0
        self._set_up = set_up
        self.setup_times: list[tuple] = []           # (generate, prepare, model init)
        self._setup_spent = 0.0
        self._start = None
        self.main = self._one_setup()

    def _one_setup(self):
        t0 = time.perf_counter()
        self.replica = self._set_up()
        self.setup_times.append((self.replica.generate_s, self.replica.prepare_s,
                                 self.replica.model_init_s))
        self._setup_spent += time.perf_counter() - t0
        return self.replica

    def _elapsed(self) -> float:
        return time.perf_counter() - self._start - self._setup_spent

    def passes(self):
        """Yield (pass index, traced?) until the run time is used up."""
        min_passes = 3 if self.tracer is not None else 2
        k = 0
        while True:
            if k == 1:
                self._start = time.perf_counter()
                self._setup_spent = 0.0
            traced = self.tracer is not None and k % 2 == 1
            if traced:
                self.tracer.install()
            try:
                yield k, traced
            finally:
                if traced:
                    self.tracer.uninstall()
            k += 1
            timed = len(self.latencies[False]) + len(self.latencies[True])
            if k >= min_passes and timed >= MIN_TIMED_OPS and self._elapsed() >= self.seconds:
                break
        while len(self.setup_times) < SETUP_REPEATS:
            self._one_setup()

    @contextlib.contextmanager
    def op(self, traced: bool, kind: str):
        """Context of one op: its root span when traced.  After an
        untraced op, a set-up runs when one is due."""
        self._next_op += 1
        with self.tracer.op_span(self._next_op, kind) if traced else contextlib.nullcontext():
            yield
        if (not traced and self._start is not None and len(self.setup_times) < SETUP_REPEATS
                and len(self.setup_times) < SETUP_REPEATS * self._elapsed() / self.seconds):
            self._one_setup()

    def run_op(self, fn, *args):
        """Call fn, counting it as attempted and, if it raises, failed.
        Returns fn's result, or None when it raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def fail(self, message: str) -> None:
        """Count an op that returned but failed its output check."""
        self.failed += 1
        print(message, file=sys.stderr)


def tape_stats(roots) -> tuple[int, int, int]:
    """Nodes, data bytes and grad bytes of the tape behind roots, walking
    the same requires_grad parents that backward walks.  Bytes are
    computed from array sizes."""
    stack = [r for r in roots if r.requires_grad]
    seen = {id(r) for r in stack}
    nodes = data = grad = 0
    while stack:
        node = stack.pop()
        nodes += 1
        data += node.data.nbytes
        if node.grad is not None:
            grad += node.grad.nbytes
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return nodes, data, grad


def _tape_counts(stats: list[tuple]) -> dict:
    nodes, data, grad = (statistics.fmean(s[i] for s in stats) for i in range(3))
    return {"tensor.tape_nodes": nodes, "tensor.tape_data_mb": data / 2**20,
            "tensor.tape_grad_mb": grad / 2**20}


# -- training ---------------------------------------------------------------


def train_step(setup: Setup, cfg: RunConfig, prepared, live: dict):
    """One step as pipeline.train takes it; returns (seconds, parts).

    live holds the "state" and "total" of the previous step and is
    rebound exactly where pipeline.train rebinds its locals, so each
    step sees the same live graphs as `pointfuse train` and
    peak_rss_mb is that command's peak."""
    t0 = time.perf_counter()
    setup.opt.zero_grad()
    live["state"] = setup.model.forward(prepared)
    live["total"], parts = pipeline.compute_losses(prepared, live["state"], cfg.loss)
    live["total"].backward()
    setup.opt.step()
    return time.perf_counter() - t0, parts


def _loss_line(parts: dict) -> bytes:
    return (" ".join(f"{k}={float(parts[k]).hex()}" for k in sorted(parts)) + "\n").encode()


def run_train(cfg: RunConfig, loop: Loop) -> dict:
    main = loop.main
    digest = hashlib.sha256()
    tape: dict[int, tuple] = {}          # scene id -> tape stats of its steps
    live: dict = {}
    for pass_idx, traced in loop.passes():
        for prepared in main.scenes:
            with loop.op(traced, "step"):
                out = loop.run_op(train_step, main, cfg, prepared, live)
            if out is None:
                continue
            dt, parts = out
            stats = tape_stats([live["total"]])
            bad = [k for k, v in parts.items() if not math.isfinite(v)]
            if bad:
                loop.fail(f"scene {prepared.scene_id}: non-finite loss components {bad}")
            elif tape.setdefault(prepared.scene_id, stats) != stats:
                loop.fail(f"scene {prepared.scene_id}: tape counts {stats} differ from "
                          f"its earlier steps {tape[prepared.scene_id]}")
            elif pass_idx == 0:
                digest.update(_loss_line(parts))
            else:
                loop.latencies[traced].append(dt)

    # the first pass, replayed on an independently built model, must give
    # the same loss digest bit for bit and the same tape counts
    replay = hashlib.sha256()
    checks = []
    live = {}
    for prepared in loop.replica.scenes:
        _, parts = train_step(loop.replica, cfg, prepared, live)
        stats = tape_stats([live["total"]])
        replay.update(_loss_line(parts))
        if stats != tape.get(prepared.scene_id):
            checks.append(f"scene {prepared.scene_id}: a fresh model's tape counts {stats} "
                          f"differ from the timed model's {tape.get(prepared.scene_id)}")
    live.clear()
    if replay.digest() != digest.digest():
        checks.append("the first pass replayed on a fresh model gives another loss digest")

    untraced = loop.latencies[False]
    return {"checks": checks,
            "ops_per_s": len(untraced) / sum(untraced) if untraced else float("nan"),
            "counts": _tape_counts(list(tape.values())) if tape else {},
            "digests": {"loss_first_pass": digest.hexdigest()}}


# -- detection ----------------------------------------------------------------


class _Capture:
    """Untimed instrumentation for the reference pass.  For each scene,
    in detection order, it records the tape behind the decoded head
    outputs, how many boxes pipeline.nms received and kept, and how many
    boxes.iou_bev calls NMS made and how many returned IoU > 0.  It keeps
    the NMS inputs for the oracle check and counts AP-40's IoU calls
    apart."""

    def __init__(self):
        self.scenes: list[dict] = []
        self.nms_inputs: list[tuple] = []      # (scene id, dets, threshold, kept)
        self.ap40_iou_calls = 0
        self._in_nms = False

    def __enter__(self):
        orig_iou, orig_nms = boxes.iou_bev, pipeline.nms
        orig_decode = fusion.ProposalHead.decode_proposals
        self._saved = (orig_iou, orig_nms, orig_decode)

        def decode_proposals(head, out, score_threshold):
            self.scenes.append({"tape": tape_stats([out.votes, out.cls_prob, out.reg]),
                                "nms_in": 0, "nms_kept": 0, "iou_calls": 0, "iou_hits": 0})
            return orig_decode(head, out, score_threshold)

        def nms(dets, thr, overlap="bev"):
            self._in_nms = True
            try:
                kept = orig_nms(dets, thr, overlap)
            finally:
                self._in_nms = False
            self.scenes[-1].update(nms_in=len(dets), nms_kept=len(kept))
            self.nms_inputs.append((dets[0].scene, list(dets), thr, list(kept)))
            return kept

        def iou_bev(a, b):
            v = orig_iou(a, b)
            if self._in_nms:
                self.scenes[-1]["iou_calls"] += 1
                self.scenes[-1]["iou_hits"] += v > 0.0
            else:
                self.ap40_iou_calls += 1
            return v

        boxes.iou_bev, pipeline.nms = iou_bev, nms
        fusion.ProposalHead.decode_proposals = decode_proposals
        return self

    def __exit__(self, *exc):
        boxes.iou_bev, pipeline.nms, fusion.ProposalHead.decode_proposals = self._saved
        return False

    def counts(self) -> dict:
        if not self.scenes:
            return {}
        total = {k: sum(r[k] for r in self.scenes) for k in ("nms_in", "nms_kept", "iou_calls", "iou_hits")}
        n = len(self.scenes)
        out = _tape_counts([r["tape"] for r in self.scenes])
        out.update({
            "boxes.nms_in": total["nms_in"] / n,
            "boxes.nms_kept": total["nms_kept"] / n,
            "boxes.iou_calls": total["iou_calls"] / n,
            "boxes.iou_hit_ratio": total["iou_hits"] / total["iou_calls"] if total["iou_calls"] else 0.0,
            "boxes.ap40_iou_calls": self.ap40_iou_calls,
        })
        return out


def verify_nms(dets: list, thr: float, kept: list[int]) -> list[str]:
    """Check a kept list against the scalar boxes.iou_bev oracle: kept
    boxes come in score order, no kept pair overlaps above thr, and every
    dropped box overlaps some earlier-kept box above thr."""
    errors = []
    order = np.argsort(-np.array([d.score for d in dets]), kind="stable")
    rank = np.empty(len(dets), dtype=np.int64)
    rank[order] = np.arange(len(dets))
    if kept != sorted(kept, key=lambda i: rank[i]):
        errors.append("kept boxes are not in score order")
    for pos, a in enumerate(kept):
        for b in kept[pos + 1:]:
            if boxes.iou_bev(dets[a].box, dets[b].box) > thr:
                errors.append(f"kept boxes {a} and {b} overlap above {thr}")
    kept_set = set(kept)
    for i in range(len(dets)):
        if i not in kept_set and not any(
                rank[j] < rank[i] and boxes.iou_bev(dets[j].box, dets[i].box) > thr
                for j in kept):
            errors.append(f"dropped box {i} overlaps no earlier-kept box above {thr}")
    return errors


def average_precision(cfg: RunConfig, dets: list, gts: list) -> dict:
    """AP-40 per class, as pipeline.evaluate computes it."""
    return {klass: pipeline.average_precision_40(
                dets, gts, boxes.CLASS_IOU_THRESHOLD[klass], klass,
                overlap=cfg.eval.overlap, max_difficulty=cfg.eval.max_difficulty)
            for klass in boxes.CLASSES}


def _ap_key(results: dict) -> tuple:
    return tuple((k, r.flagged, None if r.flagged else r.ap, r.n_gt, r.n_det)
                 for k, r in results.items())


def run_detect(cfg: RunConfig, loop: Loop) -> dict:
    main = loop.main
    gts = [g for p in main.scenes for g in p.ground_truths()]
    reference: dict[int, list[str]] = {}
    checks = []
    capture = _Capture()
    ap_ref = None
    for pass_idx, traced in loop.passes():
        pass_time = 0.0
        pass_dets = []
        with capture if pass_idx == 0 else contextlib.nullcontext():
            for prepared in main.scenes:
                with loop.op(traced, "scene"):
                    t0 = time.perf_counter()
                    dets = loop.run_op(pipeline.detect, main.model, prepared)
                    dt = time.perf_counter() - t0
                if dets is None:
                    continue
                rows = [boxes.format_detection_row(d) for d in dets]
                if pass_idx == 0:
                    reference[prepared.scene_id] = rows
                elif rows != reference.get(prepared.scene_id):
                    loop.fail(f"scene {prepared.scene_id}: detections differ from the first pass")
                    continue
                else:
                    loop.latencies[traced].append(dt)
                pass_time += dt
                pass_dets.extend(dets)
            with loop.op(traced, "eval"):
                t0 = time.perf_counter()
                ap = average_precision(cfg, pass_dets, gts)
                pass_time += time.perf_counter() - t0
        if pass_idx == 0:
            ap_ref = _ap_key(ap)
            checks.extend(f"AP-40[{k}] = {r.ap} is outside [0, 1] and not flagged"
                          for k, r in ap.items() if not (r.flagged or 0.0 <= r.ap <= 1.0))
            for sid, dets, thr, kept in capture.nms_inputs:
                errors = verify_nms(dets, thr, kept)
                if errors:
                    loop.fail(f"scene {sid}: NMS fails the iou_bev oracle ({len(errors)} "
                              f"findings): {'; '.join(errors[:3])}")
        elif _ap_key(ap) != ap_ref:
            checks.append(f"pass {pass_idx}: AP-40 differs from the first pass")
        elif not traced:
            loop.pass_seconds.append(pass_time)

    # an independently built model must reproduce scene 0 and its counts
    first = loop.replica.scenes[0]
    recount = _Capture()
    with recount:
        rows = [boxes.format_detection_row(d) for d in pipeline.detect(loop.replica.model, first)]
    if rows != reference.get(first.scene_id):
        checks.append("a fresh model's detections differ from the timed model's")
    if recount.scenes != capture.scenes[:1]:
        checks.append(f"a fresh model's counts {recount.scenes} differ from the timed "
                      f"model's {capture.scenes[:1]}")

    digest = hashlib.sha256()
    for sid in sorted(reference):
        for row in reference[sid]:
            digest.update(f"{sid} {row}\n".encode())
    done = sum(loop.pass_seconds)
    return {"checks": checks,
            "ops_per_s": len(main.scenes) * len(loop.pass_seconds) / done if done else float("nan"),
            "counts": capture.counts(),
            "digests": {"detections_first_pass": digest.hexdigest()},
            "ap40": {k: v for k, _, v, _, _ in ap_ref or ()}}


# -- one run ------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it, which is the eleventh-largest sample."""
    n = len(samples)
    if n < 11:
        return float("nan"), float("nan")
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def run(name: str, seed: int, seconds: float, tracer) -> dict:
    """Run the closed loop on the first set-up and replay on the last;
    returns metrics and everything the checks saw."""
    kind, n_scenes, _, _ = WORKLOADS[name]
    cfg = make_config(name)
    loop = Loop(seconds, tracer, lambda: set_up(cfg, seed, n_scenes, kind == "train"))
    res = (run_train if kind == "train" else run_detect)(cfg, loop)

    setup_times = loop.setup_times
    untraced, traced = loop.latencies[False], loop.latencies[True]
    p50 = statistics.median(untraced) if untraced else float("nan")
    tail_s, tail_pct = tail(untraced)
    end_to_end = {
        "op_ms.p50": 1000.0 * p50,
        "op_ms.tail": 1000.0 * tail_s,
        "ops_per_s": res["ops_per_s"],
        "setup_s": statistics.median(sum(t) for t in setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    per_layer = {
        "kitti.generate_ms": 1000.0 * statistics.median(t[0] for t in setup_times),
        "pipeline.prepare_ms": 1000.0 * statistics.median(t[1] for t in setup_times),
        "pipeline.model_init_ms": 1000.0 * statistics.median(t[2] for t in setup_times),
    }
    per_layer.update(res["counts"])
    if tracer is not None and traced:
        per_layer.update(summarize(tracer.spans))
        per_layer["trace.op_ms"] = 1000.0 * statistics.median(traced)
        per_layer["trace.overhead"] = statistics.median(traced) / p50 - 1.0
    return {
        "workload": name, "kind": kind, "seed": seed,
        "config": {"scenes_per_pass": n_scenes, "model_seed": MODEL_SEED,
                   "setup_repeats": SETUP_REPEATS, "net": dataclasses.asdict(cfg.net),
                   "scene": dataclasses.asdict(cfg.scene)},
        "attempted": loop.attempted, "failed": loop.failed, "checks": res["checks"],
        "timed_ops": len(untraced), "traced_ops": len(traced),
        "tail_percentile": tail_pct, "digests": res["digests"], "counts": res["counts"],
        "ap40": res.get("ap40"),
        "end_to_end": end_to_end, "per_layer": per_layer,
    }
