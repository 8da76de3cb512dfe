"""Span recording from outside the program.

A Tracer replaces chosen functions and methods of the pointfuse modules
with wrappers that record one span per call: name, start, end, parent
span and op id.  Nothing under src/ changes; the originals come back on
uninstall.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time

from pointfuse import boxes, fusion, frustum, nn, pipeline, tensor

# (owner, attribute, span name).  Module attributes are patched where the
# caller looks them up, so pipeline.nms, fusion.knn_group and both
# modules' farthest_point_sampling rather than their defining modules; boxes.iou_bev is looked up at call time inside
# boxes.nms and boxes.average_precision_40.
TARGETS = (
    (frustum.ImageEncoder, "__call__", "frustum.encode"),
    (pipeline, "generate_pseudo_points", "frustum.pseudo"),
    (fusion.TransitionDown, "__call__", "fusion.down"),
    (fusion.TransitionUp, "__call__", "fusion.up"),
    (fusion.FeatureProp, "__call__", "fusion.up"),
    (fusion.CrossFusion, "__call__", "fusion.link"),
    (fusion.ProposalHead, "__call__", "fusion.head"),
    (fusion.ProposalHead, "decode_proposals", "fusion.decode"),
    (fusion, "farthest_point_sampling", "geometry.fps"),
    (frustum, "farthest_point_sampling", "geometry.fps"),
    (fusion, "knn_group", "geometry.knn"),
    (pipeline, "build_rpn_targets", "pipeline.targets"),
    (pipeline, "compute_losses", "losses.loss"),
    (pipeline, "nms", "boxes.nms"),
    (pipeline, "average_precision_40", "boxes.ap40"),
    (boxes, "iou_bev", "boxes.iou"),
    (tensor, "backward", "tensor.backward"),
    (nn.Adam, "step", "nn.adam"),
    (nn.Adam, "zero_grad", "nn.zero_grad"),
)

# span name -> per-layer metric holding its self time
SELF_TIME_METRICS = {
    "frustum.encode": "frustum.encode_ms",
    "frustum.pseudo": "frustum.pseudo_ms",
    "fusion.down": "fusion.down_ms",
    "fusion.up": "fusion.up_ms",
    "fusion.link": "fusion.link_ms",
    "fusion.head": "fusion.head_ms",
    "fusion.decode": "fusion.decode_ms",
    "geometry.fps": "geometry.fps_ms",
    "geometry.knn": "geometry.knn_ms",
    "pipeline.targets": "pipeline.targets_ms",
    "losses.loss": "losses.loss_ms",
    "boxes.nms": "boxes.nms_ms",
    "boxes.iou": "boxes.iou_ms",
    "tensor.backward": "tensor.backward_ms",
    "nn.adam": "nn.adam_ms",
    "nn.zero_grad": "nn.zero_grad_ms",
}


class Tracer:
    """In-memory span store plus the wrappers that fill it.

    A span is a list [name, start, end, parent, op]: perf_counter
    seconds, the index of the enclosing span (-1 at the root) and the id
    of the op it belongs to.  The benchmark loop opens one root span per
    op with ``op_span``; wrapped calls nest under it.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in TARGETS:
            orig = vars(owner)[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(name, orig))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    @contextlib.contextmanager
    def op_span(self, op_id: int, kind: str):
        """Root span of one op; kind is "step", "scene" or "eval"."""
        self._op = op_id
        rec = self._open(kind)
        try:
            yield
        finally:
            self._close(rec)
            self._op = -1

    def write(self, path: str, t0: float) -> None:
        """One JSON array per line: id, name, start_s, end_s, parent, op,
        times relative to t0."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps([i, name, round(start - t0, 9), round(end - t0, 9),
                                     parent, op]) + "\n")


def summarize(spans: list[list]) -> dict:
    """Per-layer metrics from a span list.

    Self time is a span's duration minus the time its children cover.
    Each *_ms metric is the median over traced ops of the per-op sum of
    that layer's self time; boxes.iou_ms counts only IoU calls made by
    NMS, AP-40's own calls fall into boxes.ap40_ms, which is the whole
    AP-40 time of one pass over the scenes.  trace.other_share is the
    median share of op time that no wrapped call covers.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    per_op: dict[int, dict] = {}
    kinds: dict[int, str] = {}
    ap40: dict[int, float] = {}
    other: dict[int, float] = {}
    for i, (name, start, end, parent, op) in enumerate(spans):
        dur = end - start
        if parent < 0:
            kinds[op] = name
            other[op] = (dur - child_time[i]) / dur
            continue
        if name == "boxes.ap40":
            ap40[op] = ap40.get(op, 0.0) + dur
            continue
        if name == "boxes.iou" and spans[parent][0] != "boxes.nms":
            continue
        metric = SELF_TIME_METRICS[name]
        layers = per_op.setdefault(op, {})
        layers[metric] = layers.get(metric, 0.0) + dur - child_time[i]

    ops = [op for op, kind in kinds.items() if kind != "eval"]
    out = {}
    for metric in SELF_TIME_METRICS.values():
        out[metric] = 1000.0 * statistics.median(per_op.get(op, {}).get(metric, 0.0) for op in ops)
    out["boxes.ap40_ms"] = 1000.0 * statistics.median(ap40.values()) if ap40 else 0.0
    out["trace.other_share"] = statistics.median(other[op] for op in ops)
    return out
