"""Oriented 3D boxes, rotated-overlap IoU, NMS and 40-point average
precision.

Boxes live in the LiDAR frame: center (x, y, z), dimensions (l, w, h)
with l along the heading, and yaw about +z measured from +x, normalised
to (-pi, pi].  BEV geometry is exact convex polygon clipping, not an
axis-aligned approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class BoxError(ValueError):
    """Degenerate or malformed box."""


CLASSES = ("Car", "Pedestrian", "Cyclist")

# class -> (l, w, h) mean anchor dimensions used for residual decoding
DEFAULT_ANCHORS = {
    "Car": (3.9, 1.6, 1.56),
    "Pedestrian": (0.8, 0.6, 1.73),
    "Cyclist": (1.76, 0.6, 1.73),
}

# class -> matching IoU threshold for AP
CLASS_IOU_THRESHOLD = {"Car": 0.7, "Pedestrian": 0.5, "Cyclist": 0.5}

N_RECALL_POSITIONS = 40


def normalize_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    a = float(a) % (2.0 * np.pi)
    if a > np.pi:
        a -= 2.0 * np.pi
    return a


@dataclass
class Box3D:
    x: float
    y: float
    z: float
    l: float
    w: float
    h: float
    yaw: float

    def __post_init__(self):
        for name in ("l", "w", "h"):
            if not getattr(self, name) > 0.0:
                raise BoxError(f"{name} must be positive, got {getattr(self, name)}")
        vals = [self.x, self.y, self.z, self.l, self.w, self.h, self.yaw]
        if not np.all(np.isfinite(vals)):
            raise BoxError("non-finite box field")
        self.yaw = normalize_angle(self.yaw)

    @property
    def center(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    @property
    def volume(self) -> float:
        return self.l * self.w * self.h

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z, self.l, self.w, self.h, self.yaw])

    def bev_corners(self) -> np.ndarray:
        """[4, 2] corner polygon in the x-y plane, counter-clockwise."""
        c, s = np.cos(self.yaw), np.sin(self.yaw)
        rot = np.array([[c, -s], [s, c]])
        local = np.array([[self.l / 2, self.w / 2], [-self.l / 2, self.w / 2],
                          [-self.l / 2, -self.w / 2], [self.l / 2, -self.w / 2]])
        return local @ rot.T + np.array([self.x, self.y])

    def corners(self) -> np.ndarray:
        """[8, 3] box corners: bottom face then top face."""
        bev = self.bev_corners()
        lo, hi = self.z - self.h / 2, self.z + self.h / 2
        bottom = np.hstack([bev, np.full((4, 1), lo)])
        top = np.hstack([bev, np.full((4, 1), hi)])
        return np.vstack([bottom, top])

    def contains(self, pts: np.ndarray, inflate: float = 1.0) -> np.ndarray:
        """Boolean mask of points inside the (optionally inflated) box."""
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        d = pts - self.center
        c, s = np.cos(self.yaw), np.sin(self.yaw)
        local_x = d[:, 0] * c + d[:, 1] * s
        local_y = -d[:, 0] * s + d[:, 1] * c
        eps = 1e-9
        return ((np.abs(local_x) <= self.l / 2 * inflate + eps)
                & (np.abs(local_y) <= self.w / 2 * inflate + eps)
                & (np.abs(d[:, 2]) <= self.h / 2 * inflate + eps))


@dataclass
class DetectionResult:
    box: Box3D
    score: float
    klass: str
    scene: int = 0

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise BoxError(f"score must be in [0,1], got {self.score}")
        if self.klass not in CLASSES:
            raise BoxError(f"unknown class {self.klass!r}")


@dataclass
class GroundTruth:
    box: Box3D
    klass: str
    difficulty: int = 0  # 0 easy / 1 moderate / 2 hard / 3 beyond-hard
    scene: int = 0


# -- convex polygon clipping -----------------------------------------------------


def polygon_area(poly: np.ndarray) -> float:
    """Shoelace area of a simple polygon, sign-free."""
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def clip_convex(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman intersection of two convex polygons.

    ``clip`` must be counter-clockwise; returns the (possibly empty)
    intersection polygon.
    """
    out = list(subject)
    n = len(clip)
    for i in range(n):
        if not out:
            break
        a, b = clip[i], clip[(i + 1) % n]
        edge = b - a
        inp, out = out, []
        prev = inp[-1]
        prev_in = edge[0] * (prev[1] - a[1]) - edge[1] * (prev[0] - a[0]) >= 0.0
        for cur in inp:
            cur_in = edge[0] * (cur[1] - a[1]) - edge[1] * (cur[0] - a[0]) >= 0.0
            if cur_in != prev_in:
                # segment crosses the edge line; append the intersection.  A
                # segment parallel to the edge (denom 0) only "crosses" by a
                # rounding flip of the side test: both ends lie on the line.
                d = cur - prev
                denom = edge[0] * d[1] - edge[1] * d[0]
                if denom != 0.0:
                    t = (edge[0] * (a[1] - prev[1]) - edge[1] * (a[0] - prev[0])) / denom
                    out.append(prev + t * d)
            if cur_in:
                out.append(cur)
            prev, prev_in = cur, cur_in
    return np.array(out) if out else np.zeros((0, 2))


def iou_bev(a: Box3D, b: Box3D) -> float:
    """Rotated-rectangle IoU in the x-y plane."""
    pa, pb = a.bev_corners(), b.bev_corners()
    inter = polygon_area(clip_convex(pa, pb))
    area_a, area_b = a.l * a.w, b.l * b.w
    union = area_a + area_b - inter
    if union <= 0.0:
        raise BoxError("degenerate union in iou_bev")
    return float(np.clip(inter / union, 0.0, 1.0))


def iou_3d(a: Box3D, b: Box3D) -> float:
    """Volumetric IoU: BEV intersection times vertical overlap."""
    pa, pb = a.bev_corners(), b.bev_corners()
    inter_bev = polygon_area(clip_convex(pa, pb))
    z_lo = max(a.z - a.h / 2, b.z - b.h / 2)
    z_hi = min(a.z + a.h / 2, b.z + b.h / 2)
    inter = inter_bev * max(0.0, z_hi - z_lo)
    union = a.volume + b.volume - inter
    if union <= 0.0:
        raise BoxError("degenerate union in iou_3d")
    return float(np.clip(inter / union, 0.0, 1.0))


# -- batched overlap ---------------------------------------------------------------
#
# NMS and AP-40 score many box pairs at once.  The kernel clips arrays of
# pairs with the same float operations, in the same order, as clip_convex;
# only the shoelace sum differs (np.dot may fuse multiply-adds), so it agrees
# with the scalar iou_bev / iou_3d, kept as its oracle, to about 1e-13.

# Pairs per clip call.  Bounds the kernel's transient arrays to about 2 MB
# while keeping numpy's fixed per-call cost small next to the work.
PAIR_BLOCK = 1024


@dataclass(frozen=True)
class BoxArrays:
    """A box list in column form, as the batched kernel reads it."""

    corners: np.ndarray  # [n, 4, 2] bev_corners(), counter-clockwise
    center: np.ndarray   # [n, 2] BEV centre
    radius: np.ndarray   # [n] BEV half-diagonal
    area: np.ndarray     # [n] l * w
    z_lo: np.ndarray     # [n]
    z_hi: np.ndarray     # [n]
    volume: np.ndarray   # [n]

    @classmethod
    def of(cls, boxes: list[Box3D]) -> "BoxArrays":
        a = np.array([(b.x, b.y, b.z, b.l, b.w, b.h, b.yaw) for b in boxes],
                     dtype=np.float64).reshape(-1, 7)
        x, y, z, l, w, h, yaw = a.T
        # Box3D.bev_corners as one stacked matmul: the same products per box
        c, s = np.cos(yaw), np.sin(yaw)
        rot = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)
        local = np.stack([np.stack([l / 2, -l / 2, -l / 2, l / 2], axis=-1),
                          np.stack([w / 2, w / 2, -w / 2, -w / 2], axis=-1)], axis=-1)
        corners = local @ np.swapaxes(rot, -1, -2) + a[:, None, :2]
        return cls(corners, a[:, :2], 0.5 * np.hypot(l, w), l * w,
                   z - h / 2, z + h / 2, l * w * h)


def _clip_area(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """polygon_area(clip_convex(subject[k], clip[k])) for every k.

    ``subject`` and ``clip`` are [P, 4, 2] convex quads, ``clip``
    counter-clockwise.  Polygons live in [C, P] coordinate slots (pairs on
    the fast axis, so every elementwise op runs one long inner loop) with
    per-pair vertex counts.  C grows to whatever a clip edge emits, since in
    floating point the clip can exceed the 8 vertices of exact arithmetic.
    """
    n_pairs, n_edges = clip.shape[:2]
    pair = np.arange(n_pairs)
    x, y = subject[..., 0].T.copy(), subject[..., 1].T.copy()
    count = np.full(n_pairs, subject.shape[1])
    for e in range(n_edges):
        ax, ay = clip[:, e, 0], clip[:, e, 1]
        ex = clip[:, (e + 1) % n_edges, 0] - ax
        ey = clip[:, (e + 1) % n_edges, 1] - ay
        valid = np.arange(len(x))[:, None] < count
        inside = ex * (y - ay) - ey * (x - ax) >= 0.0
        # the vertex before each slot; slot 0 wraps to the last valid one
        last = np.maximum(count - 1, 0)
        px = np.concatenate((x[last, pair][None], x[:-1]))
        py = np.concatenate((y[last, pair][None], y[:-1]))
        prev_in = np.concatenate((inside[last, pair][None], inside[:-1]))
        dx, dy = x - px, y - py
        denom = ex * dy - ey * dx
        cross = valid & (inside != prev_in) & (denom != 0.0)
        t = np.divide(ex * (ay - py) - ey * (ax - px), denom,
                      out=np.zeros_like(denom), where=cross)
        # each slot emits [its intersection] then [its own vertex]; the
        # emitted entries, in order, are the next polygon.  Entries not
        # emitted land in a spare last row that is dropped.
        emit = np.empty((len(x), 2, n_pairs), dtype=bool)
        emit[:, 0] = cross
        np.logical_and(valid, inside, out=emit[:, 1])
        emit = emit.reshape(-1, n_pairs)
        # at most 4 * 2**4 = 64 vertices after four edges: int8 cannot wrap
        rank = np.cumsum(emit.view(np.int8), axis=0, dtype=np.int8)
        count = rank[-1].astype(np.int64)
        width = max(int(count.max(initial=0)), 1)
        flat = np.where(emit, rank - 1, width).astype(np.intp) * n_pairs + pair
        new_x, new_y = np.empty((len(x), 2, n_pairs)), np.empty((len(x), 2, n_pairs))
        new_x[:, 0], new_x[:, 1] = px + t * dx, x
        new_y[:, 0], new_y[:, 1] = py + t * dy, y
        x, y = np.zeros((width + 1, n_pairs)), np.zeros((width + 1, n_pairs))
        x.ravel()[flat] = new_x.reshape(flat.shape)
        y.ravel()[flat] = new_y.reshape(flat.shape)
        x, y = x[:width], y[:width]

    # shoelace over the valid slots; the last valid vertex wraps to slot 0
    last = np.maximum(count - 1, 0)
    xn, yn = np.concatenate((x[1:], x[:1])), np.concatenate((y[1:], y[:1]))
    xn[last, pair], yn[last, pair] = x[0], y[0]
    terms = x * yn - xn * y
    terms[np.arange(len(x))[:, None] >= count] = 0.0
    twice = np.zeros(n_pairs)
    for row in terms:
        twice = twice + row
    return np.where(count >= 3, 0.5 * np.abs(twice), 0.0)


def pair_iou(subject: BoxArrays, clip: BoxArrays, rows: np.ndarray, cols: np.ndarray,
             overlap: str = "bev") -> np.ndarray:
    """Overlap of ``subject`` box rows[k] with ``clip`` box cols[k] for every k.

    Each value is iou_bev(subject, clip), or iou_3d when ``overlap`` is
    not "bev", up to rounding.  Pairs whose centres lie further apart than
    the sum of their half-diagonals cannot overlap and read exactly 0
    without being clipped; the rest are clipped PAIR_BLOCK at a time.
    """
    out = np.zeros(len(rows))
    d = subject.center[rows] - clip.center[cols]
    # the relative slack covers corner rounding, so the filter never drops
    # a pair whose clip could come out non-empty
    reach = (subject.radius[rows] + clip.radius[cols]) * (1.0 + 1e-9)
    near = np.flatnonzero(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] <= reach * reach)
    for start in range(0, len(near), PAIR_BLOCK):
        k = near[start:start + PAIR_BLOCK]
        r, c = rows[k], cols[k]
        inter = _clip_area(subject.corners[r], clip.corners[c])
        if overlap == "bev":
            union = subject.area[r] + clip.area[c] - inter
        else:
            height = (np.minimum(subject.z_hi[r], clip.z_hi[c])
                      - np.maximum(subject.z_lo[r], clip.z_lo[c]))
            inter = inter * np.maximum(0.0, height)
            union = subject.volume[r] + clip.volume[c] - inter
        out[k] = np.clip(inter / union, 0.0, 1.0)
    return out


# -- NMS -------------------------------------------------------------------------


def nms(dets: list[DetectionResult], iou_threshold: float, overlap: str = "bev") -> list[int]:
    """Greedy non-maximum suppression; returns kept indices.

    Candidates are visited by descending score, equal scores by smaller
    original index; a candidate is dropped when its overlap with any
    already-kept box exceeds the threshold (strict >).  Overlaps come from
    pair_iou with the candidate as subject and the earlier box as clip
    polygon, as in iou_bev(candidate, kept) / iou_3d(candidate, kept).
    """
    scores = np.array([d.score for d in dets])
    order = np.argsort(-scores, kind="stable")
    table = BoxArrays.of([dets[i].box for i in order])
    n = len(order)
    later, earlier = np.tril_indices(n, -1)
    # over[s, r]: keeping s suppresses the later candidate r
    over = np.zeros((n, n), dtype=bool)
    over[earlier, later] = pair_iou(table, table, later, earlier, overlap) > iou_threshold
    kept: list[int] = []
    suppressed = np.zeros(n, dtype=bool)
    for r in range(n):
        if not suppressed[r]:
            kept.append(int(order[r]))
            suppressed |= over[r]
    return kept


# -- average precision -------------------------------------------------------------


@dataclass
class ApResult:
    ap: float          # NaN when flagged
    flagged: bool      # True when no ground truth existed
    n_gt: int = 0
    n_det: int = 0


def average_precision_40(dets: list[DetectionResult], gts: list[GroundTruth],
                         iou_threshold: float, klass: str,
                         overlap: str = "bev",
                         max_difficulty: int | None = None) -> ApResult:
    """AP sampled at recalls 1/40 .. 40/40 with right-max interpolation.

    Detections are matched greedily in score order (ties by input order)
    to the unmatched same-scene ground truth of the target class with the
    highest overlap at or above the threshold.  Ground truths above
    ``max_difficulty`` are ignore regions: they are not counted as
    positives and detections matching them are discarded outright.
    """
    gts = [g for g in gts if g.klass == klass]
    counted = np.array([max_difficulty is None or g.difficulty <= max_difficulty for g in gts],
                       dtype=bool)
    n_pos = int(counted.sum())
    dets = [d for d in dets if d.klass == klass]
    if n_pos == 0:
        return ApResult(float("nan"), True, 0, len(dets))

    # one (det x gt) overlap matrix; pairs from different scenes stay 0
    same_scene = (np.array([d.scene for d in dets], dtype=np.int64)[:, None]
                  == np.array([g.scene for g in gts], dtype=np.int64)[None, :])
    rows, cols = np.nonzero(same_scene)
    ious = np.zeros(same_scene.shape)
    ious[rows, cols] = pair_iou(BoxArrays.of([d.box for d in dets]),
                                BoxArrays.of([g.box for g in gts]), rows, cols, overlap)
    candidate = (ious >= iou_threshold) & (ious > 0.0)
    has_candidate = candidate.any(axis=1)

    order = np.argsort(-np.array([d.score for d in dets]), kind="stable")
    matched = np.zeros(len(gts), dtype=bool)
    tp_flags: list[int] = []  # 1 TP, 0 FP; ignored matches are skipped
    for i in order:
        if not has_candidate[i]:  # most detections: skip the per-row mask work
            tp_flags.append(0)
            continue
        # highest overlap among unmatched counted ground truth, else among
        # unmatched ignored; argmax keeps the first of equal overlaps
        open_ = candidate[i] & ~matched
        pool = open_ & counted
        if not pool.any():
            pool = open_
        if not pool.any():
            tp_flags.append(0)
            continue
        best_j = int(np.argmax(np.where(pool, ious[i], -1.0)))
        matched[best_j] = True
        if counted[best_j]:
            tp_flags.append(1)
        # matches to ignored ground truth count as neither TP nor FP

    tp = np.cumsum(tp_flags)
    fp = np.cumsum([1 - f for f in tp_flags])
    recall = tp / n_pos
    precision = tp / np.maximum(tp + fp, 1)

    ap = 0.0
    for k in range(1, N_RECALL_POSITIONS + 1):
        r = k / N_RECALL_POSITIONS
        mask = recall >= r - 1e-12
        ap += float(precision[mask].max()) if mask.any() else 0.0
    return ApResult(ap / N_RECALL_POSITIONS, False, n_pos, len(dets))


# -- detection dump format ----------------------------------------------------------
#
# One detection per text row:
#   class score x y z l w h yaw
# printed with %.9g, space separated.  Stable for golden-file tests.


def format_detection_row(det: DetectionResult) -> str:
    fields = [det.klass, f"{det.score:.9g}"] + [f"{v:.9g}" for v in det.box.as_array()]
    return " ".join(fields)


def parse_detection_row(line: str, scene: int = 0) -> DetectionResult:
    parts = line.split()
    if len(parts) != 9:
        raise BoxError(f"detection row needs 9 fields, got {len(parts)}: {line!r}")
    box = Box3D(*[float(v) for v in parts[2:9]])
    return DetectionResult(box, float(parts[1]), parts[0], scene)


def write_detections(path: str, dets: list[DetectionResult]) -> None:
    with open(path, "w") as fh:
        for det in dets:
            fh.write(format_detection_row(det) + "\n")


def read_detections(path: str, scene: int = 0) -> list[DetectionResult]:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(parse_detection_row(line, scene))
    return out
