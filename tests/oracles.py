"""Reference implementations that only the tests run.

Each is the plain, obviously-correct form of a faster library kernel:
the full stable argsort kNN, the loop farthest-point sampler, the
sequential ``np.add.at`` scatter, single-position grid reads, the scalar
inverse-distance interpolation and the per-proposal assignment rule.
The library must match them exactly or within a stated tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pointfuse.boxes import Box3D, iou_3d, iou_bev
from pointfuse.geometry import GeometryError, PointSet


# -- point routing ----------------------------------------------------------------


def knn_argsort(queries, coords, k):
    """kNN by a full stable argsort of each row's squared distances."""
    queries = np.asarray(queries, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.float64)
    d2 = np.sum((queries[:, None, :] - coords[None, :, :]) ** 2, axis=2)
    return np.argsort(d2, axis=1, kind="stable")[:, :k].astype(np.int64)


def fps_loop(coords, m, start=0):
    """Farthest-point sampling that rebuilds the min-distance array each round."""
    coords = np.asarray(coords, dtype=np.float64)
    chosen = np.empty(m, dtype=np.int64)
    chosen[0] = start
    best = np.sum((coords - coords[start]) ** 2, axis=1)
    for i in range(1, m):
        nxt = int(np.argmax(best))
        chosen[i] = nxt
        best = np.minimum(best, np.sum((coords - coords[nxt]) ** 2, axis=1))
    return chosen


def scatter_add_at(shape, index, vals):
    """Zeros of ``shape`` with ``vals`` added at ``index`` by ``np.add.at``."""
    z = np.zeros(shape)
    np.add.at(z, index, vals)
    return z


def _corners(coord, n):
    c = np.clip(coord, 0.0, n - 1.0)
    lo = np.floor(c).astype(np.int64)
    lo = np.minimum(lo, n - 2) if n > 1 else np.zeros_like(lo)
    return lo, np.minimum(lo + 1, n - 1), (c - lo)[:, None]


def bilinear_grid_grad(shape, uv, g):
    """Grid gradient of a batched bilinear read: one ``np.add.at`` per
    corner, corners in the order (v0,u0), (v0,u1), (v1,u0), (v1,u1)."""
    u0, u1, wu = _corners(uv[:, 0], shape[1])
    v0, v1, wv = _corners(uv[:, 1], shape[0])
    z = np.zeros(shape)
    np.add.at(z, (v0, u0), (1 - wu) * (1 - wv) * g)
    np.add.at(z, (v0, u1), wu * (1 - wv) * g)
    np.add.at(z, (v1, u0), (1 - wu) * wv * g)
    np.add.at(z, (v1, u1), wu * wv * g)
    return z


def trilinear_grid_grad(shape, uvd, g):
    """Volume gradient of a batched trilinear read: one ``np.add.at`` per
    corner, corners in (v, u, d) binary order."""
    u = _corners(uvd[:, 0], shape[1])
    v = _corners(uvd[:, 1], shape[0])
    d = _corners(uvd[:, 2], shape[2])
    z = np.zeros(shape)
    for cv in (0, 1):
        for cu in (0, 1):
            for cd in (0, 1):
                w = ((v[2] if cv else 1 - v[2]) * (u[2] if cu else 1 - u[2])
                     * (d[2] if cd else 1 - d[2]))
                np.add.at(z, (v[cv], u[cu], d[cd]), w * g)
    return z


# -- single-position grid reads ----------------------------------------------------


def clamp_coord(c, n):
    """Clamp continuous grid coordinates to [0, n-1]; also report whether
    any clamping happened."""
    c = np.asarray(c, dtype=np.float64)
    clamped = np.clip(c, 0.0, n - 1.0)
    return clamped, bool(np.any(clamped != c))


def bilinear_sample(grid, uv):
    """Sample grid [H, W, C] at one continuous (u, v) -> [C]; u runs along
    W, v along H, out-of-range positions clamp to the border."""
    grid = np.asarray(grid, dtype=np.float64)
    h, w, _ = grid.shape
    u, _ = clamp_coord(np.asarray(uv, dtype=np.float64)[0], w)
    v, _ = clamp_coord(np.asarray(uv, dtype=np.float64)[1], h)
    u0 = min(int(np.floor(u)), w - 2) if w > 1 else 0
    v0 = min(int(np.floor(v)), h - 2) if h > 1 else 0
    u1, v1 = min(u0 + 1, w - 1), min(v0 + 1, h - 1)
    fu, fv = u - u0, v - v0
    return ((1 - fu) * (1 - fv) * grid[v0, u0] + fu * (1 - fv) * grid[v0, u1]
            + (1 - fu) * fv * grid[v1, u0] + fu * fv * grid[v1, u1])


def trilinear_sample(volume, uvd):
    """Sample volume [H, W, D, C] at one continuous (u, v, d) -> [C]."""
    volume = np.asarray(volume, dtype=np.float64)
    h, w, d, _ = volume.shape
    pos = np.asarray(uvd, dtype=np.float64)
    u, _ = clamp_coord(pos[0], w)
    v, _ = clamp_coord(pos[1], h)
    z, _ = clamp_coord(pos[2], d)
    u0 = min(int(np.floor(u)), w - 2) if w > 1 else 0
    v0 = min(int(np.floor(v)), h - 2) if h > 1 else 0
    z0 = min(int(np.floor(z)), d - 2) if d > 1 else 0
    u1, v1, z1 = min(u0 + 1, w - 1), min(v0 + 1, h - 1), min(z0 + 1, d - 1)
    fu, fv, fz = u - u0, v - v0, z - z0
    out = 0.0
    for cv, wv in ((v0, 1 - fv), (v1, fv)):
        for cu, wu in ((u0, 1 - fu), (u1, fu)):
            for cz, wz in ((z0, 1 - fz), (z1, fz)):
                out = out + wv * wu * wz * volume[cv, cu, cz]
    return out


def idw_interpolate(target, neighbors: PointSet, k=3, p=2.0):
    """Inverse-distance-weighted feature at one target coordinate.

    Weights are 1/d^p over the k nearest neighbour points; a neighbour
    within 1e-10 of the target short-circuits to its feature row exactly.
    """
    target = np.asarray(target, dtype=np.float64).reshape(3)
    if neighbors.feats is None or len(neighbors) == 0:
        raise GeometryError("idw needs a non-empty neighbor set with features")
    k_eff = min(k, len(neighbors))
    idx = knn_argsort(target[None, :], neighbors.coords, k_eff)[0]
    d = np.sqrt(np.sum((neighbors.coords[idx] - target) ** 2, axis=1))
    exact = np.nonzero(d < 1e-10)[0]
    if exact.size:
        return neighbors.feats[idx[exact[0]]].copy()
    w = 1.0 / d ** p
    return (w[:, None] * neighbors.feats[idx]).sum(axis=0) / w.sum()


# -- boxes ----------------------------------------------------------------------------


def box_from_array(a) -> Box3D:
    a = np.asarray(a, dtype=np.float64).reshape(7)
    return Box3D(*a.tolist())


CLS_POSITIVE_IOU = 0.6   # strictly above: classification positive
CLS_NEGATIVE_IOU = 0.45  # strictly below: classification negative
REG_ACTIVE_IOU = 0.55    # strictly above: regression supervised


@dataclass
class Assignment:
    cls_label: int        # 1 positive, 0 negative, -1 ignored
    reg_active: bool
    gt_index: int         # best-overlap ground truth, -1 if none
    iou: float


def assign_proposals(boxes, gts, overlap="bev"):
    """Label each proposal against its best-overlap ground truth.

    IoU > 0.6 is a classification positive, < 0.45 negative, in between
    ignored; IoU > 0.55 activates regression.  With no ground truth every
    proposal is negative.
    """
    iou_fn = iou_bev if overlap == "bev" else iou_3d
    out = []
    for box in boxes:
        best_iou, best_j = 0.0, -1
        for j, gt in enumerate(gts):
            v = iou_fn(box, gt)
            if v > best_iou:
                best_iou, best_j = v, j
        if best_iou > CLS_POSITIVE_IOU:
            cls_label = 1
        elif best_iou < CLS_NEGATIVE_IOU:
            cls_label = 0
        else:
            cls_label = -1
        out.append(Assignment(cls_label, best_iou > REG_ACTIVE_IOU, best_j, best_iou))
    return out
