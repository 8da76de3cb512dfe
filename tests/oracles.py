"""Reference implementations that only the tests run.

Each is the plain, obviously-correct form of a faster library kernel:
the full stable argsort kNN, the loop farthest-point sampler, the
sequential ``np.add.at`` scatter, single-position grid reads, the scalar
inverse-distance interpolation, the scalar Sutherland-Hodgman clip and
the per-pair rotated IoU on top of it (``iou_bev_scalar``,
``iou_3d_scalar``), the per-proposal assignment rule, the per-vote box
residual encode and per-row decode, and the
``linear``/``lbr``/``mlp`` layers, the point-attention op ``attend``
(``pos_encoding_chain`` feeding ``attend_chain``) and the differentiable
inverse-distance interpolation (``idw_chain``) as chains of single tape
ops.
The library must match them exactly or within a stated tolerance.
The tape ops ``exp`` and ``sqrt`` live here too: only tests and the
``lbr`` chain run them.  So do the plain forms of the library's
branch-free ReLU and sigmoid, ``relu_where`` and ``sigmoid_masked``,
which those must equal byte for byte; the layer chains use
``relu_where``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pointfuse.boxes import Box3D, normalize_angle
from pointfuse.fusion import _EXACT_D2
from pointfuse.geometry import GeometryError, PointSet
from pointfuse.nn import LBR_NORM_EPS, linear
from pointfuse.tensor import (Tensor, as_tensor, gather_rows, matmul, narrow, reshape, softmax,
                              tmean, tsum)


# -- tape ops no library path runs -------------------------------------------------


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    return Tensor._result(out, (a,), lambda g: (g * out,))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = np.sqrt(a.data)
    return Tensor._result(out, (a,), lambda g: (g * 0.5 / out,))


def relu_where(a) -> Tensor:
    """ReLU as ``np.where(x > 0, x, 0)``, with the gradient masked at 0."""
    a = as_tensor(a)
    mask = a.data > 0.0
    return Tensor._result(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def sigmoid_masked(x: np.ndarray) -> np.ndarray:
    """The sigmoid split by sign through boolean-mask gathers and
    scatters: 1 / (1 + exp(-x)) where x >= 0, exp(x) / (1 + exp(x))
    elsewhere."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ez = np.exp(x[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# -- layers as chains of tape ops ---------------------------------------------------


def linear_chain(x, layer):
    """``nn.linear`` as four tape ops: reshape -> matmul -> add -> reshape."""
    x = as_tensor(x)
    lead = x.data.shape[:-1]
    flat = reshape(x, (-1, layer.c_in))
    out = matmul(flat, layer.weight) + layer.bias
    return reshape(out, lead + (layer.c_out,))


def lbr_chain(x, layer, eps=LBR_NORM_EPS):
    """``nn.lbr`` as fifteen tape ops."""
    x = as_tensor(x)
    lead = x.data.shape[:-1]
    flat = reshape(x, (-1, layer.c_in))
    h = matmul(flat, layer.weight)
    mu = tmean(h, axis=0, keepdims=True)
    centred = h - mu
    var = tmean(centred * centred, axis=0, keepdims=True)
    h = centred / sqrt(var + eps)
    h = h * layer.norm_scale + layer.norm_shift
    h = relu_where(h)
    return reshape(h, lead + (layer.c_out,))


def mlp_chain(x, layer):
    """``nn.mlp`` as three tape ops: linear -> relu -> linear."""
    return linear(relu_where(linear(x, layer.fc1)), layer.fc2)


def group_offsets_chain(coords, groups):
    """Each group member's offset from its centre as three tape ops:
    gather -> reshape -> sub."""
    coords = as_tensor(coords)
    m, d = coords.data.shape
    return gather_rows(coords, groups) - reshape(coords, (m, 1, d))


def pos_encoding_chain(coords, groups, pos_mlp):
    """The positional encoding of ``fusion.attend`` as its chain: the
    group offsets' three ops, then the positional MLP's three."""
    return mlp_chain(group_offsets_chain(coords, groups), pos_mlp)


def attn_pre_chain(qkv, pos, groups, mode):
    """The pre-score of ``fusion.attend`` as seven tape ops: narrow q and
    k, gather k, reshape q, subtract or multiply, add pos."""
    m, c = qkv.data.shape[0], qkv.data.shape[1] // 3
    q = narrow(qkv, 1, 0, c)
    k = narrow(qkv, 1, c, c)
    kg = gather_rows(k, groups)
    qe = reshape(q, (m, 1, c))
    return qe * kg + pos if mode == "multiply" else qe - kg + pos


def attn_pool_chain(logits, qkv, pos, groups):
    """The pooling of ``fusion.attend`` as six tape ops: softmax, narrow
    v, gather v, add pos, multiply, sum over the group."""
    c = qkv.data.shape[1] // 3
    vg = gather_rows(narrow(qkv, 1, 2 * c, c), groups)
    attn = softmax(logits, axis=1)
    return tsum(attn * (vg + pos), axis=1)


def attend_chain(qkv, pos, groups, mode, score_mlp):
    """``fusion.attend`` past its positional encoding pos, as its chain:
    the pre-score, the score MLP's three ops, the pooling."""
    logits = mlp_chain(attn_pre_chain(qkv, pos, groups, mode), score_mlp)
    return attn_pool_chain(logits, qkv, pos, groups)


def idw_chain(target_coords, source_coords, source_feats, idx):
    """``fusion.idw_interpolate`` as its chain of single tape ops."""
    tc = as_tensor(target_coords)
    sc = as_tensor(source_coords)
    sf = as_tensor(source_feats)
    n = tc.data.shape[0]
    k = idx.shape[1]

    diff = gather_rows(sc, idx) - reshape(tc, (n, 1, 3))
    d2 = tsum(diff * diff, axis=2)                       # [n, k]
    exact = d2.data <= _EXACT_D2
    row_exact = exact.any(axis=1)

    # shift coincident entries off zero, then mask their weights away;
    # rows with a coincident source get a constant one-hot instead
    d2_safe = d2 + Tensor(exact.astype(np.float64))
    w = d2_safe ** -1.0
    keep = np.broadcast_to(~row_exact[:, None], exact.shape).astype(np.float64)
    onehot = np.zeros(exact.shape)
    rows = np.flatnonzero(row_exact)
    onehot[rows, np.argmax(exact[rows], axis=1)] = 1.0
    w = w * Tensor(keep) + Tensor(onehot)

    num = tsum(reshape(w, (n, k, 1)) * gather_rows(sf, idx), axis=1)
    den = tsum(w, axis=1, keepdims=True)
    return num / den


def attention_chain(block, coords, feats, groups):
    """``fusion.PointAttention.__call__`` as its 25-node tape-op chain."""
    groups = np.sort(np.asarray(groups), axis=1)
    qkv = matmul(block.qkv_lbr(feats), block.expand)
    pos = pos_encoding_chain(coords, groups, block.pos)
    return block.out_lbr(attend_chain(qkv, pos, groups, block.mode, block.score)) + feats


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


def iou_bev_scalar(a: Box3D, b: Box3D) -> float:
    """Rotated-rectangle IoU in the x-y plane, one clip_convex call."""
    inter = polygon_area(clip_convex(a.bev_corners(), b.bev_corners()))
    return float(np.clip(inter / (a.l * a.w + b.l * b.w - inter), 0.0, 1.0))


def iou_3d_scalar(a: Box3D, b: Box3D) -> float:
    """Volumetric IoU: BEV intersection times vertical overlap."""
    inter_bev = polygon_area(clip_convex(a.bev_corners(), b.bev_corners()))
    z_lo = max(a.z - a.h / 2, b.z - b.h / 2)
    z_hi = min(a.z + a.h / 2, b.z + b.h / 2)
    inter = inter_bev * max(0.0, z_hi - z_lo)
    return float(np.clip(inter / (a.volume + b.volume - inter), 0.0, 1.0))


def box_from_array(a) -> Box3D:
    a = np.asarray(a, dtype=np.float64).reshape(7)
    return Box3D(*a.tolist())


def encode_box(gt: Box3D, vote: np.ndarray, anchor) -> np.ndarray:
    """Residual target for a box against a vote position and class anchor:
    the per-vote form of ``fusion.encode_boxes``."""
    al, aw, ah = anchor
    diag = float(np.hypot(al, aw))
    t = np.empty(8)
    t[0] = (gt.x - vote[0]) / diag
    t[1] = (gt.y - vote[1]) / diag
    t[2] = (gt.z - vote[2]) / ah
    t[3] = np.log(gt.l / al)
    t[4] = np.log(gt.w / aw)
    t[5] = np.log(gt.h / ah)
    t[6] = np.sin(gt.yaw)
    t[7] = np.cos(gt.yaw)
    return t


def decode_box(res: np.ndarray, vote: np.ndarray, anchor) -> Box3D:
    """One residual row back to a box: the per-row form of
    ``ProposalHead.decode_proposals``."""
    al, aw, ah = anchor
    diag = float(np.hypot(al, aw))
    x = vote[0] + res[0] * diag
    y = vote[1] + res[1] * diag
    z = vote[2] + res[2] * ah
    yaw = normalize_angle(float(np.arctan2(res[6], res[7])))
    return Box3D(float(x), float(y), float(z),
                 float(al * np.exp(res[3])), float(aw * np.exp(res[4])),
                 float(ah * np.exp(res[5])), yaw)


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
    iou_fn = iou_bev_scalar if overlap == "bev" else iou_3d_scalar
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
