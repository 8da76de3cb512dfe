"""Two-stream point network: set abstraction with positional attention,
cross-modal feature exchange and the voting proposal head.

Both streams (LiDAR points and lifted pseudo points) run the same
encoder/decoder machinery; they only meet inside CrossFusion blocks.
Neighbour selection (sampling, kNN grouping) routes on raw coordinate
values and carries no gradient; everything downstream of the routing,
including the interpolation weights, is differentiable.  The routing of
a whole stream is computed apart from the blocks (``route_stream``) and
passed in: the raw stream's coordinates are fixed per scene, so a
prepared scene builds its raw routing once and reuses it on every step,
while the pseudo stream is routed on every forward.

Group reductions sort member indices ascending first, so outputs are
bitwise identical under any permutation of a group's members.

The inverse-distance interpolation and the attention between its layers
(positional encoding, score path and pooling) are one tape op each.
Each keeps only the arrays its backward reads and recomputes the rest,
with the forward's expressions, from its inputs; the attention op also
lets go of what it kept once its backward has run.  ``tests/oracles.py``
keeps the op chains they replace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boxes import Box3D, normalize_angle
from .geometry import farthest_point_sampling, knn_group
from .nn import LbrLayer, Mlp, Rng, _mlp_backward, _mlp_forward, _mlp_hidden, init_weight
from .tensor import (ShapeError, Tensor, _finite_check, _row_index, _scatter_rows, _unbroadcast,
                     as_tensor, concat, gather_rows, matmul, maxpool_group, reshape,
                     sigmoid, softmax, transpose, tsum)


class FusionError(ValueError):
    """Inconsistent shapes or modes in the fusion network."""


# -- differentiable inverse-distance interpolation -------------------------------

_EXACT_D2 = 1e-20    # squared distance below this counts as coincident


def idw_interpolate(target_coords, source_coords, source_feats, idx: np.ndarray) -> Tensor:
    """Interpolate source features at target positions, weights 1/d^2 over
    each target's neighbours ``idx`` [n, k] (its k nearest sources, as
    ``knn_group`` lists them).

    Neighbour choice is routing (no gradient); the weights themselves are
    differentiable in both coordinate sets.  A target sitting exactly on
    a source copies that source's features (first listed wins), with no
    coordinate gradient for that row.

    One tape op with parents (target_coords, source_coords,
    source_feats).  It runs the numpy expressions of the chain gather
    the sources -> offsets -> squared distances -> weights -> gather the
    features -> weighted sum / weight sum in that order, and its backward
    runs the chain's vjps, so values and gradients equal the chain's
    (``tests/oracles.py`` keeps it).  It keeps the [n, k, 3] offsets and
    the [n, k] shifted squared distances and weights, and gathers
    ``source_feats[idx]`` again in backward instead of keeping it.
    """
    tc, sc, sf = as_tensor(target_coords), as_tensor(source_coords), as_tensor(source_feats)
    n, m = tc.data.shape[0], sc.data.shape[0]
    idx = _row_index(idx, m, "idw_interpolate")
    if idx.ndim != 2 or idx.shape[0] != n or sf.data.ndim != 2 or sf.data.shape[0] != m:
        raise ShapeError(f"idw_interpolate needs idx [{n}, k] and feats [{m}, c], got "
                         f"{idx.shape} and {sf.data.shape}")
    k = idx.shape[1]
    e = -1.0                                             # the weights' power of d^2
    parents = (tc, sc, sf)
    check = _finite_check("idw_interpolate", parents)

    diff = sc.data[idx] - tc.data.reshape((n, 1, 3))
    check(diff)
    sq = diff * diff
    check(sq)
    d2 = sq.sum(axis=(2,))                               # [n, k]
    del sq
    check(d2)
    exact = d2 <= _EXACT_D2
    row_exact = exact.any(axis=1)

    # shift coincident entries off zero, then mask their weights away;
    # rows with a coincident source get a constant one-hot instead
    d2_safe = d2 + exact.astype(np.float64)
    del d2
    keep = (~row_exact[:, None]).astype(np.float64)
    onehot = np.zeros(exact.shape)
    rows = np.flatnonzero(row_exact)
    onehot[rows, np.argmax(exact[rows], axis=1)] = 1.0
    w = d2_safe ** e
    check(w)
    w = w * keep + onehot
    num = w.reshape((n, k, 1)) * sf.data[idx]
    check(num)
    num = num.sum(axis=(1,))
    check(num)
    den = w.sum(axis=(1,), keepdims=True)
    out = num / den
    coords_grad = tc.requires_grad or sc.requires_grad
    if not coords_grad:
        d2_safe = keep = diff = None

    def grads_of(g):
        grads = [None] * len(parents)
        g_num = np.expand_dims(g / den, 1)               # [n, 1, c]
        if sf.requires_grad:
            grads[2] = _scatter_rows(idx, g_num * w.reshape((n, k, 1)), sf.data.shape)
        if not coords_grad:
            return grads
        # the weights' two consumers: the weighted sum, then the weight sum
        feats = sf.data[idx]
        num = (w.reshape((n, k, 1)) * feats).sum(axis=(1,))
        g_den = (-g * num / (den * den)).sum(axis=(1,), keepdims=True)
        g_w = (g_num * feats).sum(axis=(2,)) + g_den
        del feats, num
        g_d2 = g_w * keep * e * d2_safe ** (e - 1.0)
        g_sq = np.expand_dims(g_d2, 2) * diff
        g_diff = g_sq + g_sq                             # both factors of diff * diff
        if tc.requires_grad:
            grads[0] = (-g_diff).sum(axis=(1,)).reshape(tc.data.shape)
        if sc.requires_grad:
            grads[1] = _scatter_rows(idx, g_diff, sc.data.shape)
        return grads

    return Tensor._result(out, parents, grads_of)


# -- grouped positional attention -------------------------------------------------
#
# The attention between its layers is one tape op.  It runs the numpy
# expressions of the op chain it stands for in the chain's order, and its
# backward runs that chain's vjps once per upstream gradient, with the
# same sums and ``_scatter_rows`` scatters, so values and gradients equal
# the chain's bit for bit (``tests/oracles.py`` keeps the chain).  Like
# the chain, it raises NonFiniteError at the first stage that can turn
# non-finite.  Its two MLPs run the MLP kernel in ``nn``.


def attend(qkv, coords, groups, mode: str, pos_mlp: Mlp, score_mlp: Mlp) -> Tensor:
    """Grouped vector attention -> [m, c], with q, k and v the thirds of
    qkv [m, 3c] and the positional encoding pos = pos_mlp(coords[groups]
    - coords[:, None]) [m, L, c]: the pre-score q - k[groups] + pos
    ("subtract") or q * k[groups] + pos ("multiply"), the score MLP, a
    softmax over the group axis, then sum(attn * (v[groups] + pos),
    axis=1).  The chain: gather coords, reshape, subtract, then the
    positional MLP (linear -> relu -> linear); narrow q and k, gather k,
    reshape q, subtract or multiply, add pos; the score MLP; softmax,
    narrow v, gather v, add pos, multiply, sum.

    One tape op with parents (qkv, coords, coords, then fc1.weight,
    fc1.bias, fc2.weight and fc2.bias of the positional MLP and of the
    score MLP).  coords is listed twice, so its two gradients enter
    backward's sums in the chain's order: first the gather's scatter-add,
    then the centring's sum over the group.  It keeps pos, the score
    MLP's hidden layer and attn, plus k[groups] in multiply mode, until
    its backward has run; a later backward over the same graph rebuilds
    them with ``build``, the forward's own body.  Backward recomputes the
    pre-score, v[groups] + pos, the offsets and the positional hidden
    layer (a cheap K = 3 product).  The gradients of qkv and pos are
    each the sum of the pooling's part and the pre-score's part, the two
    parts the chain's ``flow`` adds.
    """
    qkv, coords = as_tensor(qkv), as_tensor(coords)
    pfc1, pfc2 = pos_mlp.fc1, pos_mlp.fc2
    fc1, fc2 = score_mlp.fc1, score_mlp.fc2
    m, d, c = qkv.data.shape[0], coords.data.shape[-1], fc1.c_in
    if (qkv.data.shape != (m, 3 * c) or coords.data.shape != (m, d)
            or (pfc1.c_in, pfc2.c_out, fc2.c_out) != (d, c, c)):
        raise ShapeError(f"attend needs qkv [m, 3c], coords [m, d], a d -> c positional MLP "
                         f"and a c -> c score MLP, got qkv {qkv.data.shape}, coords "
                         f"{coords.data.shape}, {pfc1.c_in} -> {pfc2.c_out} and {c} -> {fc2.c_out}")
    groups = _row_index(groups, m, "attend")
    if groups.ndim != 2 or groups.shape[0] != m:
        raise ShapeError(f"attend needs groups [{m}, L], got {groups.shape}")
    pos_params = (pfc1.weight, pfc1.bias, pfc2.weight, pfc2.bias)
    parents = (qkv, coords, coords) + pos_params + (fc1.weight, fc1.bias, fc2.weight, fc2.bias)
    check = _finite_check("attend", parents)
    multiply = mode == "multiply"
    qe = qkv.data[:, :c].reshape((m, 1, c))

    def offsets():                                       # one row per group member
        return (coords.data[groups] - coords.data.reshape((m, 1, d))).reshape((-1, d))

    def scores(kg):                                      # q against k, before pos
        return qe * kg if multiply else qe - qkv.data[:, c:2 * c][groups]

    def values(pos):
        vp = qkv.data[:, 2 * c:3 * c][groups]
        vp += pos
        return vp

    def pre_rows(pos, kg):                               # the score MLP's input rows
        pre = scores(kg)
        pre += pos
        return pre.reshape((-1, c))

    def build():
        """pos, the score MLP's hidden layer, attn and k[groups] (None
        unless multiply): what backward reads, by the forward's body."""
        kg = qkv.data[:, c:2 * c][groups] if multiply else None
        flat = offsets()
        check(flat)
        pos = _mlp_forward(flat, pos_mlp, check)[1].reshape(groups.shape + (c,))
        check(pos)
        # in-place steps below run the chain's operations on the same
        # values, without the chain's temporaries
        pre = scores(kg)
        check(pre)
        pre += pos
        check(pre)
        hidden, attn = _mlp_forward(pre.reshape((-1, c)), score_mlp, check)
        del pre
        attn = attn.reshape(groups.shape + (c,))
        check(attn)
        attn -= attn.max(axis=1, keepdims=True)
        np.exp(attn, out=attn)
        attn /= attn.sum(axis=1, keepdims=True)
        return pos, hidden, attn, kg

    kept = [build()]                                     # taken by the first backward
    pos, _, attn, _ = kept[0]
    vp = values(pos)
    check(vp)
    vp *= attn
    out = vp.sum(axis=(1,))
    del vp
    pos_grad = coords.requires_grad or any(p.requires_grad for p in pos_params)
    pre_grad = qkv.requires_grad or pos_grad

    def grads_of(g):
        grads = [None] * len(parents)
        # the first backward takes the kept arrays, so they go when it is
        # done with them; a later one rebuilds them bit for bit
        pos, hidden, attn, kg = kept.pop() if kept else build()
        # the pooling: multiply, sum over the group, softmax, in place on
        # v[groups] + pos
        g = np.expand_dims(g, 1)
        g_logits = values(pos)
        g_logits *= g                                    # g_attn
        inner = (g_logits * attn).sum(axis=1, keepdims=True)
        g_logits -= inner
        g_logits *= attn
        # the score MLP, then the pre-score; each input's pooling part
        # comes first, as in flow
        g_pre = _mlp_backward(g_logits.reshape((-1, c)), hidden, lambda: pre_rows(pos, kg),
                              score_mlp, pre_grad, grads, 7)
        del g_logits, hidden, pos
        if g_pre is None:
            return grads
        g_pre = g_pre.reshape(attn.shape)
        g_vp = g * attn
        if qkv.requires_grad:
            if multiply:
                g_q, g_k = _unbroadcast(g_pre * kg, qe.shape), g_pre * qe
            else:
                g_q, g_k = _unbroadcast(g_pre, qe.shape), -g_pre
            # each third's one part plus the +0.0 of the other, as the
            # chain's sum of the two parts gives
            g_qkv = np.empty_like(qkv.data)
            g_qkv[:, :c] = g_q.reshape((m, c))
            g_qkv[:, c:2 * c] = _scatter_rows(groups, g_k, (m, c))
            g_qkv[:, 2 * c:] = _scatter_rows(groups, g_vp, (m, c))
            g_qkv += 0.0
            grads[0] = g_qkv
            del g_q, g_k
        if not pos_grad:
            return grads
        # the positional encoding, from pos's two parts
        g_vp += g_pre
        del g_pre
        flat = offsets()
        g_off = _mlp_backward(g_vp.reshape((-1, c)), _mlp_hidden(flat, pfc1, check), lambda: flat,
                              pos_mlp, coords.requires_grad, grads, 3)
        if g_off is not None:
            g_off = g_off.reshape(groups.shape + (d,))
            grads[1] = _scatter_rows(groups, g_off, coords.data.shape)
            grads[2] = (-g_off).sum(axis=1)
        return grads

    return Tensor._result(out, parents, grads_of)


class PointAttention:
    """Per-channel attention over fixed-size neighbour groups.

    Features are re-embedded (LBR then a learned 3C expansion) into
    query/key/value; a positional encoding of coordinate differences is
    added to both the score path and the values.  mode picks how query
    and key meet: "subtract" (q - k + pos) or "multiply" (q * k + pos).
    The block output keeps its input as a residual.  A call records five
    tape nodes: two LBRs, the expansion, the attention op above and the
    residual add.
    """

    def __init__(self, rng: Rng, channels: int, mode: str = "subtract"):
        if mode not in ("subtract", "multiply"):
            raise FusionError(f"unknown attention mode {mode!r}")
        self.channels = channels
        self.mode = mode
        self.qkv_lbr = LbrLayer(rng.derive("qkv_lbr"), channels, channels)
        self.expand = init_weight(rng.derive("expand"), channels, 3 * channels)
        self.pos = Mlp(rng.derive("pos"), 3, channels, channels)
        self.score = Mlp(rng.derive("score"), channels, channels, channels)
        self.out_lbr = LbrLayer(rng.derive("out_lbr"), channels, channels)

    def __call__(self, coords: Tensor, feats: Tensor, groups: np.ndarray) -> Tensor:
        m, c = feats.data.shape
        if c != self.channels:
            raise FusionError(f"attention expects {self.channels} channels, got {c}")
        if groups.shape[0] != m:
            raise FusionError(f"groups rows {groups.shape[0]} != points {m}")
        groups = np.sort(np.asarray(groups), axis=1)    # canonical reduction order

        qkv = matmul(self.qkv_lbr(feats), self.expand)
        attended = attend(qkv, coords, groups, self.mode, self.pos, self.score)
        return self.out_lbr(attended) + feats


# -- routing --------------------------------------------------------------------------
#
# Which points a block samples, groups and interpolates from depends only
# on coordinate values, so it is computed apart from the blocks and passed
# in.  The raw stream's coordinates are fixed per scene, so its routing is
# built once per scene (pipeline.PreparedScene.raw_route); the pseudo
# stream's move with every step and are routed on every forward.

IDW_K = 3     # neighbours per interpolated point


@dataclass(frozen=True)
class DownRoute:
    """Routing of one TransitionDown over N input points."""

    centers: np.ndarray   # [m] farthest-point picks among the inputs
    neigh: np.ndarray     # [m, L] kNN of each centre among the inputs, ascending index
    groups: np.ndarray    # [m, L] kNN of each centre among the centres


@dataclass(frozen=True)
class UpRoute:
    """Routing of one decoder step from a coarse level to a skip level."""

    interp: np.ndarray          # [n, IDW_K] kNN of each skip point among the coarse points
    groups: np.ndarray | None   # [n, L] kNN among the skip points; None without attention


@dataclass(frozen=True)
class StreamRoute:
    down: tuple           # DownRoute per encoder stage
    up: tuple             # UpRoute per decoder step, coarsest first


def route_down(coords: np.ndarray, m_out: int, l_group: int) -> DownRoute:
    n = coords.shape[0]
    if not l_group <= m_out < n:
        raise FusionError(f"need l_group <= m_out < N, got {l_group}, {m_out}, {n}")
    centers = farthest_point_sampling(coords, m_out)
    down = coords[centers]
    neigh = np.sort(knn_group(down, coords, l_group), axis=1)
    return DownRoute(centers, neigh, knn_group(down, down, l_group))


def route_up(coarse: np.ndarray, skip: np.ndarray, l_group: int, attention: bool) -> UpRoute:
    groups = knn_group(skip, skip, l_group) if attention else None
    return UpRoute(knn_group(skip, coarse, IDW_K), groups)


def route_stream(coords: np.ndarray, stages, l_group: int, attention_up: bool) -> StreamRoute:
    """Routing of a whole stream: the encoder stages down from coords,
    then the decoder steps back up through the same levels."""
    levels = [coords]
    down = []
    for m_out in stages:
        down.append(route_down(levels[-1], m_out, l_group))
        levels.append(levels[-1][down[-1].centers])
    up = [route_up(levels[-1 - i], levels[-2 - i], l_group, attention_up)
          for i in range(len(stages))]
    return StreamRoute(tuple(down), tuple(up))


# -- encoder / decoder blocks -----------------------------------------------------


class TransitionDown:
    """Downsample a point set and widen its features.

    Farthest-point sampling picks the survivors; each keeps the max over
    an LBR embedding of its k nearest originals, then attends within its
    neighbourhood among the survivors.  The picks and neighbourhoods come
    in as a ``route_down`` result.
    """

    def __init__(self, rng: Rng, c_in: int, c_out: int, m_out: int, l_group: int,
                 mode: str = "subtract"):
        self.c_in = c_in
        self.m_out = m_out
        self.l_group = l_group
        self.local = LbrLayer(rng.derive("local"), c_in, c_out)
        self.attn = PointAttention(rng.derive("attn"), c_out, mode)

    def __call__(self, coords: Tensor, feats: Tensor, route: DownRoute):
        n = coords.data.shape[0]
        if feats.data.shape != (n, self.c_in):
            raise FusionError(f"expected feats [{n}, {self.c_in}], got {feats.data.shape}")
        if route.neigh.shape != (self.m_out, self.l_group):
            raise FusionError(f"route groups {route.neigh.shape}, block keeps "
                              f"[{self.m_out}, {self.l_group}]")
        local = maxpool_group(self.local(gather_rows(feats, route.neigh)))
        down_coords = gather_rows(coords, route.centers)
        return down_coords, self.attn(down_coords, local, route.groups)


class TransitionUp:
    """Carry decoder features up to a skip level.

    Coarse features are distance-interpolated at the skip positions,
    merged with an LBR embedding of the skip features, then refined by
    attention at the skip resolution.  Width stays at the coarse width.
    """

    def __init__(self, rng: Rng, c_coarse: int, c_skip: int, l_group: int,
                 mode: str = "subtract"):
        self.c_coarse = c_coarse
        self.c_skip = c_skip
        self.l_group = l_group
        self.skip = LbrLayer(rng.derive("skip"), c_skip, c_coarse)
        self.attn = PointAttention(rng.derive("attn"), c_coarse, mode)

    def __call__(self, coarse_coords: Tensor, coarse_feats: Tensor,
                 skip_coords: Tensor, skip_feats: Tensor, route: UpRoute) -> Tensor:
        if coarse_feats.data.shape[1] != self.c_coarse or skip_feats.data.shape[1] != self.c_skip:
            raise FusionError("transition-up channel mismatch")
        if route.groups.shape != (skip_coords.data.shape[0], self.l_group):
            raise FusionError(f"route groups {route.groups.shape}, block attends over "
                              f"[{skip_coords.data.shape[0]}, {self.l_group}]")
        merged = (idw_interpolate(skip_coords, coarse_coords, coarse_feats, route.interp)
                  + self.skip(skip_feats))
        return self.attn(skip_coords, merged, route.groups)


class FeatureProp:
    """Plain interpolation decoder step: upsample, concat skip, LBR stack."""

    def __init__(self, rng: Rng, c_coarse: int, c_skip: int, c_out: int):
        self.c_coarse = c_coarse
        self.c_skip = c_skip
        self.lbr1 = LbrLayer(rng.derive("lbr1"), c_coarse + c_skip, c_out)
        self.lbr2 = LbrLayer(rng.derive("lbr2"), c_out, c_out)

    def __call__(self, coarse_coords: Tensor, coarse_feats: Tensor,
                 skip_coords: Tensor, skip_feats: Tensor, route: UpRoute) -> Tensor:
        if coarse_feats.data.shape[1] != self.c_coarse or skip_feats.data.shape[1] != self.c_skip:
            raise FusionError("feature-prop channel mismatch")
        upsampled = idw_interpolate(skip_coords, coarse_coords, coarse_feats, route.interp)
        return self.lbr2(self.lbr1(concat([upsampled, skip_feats], axis=1)))


# -- cross-modal fusion -----------------------------------------------------------


def _qkv_blocks(rng: Rng, c_in: int, c: int) -> list[Tensor]:
    """One stream's q, k and v weights [c_in, c], cut from one [c_in, 3c] draw."""
    return [Tensor(block.copy(), requires_grad=True)
            for block in np.split(init_weight(rng, c_in, 3 * c).data, 3, axis=1)]


class CrossFusion:
    """Bidirectional feature exchange between the two streams.

    Each side queries the other: attention rows mix the other side's
    values, a learned mixer reshapes the raw score matrix first, and the
    attended summary is combined with the side's own projection
    (subtract / add / concat) before a final LBR.  Both directions run
    the exact same code path with arguments swapped, so mirrored
    parameters give bitwise-mirrored outputs.  The raw direction reads
    k_raw, q_pseudo and v_pseudo, the pseudo direction the other three.
    The projections have no bias: the final LBR's centring would cancel it.

    A one-way link runs the raw direction only, for a link whose pseudo
    output nothing reads: it builds no q_raw, v_raw, k_pseudo or
    pseudo-side projection, mixer or output LBR, passes f_pseudo through
    unchanged and reports only ``attn_raw``.  It never assigns those
    attributes, so ``nn.named_params`` lists none of them.
    """

    def __init__(self, rng: Rng, c_raw: int, c_pseudo: int, c_embed: int,
                 n_raw: int, n_pseudo: int, combine: str = "subtract",
                 mode: str = "multiply", one_way: bool = False):
        if combine not in ("subtract", "add", "concat"):
            raise FusionError(f"unknown combine mode {combine!r}")
        if mode not in ("subtract", "multiply"):
            raise FusionError(f"unknown attention mode {mode!r}")
        self.n_raw = n_raw
        self.n_pseudo = n_pseudo
        self.combine = combine
        self.mode = mode
        self.one_way = one_way
        merged = 2 * c_embed if combine == "concat" else c_embed
        q_raw, self.k_raw, v_raw = _qkv_blocks(rng.derive("w_raw"), c_raw, c_embed)
        self.q_pseudo, k_pseudo, self.v_pseudo = _qkv_blocks(rng.derive("w_pseudo"),
                                                             c_pseudo, c_embed)
        self.proj_raw = init_weight(rng.derive("proj_raw"), c_raw, c_embed)
        self.mix_raw = Mlp(rng.derive("mix_raw"), n_pseudo, n_pseudo, n_pseudo)
        self.out_raw = LbrLayer(rng.derive("out_raw"), merged, c_embed)
        if not one_way:
            # each layer draws from its own derived stream, so skipping
            # these leaves every other initial weight as it was
            self.q_raw, self.v_raw, self.k_pseudo = q_raw, v_raw, k_pseudo
            self.proj_pseudo = init_weight(rng.derive("proj_pseudo"), c_pseudo, c_embed)
            self.mix_pseudo = Mlp(rng.derive("mix_pseudo"), n_raw, n_raw, n_raw)
            self.out_pseudo = LbrLayer(rng.derive("out_pseudo"), merged, c_embed)

    def _enhance(self, f_self, f_other, k_self, q_other, v_other, proj, mix, out_lbr):
        k_self, q_other = matmul(f_self, k_self), matmul(f_other, q_other)
        if self.mode == "multiply":
            scores = matmul(k_self, transpose(q_other, (1, 0)))
        else:
            scores = tsum(k_self, axis=1, keepdims=True) - reshape(tsum(q_other, axis=1), (1, -1))
        attn = softmax(mix(scores), axis=1)
        attended = matmul(attn, matmul(f_other, v_other))
        base = matmul(f_self, proj)
        if self.combine == "subtract":
            merged = base - attended
        elif self.combine == "add":
            merged = base + attended
        else:
            merged = concat([base, attended], axis=1)
        return out_lbr(merged), attn

    def __call__(self, f_raw: Tensor, f_pseudo: Tensor):
        if f_raw.data.shape[0] != self.n_raw or f_pseudo.data.shape[0] != self.n_pseudo:
            raise FusionError(
                f"fusion sized for {self.n_raw}/{self.n_pseudo} points, "
                f"got {f_raw.data.shape[0]}/{f_pseudo.data.shape[0]}")
        enh_raw, a_raw = self._enhance(f_raw, f_pseudo, self.k_raw, self.q_pseudo,
                                       self.v_pseudo, self.proj_raw, self.mix_raw, self.out_raw)
        if self.one_way:
            return enh_raw, f_pseudo, {"attn_raw": a_raw.data}
        enh_pseudo, a_pseudo = self._enhance(f_pseudo, f_raw, self.k_pseudo, self.q_raw,
                                             self.v_raw, self.proj_pseudo, self.mix_pseudo,
                                             self.out_pseudo)
        return enh_raw, enh_pseudo, {"attn_raw": a_raw.data, "attn_pseudo": a_pseudo.data}


# -- the full two-stream backbone ---------------------------------------------------

RAW_IN_CHANNELS = 1    # the raw stream's input features: the LiDAR intensity


class TwoStreamNetwork:
    """Lockstep encoders over both point sets, optional per-stage fusion
    links, mirrored decoders and an optional final fusion.

    The raw stream decodes through attention transitions, the pseudo
    stream through plain feature propagation.  Output width is the last
    stage width for both streams regardless of which links are enabled.
    The final fusion is one-way: the head reads only the raw output, so
    the pseudo output is the pseudo decoder's.  The stage links stay
    two-way, since both of their outputs feed the next stage.
    """

    def __init__(self, cfg, rng: Rng):
        cfg.validate()
        self.cfg = cfg
        sc = cfg.stage_channels
        self.raw_down = []
        self.pseudo_down = []
        self.link = []
        c_raw, c_pseudo = RAW_IN_CHANNELS, cfg.feature_channels
        for k in range(len(sc)):
            self.raw_down.append(TransitionDown(
                rng.derive(f"raw_down{k}"), c_raw, sc[k], cfg.raw_stages[k],
                cfg.l_group, cfg.attn_down))
            self.pseudo_down.append(TransitionDown(
                rng.derive(f"pseudo_down{k}"), c_pseudo, sc[k], cfg.pseudo_stages[k],
                cfg.l_group, cfg.attn_down))
            if cfg.pft_enabled:
                self.link.append(CrossFusion(
                    rng.derive(f"link{k}"), sc[k], sc[k], sc[k],
                    cfg.raw_stages[k], cfg.pseudo_stages[k],
                    cfg.combine_mode, cfg.attn_fusion))
            else:
                self.link.append(None)
            c_raw = c_pseudo = sc[k]

        width = sc[-1]
        raw_skips = [RAW_IN_CHANNELS] + list(sc[:-1])
        pseudo_skips = [cfg.feature_channels] + list(sc[:-1])
        self.raw_up = []
        self.pseudo_up = []
        for i in range(len(sc)):
            c_coarse = sc[-1] if i == 0 else width
            self.raw_up.append(TransitionUp(
                rng.derive(f"raw_up{i}"), c_coarse, raw_skips[-1 - i],
                cfg.l_group, cfg.attn_up))
            self.pseudo_up.append(FeatureProp(
                rng.derive(f"pseudo_up{i}"), c_coarse, pseudo_skips[-1 - i], width))
        self.final_link = None
        if cfg.pft_final:
            self.final_link = CrossFusion(
                rng.derive("final_link"), width, width, width,
                cfg.n_raw, cfg.n_pseudo, cfg.combine_mode, cfg.attn_fusion, one_way=True)
        self.width = width

    def route_raw(self, coords: np.ndarray) -> StreamRoute:
        """Routing of the raw stream at coords [n_raw, 3]."""
        return route_stream(coords, self.cfg.raw_stages, self.cfg.l_group, attention_up=True)

    def __call__(self, raw_coords, raw_feats, pseudo_coords, pseudo_feats, raw_route: StreamRoute):
        """raw_route is ``route_raw(raw_coords)``, which callers build once
        per point set; the pseudo stream is routed here on every call."""
        cfg = self.cfg
        rc, rf = as_tensor(raw_coords), as_tensor(raw_feats)
        pc, pf = as_tensor(pseudo_coords), as_tensor(pseudo_feats)
        if rf.data.shape != (cfg.n_raw, RAW_IN_CHANNELS):
            raise FusionError(f"raw stream expects [{cfg.n_raw}, {RAW_IN_CHANNELS}], got {rf.data.shape}")
        if pf.data.shape != (cfg.n_pseudo, cfg.feature_channels):
            raise FusionError(f"pseudo stream expects [{cfg.n_pseudo}, {cfg.feature_channels}], got {pf.data.shape}")
        pseudo_route = route_stream(pc.data, cfg.pseudo_stages, cfg.l_group, attention_up=False)

        aux = {"links": []}
        r_skips = [(rc, rf)]
        p_skips = [(pc, pf)]
        for k in range(len(cfg.stage_channels)):
            rc, rf = self.raw_down[k](rc, rf, raw_route.down[k])
            pc, pf = self.pseudo_down[k](pc, pf, pseudo_route.down[k])
            if self.link[k] is not None:
                rf, pf, info = self.link[k](rf, pf)
                aux["links"].append(info)
            r_skips.append((rc, rf))
            p_skips.append((pc, pf))

        rc, rf = r_skips[-1]
        pc, pf = p_skips[-1]
        for i in range(len(self.raw_up)):
            sc_r, sf_r = r_skips[-2 - i]
            rf = self.raw_up[i](rc, rf, sc_r, sf_r, raw_route.up[i])
            rc = sc_r
            sc_p, sf_p = p_skips[-2 - i]
            pf = self.pseudo_up[i](pc, pf, sc_p, sf_p, pseudo_route.up[i])
            pc = sc_p

        if self.final_link is not None:
            rf, pf, info = self.final_link(rf, pf)
            aux["final"] = info
        return rf, pf, aux


# -- proposal head --------------------------------------------------------------


@dataclass
class RpnOutput:
    votes: Tensor       # [N, 3] shifted coordinates, gradients intact
    cls_prob: Tensor    # [N, K] per-class sigmoid scores
    reg: Tensor         # [N, 8] box residuals


@dataclass
class ProposalSet:
    boxes: list         # Box3D, decoded
    scores: np.ndarray  # [P]
    classes: list       # class names, len P
    indices: np.ndarray # [P] row in the head input each proposal came from


def encode_boxes(gt: Box3D, votes: np.ndarray, anchor) -> np.ndarray:
    """Residual targets [N, 8] for one box against many votes [N, 3].

    Offsets are scaled by the anchor's ground diagonal (height for z),
    sizes are log ratios and yaw is its (sin, cos) pair.  Each row equals
    the per-vote oracle ``encode_box`` (``tests/oracles.py``) bit for bit.
    """
    al, aw, ah = anchor
    diag = float(np.hypot(al, aw))
    t = np.empty((votes.shape[0], 8))
    t[:, 0] = (gt.x - votes[:, 0]) / diag
    t[:, 1] = (gt.y - votes[:, 1]) / diag
    t[:, 2] = (gt.z - votes[:, 2]) / ah
    t[:, 3:] = (np.log(gt.l / al), np.log(gt.w / aw), np.log(gt.h / ah),
                np.sin(gt.yaw), np.cos(gt.yaw))
    return t


class ProposalHead:
    """Vote-then-classify detection head.

    Each point votes a center offset; class scores and box residuals are
    read from the vote position concatenated with the point's features.
    """

    def __init__(self, rng: Rng, c_in: int, classes, anchors: dict,
                 vote_hidden: int = 64, head_hidden: int = 64):
        self.c_in = c_in
        self.classes = tuple(classes)
        self.anchors = dict(anchors)
        self.vote = Mlp(rng.derive("vote"), c_in, vote_hidden, 3)
        self.cls = Mlp(rng.derive("cls"), c_in + 3, head_hidden, len(self.classes))
        self.reg = Mlp(rng.derive("reg"), c_in + 3, head_hidden, 8)

    def __call__(self, coords, feats) -> RpnOutput:
        coords = as_tensor(coords)
        feats = as_tensor(feats)
        if feats.data.shape[1] != self.c_in:
            raise FusionError(f"head expects {self.c_in} channels, got {feats.data.shape[1]}")
        votes = coords + self.vote(feats)
        joint = concat([votes, feats], axis=1)
        cls_prob = sigmoid(self.cls(joint))
        reg = self.reg(joint)
        return RpnOutput(votes, cls_prob, reg)

    def decode_proposals(self, out: RpnOutput, score_threshold: float) -> ProposalSet:
        """Threshold by best class score and decode boxes (no gradients).

        Decoding inverts encode_boxes over all kept rows at once; each box
        equals the per-row oracle ``decode_box`` (``tests/oracles.py``) bit
        for bit.
        """
        probs = out.cls_prob.data
        best = np.argmax(probs, axis=1)
        score = probs[np.arange(len(probs)), best]
        keep = np.flatnonzero(score >= score_threshold)
        # per class: anchor l, w, h and the ground diagonal
        anchor = np.array([(*self.anchors[k], float(np.hypot(*self.anchors[k][:2])))
                           for k in self.classes])[best[keep]]
        al, aw, ah, diag = anchor.T
        reg, votes = out.reg.data[keep], out.votes.data[keep]
        cols = (votes[:, 0] + reg[:, 0] * diag, votes[:, 1] + reg[:, 1] * diag,
                votes[:, 2] + reg[:, 2] * ah, al * np.exp(reg[:, 3]), aw * np.exp(reg[:, 4]),
                ah * np.exp(reg[:, 5]), np.arctan2(reg[:, 6], reg[:, 7]))
        boxes = [Box3D(x, y, z, l, w, h, normalize_angle(yaw))
                 for x, y, z, l, w, h, yaw in zip(*(c.tolist() for c in cols))]
        return ProposalSet(boxes, score[keep], [self.classes[b] for b in best[keep]], keep)
