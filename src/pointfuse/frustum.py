"""Lifting image evidence into 3D pseudo points.

The image encoder is a small stack of strided patch-linear blocks whose
trunk feeds three heads: a per-cell feature vector, a depth distribution
over LID bins plus an in-bin residual, and a 2-vector keypoint offset.
Softmaxed depth weights times the feature vector give a frustum volume;
foreground LiDAR points pick (optionally offset-shifted) pixels, the
depth head turns each pixel into a metric depth, and trilinear reads of
the frustum give the pseudo-point features.  Those reads go through
``tensor.frustum_sample``, which forms only the 8 corner values of each
read from the depth weights and the feature grid and never builds the
[H_F, W_F, D, C] volume; ``build_frustum`` builds it, as the oracle the
tests and ``pointfuse check`` compare against.

Gradients flow through every continuous quantity: frustum values,
offsets, residuals and the resulting sample positions.  The only
non-differentiable joints are genuine routing decisions (foreground
selection, farthest-point sampling and the argmax depth bin).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .geometry import Calibration, LidBinning, PointSet, farthest_point_sampling
from .nn import LbrLayer, LinearLayer, Rng
from .tensor import Tensor


class FrustumError(ValueError):
    """Configuration or input violates a frustum-lift contract."""


@dataclass
class ImageFeatureGrid:
    feats: Tensor          # [H_F, W_F, C]
    stride: int            # image pixels per feature cell


@dataclass
class DepthPrediction:
    bin_logits: Tensor     # [H_F, W_F, D]
    residuals: Tensor      # [H_F, W_F, D], values in (0, 1)


@dataclass
class OffsetGrid:
    offsets: Tensor        # [H_F, W_F, 2] keypoint shifts in image pixels


@dataclass
class FrustumGrid:
    feats: Tensor          # [H_F, W_F, D, C]
    stride: int
    binning: LidBinning


@dataclass
class PseudoPointSet:
    """Image-derived 3D points.

    coords / feats stay on the tape; pixel_uv and source_depth are the
    plain-number provenance: coords always equals the lift of
    (pixel_uv, source_depth) back through the calibration.
    """

    coords: Tensor               # [M, 3] LiDAR frame
    feats: Tensor                # [M, C]
    pixel_uv: np.ndarray         # [M, 2] image pixels actually read
    source_depth: np.ndarray     # [M] decoded projective depth
    source_indices: np.ndarray   # [M] indices into the input point set
    clamped: int = 0             # pixels pushed back inside the image

    def __len__(self):
        return self.coords.data.shape[0]


def space_to_depth(x: Tensor, p: int) -> Tensor:
    """[H, W, C] -> [H/p, W/p, p*p*C] by folding p x p patches into channels."""
    h, w, c = x.data.shape
    if h % p or w % p:
        raise FrustumError(f"spatial dims {h}x{w} not divisible by patch {p}")
    x = T.reshape(x, (h // p, p, w // p, p, c))
    x = T.transpose(x, (0, 2, 1, 3, 4))
    return T.reshape(x, (h // p, w // p, p * p * c))


class ImageEncoder:
    """Strided patch-linear trunk with feature / depth / offset heads."""

    def __init__(self, rng: Rng, in_channels: int = 3,
                 block_channels=(8, 16, 32), strides=(2, 2, 1),
                 feature_channels: int = 16, depth_bins: int = 80,
                 binning: LidBinning | None = None):
        if len(block_channels) != len(strides):
            raise FrustumError("block_channels and strides must align")
        self.strides = tuple(int(s) for s in strides)
        self.stride = int(np.prod(self.strides))
        self.feature_channels = feature_channels
        self.depth_bins = depth_bins
        self.binning = binning or LidBinning(n_bins=depth_bins)
        if self.binning.n_bins != depth_bins:
            raise FrustumError("binning bin count must match depth_bins")
        self.block = []
        c_prev = in_channels
        for i, (c, s) in enumerate(zip(block_channels, self.strides)):
            self.block.append(LbrLayer(rng.derive(f"block{i}"), c_prev * s * s, c))
            c_prev = c
        self.feat_head = LinearLayer(rng.derive("feat_head"), c_prev, feature_channels)
        self.depth_head = LinearLayer(rng.derive("depth_head"), c_prev, 2 * depth_bins)
        self.offset_head = LinearLayer(rng.derive("offset_head"), c_prev, 2)

    def __call__(self, image: np.ndarray):
        return encode_image(image, self)


def encode_image(image: np.ndarray, encoder: ImageEncoder):
    """image [H, W, 3] -> (ImageFeatureGrid, DepthPrediction, OffsetGrid).

    H and W must be divisible by the encoder stride.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3:
        raise FrustumError(f"image must be [H,W,C], got {image.shape}")
    h, w, _ = image.shape
    if h % encoder.stride or w % encoder.stride:
        raise FrustumError(f"image {h}x{w} not divisible by encoder stride {encoder.stride}")
    x = T.Tensor(image)
    for blk, s in zip(encoder.block, encoder.strides):
        if s > 1:
            x = space_to_depth(x, s)
        x = blk(x)
    fi = ImageFeatureGrid(encoder.feat_head(x), encoder.stride)
    raw = encoder.depth_head(x)
    d = encoder.depth_bins
    dp = DepthPrediction(T.narrow(raw, 2, 0, d), T.sigmoid(T.narrow(raw, 2, d, d)))
    og = OffsetGrid(encoder.offset_head(x))
    return fi, dp, og


def build_frustum(fi: ImageFeatureGrid, dp: DepthPrediction,
                  binning: LidBinning | None = None) -> FrustumGrid:
    """Per-cell softmax depth weights times the cell feature.

    Summing the result over the depth axis reproduces the feature grid
    exactly, because the weights normalise to one.
    """
    hf, wf, c = fi.feats.data.shape
    hd, wd, d = dp.bin_logits.data.shape
    if (hf, wf) != (hd, wd):
        raise FrustumError(f"feature grid {hf}x{wf} vs depth grid {hd}x{wd}")
    weights = T.softmax(dp.bin_logits, axis=2)
    vol = T.reshape(weights, (hf, wf, d, 1)) * T.reshape(fi.feats, (hf, wf, 1, c))
    return FrustumGrid(vol, fi.stride, binning or LidBinning(n_bins=d))


@dataclass
class ForegroundSelection:
    indices: np.ndarray      # [n] point indices, true foreground first
    n_foreground: int        # how many of them the mask actually hit
    uv: np.ndarray           # [N_total, 2] projected pixels for reuse
    depth: np.ndarray        # [N_total] projective depths
    in_image: np.ndarray     # [N_total] bool


def _mask_hits(points: PointSet, mask: np.ndarray, calib: Calibration):
    """Project the points into the image -> (uv, depth, in_image, hit),
    hit marking the points whose pixel lies on the foreground mask."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    uv, depth, ok = calib.project_points(points.coords)
    ui = np.floor(uv[:, 0]).astype(np.int64)
    vi = np.floor(uv[:, 1]).astype(np.int64)
    in_image = ok & (ui >= 0) & (ui < w) & (vi >= 0) & (vi < h)
    hit = np.zeros(len(points), dtype=bool)
    hit[in_image] = mask[vi[in_image], ui[in_image]]
    return uv, depth, in_image, hit


def select_foreground(points: PointSet, mask: np.ndarray, calib: Calibration,
                      n: int, rng: Rng) -> ForegroundSelection:
    """Pick n point indices: mask-hit points first (by index), then a
    seeded random pad of background points (in-image ones preferred).

    Raises when the scene has no foreground at all.
    """
    if n < 1 or n > len(points):
        raise FrustumError(f"need 1 <= n <= {len(points)}, got {n}")
    uv, depth, in_image, fg = _mask_hits(points, mask, calib)
    fg_idx = np.nonzero(fg)[0]
    if fg_idx.size == 0:
        raise FrustumError("no point projects onto the foreground mask")
    if fg_idx.size >= n:
        sel = fg_idx[:n]
        return ForegroundSelection(sel, n, uv, depth, in_image)
    need = n - fg_idx.size
    bg_in = np.nonzero(in_image & ~fg)[0]
    bg_out = np.nonzero(~in_image)[0]
    pad = []
    take_in = min(need, bg_in.size)
    if take_in:
        pad.append(bg_in[np.sort(rng.choice(bg_in.size, take_in))])
    if need - take_in:
        pad.append(bg_out[np.sort(rng.choice(bg_out.size, need - take_in))])
    sel = np.concatenate([fg_idx] + pad)
    return ForegroundSelection(sel, int(fg_idx.size), uv, depth, in_image)


def sample_keypoint_offsets(og: OffsetGrid, pixels: np.ndarray, stride: int) -> Tensor:
    """Bilinear read of the offset grid at continuous image pixels -> [M, 2]."""
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.ndim != 2 or pixels.shape[1] != 2:
        raise FrustumError(f"pixels must be [M,2], got {pixels.shape}")
    return T.bilinear_sample(og.offsets, pixels / stride)


def _lift_to_lidar(u: Tensor, v: Tensor, depth: Tensor, calib: Calibration) -> Tensor:
    """Differentiable (u, v, projective depth) -> LiDAR coordinates [M, 3]."""
    col = lambda t: T.reshape(t, (-1, 1))
    uvd = T.concat([col(u * depth), col(v * depth), col(depth)], axis=1)
    cam = T.matmul(uvd - calib.p2[:, 3], T.Tensor(calib.k_inv.T))
    rt = calib.rect_to_velo
    return T.matmul(cam, T.Tensor(rt[:3, :3].T)) + rt[:3, 3]


@dataclass
class PseudoSources:
    """The points a scene's pseudo points start from: a farthest-point
    sample of the mask-hit points.  They depend on the scene alone, so a
    PreparedScene keeps them for every forward."""

    indices: np.ndarray    # [m] indices into the scene's point set
    uv: np.ndarray         # [m, 2] their projected image pixels


def pseudo_sources(points: PointSet, mask: np.ndarray, calib: Calibration,
                   m: int) -> PseudoSources:
    """m farthest-point picks among the points that hit the foreground
    mask.  Raises when fewer than m points do."""
    uv, _, _, hit = _mask_hits(points, mask, calib)
    fg = np.nonzero(hit)[0]
    if fg.size < m:
        raise FrustumError(f"only {fg.size} foreground points for m={m}")
    keep = fg[farthest_point_sampling(points.coords[fg], m)]
    uv = uv[keep]
    keep.flags.writeable = uv.flags.writeable = False   # shared by every forward
    return PseudoSources(keep, uv)


def generate_pseudo_points(points: PointSet, mask: np.ndarray, calib: Calibration,
                           fi: ImageFeatureGrid, dp: DepthPrediction, og: OffsetGrid,
                           m: int, binning: LidBinning, mode: str = "KPS",
                           rng: Rng | None = None, *,
                           sources: PseudoSources | None = None) -> PseudoPointSet:
    """Generate m pseudo points from the foreground of a scene.

    mode "KPS" shifts each source pixel by the learned offset before the
    depth and frustum reads; "FPS" keeps the raw projections.  Sources
    are a farthest-point sample of the mask-hit points, so both modes
    share source indices.  ``sources``, if given, are that sample as
    ``pseudo_sources(points, mask, calib, m)`` returns it, and are used
    instead of drawing it again.  The sample involves no random draw, so
    ``rng`` changes nothing; it is accepted for callers that pass one.
    """
    if mode not in ("KPS", "FPS"):
        raise FrustumError(f"mode must be KPS or FPS, got {mode!r}")
    mask = np.asarray(mask, dtype=bool)
    img_h, img_w = mask.shape
    if sources is None:
        sources = pseudo_sources(points, mask, calib, m)
    elif len(sources.indices) != m:
        raise FrustumError(f"got {len(sources.indices)} pseudo sources for m={m}")
    keep, uv0 = sources.indices, sources.uv

    if mode == "KPS":
        shift = sample_keypoint_offsets(og, uv0, fi.stride)
        shifted = T.Tensor(uv0) + shift
    else:
        shifted = T.Tensor(uv0)
    raw_px = shifted.data
    clamped = int(np.sum((raw_px[:, 0] < 0) | (raw_px[:, 0] > img_w - 1)
                         | (raw_px[:, 1] < 0) | (raw_px[:, 1] > img_h - 1)))
    u_px = T.clamp(T.narrow(shifted, 1, 0, 1), 0.0, img_w - 1.0)
    v_px = T.clamp(T.narrow(shifted, 1, 1, 1), 0.0, img_h - 1.0)
    u_f = T.reshape(u_px, (-1,)) * (1.0 / fi.stride)
    v_f = T.reshape(v_px, (-1,)) * (1.0 / fi.stride)

    # depth bin is a routing decision at the nearest cell; the residual
    # read stays differentiable in both the head and the pixel position
    hf, wf, d_bins = dp.bin_logits.data.shape
    cu = np.clip(np.floor(u_f.data).astype(np.int64), 0, wf - 1)
    cv = np.clip(np.floor(v_f.data).astype(np.int64), 0, hf - 1)
    bins = np.argmax(dp.bin_logits.data[cv, cu, :], axis=1)
    uvb = T.concat([T.reshape(u_f, (-1, 1)), T.reshape(v_f, (-1, 1)),
                    T.Tensor(bins.astype(np.float64).reshape(-1, 1))], axis=1)
    res = T.reshape(T.trilinear_sample(T.reshape(dp.residuals, (hf, wf, d_bins, 1)), uvb), (-1,))
    depth = T.Tensor(binning.edges[bins]) + res * T.Tensor(binning.width(bins))

    coords = _lift_to_lidar(T.reshape(u_px, (-1,)), T.reshape(v_px, (-1,)), depth, calib)
    cont_bin = T.Tensor(bins.astype(np.float64)) + res
    uvd = T.concat([T.reshape(u_f, (-1, 1)), T.reshape(v_f, (-1, 1)),
                    T.reshape(cont_bin, (-1, 1))], axis=1)
    # the frustum read of build_frustum's volume, without building it
    feats = T.frustum_sample(T.softmax(dp.bin_logits, axis=2), fi.feats, uvd)
    return PseudoPointSet(coords, feats, raw_px.copy(), depth.data.copy(), keep, clamped)
