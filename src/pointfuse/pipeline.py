"""Scene-to-detections orchestration.

DetectionModel owns the image encoder, the two-stream backbone and the
proposal head; prepare_scene freezes everything about a scene that must
not change between steps (foreground pool, raw subset, depth targets),
so repeated forward passes with frozen parameters are bit-identical and
an lr=0 run keeps its loss constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boxes import (CLASS_IOU_THRESHOLD, CLASSES, DEFAULT_ANCHORS, DetectionResult, GroundTruth,
                    average_precision_40, nms)
from .config import NetworkConfig
from .frustum import (DepthPrediction, FrustumError, ImageEncoder, ImageFeatureGrid, OffsetGrid,
                      PseudoPointSet, PseudoSources, generate_pseudo_points, pseudo_sources,
                      select_foreground)
from .fusion import (RAW_IN_CHANNELS, ProposalHead, RpnOutput, StreamRoute, TwoStreamNetwork,
                     encode_boxes)
from .geometry import LidBinning, farthest_point_sampling, lid_encode
from .kitti import SceneSample
from .losses import DepthTargets, LossWeights, RpnTargets, depth_loss, rpn_loss, total_loss
from .nn import Adam, Rng, load_checkpoint, named_params, restore_params, save_checkpoint
from .tensor import Tensor, no_grad


class PipelineError(ValueError):
    """Scene and model disagree, or a stage precondition failed."""


@dataclass
class PreparedScene:
    """Fixed per-scene state: which points feed each branch, the
    depth supervision extracted from the true foreground, and two lazy
    caches that the first forward fills: the raw stream's routing and
    the pseudo points' sources."""

    scene: SceneSample
    scene_id: int
    raw_indices: np.ndarray
    depth_targets: DepthTargets
    routes: dict = field(default_factory=dict, repr=False)   # (raw_stages, l_group) -> StreamRoute
    sources: dict = field(default_factory=dict, repr=False)  # n_pseudo -> PseudoSources

    def raw_route(self, backbone: TwoStreamNetwork) -> StreamRoute:
        """The raw stream's routing under backbone's stage config.  The
        raw coordinates never change, so the first forward builds it
        and every later one reuses it."""
        key = (tuple(backbone.cfg.raw_stages), backbone.cfg.l_group)
        if key not in self.routes:
            self.routes[key] = backbone.route_raw(self.scene.points.coords[self.raw_indices])
        return self.routes[key]

    def pseudo_sources(self, m: int) -> PseudoSources:
        """The m pseudo sources of the scene, as
        ``generate_pseudo_points`` would draw them.  They depend on the
        scene alone, so the first forward draws them and every later one
        reuses them."""
        if m not in self.sources:
            s = self.scene
            self.sources[m] = pseudo_sources(s.points, s.mask, s.calib, m)
        return self.sources[m]

    def ground_truths(self) -> list[GroundTruth]:
        return [GroundTruth(o.box, o.klass, o.difficulty, self.scene_id)
                for o in self.scene.labels]


@dataclass
class ForwardState:
    features: ImageFeatureGrid
    depth: DepthPrediction
    offsets: OffsetGrid
    pseudo: PseudoPointSet
    raw_coords: Tensor
    raw_out: Tensor
    pseudo_out: Tensor
    rpn: RpnOutput
    aux: dict = field(default_factory=dict)


def prepare_scene(scene: SceneSample, cfg: NetworkConfig, rng: Rng, scene_id: int = 0) -> PreparedScene:
    """Errors name this stage, the scene and the step that failed, as in
    ``prepare_scene (scene 3) / select_foreground: ...``."""
    def fail(step: str, message: str) -> PipelineError:
        return PipelineError(f"prepare_scene (scene {scene_id}) / {step}: {message}")

    if scene.mask.shape != (cfg.image_height, cfg.image_width):
        raise fail("raster", f"mask {scene.mask.shape} does not match configured raster "
                             f"{cfg.image_height}x{cfg.image_width}")
    n_pool = min(cfg.n_foreground, len(scene.points))
    if n_pool < cfg.n_raw:
        raise fail("raw_points", f"scene has {len(scene.points)} points, need at least {cfg.n_raw}")
    try:
        sel = select_foreground(scene.points, scene.mask, scene.calib, n_pool, rng.derive("pool"))
    except FrustumError as exc:
        raise fail("select_foreground", str(exc)) from exc
    pool = sel.indices
    raw_indices = pool[farthest_point_sampling(scene.points.coords[pool], cfg.n_raw)]

    fg = sel.indices[:sel.n_foreground]
    if fg.size < cfg.n_pseudo:
        raise fail("pseudo_sources",
                   f"only {fg.size} foreground points, need {cfg.n_pseudo} pseudo sources")
    binning = LidBinning(d_min=cfg.depth_min, d_max=cfg.depth_max, n_bins=cfg.depth_bins)
    depth = np.clip(sel.depth[fg], binning.d_min, binning.d_max)
    gt_bin, gt_res = lid_encode(depth, binning)
    # residual hits 1.0 exactly at d_max; fold it into the closed last bin
    top = gt_res >= 1.0
    gt_res = np.where(top, np.nextafter(1.0, 0.0), gt_res)
    cells = np.stack([np.floor(sel.uv[fg, 0] / cfg.stride).astype(np.int64),
                      np.floor(sel.uv[fg, 1] / cfg.stride).astype(np.int64)], axis=1)
    targets = DepthTargets(cells, gt_bin, gt_res)
    return PreparedScene(scene, scene_id, raw_indices, targets)


class DetectionModel:
    """Image encoder + two-stream backbone + proposal head."""

    def __init__(self, cfg: NetworkConfig, rng: Rng):
        cfg.validate()
        self.cfg = cfg
        self.binning = LidBinning(d_min=cfg.depth_min, d_max=cfg.depth_max, n_bins=cfg.depth_bins)
        self.encoder = ImageEncoder(
            rng.derive("image"), 3, cfg.encoder_channels, cfg.encoder_strides,
            cfg.feature_channels, cfg.depth_bins, self.binning)
        self.backbone = TwoStreamNetwork(cfg, rng.derive("fusion"))
        self.head = ProposalHead(rng.derive("head"), self.backbone.width, CLASSES,
                                 DEFAULT_ANCHORS, cfg.vote_hidden, cfg.head_hidden)

    def params(self) -> dict:
        pairs = (named_params(self.encoder, "image") + named_params(self.backbone, "net")
                 + named_params(self.head, "head"))
        out = dict(pairs)
        if len(out) != len(pairs):
            raise PipelineError("duplicate parameter names")
        return out

    def forward(self, prepared: PreparedScene) -> ForwardState:
        scene = prepared.scene
        cfg = self.cfg
        fi, dp, og = self.encoder(scene.image)
        pseudo = generate_pseudo_points(
            scene.points, scene.mask, scene.calib, fi, dp, og,
            cfg.n_pseudo, self.binning, cfg.sampling_mode,
            sources=prepared.pseudo_sources(cfg.n_pseudo))
        raw_coords = Tensor(scene.points.coords[prepared.raw_indices])
        raw_feats = Tensor(scene.points.feats[prepared.raw_indices, :RAW_IN_CHANNELS])
        raw_out, pseudo_out, aux = self.backbone(raw_coords, raw_feats, pseudo.coords,
                                                 pseudo.feats, prepared.raw_route(self.backbone))
        rpn = self.head(raw_coords, raw_out)
        return ForwardState(fi, dp, og, pseudo, raw_coords, raw_out, pseudo_out, rpn, aux)

    def save(self, path: str) -> None:
        save_checkpoint(path, self.params())

    def load(self, path: str) -> None:
        restore_params(self.params(), load_checkpoint(path))


def build_rpn_targets(prepared: PreparedScene, rpn: RpnOutput) -> RpnTargets:
    """Point-level supervision: a point inside a labelled box carries
    that box's class, votes for its center, and regresses its residuals
    against the point's current (detached) vote."""
    coords = prepared.scene.points.coords[prepared.raw_indices]
    votes = rpn.votes.data
    n = coords.shape[0]
    k = len(CLASSES)
    cls_target = np.zeros((n, k))
    cls_valid = np.ones(n, dtype=bool)
    reg_target = np.zeros((n, 8))
    reg_mask = np.zeros(n, dtype=bool)
    vote_target = np.zeros((n, 3))
    vote_mask = np.zeros(n, dtype=bool)
    for obj in prepared.scene.labels:
        inside = obj.box.contains(coords)
        idx = np.flatnonzero(inside)
        if idx.size == 0:
            continue
        ci = CLASSES.index(obj.klass)
        cls_target[idx] = 0.0
        cls_target[idx, ci] = 1.0
        vote_target[idx] = obj.box.center
        vote_mask[idx] = True
        reg_target[idx] = encode_boxes(obj.box, votes[idx], DEFAULT_ANCHORS[obj.klass])
        reg_mask[idx] = True
    return RpnTargets(cls_target, cls_valid, reg_target, reg_mask, vote_target, vote_mask)


def compute_losses(prepared: PreparedScene, state: ForwardState, weights: LossWeights):
    """Scene loss and its float components, keyed for logging."""
    d_total, d_bin, d_res = depth_loss(state.depth.bin_logits, state.depth.residuals,
                                       prepared.depth_targets, weights)
    targets = build_rpn_targets(prepared, state.rpn)
    r_total, comps = rpn_loss(state.rpn.cls_prob, state.rpn.reg, state.rpn.votes,
                              targets, weights)
    total = total_loss(d_total, r_total, weights)
    parts = {"total": total.item(), "depth": d_total.item(),
             "depth_bin": d_bin.item(), "depth_res": d_res.item(),
             "rpn": r_total.item(), "rpn_cls": comps["rpn_cls"].item(),
             "rpn_reg": comps["rpn_reg"].item(), "rpn_vote": comps["rpn_vote"].item(),
             "n_reg_active": comps["n_reg_active"], "n_vote_active": comps["n_vote_active"]}
    return total, parts


def train(model: DetectionModel, scenes: list[PreparedScene], settings,
          weights: LossWeights | None = None, log=None) -> list[dict]:
    """Round-robin Adam over the prepared scenes; returns one component
    dict per step."""
    if not scenes:
        raise PipelineError("train needs at least one prepared scene")
    weights = weights or LossWeights()
    opt = Adam(model.params(), lr=settings.lr, beta1=settings.beta1,
               beta2=settings.beta2, eps=settings.eps, weight_decay=settings.weight_decay)
    history = []
    for step in range(settings.steps):
        prepared = scenes[step % len(scenes)]
        opt.zero_grad()
        state = model.forward(prepared)
        total, parts = compute_losses(prepared, state, weights)
        total.backward()
        opt.step()
        del state, total     # this step's tape: free it before the next forward builds one
        parts["step"] = step
        parts["scene"] = prepared.scene_id
        history.append(parts)
        if log is not None and settings.log_every and step % settings.log_every == 0:
            log(parts)
    return history


def detect(model: DetectionModel, prepared: PreparedScene,
           nms_threshold: float | None = None) -> list[DetectionResult]:
    """Forward pass without a tape, proposal decoding, class-blind NMS in
    the BEV."""
    with no_grad():
        state = model.forward(prepared)
    props = model.head.decode_proposals(state.rpn, model.cfg.score_threshold)
    del state  # NMS needs only the decoded boxes; free the forward arrays first
    if not props.boxes:
        return []
    dets = [DetectionResult(b, float(s), c, prepared.scene_id)
            for b, s, c in zip(props.boxes, props.scores, props.classes)]
    thr = model.cfg.nms_test if nms_threshold is None else nms_threshold
    keep = nms(dets, thr, overlap="bev")
    return [dets[i] for i in keep]


def evaluate(model: DetectionModel, scenes: list[PreparedScene], eval_settings) -> dict:
    """Detections over all scenes, then per-class 40-point AP."""
    dets: list[DetectionResult] = []
    gts: list[GroundTruth] = []
    for prepared in scenes:
        dets.extend(detect(model, prepared))
        gts.extend(prepared.ground_truths())
    results = {}
    for klass in CLASSES:
        results[klass] = average_precision_40(
            dets, gts, CLASS_IOU_THRESHOLD[klass], klass,
            overlap=eval_settings.overlap, max_difficulty=eval_settings.max_difficulty)
    return {"ap": results, "detections": dets, "ground_truths": gts}
