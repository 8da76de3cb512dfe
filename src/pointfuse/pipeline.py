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

from .boxes import (CLASSES, DEFAULT_ANCHORS, Box3D, DetectionResult, GroundTruth,
                    average_precision_40, nms)
from .config import NetworkConfig
from .frustum import (DepthPrediction, ImageEncoder, ImageFeatureGrid, OffsetGrid,
                      PseudoPointSet, generate_pseudo_points, select_foreground)
from .fusion import ProposalHead, RpnOutput, TwoStreamNetwork, encode_box
from .geometry import LidBinning, farthest_point_sampling, lid_encode
from .kitti import SceneSample
from .losses import DepthTargets, LossWeights, RpnTargets, depth_loss, rpn_loss, total_loss
from .nn import Adam, Rng, load_checkpoint, restore_params, save_checkpoint
from .tensor import Tensor


class PipelineError(ValueError):
    """Scene and model disagree, or a stage precondition failed."""


@dataclass
class PreparedScene:
    """Fixed per-scene state: which points feed each branch and the
    depth supervision extracted from the true foreground."""

    scene: SceneSample
    scene_id: int
    raw_indices: np.ndarray
    depth_targets: DepthTargets
    rng_seed: int                 # routing rng handed to pseudo-point generation

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
    if scene.mask.shape != (cfg.image_height, cfg.image_width):
        raise PipelineError(
            f"mask {scene.mask.shape} does not match configured raster "
            f"{cfg.image_height}x{cfg.image_width}")
    n_pool = min(cfg.n_foreground, len(scene.points))
    if n_pool < cfg.n_raw:
        raise PipelineError(f"scene has {len(scene.points)} points, need at least {cfg.n_raw}")
    sel = select_foreground(scene.points, scene.mask, scene.calib, n_pool, rng.derive("pool"))
    pool = sel.indices
    raw_indices = pool[farthest_point_sampling(scene.points.coords[pool], cfg.n_raw)]

    fg = sel.indices[:sel.n_foreground]
    if fg.size < cfg.n_pseudo:
        raise PipelineError(f"only {fg.size} foreground points, need {cfg.n_pseudo} pseudo sources")
    binning = LidBinning(d_min=cfg.depth_min, d_max=cfg.depth_max, n_bins=cfg.depth_bins)
    depth = np.clip(sel.depth[fg], binning.d_min, binning.d_max)
    gt_bin, gt_res = lid_encode(depth, binning)
    # residual hits 1.0 exactly at d_max; fold it into the closed last bin
    top = gt_res >= 1.0
    gt_res = np.where(top, np.nextafter(1.0, 0.0), gt_res)
    cells = np.stack([np.floor(sel.uv[fg, 0] / cfg.stride).astype(np.int64),
                      np.floor(sel.uv[fg, 1] / cfg.stride).astype(np.int64)], axis=1)
    targets = DepthTargets(cells, gt_bin, gt_res)
    return PreparedScene(scene, scene_id, raw_indices, targets,
                         rng_seed=rng.derive("routing").seed)


class DetectionModel:
    """Image encoder + two-stream backbone + proposal head."""

    def __init__(self, cfg: NetworkConfig, rng: Rng):
        cfg.validate()
        self.cfg = cfg
        self.binning = LidBinning(d_min=cfg.depth_min, d_max=cfg.depth_max, n_bins=cfg.depth_bins)
        self.encoder = ImageEncoder(
            rng.derive("image"), 3, cfg.encoder_channels, cfg.encoder_strides,
            cfg.feature_channels, cfg.depth_bins, self.binning, cfg.norm_mode)
        self.backbone = TwoStreamNetwork(cfg, rng.derive("fusion"))
        self.head = ProposalHead(rng.derive("head"), self.backbone.width, CLASSES,
                                 DEFAULT_ANCHORS, cfg.vote_hidden, cfg.head_hidden)

    def params(self) -> dict:
        pairs = (self.encoder.params("image") + self.backbone.params("net")
                 + self.head.params("head"))
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
            cfg.n_pseudo, self.binning, cfg.sampling_mode, Rng(prepared.rng_seed))
        raw_coords = Tensor(scene.points.coords[prepared.raw_indices])
        raw_feats = Tensor(scene.points.feats[prepared.raw_indices, :cfg.raw_in_channels])
        raw_out, pseudo_out, aux = self.backbone(raw_coords, raw_feats,
                                                 pseudo.coords, pseudo.feats)
        rpn = self.head(raw_coords, raw_out)
        return ForwardState(fi, dp, og, pseudo, raw_coords, raw_out, pseudo_out, rpn, aux)

    def save(self, path: str) -> None:
        save_checkpoint(path, sorted(self.params().items()))

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
        anchor = DEFAULT_ANCHORS[obj.klass]
        for i in idx:
            reg_target[i] = encode_box(obj.box, votes[i], anchor)
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
        parts["step"] = step
        parts["scene"] = prepared.scene_id
        history.append(parts)
        if log is not None and settings.log_every and step % settings.log_every == 0:
            log(parts)
    return history


def detect(model: DetectionModel, prepared: PreparedScene,
           nms_threshold: float | None = None) -> list[DetectionResult]:
    """Forward pass, proposal decoding, class-blind NMS in the BEV."""
    state = model.forward(prepared)
    props = model.head.decode_proposals(state.rpn, model.cfg.score_threshold)
    del state  # NMS needs only the decoded boxes; free the tape and its grad buffers first
    if not props.boxes:
        return []
    dets = [DetectionResult(b, float(s), c, prepared.scene_id)
            for b, s, c in zip(props.boxes, props.scores, props.classes)]
    thr = model.cfg.nms_test if nms_threshold is None else nms_threshold
    keep = nms(dets, thr, overlap="bev")
    return [dets[i] for i in keep]


def evaluate(model: DetectionModel, scenes: list[PreparedScene], eval_settings,
             iou_thresholds: dict | None = None) -> dict:
    """Detections over all scenes, then per-class 40-point AP."""
    from .boxes import CLASS_IOU_THRESHOLD
    thresholds = iou_thresholds or CLASS_IOU_THRESHOLD
    dets: list[DetectionResult] = []
    gts: list[GroundTruth] = []
    for prepared in scenes:
        dets.extend(detect(model, prepared))
        gts.extend(prepared.ground_truths())
    results = {}
    for klass in CLASSES:
        results[klass] = average_precision_40(
            dets, gts, thresholds[klass], klass,
            overlap=eval_settings.overlap, max_difficulty=eval_settings.max_difficulty)
    return {"ap": results, "detections": dets, "ground_truths": gts}
