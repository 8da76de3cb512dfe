"""Training objectives: focal classification, smooth-L1 regression, the
two-part depth objective and the proposal loss, combined into a single
weighted total.

All losses return scalar Tensors on the tape and are non-negative by
construction.  Probabilities are clamped to [1e-7, 1 - 1e-7] before any
log; the clamp count is the caller-visible saturation signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor, as_tensor

PROB_CLAMP = 1e-7


@dataclass
class LossWeights:
    lambda_depth: float = 1.0
    lambda_rpn: float = 1.0
    lambda_residual: float = 10.0
    lambda_reg: float = 1.0
    lambda_vote: float = 1.0
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0


@dataclass
class DepthTargets:
    """Sparse depth supervision at foreground feature cells.

    cells   [N, 2] integer (u, v) indices into the feature grid
    gt_bin  [N]    target depth bin per cell hit
    gt_res  [N]    fractional residual inside that bin, in [0, 1)
    """

    cells: np.ndarray
    gt_bin: np.ndarray
    gt_res: np.ndarray

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=np.int64)
        self.gt_bin = np.asarray(self.gt_bin, dtype=np.int64)
        self.gt_res = np.asarray(self.gt_res, dtype=np.float64)
        n = self.cells.shape[0]
        if self.cells.shape != (n, 2) or self.gt_bin.shape != (n,) or self.gt_res.shape != (n,):
            raise ValueError("misaligned depth target arrays")
        if n and (self.gt_res.min() < 0.0 or self.gt_res.max() >= 1.0):
            raise ValueError("residual targets must lie in [0, 1)")

    def __len__(self):
        return self.cells.shape[0]


def _clamped_prob(p) -> Tensor:
    return T.clamp(as_tensor(p), PROB_CLAMP, 1.0 - PROB_CLAMP)


def focal_loss(prob, is_foreground, alpha: float = 0.25, gamma: float = 2.0) -> Tensor:
    """Elementwise focal term -alpha_t (1 - c_t)^gamma log(c_t).

    ``prob`` holds foreground probabilities; c_t is prob where
    ``is_foreground`` and 1 - prob elsewhere, alpha_t follows the same
    switch with alpha vs 1 - alpha.  Returns the same shape as ``prob``.
    """
    prob = as_tensor(prob)
    fg = np.asarray(is_foreground, dtype=np.float64)
    c = _clamped_prob(prob)
    c_t = c * fg + (1.0 - c) * (1.0 - fg)
    alpha_t = alpha * fg + (1.0 - alpha) * (1.0 - fg)
    return -alpha_t * (1.0 - c_t) ** gamma * T.log(c_t)


def focal_loss_true_class(prob_true, alpha: float = 0.25, gamma: float = 2.0) -> Tensor:
    """Multiclass focal term on already-gathered true-class probabilities."""
    c = _clamped_prob(prob_true)
    return -alpha * (1.0 - c) ** gamma * T.log(c)


def smooth_l1(x) -> Tensor:
    """Elementwise: 0.5 x^2 for |x| < 1, |x| - 0.5 beyond."""
    x = as_tensor(x)
    inner = np.abs(x.data) < 1.0
    quad = 0.5 * x * x
    lin = T.absolute(x) - 0.5
    return quad * inner + lin * (1.0 - inner)


def depth_loss(bin_logits: Tensor, residuals: Tensor, targets: DepthTargets,
               weights: LossWeights):
    """Depth objective: mean multiclass focal over the bin softmax plus
    lambda_residual times the mean smooth-L1 on the in-bin residual.

    bin_logits, residuals: [H, W, D] grids at feature resolution; targets
    index cells as (u, v).  Returns (total, bin term, residual term).
    """
    if len(targets) == 0:
        raise ValueError("depth_loss needs at least one target cell")
    h, w, d = bin_logits.data.shape
    if np.any(targets.gt_bin < 0) or np.any(targets.gt_bin >= d):
        raise ValueError("target bin outside the grid depth range")
    if (np.any(targets.cells < 0) or np.any(targets.cells[:, 0] >= w)
            or np.any(targets.cells[:, 1] >= h)):
        raise ValueError("target cell outside the feature grid")
    flat_idx = targets.cells[:, 1] * w + targets.cells[:, 0]
    logits_rows = T.gather_rows(T.reshape(bin_logits, (h * w, d)), flat_idx)
    probs = T.softmax(logits_rows, axis=1)
    # each target's true bin, picked by its flat index into the grid it reads
    p_true = T.gather_rows(T.reshape(probs, (-1,)), np.arange(len(targets)) * d + targets.gt_bin)
    l_bin = T.tmean(focal_loss_true_class(p_true, weights.focal_alpha, weights.focal_gamma))

    res_pred = T.gather_rows(T.reshape(residuals, (-1,)), flat_idx * d + targets.gt_bin)
    l_res = T.tmean(smooth_l1(res_pred - targets.gt_res))
    total = l_bin + weights.lambda_residual * l_res
    return total, l_bin, l_res


@dataclass
class RpnTargets:
    """Per-point supervision produced by proposal assignment.

    cls_target [N, K] 0/1 per class; cls_valid [N] excludes ignored
    points; reg_target [N, 8] residual targets with reg_mask [N] marking
    regression-active points; vote_target [N, 3] object centers with
    vote_mask [N] marking in-box points.
    """

    cls_target: np.ndarray
    cls_valid: np.ndarray
    reg_target: np.ndarray
    reg_mask: np.ndarray
    vote_target: np.ndarray
    vote_mask: np.ndarray


def rpn_loss(cls_prob: Tensor, reg_pred: Tensor, votes: Tensor,
             targets: RpnTargets, weights: LossWeights):
    """Proposal loss: focal classification over all non-ignored points
    plus lambda_reg times smooth-L1 over the 8 box residual channels on
    regression-active points plus lambda_vote times smooth-L1 on the
    vote offsets for in-object points.

    Empty regression or vote masks contribute exact zeros (flagged by the
    returned component dict holding 0 counts).
    """
    n, k = cls_prob.data.shape
    valid = targets.cls_valid.astype(np.float64)[:, None]
    n_valid = float(valid.sum() * k)
    if n_valid == 0:
        raise ValueError("rpn_loss needs at least one non-ignored point")
    per_entry = focal_loss(cls_prob, targets.cls_target, weights.focal_alpha, weights.focal_gamma)
    l_cls = T.tsum(per_entry * valid) / n_valid

    reg_mask = targets.reg_mask.astype(np.float64)
    n_reg = float(reg_mask.sum())
    if n_reg > 0:
        per_point = T.tsum(smooth_l1(reg_pred - targets.reg_target), axis=1)
        l_reg = T.tsum(per_point * reg_mask) / n_reg
    else:
        l_reg = as_tensor(0.0)

    vote_mask = targets.vote_mask.astype(np.float64)
    n_vote = float(vote_mask.sum())
    if n_vote > 0:
        per_point = T.tsum(smooth_l1(votes - targets.vote_target), axis=1)
        l_vote = T.tsum(per_point * vote_mask) / n_vote
    else:
        l_vote = as_tensor(0.0)

    total = l_cls + weights.lambda_reg * l_reg + weights.lambda_vote * l_vote
    components = {"rpn_cls": l_cls, "rpn_reg": l_reg, "rpn_vote": l_vote,
                  "n_reg_active": n_reg, "n_vote_active": n_vote}
    return total, components


def total_loss(depth_term: Tensor, rpn_term: Tensor, weights: LossWeights) -> Tensor:
    """lambda_depth * depth + lambda_rpn * rpn (there is no second-stage
    refinement term)."""
    return weights.lambda_depth * depth_term + weights.lambda_rpn * rpn_term
