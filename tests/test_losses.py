"""Loss term tests.

Focal and smooth-L1 values are pinned against hand-evaluated closed
forms.  The depth loss is probed for the two structural properties the
training loop depends on: permutation invariance over target rows and
exact linearity in lambda_residual (so L(lambda=20) - L(lambda=10) is
precisely 10 times the residual term).
"""

import numpy as np
import pytest

import pointfuse.tensor as T
from pointfuse.losses import (
    DepthTargets,
    LossWeights,
    PROB_CLAMP,
    RpnTargets,
    depth_loss,
    focal_loss,
    focal_loss_true_class,
    rpn_loss,
    smooth_l1,
    total_loss,
)
from pointfuse.nn import Rng, gradcheck
from pointfuse.tensor import Tensor


# -- focal ---------------------------------------------------------------------


def test_focal_closed_form_values():
    # foreground, p = 0.9: -0.25 * 0.1^2 * log(0.9)
    got = focal_loss(Tensor([0.9]), np.array([1.0]))
    assert got.data[0] == pytest.approx(-0.25 * 0.01 * np.log(0.9), rel=1e-12)
    # background, p = 0.9 means c_t = 0.1: -(0.75) * 0.9^2 * log(0.1)
    got = focal_loss(Tensor([0.9]), np.array([0.0]))
    assert got.data[0] == pytest.approx(-0.75 * 0.81 * np.log(0.1), rel=1e-12)
    # gathered multiclass form agrees with the foreground branch
    a = focal_loss_true_class(Tensor([0.9]))
    b = focal_loss(Tensor([0.9]), np.array([1.0]))
    assert np.allclose(a.data, b.data)


def test_focal_clamps_extreme_probabilities():
    # both rows see c_t = PROB_CLAMP after clamping; alpha_t differs
    out = focal_loss(Tensor([0.0, 1.0]), np.array([1.0, 0.0]))
    base = -((1.0 - PROB_CLAMP) ** 2) * np.log(PROB_CLAMP)
    assert np.allclose(out.data, [0.25 * base, 0.75 * base], rtol=1e-9)
    assert np.all(np.isfinite(out.data))


def test_focal_decreases_with_confidence():
    ps = np.linspace(0.05, 0.95, 10)
    vals = focal_loss(Tensor(ps), np.ones(10)).data
    assert np.all(np.diff(vals) < 0)


def test_focal_gradient():
    p = Tensor(np.array([0.2, 0.5, 0.8]), requires_grad=True)
    fg = np.array([1.0, 0.0, 1.0])
    err = gradcheck(lambda: T.tsum(focal_loss(p, fg)), [p], rng=Rng(40))
    assert err < 1e-7


# -- smooth l1 ------------------------------------------------------------------


def test_smooth_l1_values_and_continuity():
    x = Tensor([0.0, 0.5, -0.5, 1.0, -2.0, 3.5])
    got = smooth_l1(x).data
    assert np.allclose(got, [0.0, 0.125, 0.125, 0.5, 1.5, 3.0], atol=1e-12)
    # continuous and C1 at |x| = 1
    eps = 1e-9
    lo = smooth_l1(Tensor([1.0 - eps])).data[0]
    hi = smooth_l1(Tensor([1.0 + eps])).data[0]
    assert abs(hi - lo) < 1e-8


# -- depth loss -----------------------------------------------------------------


def random_depth_inputs(seed, h=3, w=4, d=6, n=10):
    rng = np.random.default_rng(seed)
    logits = Tensor(rng.standard_normal((h, w, d)), requires_grad=True)
    res = Tensor(rng.uniform(0.0, 1.0, size=(h, w, d)), requires_grad=True)
    cells = np.stack([rng.integers(0, w, size=n), rng.integers(0, h, size=n)], axis=1)
    targets = DepthTargets(cells, rng.integers(0, d, size=n), rng.uniform(0.0, 0.999, size=n))
    return logits, res, targets


def test_depth_targets_validation():
    with pytest.raises(ValueError):
        DepthTargets(np.zeros((2, 2)), np.zeros(2), np.array([0.5, 1.0]))  # res == 1
    with pytest.raises(ValueError):
        DepthTargets(np.zeros((2, 2)), np.zeros(3), np.zeros(2))
    logits, res, _ = random_depth_inputs(0)
    bad = DepthTargets(np.array([[9, 0]]), np.array([0]), np.array([0.5]))
    with pytest.raises(ValueError):
        depth_loss(logits, res, bad, LossWeights())
    with pytest.raises(ValueError):
        depth_loss(logits, res, DepthTargets(np.zeros((0, 2)), np.zeros(0), np.zeros(0)),
                   LossWeights())


def test_depth_loss_permutation_invariance():
    logits, res, targets = random_depth_inputs(1)
    w = LossWeights()
    a = depth_loss(logits, res, targets, w)[0].item()
    perm = np.random.default_rng(2).permutation(len(targets))
    shuffled = DepthTargets(targets.cells[perm], targets.gt_bin[perm], targets.gt_res[perm])
    b = depth_loss(logits, res, shuffled, w)[0].item()
    assert a == pytest.approx(b, abs=1e-12)


def test_depth_loss_residual_weight_is_exactly_linear():
    logits, res, targets = random_depth_inputs(3)
    t10, _, l_res = depth_loss(logits, res, targets, LossWeights(lambda_residual=10.0))
    t20, _, _ = depth_loss(logits, res, targets, LossWeights(lambda_residual=20.0))
    assert t20.item() - t10.item() == pytest.approx(10.0 * l_res.item(), rel=1e-12)


def test_depth_loss_perfect_prediction_is_small():
    # one cell, logits peaked on the right bin, residual exact
    logits = Tensor(np.zeros((2, 2, 5)))
    logits.data[1, 0, 3] = 30.0
    res = Tensor(np.full((2, 2, 5), 0.25))
    targets = DepthTargets(np.array([[0, 1]]), np.array([3]), np.array([0.25]))
    total, l_bin, l_res = depth_loss(logits, res, targets, LossWeights())
    assert l_res.item() == 0.0
    assert total.item() < 1e-10


def test_depth_loss_gradients():
    logits, res, targets = random_depth_inputs(4, n=6)
    err = gradcheck(lambda: depth_loss(logits, res, targets, LossWeights())[0],
                    [logits, res], rng=Rng(41))
    assert err < 1e-6


# -- rpn loss -------------------------------------------------------------------


def random_rpn_inputs(seed, n=12, k=3):
    rng = np.random.default_rng(seed)
    cls_prob = Tensor(rng.uniform(0.05, 0.95, size=(n, k)), requires_grad=True)
    reg_pred = Tensor(rng.standard_normal((n, 8)), requires_grad=True)
    votes = Tensor(rng.standard_normal((n, 3)), requires_grad=True)
    targets = RpnTargets(
        cls_target=(rng.uniform(size=(n, k)) < 0.3).astype(np.float64),
        cls_valid=np.ones(n),
        reg_target=rng.standard_normal((n, 8)),
        reg_mask=(rng.uniform(size=n) < 0.5).astype(np.float64),
        vote_target=rng.standard_normal((n, 3)),
        vote_mask=(rng.uniform(size=n) < 0.7).astype(np.float64),
    )
    return cls_prob, reg_pred, votes, targets


def test_rpn_loss_components_assemble():
    cls_prob, reg_pred, votes, targets = random_rpn_inputs(5)
    w = LossWeights(lambda_reg=2.0, lambda_vote=3.0)
    total, comp = rpn_loss(cls_prob, reg_pred, votes, targets, w)
    want = comp["rpn_cls"].item() + 2.0 * comp["rpn_reg"].item() + 3.0 * comp["rpn_vote"].item()
    assert total.item() == pytest.approx(want, rel=1e-12)
    assert comp["n_reg_active"] == targets.reg_mask.sum()
    assert comp["n_vote_active"] == targets.vote_mask.sum()
    assert total.item() >= 0.0


def test_rpn_loss_empty_masks_are_exact_zero():
    cls_prob, reg_pred, votes, targets = random_rpn_inputs(6)
    targets.reg_mask = np.zeros(len(targets.reg_mask))
    targets.vote_mask = np.zeros(len(targets.vote_mask))
    total, comp = rpn_loss(cls_prob, reg_pred, votes, targets, LossWeights())
    assert comp["rpn_reg"].item() == 0.0
    assert comp["rpn_vote"].item() == 0.0
    assert total.item() == pytest.approx(comp["rpn_cls"].item())
    targets.cls_valid = np.zeros(len(targets.cls_valid))
    with pytest.raises(ValueError):
        rpn_loss(cls_prob, reg_pred, votes, targets, LossWeights())


def test_rpn_loss_ignored_points_do_not_contribute():
    cls_prob, reg_pred, votes, targets = random_rpn_inputs(7)
    targets.cls_valid = np.ones(12)
    base = rpn_loss(cls_prob, reg_pred, votes, targets, LossWeights())[1]["rpn_cls"].item()
    # flip the probabilities of a point, then mark it ignored: the cls
    # term must return to a value independent of that row
    targets.cls_valid[4] = 0.0
    masked1 = rpn_loss(cls_prob, reg_pred, votes, targets, LossWeights())[1]["rpn_cls"].item()
    cls_prob.data[4] = 1.0 - cls_prob.data[4]
    masked2 = rpn_loss(cls_prob, reg_pred, votes, targets, LossWeights())[1]["rpn_cls"].item()
    assert masked1 == pytest.approx(masked2, abs=1e-15)
    assert masked1 != pytest.approx(base, abs=1e-9)


def test_rpn_loss_gradients():
    cls_prob, reg_pred, votes, targets = random_rpn_inputs(8, n=6)
    err = gradcheck(lambda: rpn_loss(cls_prob, reg_pred, votes, targets, LossWeights())[0],
                    [cls_prob, reg_pred, votes], rng=Rng(42))
    assert err < 1e-6


# -- total ----------------------------------------------------------------------


def test_total_loss_combination():
    w = LossWeights(lambda_depth=2.0, lambda_rpn=0.5)
    out = total_loss(Tensor(3.0), Tensor(4.0), w)
    assert out.item() == pytest.approx(8.0)
