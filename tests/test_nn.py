"""Layers, optimiser, checkpoint and gradient-checker tests.

The layer tests pin exact closed-form outputs for hand-picked weights
(identity linear map, single-row standardisation degeneracy) and require
the fused ``linear``/``lbr``/``mlp`` ops to equal their tape-op chains in
``oracles.py`` bit for bit, except ``lbr``'s weight and input gradients,
which its closed-form backward gives to a measured tolerance; the Adam
tests pin the first-step magnitude, which Adam fixes at lr regardless of
gradient scale; the checkpoint tests do byte-level corruption.
"""

import struct

import numpy as np
import pytest

import pointfuse.nn as nn
import pointfuse.tensor as T
from oracles import lbr_chain, linear_chain, mlp_chain
from pointfuse.nn import (
    Adam,
    CheckpointError,
    LbrLayer,
    LinearLayer,
    Mlp,
    Rng,
    directional_gradcheck,
    gradcheck,
    lbr,
    linear,
    load_checkpoint,
    mlp,
    named_params,
    restore_params,
    save_checkpoint,
)
from pointfuse.config import NetworkConfig
from pointfuse.gradsuite import gradcheck_cases
from pointfuse.kitti import SyntheticSceneSpec, generate_scene
from pointfuse.losses import LossWeights
from pointfuse.pipeline import DetectionModel, compute_losses, prepare_scene
from pointfuse.tensor import EmptyInputError, NonFiniteError, ShapeError, Tensor


# -- rng ----------------------------------------------------------------------


def test_rng_is_deterministic_and_derivation_is_stable():
    a = Rng(7).normal((4,))
    b = Rng(7).normal((4,))
    assert np.array_equal(a, b)
    # derived streams are independent of parent draw order
    r1 = Rng(7)
    r1.normal((100,))
    c = r1.derive("child").normal((4,))
    d = Rng(7).derive("child").normal((4,))
    assert np.array_equal(c, d)
    assert not np.array_equal(c, Rng(7).derive("other").normal((4,)))


def test_rng_choice_without_replacement():
    got = Rng(3).choice(10, size=10)
    assert sorted(got.tolist()) == list(range(10))


# -- linear -------------------------------------------------------------------


def test_linear_identity_weights():
    lin = LinearLayer(Rng(0), 3, 3)
    lin.weight.data = np.eye(3)
    lin.bias.data = np.zeros(3)
    x = np.array([[1.0, 2.0, 3.0]])
    assert np.array_equal(lin(Tensor(x)).data, x)


def test_linear_hand_sum():
    lin = LinearLayer(Rng(0), 2, 1)
    lin.weight.data = np.array([[1.0], [1.0]])
    lin.bias.data = np.array([0.5])
    out = lin(Tensor([[1.0, 2.0]]))
    assert np.array_equal(out.data, [[3.5]])


def test_linear_keeps_leading_axes():
    lin = LinearLayer(Rng(1), 4, 2)
    x = Tensor(np.random.default_rng(0).standard_normal((3, 5, 4)))
    out = lin(x)
    assert out.shape == (3, 5, 2)
    flat = lin(T.reshape(x, (15, 4)))
    assert np.array_equal(out.data.reshape(15, 2), flat.data)
    with pytest.raises(ShapeError):
        lin(Tensor(np.zeros((3, 3))))


# -- lbr ----------------------------------------------------------------------


def test_lbr_standardize_output_statistics():
    layer = LbrLayer(Rng(2), 5, 4)
    x = Tensor(np.random.default_rng(1).standard_normal((64, 5)))
    out = layer(x)
    assert out.shape == (64, 4)
    assert np.all(out.data >= 0.0)  # ReLU output
    # before scale/shift/relu the features are standardised; with the
    # initial scale=1, shift=0 the positive part of each column should
    # average roughly like a half-normal
    assert out.data.mean() == pytest.approx(0.4, abs=0.15)


def test_lbr_single_row_degenerates_to_shifted_relu():
    # with one row the standardised activation is exactly 0, so the
    # output is relu(norm_shift) independent of the input
    layer = LbrLayer(Rng(3), 3, 2)
    layer.norm_shift.data = np.array([0.7, -0.2])
    out1 = layer(Tensor([[1.0, 2.0, 3.0]]))
    out2 = layer(Tensor([[-9.0, 0.0, 4.0]]))
    assert np.allclose(out1.data, [[0.7, 0.0]], atol=1e-12)
    assert np.array_equal(out1.data, out2.data)


def test_lbr_rejects_bad_inputs():
    layer = LbrLayer(Rng(5), 3, 2)
    with pytest.raises(ShapeError):
        layer(Tensor(np.zeros((4, 2))))
    with pytest.raises(EmptyInputError):
        layer(Tensor(np.zeros((0, 3))))


# -- fused layers against their tape-op chains ----------------------------------------


def _layer(kind, c_in=4, c_out=3, seed=9):
    """A layer with non-trivial norm parameters, its fused op and its chain."""
    if kind == "linear":
        return LinearLayer(Rng(seed), c_in, c_out), linear, linear_chain
    if kind == "mlp":
        return Mlp(Rng(seed), c_in, c_out + 2, c_out), mlp, mlp_chain
    layer = LbrLayer(Rng(seed), c_in, c_out)
    r = Rng(seed + 1)
    layer.norm_scale.data[...] = r.uniform(0.5, 1.5, c_out)
    layer.norm_shift.data[...] = r.uniform(-0.3, 0.3, c_out)
    return layer, lbr, lbr_chain


def _loss_and_grads(op, layer, x, w, second_consumer):
    """Backward twice through sum(op(x) * w) (plus sum(x * x) when x has a
    second consumer) from zeroed grads; returns the output, the loss and
    the leaf grads after each backward."""
    leaves = [p for _, p in named_params(layer, "l")] + ([x] if x.requires_grad else [])
    T.zero_grads(leaves)
    out = op(x, layer)
    loss = T.tsum(out * w)
    if second_consumer:
        loss = loss + T.tsum(x * x)
    grads = []
    for _ in range(2):     # the second backward accumulates onto the first
        loss.backward()
        grads.append([p.grad.copy() for p in leaves])
    return out, loss, grads


# lbr's backward is batch norm's closed form, not its chain's vjps, so
# its weight and input gradients agree with the chain's to rounding: at
# most 3.1e-15 of the largest |gradient| over 20 draws at each of 8
# shapes from (1, 5 -> 4) to (4096, 16 -> 48), 2.6e-16 on the shapes
# below.  With two rows the exact gradient is itself a cancellation
# residue, and both forms differ by up to 8e-11 of it.  With a subnormal
# upstream gradient the closed form's elementwise steps work on
# subnormals, and both forms differ by up to 1.7e-13 over 28 seeds.
LBR_GRAD_RTOL = 1e-14
LBR_SUBNORMAL_GRAD_RTOL = 1e-12


def _assert_same_gradients(kind, layer, got, want, rtol=LBR_GRAD_RTOL):
    """Bit for bit, except lbr's weight and input gradients: those within
    rtol of the largest |gradient|."""
    names = [n for n, _ in named_params(layer, "l")] + ["x"]
    for name, g, h in zip(names, got, want):
        if kind == "lbr-standardize" and name in ("l.weight", "x"):
            assert np.max(np.abs(g - h)) <= rtol * np.max(np.abs(h)), name
        else:
            assert g.tobytes() == h.tobytes(), name


@pytest.mark.parametrize("kind", ["linear", "lbr-standardize", "mlp"])
@pytest.mark.parametrize("shape", [(1, 4), (9, 4), (3, 5, 4)])
@pytest.mark.parametrize("x_mode", ["constant", "leaf", "leaf-two-consumers"])
def test_fused_layer_equals_its_chain_bit_for_bit(kind, shape, x_mode):
    layer, fused, chain = _layer(kind)
    r = Rng(len(shape) * 10 + shape[0])
    x = Tensor(r.normal(shape), requires_grad=x_mode != "constant")
    w = Tensor(r.normal(shape[:-1] + (3,)))
    second = x_mode == "leaf-two-consumers"
    got_out, got_loss, got = _loss_and_grads(fused, layer, x, w, second)
    want_out, want_loss, want = _loss_and_grads(chain, layer, x, w, second)
    assert got_out.shape == want_out.shape == shape[:-1] + (3,)
    assert got_out.data.tobytes() == want_out.data.tobytes()
    assert got_loss.data.tobytes() == want_loss.data.tobytes()
    for got_pass, want_pass in zip(got, want):
        _assert_same_gradients(kind, layer, got_pass, want_pass)


@pytest.mark.parametrize("kind", ["linear", "lbr-standardize", "mlp"])
def test_fused_layer_is_one_op_on_the_input_and_the_layer_parameters(kind):
    layer, fused, chain = _layer(kind)
    x = Tensor(Rng(3).normal((6, 4)))
    out = fused(x, layer)
    params = tuple(p for _, p in named_params(layer, "l"))
    assert len(out._parents) == len(out._vjp(np.ones(out.shape))) == 1 + len(params)
    assert all(a is b for a, b in zip(out._parents, (x,) + params))
    with T.no_grad():
        free = fused(x, layer)
        want = chain(x, layer)
    assert not free.requires_grad and free._parents == () and free._vjp is None
    assert free.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("kind", ["linear", "lbr-standardize", "mlp"])
def test_fused_layer_lifts_subnormal_gradients_as_its_chain_does(kind):
    # K = LIFT_MIN_K and a subnormal upstream gradient: both gradient
    # products are guarded, and lifted where the plain product would lose bits
    layer, fused, chain = _layer(kind, c_in=T.LIFT_MIN_K, c_out=5)
    r = Rng(12)
    x = Tensor(r.normal((7, T.LIFT_MIN_K)), requires_grad=True)
    w = Tensor(r.normal((7, 5)) * 1e-310)
    runs = []
    for op in (fused, chain):
        before = (T.grad_products_guarded, T.grad_products_lifted)
        _, _, grads = _loss_and_grads(op, layer, x, w, False)
        runs.append(((T.grad_products_guarded - before[0], T.grad_products_lifted - before[1]), grads))
    (got_counts, got), (want_counts, want) = runs
    assert got_counts == want_counts and got_counts[0] == 4     # two products, two backwards
    assert got_counts[1] > 0
    _assert_same_gradients(kind, layer, got[1], want[1], rtol=LBR_SUBNORMAL_GRAD_RTOL)


@pytest.mark.parametrize("kind, x, weight, scale, shift", [
    ("linear", [1e200, 1.0], 1e200, 1.0, 0.0),                    # x @ W overflows
    ("lbr-standardize", [1e200, 1.0], 1e200, 1.0, 0.0),           # pre-norm h overflows
    ("lbr-standardize", [1.5e308, 1.5e308], 1.0, 1.0, 0.0),       # the mean's sum overflows
    # the variance overflows: sd = inf makes the normalised output a finite 0
    ("lbr-standardize", [1e200, -1e200], 1.0, 1.0, 0.5),
    # the pre-ReLU value is -inf, which relu would turn into 0
    ("lbr-standardize", [-1.0, 1.0], 1.0, 1.5e308, -1e308),
    ("lbr-standardize", [-1.0, 1.0], 1.0, 1e308, -1e308),
])
def test_fused_layer_raises_where_its_chain_raises(kind, x, weight, scale, shift):
    layer, fused, chain = _layer(kind, c_in=1, c_out=1)
    layer.weight.data[...] = weight
    if kind == "linear":
        layer.bias.data[...] = 0.0
    else:
        layer.norm_scale.data[...] = scale
        layer.norm_shift.data[...] = shift
    x = Tensor(np.array(x).reshape(-1, 1))
    name = kind.split("-")[0]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError):
            chain(x, layer)
        with pytest.raises(NonFiniteError, match=rf"from {name} on operand shapes \[\(2, 1\), \(1, 1\)"):
            fused(x, layer)


@pytest.mark.parametrize("x, w1, w2, where", [
    ([1e200, 1.0], 1e200, 1.0, "the hidden layer"),
    ([1e200, 1.0], 1e100, 1e200, "the output"),
])
def test_mlp_raises_where_its_chain_raises(x, w1, w2, where):
    layer, _, _ = _layer("mlp", c_in=1, c_out=1)
    for fc, w in ((layer.fc1, w1), (layer.fc2, w2)):
        fc.weight.data[...] = w
        fc.bias.data[...] = 0.0
    x = Tensor(np.array(x).reshape(-1, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match="from linear"):
            mlp_chain(x, layer)
        with pytest.raises(NonFiniteError, match=r"from mlp on operand shapes \[\(2, 1\), \(1, 3\)"):
            mlp(x, layer)


def test_mlp_with_frozen_first_layer_computes_only_the_second_layers_gradients():
    # no parent below the ReLU needs a gradient: like the chain, the fused
    # op skips the hidden layer's gradient product (guarded: K = LIFT_MIN_K)
    layer, _, _ = _layer("mlp", c_in=4, c_out=T.LIFT_MIN_K - 2)
    layer.fc1.weight.requires_grad = layer.fc1.bias.requires_grad = False
    x = Tensor(Rng(13).normal((7, 4)))
    w = Tensor(Rng(14).normal((7, T.LIFT_MIN_K - 2)))
    runs = []
    for op in (mlp, mlp_chain):
        T.zero_grads([layer.fc2.weight, layer.fc2.bias])
        before = T.grad_products_guarded
        T.tsum(op(x, layer) * w).backward()
        runs.append((T.grad_products_guarded - before,
                     layer.fc2.weight.grad.tobytes(), layer.fc2.bias.grad.tobytes()))
    assert runs[0] == runs[1] and runs[0][0] == 1


def test_lbr_and_mlp_gradients():
    layer = LbrLayer(Rng(6), 4, 3)
    x = Tensor(np.random.default_rng(2).standard_normal((6, 4)), requires_grad=True)
    leaves = [x] + [p for _, p in named_params(layer, "l")]
    err = gradcheck(lambda: T.tsum(layer(x) ** 2), leaves, rng=Rng(60))
    assert err < 1e-6
    mlp = Mlp(Rng(7), 4, 5, 2)
    leaves = [x] + [p for _, p in named_params(mlp, "m")]
    err = gradcheck(lambda: T.tsum(mlp(x) ** 2), leaves, rng=Rng(61))
    assert err < 1e-6


# -- adam ---------------------------------------------------------------------


def adam_step(param: Tensor, grad: np.ndarray, state: dict, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
              weight_decay: float = 0.0) -> None:
    """Per-tensor coupled-L2 Adam update: the oracle for the arena Adam.

    ``state`` holds m, v and the step counter t; an empty dict means a
    fresh zero state.
    """
    if not state:
        state["m"] = np.zeros_like(param.data)
        state["v"] = np.zeros_like(param.data)
        state["t"] = 0
    g = grad + weight_decay * param.data
    state["t"] += 1
    t = state["t"]
    state["m"] = beta1 * state["m"] + (1.0 - beta1) * g
    state["v"] = beta2 * state["v"] + (1.0 - beta2) * g * g
    m_hat = state["m"] / (1.0 - beta1 ** t)
    v_hat = state["v"] / (1.0 - beta2 ** t)
    param.data = param.data - lr * m_hat / (np.sqrt(v_hat) + eps)


def adam_one_pass(opt: Adam) -> None:
    """The arena Adam step as one pass over the whole arena: the oracle
    for the blocked ``Adam.step``."""
    if opt.m is None:
        opt.m = np.zeros_like(opt.data)
        opt.v = np.zeros_like(opt.data)
    opt.t += 1
    g = opt.grad + opt.weight_decay * opt.data
    opt.m *= opt.beta1
    opt.m += (1.0 - opt.beta1) * g
    opt.v *= opt.beta2
    opt.v += (1.0 - opt.beta2) * g * g
    upd = opt.m / (1.0 - opt.beta1 ** opt.t)
    denom = opt.v / (1.0 - opt.beta2 ** opt.t)
    np.sqrt(denom, out=denom)
    denom += opt.eps
    upd *= opt.lr
    upd /= denom
    np.subtract(opt.data, upd, out=opt.data)


def test_adam_first_step_magnitude_is_lr():
    # bias correction cancels on step 1: update = lr * g / (|g| + eps),
    # i.e. lr to within eps/|g| whatever the gradient magnitude
    for g in (1e-6, 1.0, 1e6):
        p = Tensor([0.0], requires_grad=True)
        opt = Adam({"p": p}, lr=0.01)
        p.grad[...] = g
        opt.step()
        assert p.data[0] == pytest.approx(-0.01 * g / (g + 1e-8), rel=1e-12)


def test_adam_zero_lr_is_a_no_op():
    p = Tensor([1.5], requires_grad=True)
    opt = Adam({"p": p}, lr=0.0, weight_decay=0.1)
    p.grad[...] = 2.0
    opt.step()
    assert p.data[0] == 1.5


def test_adam_holds_parameters_as_views_of_one_arena():
    params = {"b": Tensor(np.arange(3.0), requires_grad=True),
              "a": Tensor(np.ones((2, 2)), requires_grad=True)}
    opt = Adam(params, lr=0.1)
    # sorted by name: a's four entries come first
    assert np.array_equal(opt.data, [1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 2.0])
    assert opt.grad.shape == (7,) and not opt.grad.any()
    for p in params.values():
        assert np.shares_memory(p.data, opt.data) and np.shares_memory(p.grad, opt.grad)
    T.tsum(params["a"] * 2.0).backward()
    assert np.array_equal(opt.grad[:4], np.full(4, 2.0))
    opt.zero_grad()
    assert not opt.grad.any() and not params["b"].grad.any()
    with pytest.raises(ValueError):
        Adam({"x": params["a"], "y": params["a"]})


def test_adam_rejects_a_non_finite_update():
    p = Tensor([1e308], requires_grad=True)
    opt = Adam({"p": p}, lr=-1e308)
    p.grad[...] = 1.0
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError):
            opt.step()


def test_adam_rejects_a_non_finite_update_in_an_early_block(monkeypatch):
    monkeypatch.setattr(nn, "ADAM_BLOCK", 1)
    p = Tensor([1e308, 0.0, 0.0], requires_grad=True)
    opt = Adam({"p": p}, lr=-1e308)
    p.grad[...] = [1.0, 0.0, 0.0]
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError):
            opt.step()


def _desk_model_and_scene():
    cfg = NetworkConfig.desk()
    scene = generate_scene(SyntheticSceneSpec(), Rng(21))
    prepared = prepare_scene(scene, cfg, Rng(22))
    return cfg, prepared


def test_arena_adam_matches_per_tensor_updates_bit_for_bit():
    cfg, prepared = _desk_model_and_scene()
    weights = LossWeights()
    settings = dict(lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.01)
    arena = DetectionModel(cfg, Rng(23))
    oracle = DetectionModel(cfg, Rng(23))
    opt = Adam(arena.params(), **settings)
    states = {}
    for _ in range(5):
        opt.zero_grad()
        arena_total, _ = compute_losses(prepared, arena.forward(prepared), weights)
        arena_total.backward()
        opt.step()

        params = oracle.params()
        T.zero_grads(params.values())
        oracle_total, _ = compute_losses(prepared, oracle.forward(prepared), weights)
        oracle_total.backward()
        for name in sorted(params):
            p = params[name]
            adam_step(p, p.grad, states.setdefault(name, {}), **settings)
        assert arena_total.data.tobytes() == oracle_total.data.tobytes()
    got, want = arena.params(), oracle.params()
    for name in want:
        assert got[name].data.tobytes() == want[name].data.tobytes(), name


def check_blocked_adam_against_one_pass(monkeypatch, block, make_model):
    """Five steps with weight decay from two identical models, one stepped
    by the blocked Adam.step at ``block``, one by the one-pass oracle:
    the losses and the data, m and v arenas must match bit for bit.
    ``make_model`` returns a parameter dict and a loss closure."""
    settings = dict(lr=0.01, weight_decay=0.01)
    runs = []
    for step in (Adam.step, adam_one_pass):
        params, loss_of = make_model()
        runs.append((Adam(params, **settings), loss_of, step))
    monkeypatch.setattr(nn, "ADAM_BLOCK", block)
    for _ in range(5):
        losses = []
        for opt, loss_of, step in runs:
            opt.zero_grad()
            total = loss_of()
            total.backward()
            step(opt)
            losses.append(total.data.tobytes())
        assert losses[0] == losses[1]
    (blocked, _, _), (oracle, _, _) = runs
    for arena in ("data", "m", "v"):
        assert getattr(blocked, arena).tobytes() == getattr(oracle, arena).tobytes(), arena


@pytest.mark.parametrize("block", [11, 10**9])    # does not divide the desk arena; exceeds it
def test_blocked_adam_matches_the_one_pass_step_on_desk_steps(monkeypatch, block):
    cfg, prepared = _desk_model_and_scene()

    def make_model():
        model = DetectionModel(cfg, Rng(23))
        return model.params(), lambda: compute_losses(prepared, model.forward(prepared), LossWeights())[0]

    assert sum(p.data.size for p in make_model()[0].values()) % 11
    check_blocked_adam_against_one_pass(monkeypatch, block, make_model)


def test_blocked_adam_matches_the_one_pass_step_with_one_entry_blocks(monkeypatch):
    # a desk step at block size 1 takes seconds, so a small model stands in
    x = Tensor(Rng(4).normal((5, 4)))

    def make_model():
        mlp = Mlp(Rng(5), 4, 6, 3)
        return dict(named_params(mlp, "m")), lambda: T.tsum(mlp(x) ** 2)

    check_blocked_adam_against_one_pass(monkeypatch, 1, make_model)


def test_adam_descends_a_quadratic():
    p = Tensor([5.0], requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    for _ in range(300):
        opt.zero_grad()
        loss = T.tsum(p * p)
        loss.backward()
        opt.step()
    assert abs(p.data[0]) < 0.05


def test_adam_step_order_does_not_depend_on_insertion_order():
    def run(names):
        rng = np.random.default_rng(5)
        params = {}
        for n in names:
            params[n] = Tensor(np.ones(2), requires_grad=True)
        opt = Adam(params, lr=0.05)
        for _ in range(3):
            opt.zero_grad()
            loss = T.tsum(sum((params[n] * params[n] for n in sorted(params)), Tensor(0.0)))
            loss.backward()
            opt.step()
        return {n: params[n].data.copy() for n in params}

    a = run(["w", "b", "scale"])
    b = run(["scale", "w", "b"])
    for n in a:
        assert np.array_equal(a[n], b[n])


# -- checkpoints ----------------------------------------------------------------


def _named_params():
    rng = Rng(8)
    return [("layer.weight", Tensor(rng.normal((3, 4)), requires_grad=True)),
            ("layer.bias", Tensor(rng.normal((4,)), requires_grad=True)),
            ("head.weight", Tensor(rng.normal((4, 1)), requires_grad=True))]


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    named = _named_params()
    path = str(tmp_path / "ck.bin")
    save_checkpoint(path, named)
    loaded = load_checkpoint(path)
    assert set(loaded) == {n for n, _ in named}
    for n, p in named:
        assert np.array_equal(loaded[n], p.data)
        assert loaded[n].dtype == np.float64
    # byte-stable across rewrites
    save_checkpoint(str(tmp_path / "ck2.bin"), named)
    assert (tmp_path / "ck.bin").read_bytes() == (tmp_path / "ck2.bin").read_bytes()


def test_checkpoint_restore_validates_names_and_shapes(tmp_path):
    named = _named_params()
    path = str(tmp_path / "ck.bin")
    save_checkpoint(path, named)
    loaded = load_checkpoint(path)
    params = {n: Tensor(np.zeros_like(p.data), requires_grad=True) for n, p in named}
    restore_params(params, loaded)
    for n, p in named:
        assert np.array_equal(params[n].data, p.data)
    with pytest.raises(CheckpointError):
        restore_params({"layer.weight": params["layer.weight"]}, loaded)  # missing names
    bad = {n: Tensor(np.zeros((9, 9)), requires_grad=True) for n in params}
    with pytest.raises(CheckpointError):
        restore_params(bad, loaded)


def test_checkpoint_load_writes_into_parameters_the_optimiser_holds(tmp_path):
    cfg, prepared = _desk_model_and_scene()
    source = DetectionModel(cfg, Rng(31))
    path = str(tmp_path / "model.bin")
    source.save(path)
    model = DetectionModel(cfg, Rng(32))
    opt = Adam(model.params(), lr=0.01)
    model.load(path)
    params = model.params()
    for name, p in source.params().items():
        assert np.array_equal(params[name].data, p.data)
    assert opt.data.tobytes() == b"".join(p.data.tobytes() for _, p in sorted(params.items()))

    before = {n: p.data.copy() for n, p in params.items()}
    opt.zero_grad()
    total, _ = compute_losses(prepared, model.forward(prepared), LossWeights())
    total.backward()
    opt.step()
    moved = [n for n, p in params.items() if not np.array_equal(p.data, before[n])]
    assert len(moved) > len(params) // 2  # the model sees the optimiser's update

    # a rejected checkpoint leaves every parameter as it was
    after = {n: p.data.copy() for n, p in params.items()}
    loaded = load_checkpoint(path)
    last = list(params)[-1]  # checked after every other name
    for bad_value in (np.nan, np.inf):
        corrupt = dict(loaded)
        corrupt[last] = loaded[last].copy()
        corrupt[last].reshape(-1)[0] = bad_value
        with pytest.raises(CheckpointError):
            restore_params(params, corrupt)
    corrupt = dict(loaded)
    corrupt[last] = np.zeros(loaded[last].shape + (1,))
    with pytest.raises(CheckpointError):
        restore_params(params, corrupt)
    for n, p in params.items():
        assert np.array_equal(p.data, after[n]), n
        assert np.shares_memory(p.data, opt.data)


def test_checkpoint_corruption_is_detected(tmp_path):
    named = _named_params()
    path = str(tmp_path / "ck.bin")
    save_checkpoint(path, named)
    blob = bytearray((tmp_path / "ck.bin").read_bytes())

    wrong_magic = bytes(b"XXXX") + bytes(blob[4:])
    (tmp_path / "m.bin").write_bytes(wrong_magic)
    with pytest.raises(CheckpointError):
        load_checkpoint(str(tmp_path / "m.bin"))

    (tmp_path / "t.bin").write_bytes(bytes(blob[:-9]))  # truncated payload
    with pytest.raises(CheckpointError):
        load_checkpoint(str(tmp_path / "t.bin"))

    (tmp_path / "x.bin").write_bytes(bytes(blob) + b"\x00")  # trailing junk
    with pytest.raises(CheckpointError):
        load_checkpoint(str(tmp_path / "x.bin"))

    # saved in name order (head.weight, layer.bias, layer.weight), so the
    # second tensor's name is "layer.bias"
    (tmp_path / "u.bin").write_bytes(bytes(blob).replace(b"layer.bias", b"layer.bia\xff"))
    with pytest.raises(CheckpointError, match="name of tensor 1 is not utf-8"):
        load_checkpoint(str(tmp_path / "u.bin"))

    renamed = bytes(blob).replace(struct.pack("<I", 10) + b"layer.bias",
                                  struct.pack("<I", 11) + b"head.weight")
    (tmp_path / "d.bin").write_bytes(renamed)       # one name listed twice
    with pytest.raises(CheckpointError, match="'head.weight' listed twice"):
        load_checkpoint(str(tmp_path / "d.bin"))

    # the writer rejects the same fault instead of keeping the last pair
    twice = named + [("layer.bias", Tensor(np.zeros(4)))]
    with pytest.raises(CheckpointError, match="'layer.bias' listed twice"):
        save_checkpoint(str(tmp_path / "w.bin"), twice)
    assert not (tmp_path / "w.bin").exists()


# -- gradcheck ------------------------------------------------------------------


def test_gradcheck_accepts_correct_gradients():
    x = Tensor(np.random.default_rng(3).standard_normal((4, 4)), requires_grad=True)
    err = gradcheck(lambda: T.tsum(T.sigmoid(x) * x), [x], rng=Rng(62))
    assert err < 1e-7


def test_gradcheck_flags_a_wrong_vjp():
    x = Tensor(np.random.default_rng(4).standard_normal(5), requires_grad=True)

    def broken_square():
        # forward x^2 but claims d/dx = 3x instead of 2x
        return T.tsum(Tensor._result(x.data ** 2, (x,), lambda g: (g * 3.0 * x.data,)))

    err = gradcheck(broken_square, [x], rng=Rng(63))
    assert err > 0.1


def test_gradcheck_reports_the_margin_its_error_hides():
    x = Tensor(np.random.default_rng(4).standard_normal(6), requires_grad=True)
    report = []
    err = gradcheck(lambda: T.tsum(T.sigmoid(x) * x), [x], rng=Rng(62), report=report)
    assert err == gradcheck(lambda: T.tsum(T.sigmoid(x) * x), [x], rng=Rng(62))
    [(max_abs, skipped, probed)] = report
    # every coordinate agrees within the 1e-7 skip rule: the error reads 0,
    # the margin does not
    assert err == 0.0 and skipped == probed == 6 and 0.0 < max_abs <= 1e-7
    gradcheck(lambda: T.tsum(Tensor._result(x.data ** 2, (x,), lambda g: (g * 3.0 * x.data,))),
              [x], rng=Rng(63), report=report)
    assert report[1][0] > 0.1 and report[1][1] < 6


# On clean code every gradsuite case reads at most 3.4e-10 at seed 0
# (idw-interpolation).  With lbr's input vjp scaled by 1 + 1e-6, the three
# lbr cases read 4.3e-8 to 9.6e-7 and the three network-level cases, which
# gradcheck passes at 1e-4, read 9.8e-9 (image-encoder-heads), 7.9e-6 and
# 1.1e-5.
DIRECTIONAL_TOL = 3e-9


def test_directional_gradcheck_sees_an_error_that_gradcheck_skips():
    x = Tensor(np.random.default_rng(5).standard_normal(6) * 1e-4, requires_grad=True)

    def square(factor):
        return lambda: T.tsum(Tensor._result(x.data ** 2, (x,), lambda g: (g * 2.0 * factor * x.data,)))

    assert directional_gradcheck(square(1.0), [x], rng=Rng(64)) < 1e-9
    wrong = directional_gradcheck(square(1.0 + 1e-6), [x], rng=Rng(64))
    assert 5e-7 < wrong < 2e-6
    # every derivative here is below 1e-3, so a 1e-6 relative error stays
    # inside gradcheck's 1e-7 absolute skip rule
    assert gradcheck(square(1.0 + 1e-6), [x], rng=Rng(64)) == 0.0
    assert x.grad.tobytes() == np.zeros(6).tobytes()


def test_every_gradsuite_case_passes_the_directional_check():
    report = []
    names = []
    for name, _, fn in gradcheck_cases(0, report):
        fn()
        names.append(name)
    assert len(report) == len(names)
    errors = {name: entry[3] for name, entry in zip(names, report)}
    assert {n: e for n, e in errors.items() if not e <= DIRECTIONAL_TOL} == {}

