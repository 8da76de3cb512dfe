"""Autodiff core tests.

Covers, in rough order:
  forward values and closed-form gradients for every op,
  the branch-free relu and sigmoid against their masked forms, byte
    for byte,
  broadcasting reduction in the backward pass,
  subgradient conventions (relu/abs at 0, clamp at the boundary,
    first-argmax ties),
  grid sampling (exact affine reproduction, position gradients),
  the fused frustum read against the read of the built volume,
  the subnormal-lifted matmul gradient products and their counters,
  the node contract: one vjp per node, one gradient per parent and
    None, at no cost, for each parent that does not require grad,
  graph mechanics (reuse accumulation, zero_grad, leaf-only
    grad buffers, no_grad),
  the finite-value guard,
  and the ndarray-on-the-left operator regression.
"""

from fractions import Fraction

import numpy as np
import pytest

import pointfuse.tensor as T
from pointfuse.frustum import DepthPrediction, ImageFeatureGrid, build_frustum
from pointfuse.fusion import attend, idw_interpolate
from pointfuse.nn import LbrLayer, LinearLayer, Mlp, Rng, _mlp_hidden, gradcheck, lbr, linear, mlp
from pointfuse.tensor import (
    EmptyInputError,
    NonFiniteError,
    ShapeError,
    Tensor,
)

from oracles import (bilinear_grid_grad, exp, relu_where, scatter_add_at, sigmoid_masked, sqrt,
                     trilinear_grid_grad)


def leaf(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


# -- forward values ----------------------------------------------------------


def test_arithmetic_forward_matches_numpy():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4)) + 3.0  # keep division well away from 0
    ta, tb = Tensor(a), Tensor(b)
    assert np.array_equal((ta + tb).data, a + b)
    assert np.array_equal((ta - tb).data, a - b)
    assert np.array_equal((ta * tb).data, a * b)
    assert np.array_equal((ta / tb).data, a / b)
    assert np.array_equal((-ta).data, -a)
    assert np.array_equal((ta ** 3).data, a ** 3)


def test_scalar_and_reflected_operands():
    x = Tensor([1.0, 2.0])
    assert np.array_equal((2.0 + x).data, [3.0, 4.0])
    assert np.array_equal((2.0 - x).data, [1.0, 0.0])
    assert np.array_equal((2.0 * x).data, [2.0, 4.0])
    assert np.array_equal((2.0 / x).data, [2.0, 1.0])


def test_softmax_known_values():
    # logits [0, ln 2] -> probabilities [1/3, 2/3]
    s = T.softmax(Tensor([0.0, np.log(2.0)]), axis=0)
    assert np.allclose(s.data, [1.0 / 3.0, 2.0 / 3.0], atol=1e-15)
    # rows sum to one for arbitrary input
    rng = np.random.default_rng(1)
    p = T.softmax(Tensor(rng.standard_normal((5, 7)) * 30.0), axis=1)
    assert np.allclose(p.data.sum(axis=1), 1.0, atol=1e-12)
    assert p.data.min() >= 0.0


def test_softmax_shift_invariance():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(6)
    a = T.softmax(Tensor(x), axis=0).data
    b = T.softmax(Tensor(x + 1234.5), axis=0).data
    assert np.allclose(a, b, atol=1e-12)


def test_sigmoid_is_stable_at_large_magnitude():
    s = T.sigmoid(Tensor([-800.0, 0.0, 800.0]))
    assert np.all(np.isfinite(s.data))
    assert s.data[0] >= 0.0 and s.data[2] <= 1.0
    assert s.data[1] == 0.5


def branch_free_inputs():
    """Signed zeros, the smallest subnormals, magnitudes whose exp
    overflows and random normals at lengths around the SIMD widths, plus
    a strided view such as the depth head's residual half."""
    rng = np.random.default_rng(71)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 800.0, -800.0, 1e-320, -1e-320, 30.0, -30.0])
    out = [special]
    for n in (1, 3, 7, 8, 9, 16, 17, 33, 1001):
        for scale in (1.0, 40.0):
            x = rng.standard_normal(n) * scale
            x[::5] = -0.0
            out.append(x)
    out.append(np.concatenate([special, rng.standard_normal(502)]).reshape(8, 8, 8)[:, :, 4:])
    return out


def test_relu_and_sigmoid_equal_their_masked_forms_byte_for_byte():
    for x in branch_free_inputs():
        assert T.relu(Tensor(x)).data.tobytes() == relu_where(Tensor(x)).data.tobytes(), x
        assert T.sigmoid(Tensor(x)).data.tobytes() == sigmoid_masked(x).tobytes(), x
    # -0.0 comes out as +0.0, as np.where's 0 does
    assert not np.signbit(T.relu(Tensor([-0.0, -5e-324])).data).any()


def test_mlp_hidden_layer_equals_the_masked_relu_byte_for_byte():
    rng = Rng(72)
    for x in branch_free_inputs():
        rows = x.reshape(-1, 1)
        for c_out in (1, 5, 48):
            fc1 = LinearLayer(rng.derive(f"fc1/{x.size}/{c_out}"), 1, c_out)
            if c_out == 1:
                # pass the special values through to the ReLU unchanged
                fc1.weight.data[...] = 1.0
                fc1.bias.data[...] = -0.0
            hidden = _mlp_hidden(rows, fc1, lambda *arrays: None)
            pre = rows @ fc1.weight.data + fc1.bias.data
            assert hidden.tobytes() == relu_where(Tensor(pre)).data.tobytes()


def test_unary_forward_values():
    x = np.array([0.25, 1.0, 4.0])
    assert np.allclose(exp(Tensor(x)).data, np.exp(x))
    assert np.allclose(T.log(Tensor(x)).data, np.log(x))
    assert np.allclose(sqrt(Tensor(x)).data, np.sqrt(x))
    assert np.array_equal(T.absolute(Tensor([-2.0, 0.0, 3.0])).data, [2.0, 0.0, 3.0])
    assert np.array_equal(T.relu(Tensor([-2.0, 0.0, 3.0])).data, [0.0, 0.0, 3.0])
    assert np.array_equal(T.clamp(Tensor([-2.0, 0.5, 3.0]), 0.0, 1.0).data, [0.0, 0.5, 1.0])


def test_reductions_match_numpy():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 3, 4))
    assert np.isclose(T.tsum(Tensor(x)).item(), x.sum())
    assert np.allclose(T.tsum(Tensor(x), axis=1).data, x.sum(axis=1))
    assert np.allclose(T.tsum(Tensor(x), axis=(0, 2), keepdims=True).data,
                       x.sum(axis=(0, 2), keepdims=True))
    assert np.allclose(T.tmean(Tensor(x), axis=-1).data, x.mean(axis=-1))
    assert np.allclose(T.amax(Tensor(x), axis=2).data, x.max(axis=2))


def test_maxpool_group_is_channelwise_max():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 6, 3))
    out = T.maxpool_group(Tensor(x))
    assert out.shape == (5, 3)
    assert np.array_equal(out.data, x.max(axis=1))
    with pytest.raises(ShapeError):
        T.maxpool_group(Tensor(np.zeros((5, 6))))
    with pytest.raises(EmptyInputError):
        T.maxpool_group(Tensor(np.zeros((5, 0, 3))))


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


def test_shape_ops_round_trip():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 3, 4))
    assert np.array_equal(T.reshape(Tensor(x), (6, 4)).data, x.reshape(6, 4))
    assert np.array_equal(T.transpose(Tensor(x), (2, 0, 1)).data, x.transpose(2, 0, 1))
    assert np.array_equal(T.narrow(Tensor(x), 1, 1, 2).data, x[:, 1:3, :])
    cat = T.concat([Tensor(x), Tensor(2.0 * x)], axis=2)
    assert np.array_equal(cat.data, np.concatenate([x, 2.0 * x], axis=2))


def test_gather_rows_forward_and_validation():
    x = np.arange(12.0).reshape(4, 3)
    idx = np.array([[3, 0], [1, 1]])
    out = T.gather_rows(Tensor(x), idx)
    assert out.shape == (2, 2, 3)
    assert np.array_equal(out.data, x[idx])
    with pytest.raises(ShapeError):
        T.gather_rows(Tensor(x), np.array([0.5]))
    with pytest.raises(ShapeError):
        T.gather_rows(Tensor(x), np.array([4]))


# -- gradients: closed forms and conventions ---------------------------------


def test_backward_accumulates_through_reuse():
    x = Tensor([3.0], requires_grad=True)
    y = x + x  # same node twice
    (y * y).backward()  # d/dx (2x)^2 = 8x = 24
    assert np.allclose(x.grad, [24.0])


def test_zero_grad_and_repeated_backward():
    x = Tensor([2.0], requires_grad=True)
    (x * x).backward()
    (x * x).backward()
    assert np.allclose(x.grad, [8.0])  # accumulated twice
    x.zero_grad()
    assert np.array_equal(x.grad, [0.0])


def test_only_leaves_hold_grad_buffers():
    x = Tensor([1.0, 2.0], requires_grad=True)
    c = Tensor([3.0, 4.0])
    assert c.grad is None
    mid = exp(x) * c
    out = T.tsum(mid * mid)
    assert mid.grad is None and out.grad is None
    out.backward()
    assert mid.grad is None and out.grad is None and c.grad is None
    want = 2.0 * np.exp(2.0 * x.data) * c.data ** 2
    assert np.allclose(x.grad, want, rtol=1e-14)
    first = x.grad.copy()
    T.tsum(mid * mid).backward()  # a second backward over the same tape accumulates
    assert np.array_equal(x.grad, first + first)


def test_no_grad_builds_no_tape():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with T.no_grad():
        y = T.tsum(exp(x) * x)
        leaf = Tensor([3.0], requires_grad=True)  # leaves keep their own flag
    assert not y.requires_grad and y._parents == () and y.grad is None
    assert leaf.requires_grad and np.array_equal(leaf.grad, [0.0])
    y.backward()  # nothing to walk
    assert not x.grad.any()
    assert T.tsum(exp(x) * x).data == y.data
    assert T.tsum(x * x).requires_grad


def test_no_grad_nests_and_restores_on_exceptions():
    x = Tensor([1.0], requires_grad=True)
    with T.no_grad():
        with T.no_grad():
            assert not (x * x).requires_grad
        assert not (x * x).requires_grad
    assert (x * x).requires_grad
    with pytest.raises(NonFiniteError):
        with T.no_grad():
            Tensor([np.inf])
    assert (x * x).requires_grad
    with pytest.raises(KeyError):
        with T.no_grad():
            with T.no_grad():
                raise KeyError("boom")
    assert (x * x).requires_grad


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        (x * 2.0).backward()


def test_broadcast_unbroadcast_gradients():
    a = Tensor(np.ones((3, 1)), requires_grad=True)
    b = Tensor(np.ones(4), requires_grad=True)
    T.tsum(a * b).backward()
    assert np.array_equal(a.grad, np.full((3, 1), 4.0))
    assert np.array_equal(b.grad, np.full(4, 3.0))


def test_subgradient_conventions_at_kinks():
    # relu'(0) = 0, d|x|/dx at 0 = 0, clamp gradient 0 at the boundary
    x = Tensor([0.0], requires_grad=True)
    T.tsum(T.relu(x)).backward()
    assert np.array_equal(x.grad, [0.0])
    x.zero_grad()
    T.tsum(T.absolute(x)).backward()
    assert np.array_equal(x.grad, [0.0])
    y = Tensor([0.0, 0.5, 1.0], requires_grad=True)
    T.tsum(T.clamp(y, 0.0, 1.0)).backward()
    assert np.array_equal(y.grad, [0.0, 1.0, 0.0])


def test_amax_tie_gradient_goes_to_first():
    x = Tensor([[1.0, 5.0, 5.0]], requires_grad=True)
    T.tsum(T.amax(x, axis=1)).backward()
    assert np.array_equal(x.grad, [[0.0, 1.0, 0.0]])


def test_gather_rows_scatter_add_backward():
    x = Tensor(np.zeros((4, 2)), requires_grad=True)
    idx = np.array([0, 2, 2, 2])
    T.tsum(T.gather_rows(x, idx)).backward()
    counts = np.array([1.0, 0.0, 3.0, 0.0])
    assert np.array_equal(x.grad, np.repeat(counts[:, None], 2, axis=1))


def upstream(rng, shape):
    # magnitudes spread over six decades, so the order of the adds shows
    # in the rounding of every heavily repeated cell
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, size=shape)


def test_gather_rows_backward_equals_add_at_bit_for_bit():
    rng = np.random.default_rng(30)
    for shape, idx_shape in (((5,), (40,)), ((6, 3), (50, 4)), ((4, 2, 3), (30,))):
        a = Tensor(rng.standard_normal(shape), requires_grad=True)
        idx = rng.integers(0, shape[0], size=idx_shape)
        g = upstream(rng, idx_shape + shape[1:])
        T.tsum(T.gather_rows(a, idx) * g).backward()
        assert np.array_equal(a.grad, scatter_add_at(shape, idx, g)), shape
    empty = Tensor(np.ones((3, 2)), requires_grad=True)
    T.tsum(T.gather_rows(empty, np.zeros(0, dtype=np.int64))).backward()
    assert np.array_equal(empty.grad, np.zeros((3, 2)))


def test_sampler_grid_gradients_equal_per_corner_add_at_bit_for_bit():
    # few cells, many reads: every cell sums dozens of terms from all
    # corners, so one sum per corner would round differently
    rng = np.random.default_rng(31)
    for trial in range(3):
        grid = Tensor(rng.standard_normal((3, 4, 2)), requires_grad=True)
        uv = rng.uniform(-0.5, 3.5, size=(200, 2))
        g = upstream(rng, (200, 2))
        T.tsum(T.bilinear_sample(grid, Tensor(uv)) * g).backward()
        assert np.array_equal(grid.grad, bilinear_grid_grad(grid.shape, uv, g)), trial
        vol = Tensor(rng.standard_normal((2, 3, 4, 2)), requires_grad=True)
        uvd = rng.uniform(-0.5, 3.5, size=(200, 3))
        g = upstream(rng, (200, 2))
        T.tsum(T.trilinear_sample(vol, Tensor(uvd)) * g).backward()
        assert np.array_equal(vol.grad, trilinear_grid_grad(vol.shape, uvd, g)), trial


def test_gradcheck_every_smooth_op():
    nrng = np.random.default_rng(6)
    x = leaf(nrng, 3, 4)
    y = leaf(nrng, 3, 4)
    w = leaf(nrng, 4, 5)
    pos = Tensor(np.abs(nrng.standard_normal((3, 4))) + 0.5, requires_grad=True)
    cases = [
        (lambda: T.tsum((x + y) * (x - y)), [x, y]),
        (lambda: T.tsum(x / (pos + 1.0)), [x, pos]),
        (lambda: T.tsum(exp(x * 0.3)), [x]),
        (lambda: T.tsum(T.log(pos)), [pos]),
        (lambda: T.tsum(sqrt(pos)), [pos]),
        (lambda: T.tsum(T.sigmoid(x) ** 2), [x]),
        (lambda: T.tsum(T.matmul(x, w)), [x, w]),
        (lambda: T.tsum(T.softmax(x, axis=1) * y), [x, y]),
        (lambda: T.tmean(T.tsum(x, axis=0, keepdims=True) * y), [x, y]),
        (lambda: T.tsum(T.transpose(T.reshape(x, (4, 3)), (1, 0)) * y), [x]),
        (lambda: T.tsum(T.concat([x, y], axis=1) ** 2), [x, y]),
        (lambda: T.tsum(T.narrow(x, 1, 1, 2) * 3.0), [x]),
        (lambda: T.tsum(T.gather_rows(x, np.array([0, 2, 2])) * 2.0), [x]),
    ]
    for i, (fn, leaves) in enumerate(cases):
        err = gradcheck(fn, leaves, rng=Rng(100 + i))
        assert err < 1e-6, f"case {i}: rel err {err:.3e}"


def test_gradcheck_nonsmooth_ops_away_from_kinks():
    nrng = np.random.default_rng(7)
    # keep probe points at least 10*h away from each branch boundary
    base = nrng.standard_normal((4, 5))
    base[np.abs(base) < 1e-2] = 0.5
    x = Tensor(base, requires_grad=True)
    for i, fn in enumerate([
        lambda: T.tsum(T.relu(x) * 1.7),
        lambda: T.tsum(T.absolute(x)),
        lambda: T.tsum(T.clamp(x, -0.8, 0.8) ** 2),
        lambda: T.tsum(T.amax(x, axis=1)),
        lambda: T.tsum(T.maxpool_group(T.reshape(x, (2, 5, 2)))),
    ]):
        err = gradcheck(fn, [x], rng=Rng(200 + i))
        assert err < 1e-6, f"case {i}: rel err {err:.3e}"


# -- lifted gradient products -------------------------------------------------
#
# The two gradients of one matmul's vjp: g -> g @ b.T and g -> a.T @ g.

SUBNORMAL_ULP = 2.0 ** -1074


def matmul_grads(a, b, g):
    return T.matmul(Tensor(a, requires_grad=True), Tensor(b, requires_grad=True))._vjp(g)


def plant_subnormals(rng, g, count):
    """g with ``count`` random entries replaced by nonzero subnormals."""
    g = g.copy()
    flat = g.reshape(-1)
    flat[rng.choice(flat.size, count, replace=False)] = rng.uniform(0.05, 1.0, count) * T._TINY
    return g


def test_lifted_gradient_products_equal_plain_ones_on_normal_gradients(monkeypatch):
    rng = np.random.default_rng(40)
    a = rng.standard_normal((64, T.LIFT_MIN_K))
    b = rng.standard_normal((T.LIFT_MIN_K, 48))
    g = rng.standard_normal((64, 48))
    monkeypatch.setattr(T, "_TINY", np.inf)    # every nonzero entry counts: always lift
    lifted = T.grad_products_lifted
    ga, gb = matmul_grads(a, b, g)
    assert T.grad_products_lifted == lifted + 2
    assert ga.tobytes() == (g @ b.T).tobytes()
    assert gb.tobytes() == (a.T @ g).tobytes()


def test_lifted_gradient_products_equal_plain_ones_where_outputs_stay_normal():
    rng = np.random.default_rng(41)
    a = rng.standard_normal((512, 192))
    b = rng.standard_normal((192, 192))
    g = plant_subnormals(rng, rng.normal(0.0, 1e-3, (512, 192)), 4000)
    guarded, lifted = T.grad_products_guarded, T.grad_products_lifted
    ga, gb = matmul_grads(a, b, g)
    assert (T.grad_products_guarded, T.grad_products_lifted) == (guarded + 2, lifted + 2)
    for got, plain in ((ga, g @ b.T), (gb, a.T @ g)):
        assert np.abs(plain).min() >= T._TINY
        assert got.tobytes() == plain.tobytes()


def test_lifted_gradient_products_are_closer_to_exact_on_subnormal_rows_and_columns():
    # every entry of g, and so of both products, is subnormal: the plain
    # products round each term to the subnormal grid, the lifted ones
    # round once at the end
    rng = np.random.default_rng(42)
    m, n = 8, 6
    a = rng.standard_normal((m, T.LIFT_MIN_K))
    b = rng.standard_normal((T.LIFT_MIN_K, n))
    g = rng.uniform(-1.0, 1.0, (m, n)) * T._TINY * 2.0 ** -20
    ga, gb = matmul_grads(a, b, g)
    for got, lhs, rhs in ((ga, g, b.T), (gb, a.T, g)):
        plain = lhs @ rhs
        exact = np.array([[float(sum(Fraction(x) * Fraction(y) for x, y in zip(row, col)))
                           for col in rhs.T] for row in lhs])
        terms = lhs.shape[1]
        assert np.abs(exact).max() < T._TINY
        assert np.abs(got - plain).max() <= terms * SUBNORMAL_ULP
        assert np.abs(plain - exact).max() <= terms * SUBNORMAL_ULP
        assert np.abs(got - exact).max() <= SUBNORMAL_ULP
        assert (got != plain).any()
        assert np.abs(got - exact).sum() < np.abs(plain - exact).sum()


def test_gradient_products_below_the_contraction_gate_are_not_guarded():
    rng = np.random.default_rng(43)
    k = T.LIFT_MIN_K - 1
    a, b = rng.standard_normal((32, k)), rng.standard_normal((k, 24))
    g = plant_subnormals(rng, rng.normal(0.0, 1e-3, (32, 24)), 40)
    guarded, lifted = T.grad_products_guarded, T.grad_products_lifted
    ga, gb = matmul_grads(a, b, g)
    assert (T.grad_products_guarded, T.grad_products_lifted) == (guarded, lifted)
    assert ga.tobytes() == (g @ b.T).tobytes() and gb.tobytes() == (a.T @ g).tobytes()


def test_gradient_products_that_could_overflow_when_lifted_run_plain():
    rng = np.random.default_rng(44)
    a = rng.standard_normal((32, T.LIFT_MIN_K))
    b = rng.standard_normal((T.LIFT_MIN_K, 24))
    g = plant_subnormals(rng, rng.normal(0.0, 1e-3, (32, 24)), 40)
    g[3, 5] = 1e300        # 1e300 * 2**600 overflows
    guarded, lifted = T.grad_products_guarded, T.grad_products_lifted
    ga, gb = matmul_grads(a, b, g)
    assert (T.grad_products_guarded, T.grad_products_lifted) == (guarded + 2, lifted)
    assert ga.tobytes() == (g @ b.T).tobytes() and gb.tobytes() == (a.T @ g).tobytes()


def test_matmul_lifts_a_subnormal_operand_in_the_forward_and_the_gradient_that_reads_it(monkeypatch):
    # a saturated softmax's rows, as CrossFusion's attention read gets them
    rng = np.random.default_rng(45)
    attn = plant_subnormals(rng, rng.uniform(0.0, 1e-3, (512, 192)), 4000)
    v = rng.standard_normal((192, 48))
    g = rng.standard_normal((512, 48))
    tested = []
    real_test = T._holds_subnormals
    monkeypatch.setattr(T, "_holds_subnormals", lambda x: tested.append(x.shape) or real_test(x))
    before = (T.operands_guarded, T.operand_products_lifted, T.grad_products_lifted)
    out = T.matmul(Tensor(attn, requires_grad=True), Tensor(v, requires_grad=True))
    assert tested == [(512, 192), (192, 48)]
    ga, gv = out._vjp(g)
    # each gradient product tests only g; the forward's finding stands for attn
    assert tested[2:] == [(512, 48), (512, 48)]
    assert (T.operands_guarded, T.operand_products_lifted, T.grad_products_lifted) == \
        (before[0] + 1, before[1] + 2, before[2])
    for got, plain in ((out.data, attn @ v), (ga, g @ v.T), (gv, attn.T @ g)):
        assert np.abs(plain).min() >= T._TINY
        assert got.tobytes() == plain.tobytes()


def test_matmul_on_normal_operands_lifts_nothing():
    rng = np.random.default_rng(46)
    a, b = rng.standard_normal((16, T.LIFT_MIN_K)), rng.standard_normal((T.LIFT_MIN_K, 8))
    before = (T.operands_guarded, T.operand_products_lifted)
    out = T.matmul(Tensor(a, requires_grad=True), Tensor(b, requires_grad=True))
    T.tsum(out).backward()
    assert (T.operands_guarded, T.operand_products_lifted) == (before[0] + 1, before[1])
    assert out.data.tobytes() == (a @ b).tobytes()


def test_matmul_below_the_contraction_gate_tests_no_operand():
    rng = np.random.default_rng(47)
    k = T.LIFT_MIN_K - 1
    a = plant_subnormals(rng, rng.normal(0.0, 1e-3, (32, k)), 40)
    b = rng.standard_normal((k, 24))
    before = (T.operands_guarded, T.operand_products_lifted)
    out = T.matmul(a, b)
    assert (T.operands_guarded, T.operand_products_lifted) == before
    assert out.data.tobytes() == (a @ b).tobytes()


def test_a_subnormal_operand_that_could_overflow_when_lifted_runs_plain():
    rng = np.random.default_rng(48)
    a = plant_subnormals(rng, rng.normal(0.0, 1e-3, (32, T.LIFT_MIN_K)), 40)
    a[3, 5] = 1e300        # 1e300 * 2**600 overflows
    b = rng.standard_normal((T.LIFT_MIN_K, 24))
    g = rng.standard_normal((32, 24))
    before = (T.operands_guarded, T.operand_products_lifted)
    out = T.matmul(Tensor(a, requires_grad=True), Tensor(b, requires_grad=True))
    gb = out._vjp(g)[1]
    assert (T.operands_guarded, T.operand_products_lifted) == (before[0] + 1, before[1])
    assert out.data.tobytes() == (a @ b).tobytes() and gb.tobytes() == (a.T @ g).tobytes()


# -- the node contract: one vjp, one gradient per parent ------------------------------


def _linear_of(w, b):
    layer = LinearLayer(Rng(0), *w.shape)
    layer.weight, layer.bias = w, b
    return layer


def _mlp_of(w1, b1, w2, b2):
    layer = Mlp(Rng(0), w1.shape[0], w1.shape[1], w2.shape[1])
    layer.fc1, layer.fc2 = _linear_of(w1, b1), _linear_of(w2, b2)
    return layer


def _lbr_of(w, b, scale, shift):
    layer = LbrLayer(Rng(0), *w.shape)
    layer.weight, layer.bias, layer.norm_scale, layer.norm_shift = w, b, scale, shift
    return layer


def _contract_cases(k=4):
    """Op name -> (the op's tensor arguments as arrays, the op over them).
    The layer ops take ``k`` input channels."""
    r = np.random.default_rng(70)
    n = r.standard_normal
    groups = np.sort(r.integers(0, 6, (6, 3)), axis=1)
    neighbours = r.integers(0, 5, (4, 3))
    uv, uvd = r.uniform(0.2, 2.6, (7, 2)), r.uniform(0.2, 2.6, (7, 3))

    def mlp_arrays(c_in, c_out):
        return [n((c_in, 5)), n(5), n((5, c_out)), n(c_out)]

    return {
        "add": ([n((3, 4)), n(4)], T.add),
        "sub": ([n((3, 4)), n((3, 1))], T.sub),
        "mul": ([n((3, 4)), n((1, 4))], T.mul),
        "div": ([n((3, 4)), np.abs(n((3, 4))) + 0.5], T.div),
        "neg": ([n(3)], T.neg),
        "pow_scalar": ([np.abs(n(3)) + 0.5], lambda a: a ** 3),
        "log": ([np.abs(n(3)) + 0.5], T.log),
        "absolute": ([n(3)], T.absolute),
        "relu": ([n(3)], T.relu),
        "sigmoid": ([n(3)], T.sigmoid),
        "clamp": ([n(3)], lambda a: T.clamp(a, -0.5, 0.5)),
        "matmul": ([n((3, k)), n((k, 2))], T.matmul),
        "tsum": ([n((3, 4))], lambda a: T.tsum(a, axis=1)),
        "amax": ([n((3, 4))], lambda a: T.amax(a, axis=1)),
        "softmax": ([n((3, 4))], T.softmax),
        "reshape": ([n((3, 4))], lambda a: T.reshape(a, (4, 3))),
        "transpose": ([n((3, 4))], lambda a: T.transpose(a, (1, 0))),
        "narrow": ([n((3, 4))], lambda a: T.narrow(a, 1, 1, 2)),
        "concat": ([n((2, 3)), n((4, 3)), n((1, 3))], lambda *parts: T.concat(parts)),
        "gather_rows": ([n((4, 3))], lambda a: T.gather_rows(a, np.array([0, 2, 2]))),
        "bilinear_sample": ([n((4, 5, 2)), uv], T.bilinear_sample),
        "trilinear_sample": ([n((3, 4, 5, 2)), uvd], T.trilinear_sample),
        "frustum_sample": ([np.abs(n((3, 4, 5))), n((3, 4, 2)), uvd], T.frustum_sample),
        "linear": ([n((5, k)), n((k, 3)), n(3)], lambda x, *p: linear(x, _linear_of(*p))),
        "lbr": ([n((5, k)), n((k, 3)), n(3), n(3), n(3)], lambda x, *p: lbr(x, _lbr_of(*p))),
        "mlp": ([n((2, 3, k))] + mlp_arrays(k, 3), lambda x, *p: mlp(x, _mlp_of(*p))),
        "attend-subtract": ([n((6, 12)), n((6, 3))] + mlp_arrays(3, 4) + mlp_arrays(4, 4),
                            lambda q, c, *p: attend(q, c, groups, "subtract", _mlp_of(*p[:4]),
                                                    _mlp_of(*p[4:]))),
        "attend-multiply": ([n((6, 12)), n((6, 3))] + mlp_arrays(3, 4) + mlp_arrays(4, 4),
                            lambda q, c, *p: attend(q, c, groups, "multiply", _mlp_of(*p[:4]),
                                                    _mlp_of(*p[4:]))),
        "idw_interpolate": ([n((4, 3)), n((5, 3)), n((5, 2))],
                            lambda t, src, f: idw_interpolate(t, src, f, neighbours)),
    }


def _node(arrays, op, frozen=()):
    """op over fresh leaves of arrays, those at the ``frozen`` indices built
    without requires_grad."""
    return op(*(Tensor(a, requires_grad=i not in frozen) for i, a in enumerate(arrays)))


@pytest.mark.parametrize("name", sorted(_contract_cases()))
def test_a_node_has_one_vjp_with_one_gradient_per_parent(name):
    arrays, op = _contract_cases()[name]
    node = _node(arrays, op)
    g = np.random.default_rng(71).standard_normal(node.shape)
    full = node._vjp(g)
    assert len(full) == len(node._parents)
    assert all(e.shape == p.shape for e, p in zip(full, node._parents))
    for i in range(len(arrays)):            # each argument frozen in turn
        node = _node(arrays, op, frozen=(i,))
        if len(arrays) == 1:
            assert not node.requires_grad and node._parents == () and node._vjp is None
            continue
        entries = node._vjp(g)
        assert len(entries) == len(node._parents)
        for e, want, p in zip(entries, full, node._parents):
            # None exactly where the parent is frozen; the others do not move
            assert (e is None) == (not p.requires_grad), (name, i)
            assert e is None or e.tobytes() == want.tobytes(), (name, i)


def test_frozen_parents_cost_no_gradient_product(monkeypatch):
    # at K = LIFT_MIN_K every gradient product of matmul and of the layer
    # ops' K-wide products is guarded, so the counter counts the products
    cases = _contract_cases(k=T.LIFT_MIN_K)
    rng = np.random.default_rng(72)
    for name, frozen, products in [("matmul", (), 2), ("matmul", (0,), 1), ("matmul", (1,), 1),
                                   ("linear", (), 2), ("linear", (0,), 1), ("linear", (1,), 1),
                                   ("linear", (2,), 2), ("lbr", (0,), 1), ("lbr", (1,), 1),
                                   ("mlp", (0,), 1), ("mlp", (1,), 1), ("mlp", (0, 1), 0)]:
        node = _node(*cases[name], frozen=frozen)
        guarded = T.grad_products_guarded
        node._vjp(rng.standard_normal(node.shape))
        assert T.grad_products_guarded == guarded + products, (name, frozen)
    # a constant operand, such as a Python scalar weighting a loss term,
    # costs no _unbroadcast sum
    sums = []
    unbroadcast = T._unbroadcast
    monkeypatch.setattr(T, "_unbroadcast", lambda g, shape: sums.append(shape) or unbroadcast(g, shape))
    x = Tensor(np.ones((3, 4)), requires_grad=True)
    for op in (T.add, T.sub, T.mul, T.div):
        sums.clear()
        op(2.0, x)._vjp(np.ones((3, 4)))
        op(x, Tensor(np.full(4, 2.0)))._vjp(np.ones((3, 4)))
        assert sums == [(3, 4), (3, 4)], op


# -- grid sampling ------------------------------------------------------------


def test_bilinear_reproduces_affine_grids():
    # an affine function of (u, v) is reproduced exactly by bilinear
    # interpolation, up to accumulation roundoff
    rng = np.random.default_rng(8)
    h, w, c = 6, 7, 3
    vv, uu = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    for _ in range(5):
        a, b, d = rng.standard_normal(3)
        grid = Tensor((a * uu + b * vv + d)[:, :, None] * np.ones((1, 1, c)))
        uv = rng.uniform([0.0, 0.0], [w - 1.0, h - 1.0], size=(40, 2))
        out = T.bilinear_sample(grid, Tensor(uv))
        want = (a * uv[:, 0] + b * uv[:, 1] + d)[:, None] * np.ones((1, c))
        assert np.max(np.abs(out.data - want)) <= 1e-12


def test_trilinear_reproduces_affine_volumes():
    rng = np.random.default_rng(9)
    h, w, d, c = 4, 5, 6, 2
    vv, uu, dd = np.meshgrid(np.arange(h), np.arange(w), np.arange(d), indexing="ij")
    for _ in range(5):
        a, b, cc, e = rng.standard_normal(4)
        vol = Tensor((a * uu + b * vv + cc * dd + e)[..., None] * np.ones((1, 1, 1, c)))
        uvd = rng.uniform([0, 0, 0], [w - 1.0, h - 1.0, d - 1.0], size=(40, 3))
        out = T.trilinear_sample(vol, Tensor(uvd))
        want = (a * uvd[:, 0] + b * uvd[:, 1] + cc * uvd[:, 2] + e)[:, None] * np.ones((1, c))
        assert np.max(np.abs(out.data - want)) <= 1e-12


def test_sampling_gradients_interior():
    rng = np.random.default_rng(10)
    grid = Tensor(rng.standard_normal((5, 6, 2)), requires_grad=True)
    uv = Tensor(rng.uniform(0.4, 3.4, size=(7, 2)), requires_grad=True)
    err = gradcheck(lambda: T.tsum(T.bilinear_sample(grid, uv) ** 2), [grid, uv], rng=Rng(11))
    assert err < 1e-6
    vol = Tensor(rng.standard_normal((4, 5, 6, 2)), requires_grad=True)
    uvd = Tensor(rng.uniform(0.4, 2.4, size=(7, 3)), requires_grad=True)
    err = gradcheck(lambda: T.tsum(T.trilinear_sample(vol, uvd) ** 2), [vol, uvd], rng=Rng(12))
    assert err < 1e-6


def test_sampling_clamps_positions_with_zero_gradient():
    grid = Tensor(np.arange(12.0).reshape(3, 4, 1))
    uv = Tensor(np.array([[-5.0, 1.0], [9.0, 1.0]]), requires_grad=True)
    out = T.bilinear_sample(grid, uv)
    # clamped to columns 0 and 3 of row 1
    assert np.allclose(out.data[:, 0], [4.0, 7.0])
    T.tsum(out).backward()
    assert np.array_equal(uv.grad[:, 0], [0.0, 0.0])  # u pinned at the border
    assert uv.grad[0, 1] != 0.0  # v still free


# -- the fused frustum read -----------------------------------------------------


def frustum_reads(logits, feats, uvd, g, fused):
    """Output and gradients (logits, feats, positions) of the frustum read
    at uvd, fused or through the built volume of build_frustum."""
    lg = Tensor(logits, requires_grad=True)
    ff = Tensor(feats, requires_grad=True)
    pos = Tensor(uvd, requires_grad=True)
    if fused:
        out = T.frustum_sample(T.softmax(lg, axis=2), ff, pos)
    else:
        vol = build_frustum(ImageFeatureGrid(ff, 1), DepthPrediction(lg, lg))
        out = T.trilinear_sample(vol.feats, pos)
    T.tsum(out * g).backward()
    return out.data, lg.grad, ff.grad, pos.grad


def test_frustum_sample_equals_the_built_volume_read_bit_for_bit():
    rng = np.random.default_rng(33)
    shapes = [(1, 1, 2, 3), (1, 5, 2, 1), (4, 1, 9, 2), (3, 4, 2, 16), (2, 3, 24, 8),
              (5, 6, 12, 1), (1, 7, 30, 5)]
    shapes += [tuple(int(v) for v in rng.integers([1, 1, 2, 1], [6, 8, 32, 18]))
               for _ in range(20)]
    for h, w, d, c in shapes:
        m = int(rng.integers(1, 80))
        # some reads fall outside the grid on every axis and clamp
        uvd = rng.uniform([-1.5, -1.5, -1.5], [w + 0.5, h + 0.5, d + 0.5], size=(m, 3))
        logits = rng.standard_normal((h, w, d)) * 3.0
        feats = rng.standard_normal((h, w, c))
        g = upstream(rng, (m, c))
        out, g_logits, g_feats, g_pos = frustum_reads(logits, feats, uvd, g, fused=True)
        want = frustum_reads(logits, feats, uvd, g, fused=False)
        shape = (h, w, d, c)
        assert np.array_equal(out, want[0]), shape
        assert np.array_equal(g_logits, want[1]), shape
        assert np.array_equal(g_pos, want[3]), shape
        if c >= 2:
            assert np.array_equal(g_feats, want[2]), shape
        else:
            # numpy sums the volume's contiguous depth axis pairwise here
            assert np.max(np.abs(g_feats - want[2])) <= 1e-12 * max(1.0, np.abs(want[2]).max()), shape


def test_frustum_sample_gradcheck_and_shape_checks():
    rng = np.random.default_rng(34)
    weights = Tensor(T.softmax(Tensor(rng.standard_normal((4, 5, 6))), axis=2).data, requires_grad=True)
    feats = Tensor(rng.standard_normal((4, 5, 3)), requires_grad=True)
    uvd = Tensor(rng.uniform([0.2, 0.2, 0.2], [3.6, 2.6, 4.6], size=(9, 3)), requires_grad=True)
    err = gradcheck(lambda: T.tsum(T.frustum_sample(weights, feats, uvd) ** 2),
                    [weights, feats, uvd], rng=Rng(35))
    assert err < 1e-6
    with pytest.raises(ShapeError):
        T.frustum_sample(weights, Tensor(np.ones((4, 4, 3))), uvd)
    with pytest.raises(ShapeError):
        T.frustum_sample(weights, feats, Tensor(np.ones((9, 2))))


# -- ndarray-on-the-left regression -------------------------------------------


def test_ndarray_left_operators_stay_tensors():
    # numpy must defer to our reflected operators instead of building an
    # object array of element-wise Tensors
    a = np.full((2, 2), 3.0)
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    for out, want in [
        (a + x, 4.0),
        (a - x, 2.0),
        (a * x, 3.0),
    ]:
        assert isinstance(out, Tensor), type(out)
        assert out.data.dtype == np.float64
        assert np.all(out.data == want)
    out = a @ x
    assert isinstance(out, Tensor)
    assert np.all(out.data == 6.0)
    T.tsum((a * x) @ np.ones((2, 2))).backward()
    assert np.all(x.grad == 6.0)


# -- finite guard and dtype ----------------------------------------------------


def test_non_finite_results_raise():
    with pytest.raises(NonFiniteError):
        Tensor([np.nan])
    with np.errstate(over="ignore", divide="ignore"):
        with pytest.raises(NonFiniteError):
            exp(Tensor([1000.0]))
        with pytest.raises(NonFiniteError):
            T.log(Tensor([0.0]))
        with pytest.raises(NonFiniteError):
            Tensor([1.0]) / Tensor([0.0])


def test_finite_guard_checks_every_element_without_overflowing():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteError):
            Tensor([1.0, bad, 2.0])
    # op results from finite operands: NaN, +Inf and -Inf in one element
    with np.errstate(all="ignore"):
        for op in (lambda: T.div(Tensor([1.0, 0.0]), Tensor([1.0, 0.0])),
                   lambda: exp(Tensor([0.0, 1000.0])),
                   lambda: T.log(Tensor([1.0, 0.0]))):
            with pytest.raises(NonFiniteError):
                op()
    # the sum of these overflows to inf, yet every element is finite
    big = Tensor([1e308, 1e308])
    assert np.array_equal((big * 1.0).data, [1e308, 1e308])
    # clamp skips the test of its output, except under a NaN bound
    assert np.array_equal(T.clamp(big, -np.inf, np.inf).data, big.data)
    with pytest.raises(NonFiniteError, match="clamp"):
        T.clamp(big, 0.0, np.nan)


def test_non_finite_error_names_the_op_and_operand_shapes():
    with np.errstate(divide="ignore"):
        with pytest.raises(NonFiniteError, match=r"log.*\(1,\)"):
            T.log(Tensor([0.0]))
        with pytest.raises(NonFiniteError, match=r"div.*\(2, 1\).*\(3,\)"):
            T.div(Tensor(np.ones((2, 1))), Tensor(np.zeros(3)))
    with pytest.raises(NonFiniteError, match=r"Tensor.*\(2,\)"):
        Tensor([0.0, np.nan])


def test_tensor_is_float64_and_item():
    x = Tensor([1, 2, 3])
    assert x.data.dtype == np.float64
    assert x.shape == (3,) and x.ndim == 1 and x.size == 3
    assert Tensor(5).item() == 5.0
    with pytest.raises(ShapeError):
        Tensor([1.0, 2.0]).item()


def test_empty_reductions_raise():
    with pytest.raises(EmptyInputError):
        T.tmean(Tensor(np.zeros((0, 3))), axis=0)
    with pytest.raises(EmptyInputError):
        T.amax(Tensor(np.zeros((0, 3))), axis=0)
    with pytest.raises(EmptyInputError):
        T.concat([], axis=0)
