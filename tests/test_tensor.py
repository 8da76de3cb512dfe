"""Autodiff core tests.

Covers, in rough order:
  forward values and closed-form gradients for every op,
  broadcasting reduction in the backward pass,
  subgradient conventions (relu/abs at 0, clamp at the boundary,
    first-argmax ties),
  grid sampling (exact affine reproduction, position gradients),
  graph mechanics (reuse accumulation, detach, zero_grad, leaf-only
    grad buffers, no_grad),
  the finite-value guard,
  and the ndarray-on-the-left operator regression.
"""

import numpy as np
import pytest

import pointfuse.tensor as T
from pointfuse.nn import Rng, gradcheck
from pointfuse.tensor import (
    EmptyInputError,
    NonFiniteError,
    ShapeError,
    Tensor,
)

from oracles import bilinear_grid_grad, scatter_add_at, trilinear_grid_grad


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


def test_unary_forward_values():
    x = np.array([0.25, 1.0, 4.0])
    assert np.allclose(T.exp(Tensor(x)).data, np.exp(x))
    assert np.allclose(T.log(Tensor(x)).data, np.log(x))
    assert np.allclose(T.sqrt(Tensor(x)).data, np.sqrt(x))
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


def test_detach_blocks_gradient():
    x = Tensor([2.0], requires_grad=True)
    y = x.detach() * x
    y.backward()
    assert np.allclose(x.grad, [2.0])  # only the live factor contributes


def test_only_leaves_hold_grad_buffers():
    x = Tensor([1.0, 2.0], requires_grad=True)
    c = Tensor([3.0, 4.0])
    assert c.grad is None
    mid = T.exp(x) * c
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
        y = T.tsum(T.exp(x) * x)
        leaf = Tensor([3.0], requires_grad=True)  # leaves keep their own flag
    assert not y.requires_grad and y._parents == () and y.grad is None
    assert leaf.requires_grad and np.array_equal(leaf.grad, [0.0])
    y.backward()  # nothing to walk
    assert not x.grad.any()
    assert T.tsum(T.exp(x) * x).data == y.data
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
        (lambda: T.tsum(T.exp(x * 0.3)), [x]),
        (lambda: T.tsum(T.log(pos)), [pos]),
        (lambda: T.tsum(T.sqrt(pos)), [pos]),
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
            T.exp(Tensor([1000.0]))
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
                   lambda: T.exp(Tensor([0.0, 1000.0])),
                   lambda: T.log(Tensor([1.0, 0.0]))):
            with pytest.raises(NonFiniteError):
                op()
    # the sum of these overflows to inf, yet every element is finite
    big = Tensor([1e308, 1e308])
    assert np.array_equal((big * 1.0).data, [1e308, 1e308])


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
