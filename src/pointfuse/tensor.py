"""Dense float64 tensors with reverse-mode automatic differentiation.

Every learned component in this package is built from the primitives in
this file.  A Tensor wraps a numpy float64 array; each op records the
parent tensors and one vector-Jacobian closure, which maps the output's
gradient to one gradient per parent and computes none for a parent that
does not require grad.  Calling ``backward`` on a scalar walks the tape
in reverse topological order, calls each node's closure once, carries
each intermediate's gradient only while the walk needs it, and adds the
gradients of leaves (tensors built with ``requires_grad=True``) into
their ``grad`` buffers, so repeated backward calls accumulate until the
buffers are zeroed.  Op results have no buffer (``grad`` is None).
Inside ``with no_grad():`` ops record no tape at all, which is how
inference runs.  Layer-level ops built on these primitives (``nn.linear``,
``nn.lbr``, ``nn.mlp``, the point-attention op ``fusion.attend`` and
``fusion.idw_interpolate``) record one node for what would otherwise be
a chain of ops, and those that check stages before their output raise
NonFiniteError through ``_finite_check``.  The two that run an MLP
(``nn.mlp``, and ``attend`` for its positional and score MLPs) share
its kernel, ``nn._mlp_forward`` and ``nn._mlp_backward``.  They
keep only the arrays their backward reads and rebuild the rest from
them.  ``attend``, ``lbr`` and ``mlp`` let go of what they keep once
their backward has run; a later backward over the same graph rebuilds
it from the node's parents with the forward's expressions, bit for bit.

Three hard rules hold everywhere:
  * non-finite values (NaN/Inf) raise immediately instead of propagating,
  * ReLU routes zero gradient at exactly 0, max-style reductions route
    the subgradient to the first argmax on ties,
  * no op mutates its inputs.
"""

from __future__ import annotations

import contextlib
import sys

import numpy as np


class NonFiniteError(ArithmeticError):
    """An op produced or received NaN/Inf."""


class ShapeError(ValueError):
    """Operand shapes violate an op contract."""


class EmptyInputError(ValueError):
    """An op received an empty axis it cannot reduce over."""


_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Build no tape inside the block: op results get requires_grad=False
    and no parents, so nothing behind them stays alive.  Leaves keep the
    flag they are built with.  Nests, and restores the previous mode on
    exit, exceptions included."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _non_finite(op: str, shapes) -> NonFiniteError:
    listed = ", ".join(str(tuple(s)) for s in shapes)
    return NonFiniteError(f"non-finite value (NaN or Inf) from {op} on operand shapes [{listed}]")


def _all_finite(a) -> bool:
    """True iff ``a`` holds no NaN or Inf.  Most ops make small arrays,
    where the fixed cost of the test dominates: counting the finite
    entries skips the Python wrapper of ``ndarray.all`` and the ufunc
    reduce machinery behind it (0.8 against 1.5 us on 24 entries)."""
    finite = np.isfinite(a)
    return np.count_nonzero(finite) == finite.size


def _finite_check(op: str, parents):
    """``check(*arrays)``: raises NonFiniteError naming ``op`` and the
    parents' shapes at the first array holding NaN or Inf.  The fused
    ops call it after each stage of their chain that can turn non-finite."""
    def check(*arrays):
        for a in arrays:
            if not _all_finite(a):
                raise _non_finite(op, (p.data.shape for p in parents))
    return check


def _relu_(x: np.ndarray) -> np.ndarray:
    """ReLU of ``x`` in place, returned.  ``np.maximum`` has no branch
    for the CPU to mispredict on mixed signs, unlike ``np.where(x > 0,
    x, 0)``; adding 0.0 turns its -0.0 into +0.0, so for finite ``x`` the
    bytes equal that form's.  NaN must not reach it: callers check the
    input first."""
    np.maximum(x, 0.0, out=x)
    x += 0.0
    return x


class Tensor:
    """float64 array + optional gradient tape node.

    data          : np.ndarray, always float64
    requires_grad : True for trainable leaves and, outside no_grad,
                    anything computed from them
    grad          : leaves only: a zero-initialised buffer of the same
                    shape iff requires_grad; always None on op results,
                    whose gradients live only inside backward
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    # keep numpy from absorbing us into object arrays: binary ops with an
    # ndarray on the left defer to our reflected operators instead
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        if not _all_finite(self.data):
            raise _non_finite("Tensor", (self.data.shape,))
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if self.requires_grad else None
        self._parents = ()
        self._vjp = None

    # -- construction of op results ------------------------------------

    @staticmethod
    def _result(data, parents, vjp, finite: bool = False):
        """The op result ``data`` as a tape node over ``parents``, if one
        of them requires grad and the tape is on.  ``vjp(g)`` maps the
        output's gradient g to a sequence with one entry per parent, in
        parent order: that parent's gradient, or None exactly where the
        parent does not require grad (such an entry costs nothing).
        ``finite=True`` skips the finite test, for an op whose output is
        finite whenever its operands are: one that only selects, moves or
        clips their values, or one that has checked them itself
        (``tests/test_hygiene.py`` lists these ops)."""
        out = Tensor.__new__(Tensor)
        out.data = np.asarray(data, dtype=np.float64)
        if not finite and not _all_finite(out.data):
            # name the op that called us; only the failure path pays for it
            raise _non_finite(sys._getframe(1).f_code.co_name,
                              (p.data.shape for p in parents))
        out.grad = out._vjp = None
        out.requires_grad = False
        out._parents = ()
        if _GRAD_ENABLED:
            for p in parents:  # a plain loop: any() over a generator costs ~5x more here
                if p.requires_grad:
                    out.requires_grad = True
                    out._parents = tuple(parents)
                    out._vjp = vjp
                    break
        return out

    # -- basic introspection --------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- operators -------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __pow__(self, k):
        return pow_scalar(self, k)

    # -- reverse pass ------------------------------------------------------

    def backward(self) -> None:
        backward(self)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _topo_order(root: Tensor):
    """Post-order over the tape; iterative to keep deep graphs safe."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(x) into ``grad`` for every requires_grad
    leaf reachable from ``loss``.  ``loss`` must be scalar.  Gradients of
    intermediates exist only in ``flow`` and are dropped once passed on.

    The walk leaves every node's output and parents in place, so calling
    it again over the same graph adds the same gradients once more.  The
    fused ops ``nn.lbr``, ``nn.mlp`` and ``fusion.attend`` release the
    arrays they kept for their backward as it runs (a graph held after
    backward holds less), and a second call rebuilds them bit for bit."""
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    order = _topo_order(loss)
    flow = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = flow.pop(id(node), None)
        if g is None:
            continue
        if not node._parents:
            node.grad += g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is not None:
                acc = flow.get(id(parent))
                flow[id(parent)] = pg if acc is None else acc + pg


def zero_grads(tensors) -> None:
    for t in tensors:
        t.zero_grad()


# -- broadcasting helper ---------------------------------------------------


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise ops -------------------------------------------------------


# An op over two or more parents computes only the gradients of those
# that require grad: a constant operand, such as a Python scalar, costs
# no product and no ``_unbroadcast`` sum.


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor._result(a.data + b.data, (a, b), lambda g: (
        _unbroadcast(g, a.data.shape) if a.requires_grad else None,
        _unbroadcast(g, b.data.shape) if b.requires_grad else None))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor._result(a.data - b.data, (a, b), lambda g: (
        _unbroadcast(g, a.data.shape) if a.requires_grad else None,
        _unbroadcast(-g, b.data.shape) if b.requires_grad else None))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor._result(a.data * b.data, (a, b), lambda g: (
        _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
        _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor._result(a.data / b.data, (a, b), lambda g: (
        _unbroadcast(g / b.data, a.data.shape) if a.requires_grad else None,
        _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape) if b.requires_grad else None))


def neg(a) -> Tensor:
    a = as_tensor(a)
    return Tensor._result(-a.data, (a,), lambda g: (-g,))


def pow_scalar(a, k: float) -> Tensor:
    a = as_tensor(a)
    k = float(k)
    out = a.data ** k
    return Tensor._result(out, (a,), lambda g: (g * k * a.data ** (k - 1.0),))


def log(a) -> Tensor:
    a = as_tensor(a)
    out = np.log(a.data)
    return Tensor._result(out, (a,), lambda g: (g / a.data,))


def absolute(a) -> Tensor:
    # d|x|/dx at 0 is taken as 0, matching the ReLU'(0)=0 convention
    a = as_tensor(a)
    s = np.sign(a.data)
    return Tensor._result(np.abs(a.data), (a,), lambda g: (g * s,))


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = _relu_(a.data.copy())
    return Tensor._result(out, (a,), lambda g: (g * (out > 0.0),))


def sigmoid(a) -> Tensor:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so
    no exp overflows.  With e = exp(-|x|) both are max(e, [x >= 0]) /
    (1 + e), which needs no per-sign gather and scatter and gives the
    same bytes."""
    a = as_tensor(a)
    e = np.abs(a.data)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, a.data >= 0.0)
    out /= 1.0 + e
    return Tensor._result(out, (a,), lambda g: (g * out * (1.0 - out),))


def clamp(a, lo: float, hi: float) -> Tensor:
    """Clip values to [lo, hi]; gradient is identity strictly inside."""
    a = as_tensor(a)
    mask = (a.data > lo) & (a.data < hi)
    # only a NaN bound can put a non-finite value into the clipped output
    return Tensor._result(np.clip(a.data, lo, hi), (a,), lambda g: (g * mask,),
                          finite=not (np.isnan(lo) or np.isnan(hi)))


# -- linear algebra ---------------------------------------------------------


# A product whose operand holds subnormals runs several times slower in
# BLAS.  From this forward contraction length K on, matmul tests both
# operands in its forward and each gradient product tests the upstream
# gradient g; an operand that holds subnormals is scaled by an exact power
# of two first.  A test reads its operand once; the gradient product costs
# K times that, so the test's share falls as 1/K.  On one BLAS thread it
# costs 20-40% of the product at K = 48, 15% at K = 96 and 5-7% at
# K = 192-256, and no product below K = 192 met a subnormal in mid-size
# training.
LIFT_MIN_K = 128
_TINY = np.finfo(np.float64).tiny
_LIFT = 2.0 ** 600
_UNLIFT = 2.0 ** -600

# gradient products tested for subnormals in g, and those of them lifted
grad_products_guarded = 0
grad_products_lifted = 0
# matmul forwards whose operands were tested for subnormals, and the
# products (forward or gradient) that ran on a lifted operand, not g
operands_guarded = 0
operand_products_lifted = 0


def _holds_subnormals(x: np.ndarray) -> bool:
    mag = np.abs(x)
    small = mag < _TINY
    return bool(small.any() and mag[small].any())


def _lifted_product(lhs: np.ndarray, rhs: np.ndarray, lift_lhs: bool):
    """``lhs @ rhs`` with one operand (``lhs`` iff ``lift_lhs``) scaled by
    2**600 and the result by 2**-600, or None if the lifted sums could
    overflow.

    Scaling by a power of two is exact, and ``x * 2**600`` keeps x's
    memory layout, so BLAS runs the same kernel in the same order, now on
    normal numbers: the result equals the plain product bit for bit
    except where the plain product underflowed, and there the lifted one
    is the more accurate.
    """
    if not float(np.abs(lhs).max()) * float(np.abs(rhs).max()) * lhs.shape[1] * _LIFT < np.inf:
        return None
    out = (lhs * _LIFT) @ rhs if lift_lhs else lhs @ (rhs * _LIFT)
    out *= _UNLIFT
    return out


def _grad_product(lhs: np.ndarray, rhs: np.ndarray, k: int, g_is_lhs: bool,
                  other_subnormal: bool = False) -> np.ndarray:
    """``lhs @ rhs`` for a matmul vjp: one operand is the upstream
    gradient g (``lhs`` iff ``g_is_lhs``), and ``k`` is the forward's
    contraction length.

    If ``k >= LIFT_MIN_K`` and g holds subnormals, the product runs as
    ``((g * 2**600) @ other) * 2**-600`` (see ``_lifted_product``).
    Otherwise, if ``other_subnormal`` (the forward found subnormals in
    the other operand, so it is not tested again), that operand is
    lifted instead.  If the lifted sums could overflow, the plain product
    runs.
    """
    global grad_products_guarded, grad_products_lifted, operand_products_lifted
    if k < LIFT_MIN_K:
        return lhs @ rhs
    grad_products_guarded += 1
    if _holds_subnormals(lhs if g_is_lhs else rhs):
        out = _lifted_product(lhs, rhs, g_is_lhs)
        if out is not None:
            grad_products_lifted += 1
            return out
    elif other_subnormal:
        out = _lifted_product(lhs, rhs, not g_is_lhs)
        if out is not None:
            operand_products_lifted += 1
            return out
    return lhs @ rhs


def matmul(a, b) -> Tensor:
    """[M, K] @ [K, N].  From ``K >= LIFT_MIN_K`` on, the forward tests
    both operands for subnormals and, if either holds some, lifts one
    that does (``a`` first; see ``_lifted_product``).  Each gradient
    product reuses the forward's finding for the operand it reads."""
    global operands_guarded, operand_products_lifted
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")
    k = a.data.shape[1]
    sub_a = sub_b = False
    out = None
    if k >= LIFT_MIN_K:
        operands_guarded += 1
        sub_a, sub_b = _holds_subnormals(a.data), _holds_subnormals(b.data)
        if sub_a or sub_b:
            out = _lifted_product(a.data, b.data, sub_a)
            operand_products_lifted += out is not None
    if out is None:
        out = a.data @ b.data
    return Tensor._result(out, (a, b), lambda g: (
        _grad_product(g, b.data.T, k, True, sub_b) if a.requires_grad else None,
        _grad_product(a.data.T, g, k, False, sub_a) if b.requires_grad else None))


# -- reductions --------------------------------------------------------------


def _axis_tuple(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(a % ndim for a in axis)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    axes = _axis_tuple(axis, a.data.ndim)
    out = a.data.sum(axis=axes, keepdims=keepdims)

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return Tensor._result(out, (a,), vjp)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    axes = _axis_tuple(axis, a.data.ndim)
    count = 1
    for ax in axes:
        count *= a.data.shape[ax]
    if count == 0:
        raise EmptyInputError("mean over an empty axis")
    return tsum(a, axis=axes, keepdims=keepdims) * (1.0 / count)


def amax(a, axis: int, keepdims: bool = False) -> Tensor:
    """Max along one axis; subgradient goes to the first argmax."""
    a = as_tensor(a)
    ax = axis % a.data.ndim
    if a.data.shape[ax] == 0:
        raise EmptyInputError("max over an empty axis")
    idx = np.argmax(a.data, axis=ax)
    out = np.take_along_axis(a.data, np.expand_dims(idx, ax), axis=ax)
    if not keepdims:
        out = np.squeeze(out, axis=ax)

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, ax)
        z = np.zeros_like(a.data)
        np.put_along_axis(z, np.expand_dims(idx, ax), g, axis=ax)
        return (z,)

    return Tensor._result(out, (a,), vjp, finite=True)


def maxpool_group(x) -> Tensor:
    """[M, L, C] -> [M, C] channel-wise max over the group axis."""
    x = as_tensor(x)
    if x.data.ndim != 3:
        raise ShapeError(f"maxpool_group expects [M, L, C], got {x.data.shape}")
    if x.data.shape[1] == 0:
        raise EmptyInputError("maxpool_group over an empty group")
    return amax(x, axis=1)


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    ax = axis % a.data.ndim
    shifted = a.data - a.data.max(axis=ax, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=ax, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=ax, keepdims=True)
        return (out * (g - inner),)

    return Tensor._result(out, (a,), vjp)


# -- shape ops ----------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)
    return Tensor._result(out, (a,), lambda g: (g.reshape(a.data.shape),), finite=True)


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return Tensor._result(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),),
                          finite=True)


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis."""
    a = as_tensor(a)
    ax = axis % a.data.ndim
    sl = [slice(None)] * a.data.ndim
    sl[ax] = slice(start, start + length)
    sl = tuple(sl)

    def vjp(g):
        z = np.zeros_like(a.data)
        z[sl] = g
        return (z,)

    return Tensor._result(a.data[sl], (a,), vjp, finite=True)


def concat(parts, axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise EmptyInputError("concat of zero tensors")
    ax = axis % parts[0].data.ndim
    out = np.concatenate([p.data for p in parts], axis=ax)
    ends = np.cumsum([p.data.shape[ax] for p in parts]).tolist()
    lead = (slice(None),) * ax

    def vjp(g):
        return [g[lead + (slice(end - p.data.shape[ax], end),)] if p.requires_grad else None
                for p, end in zip(parts, ends)]

    return Tensor._result(out, parts, vjp, finite=True)


def _scatter_rows(rows: np.ndarray, vals: np.ndarray, shape: tuple) -> np.ndarray:
    """Zeros of ``shape`` with each ``vals[i]`` added into row ``rows[i]``.

    ``rows`` indexes axis 0 (after flattening); ``vals`` holds one row per
    entry.  A single weighted bincount adds the entries in input order,
    so the sums equal a sequential ``np.add.at`` bit for bit.
    """
    width = int(np.prod(shape[1:], dtype=np.int64))
    flat = (rows.reshape(-1, 1) * width + np.arange(width)).ravel()
    summed = np.bincount(flat, weights=vals.ravel(), minlength=shape[0] * width)
    return summed.reshape(shape)


def _row_index(idx, n: int, op: str) -> np.ndarray:
    """idx as an integer array of rows in [0, n); ShapeError naming op if not."""
    idx = np.asarray(idx)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError(f"{op} needs integer indices")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ShapeError(f"{op} index out of range")
    return idx


def gather_rows(a, idx) -> Tensor:
    """Index axis 0 with an integer array; output shape idx.shape + a.shape[1:].

    Backward scatter-adds, so repeated indices accumulate.
    """
    a = as_tensor(a)
    idx = _row_index(idx, a.data.shape[0], "gather_rows")
    out = a.data[idx]

    return Tensor._result(out, (a,), lambda g: (_scatter_rows(idx, g, a.data.shape),),
                          finite=True)


# -- differentiable grid sampling ---------------------------------------------
#
# Positions are clamped to the valid grid box; the position gradient is
# zero in the clamped directions (same convention as clamp above).
# Callers that must report clamping inspect the raw coordinates
# themselves.


def _corner_setup(coord: np.ndarray, n: int):
    """Clamp a 1-D coordinate array to [0, n-1]; return lo index, hi
    index, fractional part and an interior mask for the position grad."""
    inside = (coord > 0.0) & (coord < n - 1.0)
    c = np.clip(coord, 0.0, n - 1.0)
    lo = np.floor(c).astype(np.int64)
    lo = np.minimum(lo, n - 2) if n > 1 else np.zeros_like(lo)
    hi = np.minimum(lo + 1, n - 1)
    frac = c - lo
    return lo, hi, frac, inside


def bilinear_sample(grid, uv) -> Tensor:
    """Sample grid [H, W, C] at M continuous (u, v) positions -> [M, C].

    u runs along W, v along H.  Differentiable in the grid values and in
    the positions; out-of-range positions clamp to the border.
    """
    grid = as_tensor(grid)
    uv = as_tensor(uv)
    if grid.data.ndim != 3 or uv.data.ndim != 2 or uv.data.shape[1] != 2:
        raise ShapeError(f"bilinear_sample expects [H,W,C] and [M,2], got {grid.data.shape}, {uv.data.shape}")
    h, w, _ = grid.data.shape
    u0, u1, fu, u_in = _corner_setup(uv.data[:, 0], w)
    v0, v1, fv, v_in = _corner_setup(uv.data[:, 1], h)
    g00 = grid.data[v0, u0]
    g01 = grid.data[v0, u1]
    g10 = grid.data[v1, u0]
    g11 = grid.data[v1, u1]
    wu, wv = fu[:, None], fv[:, None]
    out = ((1 - wu) * (1 - wv) * g00 + wu * (1 - wv) * g01
           + (1 - wu) * wv * g10 + wu * wv * g11)

    def vjp(g):
        g_grid = g_uv = None
        if grid.requires_grad:
            # all four corners in one scatter, in corner order
            cells = np.concatenate([v0 * w + u0, v0 * w + u1, v1 * w + u0, v1 * w + u1])
            vals = np.concatenate([(1 - wu) * (1 - wv) * g, wu * (1 - wv) * g,
                                   (1 - wu) * wv * g, wu * wv * g])
            g_grid = _scatter_rows(cells, vals, (h * w,) + grid.data.shape[2:])
            g_grid = g_grid.reshape(grid.data.shape)
        if uv.requires_grad:
            du = ((1 - wv) * (g01 - g00) + wv * (g11 - g10)) * g
            dv = ((1 - wu) * (g10 - g00) + wu * (g11 - g01)) * g
            g_uv = np.stack([du.sum(axis=1) * u_in, dv.sum(axis=1) * v_in], axis=1)
        return g_grid, g_uv

    return Tensor._result(out, (grid, uv), vjp)


_CORNERS = ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
            (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1))     # (v, u, d) offsets, corner order


def _trilinear_corners(h: int, w: int, d: int, uvd: np.ndarray):
    """Corner cells and weights of an 8-corner read of an [h, w, d, ...]
    grid at M positions.  Returns the (v, u, d) index arrays and the
    [M, 1] weight of each corner, in corner order, plus the fractional
    parts and interior masks that the position gradient needs."""
    u0, u1, fu, u_in = _corner_setup(uvd[:, 0], w)
    v0, v1, fv, v_in = _corner_setup(uvd[:, 1], h)
    d0, d1, fd, d_in = _corner_setup(uvd[:, 2], d)
    wu, wv, wd = fu[:, None], fv[:, None], fd[:, None]
    cells = [(v1 if cv else v0, u1 if cu else u0, d1 if cd else d0) for cv, cu, cd in _CORNERS]
    weights = [(wv if cv else 1 - wv) * (wu if cu else 1 - wu) * (wd if cd else 1 - wd)
               for cv, cu, cd in _CORNERS]
    return cells, weights, (wu, wv, wd), (u_in, v_in, d_in)


def _trilinear_position_grad(vals, frac, inside, g):
    """d(sum(g * read))/d(u, v, d) from the 8 corner values [M, C]."""
    wu, wv, wd = frac
    c = dict(zip(_CORNERS, vals))
    du = ((1 - wv) * ((1 - wd) * (c[(0, 1, 0)] - c[(0, 0, 0)]) + wd * (c[(0, 1, 1)] - c[(0, 0, 1)]))
          + wv * ((1 - wd) * (c[(1, 1, 0)] - c[(1, 0, 0)]) + wd * (c[(1, 1, 1)] - c[(1, 0, 1)])))
    dv = ((1 - wu) * ((1 - wd) * (c[(1, 0, 0)] - c[(0, 0, 0)]) + wd * (c[(1, 0, 1)] - c[(0, 0, 1)]))
          + wu * ((1 - wd) * (c[(1, 1, 0)] - c[(0, 1, 0)]) + wd * (c[(1, 1, 1)] - c[(0, 1, 1)])))
    dd = ((1 - wu) * ((1 - wv) * (c[(0, 0, 1)] - c[(0, 0, 0)]) + wv * (c[(1, 0, 1)] - c[(1, 0, 0)]))
          + wu * ((1 - wv) * (c[(0, 1, 1)] - c[(0, 1, 0)]) + wv * (c[(1, 1, 1)] - c[(1, 1, 0)])))
    u_in, v_in, d_in = inside
    return np.stack([(du * g).sum(axis=1) * u_in,
                     (dv * g).sum(axis=1) * v_in,
                     (dd * g).sum(axis=1) * d_in], axis=1)


def trilinear_sample(volume, uvd) -> Tensor:
    """Sample volume [H, W, D, C] at M continuous (u, v, d) positions -> [M, C].

    u runs along W, v along H, d along D; 8-corner weighting, border clamp.
    """
    volume = as_tensor(volume)
    uvd = as_tensor(uvd)
    if volume.data.ndim != 4 or uvd.data.ndim != 2 or uvd.data.shape[1] != 3:
        raise ShapeError(f"trilinear_sample expects [H,W,D,C] and [M,3], got {volume.data.shape}, {uvd.data.shape}")
    h, w, d, _ = volume.data.shape
    cells, weights, frac, inside = _trilinear_corners(h, w, d, uvd.data)
    vals = [volume.data[vi, ui, di] for vi, ui, di in cells]
    out = sum(wt * val for wt, val in zip(weights, vals))

    def vjp(g):
        g_volume = g_uvd = None
        if volume.requires_grad:
            # all eight corners in one scatter, in corner order
            flat = np.concatenate([(vi * w + ui) * d + di for vi, ui, di in cells])
            rows = np.concatenate([wt * g for wt in weights])
            g_volume = _scatter_rows(flat, rows, (h * w * d,) + volume.data.shape[3:])
            g_volume = g_volume.reshape(volume.data.shape)
        if uvd.requires_grad:
            g_uvd = _trilinear_position_grad(vals, frac, inside, g)
        return g_volume, g_uvd

    return Tensor._result(out, (volume, uvd), vjp)


def frustum_sample(weights, feats, uvd) -> Tensor:
    """Read the frustum volume weights[..., None] * feats[:, :, None, :]
    at M continuous (u, v, d) positions -> [M, C], without building it.

    weights is [H, W, D] (a depth distribution per cell), feats [H, W, C].
    Equal bit for bit to ``trilinear_sample`` of the built volume: each
    corner value is the same w * f product the volume holds, added in the
    same corner order.  Backward forms the volume gradient only at the
    touched cells (one scatter in corner order, as ``trilinear_sample``
    does, shared by both parents that read it),
    then reduces it over channels for the weights and over depth,
    ascending, for the features.  With C >= 2 that equals the volume
    path's reductions bit for bit; with C == 1 numpy sums the volume's
    depth axis pairwise instead, so the feature gradient may differ in
    the last bits.
    """
    weights, feats, uvd = as_tensor(weights), as_tensor(feats), as_tensor(uvd)
    if weights.data.ndim != 3 or feats.data.ndim != 3 or uvd.data.ndim != 2 or uvd.data.shape[1] != 3:
        raise ShapeError(f"frustum_sample expects [H,W,D], [H,W,C] and [M,3], got "
                         f"{weights.data.shape}, {feats.data.shape}, {uvd.data.shape}")
    h, w, d = weights.data.shape
    if feats.data.shape[:2] != (h, w):
        raise ShapeError(f"frustum_sample grids differ: weights {weights.data.shape}, feats {feats.data.shape}")
    c = feats.data.shape[2]
    cells, corner_w, frac, inside = _trilinear_corners(h, w, d, uvd.data)
    vals = [weights.data[vi, ui, di][:, None] * feats.data[vi, ui] for vi, ui, di in cells]
    out = sum(wt * val for wt, val in zip(corner_w, vals))
    parents = (weights, feats, uvd)

    def grads_of(g):
        grads = [None] * len(parents)
        if weights.requires_grad or feats.requires_grad:
            flat = np.concatenate([(vi * w + ui) * d + di for vi, ui, di in cells])
            touched, slot = np.unique(flat, return_inverse=True)     # ascending: by pixel, then depth
            pixel = touched // d
            # the volume path's gradient, restricted to the touched cells [K, C]
            cell = _scatter_rows(slot, np.concatenate([wt * g for wt in corner_w]), (touched.size, c))
        if weights.requires_grad:
            gw = np.zeros(h * w * d)
            gw[touched] = (cell * feats.data.reshape(h * w, c)[pixel]).sum(axis=1)
            grads[0] = gw.reshape(h, w, d)
        if feats.requires_grad:
            rows = cell * weights.data.reshape(-1)[touched][:, None]
            grads[1] = _scatter_rows(pixel, rows, (h * w, c)).reshape(h, w, c)
        if uvd.requires_grad:
            grads[2] = _trilinear_position_grad(vals, frac, inside, g)
        return grads

    return Tensor._result(out, parents, grads_of)
