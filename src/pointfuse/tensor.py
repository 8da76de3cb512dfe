"""Dense float64 tensors with reverse-mode automatic differentiation.

Every learned component in this package is built from the primitives in
this file.  A Tensor wraps a numpy float64 array; each op records the
parent tensors and a vector-Jacobian closure per parent.  Calling
``backward`` on a scalar walks the tape in reverse topological order,
carrying each intermediate's gradient only while the walk needs it, and
adds the gradients of leaves (tensors built with ``requires_grad=True``)
into their ``grad`` buffers, so repeated backward calls accumulate until
the buffers are zeroed.  Op results have no buffer (``grad`` is None).
Inside ``with no_grad():`` ops record no tape at all, which is how
inference runs.

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


class Tensor:
    """float64 array + optional gradient tape node.

    data          : np.ndarray, always float64
    requires_grad : True for trainable leaves and, outside no_grad,
                    anything computed from them
    grad          : leaves only: a zero-initialised buffer of the same
                    shape iff requires_grad; always None on op results,
                    whose gradients live only inside backward
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjps")

    # keep numpy from absorbing us into object arrays: binary ops with an
    # ndarray on the left defer to our reflected operators instead
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        if not np.isfinite(self.data).all():
            raise _non_finite("Tensor", (self.data.shape,))
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if self.requires_grad else None
        self._parents = ()
        self._vjps = ()

    # -- construction of op results ------------------------------------

    @staticmethod
    def _result(data, parents, vjps):
        out = Tensor.__new__(Tensor)
        out.data = np.asarray(data, dtype=np.float64)
        if not np.isfinite(out.data).all():
            # name the op that called us; only the failure path pays for it
            raise _non_finite(sys._getframe(1).f_code.co_name,
                              (p.data.shape for p in parents))
        out.grad = None
        out.requires_grad = False
        out._parents = out._vjps = ()
        if _GRAD_ENABLED:
            for p in parents:  # a plain loop: any() over a generator costs ~5x more here
                if p.requires_grad:
                    out.requires_grad = True
                    out._parents = tuple(parents)
                    out._vjps = tuple(vjps)
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

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

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
    intermediates exist only in ``flow`` and are dropped once passed on."""
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
        for parent, vjp in zip(node._parents, node._vjps):
            if not parent.requires_grad:
                continue
            pg = vjp(g)
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


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor._result(
        a.data + b.data,
        (a, b),
        (lambda g: _unbroadcast(g, a.data.shape),
         lambda g: _unbroadcast(g, b.data.shape)),
    )


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor._result(
        a.data - b.data,
        (a, b),
        (lambda g: _unbroadcast(g, a.data.shape),
         lambda g: _unbroadcast(-g, b.data.shape)),
    )


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor._result(
        a.data * b.data,
        (a, b),
        (lambda g: _unbroadcast(g * b.data, a.data.shape),
         lambda g: _unbroadcast(g * a.data, b.data.shape)),
    )


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data
    return Tensor._result(
        out,
        (a, b),
        (lambda g: _unbroadcast(g / b.data, a.data.shape),
         lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)),
    )


def neg(a) -> Tensor:
    a = as_tensor(a)
    return Tensor._result(-a.data, (a,), (lambda g: -g,))


def pow_scalar(a, k: float) -> Tensor:
    a = as_tensor(a)
    k = float(k)
    out = a.data ** k
    return Tensor._result(out, (a,), (lambda g: g * k * a.data ** (k - 1.0),))


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    return Tensor._result(out, (a,), (lambda g: g * out,))


def log(a) -> Tensor:
    a = as_tensor(a)
    out = np.log(a.data)
    return Tensor._result(out, (a,), (lambda g: g / a.data,))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = np.sqrt(a.data)
    return Tensor._result(out, (a,), (lambda g: g * 0.5 / out,))


def absolute(a) -> Tensor:
    # d|x|/dx at 0 is taken as 0, matching the ReLU'(0)=0 convention
    a = as_tensor(a)
    s = np.sign(a.data)
    return Tensor._result(np.abs(a.data), (a,), (lambda g: g * s,))


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0.0
    return Tensor._result(np.where(mask, a.data, 0.0), (a,), (lambda g: g * mask,))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    # split by sign for stability at large |x|
    out = np.empty_like(a.data)
    pos = a.data >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a.data[pos]))
    ez = np.exp(a.data[~pos])
    out[~pos] = ez / (1.0 + ez)
    return Tensor._result(out, (a,), (lambda g: g * out * (1.0 - out),))


def clamp(a, lo: float, hi: float) -> Tensor:
    """Clip values to [lo, hi]; gradient is identity strictly inside."""
    a = as_tensor(a)
    mask = (a.data > lo) & (a.data < hi)
    return Tensor._result(np.clip(a.data, lo, hi), (a,), (lambda g: g * mask,))


# -- linear algebra ---------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")
    return Tensor._result(
        a.data @ b.data,
        (a, b),
        (lambda g: g @ b.data.T,
         lambda g: a.data.T @ g),
    )


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
        return np.broadcast_to(g, a.data.shape).copy()

    return Tensor._result(out, (a,), (vjp,))


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
        return z

    return Tensor._result(out, (a,), (vjp,))


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
        return out * (g - inner)

    return Tensor._result(out, (a,), (vjp,))


# -- shape ops ----------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)
    return Tensor._result(out, (a,), (lambda g: g.reshape(a.data.shape),))


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return Tensor._result(a.data.transpose(axes), (a,), (lambda g: g.transpose(inv),))


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
        return z

    return Tensor._result(a.data[sl], (a,), (vjp,))


def concat(parts, axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise EmptyInputError("concat of zero tensors")
    ax = axis % parts[0].data.ndim
    out = np.concatenate([p.data for p in parts], axis=ax)
    offsets = np.cumsum([0] + [p.data.shape[ax] for p in parts])

    def make_vjp(i):
        sl = [slice(None)] * parts[i].data.ndim
        sl[ax] = slice(int(offsets[i]), int(offsets[i + 1]))
        sl = tuple(sl)
        return lambda g: g[sl]

    return Tensor._result(out, tuple(parts), tuple(make_vjp(i) for i in range(len(parts))))


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


def gather_rows(a, idx) -> Tensor:
    """Index axis 0 with an integer array; output shape idx.shape + a.shape[1:].

    Backward scatter-adds, so repeated indices accumulate.
    """
    a = as_tensor(a)
    idx = np.asarray(idx)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError("gather_rows needs integer indices")
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise ShapeError("gather_rows index out of range")
    out = a.data[idx]

    return Tensor._result(out, (a,), (lambda g: _scatter_rows(idx, g, a.data.shape),))


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

    def vjp_grid(g):
        # all four corners in one scatter, in corner order
        cells = np.concatenate([v0 * w + u0, v0 * w + u1, v1 * w + u0, v1 * w + u1])
        vals = np.concatenate([(1 - wu) * (1 - wv) * g, wu * (1 - wv) * g,
                               (1 - wu) * wv * g, wu * wv * g])
        return _scatter_rows(cells, vals, (h * w,) + grid.data.shape[2:]).reshape(grid.data.shape)

    def vjp_uv(g):
        du = ((1 - wv) * (g01 - g00) + wv * (g11 - g10)) * g
        dv = ((1 - wu) * (g10 - g00) + wu * (g11 - g01)) * g
        return np.stack([du.sum(axis=1) * u_in, dv.sum(axis=1) * v_in], axis=1)

    return Tensor._result(out, (grid, uv), (vjp_grid, vjp_uv))


def trilinear_sample(volume, uvd) -> Tensor:
    """Sample volume [H, W, D, C] at M continuous (u, v, d) positions -> [M, C].

    u runs along W, v along H, d along D; 8-corner weighting, border clamp.
    """
    volume = as_tensor(volume)
    uvd = as_tensor(uvd)
    if volume.data.ndim != 4 or uvd.data.ndim != 2 or uvd.data.shape[1] != 3:
        raise ShapeError(f"trilinear_sample expects [H,W,D,C] and [M,3], got {volume.data.shape}, {uvd.data.shape}")
    h, w, d, _ = volume.data.shape
    u0, u1, fu, u_in = _corner_setup(uvd.data[:, 0], w)
    v0, v1, fv, v_in = _corner_setup(uvd.data[:, 1], h)
    d0, d1, fd, d_in = _corner_setup(uvd.data[:, 2], d)
    wu, wv, wd = fu[:, None], fv[:, None], fd[:, None]

    corners = {}
    for (cv, cu, cd) in ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
                         (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)):
        vi = v1 if cv else v0
        ui = u1 if cu else u0
        di = d1 if cd else d0
        corners[(cv, cu, cd)] = (vi, ui, di, volume.data[vi, ui, di])

    def weight(cv, cu, cd):
        return ((wv if cv else 1 - wv) * (wu if cu else 1 - wu) * (wd if cd else 1 - wd))

    out = sum(weight(*key) * val for key, (_, _, _, val) in corners.items())

    def vjp_volume(g):
        # all eight corners in one scatter, in corner order
        cells = np.concatenate([(vi * w + ui) * d + di for vi, ui, di, _ in corners.values()])
        vals = np.concatenate([weight(*key) * g for key in corners])
        return _scatter_rows(cells, vals, (h * w * d,) + volume.data.shape[3:]).reshape(volume.data.shape)

    def vjp_uvd(g):
        c = {k: v[3] for k, v in corners.items()}
        du = ((1 - wv) * ((1 - wd) * (c[(0, 1, 0)] - c[(0, 0, 0)]) + wd * (c[(0, 1, 1)] - c[(0, 0, 1)]))
              + wv * ((1 - wd) * (c[(1, 1, 0)] - c[(1, 0, 0)]) + wd * (c[(1, 1, 1)] - c[(1, 0, 1)])))
        dv = ((1 - wu) * ((1 - wd) * (c[(1, 0, 0)] - c[(0, 0, 0)]) + wd * (c[(1, 0, 1)] - c[(0, 0, 1)]))
              + wu * ((1 - wd) * (c[(1, 1, 0)] - c[(0, 1, 0)]) + wd * (c[(1, 1, 1)] - c[(0, 1, 1)])))
        dd = ((1 - wu) * ((1 - wv) * (c[(0, 0, 1)] - c[(0, 0, 0)]) + wv * (c[(1, 0, 1)] - c[(1, 0, 0)]))
              + wu * ((1 - wv) * (c[(0, 1, 1)] - c[(0, 1, 0)]) + wv * (c[(1, 1, 1)] - c[(1, 1, 0)])))
        return np.stack([(du * g).sum(axis=1) * u_in,
                         (dv * g).sum(axis=1) * v_in,
                         (dd * g).sum(axis=1) * d_in], axis=1)

    return Tensor._result(out, (volume, uvd), (vjp_volume, vjp_uvd))
