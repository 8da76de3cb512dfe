"""Layers, initialisation, the parameter walker, Adam, checkpoints and
the gradient checker.

Everything here runs the tensor core deterministically: the same Rng
seed yields the same parameters, the same forward values, and the same
checkpoint bytes on every platform.  Layers list no parameters
themselves: ``named_params`` finds them by walking attributes, and names
each by its attribute path.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .tensor import (
    EmptyInputError,
    NonFiniteError,
    ShapeError,
    Tensor,
    _all_finite,
    _finite_check,
    _grad_product,
    _relu_,
    _unbroadcast,
    as_tensor,
    zero_grads,
)

LBR_NORM_EPS = 1e-5


class CheckpointError(ValueError):
    """Malformed checkpoint bytes."""


class Rng:
    """Deterministic random source (PCG64 under a fixed integer seed).

    ``derive`` produces an independent child stream from a string tag, so
    sub-components can be re-seeded reproducibly without coordinating
    draw order.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def derive(self, tag: str) -> "Rng":
        digest = hashlib.sha256(f"{self.seed}:{tag}".encode()).digest()
        return Rng(int.from_bytes(digest[:8], "little"))

    def uniform(self, lo: float, hi: float, shape=None) -> np.ndarray:
        return self._gen.uniform(lo, hi, size=shape)

    def normal(self, shape, scale: float = 1.0) -> np.ndarray:
        return self._gen.normal(0.0, scale, size=shape)

    def integers(self, lo: int, hi: int, shape=None) -> np.ndarray:
        return self._gen.integers(lo, hi, size=shape)

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)


def init_weight(rng: Rng, c_in: int, c_out: int) -> Tensor:
    """Uniform in +-sqrt(1/c_in)."""
    bound = float(np.sqrt(1.0 / c_in))
    return Tensor(rng.uniform(-bound, bound, (c_in, c_out)), requires_grad=True)


def init_bias(rng: Rng, c_in: int, c_out: int) -> Tensor:
    bound = float(np.sqrt(1.0 / c_in))
    return Tensor(rng.uniform(-bound, bound, (c_out,)), requires_grad=True)


def named_params(module, prefix: str) -> list[tuple[str, Tensor]]:
    """Every Tensor a module holds, as (name, Tensor) pairs.

    Walks the module's instance attributes in the order they were
    assigned.  A Tensor is named by its attribute path under ``prefix``
    (``head.cls.fc1.weight``); an item of a list or tuple adds its index
    to the attribute's name, with no dot (``net.raw_down0``); any other
    object with a ``__dict__`` is walked into, and everything else, None
    included, is skipped.  The attribute path is the parameter's
    checkpoint key, so renaming an attribute on the way to a Tensor
    breaks every saved checkpoint.  A Tensor kept anywhere the walk does
    not reach, in a dict say, is neither trained nor saved.
    """
    out = []
    for attr, value in vars(module).items():
        # a lone value takes the empty index, so both kinds share one name rule
        items = enumerate(value) if isinstance(value, (list, tuple)) else (("", value),)
        for i, item in items:
            if isinstance(item, Tensor):
                out.append((f"{prefix}.{attr}{i}", item))
            elif hasattr(item, "__dict__"):
                out += named_params(item, f"{prefix}.{attr}{i}")
    return out


class LinearLayer:
    """y = x @ weight + bias."""

    def __init__(self, rng: Rng, c_in: int, c_out: int):
        self.c_in = c_in
        self.c_out = c_out
        self.weight = init_weight(rng, c_in, c_out)
        self.bias = init_bias(rng, c_in, c_out)

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self)


def linear(x, layer: LinearLayer) -> Tensor:
    """Row-wise affine map; accepts [..., c_in] and keeps leading axes.

    One tape op with parents (x, weight, bias).  Forward and backward run
    the numpy expressions of the chain reshape -> matmul -> add ->
    reshape in its order, so values and gradients equal that chain's bit
    for bit (``tests/oracles.py`` keeps it).
    """
    x = as_tensor(x)
    w, b = layer.weight, layer.bias
    if x.data.shape[-1] != layer.c_in:
        raise ShapeError(f"linear expects trailing dim {layer.c_in}, got {x.data.shape}")
    lead = x.data.shape[:-1]
    flat = x.data.reshape((-1, layer.c_in))
    out = flat @ w.data
    out += b.data
    parents = (x, w, b)

    def grads_of(g):
        g = g.reshape(out.shape)
        grads = [None] * len(parents)
        if x.requires_grad:
            grads[0] = _grad_product(g, w.data.T, layer.c_in, True).reshape(x.data.shape)
        if w.requires_grad:
            grads[1] = _grad_product(flat.T, g, layer.c_in, False)
        if b.requires_grad:
            grads[2] = _unbroadcast(g, b.data.shape)
        return grads

    return Tensor._result(out.reshape(lead + (layer.c_out,)), parents, grads_of)


class LbrLayer:
    """Linear -> per-feature standardisation over the point rows -> ReLU.

    The standardisation centres and scales each output feature over the
    row axis (the batch-norm analogue for a single point set) before the
    learned affine.  The linear map has no bias: the centring subtracts
    any constant added before it, so ``norm_shift`` is the only offset.
    """

    def __init__(self, rng: Rng, c_in: int, c_out: int):
        self.c_in = c_in
        self.c_out = c_out
        self.weight = init_weight(rng, c_in, c_out)
        self.norm_scale = Tensor(np.ones(c_out), requires_grad=True)
        self.norm_shift = Tensor(np.zeros(c_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return lbr(x, self)


def lbr(x, layer: LbrLayer, eps: float = LBR_NORM_EPS) -> Tensor:
    """Apply an LbrLayer to [N, c_in] (or [..., c_in], flattened to rows).

    One tape op with parents (x, weight, norm_scale, norm_shift).
    Forward runs the numpy expressions of the chain reshape -> matmul ->
    mean -> centre -> mean of squares -> sqrt(var + eps) -> divide ->
    scale -> shift -> relu -> reshape in its order, so its values equal
    the chain's bit for bit (``tests/oracles.py`` keeps it).  Like the
    chain, it raises NonFiniteError at the first non-finite stage,
    checking the pre-norm values, the mean, the variance and the pre-ReLU
    values.  It keeps ``centred``, its [1, c] mean ``mu`` and ``sd``, and
    reads the ReLU mask off the output as ``out > 0``.  Backward turns
    ``centred`` into ``normed = centred / sd`` in place, which releases
    it; a later backward over the same graph rebuilds it as ``flat @
    weight`` followed by ``-= mu``, the forward's bytes.

    Backward is batch norm's closed form (Ioffe & Szegedy 2015, §3).  With
    g the ReLU-masked upstream gradient, shift and scale get sum(g) and
    sum(g * normed), the chain's bytes; the pre-norm values get (g - mean(g)
    - normed * mean(g * normed)) * scale / sd, the chain's to rounding.
    """
    x = as_tensor(x)
    w, scale, shift = layer.weight, layer.norm_scale, layer.norm_shift
    if x.data.shape[-1] != layer.c_in:
        raise ShapeError(f"lbr expects trailing dim {layer.c_in}, got {x.data.shape}")
    lead = x.data.shape[:-1]
    flat = x.data.reshape((-1, layer.c_in))
    n = flat.shape[0]
    if n == 0:
        raise EmptyInputError("lbr over zero rows")
    parents = (x, w, scale, shift)
    check = _finite_check("lbr", parents)

    # in-place steps below run the chain's operations on the same values,
    # without the chain's temporaries
    h = flat @ w.data
    check(h)
    inv_n = 1.0 / n
    mu = h.sum(axis=(0,), keepdims=True) * inv_n
    centred = h
    centred -= mu
    var = (centred * centred).sum(axis=(0,), keepdims=True) * inv_n
    check(mu, var)
    sd = np.sqrt(var + eps)
    pre = centred / sd * scale.data
    pre += shift.data
    check(pre)
    out = _relu_(pre)
    kept = [centred]                                     # taken by the first backward

    def grads_of(g):
        g = g.reshape(out.shape) * (out > 0.0)           # relu
        grads = [None] * len(parents)
        if kept:                   # the forward's centred, released as it turns into normed
            normed = kept.pop()
        else:                      # a later backward rebuilds it
            normed = flat @ w.data
            normed -= mu
        normed /= sd
        g_sum, gn_sum = g.sum(axis=0), (g * normed).sum(axis=0)
        if shift.requires_grad:
            grads[3] = g_sum
        if scale.requires_grad:
            grads[2] = gn_sum
        g -= (normed * gn_sum + g_sum) * inv_n
        g *= scale.data / sd
        if w.requires_grad:
            grads[1] = _grad_product(flat.T, g, layer.c_in, False)
        if x.requires_grad:
            grads[0] = _grad_product(g, w.data.T, layer.c_in, True).reshape(x.data.shape)
        return grads

    return Tensor._result(out.reshape(lead + (layer.c_out,)), parents, grads_of, finite=True)


class Mlp:
    """Two linear layers with a ReLU between them (no normalisation)."""

    def __init__(self, rng: Rng, c_in: int, c_hidden: int, c_out: int):
        self.fc1 = LinearLayer(rng.derive("fc1"), c_in, c_hidden)
        self.fc2 = LinearLayer(rng.derive("fc2"), c_hidden, c_out)

    def __call__(self, x: Tensor) -> Tensor:
        return mlp(x, self)


# The MLP kernel of the fused ops that run an Mlp (``mlp`` below and the
# point-attention op ``fusion.attend``, for both of its MLPs): the
# numpy expressions of the chain linear -> relu -> linear over rows and
# of that chain's vjps, in its order (``tests/oracles.py`` keeps it).


def _mlp_hidden(rows: np.ndarray, fc1: LinearLayer, check) -> np.ndarray:
    """linear -> relu over rows [n, c_in]: the hidden layer.  ``check``
    sees the pre-ReLU values, the one stage before the output that can
    turn non-finite; ``Tensor._result`` checks the output."""
    h = rows @ fc1.weight.data
    h += fc1.bias.data
    check(h)
    return _relu_(h)


def _mlp_forward(rows: np.ndarray, layer: Mlp, check):
    """linear -> relu -> linear over rows [n, c_in] -> (hidden, out)."""
    hidden = _mlp_hidden(rows, layer.fc1, check)
    out = hidden @ layer.fc2.weight.data
    out += layer.fc2.bias.data
    return hidden, out


def _mlp_backward(g: np.ndarray, hidden: np.ndarray, rows, layer: Mlp, rows_grad: bool,
                  grads: list, first: int):
    """Backward of ``_mlp_forward`` for the output gradient g [n, c_out].

    Puts the required gradients of fc1.weight, fc1.bias, fc2.weight and
    fc2.bias into ``grads`` under the parent indices first .. first + 3
    and returns the rows' gradient [n, c_in] if ``rows_grad``, else None.
    ``rows`` is a no-argument function building the input rows; it runs
    only when fc1.weight needs its gradient.  The ReLU mask is read off
    ``hidden`` as ``hidden > 0``.
    """
    fc1, fc2 = layer.fc1, layer.fc2
    if fc2.weight.requires_grad:
        grads[first + 2] = _grad_product(hidden.T, g, fc2.c_in, False)
    if fc2.bias.requires_grad:
        grads[first + 3] = _unbroadcast(g, fc2.bias.data.shape)
    if not (rows_grad or fc1.weight.requires_grad or fc1.bias.requires_grad):
        return None
    g = _grad_product(g, fc2.weight.data.T, fc2.c_in, True) * (hidden > 0.0)     # relu
    if fc1.weight.requires_grad:
        grads[first] = _grad_product(rows().T, g, fc1.c_in, False)
    if fc1.bias.requires_grad:
        grads[first + 1] = _unbroadcast(g, fc1.bias.data.shape)
    return _grad_product(g, fc1.weight.data.T, fc1.c_in, True) if rows_grad else None


def mlp(x, layer: Mlp) -> Tensor:
    """Apply an Mlp to [..., c_in], keeping the leading axes.

    One tape op with parents (x, fc1.weight, fc1.bias, fc2.weight,
    fc2.bias), running the MLP kernel above, so values and gradients
    equal the chain linear -> relu -> linear bit for bit.  Like the
    chain, it raises NonFiniteError if the hidden layer or the output is
    non-finite.  It keeps the hidden layer until its backward has run; a
    later backward over the same graph rebuilds it with ``_mlp_hidden``,
    the forward's own first half.
    """
    x = as_tensor(x)
    fc1, fc2 = layer.fc1, layer.fc2
    if x.data.shape[-1] != fc1.c_in:
        raise ShapeError(f"mlp expects trailing dim {fc1.c_in}, got {x.data.shape}")
    parents = (x, fc1.weight, fc1.bias, fc2.weight, fc2.bias)
    lead = x.data.shape[:-1]
    flat = x.data.reshape((-1, fc1.c_in))
    check = _finite_check("mlp", parents)
    hidden, out = _mlp_forward(flat, layer, check)
    kept = [hidden]                                      # taken by the first backward

    def grads_of(g):
        grads = [None] * len(parents)
        # the forward's hidden layer, released when this backward returns;
        # a later backward rebuilds it
        hidden = kept.pop() if kept else _mlp_hidden(flat, fc1, check)
        g_x = _mlp_backward(g.reshape(out.shape), hidden, lambda: flat, layer,
                            x.requires_grad, grads, 1)
        if g_x is not None:
            grads[0] = g_x.reshape(x.data.shape)
        return grads

    return Tensor._result(out.reshape(lead + (fc2.c_out,)), parents, grads_of)


# -- optimiser -----------------------------------------------------------------


# Adam.step runs its elementwise chain over blocks of this many arena
# entries (256 KB per array), so the chain's temporaries stay in cache.
# On a 1.05M-entry arena a step took 18 ms against 42 ms in one pass;
# blocks of 16k and 64k entries timed the same, 8k and 128k slower.
ADAM_BLOCK = 32768


class Adam:
    """Coupled-L2 Adam over a name -> Tensor parameter dict.

    Construction copies the parameters, sorted by name, into one
    contiguous float64 arena with a matching, zeroed gradient arena and
    rebinds each Tensor's ``data`` and ``grad`` as views into them.  A step
    runs one chain of vectorised operations over each block of
    ``ADAM_BLOCK`` entries in turn, so its temporaries stay in cache
    instead of streaming arena-sized arrays through memory, and
    ``zero_grad`` is one fill.  Every operation is elementwise, so the
    values equal one pass over the whole arena, and per-tensor updates,
    bit for bit.  The finite check runs over the whole arena after the
    last block.  Weight decay enters the gradient (classic Adam), so lr = 0
    leaves the parameters untouched.  Rebinding a parameter's ``data``
    afterwards detaches it from the optimiser; write into it in place
    instead, as ``restore_params`` does.
    """

    def __init__(self, params: dict, lr: float = 0.01, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 0.0):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        tensors = [self.params[name] for name in sorted(self.params)]
        if len({id(p) for p in tensors}) != len(tensors):
            raise ValueError("Adam got the same tensor under two names")
        self.data = np.concatenate([p.data.ravel() for p in tensors] or [np.empty(0)])
        self.grad = np.zeros(self.data.size)
        off = 0
        for p in tensors:
            end = off + p.data.size
            p.data, p.grad = (self.data[off:end].reshape(p.data.shape),
                              self.grad[off:end].reshape(p.data.shape))
            off = end
        self.m = self.v = None    # allocated by the first step, keeping set-up light
        self.t = 0

    def step(self) -> None:
        # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
        # data -= lr*m_hat / (sqrt(v_hat) + eps), block by block and mostly
        # in place; same roundings in the same order
        if self.m is None:
            self.m = np.zeros_like(self.data)
            self.v = np.zeros_like(self.data)
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for lo in range(0, self.data.size, ADAM_BLOCK):
            block = slice(lo, lo + ADAM_BLOCK)
            data, m, v = self.data[block], self.m[block], self.v[block]
            g = self.grad[block] + self.weight_decay * data
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            upd = m / c1
            denom = v / c2
            np.sqrt(denom, out=denom)
            denom += self.eps
            upd *= self.lr
            upd /= denom
            np.subtract(data, upd, out=data)
        if not _all_finite(self.data):
            raise NonFiniteError("optimiser produced non-finite parameters")

    def zero_grad(self) -> None:
        self.grad.fill(0.0)


# -- checkpoint I/O --------------------------------------------------------------
#
# Flat binary, little-endian throughout:
#   magic b"TNSR" | u32 version=1 | u32 tensor count
#   per tensor: u32 name length | name utf-8 | u32 ndim | u32 * ndim dims
#               | float64 payload, C order
# Loader validates magic, version, names (utf-8, each once) and payload lengths.

CHECKPOINT_MAGIC = b"TNSR"
CHECKPOINT_VERSION = 1


def save_checkpoint(path: str, named) -> None:
    """Write a name -> Tensor (or array) dict, or (name, Tensor) pairs, in
    name order.  A name given twice raises CheckpointError before the
    file is opened, as the loader rejects it."""
    pairs = sorted(named.items() if isinstance(named, dict) else named, key=lambda kv: kv[0])
    for (name, _), (after, _) in zip(pairs, pairs[1:]):
        if name == after:
            raise CheckpointError(f"tensor name {name!r} listed twice")
    items = [(name, np.asarray(t.data if isinstance(t, Tensor) else t, dtype=np.float64))
             for name, t in pairs]
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(items)))
        for name, arr in items:
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(np.ascontiguousarray(arr).astype("<f8").tobytes())


def load_checkpoint(path: str) -> dict:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError("bad magic; not a checkpoint file")
    off = 4
    try:
        version, count = struct.unpack_from("<II", blob, off)
        off += 8
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        out = {}
        for index in range(count):
            (name_len,) = struct.unpack_from("<I", blob, off)
            off += 4
            try:
                name = blob[off:off + name_len].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"name of tensor {index} is not utf-8: {exc}") from exc
            if name in out:
                raise CheckpointError(f"tensor name {name!r} listed twice")
            off += name_len
            (ndim,) = struct.unpack_from("<I", blob, off)
            off += 4
            shape = struct.unpack_from(f"<{ndim}I", blob, off)
            off += 4 * ndim
            n = int(np.prod(shape, dtype=np.int64)) if ndim else 1
            payload = blob[off:off + 8 * n]
            if len(payload) != 8 * n:
                raise CheckpointError(f"truncated payload for tensor {name!r}")
            off += 8 * n
            out[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
        if off != len(blob):
            raise CheckpointError("trailing bytes after final tensor")
    except struct.error as exc:
        raise CheckpointError(f"truncated checkpoint: {exc}") from exc
    return out


def restore_params(params: dict, loaded: dict) -> None:
    """Copy checkpoint arrays into live parameter tensors, by name.

    Writes in place, so parameters an optimiser holds as views stay
    attached to it.  Every name, shape and value is checked before
    anything is written: a rejected checkpoint changes no parameter."""
    missing = sorted(set(params) - set(loaded))
    extra = sorted(set(loaded) - set(params))
    if missing or extra:
        raise CheckpointError(f"parameter names differ (missing {missing[:3]}, extra {extra[:3]})")
    for name, tensor in params.items():
        arr = loaded[name]
        if arr.shape != tensor.data.shape:
            raise CheckpointError(f"shape mismatch for {name}: {arr.shape} vs {tensor.data.shape}")
        if not _all_finite(arr):
            raise CheckpointError(f"non-finite values in checkpoint tensor {name}")
    for name, tensor in params.items():
        tensor.data[...] = loaded[name]


# -- finite-difference gradient checking -------------------------------------------


def gradcheck(fn, tensors, h: float = 1e-5, max_coords: int = 48,
              rng: Rng | None = None, report: list | None = None) -> float:
    """Max relative error between tape gradients and central differences.

    ``fn`` is a no-argument closure over ``tensors`` returning a scalar
    Tensor; it must be deterministic.  For parameters with more than
    ``max_coords`` entries a seeded coordinate subset is probed.  The
    per-coordinate error is |a - n| / max(|a|, |n|, floor) where the
    floor is a thousandth of the largest gradient magnitude seen for
    that tensor, so near-zero coordinates are judged against the
    tensor's own gradient scale rather than inflating FD noise.
    Coordinates where both derivatives agree within 1e-7 are skipped.
    If ``report`` is a list, one (largest |a - n| over the probed
    coordinates, coordinates skipped, coordinates probed) tuple is
    appended to it, so callers can see the margin that the returned
    error hides.
    """
    tensors = list(tensors)
    rng = rng or Rng(0)
    zero_grads(tensors)
    out = fn()
    out.backward()
    analytic = [t.grad.copy() for t in tensors]
    worst = max_abs = 0.0
    skipped = probed = 0
    for t, a in zip(tensors, analytic):
        flat = t.data.reshape(-1)
        n = flat.size
        if n <= max_coords:
            coords = np.arange(n)
        else:
            coords = np.sort(rng.choice(n, size=max_coords, replace=False))
        pairs = []
        for c in coords:
            orig = flat[c]
            flat[c] = orig + h
            f_plus = fn().item()
            flat[c] = orig - h
            f_minus = fn().item()
            flat[c] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            pairs.append((float(a.reshape(-1)[c]), numeric))
        scale = max((max(abs(p), abs(q)) for p, q in pairs), default=0.0)
        floor = max(1e-3 * scale, 1e-8)
        for ana, numeric in pairs:
            max_abs = max(max_abs, abs(ana - numeric))
            if abs(ana - numeric) <= 1e-7:
                skipped += 1
                continue  # both routes agree the coordinate is (near) zero
            err = abs(ana - numeric) / max(abs(ana), abs(numeric), floor)
            worst = max(worst, err)
        probed += len(pairs)
    zero_grads(tensors)
    if report is not None:
        report.append((max_abs, skipped, probed))
    return worst


def directional_gradcheck(fn, tensors, h: float = 1e-5, rng: Rng | None = None) -> float:
    """Relative error of the tape's derivative along one random direction.

    Draws one seeded direction v, standard normal in every coordinate of
    ``tensors``, and compares the tape's <grad f, v> with the
    Richardson-extrapolated central difference (4 D(h/2) - D(h)) / 3,
    where D(t) = (f(x + t v) - f(x - t v)) / (2 t).
    Unlike ``gradcheck``, it reads every coordinate and skips none, at
    the cost of 4 forwards, so an error in any part of any gradient
    moves it.  ``fn`` is as for ``gradcheck``.  Returns |a - n| /
    max(|a|, |n|), or 0 where both are 0.
    """
    tensors = list(tensors)
    rng = rng or Rng(0)
    zero_grads(tensors)
    fn().backward()
    v = [rng.normal(t.data.shape) for t in tensors]
    analytic = sum(float((t.grad * d).sum()) for t, d in zip(tensors, v))
    zero_grads(tensors)
    orig = [t.data.copy() for t in tensors]

    def along(step):
        for t, x, d in zip(tensors, orig, v):
            t.data[...] = x + step * d
        return fn().item()

    def central(step):
        return (along(step) - along(-step)) / (2.0 * step)

    try:
        numeric = (4.0 * central(h / 2.0) - central(h)) / 3.0
    finally:
        for t, x in zip(tensors, orig):
            t.data[...] = x
    scale = max(abs(analytic), abs(numeric))
    return abs(analytic - numeric) / scale if scale else 0.0
