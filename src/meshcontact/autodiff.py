"""Dense float64 tensors with reverse-mode differentiation on an explicit tape.

Every value in the model is a :class:`Tensor` wrapping a row-major numpy
array in double precision.  While a :class:`Tape` is active (one per
training step, opened with :func:`tape_scope`), primitives that touch a
gradient-carrying tensor append an entry recording the op kind, input and
output node ids, and a closure over the saved activations.  A tensor takes
its node id when it is built, so a leaf keeps one id on every tape, and a
copy is a new leaf.  Entries are appended in execution order, so the tape
is already topologically sorted; :func:`backward` replays it once in
reverse, summing gradient contributions over fan-out paths, and returns the
gradient of each tensor in the caller's `params` dict under its key (a
tensor's `name` is a label).

A tape is replayed at most once.  `backward` drops each entry's closure as
it reaches it, so each saved array is freed by reference counting as soon
as its gradient is computed, and closing the scope drops any closure still
held.  Entries keep their op kind and node ids, never a tensor, so once its
closures are dropped a tape and the tensors that point at it through
`_tape` form no reference cycle for the cyclic GC to find.

Without an active tape every primitive is a plain numpy computation, which
is what inference and finite-difference probing use.
"""

from __future__ import annotations

import contextlib
import itertools
import math

import numpy as np
from scipy.special import erf

from .errors import (
    ContractError,
    NonDifferentiableOpError,
    NumericsError,
    ShapeError,
)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
LAYER_NORM_EPS = 1e-5  # added to the variance before the square root
GRADCHECK_STEP = 1e-4  # central-difference step of gradient_check
GRADCHECK_TOLERANCE = 1e-4  # largest relative error gradient_check passes
# Attention shifts each head's scores by the head's max.  A row whose exps then sum below
# this has its max ~600 or more below the head's, where its exps may underflow, so the
# scores are shifted row by row instead.
_SAFE_ROW_SUM = math.exp(-600.0)
_NODE_IDS = itertools.count()  # every tensor's node id, taken when it is built


class TapeEntry:
    """One recorded primitive application."""

    __slots__ = ("op", "input_ids", "output_id", "backward_fn")

    def __init__(self, op, input_ids, output_id, backward_fn):
        self.op = op
        self.input_ids = input_ids
        self.output_id = output_id
        # backward_fn(grad_out) -> per-input gradient arrays (None for
        # inputs that do not require grad); closes over saved activations.
        # None once `backward` has replayed the entry or its scope has closed.
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of primitive applications for one forward pass."""

    def __init__(self):
        self.entries: list[TapeEntry] = []
        self.replayed = False

    def record(self, op, inputs, out, backward_fn):
        for t in inputs:
            if t._tape is not None and t._tape is not self:
                raise ContractError(f"op {op!r} mixes tensors from different tapes")
        out._tape = self
        ids = tuple(t.node_id if t.requires_grad else None for t in inputs)
        self.entries.append(TapeEntry(op, ids, out.node_id, backward_fn))


_TAPE_STACK: list[Tape] = []


def active_tape():
    """The tape currently recording, or None."""
    return _TAPE_STACK[-1] if _TAPE_STACK else None


@contextlib.contextmanager
def tape_scope():
    """Open a fresh tape for one forward/backward cycle.

    On exit, however the scope ends, every entry's closure still held is
    dropped, so the saved arrays of a forward that was never replayed, or of
    a `backward` that raised partway, are freed with the last tensor that
    uses them.  The entries themselves, with their op kinds and ids, stay.
    """
    tape = Tape()
    _TAPE_STACK.append(tape)
    try:
        yield tape
    finally:
        _TAPE_STACK.pop()
        for entry in tape.entries:
            entry.backward_fn = None


class Tensor:
    """A dense float64 array, optionally tracked for gradients; `name` is a label, not a key."""

    __slots__ = ("data", "requires_grad", "node_id", "name", "_tape")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.node_id = next(_NODE_IDS)
        self.name = name
        self._tape = None  # the tape that recorded this tensor as an op output; None for a leaf

    def __reduce__(self):
        # A copy or unpickled tensor is a new leaf: a shared id would merge the gradients.
        return Tensor, (self.data, self.requires_grad, self.name)

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
            raise ContractError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        tag = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"


def _emit(op, inputs, out_data, backward_fn) -> Tensor:
    """Build the output tensor and record a tape entry when gradients flow."""
    rg = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=rg)
    tape = active_tape()
    if tape is not None and rg:
        tape.record(op, inputs, out, backward_fn)
    return out


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    if grad.shape == tuple(shape):
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError as exc:
        raise ShapeError(f"add of shapes {a.shape} and {b.shape}: no broadcast") from exc

    def bwd(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(g, b.shape) if b.requires_grad else None,
        )

    return _emit("add", (a, b), out, bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data - b.data
    except ValueError as exc:
        raise ShapeError(f"sub of shapes {a.shape} and {b.shape}: no broadcast") from exc

    def bwd(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(-g, b.shape) if b.requires_grad else None,
        )

    return _emit("sub", (a, b), out, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"mul of shapes {a.shape} and {b.shape}: no broadcast") from exc
    ad, bd = a.data, b.data

    def bwd(g):
        return (
            _unbroadcast(g * bd, a.shape) if a.requires_grad else None,
            _unbroadcast(g * ad, b.shape) if b.requires_grad else None,
        )

    return _emit("mul", (a, b), out, bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data / b.data
    except ValueError as exc:
        raise ShapeError(f"div of shapes {a.shape} and {b.shape}: no broadcast") from exc
    ad, bd = a.data, b.data

    def bwd(g):
        return (
            _unbroadcast(g / bd, a.shape) if a.requires_grad else None,
            _unbroadcast(-g * ad / (bd * bd), b.shape) if b.requires_grad else None,
        )

    return _emit("div", (a, b), out, bwd)


def neg(a: Tensor) -> Tensor:
    def bwd(g):
        return (-g,)

    return _emit("neg", (a,), -a.data, bwd)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product a @ b.

    2-D operands follow the usual [m x k] @ [k x n] contract; operands with
    more dimensions are treated as stacks of matrices with equal leading
    extents.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2] or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out = a.data @ b.data
    ad, bd = a.data, b.data

    def bwd(g):
        ga = g @ np.swapaxes(bd, -1, -2) if a.requires_grad else None
        gb = np.swapaxes(ad, -1, -2) @ g if b.requires_grad else None
        return (ga, gb)

    return _emit("matmul", (a, b), out, bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map x @ w + b of rows x [n x k] by w [k x m] and bias b [m], as one tape entry."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeError(
            f"linear needs [n x k] @ [k x m] + [m], got {x.shape}, {w.shape}, {b.shape}"
        )
    xd, wd = x.data, w.data

    def bwd(g):
        return (
            g @ wd.T if x.requires_grad else None,
            xd.T @ g if w.requires_grad else None,
            g.sum(axis=0) if b.requires_grad else None,
        )

    out = xd @ wd
    out += b.data
    return _emit("linear", (x, w, b), out, bwd)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention of [T x D] queries, keys and values.

    Splits the width into `heads` heads of dh = D / heads, takes the softmax
    of the scaled scores per head and merges the heads' contexts back to
    [T x D], as one tape entry.
    - The scale 1/sqrt(dh) multiplies the queries, not the [heads x T x T]
      scores.
    - Each head's scores are shifted by the head's max before the exp.
      That is exact to rounding while every row's max lies within ~600 of
      its head's; if a row's sum of exps falls below `_SAFE_ROW_SUM`, the
      scores are recomputed and shifted by each row's max instead.
    - The unnormalized weights multiply the values, and the
      [heads x T x dh] context is divided by the row sums.
    - The backward keeps the exps, their row sums, the normalized context,
      the scaled queries and the keys and values split into heads.
    Output and gradients match split -> matmul -> mul -> softmax -> matmul
    -> merge within 1e-13 * max(1, max |result|) * max(1, max |score|):
    each side rounds a score to a few ulps of its size, which the softmax
    turns into a relative error of that size.
    """
    if q.ndim != 2 or k.shape != q.shape or v.shape != q.shape:
        raise ShapeError(
            f"attention needs equal [T x D] q, k, v, got {q.shape}, {k.shape}, {v.shape}"
        )
    t, d = q.shape
    if heads < 1 or d % heads:
        raise ShapeError(f"head count {heads} does not divide token width {d}")
    if t == 0:
        raise ContractError(f"attention along empty axis of shape {(heads, t, t)}")
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)
    qh = (q.data * scale).reshape(t, heads, dh).transpose(1, 0, 2)  # (heads, T, dh)
    kt = np.ascontiguousarray(k.data.reshape(t, heads, dh).transpose(1, 2, 0))  # (heads, dh, T)
    vh = v.data.reshape(t, heads, dh).transpose(1, 0, 2)
    ones = np.ones((t, 1))

    def scores():
        # An inf input can make BLAS multiply inf by 0 in its packing; the max check rejects it.
        with np.errstate(invalid="ignore"):
            return qh @ kt

    e = scores()
    m = e.max(axis=(1, 2))
    _check_max("attention", m)
    e -= m[:, None, None]
    np.exp(e, out=e)
    s = e @ ones  # (heads, T, 1) row sums
    if (s < _SAFE_ROW_SUM).any():  # a row's max sits far below its head's
        e = scores()
        _max_shift("attention", e, out=e)
        np.exp(e, out=e)
        s = e @ ones
    ctx = e @ vh
    ctx /= s

    def bwd(g):
        gc = g.reshape(t, heads, dh).transpose(1, 0, 2) / s
        gv = np.swapaxes(e, -1, -2) @ gc if v.requires_grad else None
        gs = gc @ np.ascontiguousarray(np.swapaxes(vh, -1, -2))
        # rowsum(dP * P) = rowsum(dO * O), over dh rather than T columns.
        gs -= (gc * ctx).sum(axis=-1, keepdims=True)
        gs *= e
        gq = None
        if q.requires_grad:
            gq = gs @ k.data.reshape(t, heads, dh).transpose(1, 0, 2)
            gq *= scale
        gk = np.swapaxes(gs, -1, -2) @ qh if k.requires_grad else None
        return tuple(
            x.transpose(1, 0, 2).reshape(t, d) if x is not None else None for x in (gq, gk, gv)
        )

    return _emit("attention", (q, k, v), ctx.transpose(1, 0, 2).reshape(t, d), bwd)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = np.argsort(axes)

    def bwd(g):
        return (np.transpose(g, inv),)

    try:
        out = np.transpose(a.data, axes)
    except ValueError as exc:
        raise ShapeError(f"cannot transpose {a.shape} by axes {axes}") from exc
    return _emit("transpose", (a,), out, bwd)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.shape

    def bwd(g):
        return (g.reshape(old),)

    try:
        out = a.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}") from exc
    return _emit("reshape", (a,), out, bwd)


def concat(tensors, axis=0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ContractError("concat of an empty tensor list")
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as exc:  # numpy's AxisError too
        raise ShapeError(f"concat on axis {axis} of shapes {[t.shape for t in tensors]}") from exc
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def bwd(g):
        parts = np.split(g, splits, axis=axis)
        return tuple(p if t.requires_grad else None for p, t in zip(parts, tensors))

    return _emit("concat", tuple(tensors), out, bwd)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    if not (-a.ndim <= axis < a.ndim and 0 <= start and 0 <= length
            and start + length <= a.shape[axis]):
        raise ShapeError(
            f"narrow [{start}:{start + length}) outside axis {axis} of shape {a.shape}"
        )
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    full_shape = a.shape

    def bwd(g):
        buf = np.zeros(full_shape)
        buf[idx] = g
        return (buf,)

    return _emit("narrow", (a,), a.data[idx].copy(), bwd)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Pick one entry per row: out[i] = a[i, indices[i]]."""
    idx = np.asarray(indices)
    if idx.dtype.kind not in "iu":  # an int cast would read 0.9 as column 0 and True as 1
        raise ContractError(f"gather_rows indices must be integers, got dtype {idx.dtype}")
    if a.ndim != 2 or idx.shape != (a.shape[0],):
        raise ShapeError(f"gather_rows needs [n x c] and n indices, got {a.shape}, {idx.shape}")
    bad = (idx < 0) | (idx >= a.shape[1])
    if bad.any():
        raise ShapeError(f"gather_rows indices {np.unique(idx[bad])} outside [0, {a.shape[1]})")
    rows = np.arange(a.shape[0])
    shape = a.shape

    def bwd(g):
        buf = np.zeros(shape)
        buf[rows, idx] = g
        return (buf,)

    return _emit("gather_rows", (a,), a.data[rows, idx].copy(), bwd)


# ---------------------------------------------------------------------------
# reductions


def sum_(a: Tensor) -> Tensor:
    """The sum of all entries, as a scalar."""
    shape = a.shape

    def bwd(g):
        return (np.broadcast_to(g, shape).copy(),)

    return _emit("sum", (a,), a.data.sum(), bwd)


def mean(a: Tensor, axis=None) -> Tensor:
    """Mean over `axis` (an int or a tuple of ints), or over all entries if None."""
    shape = a.shape
    try:
        out = a.data.mean(axis=axis)
    except ValueError as exc:  # numpy's AxisError
        raise ShapeError(f"mean over axis {axis} of shape {shape}") from exc
    axes = axis if isinstance(axis, tuple) else (axis,)
    count = a.size if axis is None else math.prod(shape[ax] for ax in axes)

    def bwd(g):
        gg = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gg / count, shape).copy(),)

    return _emit("mean", (a,), out, bwd)


# ---------------------------------------------------------------------------
# nonlinearities


def _check_max(op, m: np.ndarray):
    """Reject a softmax whose maxes `m` hold NaN, which max propagates, or an infinity."""
    if not np.isfinite(m).all():
        raise NumericsError(f"{op} input contains NaN or a row whose max is not finite")


def _max_shift(op, x: np.ndarray, out=None) -> np.ndarray:
    """x minus its max along the last axis, into `out` (a new array if None).

    Rejects what a softmax cannot normalize: no axis, NaN, which the max
    propagates, so one NaN anywhere in a row is caught without a second scan,
    and a row whose max is +inf or -inf, which the shift would turn into NaN.
    """
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ContractError(f"{op} along empty axis of shape {x.shape}")
    m = x.max(axis=-1, keepdims=True)
    _check_max(op, m)
    return np.subtract(x, m, out=out)


def softmax(x: Tensor) -> Tensor:
    """Softmax along the last axis, stabilized by max subtraction.

    Outputs are positive and sum to one along the axis.  NaN input, and a
    row whose max is infinite, is rejected rather than turned into NaN.
    """
    out = _max_shift("softmax", x.data)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _emit("softmax", (x,), out, bwd)


def log_softmax(x: Tensor) -> Tensor:
    """Log of the softmax along the last axis, computed from the max-shifted input."""
    shifted = _max_shift("log_softmax", x.data)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = np.subtract(shifted, lse, out=shifted)
    soft = np.exp(out)

    def bwd(g):
        return (g - soft * g.sum(axis=-1, keepdims=True),)

    return _emit("log_softmax", (x,), out, bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then apply gamma*x + beta."""
    if x.ndim == 0 or x.shape[-1] < 2:
        raise ContractError(f"layer_norm axis extent must be >= 2, got shape {x.shape}")
    n = x.shape[-1]
    if gamma.shape != (n,) or beta.shape != (n,):
        raise ShapeError(f"layer_norm needs gamma and beta of shape ({n},), "
                         f"got {gamma.shape}, {beta.shape}")
    # np.add.reduce(...) / n is ndarray.mean's own sum and divide, so the bits match x.var.
    d = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / n
    buf = d * d
    inv = np.add.reduce(buf, axis=-1, keepdims=True) / n
    inv += LAYER_NORM_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat = np.multiply(d, inv, out=d)
    out = np.multiply(gamma.data, xhat, out=buf)
    out += beta.data
    gd = gamma.data

    def bwd(g):
        reduce_axes = tuple(range(x.ndim - 1))
        dbeta = g.sum(axis=reduce_axes) if beta.requires_grad else None
        prod = g * xhat  # then dxhat * xhat, then xhat times that product's row mean
        dgamma = prod.sum(axis=reduce_axes) if gamma.requires_grad else None
        if not x.requires_grad:
            return (None, dgamma, dbeta)
        dx = g * gd  # dxhat, then dx in place
        np.multiply(dx, xhat, out=prod)
        m = np.add.reduce(prod, axis=-1, keepdims=True) / n
        dx -= np.add.reduce(dx, axis=-1, keepdims=True) / n
        dx -= np.multiply(xhat, m, out=prod)
        dx *= inv
        return (dx, dgamma, dbeta)

    return _emit("layer_norm", (x, gamma, beta), out, bwd)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian error linear unit x * Phi(x)."""
    xd = x.data
    # Each buffer is an array even for a 0-d x, which a plain product would make a scalar.
    cdf = np.multiply(xd, _INV_SQRT2, out=np.empty(xd.shape))
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5

    def bwd(g):
        d = np.multiply(-0.5, xd, out=np.empty(xd.shape))  # the pdf, then the gradient
        d *= xd
        np.exp(d, out=d)
        d *= _INV_SQRT2PI
        d *= xd
        d += cdf
        d *= g
        return (d,)

    return _emit("gelu", (x,), xd * cdf, bwd)


def sigmoid(x: Tensor) -> Tensor:
    """1 / (1 + exp(-x)); below about -709 the exp overflows to inf and the output is 0."""
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + np.exp(-x.data))

    def bwd(g):
        return (g * out * (1.0 - out),)

    return _emit("sigmoid", (x,), out, bwd)


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)

    def bwd(g):
        return (g * out,)

    return _emit("exp", (x,), out, bwd)


def log(x: Tensor) -> Tensor:
    xd = x.data

    def bwd(g):
        return (g / xd,)

    return _emit("log", (x,), np.log(x.data), bwd)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient passes through the interior, zero outside."""
    inside = (x.data >= lo) & (x.data <= hi)

    def bwd(g):
        return (g * inside,)

    return _emit("clip", (x,), np.clip(x.data, lo, hi), bwd)


def hard_threshold(x: Tensor, tau: float) -> Tensor:
    """Binarize x >= tau to {0,1}. Forward-only: backward raises."""

    def bwd(g):
        raise NonDifferentiableOpError("hard_threshold has no gradient")

    return _emit("hard_threshold", (x,), (x.data >= tau).astype(np.float64), bwd)


# ---------------------------------------------------------------------------
# convolution


def conv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Non-overlapping patch convolution of x [C,H,W] with w [O,C,k,k] plus bias b [O].

    The kernel side k is the stride: each output pixel is the affine map of
    one k x k patch, so H and W must be multiples of k and the output is
    [O, H/k, W/k].  This is a ViT-style patch embedding.
    """
    if x.ndim != 3 or w.ndim != 4:
        raise ShapeError(f"conv2d needs x [C,H,W] and w [O,C,k,k], got {x.shape}, {w.shape}")
    c, h, wid = x.shape
    o, cw, k, kw = w.shape
    if cw != c:
        raise ShapeError(f"conv2d channel mismatch: x {x.shape} vs w {w.shape}")
    if k == 0 or kw != k or h % k or wid % k:
        raise ShapeError(f"conv2d needs a square kernel whose side divides H and W, "
                         f"got x {x.shape} and w {w.shape}")
    if b.shape != (o,):
        raise ShapeError(f"conv2d needs a bias of shape ({o},) for w {w.shape}, got {b.shape}")
    ho, wo = h // k, wid // k

    cols = x.data.reshape(c, ho, k, wo, k).transpose(1, 3, 0, 2, 4).reshape(ho * wo, c * k * k)
    wflat = w.data.reshape(o, c * k * k)
    out = (cols @ wflat.T + b.data).T.reshape(o, ho, wo)

    def bwd(g):
        gflat = g.reshape(o, ho * wo).T  # (ho*wo, O)
        gw = (gflat.T @ cols).reshape(w.shape) if w.requires_grad else None
        gx = None
        if x.requires_grad:  # each patch's gradient back to where the patch came from
            gx = (gflat @ wflat).reshape(ho, wo, c, k, k).transpose(2, 0, 3, 1, 4)
            gx = gx.reshape(c, h, wid)
        gb = g.sum(axis=(1, 2)) if b.requires_grad else None
        return (gx, gw, gb)

    return _emit("conv2d", (x, w, b), out, bwd)


# ---------------------------------------------------------------------------
# backward and verification


def backward(loss: Tensor, params: dict) -> dict:
    """Reverse the active tape from `loss`; the gradient of each tensor in `params` by key.

    Gradients accumulate by summation over fan-out paths.  A parameter the
    loss does not reach, or one that does not require grad, gets zeros.  A
    parameter must be a leaf: an op output raises ContractError, and leaves
    the tape unreplayed.

    The tape is replayed once: each entry's closure is dropped before it
    runs, so its saved arrays are freed as soon as its gradient is computed,
    and a second call on the same tape raises ContractError.
    """
    tape = active_tape()
    if tape is None:
        raise ContractError("backward called with no active tape")
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss._tape is not tape:
        raise ContractError("loss tensor is not on the active tape")
    for key, p in params.items():
        if p._tape is not None:
            raise ContractError(f"parameter {key!r} is an op output, not a leaf")
    if tape.replayed:
        raise ContractError("tape already replayed")
    tape.replayed = True

    grads: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.data)}
    for entry in reversed(tape.entries):
        # Dropped before the `continue`, so entries off the loss path are released too.
        fn, entry.backward_fn = entry.backward_fn, None
        g = grads.pop(entry.output_id, None)
        if g is None:
            continue
        contribs = fn(g)
        for nid, contrib in zip(entry.input_ids, contribs):
            if nid is None or contrib is None:
                continue
            grads[nid] = grads[nid] + contrib if nid in grads else contrib

    out = {}
    for key, p in params.items():
        g = grads.get(p.node_id)
        out[key] = Tensor(g if g is not None else np.zeros_like(p.data))
    return out


class GradCheckReport:
    """Outcome of a central-difference gradient check."""

    def __init__(self, per_param: dict):
        self.per_param = per_param
        self.max_error = max(per_param.values()) if per_param else 0.0
        self.passed = self.max_error <= GRADCHECK_TOLERANCE

    def __repr__(self):
        worst = max(self.per_param, key=self.per_param.get) if self.per_param else "-"
        return (
            f"GradCheckReport(passed={self.passed}, max_error={self.max_error:.3e},"
            f" worst={worst!r})"
        )


def gradient_check(f, params: dict) -> GradCheckReport:
    """Compare analytic gradients of a scalar function against central differences.

    `f` maps the named parameter dict to a scalar Tensor and must be pure.
    Each entry is stepped by +-GRADCHECK_STEP.  Per-element relative error is
    |analytic - numeric| / max(1, |analytic|); the report passes iff the max
    over all parameters is <= GRADCHECK_TOLERANCE.
    """
    h = GRADCHECK_STEP
    with tape_scope():
        loss = f(params)
        if not np.isfinite(loss.data).all():
            raise NumericsError("non-finite loss at the unperturbed point")
        analytic = backward(loss, params)

    per_param = {}
    for name, p in params.items():
        numeric = np.zeros(p.shape)
        for i in np.ndindex(p.shape):  # in place: a reshape of a strided array is a copy
            orig = p.data[i]
            p.data[i] = orig + h
            fp = f(params).item()
            p.data[i] = orig - h
            fm = f(params).item()
            p.data[i] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise NumericsError(f"non-finite value while perturbing parameter {name!r}")
            numeric[i] = (fp - fm) / (2.0 * h)
        a = analytic[name].data
        err = np.abs(a - numeric) / np.maximum(1.0, np.abs(a))
        per_param[name] = float(err.max()) if err.size else 0.0
    return GradCheckReport(per_param)
