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

A backward closure holds only the arrays, requires-grad flags and shapes
its gradient formulas read, never a tensor: an input's array is kept only
when a gradient that will be computed reads it.  So the tape keeps no
activation its backward does not read.  Nor does it keep what the backward
can cheaply rebuild: attention rebuilds its exps from the queries and keys
it keeps, and GELU keeps one derivative, not its input and CDF.  As neither
an entry nor its closure points at a tensor, a tape and the tensors that
point at it through `_tape` form no reference cycle for the cyclic GC to find.

A tape is replayed at most once.  `backward` drops each entry's closure as
it reaches it, so each saved array is freed by reference counting as soon
as its gradient is computed, and closing the scope drops any closure still
held.  The entries keep their op kinds and node ids.

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
    NumericsError,
    ShapeError,
    _is_int,
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


def _broadcast_op(op, a: Tensor, b: Tensor, fn, grad_a, grad_b, reads=("", "")) -> Tensor:
    """`fn(a.data, b.data)` under numpy broadcasting, recorded on the tape as `op`.

    `grad_a(g, x, y)` and `grad_b(g, x, y)` give the gradient of each input at the output's
    shape, from the output gradient `g` and the input arrays `x` and `y`.  Each is called
    only if its input requires grad, and summed back to that input's shape.  `reads` names
    the arrays ("x", "y" or both) each formula reads; an array no called formula reads is
    not kept, and reaches the formulas as None.
    """
    ad, bd = a.data, b.data
    try:
        out = fn(ad, bd)
    except ValueError as exc:
        raise ShapeError(f"{op} of shapes {a.shape} and {b.shape}: no broadcast") from exc
    a_rg, b_rg, a_shape, b_shape = a.requires_grad, b.requires_grad, a.shape, b.shape
    read = (reads[0] if a_rg else "") + (reads[1] if b_rg else "")
    x = ad if "x" in read else None
    y = bd if "y" in read else None

    def bwd(g):
        return (
            _unbroadcast(grad_a(g, x, y), a_shape) if a_rg else None,
            _unbroadcast(grad_b(g, x, y), b_shape) if b_rg else None,
        )

    return _emit(op, (a, b), out, bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _broadcast_op("add", a, b, np.add, lambda g, x, y: g, lambda g, x, y: g)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _broadcast_op("sub", a, b, np.subtract, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _broadcast_op("mul", a, b, np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x,
                         reads=("y", "x"))


def div(a: Tensor, b: Tensor) -> Tensor:
    return _broadcast_op("div", a, b, np.true_divide, lambda g, x, y: g / y,
                         lambda g, x, y: -g * x / (y * y), reads=("y", "xy"))


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
    a_rg, b_rg = a.requires_grad, b.requires_grad
    ad = a.data if b_rg else None  # each operand is kept only for the other's gradient
    bd = b.data if a_rg else None

    def bwd(g):
        ga = g @ np.swapaxes(bd, -1, -2) if a_rg else None
        gb = np.swapaxes(ad, -1, -2) @ g if b_rg else None
        return (ga, gb)

    return _emit("matmul", (a, b), out, bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map x @ w + b of rows x [n x k] by w [k x m] and bias b [m], as one tape entry."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeError(
            f"linear needs [n x k] @ [k x m] + [m], got {x.shape}, {w.shape}, {b.shape}"
        )
    x_rg, w_rg, b_rg = x.requires_grad, w.requires_grad, b.requires_grad
    xd = x.data if w_rg else None  # x and w are each kept only for the other's gradient
    wd = w.data if x_rg else None

    def bwd(g):
        return (
            g @ wd.T if x_rg else None,
            xd.T @ g if w_rg else None,
            g.sum(axis=0) if b_rg else None,
        )

    out = x.data @ w.data
    out += b.data
    return _emit("linear", (x, w, b), out, bwd)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention of [Tq x D] queries on [Tk x D] keys and values.

    `k` and `v` must have equal shapes and `q` their width D; the output and
    the queries' gradient are [Tq x D], the keys' and values' gradients
    [Tk x D]. Splits the width into `heads` heads of dh = D / heads, takes the
    softmax of the scaled scores per head and merges the heads' contexts back
    to [Tq x D], as one tape entry.
    - The scale 1/sqrt(dh) multiplies the queries, not the [heads x Tq x Tk]
      scores.
    - Each head's scores are shifted by the head's max before the exp.
      That is exact to rounding while every row's max lies within ~600 of
      its head's; if a row's sum of exps falls below `_SAFE_ROW_SUM`, the
      scores are recomputed and shifted by each row's max instead. The
      head max comes first because it is about 4x cheaper to take than the
      row max on the default [4 x 122 x 122] scores; only a row far below
      its head's max needs the row max.
    - The unnormalized weights multiply the values, and the
      [heads x Tq x dh] context is divided by the row sums.
    - The backward keeps the scaled queries, the keys, the values, the row
      sums, the shift the forward subtracted (per head, or per row after
      the fallback) and a view of its own output as the normalized context.
      It keeps no [heads x Tq x Tk] array: it rebuilds each head's exps,
      one head at a time, from the scaled queries, the keys and that shift,
      with the operands laid out as in the forward, so the exps and every
      gradient are those of a backward that saved them, bit for bit.
    Output and gradients match split -> matmul -> mul -> softmax -> matmul
    -> merge within 1e-13 * max(1, max |result|) * max(1, max |score|):
    each side rounds a score to a few ulps of its size, which the softmax
    turns into a relative error of that size.
    Adding one vector to every key row adds one constant to each query's
    scores, which the softmax cancels: the output keeps that tolerance, and
    the keys' gradient sums to zero over rows, so keys need no bias.
    """
    if q.ndim != 2 or k.ndim != 2 or v.shape != k.shape or q.shape[1] != k.shape[1]:
        raise ShapeError(f"attention needs [Tq x D] q and equal [Tk x D] k, v, "
                         f"got {q.shape}, {k.shape}, {v.shape}")
    (tq, d), tk = q.shape, k.shape[0]
    if not _is_int(heads):
        raise ContractError(f"attention head count must be an integer, got {heads!r}")
    if heads < 1 or d % heads:
        raise ShapeError(f"head count {heads} does not divide token width {d}")
    if tq == 0 or tk == 0:
        raise ContractError(f"attention along empty axis of shape {(heads, tq, tk)}")
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)
    qh = (q.data * scale).reshape(tq, heads, dh).transpose(1, 0, 2)  # (heads, Tq, dh)
    kh = k.data.reshape(tk, heads, dh).transpose(1, 0, 2)  # a view, kept; kt, a copy, is not
    kt = np.ascontiguousarray(kh.transpose(0, 2, 1))  # (heads, dh, Tk)
    vh = v.data.reshape(tk, heads, dh).transpose(1, 0, 2)
    ones = np.ones((tk, 1))
    for axis in ((1, 2), -1):  # each head's max; each row's if a row's max sits far below it
        # An inf input can make BLAS multiply inf by 0 in its packing; the max check rejects it.
        with np.errstate(invalid="ignore"):
            e = qh @ kt
        shift = _checked_max("attention", e, axis)  # (heads, 1, 1), then (heads, Tq, 1)
        e -= shift
        np.exp(e, out=e)
        s = e @ ones  # (heads, Tq, 1) row sums; each is >= 1 after a row shift
        if not (s < _SAFE_ROW_SUM).any():
            break
    ctx = e @ vh
    ctx /= s
    out = ctx.transpose(1, 0, 2).reshape(tq, d)
    ctx = out.reshape(tq, heads, dh).transpose(1, 0, 2)  # read through the output, not a copy
    q_rg, k_rg, v_rg = q.requires_grad, k.requires_grad, v.requires_grad

    def bwd(g):
        gc = g.reshape(tq, heads, dh).transpose(1, 0, 2) / s
        vt = np.ascontiguousarray(np.swapaxes(vh, -1, -2))
        # rowsum(dP * P) = rowsum(dO * O), over dh rather than Tk columns.
        dot = (gc * ctx).sum(axis=-1, keepdims=True)
        gq = np.empty((tq, d)) if q_rg else None  # each head fills its own columns
        gk = np.empty((tk, d)) if k_rg else None
        gv = np.empty((tk, d)) if v_rg else None
        for h in range(heads):
            cols = slice(h * dh, (h + 1) * dh)
            # This head's exps, rebuilt from operands laid out as the forward's.
            e = qh[h] @ np.ascontiguousarray(kh[h].T)
            e -= shift[h]
            np.exp(e, out=e)
            if v_rg:
                np.matmul(e.T, gc[h], out=gv[:, cols])
            gs = gc[h] @ vt[h]
            gs -= dot[h]
            gs *= e
            if q_rg:
                np.matmul(gs, kh[h], out=gq[:, cols])
            if k_rg:
                np.matmul(gs.T, qh[h], out=gk[:, cols])
        if q_rg:
            gq *= scale
        return (gq, gk, gv)

    return _emit("attention", (q, k, v), out, bwd)


def transpose(a: Tensor, axes) -> Tensor:
    try:
        axes = tuple(axes)
        out = np.transpose(a.data, axes)
    except (ValueError, TypeError) as exc:
        raise ShapeError(f"cannot transpose {a.shape} by axes {axes}") from exc
    inv = np.argsort(axes)

    def bwd(g):
        return (np.transpose(g, inv),)

    return _emit("transpose", (a,), out, bwd)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.shape

    def bwd(g):
        return (g.reshape(old),)

    try:
        out = a.data.reshape(shape)
    except (ValueError, TypeError) as exc:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}") from exc
    return _emit("reshape", (a,), out, bwd)


def concat(tensors, axis=0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ContractError("concat of an empty tensor list")
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except (ValueError, TypeError) as exc:  # numpy's AxisError, or a float or bool axis
        raise ShapeError(f"concat on axis {axis} of shapes {[t.shape for t in tensors]}") from exc
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]
    rgs = [t.requires_grad for t in tensors]

    def bwd(g):
        parts = np.split(g, splits, axis=axis)
        return tuple(p if rg else None for p, rg in zip(parts, rgs))

    return _emit("concat", tuple(tensors), out, bwd)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    if not all(map(_is_int, (axis, start, length))):  # a bool would index as 0 or 1
        raise ContractError(f"narrow needs integer axis, start and length, "
                            f"got {axis!r}, {start!r}, {length!r}")
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
    except (ValueError, TypeError) as exc:  # numpy's AxisError, or a float or bool axis
        raise ShapeError(f"mean over axis {axis} of shape {shape}") from exc
    axes = axis if isinstance(axis, tuple) else (axis,)
    count = a.size if axis is None else math.prod(shape[ax] for ax in axes)

    def bwd(g):
        gg = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gg / count, shape).copy(),)

    return _emit("mean", (a,), out, bwd)


# ---------------------------------------------------------------------------
# nonlinearities


def _checked_max(op, x: np.ndarray, axis=-1) -> np.ndarray:
    """The max of `x` along `axis`, kept as a size-1 axis: the shift a softmax subtracts.

    Rejects what a softmax cannot normalize: no last axis, NaN, which the max
    propagates, so one NaN anywhere is caught without a second scan, and a
    max of +inf or -inf, which the shift would turn into NaN.
    """
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ContractError(f"{op} along empty axis of shape {x.shape}")
    m = x.max(axis=axis, keepdims=True)
    if not np.isfinite(m).all():
        raise NumericsError(f"{op} input contains NaN or a row whose max is not finite")
    return m


def softmax(x: Tensor) -> Tensor:
    """Softmax along the last axis, stabilized by max subtraction.

    Outputs are positive and sum to one along the axis.  NaN input, and a
    row whose max is infinite, is rejected rather than turned into NaN.
    """
    out = x.data - _checked_max("softmax", x.data)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _emit("softmax", (x,), out, bwd)


def log_softmax(x: Tensor) -> Tensor:
    """Log of the softmax along the last axis, computed from the max-shifted input."""
    shifted = x.data - _checked_max("log_softmax", x.data)
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
    x_rg, gamma_rg, beta_rg = x.requires_grad, gamma.requires_grad, beta.requires_grad
    gd = gamma.data if x_rg else None
    reduce_axes = tuple(range(x.ndim - 1))

    def bwd(g):
        dbeta = g.sum(axis=reduce_axes) if beta_rg else None
        prod = g * xhat  # then dxhat * xhat, then xhat times that product's row mean
        dgamma = prod.sum(axis=reduce_axes) if gamma_rg else None
        if not x_rg:
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
    """Exact Gaussian error linear unit x * Phi(x).

    Only when it records a tape entry does the forward also build the derivative
    Phi(x) + x * phi(x). The entry keeps that one array, and its backward multiplies
    it by the output gradient.
    """
    xd = x.data
    # Each buffer is an array even for a 0-d x, which a plain product would make a scalar.
    cdf = np.multiply(xd, _INV_SQRT2, out=np.empty(xd.shape))
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    out = xd * cdf
    d = None
    if x.requires_grad and active_tape() is not None:
        d = np.multiply(-0.5, xd, out=np.empty(xd.shape))  # the pdf, then the derivative
        d *= xd
        np.exp(d, out=d)
        d *= _INV_SQRT2PI
        d *= xd
        d += cdf

    def bwd(g):
        return (d * g,)

    return _emit("gelu", (x,), out, bwd)


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
    """Binarize x >= tau to {0,1}. Forward-only: backward raises ContractError."""

    def bwd(g):
        raise ContractError("hard_threshold has no gradient")

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
    x_rg, w_rg, b_rg, w_shape = x.requires_grad, w.requires_grad, b.requires_grad, w.shape
    cols = cols if w_rg else None  # the patches, read only by the kernel's gradient
    wflat = wflat if x_rg else None  # and the kernel only by the input's

    def bwd(g):
        gflat = g.reshape(o, ho * wo).T  # (ho*wo, O)
        gw = (gflat.T @ cols).reshape(w_shape) if w_rg else None
        gx = None
        if x_rg:  # each patch's gradient back to where the patch came from
            gx = (gflat @ wflat).reshape(ho, wo, c, k, k).transpose(2, 0, 3, 1, 4)
            gx = gx.reshape(c, h, wid)
        gb = g.sum(axis=(1, 2)) if b_rg else None
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
