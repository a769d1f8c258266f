"""Dense float64 tensors with reverse-mode differentiation on an explicit tape.

Every value in the model is a :class:`Tensor` wrapping a row-major numpy
array in double precision.  While a :class:`Tape` is active (one per
training step, opened with :func:`tape_scope`), primitives that touch a
gradient-carrying tensor append an entry recording the op kind, input and
output node ids, and a closure over the saved activations.  Entries are
appended in execution order, so the tape is already topologically sorted;
:func:`backward` replays it once in reverse, summing gradient
contributions over fan-out paths.

Without an active tape every primitive is a plain numpy computation, which
is what inference and finite-difference probing use.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np
from scipy.special import erf

from .errors import (
    ConfigError,
    ContractError,
    EvaluationError,
    NonDifferentiableOpError,
    NumericsError,
    ShapeError,
)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class TapeEntry:
    """One recorded primitive application."""

    __slots__ = ("op", "input_ids", "output_id", "backward_fn")

    def __init__(self, op, input_ids, output_id, backward_fn):
        self.op = op
        self.input_ids = input_ids
        self.output_id = output_id
        # backward_fn(grad_out) -> per-input gradient arrays (None for
        # inputs that do not require grad); closes over saved activations.
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of primitive applications for one forward pass."""

    def __init__(self):
        self.entries: list[TapeEntry] = []
        self.leaves: dict[int, Tensor] = {}
        self._next_id = 0

    def new_id(self) -> int:
        nid = self._next_id
        self._next_id += 1
        return nid

    def register_leaf(self, t: "Tensor") -> int:
        if t.node_id is None or t._tape is not self:
            t.node_id = self.new_id()
            t._tape = self
            self.leaves[t.node_id] = t
        return t.node_id

    def record(self, op, inputs, out, backward_fn):
        ids = []
        for t in inputs:
            if not t.requires_grad:
                ids.append(None)
            elif t._tape is self:
                ids.append(t.node_id)
            elif t._tape is None or t._tape.leaves.get(t.node_id) is t:
                # A new leaf, or a leaf of an earlier tape (a parameter
                # reused across steps), which is re-registered here.
                ids.append(self.register_leaf(t))
            else:
                raise ContractError(f"op {op!r} mixes tensors from different tapes")
        out.node_id = self.new_id()
        out._tape = self
        self.entries.append(TapeEntry(op, tuple(ids), out.node_id, backward_fn))


_TAPE_STACK: list[Tape] = []


def active_tape():
    """The tape currently recording, or None."""
    return _TAPE_STACK[-1] if _TAPE_STACK else None


@contextlib.contextmanager
def tape_scope():
    """Open a fresh tape for one forward/backward cycle."""
    tape = Tape()
    _TAPE_STACK.append(tape)
    try:
        yield tape
    finally:
        _TAPE_STACK.pop()


class Tensor:
    """A dense n-dimensional float64 array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "node_id", "name", "_tape")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.node_id = None
        self.name = name
        self._tape = None

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

    # Operator sugar; constants are wrapped as non-grad tensors.
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


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
    out = a.data + b.data

    def bwd(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(g, b.shape) if b.requires_grad else None,
        )

    return _emit("add", (a, b), out, bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def bwd(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(-g, b.shape) if b.requires_grad else None,
        )

    return _emit("sub", (a, b), out, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    ad, bd = a.data, b.data

    def bwd(g):
        return (
            _unbroadcast(g * bd, a.shape) if a.requires_grad else None,
            _unbroadcast(g * ad, b.shape) if b.requires_grad else None,
        )

    return _emit("mul", (a, b), out, bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    out = a.data / b.data
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
    extents (used by multi-head attention).
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


def transpose(a: Tensor, axes=None) -> Tensor:
    axes = tuple(axes) if axes is not None else tuple(reversed(range(a.ndim)))
    inv = np.argsort(axes)

    def bwd(g):
        return (np.transpose(g, inv),)

    return _emit("transpose", (a,), np.transpose(a.data, axes), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.shape

    def bwd(g):
        return (g.reshape(old),)

    return _emit("reshape", (a,), a.data.reshape(shape), bwd)


def concat(tensors, axis=0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    if not tensors:
        raise ContractError("concat of an empty tensor list")
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        parts = np.split(g, splits, axis=axis)
        return tuple(p if t.requires_grad else None for p, t in zip(parts, tensors))

    return _emit("concat", tuple(tensors), np.concatenate([t.data for t in tensors], axis=axis), bwd)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    if not (0 <= start and start + length <= a.shape[axis]):
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
    idx = np.asarray(indices, dtype=np.int64)
    if a.ndim != 2 or idx.shape != (a.shape[0],):
        raise ShapeError(f"gather_rows needs [n x c] and n indices, got {a.shape}, {idx.shape}")
    rows = np.arange(a.shape[0])
    shape = a.shape

    def bwd(g):
        buf = np.zeros(shape)
        buf[rows, idx] = g
        return (buf,)

    return _emit("gather_rows", (a,), a.data[rows, idx].copy(), bwd)


# ---------------------------------------------------------------------------
# reductions


def sum_(a: Tensor, axis=None, keepdims=False) -> Tensor:
    shape = a.shape

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape).copy(),)

    return _emit("sum", (a,), a.data.sum(axis=axis, keepdims=keepdims), bwd)


def mean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    shape = a.shape
    count = a.size if axis is None else shape[axis]

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g / count, shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg / count, shape).copy(),)

    return _emit("mean", (a,), a.data.mean(axis=axis, keepdims=keepdims), bwd)


# ---------------------------------------------------------------------------
# nonlinearities


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along `axis`, stabilized by max subtraction.

    Outputs are positive and sum to one along the axis.  NaN input is
    rejected rather than silently propagated.
    """
    if x.shape == () or x.shape[axis] == 0:
        raise ContractError(f"softmax along empty axis {axis} of shape {x.shape}")
    if np.isnan(x.data).any():
        raise NumericsError("softmax input contains NaN")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _emit("softmax", (x,), out, bwd)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    if np.isnan(x.data).any():
        raise NumericsError("log_softmax input contains NaN")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    soft = np.exp(out)

    def bwd(g):
        return (g - soft * g.sum(axis=axis, keepdims=True),)

    return _emit("log_softmax", (x,), out, bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then apply gamma*x + beta."""
    if eps <= 0:
        raise ConfigError(f"layer_norm eps must be positive, got {eps}")
    n = x.shape[-1]
    if n < 2:
        raise ContractError(f"layer_norm axis extent must be >= 2, got shape {x.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = gamma.data * xhat + beta.data
    gd = gamma.data

    def bwd(g):
        dxhat = g * gd
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        reduce_axes = tuple(range(x.ndim - 1))
        dgamma = (g * xhat).sum(axis=reduce_axes) if gamma.requires_grad else None
        dbeta = g.sum(axis=reduce_axes) if beta.requires_grad else None
        return (dx if x.requires_grad else None, dgamma, dbeta)

    return _emit("layer_norm", (x, gamma, beta), out, bwd)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian error linear unit x * Phi(x)."""
    cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    out = x.data * cdf
    xd = x.data

    def bwd(g):
        pdf = np.exp(-0.5 * xd * xd) * _INV_SQRT2PI
        return (g * (cdf + xd * pdf),)

    return _emit("gelu", (x,), out, bwd)


def sigmoid(x: Tensor) -> Tensor:
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


def conv2d(x: Tensor, w: Tensor, b=None, stride: int = 1) -> Tensor:
    """Strided valid 2-D convolution of x [C,H,W] with w [O,C,kh,kw]."""
    if x.ndim != 3 or w.ndim != 4:
        raise ShapeError(f"conv2d needs x [C,H,W] and w [O,C,kh,kw], got {x.shape}, {w.shape}")
    c, h, wid = x.shape
    o, cw, kh, kw = w.shape
    if cw != c:
        raise ShapeError(f"conv2d channel mismatch: x {x.shape} vs w {w.shape}")
    if (h - kh) % stride or (wid - kw) % stride:
        raise ShapeError(
            f"conv2d extents {x.shape} not divisible by stride {stride} with kernel {kh}x{kw}"
        )
    ho = (h - kh) // stride + 1
    wo = (wid - kw) // stride + 1

    win = np.lib.stride_tricks.sliding_window_view(x.data, (kh, kw), axis=(1, 2))
    win = win[:, ::stride, ::stride]  # (C, ho, wo, kh, kw)
    cols = win.transpose(1, 2, 0, 3, 4).reshape(ho * wo, c * kh * kw)
    wflat = w.data.reshape(o, c * kh * kw)
    out = cols @ wflat.T
    if b is not None:
        out = out + b.data
    out = out.T.reshape(o, ho, wo)
    inputs = (x, w) if b is None else (x, w, b)

    def bwd(g):
        gflat = g.reshape(o, ho * wo).T  # (ho*wo, O)
        gw = (gflat.T @ cols).reshape(w.shape) if w.requires_grad else None
        gx = None
        if x.requires_grad:
            dcols = (gflat @ wflat).reshape(ho, wo, c, kh, kw)
            gx = np.zeros((c, h, wid))
            for di in range(kh):
                for dj in range(kw):
                    gx[:, di : di + stride * ho : stride, dj : dj + stride * wo : stride] += (
                        dcols[:, :, :, di, dj].transpose(2, 0, 1)
                    )
        if b is None:
            return (gx, gw)
        gb = g.sum(axis=(1, 2)) if b.requires_grad else None
        return (gx, gw, gb)

    return _emit("conv2d", inputs, out, bwd)


# ---------------------------------------------------------------------------
# backward and verification


def backward(loss: Tensor, params: dict | None = None) -> dict:
    """Reverse the active tape from `loss`, returning leaf gradients by name.

    Gradients accumulate by summation over fan-out paths.  Leaves listed in
    `params` but untouched by the loss get explicit zero gradients.
    """
    tape = active_tape()
    if tape is None:
        raise ContractError("backward called with no active tape")
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.node_id is None or loss._tape is not tape:
        raise ContractError("loss tensor is not on the active tape")

    grads: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.data)}
    for entry in reversed(tape.entries):
        g = grads.pop(entry.output_id, None)
        if g is None:
            continue
        contribs = entry.backward_fn(g)
        for nid, contrib in zip(entry.input_ids, contribs):
            if nid is None or contrib is None:
                continue
            if nid in grads:
                grads[nid] = grads[nid] + contrib
            else:
                grads[nid] = contrib

    out: dict[str, Tensor] = {}
    for nid, leaf in tape.leaves.items():
        if leaf.name is not None:
            g = grads.get(nid)
            out[leaf.name] = Tensor(g if g is not None else np.zeros_like(leaf.data))
    if params:
        for name, p in params.items():
            if name not in out:
                out[name] = Tensor(np.zeros_like(p.data))
    return out


class GradCheckReport:
    """Outcome of a central-difference gradient check."""

    def __init__(self, per_param: dict, tolerance: float):
        self.per_param = per_param
        self.tolerance = tolerance
        self.max_error = max(per_param.values()) if per_param else 0.0
        self.passed = self.max_error <= tolerance

    def __repr__(self):
        worst = max(self.per_param, key=self.per_param.get) if self.per_param else "-"
        return (
            f"GradCheckReport(passed={self.passed}, max_error={self.max_error:.3e},"
            f" worst={worst!r})"
        )


def gradient_check(f, params: dict, h: float = 1e-4, tolerance: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients of a scalar function against central differences.

    `f` maps the named parameter dict to a scalar Tensor and must be pure.
    Per-element relative error is |analytic - numeric| / max(1, |analytic|);
    the report passes iff the max over all parameters is <= tolerance.
    """
    if not (1e-6 <= h <= 1e-3):
        raise ContractError(f"gradient_check step h={h} outside [1e-6, 1e-3]")

    with tape_scope():
        loss = f(params)
        if not np.isfinite(loss.data).all():
            raise EvaluationError("non-finite loss at the unperturbed point")
        analytic = backward(loss, params=params)

    per_param = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f(params).item()
            flat[i] = orig - h
            fm = f(params).item()
            flat[i] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise EvaluationError(f"non-finite value while perturbing parameter {name!r}")
            numeric[i] = (fp - fm) / (2.0 * h)
        a = analytic[name].data.reshape(-1)
        err = np.abs(a - numeric) / np.maximum(1.0, np.abs(a))
        per_param[name] = float(err.max()) if err.size else 0.0
    return GradCheckReport(per_param, tolerance)
