"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Everything is built on numpy arrays. A Tensor wraps one array together with
an optional gradient buffer and the closure that pushes gradients to its
parents. Calling backward() on a scalar loss builds a ComputationTape (the
topological order of the graph) and walks it once in reverse.

Design notes:
  - float32 is the working precision; gradient checking requires float64
    tensors, constructed via set_default_dtype or explicit dtype arguments.
  - a Python scalar operand of add/sub/mul/div is weak, as in numpy's own
    NEP 50 rule: it takes the dtype of the tensor it meets. A float32 model
    therefore stays float32 end to end, and float64 tensors stay float64.
  - attention() is one fused op for softmax(scale * q @ k^T + bias) @ v. It
    works in a single (heads, S, S) buffer, keeps only the attention weights
    for backward, and gives the same bits as the composed op chain.
  - broadcasting is supported for leading batch dimensions (gradients are
    reduced back to the parent shape); anything fancier should be written
    with explicit reshape.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor", "ComputationTape", "tensor", "zeros", "ones", "randn",
    "set_default_dtype", "get_default_dtype", "default_dtype", "no_grad",
    "matmul", "add", "sub", "mul", "neg", "div",
    "transpose", "reshape", "concat", "stack", "narrow", "index_select", "pick",
    "softmax", "log_softmax", "layer_norm", "gelu", "tanh", "mean", "sum_",
    "masked_fill", "attention", "cross_entropy", "l2_normalize", "backward",
    "grad_check",
]

_DEFAULT_DTYPE = np.float32
_GRAD_ENABLED = True


def set_default_dtype(dtype) -> None:
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError("default dtype must be float32 or float64")
    _DEFAULT_DTYPE = dtype.type


def get_default_dtype():
    return _DEFAULT_DTYPE


@contextlib.contextmanager
def default_dtype(dtype):
    saved = _DEFAULT_DTYPE
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(saved)


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block."""
    global _GRAD_ENABLED
    saved = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = saved


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False,
                 _parents: tuple = (), _backward_fn: Callable | None = None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype.kind in ("i", "u", "b") or arr.dtype == object:
            arr = arr.astype(_DEFAULT_DTYPE)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents = _parents
        self._backward_fn = _backward_fn

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return self.data.item()

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        backward(self)

    # operator sugar; every implementation lives in the module functions
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes: Sequence[int] | None = None) -> "Tensor":
        return transpose(self, axes)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


@dataclass
class ComputationTape:
    """Topological order of the graph below a root; root is last."""

    nodes: list[Tensor]

    @classmethod
    def build(cls, root: Tensor) -> "ComputationTape":
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        return cls(order)


def _ensure(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _is_weak(x) -> bool:
    """A Python (not numpy) scalar: its dtype yields to the other operand's."""
    return isinstance(x, (int, float)) and not isinstance(x, np.generic)


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Wrap a binary op's operands; a Python scalar takes the tensor's dtype."""
    if isinstance(a, Tensor) and _is_weak(b):
        return a, Tensor(np.asarray(b, dtype=a.dtype))
    if isinstance(b, Tensor) and _is_weak(a):
        return Tensor(np.asarray(a, dtype=b.dtype)), b
    return _ensure(a), _ensure(b)


def _track(*tensors: Tensor) -> bool:
    return _GRAD_ENABLED and any(t.requires_grad for t in tensors)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the parent's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _make(data: np.ndarray, parents: tuple, bw: Callable | None) -> Tensor:
    track = _track(*parents)
    return Tensor(data, requires_grad=track, _parents=parents if track else (),
                  _backward_fn=bw if track else None)


# ---------------------------------------------------------------------------
# constructors

def tensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    arr = np.asarray(data, dtype=dtype if dtype is not None else None)
    if dtype is None and arr.dtype.kind == "f":
        arr = arr.astype(_DEFAULT_DTYPE, copy=False)
    return Tensor(arr, requires_grad=requires_grad)


def zeros(shape, requires_grad: bool = False, dtype=None) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype or _DEFAULT_DTYPE),
                  requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False, dtype=None) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype or _DEFAULT_DTYPE),
                  requires_grad=requires_grad)


def randn(shape, rng: np.random.Generator, scale: float = 1.0,
          requires_grad: bool = False, dtype=None) -> Tensor:
    data = rng.standard_normal(shape) * scale
    return Tensor(data.astype(dtype or _DEFAULT_DTYPE),
                  requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# elementwise and arithmetic ops

def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    out_data = a.data + b.data

    def bw(out):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(out.grad, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(out.grad, b.data.shape))

    return _make(out_data, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    out_data = a.data - b.data

    def bw(out):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(out.grad, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-out.grad, b.data.shape))

    return _make(out_data, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    out_data = a.data * b.data

    def bw(out):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(out.grad * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(out.grad * a.data, b.data.shape))

    return _make(out_data, (a, b), bw)


def neg(a) -> Tensor:
    a = _ensure(a)

    def bw(out):
        if a.requires_grad:
            _accumulate(a, -out.grad)

    return _make(-a.data, (a,), bw)


def div(a, b) -> Tensor:
    a, b = _operands(a, b)
    out_data = a.data / b.data

    def bw(out):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(out.grad / b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-out.grad * a.data / (b.data ** 2),
                                        b.data.shape))

    return _make(out_data, (a, b), bw)


def tanh(a) -> Tensor:
    a = _ensure(a)
    y = np.tanh(a.data)

    def bw(out):
        if a.requires_grad:
            _accumulate(a, out.grad * (1.0 - y * y))

    return _make(y, (a,), bw)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a) -> Tensor:
    """GELU with the tanh approximation."""
    a = _ensure(a)
    x = a.data
    inner = _GELU_C * (x + 0.044715 * (x * x * x))
    t = np.tanh(inner)
    y = 0.5 * x * (1.0 + t)

    def bw(out):
        if a.requires_grad:
            dinner = _GELU_C * (1.0 + 3 * 0.044715 * (x * x))
            grad = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
            _accumulate(a, out.grad * grad)

    return _make(y, (a,), bw)


# ---------------------------------------------------------------------------
# shape ops

def matmul(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul requires ndim >= 2, got {a.ndim} and {b.ndim}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out_data = np.matmul(a.data, b.data)

    def bw(out):
        if a.requires_grad:
            ga = np.matmul(out.grad, np.swapaxes(b.data, -1, -2))
            _accumulate(a, _unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), out.grad)
            _accumulate(b, _unbroadcast(gb, b.data.shape))

    return _make(out_data, (a, b), bw)


def transpose(a, axes: Sequence[int] | None = None) -> Tensor:
    a = _ensure(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def bw(out):
        if a.requires_grad:
            _accumulate(a, np.transpose(out.grad, inverse))

    return _make(np.transpose(a.data, axes), (a,), bw)


def reshape(a, shape) -> Tensor:
    a = _ensure(a)
    shape = tuple(shape)
    old = a.data.shape

    def bw(out):
        if a.requires_grad:
            _accumulate(a, out.grad.reshape(old))

    return _make(a.data.reshape(shape), (a,), bw)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = [_ensure(t) for t in tensors]
    if not ts:
        raise ValueError("concat of no tensors")
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def bw(out):
        for t, start, end in zip(ts, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * out.grad.ndim
                idx[axis] = slice(int(start), int(end))
                _accumulate(t, out.grad[tuple(idx)])

    return _make(out_data, tuple(ts), bw)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = [_ensure(t) for t in tensors]
    expanded = [reshape(t, t.shape[:axis] + (1,) + t.shape[axis:]) for t in ts]
    return concat(expanded, axis=axis)


def narrow(a, axis: int, start: int, end: int) -> Tensor:
    """Contiguous slice [start:end) along one axis."""
    a = _ensure(a)
    if not (0 <= start <= end <= a.data.shape[axis]):
        raise ValueError(f"slice [{start}:{end}) out of range for axis {axis} "
                         f"of shape {a.shape}")
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, end)
    idx = tuple(idx)

    def bw(out):
        if a.requires_grad:
            g = np.zeros_like(a.data)
            g[idx] = out.grad
            _accumulate(a, g)

    return _make(a.data[idx].copy(), (a,), bw)


def index_select(a, indices) -> Tensor:
    """Select rows along axis 0; gradients scatter-add back."""
    a = _ensure(a)
    idx = np.asarray(indices, dtype=np.int64)
    out_data = np.take(a.data, idx, axis=0)

    def bw(out):
        if a.requires_grad:
            g = np.zeros_like(a.data)
            np.add.at(g, idx, out.grad)
            _accumulate(a, g)

    return _make(out_data, (a,), bw)


def pick(a, indices) -> Tensor:
    """Per-row column gather: a is (B, C), indices length B, result (B,)."""
    a = _ensure(a)
    if a.ndim != 2:
        raise ValueError(f"pick expects a 2-D tensor, got shape {a.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.shape != (a.data.shape[0],):
        raise ValueError(f"pick needs one index per row: {idx.shape} vs {a.shape}")
    rows = np.arange(a.data.shape[0])
    out_data = a.data[rows, idx]

    def bw(out):
        if a.requires_grad:
            g = np.zeros_like(a.data)
            np.add.at(g, (rows, idx), out.grad)
            _accumulate(a, g)

    return _make(out_data, (a,), bw)


# ---------------------------------------------------------------------------
# reductions and normalizations

def _keepdims_shape(shape: tuple[int, ...], axis) -> tuple[int, ...]:
    """Shape of a reduction over axis (None: all axes) with keepdims=True."""
    if axis is None:
        return (1,) * len(shape)
    axes = {ax % len(shape) for ax in (axis if isinstance(axis, tuple) else (axis,))}
    return tuple(1 if i in axes else n for i, n in enumerate(shape))


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _ensure(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)
    kept = _keepdims_shape(a.data.shape, axis)

    def bw(out):
        if a.requires_grad:
            g = out.grad.reshape(kept)
            _accumulate(a, np.broadcast_to(g, a.data.shape).copy())

    return _make(out_data, (a,), bw)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _ensure(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    kept = _keepdims_shape(a.data.shape, axis)
    # the reduced axes are those kept at 1; an axis of size 1 counts 1 either way
    count = math.prod(n for n, k in zip(a.data.shape, kept) if n != k)

    def bw(out):
        if a.requires_grad:
            g = out.grad.reshape(kept)
            _accumulate(a, np.broadcast_to(g, a.data.shape) / count)

    return _make(out_data, (a,), bw)


def softmax(a, axis: int = -1) -> Tensor:
    a = _ensure(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bw(out):
        if a.requires_grad:
            dot = (out.grad * y).sum(axis=axis, keepdims=True)
            _accumulate(a, y * (out.grad - dot))

    return _make(y, (a,), bw)


def log_softmax(a, axis: int = -1) -> Tensor:
    a = _ensure(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - log_z

    def bw(out):
        if a.requires_grad:
            p = np.exp(y)
            total = out.grad.sum(axis=axis, keepdims=True)
            _accumulate(a, out.grad - p * total)

    return _make(y, (a,), bw)


def layer_norm(a, eps: float = 1e-12, axis: int = -1) -> Tensor:
    """Pure normalization to zero mean, unit variance; affine is external."""
    a = _ensure(a)
    if a.data.shape[axis] == 0:
        raise ValueError("layer_norm over a zero-length axis")
    mu = a.data.mean(axis=axis, keepdims=True)
    var = a.data.var(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (a.data - mu) * inv

    def bw(out):
        if a.requires_grad:
            g = out.grad
            gm = g.mean(axis=axis, keepdims=True)
            gy = (g * y).mean(axis=axis, keepdims=True)
            _accumulate(a, inv * (g - gm - y * gy))

    return _make(y, (a,), bw)


def attention(q, k, v, bias, scale: float, key_pad=None) -> Tensor:
    """Fused softmax(scale * q @ k^T + bias, padded keys -> -1e9) @ v.

    q, k, v are (..., S, dh); bias is a constant array that broadcasts to
    the (..., S, S) logits and is cast to their dtype; key_pad is a boolean
    mask of padded keys, or None: (S,) for every sequence alike, or (B, S)
    for q of shape (B, heads, S, dh). The logits live in one buffer that
    each step updates in place, and only the attention weights are kept for
    backward. The steps run in the order of the composed chain (matmul, mul,
    add, masked_fill, softmax, matmul), so values and gradients are bit for
    bit those of that chain.
    """
    q, k, v = _ensure(q), _ensure(k), _ensure(v)
    scale_arr = np.asarray(scale, dtype=q.dtype)
    att = np.matmul(q.data, np.ascontiguousarray(np.swapaxes(k.data, -1, -2)))
    pad = None
    if key_pad is not None:
        pad = np.asarray(key_pad, dtype=bool)
        # a row of keys per sequence; new axes (heads, queries) broadcast
        pad = pad.reshape(pad.shape[:-1] + (1,) * (att.ndim - pad.ndim) + pad.shape[-1:])
    att *= scale_arr
    att += np.asarray(bias, dtype=att.dtype)
    if pad is not None:
        np.copyto(att, -1e9, where=pad)
    att -= att.max(axis=-1, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=-1, keepdims=True)

    def bw(out):
        g = out.grad
        if v.requires_grad:
            _accumulate(v, np.matmul(np.swapaxes(att, -1, -2), g))
        if not (q.requires_grad or k.requires_grad):
            return
        dlogits = np.matmul(g, np.swapaxes(v.data, -1, -2))
        dlogits -= (dlogits * att).sum(axis=-1, keepdims=True)
        dlogits *= att
        if pad is not None:
            np.copyto(dlogits, 0.0, where=pad)
        dlogits *= scale_arr
        if q.requires_grad:
            kt = np.ascontiguousarray(np.swapaxes(k.data, -1, -2))
            _accumulate(q, np.matmul(dlogits, np.swapaxes(kt, -1, -2)))
        if k.requires_grad:
            dkt = np.matmul(np.swapaxes(q.data, -1, -2), dlogits)
            _accumulate(k, np.swapaxes(dkt, -1, -2))

    return _make(np.matmul(att, v.data), (q, k, v), bw)


def masked_fill(a, mask, value: float) -> Tensor:
    """Replace positions where mask is true with a constant."""
    a = _ensure(a)
    m = np.asarray(mask, dtype=bool)
    out_data = np.where(m, np.asarray(value, dtype=a.data.dtype), a.data)

    def bw(out):
        if a.requires_grad:
            _accumulate(a, np.where(m, 0.0, out.grad))

    return _make(out_data, (a,), bw)


def l2_normalize(a, axis: int = -1) -> Tensor:
    a = _ensure(a)
    norm = np.sqrt((a.data ** 2).sum(axis=axis, keepdims=True))
    if np.any(norm == 0.0):
        raise ValueError("l2_normalize of a zero vector")
    y = a.data / norm

    def bw(out):
        if a.requires_grad:
            dot = (out.grad * y).sum(axis=axis, keepdims=True)
            _accumulate(a, (out.grad - y * dot) / norm)

    return _make(y, (a,), bw)


def cross_entropy(logits, targets) -> Tensor:
    """Mean negative log-likelihood over rows; targets are integer ids."""
    logits = _ensure(logits)
    if logits.ndim == 1:
        logits = reshape(logits, (1, logits.shape[0]))
        targets = np.asarray([targets], dtype=np.int64)
    lp = log_softmax(logits, axis=-1)
    return neg(mean(pick(lp, targets)))


# ---------------------------------------------------------------------------
# backward and gradient checking

def backward(loss: Tensor) -> None:
    """Populate grads of every requires_grad tensor below a scalar loss.

    Only leaves (tensors without a backward closure, such as parameters)
    keep their grads: an interior node's grad is dropped as soon as its
    closure has pushed it to the node's parents.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    tape = ComputationTape.build(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node)
            node.grad = None


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5,
               sample: int | None = None,
               rng: np.random.Generator | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    Perturbs x.data in place. With sample set, only that many coordinates
    (chosen by rng) are probed, which keeps whole-model checks tractable.
    """
    if x.data.dtype != np.float64:
        raise ValueError("grad_check requires float64 tensors")
    x.grad = None
    out = f(x)
    if out.data.size != 1:
        raise ValueError("grad_check needs a scalar-valued function")
    backward(out)
    analytic = (x.grad if x.grad is not None else np.zeros_like(x.data)).ravel()

    n = x.data.size
    if sample is None or sample >= n:
        coords = np.arange(n)
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        coords = rng.choice(n, size=sample, replace=False)

    flat = x.data.reshape(-1)
    max_err = 0.0
    with no_grad():
        for i in coords:
            saved = flat[i]
            flat[i] = saved + h
            f_plus = f(x).data.item()
            flat[i] = saved - h
            f_minus = f(x).data.item()
            flat[i] = saved
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = float(analytic[i])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            max_err = max(max_err, err)
    return max_err
