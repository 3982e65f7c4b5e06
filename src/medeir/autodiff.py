"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Everything is built on numpy arrays. A Tensor wraps one array together with
an optional gradient buffer and the closure that pushes gradients to its
parents. Calling backward() on a scalar loss builds a ComputationTape (the
topological order of the graph) and walks it once in reverse, releasing the
graph as it goes: once a node's closure has run, the node drops its
gradient, its closure and its parents, and the tape drops the node. So each
activation, and every array a closure saved, is freed as soon as the last
closure that reads it has run, and a consumed graph cannot be walked again.

Design notes:
  - float32 is the working precision: tensor() stores float input, and
    Tensor() integer input, as float32. float64 comes only from an explicit
    dtype (a float64 array, or tensor(..., dtype=np.float64)).
  - a Python scalar operand of add/sub/mul/div is weak, as in numpy's own
    NEP 50 rule: it takes the dtype of the tensor it meets. A float32 model
    therefore stays float32 end to end, and float64 tensors stay float64.
  - neg, sub, pick, narrow and mean have no backward of their own: they
    are written with mul, add, div, reshape, transpose, index_select and
    sum_, whose closures give the same bits as a hand-written one would.
  - linear() (x @ w + b) and affine_norm() (layer_norm(x) * gamma + beta)
    are fused nodes: each runs the numpy calls of its composed op chain in
    the same order, forward and backward, so its bits are that chain's.
    They read their upstream gradient as it is, since every .grad already
    has the form _accumulate would give it (see there).
  - attention() is one fused op for softmax(scale * q @ k^T + bias) @ v
    over packed sequences: q, k and v hold the (T, heads, dh) rows of
    several sequences end to end, and a list of runs of equal-length
    sequences gives the layout. Each run works in one (B, heads, S, S)
    buffer, only the attention weights are kept for backward, and the bits
    are those of the composed op chain run by run. run_mean pools the same
    layout to one row per sequence. These two ops are the only ones that
    know where one sequence ends; every other op is position-wise.
  - broadcasting is supported for leading batch dimensions (gradients are
    reduced back to the parent shape); anything fancier should be written
    with explicit reshape.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor", "ComputationTape", "tensor", "no_grad",
    "matmul", "linear", "add", "sub", "mul", "neg", "div",
    "transpose", "reshape", "concat", "stack", "narrow", "index_select", "pick",
    "softmax", "log_softmax", "layer_norm", "affine_norm", "gelu", "tanh",
    "mean", "sum_", "masked_fill", "attention", "run_mean", "cross_entropy", "l2_normalize",
    "backward",
]

_DEFAULT_DTYPE = np.float32
_GRAD_ENABLED = True


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

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


@dataclass
class ComputationTape:
    """Topological order of the graph below a root; root is last."""

    nodes: list[Tensor]

    @classmethod
    def build(cls, root: Tensor) -> "ComputationTape":
        """Raises ValueError if the graph reaches a node that an earlier
        backward consumed."""
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
            if node._backward_fn is _consumed:
                raise ValueError(_CONSUMED)
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
    """Add g into t.grad, writing it on the first call.

    The first write is a C-order copy of g in t's dtype with -0.0 turned
    into +0.0; later ones only add. index_select writes zeros and adds, and
    backward writes ones. A float sum is -0.0 only when both terms are, so
    every .grad an op reads is C-contiguous, in its node's dtype and holds
    no -0.0: a closure may read out.grad as it is, with no copy.
    """
    if t.grad is None:
        assert g.shape == t.data.shape, (g.shape, t.data.shape)
        # one pass; adding 0 turns a -0.0 gradient into +0.0, and a C-order
        # grad keeps later BLAS calls on one path whatever g's strides are
        t.grad = np.add(g, 0, dtype=t.data.dtype, order="C")
    else:
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


_CONSUMED = "this graph was consumed by an earlier backward; run the forward again"


def _consumed(node: Tensor) -> None:
    """The closure that backward leaves on each node it has walked."""
    raise ValueError(_CONSUMED)


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
    """a + (-b), which IEEE arithmetic defines a - b to be."""
    a, b = _operands(a, b)
    return add(a, neg(b))


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
    """a * -1, exactly -a."""
    return mul(_ensure(a), -1.0)


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
    """GELU with the tanh approximation, 0.5 * x * (1 + tanh(inner)).

    Forward and backward work in a few reused buffers. Each element still
    goes through the operations of the plain expressions in the comments,
    at most with the operands of a sum or a product swapped, so the bits
    are theirs.
    """
    a = _ensure(a)
    x = a.data
    t = x * x                   # inner = _GELU_C * (x + 0.044715 * (x * x * x))
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    y = t + 1.0                 # y = 0.5 * x * (1.0 + t)
    y *= 0.5 * x

    def bw(out):
        if a.requires_grad:
            # dinner = _GELU_C * (1.0 + 3 * 0.044715 * (x * x))
            # grad = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
            grad = t * t
            np.subtract(1.0, grad, out=grad)
            part = x * 0.5
            grad *= part
            np.multiply(x, x, out=part)         # dinner
            part *= 3 * 0.044715
            part += 1.0
            part *= _GELU_C
            grad *= part
            np.add(t, 1.0, out=part)            # 0.5 * (1.0 + t)
            part *= 0.5
            grad += part
            del part
            grad *= out.grad
            _accumulate(a, grad)

    return _make(y, (a,), bw)


# ---------------------------------------------------------------------------
# shape ops

def _check_matmul(a: Tensor, b: Tensor) -> None:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul requires ndim >= 2, got {a.ndim} and {b.ndim}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")


def _matmul_grads(a: Tensor, b: Tensor, g: np.ndarray) -> None:
    """Push the gradient g of a @ b to a, then to b."""
    if a.requires_grad:
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        _accumulate(a, _unbroadcast(ga, a.data.shape))
    if b.requires_grad:
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        _accumulate(b, _unbroadcast(gb, b.data.shape))


def matmul(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    _check_matmul(a, b)

    def bw(out):
        _matmul_grads(a, b, out.grad)

    return _make(np.matmul(a.data, b.data), (a, b), bw)


def linear(x, w, b) -> Tensor:
    """x @ w + b as one node: add(matmul(x, w), b) bit for bit, forward and
    backward, without keeping the product as a node of its own.

    The backward takes the composed chain's steps: b gets its
    broadcast-reduced gradient, then x and w get theirs from the upstream
    gradient, which is already what _accumulate would have written as the
    product's gradient.
    """
    x, w, b = _ensure(x), _ensure(w), _ensure(b)
    _check_matmul(x, w)
    out_data = np.matmul(x.data, w.data)
    out_data += b.data

    def bw(out):
        if b.requires_grad:
            _accumulate(b, _unbroadcast(out.grad, b.data.shape))
        _matmul_grads(x, w, out.grad)

    return _make(out_data, (x, w, b), bw)


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
    """Contiguous slice [start:end) along one axis: index_select of those
    rows, with the axis moved to the front and back for any other axis."""
    a = _ensure(a)
    if not (0 <= start <= end <= a.data.shape[axis]):
        raise ValueError(f"slice [{start}:{end}) out of range for axis {axis} "
                         f"of shape {a.shape}")
    rows = np.arange(start, end)
    axis %= a.ndim
    if axis == 0:
        return index_select(a, rows)
    order = (axis,) + tuple(i for i in range(a.ndim) if i != axis)
    moved = index_select(transpose(a, order), rows)
    return transpose(moved, tuple(np.argsort(order)))


def index_select(a, indices) -> Tensor:
    """Select rows along axis 0, indices in [0, len(a)); gradients
    scatter-add back.

    The backward sums each selected row's gradients, in index order, into
    a zero buffer holding only the distinct rows, then adds that buffer
    into those rows of a.grad, which the first write creates as zeros. No
    array the size of a is built beyond a.grad. A sum that starts at +0.0
    is never -0.0, so adding it to a zero row writes it unchanged.
    """
    a = _ensure(a)
    idx = np.asarray(indices, dtype=np.int64)
    out_data = np.take(a.data, idx, axis=0)

    def bw(out):
        if a.requires_grad:
            rows, inverse = np.unique(idx, return_inverse=True)
            g = np.zeros((rows.size,) + a.data.shape[1:], dtype=a.data.dtype)
            np.add.at(g, inverse.reshape(idx.shape), out.grad)
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[rows] += g

    return _make(out_data, (a,), bw)


def pick(a, indices) -> Tensor:
    """Per-row column gather: a is (B, C), indices length B, each in
    [0, C), result (B,). An index_select of the flat a at row * C + index."""
    a = _ensure(a)
    if a.ndim != 2:
        raise ValueError(f"pick expects a 2-D tensor, got shape {a.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    rows, cols = a.data.shape
    if idx.shape != (rows,):
        raise ValueError(f"pick needs one index per row: {idx.shape} vs {a.shape}")
    if idx.size and not (0 <= idx.min() and idx.max() < cols):
        raise ValueError(f"pick indices must lie in [0, {cols}), got "
                         f"{idx.min()}..{idx.max()}")
    return index_select(reshape(a, (rows * cols,)), np.arange(rows) * cols + idx)


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
            _accumulate(a, np.broadcast_to(g, a.data.shape))

    return _make(out_data, (a,), bw)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    """sum_ over the count of summed elements. np.mean divides the same sum
    by the count in float64 and rounds back, which for a float32 sum is the
    correctly rounded quotient that div gives, so the bits are np.mean's."""
    a = _ensure(a)
    kept = _keepdims_shape(a.data.shape, axis)
    # the reduced axes are those kept at 1; an axis of size 1 counts 1 either way
    count = math.prod(n for n, k in zip(a.data.shape, kept) if n != k)
    return div(sum_(a, axis, keepdims), count)


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


_LAYER_NORM_EPS = 1e-12


def _normalize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(y, inv) with y = (x - mu) * inv and inv = 1 / sqrt(var + eps) over
    the last axis.

    x - mu is formed once: it becomes y in place, and the variance is
    summed from its squares and divided by the count as np.var does, so the
    bits are those of x.var().
    """
    if x.shape[-1] == 0:
        raise ValueError("layer_norm over a zero-length axis")
    y = x - x.mean(axis=-1, keepdims=True)
    var = np.square(y).sum(axis=-1, keepdims=True)
    np.true_divide(var, np.intp(x.shape[-1]), out=var, casting="unsafe")
    inv = 1.0 / np.sqrt(var + _LAYER_NORM_EPS)
    y *= inv
    return y, inv


def _normalize_grad(g: np.ndarray, y: np.ndarray, inv: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """inv * (g - mean(g) - y * mean(g * y)) over the last axis, the input
    gradient of _normalize for an output gradient g; out may be g."""
    gm = g.mean(axis=-1, keepdims=True)
    gy = (g * y).mean(axis=-1, keepdims=True)
    out = np.subtract(g, gm, out=out)
    out -= y * gy
    out *= inv
    return out


def layer_norm(a) -> Tensor:
    """Pure normalization of the last axis to zero mean, unit variance;
    affine is external."""
    a = _ensure(a)
    y, inv = _normalize(a.data)

    def bw(out):
        if a.requires_grad:
            _accumulate(a, _normalize_grad(out.grad, y, inv))

    return _make(y, (a,), bw)


def affine_norm(a, gamma, beta) -> Tensor:
    """layer_norm(a) * gamma + beta as one node: the composed
    add(mul(layer_norm(a), gamma), beta) bit for bit, forward and backward.

    Only the normalized rows and inv are kept, not the two intermediate
    nodes. The backward takes the chain's steps in its order: beta's
    reduced gradient, the normalized rows' gradient first written as
    _accumulate writes it (adding 0), gamma's reduced gradient, then a's.
    The sum's gradient is the upstream one as it is (see _accumulate).
    """
    a, gamma, beta = _ensure(a), _ensure(gamma), _ensure(beta)
    y, inv = _normalize(a.data)
    out_data = y * gamma.data
    out_data += beta.data

    def bw(out):
        if beta.requires_grad:
            _accumulate(beta, _unbroadcast(out.grad, beta.data.shape))
        g = out.grad
        if a.requires_grad:
            gn = g * gamma.data             # the normalized rows' gradient
            np.add(gn, 0, out=gn)
        if gamma.requires_grad:
            _accumulate(gamma, _unbroadcast(g * y, gamma.data.shape))
        if a.requires_grad:
            _accumulate(a, _normalize_grad(gn, y, inv, out=gn))

    return _make(out_data, (a, gamma, beta), bw)


def _run_rows(runs: Sequence[tuple[int, int]],
              total: int) -> list[tuple[slice, int, int]]:
    """(rows, count, length) of each run of a packed layout.

    A packed tensor holds several sequences' rows end to end along axis 0;
    runs lists (count, length) for each block of count sequences of one
    length, in that order, so each run is a contiguous block of
    count * length rows.
    """
    layout, start = [], 0
    for count, length in runs:
        if count < 1 or length < 1:
            raise ValueError(f"a run needs count and length >= 1, got {(count, length)}")
        layout.append((slice(start, start + count * length), count, length))
        start += count * length
    if start != total:
        raise ValueError(f"runs cover {start} rows of a tensor with {total}")
    return layout


def _heads_first(x: np.ndarray, count: int, length: int) -> np.ndarray:
    """A run's (count * length, heads, dh) rows as a C-contiguous
    (count, heads, length, dh) array."""
    return np.ascontiguousarray(
        np.swapaxes(x.reshape((count, length) + x.shape[1:]), 1, 2))


def _rows_first(x: np.ndarray, out: np.ndarray) -> None:
    """Write a (count, heads, length, dh) array into its run's rows, out."""
    count, heads, length, dh = x.shape
    out.reshape(count, length, heads, dh)[...] = np.swapaxes(x, 1, 2)


def attention(q, k, v, runs: Sequence[tuple[int, int]],
              biases: Sequence[np.ndarray], scale: float) -> Tensor:
    """Fused softmax(scale * q @ k^T + bias) @ v over packed sequences.

    q and k are (T, heads, dh) and v is (T, heads, dv): the rows of several
    sequences laid end to end in runs of equal-length sequences (see
    _run_rows). A query attends to every key of its own sequence and to no
    other. biases holds one constant array per run that broadcasts to the
    run's (count, heads, S, S) logits and is cast to their dtype.

    Each run computes on its own (count, heads, S, dh) view. Its logits live
    in one buffer that each step updates in place, and only the attention
    weights are kept for backward. The steps run in the order of the
    composed chain (matmul, mul, add, softmax, matmul), so values and
    gradients are bit for bit those of that chain run by run, except that
    weights below tiny, the dtype's smallest normal number, are exactly 0.

    Subnormal weights would slow the exp, the divide and both products with
    the weights many times over. So a shifted logit below log(tiny * S)
    becomes -inf before the exp: a row's sum is at most S, so every weight
    that stays nonzero is at least tiny. Long sequences under strong ALiBi
    slopes have many such logits.
    """
    q, k, v = _ensure(q), _ensure(k), _ensure(v)
    if q.ndim != 3 or k.shape != q.shape or v.ndim != 3 or v.shape[:2] != q.shape[:2]:
        raise ValueError(f"attention needs (T, heads, dh) q and k and (T, heads, dv) v: "
                         f"{q.shape}, {k.shape}, {v.shape}")
    layout = _run_rows(runs, q.shape[0])
    if len(biases) != len(layout):
        raise ValueError(f"{len(biases)} biases for {len(layout)} runs")
    scale_arr = np.asarray(scale, dtype=q.dtype)
    track = _track(q, k, v)
    out_data = np.empty_like(v.data)
    weights = []
    for (rows, count, length), bias in zip(layout, biases):
        kt = np.swapaxes(_heads_first(k.data[rows], count, length), -1, -2)
        att = np.matmul(_heads_first(q.data[rows], count, length),
                        np.ascontiguousarray(kt))
        att *= scale_arr
        att += np.asarray(bias, dtype=att.dtype)
        att -= att.max(axis=-1, keepdims=True)
        floor = np.log(np.finfo(att.dtype).tiny * length)
        np.copyto(att, -np.inf, where=att < floor)
        np.exp(att, out=att)
        att /= att.sum(axis=-1, keepdims=True)
        _rows_first(np.matmul(att, _heads_first(v.data[rows], count, length)),
                    out_data[rows])
        if track:
            weights.append(att)

    def bw(out):
        gq, gk, gv = (np.empty_like(t.data) if t.requires_grad else None
                      for t in (q, k, v))
        for (rows, count, length), att in zip(layout, weights):
            g = _heads_first(out.grad[rows], count, length)
            if gv is not None:
                _rows_first(np.matmul(np.swapaxes(att, -1, -2), g), gv[rows])
            if gq is None and gk is None:
                continue
            vr = _heads_first(v.data[rows], count, length)
            dlogits = np.matmul(g, np.swapaxes(vr, -1, -2))
            dlogits -= (dlogits * att).sum(axis=-1, keepdims=True)
            dlogits *= att
            dlogits *= scale_arr
            if gq is not None:
                kt = np.swapaxes(_heads_first(k.data[rows], count, length), -1, -2)
                kt = np.ascontiguousarray(kt)
                _rows_first(np.matmul(dlogits, np.swapaxes(kt, -1, -2)), gq[rows])
            if gk is not None:
                qr = _heads_first(q.data[rows], count, length)
                dkt = np.matmul(np.swapaxes(qr, -1, -2), dlogits)
                _rows_first(np.swapaxes(dkt, -1, -2), gk[rows])
        for t, grad in ((q, gq), (k, gk), (v, gv)):
            if grad is not None:
                _accumulate(t, grad)

    return _make(out_data, (q, k, v), bw)


def run_mean(a, runs: Sequence[tuple[int, int]]) -> Tensor:
    """Mean over the rows of each sequence of a packed (T, ...) tensor laid
    out in runs (see _run_rows): one row per sequence, in packed order.

    A run's means are those of its (count, length, ...) view over axis 1,
    bit for bit.
    """
    a = _ensure(a)
    layout = _run_rows(runs, a.shape[0])
    rest = a.shape[1:]
    out_data = np.concatenate([a.data[rows].reshape((count, length) + rest).mean(axis=1)
                               for rows, count, length in layout])

    def bw(out):
        if not a.requires_grad:
            return
        g = np.empty_like(a.data)
        start = 0
        for rows, count, length in layout:
            per_seq = out.grad[start:start + count].reshape((count, 1) + rest)
            g[rows].reshape((count, length) + rest)[...] = (
                np.broadcast_to(per_seq, (count, length) + rest) / length)
            start += count
        _accumulate(a, g)

    return _make(out_data, (a,), bw)


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
    """Mean negative log-likelihood over rows: logits (B, C), targets (B,)
    integer ids."""
    lp = log_softmax(logits, axis=-1)
    return neg(mean(pick(lp, targets)))


# ---------------------------------------------------------------------------
# backward

def backward(loss: Tensor) -> None:
    """Populate grads of every requires_grad tensor below a scalar loss, and
    consume the graph.

    Only leaves (tensors without a backward closure, such as parameters)
    keep their grads. The walk pops each node off the tape; once its closure
    has pushed its grad to its parents, the node drops its grad, closure and
    parents. An activation, and what a closure saved, is then freed as soon
    as the last closure reading it has run, and not when the walk ends. A
    later backward that reaches a consumed node raises ValueError.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    nodes = ComputationTape.build(loss).nodes
    loss.grad = np.ones_like(loss.data)
    while nodes:
        node = nodes.pop()
        fn = node._backward_fn
        if fn is None:
            continue
        node._backward_fn, node._parents = _consumed, ()
        if node.grad is not None:
            fn(node)
            node.grad = None

