"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

Covers exactly what small MLP policy/value networks and a clipped-surrogate
loss need: matmul, broadcasting add/sub/mul, tanh, exp/log, square,
reductions, elementwise min/max, clipping, row gather and row scatter-add.
Graphs are built eagerly per forward pass and discarded after backward().
"""
from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ContractError


ALIGN = 64      # bytes; a parameter's first element sits on this boundary


def aligned_copy(a) -> np.ndarray:
    """A C-contiguous float64 copy of ``a`` that starts on an ALIGN-byte
    boundary. A one-row forward is measurably slower on weights that do not."""
    a = np.asarray(a, dtype=np.float64)
    buf = np.empty(a.nbytes + ALIGN, dtype=np.uint8)
    start = -buf.ctypes.data % ALIGN
    out = buf[start:start + a.nbytes].view(np.float64).reshape(a.shape)
    out[...] = a
    return out


class Tensor:
    """A float64 ndarray plus an optional gradient and backward closure.

    Leaf tensors (parameters) carry ``requires_grad=True`` and accumulate
    into ``grad`` during backward(). A leaf made or unpickled that way holds
    its own ``aligned_copy`` of its data; updating it in place keeps it there.
    Interior nodes hold references to their parents so the tape can be
    replayed in reverse topological order.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = aligned_copy(data) if requires_grad else np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None

    # pickling keeps only the leaf payload; tapes are never persisted
    def __getstate__(self):
        return (self.data, self.requires_grad)

    def __setstate__(self, state):
        data, self.requires_grad = state
        self.data = aligned_copy(data) if self.requires_grad else data
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad += g

    # operator sugar
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __neg__(self):
        return mul(self, _as_tensor(-1.0))

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)

    def tanh(self):
        return tanh(self)

    def square(self):
        return square(self)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None):
        return tmean(self, axis=axis)

    def reshape(self, *shape):
        return reshape(self, shape)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def node(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    """A tape node whose ``backward(g)`` sends its gradient to ``parents``;
    off the tape when none of them is on it."""
    out = Tensor(data)
    if any(p.requires_grad or p._backward is not None for p in parents):
        out._parents = tuple(parents)
        out._backward = backward
        out.requires_grad = True
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted gradient back to its parent's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return node(data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape))

    return node(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return node(data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return node(data, (a, b), backward)


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - data * data))

    return node(data, (a,), backward)


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * data)

    return node(data, (a,), backward)


def log(a: Tensor) -> Tensor:
    data = np.log(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g / a.data)

    return node(data, (a,), backward)


def square(a: Tensor) -> Tensor:
    data = a.data * a.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * 2.0 * a.data)

    return node(data, (a,), backward)


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if not a.requires_grad:
            return
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.data.shape))
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(gg, a.data.shape))

    return node(data, (a,), backward)


def tmean(a: Tensor, axis=None) -> Tensor:
    if axis is None:
        n = a.data.size
    else:
        n = a.data.shape[axis]
    return tsum(a, axis=axis) * (1.0 / n)


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.data.shape))

    return node(data, (a,), backward)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise min; gradient follows the selected branch (ties go to a)."""
    take_a = a.data <= b.data
    data = np.where(take_a, a.data, b.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * take_a, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * ~take_a, b.data.shape))

    return node(data, (a, b), backward)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; zero gradient outside the active range."""
    data = np.clip(a.data, lo, hi)
    inside = (a.data > lo) & (a.data < hi)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * inside)

    return node(data, (a,), backward)


def pick(a: Tensor, idx: np.ndarray) -> Tensor:
    """Select a[i, idx[i]] for each row i; result shape (B,)."""
    rows = np.arange(a.data.shape[0])
    data = a.data[rows, idx]

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, (rows, idx), g)
            a._accumulate(full)

    return node(data, (a,), backward)


def index_add(base: Tensor, rows: np.ndarray, contrib: Tensor) -> Tensor:
    """Return base with contrib's rows accumulated at the given row indices.

    rows may repeat; contributions at the same row are summed.
    """
    data = base.data.copy()
    np.add.at(data, rows, contrib.data)

    def backward(g):
        if base.requires_grad:
            base._accumulate(g)
        if contrib.requires_grad:
            contrib._accumulate(g[rows])

    return node(data, (base, contrib), backward)


def log_softmax(a: Tensor) -> Tensor:
    """Numerically stabilized log-softmax along the last axis (2-D input)."""
    if np.isnan(a.data).any():
        raise ContractError("log_softmax: NaN in logits")
    shift = a - Tensor(a.data.max(axis=-1, keepdims=True))
    return shift - tsum(exp(shift), axis=-1, keepdims=True).log()


def log_softmax_np(logits: np.ndarray) -> np.ndarray:
    """Plain-numpy stabilized log-softmax along the last axis."""
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def softmax_np(logits: np.ndarray) -> np.ndarray:
    """Plain-numpy stabilized softmax along the last axis."""
    if np.isnan(logits).any():
        raise ContractError("softmax: NaN in logits")
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def backward(loss: Tensor):
    """Run reverse-mode accumulation from a scalar loss node."""
    if loss.data.size != 1:
        raise ContractError(
            f"backward: loss must be scalar, got shape {loss.data.shape}"
        )
    topo: list[Tensor] = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        t, expanded = stack.pop()
        if id(t) in seen:
            continue
        if expanded:
            seen.add(id(t))
            topo.append(t)
            continue
        stack.append((t, True))
        for p in t._parents:
            if id(p) not in seen and (p._backward is not None or p.requires_grad):
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for t in reversed(topo):
        if t._backward is not None and t.grad is not None:
            t._backward(t.grad)


def zero_grads(params: Iterable[Tensor]):
    for p in params:
        p.grad = None
