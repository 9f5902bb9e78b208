"""Reverse-mode accumulation over dense float64 numpy arrays.

The tape's nodes are few and hand-differentiated: each network layer and
loss that the PPO update trains through builds one ``node`` whose backward
is written in closed form. Graphs are built eagerly per forward pass and
discarded after backward().
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

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad += g


def node(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    """A tape node whose ``backward(g)`` sends its gradient to ``parents``;
    off the tape when none of them is on it."""
    out = Tensor(data)
    if any(p.requires_grad or p._backward is not None for p in parents):
        out._parents = tuple(parents)
        out._backward = backward
        out.requires_grad = True
    return out


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


def backward(root: Tensor, grad: Optional[np.ndarray] = None):
    """Run reverse-mode accumulation from ``root``: a scalar loss or, given
    ``grad``, the gradient it receives, a node of any shape."""
    if grad is None and root.data.size != 1:
        raise ContractError(
            f"backward: loss must be scalar, got shape {root.data.shape}"
        )
    if grad is not None and np.shape(grad) != root.data.shape:
        raise ContractError(f"backward: gradient shape {np.shape(grad)} != {root.data.shape}")
    topo: list[Tensor] = []
    seen = set()
    stack = [(root, False)]
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
    root.grad = np.ones_like(root.data) if grad is None else grad
    for t in reversed(topo):
        if t._backward is not None and t.grad is not None:
            t._backward(t.grad)


def zero_grads(params: Iterable[Tensor]):
    for p in params:
        p.grad = None
