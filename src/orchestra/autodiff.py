"""Closed-form backward chains over dense float64 numpy arrays.

Each network layer and loss that the PPO update trains through returns a
``Node``: its value and a ``back(g)`` that does the layer's gradient
arithmetic in closed form, accumulates into the layer's parameters and
calls the ``back`` of the one node it was computed from. So every graph is
a chain, built eagerly per forward pass and dropped after backward().
"""
from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional

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
    """A parameter: its own ``aligned_copy`` of its data, updated in place,
    and the gradient that backward() accumulates into ``grad``. ``grad`` is
    None until the first accumulation after zero_grads(), and then an array
    that the parameter keeps from one minibatch and update to the next,
    until release_grads()."""

    __slots__ = ("data", "grad", "_grad_array")

    def __init__(self, data):
        self.data = aligned_copy(data)
        self.grad: Optional[np.ndarray] = None
        self._grad_array: Optional[np.ndarray] = None

    # pickled as (data, True), the payload of a leaf of the older general
    # graph, so that saved run state keeps its bytes and still loads
    def __getstate__(self):
        return (self.data, True)

    def __setstate__(self, state):
        self.__init__(state[0])

    def _first_grad(self) -> np.ndarray:
        """Make ``grad`` the kept gradient array, its contents stale, and return it."""
        if self._grad_array is None:
            self._grad_array = np.empty_like(self.data)
        self.grad = self._grad_array
        return self.grad

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            np.copyto(self._first_grad(), g)
        else:
            self.grad += g

    def _accumulate_matmul(self, a: np.ndarray, b: np.ndarray):
        """``_accumulate(a @ b)``; a first product goes straight into ``grad``."""
        if self.grad is None:
            np.matmul(a, b, out=self._first_grad())
        else:
            self.grad += a @ b


class Node(NamedTuple):
    """A value on a backward chain; ``back(g)`` takes the gradient of ``data``."""
    data: np.ndarray
    back: Callable[[np.ndarray], None]


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


def backward(root: Node, grad: Optional[np.ndarray] = None):
    """Run ``root``'s chain back: from a scalar loss or, given ``grad``, the
    gradient it receives, a node of any shape."""
    if grad is None and root.data.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {root.data.shape}")
    if grad is not None and np.shape(grad) != root.data.shape:
        raise ContractError(f"backward: gradient shape {np.shape(grad)} != {root.data.shape}")
    root.back(np.ones_like(root.data) if grad is None else grad)


def zero_grads(params: Iterable[Tensor]):
    """Mark every gradient empty; each parameter keeps its array for the next."""
    for p in params:
        p.grad = None


def release_grads(params: Iterable[Tensor]):
    """Let each parameter's kept gradient array go once its gradient does."""
    for p in params:
        p._grad_array = None
