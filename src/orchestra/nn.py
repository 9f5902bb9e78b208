"""MLPs, categorical sampling, Adam and gradient clipping."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DimensionError

HIDDEN_GAIN = np.sqrt(2.0)
OUTPUT_GAIN = 0.01


class Mlp:
    """A tanh-hidden multilayer perceptron over flat vectors, with at least
    one hidden layer.

    Parameters are Tensors so one network serves both the forward that
    builds a backward chain (updates) and the raw-numpy forward (rollouts).
    Both are ``head`` over the last hidden layer of one numpy body, ``_stack``.

    The update's forward, ``hidden``, and its chain write every batch-sized
    array into this network's buffers (``_buffer``), which grow to the
    largest batch seen and are reused from one call to the next, across
    updates, until ``free_buffers``: a node of ``hidden`` stays valid until
    this network's next ``hidden`` call, and one network is trained by one
    thread at a time. The buffers are never pickled, and a clone or an
    unpickled copy starts without them. Its parameters keep their gradient
    arrays for as long (``autodiff.Tensor``).
    """

    def __init__(self, sizes: Sequence[int], rng: np.random.Generator):
        if len(sizes) < 3:
            raise DimensionError(f"an Mlp needs a hidden layer, got sizes {list(sizes)}")
        self.sizes = list(sizes)
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        # scaled-uniform init: gain sqrt(2) on hidden layers, 0.01 on the output
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            gain = OUTPUT_GAIN if i == len(sizes) - 2 else HIDDEN_GAIN
            bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out))))
            self.biases.append(Tensor(np.zeros(fan_out)))

    def __getstate__(self):
        return {k: v for k, v in vars(self).items() if k != "_buffers"}

    @property
    def parameters(self) -> list[Tensor]:
        return [p for layer in zip(self.weights, self.biases) for p in layer]

    def free_buffers(self):
        """Let the buffers and the parameters' kept gradient arrays go, for a
        network no longer trained; its next update makes them again."""
        vars(self).pop("_buffers", None)
        ad.release_grads(self.parameters)

    def _buffer(self, slot, shape, capacity: int) -> np.ndarray:
        """A C-contiguous float64 array of ``shape`` on the first elements of
        buffer ``slot``, which first grows to ``capacity`` elements."""
        buffers = vars(self).setdefault("_buffers", {})
        buf = buffers.get(slot)
        if buf is None or buf.size < capacity:
            buf = buffers[slot] = np.empty(capacity)
        return buf[:np.prod(shape, dtype=int)].reshape(shape)

    def _stack(self, x, buffered: bool = False) -> tuple[np.ndarray, list[np.ndarray]]:
        """Every layer but the output layer, in numpy: (cols, activations).

        The first layer multiplies only the input columns the batch sets,
        ``x[:, cols] @ W0[cols]``: MiniProc observations set about 21 of 405
        cells. Skipping the zero terms changes the rounding of the sum, so a
        row's output depends, by rounding, on the other rows of its batch.
        ``cols`` is found on the input's own dtype, and only ``x[:, cols]``
        is made float64. The activations are ``x[:, cols]`` and each layer's
        tanh output; ``buffered``, they and ``W0[cols]`` are written into
        the network's buffers, else allocated.
        """
        x = np.atleast_2d(np.asarray(x))
        if x.shape[-1] != self.sizes[0]:
            raise DimensionError(
                f"layer 0 expects input width {self.sizes[0]}, got {x.shape[-1]}"
            )
        cols = np.flatnonzero(x.any(axis=0))   # the columns some row sets
        n, (width, fan_out) = len(x), self.weights[0].data.shape
        buf = self._buffer if buffered else None      # out=None allocates
        if buf is None:
            acts = [x[:, cols].astype(np.float64, copy=False)]
        else:
            acts = [buf("x", (n, len(cols)), n * width)]
            np.copyto(acts[0], x[:, cols])
        w = np.take(self.weights[0].data, cols, axis=0, mode="clip",
                    out=buf and buf("w0", (len(cols), fan_out), width * fan_out))
        for i in range(len(self.weights) - 1):
            if i:
                w = self.weights[i].data
            h = np.matmul(acts[-1], w, out=buf and buf(i, (n, w.shape[1]), n * w.shape[1]))
            h += self.biases[i].data
            acts.append(np.tanh(h, out=h))
        return cols, acts

    def hidden(self, x: np.ndarray) -> ad.Node:
        """The last hidden layer of a (B, in) array: ``_stack`` into the
        network's buffers as the first node of a chain, bit-identical to
        hidden_np(). Valid until this network's next ``hidden`` call."""
        cols, acts = self._stack(x, buffered=True)

        def back(g):
            # the per-layer ops' arithmetic (tanh, add, matmul), so the
            # gradients equal theirs bit for bit; each activation, once read,
            # takes its layer's g * (1 - a*a)
            for i in reversed(range(len(acts) - 1)):
                w, b = self.weights[i], self.biases[i]
                d = acts[i + 1]
                np.multiply(d, d, out=d)
                np.subtract(1.0, d, out=d)
                g = np.multiply(g, d, out=d)
                b._accumulate(g.sum(axis=0))
                if i == 0:
                    # w.grad[cols] += acts[0].T @ g, in the buffers of W0[cols]
                    # and of g, which hold nothing this back still reads
                    if w.grad is None:
                        w._first_grad().fill(0.0)
                    shape, capacity = (len(cols), g.shape[1]), w.data.size
                    rows = np.take(w.grad, cols, axis=0, mode="clip",
                                   out=self._buffer("w0", shape, capacity))
                    rows += np.matmul(acts[0].T, g, out=self._buffer("g", shape, capacity))
                    w.grad[cols] = rows
                else:
                    w._accumulate_matmul(acts[i].T, g)
                    g = np.matmul(g, w.data.T, out=self._g_buffer(len(g), len(w.data)))

        return ad.Node(acts[-1], back)

    def _g_buffer(self, rows: int, width: int) -> np.ndarray:
        """Where ``head``'s and ``hidden``'s chains put the gradient of a
        hidden layer."""
        return self._buffer("g", (rows, width), rows * max(self.sizes[1:-1]))

    def hidden_np(self, x) -> np.ndarray:
        return self._stack(x)[1][-1]

    def head(self, h):
        """The output layer; a node over a node, else numpy that refuses non-finite output."""
        w, b = self.weights[-1], self.biases[-1]
        if isinstance(h, ad.Node):
            def back(g):
                # the order and arithmetic of a matmul and a broadcast add
                b._accumulate(g.sum(axis=0))
                w._accumulate_matmul(h.data.T, g)
                h.back(np.matmul(g, w.data.T, out=self._g_buffer(len(g), len(w.data))))

            return ad.Node(h.data @ w.data + b.data, back)
        out = h @ w.data + b.data
        if not np.isfinite(out).all():
            raise ContractError("an Mlp produced non-finite output")
        return out

    def forward(self, x: np.ndarray) -> ad.Node:
        return self.head(self.hidden(x))

    def forward_np(self, x) -> np.ndarray:
        return self.head(self.hidden_np(x))

    def get_arrays(self) -> list[np.ndarray]:
        return [p.data.copy() for p in self.parameters]

    def set_arrays(self, arrays: Sequence[np.ndarray]):
        for p, a in zip(self.parameters, arrays, strict=True):
            if p.data.shape != a.shape:
                raise DimensionError(f"parameter shape {p.data.shape} != {a.shape}")
            np.copyto(p.data, a)

    def clone(self) -> "Mlp":
        dup = Mlp.__new__(Mlp)
        dup.sizes = list(self.sizes)
        dup.weights = [Tensor(w.data) for w in self.weights]
        dup.biases = [Tensor(b.data) for b in self.biases]
        return dup


def sample_categorical_batch(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One index per row of a batch of probability vectors; reproducible given rng."""
    p = np.asarray(probs, dtype=np.float64)
    totals = p.sum(axis=-1, keepdims=True)
    if not 0.0 < totals.min() <= totals.max() < np.inf:    # NaN fails too
        raise ContractError("sample_categorical: degenerate distribution")
    cdf = np.cumsum(p / totals, axis=-1)
    below = rng.random(p.shape[0])[:, None] < cdf
    drawn = below.argmax(axis=-1)
    if np.count_nonzero(below[:, -1]) < p.shape[0]:
        # cdf[-1] rounded to just under 1 and a draw is above it: that row
        # takes its last action with positive probability
        fell = ~below[:, -1]
        drawn[fell] = p.shape[-1] - 1 - (p[fell, ::-1] > 0).argmax(axis=-1)
    return drawn


@dataclass
class Adam:
    """Adam with bias correction, one slot pair per tracked parameter.

    A 2-D parameter's moments hold only the rows that ever had a nonzero
    gradient: ``rows[i]`` is their sorted index, and ``m[i]``, ``v[i]`` are
    ``(len(rows[i]), width)``. Every other row has zero moments and, so far,
    a zero gradient, so its step would be ``p - 0.0``. ``rows[i]`` is None
    where the moments are whole, as for a 1-D parameter or once every row has
    had a gradient. A MiniProc observation sets about 21 of 405 cells, so a
    first layer's moments stay a fraction of the layer.
    """

    params: list[Tensor]
    learning_rate: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)
    rows: list[Optional[np.ndarray]] = field(default_factory=list)

    def __post_init__(self):
        if not self.m:
            self.rows = [np.arange(0) if p.data.ndim == 2 else None for p in self.params]
            self.m = [np.zeros((0,) + p.data.shape[1:]) if r is not None else np.zeros_like(p.data)
                      for p, r in zip(self.params, self.rows)]
            self.v = [np.zeros_like(m) for m in self.m]

    def __setstate__(self, state):
        # an Adam pickled before the row index holds whole moments: keep the
        # rows whose m or v is nonzero, as if it had kept an index all along
        if "rows" not in state:
            state["rows"] = [None] * len(state["m"])
            for i, (m, v) in enumerate(zip(state["m"], state["v"])):
                live = np.flatnonzero(m.any(axis=1) | v.any(axis=1)) if m.ndim == 2 else None
                if live is not None and len(live) < len(m):
                    state["rows"][i], state["m"][i], state["v"][i] = live, m[live], v[live]
        vars(self).update(state)

    def step(self):
        """Step every parameter with a gradient; ``ppo._lanes`` steps the
        update's, so this is kept as their test reference and a perfbench span."""
        bc1, bc2 = self.bias_correction()
        for i, p in enumerate(self.params):
            if p.grad is not None:
                self.grow(i)
                self.update(i, bc1, bc2)

    def bias_correction(self) -> tuple[float, float]:
        """Count one step and give its (bc1, bc2), for ``update``."""
        self.step_count += 1
        return 1.0 - self.beta1**self.step_count, 1.0 - self.beta2**self.step_count

    def grow(self, i: int):
        """Add the rows where parameter i's gradient is nonzero to its index,
        with zero moments; the index becomes None once it holds every row.
        Each gradient is grown into before ``update`` steps it."""
        rows, g = self.rows[i], self.params[i].grad
        if rows is None:
            return
        live = (g != 0.0).any(axis=1)
        live[rows] = True
        merged = np.flatnonzero(live)
        if len(merged) == len(rows):
            return
        at = np.searchsorted(merged, rows)
        for moments in (self.m, self.v):
            grown = np.zeros((len(merged),) + g.shape[1:])
            grown[at] = moments[i]
            moments[i] = grown
        self.rows[i] = None if len(merged) == len(g) else merged

    def update(self, i: int, bc1: float, bc2: float):
        """Step parameter i, whose gradient ``grow`` has seen; parameters
        share no state, so any order or thread will do. An indexed parameter
        steps the rows of its index, gathered, and puts them back."""
        p, g, rows = self.params[i], self.params[i].grad, self.rows[i]
        if g.shape != p.data.shape:
            raise DimensionError(f"gradient shape {g.shape} != parameter shape {p.data.shape}")
        data = p.data
        if rows is not None:
            data, g = data[rows], g[rows]
        # in place, operation for operation the same arithmetic as
        # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g;
        # p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)
        m, v = self.m[i], self.v[i]
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        g2 = (1.0 - self.beta2) * g
        g2 *= g
        v *= self.beta2
        v += g2
        step = m / bc1
        step *= self.learning_rate
        denom = np.divide(v, bc2, out=g2)
        np.sqrt(denom, out=denom)
        denom += self.epsilon
        step /= denom
        np.subtract(data, step, out=data)   # the weights never move
        if rows is not None:
            p.data[rows] = data


def clip_grad_norm(params: Sequence[Tensor], max_norm: float) -> float:
    """Scale gradients in place so their joint l2 norm is at most max_norm. The
    update clips by lane; this is kept as their test reference and a perfbench span."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm

