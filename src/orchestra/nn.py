"""MLPs, categorical sampling, Adam and gradient clipping."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DimensionError

HIDDEN_GAIN = np.sqrt(2.0)
OUTPUT_GAIN = 0.01


class Mlp:
    """A tanh-hidden multilayer perceptron over flat float64 vectors, with
    at least one hidden layer.

    Parameters are Tensors so one network serves both the forward that
    builds a backward chain (updates) and the raw-numpy forward (rollouts).
    Both are ``head`` over the last hidden layer of one numpy body, ``_stack``.
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

    @property
    def parameters(self) -> list[Tensor]:
        return [p for layer in zip(self.weights, self.biases) for p in layer]

    def _stack(self, x) -> tuple[np.ndarray, list[np.ndarray]]:
        """Every layer but the output layer, in numpy: (cols, activations).

        The first layer multiplies only the input columns the batch sets,
        ``x[:, cols] @ W0[cols]``: MiniProc observations set about 21 of 405
        cells. Skipping the zero terms changes the rounding of the sum, so a
        row's output depends, by rounding, on the other rows of its batch.
        The activations are ``x[:, cols]`` and each layer's tanh output.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[-1] != self.sizes[0]:
            raise DimensionError(
                f"layer 0 expects input width {self.sizes[0]}, got {x.shape[-1]}"
            )
        cols = np.flatnonzero(x.any(axis=0))   # the columns some row sets
        acts = [x[:, cols]]
        for i in range(len(self.weights) - 1):
            w = self.weights[i].data
            h = acts[-1] @ (w[cols] if i == 0 else w)
            h += self.biases[i].data
            acts.append(np.tanh(h, out=h))
        return cols, acts

    def hidden(self, x: np.ndarray) -> ad.Node:
        """The last hidden layer of a (B, in) array: ``_stack`` as the first
        node of a chain, bit-identical to hidden_np()."""
        cols, acts = self._stack(x)

        def back(g):
            # the per-layer ops' arithmetic (tanh, add, matmul), so the
            # gradients equal theirs bit for bit
            for i in reversed(range(len(acts) - 1)):
                w, b = self.weights[i], self.biases[i]
                d = acts[i + 1] * acts[i + 1]
                np.subtract(1.0, d, out=d)
                g = np.multiply(g, d, out=d)     # g * (1 - a*a), in one buffer
                b._accumulate(g.sum(axis=0))
                if i == 0:
                    if w.grad is None:
                        w.grad = np.zeros_like(w.data)
                    w.grad[cols] += acts[0].T @ g
                else:
                    w._accumulate(acts[i].T @ g)
                    g = g @ w.data.T

        return ad.Node(acts[-1], back)

    def hidden_np(self, x) -> np.ndarray:
        return self._stack(x)[1][-1]

    def head(self, h):
        """The output layer; a node over a node, else numpy that refuses non-finite output."""
        w, b = self.weights[-1], self.biases[-1]
        if isinstance(h, ad.Node):
            def back(g):
                # the order and arithmetic of a matmul and a broadcast add
                b._accumulate(g.sum(axis=0))
                w._accumulate(h.data.T @ g)
                h.back(g @ w.data.T)

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
    """Adam with bias correction, one slot pair per tracked parameter."""

    params: list[Tensor]
    learning_rate: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if not self.m:
            self.m = [np.zeros_like(p.data) for p in self.params]
            self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        """Step every parameter with a gradient; ``ppo._lanes`` steps the
        update's, so this is kept as their test reference and a perfbench span."""
        bc1, bc2 = self.bias_correction()
        for i, p in enumerate(self.params):
            if p.grad is not None:
                self.update(i, bc1, bc2)

    def bias_correction(self) -> tuple[float, float]:
        """Count one step and give its (bc1, bc2), for ``update``."""
        self.step_count += 1
        return 1.0 - self.beta1**self.step_count, 1.0 - self.beta2**self.step_count

    def update(self, i: int, bc1: float, bc2: float):
        """Step parameter i; parameters share no state, so any order or thread will do."""
        p, g = self.params[i], self.params[i].grad
        if g.shape != p.data.shape:
            raise DimensionError(f"gradient shape {g.shape} != parameter shape {p.data.shape}")
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
        np.subtract(p.data, step, out=p.data)   # the weights never move


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

