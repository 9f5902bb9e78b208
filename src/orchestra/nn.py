"""MLPs, categorical sampling, Adam, and flat-blob parameter serialization."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DimensionError

HIDDEN_GAIN = np.sqrt(2.0)
OUTPUT_GAIN = 0.01


def init_mlp_params(
    sizes: Sequence[int], rng: np.random.Generator
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Scaled-uniform init: gain sqrt(2) on hidden layers, 0.01 on the output."""
    params = []
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        gain = OUTPUT_GAIN if i == len(sizes) - 2 else HIDDEN_GAIN
        bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        b = np.zeros(fan_out)
        params.append((w, b))
    return params


class Mlp:
    """A tanh-hidden multilayer perceptron over flat float64 vectors, with
    at least one hidden layer.

    Parameters live as leaf Tensors so one network object serves both the
    graph-building forward (updates) and the raw-numpy forward (rollouts).
    Both run the same numpy body, ``_stack``.
    """

    def __init__(self, sizes: Sequence[int], rng: np.random.Generator):
        if len(sizes) < 3:
            raise DimensionError(f"an Mlp needs a hidden layer, got sizes {list(sizes)}")
        self.sizes = list(sizes)
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        for w, b in init_mlp_params(sizes, rng):
            self.weights.append(Tensor(w, requires_grad=True))
            self.biases.append(Tensor(b, requires_grad=True))

    @property
    def parameters(self) -> list[Tensor]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

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
            acts.append(np.tanh(acts[-1] @ (w[cols] if i == 0 else w) + self.biases[i].data))
        return cols, acts

    def forward(self, x, return_hidden: bool = False):
        """Graph-building forward of an ndarray, or a Tensor off the tape, of
        shape (B, in); bit-identical to forward_np(). ``_stack`` enters the
        tape as one node, and the output layer after it as two ordinary ops.
        """
        if isinstance(x, Tensor):
            if x.requires_grad:
                raise ContractError("Mlp.forward: the input must not need a gradient")
            x = x.data
        cols, acts = self._stack(x)

        def backward(g):
            # the per-layer ops' arithmetic (tanh, add, matmul), so the
            # gradients equal theirs bit for bit
            for i in reversed(range(len(acts) - 1)):
                w, b = self.weights[i], self.biases[i]
                g = g * (1.0 - acts[i + 1] * acts[i + 1])
                b._accumulate(g.sum(axis=0))
                if i == 0:
                    if w.grad is None:
                        w.grad = np.zeros_like(w.data)
                    w.grad[cols] += acts[0].T @ g
                else:
                    w._accumulate(acts[i].T @ g)
                    g = g @ w.data.T

        h = ad.node(acts[-1], self.parameters[:-2], backward)
        out = h @ self.weights[-1] + self.biases[-1]
        return (out, h) if return_hidden else out

    def forward_np(self, x: np.ndarray, return_hidden: bool = False):
        """Raw-numpy forward without the tape; bit-identical to forward()."""
        h = self._stack(x)[1][-1]
        out = h @ self.weights[-1].data + self.biases[-1].data
        if not np.isfinite(out).all():
            raise ContractError("forward_np produced non-finite output")
        return (out, h) if return_hidden else out

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
        dup.weights = [Tensor(w.data, requires_grad=True) for w in self.weights]
        dup.biases = [Tensor(b.data, requires_grad=True) for b in self.biases]
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
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise DimensionError(
                    f"gradient shape {g.shape} != parameter shape {p.data.shape}"
                )
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
    """Scale gradients in place so their joint l2 norm is at most max_norm."""
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


def save_params(path, named_arrays: dict[str, np.ndarray]):
    """Write a flat little-endian float64 blob plus a JSON manifest."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    manifest = []
    offset = 0
    with open(path, "wb") as f:
        for name, arr in named_arrays.items():
            blob = np.ascontiguousarray(arr, dtype="<f8").tobytes()
            f.write(blob)
            manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
            offset += len(blob)
    with open(path.with_suffix(path.suffix + ".manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1)


def load_params(path) -> dict[str, np.ndarray]:
    path = Path(path)
    with open(path.with_suffix(path.suffix + ".manifest.json")) as f:
        manifest = json.load(f)
    raw = path.read_bytes()
    out = {}
    for entry in manifest:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=start)
        out[entry["name"]] = arr.reshape(shape).astype(np.float64)
    return out


def mlp_named_arrays(mlp: Mlp, prefix: str = "") -> dict[str, np.ndarray]:
    out = {}
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        out[f"{prefix}w{i}"] = w.data
        out[f"{prefix}b{i}"] = b.data
    return out


def load_mlp_arrays(mlp: Mlp, named: dict[str, np.ndarray], prefix: str = ""):
    arrays = []
    for i in range(len(mlp.weights)):
        arrays.extend((named[f"{prefix}w{i}"], named[f"{prefix}b{i}"]))
    mlp.set_arrays(arrays)
