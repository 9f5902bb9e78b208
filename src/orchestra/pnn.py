"""Progressive-network baseline: per-task actor/critic columns plus
trainable adapters that inject earlier columns' hidden features into the
active column. Task labels are supplied by the caller; inactive columns are
never touched by an update.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError
from .nn import Adam, Mlp
from .ppo import (GaeOutput, LearnerSource, PpoConfig, RolloutBuffer,
                  UpdateStats, ppo_update)


@dataclass
class AdapterParams:
    """One affine link (src column -> dst column) on the last hidden layer.

    Zero-initialized so a freshly added column behaves exactly like a
    standalone network; the affine acts on ReLU-gated source features, which
    keeps the zero init trainable.
    """

    weight: Tensor
    bias: Tensor

    @property
    def parameters(self) -> list[Tensor]:
        return [self.weight, self.bias]


@dataclass
class Column:
    task_id: str
    actor: Mlp
    critic: Mlp
    actor_opt: Adam
    critic_opt: Adam


class PnnStack:
    def __init__(self, obs_dim: int, n_actions: int, hidden: int,
                 learning_rate: float, rng: np.random.Generator):
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        self.hidden = hidden
        self.learning_rate = learning_rate
        self._rng = rng
        self.columns: list[Column] = []
        self.task_index: dict[str, int] = {}
        # (net, src, dst) -> AdapterParams
        self.adapters: dict[tuple[str, int, int], AdapterParams] = {}
        self.adapter_opts: dict[int, Adam] = {}  # keyed by dst column

    def add_column(self, task_id: str) -> int:
        if task_id in self.task_index:
            raise ConfigError(f"duplicate task id {task_id!r}")
        dst = len(self.columns)
        actor = Mlp([self.obs_dim, self.hidden, self.hidden, self.n_actions], self._rng)
        critic = Mlp([self.obs_dim, self.hidden, self.hidden, 1], self._rng)
        col = Column(task_id, actor, critic,
                     Adam(actor.parameters, self.learning_rate),
                     Adam(critic.parameters, self.learning_rate))
        self.columns.append(col)
        self.task_index[task_id] = dst
        new_params: list[Tensor] = []
        for net in ("actor", "critic"):
            for src in range(dst):
                adp = AdapterParams(
                    Tensor(np.zeros((self.hidden, self.hidden)), requires_grad=True),
                    Tensor(np.zeros(self.hidden), requires_grad=True),
                )
                self.adapters[(net, src, dst)] = adp
                new_params.extend(adp.parameters)
        if new_params:
            self.adapter_opts[dst] = Adam(new_params, self.learning_rate)
        return dst

    def _column(self, task_id: str) -> int:
        if task_id not in self.task_index:
            raise ConfigError(f"unknown task id {task_id!r}; add_column first")
        return self.task_index[task_id]

    def net(self, task_id: str, net: str) -> ColumnNet:
        """The task's ``net`` column ("actor" or "critic") with its adapters."""
        return ColumnNet(self, self._column(task_id), net)

    def forward_with_adapters(self, task_id: str, obs: np.ndarray):
        """(logits, value) for a batch of observations under the task's column."""
        return (self.net(task_id, "actor").forward_np(obs),
                self.net(task_id, "critic").forward_np(obs)[:, 0])


class ColumnNet:
    """A column's actor or critic with the adapters into it, a network with
    ``Mlp``'s ``forward`` and ``forward_np``: its last hidden layer plus each
    earlier column's ``max(h, 0)`` through its adapter, then its output
    layer. A view built on demand: the stack stores nothing for it."""

    def __init__(self, stack: PnnStack, col_idx: int, net: str):
        self.mlp: Mlp = getattr(stack.columns[col_idx], net)
        self.feeds = [(getattr(stack.columns[src], net), stack.adapters[(net, src, col_idx)])
                      for src in range(col_idx)]

    def _adapted(self, h: np.ndarray, x: np.ndarray):
        """(h plus each earlier column's features through its adapter, and
        those (features, adapter) pairs)."""
        feeds = [(np.maximum(src.hidden_np(x), 0.0), adp) for src, adp in self.feeds]
        for feats, adp in feeds:
            h = h + (feats @ adp.weight.data + adp.bias.data)
        return h, feeds

    def forward(self, x) -> Tensor:
        """On the tape; ``x`` is an ndarray or a Tensor off the tape. The
        adapter sum is one node."""
        h = self.mlp.hidden(x)
        if not self.feeds:
            return self.mlp.head(h)
        data, feeds = self._adapted(h.data, x.data if isinstance(x, Tensor) else x)

        def backward(g):
            h._accumulate(g)
            for feats, adp in feeds:
                adp.bias._accumulate(g.sum(axis=0))
                adp.weight._accumulate(feats.T @ g)

        params = [p for _, adp in feeds for p in adp.parameters]
        return self.mlp.head(ad.node(data, (h, *params), backward))

    def forward_np(self, x: np.ndarray) -> np.ndarray:
        return self.mlp.head(self._adapted(self.mlp.hidden_np(x), x)[0])


class ColumnSource(LearnerSource):
    """Acts with the task's actor column and its adapters."""

    def __init__(self, stack: PnnStack, task_id: str):
        super().__init__(stack.net(task_id, "actor"))
        self.task_id = task_id


def pnn_update(stack: PnnStack, task_id: str, buffer: RolloutBuffer,
               gae: GaeOutput, cfg: PpoConfig,
               rng: np.random.Generator) -> UpdateStats:
    """PPO update of the task's column and the adapters into it."""
    col_idx = stack._column(task_id)
    col = stack.columns[col_idx]
    extra_opts = [stack.adapter_opts[col_idx]] if col_idx in stack.adapter_opts else []
    return ppo_update(buffer, gae, stack.net(task_id, "actor"), stack.net(task_id, "critic"),
                      cfg, col.actor_opt, col.critic_opt, rng, extra_opts=extra_opts)
