"""Span recorder for the traced benchmark run, and its per-layer reduction.

The recorder wraps public functions and methods of the ``orchestra.*``
modules from outside the program: nothing in ``src`` changes. A wrapped call
records one span ``(name, start_ns, end_ns, parent)``; all spans of one
repetition share its run id. Spans stay in memory and are written once, when
the repetition ends. A layer's self time is its spans' duration minus the
time their child spans cover.

The one non-public target is ``Trainer._persist``, the program's only
persistence step; every target must exist, so a renamed one fails the run.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from orchestra import autodiff, envs, harness, hop, nn, pnn, ppo


def _rows(x) -> int:
    data = getattr(x, "data", x)
    return int(np.shape(data)[0]) if np.ndim(data) > 1 else 1


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.spans: list = []
        self.counts: Counter = Counter()
        self.levels: set = set()
        self.orchestra = None           # set once the Trainer exists
        self._stack: list[int] = []
        self._undo: list = []
        self._ckpt_ids: frozenset = frozenset()
        self._ckpt_count = -1

    # --- recording ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, observe=None):
        """Replace ``owner.attr`` by a recording wrapper.

        For a module function every ``orchestra`` module that imported it by
        name gets the wrapper too.
        """
        original = owner.__dict__[attr]
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(original)
        def recorded(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                spans[index] = (name_id, start, clock(), parent)
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        holders = [owner] if isinstance(owner, type) else [
            m for key, m in sys.modules.items()
            if key.startswith("orchestra") and m is not None]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, recorded)
                    self._undo.append((holder, key, original))

    def install(self):
        w = self.wrap
        w(envs.VecEnv, "vec_step", "envs.vec_step")
        w(envs.EnvInstance, "observation", "envs.observation")
        w(envs, "generate_layout", "envs.generate_layout", _observe_layout)
        w(nn.Mlp, "forward_np", "nn.forward_np", _observe_forward_np)
        w(nn.Mlp, "forward", "nn.forward", _observe_forward)
        w(nn.Adam, "step", "nn.adam")
        w(nn, "clip_grad_norm", "nn.clip_grad_norm")
        w(autodiff, "backward", "autodiff.backward")
        w(ppo, "collect_rollout", "ppo.collect_rollout")
        w(ppo.ActionSource, "act", "ppo.act")
        w(ppo, "compute_gae", "ppo.compute_gae")
        w(ppo, "ppo_update", "ppo.update", _observe_update)
        w(ppo, "evaluate_policy", "ppo.evaluate_policy", _observe_evaluate)
        w(hop.JoinedSource, "logits_and_aux", "hop.logits_and_aux")
        w(hop.TrustedStateSet, "find_most_similar", "hop.find_most_similar")
        w(hop, "expand_joined", "hop.expand_joined", _observe_expand)
        w(hop, "masked_policy_update", "hop.masked_policy_update")
        w(hop, "checkpoint_now", "hop.checkpoint_now", _observe_checkpoint)
        w(hop, "save_checkpoint", "hop.save_checkpoint")
        w(pnn.PnnStack, "forward_with_adapters", "pnn.forward_with_adapters")
        w(pnn, "pnn_update", "pnn.pnn_update")
        w(harness.Trainer, "_persist", "harness.persist", _observe_persist)
        w(harness, "export_metrics", "harness.export_metrics")
        w(harness.Trainer, "run", "harness.run")

    def uninstall(self):
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def checkpoint_actor_ids(self) -> frozenset:
        checkpoints = self.orchestra.checkpoints if self.orchestra is not None else []
        if len(checkpoints) != self._ckpt_count:
            self._ckpt_ids = frozenset(id(c.actor) for c in checkpoints)
            self._ckpt_count = len(checkpoints)
        return self._ckpt_ids

    # --- reduction --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        done = np.array(self.spans, dtype=np.int64).reshape(-1, 4)
        return {"name": done[:, 0], "start_ns": done[:, 1], "end_ns": done[:, 2],
                "parent": done[:, 3]}

    def save(self, path: Path):
        np.savez_compressed(path, names=np.array(self.names), run_id=np.array(self.run_id),
                            **self.arrays())

    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-name (calls, self seconds, inclusive seconds)."""
        a = self.arrays()
        duration = a["end_ns"] - a["start_ns"]
        covered = np.zeros_like(duration)
        has_parent = a["parent"] >= 0
        np.add.at(covered, a["parent"][has_parent], duration[has_parent])
        own = duration - covered
        calls = np.bincount(a["name"], minlength=len(self.names))
        seconds = np.bincount(a["name"], weights=own, minlength=len(self.names)) / 1e9
        inclusive = np.bincount(a["name"], weights=duration, minlength=len(self.names)) / 1e9
        return calls, seconds, inclusive


def _observe_layout(tracer, args, result):
    tracer.levels.add((args[0].family, args[0].level_seed))


def _observe_forward(tracer, args, result):
    if id(args[0]) in tracer.checkpoint_actor_ids():
        tracer.counts["hop.ckpt_forward.rows"] += _rows(args[1])


def _observe_forward_np(tracer, args, result):
    tracer.counts["nn.forward_np.rows"] += _rows(args[1])
    _observe_forward(tracer, args, result)


def _observe_update(tracer, args, result):
    tracer.counts["ppo.update.epochs_run"] += result.epochs_run


def _observe_evaluate(tracer, args, result):
    tracer.counts["ppo.evaluate_policy.episodes"] += len(result.returns)


def _observe_expand(tracer, args, result):
    activation, terms = result
    tracer.counts["hop.states"] += 1
    tracer.counts["hop.terms"] += len(terms)
    tracer.counts["hop.active"] += int(activation.bitmask.sum())
    tracer.counts["hop.slots"] += len(activation.bitmask)


def _observe_checkpoint(tracer, args, result):
    tracer.counts["hop.checkpoint_now.accepted"] += result is not None


def _observe_persist(tracer, args, result):
    state = args[0].out_dir / "state.pkl"
    tracer.counts["harness.persist.bytes"] += state.stat().st_size


def _share(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, trusted_states: int, columns: int) -> dict[str, float]:
    """The per-layer metrics of one traced repetition, by BENCHMARK.json name."""
    calls, seconds, inclusive = tracer.self_times()
    c = dict(zip(tracer.names, calls.tolist()))
    s = dict(zip(tracer.names, seconds.tolist()))
    incl = dict(zip(tracer.names, inclusive.tolist()))
    n = tracer.counts
    out = {}
    for name in ("envs.vec_step", "envs.observation", "envs.generate_layout",
                 "nn.forward_np", "nn.forward", "nn.adam", "autodiff.backward",
                 "ppo.act", "hop.logits_and_aux", "hop.find_most_similar",
                 "hop.expand_joined", "hop.checkpoint_now",
                 "pnn.forward_with_adapters", "harness.persist"):
        out[f"{name}.calls"] = c[name]
        out[f"{name}.s"] = s[name]
    for name in ("nn.clip_grad_norm", "ppo.collect_rollout", "ppo.compute_gae",
                 "ppo.update", "ppo.evaluate_policy", "hop.masked_policy_update",
                 "hop.save_checkpoint", "pnn.pnn_update", "harness.export_metrics",
                 "harness.run"):
        out[f"{name}.s"] = s[name]
    out["envs.generate_layout.distinct_share"] = _share(len(tracer.levels),
                                                        c["envs.generate_layout"])
    out["nn.forward_np.rows_per_call"] = _share(n["nn.forward_np.rows"], c["nn.forward_np"])
    out["ppo.update.minibatches"] = c["autodiff.backward"]
    out["ppo.update.epochs_run"] = n["ppo.update.epochs_run"]
    out["ppo.evaluate_policy.episodes"] = n["ppo.evaluate_policy.episodes"]
    # Shares of the training loop's time, child spans included.
    out["ppo.evaluate_policy.share"] = _share(incl["ppo.evaluate_policy"], incl["harness.run"])
    out["hop.checkpoint_now.share"] = _share(incl["hop.checkpoint_now"], incl["harness.run"])
    out["hop.terms_per_state"] = _share(n["hop.terms"], n["hop.states"])
    out["hop.active_share"] = _share(n["hop.active"], n["hop.slots"])
    out["hop.ckpt_forward.rows"] = n["hop.ckpt_forward.rows"]
    out["hop.checkpoint_now.accepted"] = n["hop.checkpoint_now.accepted"]
    out["hop.trusted_states"] = trusted_states
    out["pnn.columns"] = columns
    out["harness.persist.mb"] = n["harness.persist.bytes"] / 1e6
    out["trace.spans"] = len(tracer.spans)
    return out
