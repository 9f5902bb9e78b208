"""Correctness checks of one benchmark repetition.

Each check returns ``(name, ok, detail)``. The joined-policy check compares
the program against a reference recursion written here, independent of
``orchestra.hop``: it reads only the checkpoints' weights and trusted states.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

JOINED_TOLERANCE = 1e-9


def metrics_csv(path: Path, expected_rows: int):
    """``metrics.csv`` exists, has the configured row count and finite values."""
    if not path.is_file():
        return "metrics_csv", False, "metrics.csv missing"
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    if len(rows) != expected_rows:
        return "metrics_csv", False, f"{len(rows)} rows, expected {expected_rows}"
    for row in rows:
        for key, value in row.items():
            if value != "" and not math.isfinite(float(value)):
                return "metrics_csv", False, f"step {row['step']}: {key}={value}"
    return "metrics_csv", True, f"{len(rows)} finite rows"


def trusted_gate(checkpoints, reward_limit: float):
    """Every stored trusted state came from an episode with return > limit."""
    returns = [r for c in checkpoints for r in c.trusted.episode_returns]
    bad = [r for r in returns if not r > reward_limit]
    detail = f"{len(returns)} states in {len(checkpoints)} checkpoints"
    if bad:
        return "trusted_gate", False, f"{detail}; min return {min(bad)} <= {reward_limit}"
    return "trusted_gate", True, detail


def column_frozen(before, after):
    """The phase-1 PNN column gives bit-identical outputs after phase 2."""
    same = all(np.array_equal(a, b) for a, b in zip(before, after))
    return "pnn_column_frozen", same, "bit-identical" if same else "outputs changed"


# --- reference joined policy ---------------------------------------------------


def _forward(weights, biases, x):
    h = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w + b
        if i < len(weights) - 1:
            h = np.tanh(h)
    return h


def _best_match(raw: np.ndarray, state: np.ndarray):
    units = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    sims = units @ (state / np.linalg.norm(state))
    idx = int(np.argmax(sims))          # lowest index among ties
    return float(sims[idx]), raw[idx]


def _orchestra_sum(snapshots, count: int, state: np.ndarray, omega: float):
    """Sum over active m < count of W_m * (actor_m(s*_m) + recursion at s*_m),
    with W_m = I_m / (1 + sum_{k >= m} I_k) over the first ``count`` snapshots."""
    matches = [_best_match(snapshots[m][2], state) for m in range(count)]
    active = [sim > omega for sim, _ in matches]
    total = np.zeros(snapshots[0][0][-1].shape[-1]) if snapshots else 0.0
    for m in range(count):
        if not active[m]:
            continue
        weight = 1.0 / (1.0 + sum(active[m:]))
        sstar = matches[m][1]
        weights, biases, _ = snapshots[m]
        total = total + weight * (_forward(weights, biases, sstar)
                                  + _orchestra_sum(snapshots, m, sstar, omega))
    return total


def reference_joined_logits(learner, checkpoints, states: np.ndarray, omega: float):
    """Joined logits of learner + checkpoints, one state at a time."""
    snapshots = [([w.data for w in c.actor.weights], [b.data for b in c.actor.biases],
                  np.stack(c.trusted.raw)) for c in checkpoints]
    lw = [w.data for w in learner.weights]
    lb = [b.data for b in learner.biases]
    return np.stack([_forward(lw, lb, s) + _orchestra_sum(snapshots, len(snapshots), s, omega)
                     for s in states])


def joined_matches_reference(source, learner, checkpoints, states: np.ndarray, omega: float):
    """``JoinedSource`` logits equal the reference recursion within tolerance."""
    program, aux = source.logits_and_aux(states)
    reference = reference_joined_logits(learner, checkpoints, states, omega)
    err = float(np.max(np.abs(program - reference)))
    active = sum(bool(a["bitmask"].any()) for a in aux)
    return ("joined_reference", err <= JOINED_TOLERANCE,
            f"max |diff| {err:.2e} over {len(states)} states, {active} with an active "
            f"checkpoint, M={len(checkpoints)}")
