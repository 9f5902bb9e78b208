"""Workload definitions, seeded input generation and the environment
fingerprint of the orchestra-rl benchmark.

Everything the program receives during a benchmark run is made here: the
training seed of every repetition, and, from the workload seed, the held-out
states the act latency is timed on and the six synthetic snapshots of
``hop-m6``. The program never generates its own benchmark inputs.

Importing this module needs ``src`` of the checkout on ``sys.path``.
"""
from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

import orchestra
from orchestra.envs import N_ACTIONS, OBS_DIM, EnvInstance
from orchestra.harness import HIDDEN, RunConfig, config_from_flat_dict
from orchestra.hop import CheckpointPolicy, TrustedStateSet, save_checkpoint
from orchestra.nn import Mlp

PRESET = Path("scripts") / "configs" / "hop_desk.json"

# Workload -> algorithm. BENCHMARK.json and README.md say why each is here.
ALGORITHM = {"ppo-desk": "ppo", "hop-desk": "hop", "hop-m6": "hop", "pnn-desk": "pnn"}

ROLLOUTS_PER_PHASE = 1      # three iterations per run, both phase boundaries crossed
HOP_M6_NUM_STEPS = 32       # hop-m6 rollout length: one iteration at 16x256 takes ~7 s
SNAPSHOTS = 6
SNAPSHOT_STATES = 200
HELDOUT_STATES = 1000       # p99 then has ten samples beyond it
HELDOUT_PER_EPISODE = 4
CHECKED_STATES = 100        # held-out states checked against the reference recursion

# Training seeds of the repetitions, the same in every run. What a training
# run harvests sets the orchestra's size, and with it the act latency of
# hop-desk by up to +-20 %; a run affords only a few trainings, so every run
# trains the same ones and two runs compare like with like.
TRAINING_SEEDS = tuple(range(1, 17))
# Nominal wall time of one repetition on the baseline host, in seconds; a run
# makes --seconds / REP_SECONDS of them, so its work does not depend on the
# host's speed.
REP_SECONDS = {"ppo-desk": 4.5, "hop-desk": 7.5, "hop-m6": 7.5, "pnn-desk": 7.5}

# Small geometry for the smoke test: same code paths, a second per repetition.
TINY = {"num_steps": 8, "num_envs": 2, "num_minibatches": 2, "update_epochs": 1,
        "eval_batch_size": 2, "eval_episodes": 3, "max_ep_length": 20,
        "max_eval_ep_len": 20}
TINY_SNAPSHOT_STATES = 20
TINY_HELDOUT_STATES = 40


def run_config(root: Path, workload: str, config_seed: int, tiny: bool = False) -> RunConfig:
    """The bundled preset, cut to ROLLOUTS_PER_PHASE rollouts per phase.

    Evaluation runs once at the end of every phase. On ``hop-desk`` the
    checkpoint interval is one phase, as in the preset, so snapshots are
    attempted only at phase boundaries; ``hop-m6`` never attempts one and
    routes gradients into its six generated snapshots instead.
    """
    raw = json.loads((root / PRESET).read_text())
    raw["algorithm"] = ALGORITHM[workload]
    raw["seed"] = int(config_seed)
    if workload == "hop-m6":
        raw["num_steps"] = HOP_M6_NUM_STEPS
        raw["checkpoint_gradients"] = True
    if tiny:
        raw.update(TINY)
    per_phase = ROLLOUTS_PER_PHASE * raw["num_steps"] * raw["num_envs"]
    raw["total_timesteps"] = 3 * per_phase
    raw["report_epoch"] = per_phase
    raw["checkpoint_interval"] = per_phase if workload == "hop-desk" else 4 * per_phase
    return config_from_flat_dict(raw)


def random_episode(spec, max_len: int, rng: np.random.Generator):
    """Observations and return of one uniformly random-action episode."""
    env = EnvInstance(spec, max_len)
    states, total = [], 0.0
    while not env.done:
        states.append(env.observation())
        total += env.step(int(rng.integers(N_ACTIONS))).reward
    return states, total


def heldout_states(cfg: RunConfig, seed: int, count: int) -> np.ndarray:
    """States of seeded random-action episodes on the final phase's levels.

    A few states are drawn from each of many episodes: the act latency of the
    orchestra depends on the state, and states within one episode are alike.
    """
    rng = np.random.default_rng([seed, 0x4E1D])
    specs = cfg.plan().phases[-1].level_specs()
    states: list[np.ndarray] = []
    while len(states) < count:
        episode, _ = random_episode(specs[rng.integers(len(specs))], cfg.max_eval_ep_len, rng)
        picks = rng.choice(len(episode), size=min(HELDOUT_PER_EPISODE, len(episode)),
                           replace=False)
        states.extend(episode[i] for i in np.sort(picks))
    return np.stack(states[:count])


def write_snapshots(cfg: RunConfig, seed: int, directory: Path, states: int) -> list[Path]:
    """Six seeded snapshots, saved as the program's checkpoint bundles.

    Snapshot k has a freshly initialised actor and ``states`` trusted states
    from random-action episodes on the levels of phase ``k % 2 + 1``, so
    both families activate three snapshots each.
    """
    rng = np.random.default_rng([seed, 0x5EAB])
    phases = cfg.plan().phases
    paths = []
    for k in range(SNAPSHOTS):
        specs = phases[k % 2].level_specs()
        actor = Mlp([OBS_DIM, HIDDEN, HIDDEN, N_ACTIONS], rng)
        trusted = TrustedStateSet(states, rng)
        for _ in range(10_000):
            if len(trusted) >= states:
                break
            episode, ret = random_episode(specs[rng.integers(len(specs))],
                                          cfg.max_eval_ep_len, rng)
            trusted.add_episode(episode, ret)
        else:
            raise RuntimeError(f"snapshot {k + 1}: fewer than {states} distinct states")
        path = directory / f"snapshot_{k + 1}"
        save_checkpoint(CheckpointPolicy(k + 1, actor, trusted, created_step=0), path, cfg.hop)
        paths.append(path)
    return paths


def check_source_root(root: Path):
    """Fail unless ``orchestra`` was imported from ``root/src``."""
    expected = (root / "src" / "orchestra").resolve()
    actual = Path(orchestra.__file__).resolve().parent
    if actual != expected:
        raise RuntimeError(f"orchestra imported from {actual}, expected {expected}")


def blas_threads():
    """Thread count of the loaded OpenBLAS, asked at run time; None if unknown."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:         # not Linux: the thread count stays unknown
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha(root: Path):
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(root: Path, seed: int, blas_thread_count) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "blas_threads": blas_thread_count,
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(root),
        "src_sha256": _tree_digest(root / "src" / "orchestra"),
        "seed": seed,
    }
