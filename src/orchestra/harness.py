"""Three-phase continual-learning experiment orchestration.

A run trains one algorithm (ppo, hop, or pnn) through phases A -> B -> A,
evaluates at a fixed cadence on the current phase's level set, persists
resumable state at every rollout boundary, and reports recovery metrics:
steps-to-return (steps after re-entering phase 1's tasks until the phase-1
peak evaluation return is re-attained) and the final evaluation return.
"""
from __future__ import annotations

import bisect
import csv
import json
import os
import pickle
from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import accumulate
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .blas import openblas_threads
from .errors import ConfigError, require_positive
from .nn import Adam, Mlp
from .envs import FAMILIES, LevelSpec, N_ACTIONS, OBS_DIM, VecEnv
from .ppo import (LearnerSource, PpoConfig, collect_rollout, compute_gae,
                  evaluate_policy, ppo_update)
from .hop import HopConfig, JoinedSource, Orchestra, checkpoint_now, masked_policy_update, save_checkpoint
from .pnn import ColumnSource, PnnStack, pnn_update

HIDDEN = 256
ALGORITHMS = ("ppo", "hop", "pnn")

# desk-scale defaults; every interval is a multiple of the rollout batch
DESK_TOTAL_TIMESTEPS = 294_912          # 3 phases x 24 rollouts x 4096
DESK_REPORT_EPOCH = 8_192
DESK_CHECKPOINT_INTERVAL = 24_576
DESK_NUM_LEVELS = 5


@dataclass
class PhaseSpec:
    family: str
    level_seeds: tuple[int, ...]
    steps: int

    def level_specs(self) -> list[LevelSpec]:
        return [LevelSpec(self.family, s) for s in self.level_seeds]

    def task_id(self) -> str:
        return f"{self.family}:{self.level_seeds[0]}-{self.level_seeds[-1]}"


@dataclass
class PhasePlan:
    phases: list[PhaseSpec]

    def validate(self):
        if len(self.phases) != 3:
            raise ConfigError("a run has exactly three phases")
        p1, p3 = self.phases[0], self.phases[2]
        if (p1.family, p1.level_seeds) != (p3.family, p3.level_seeds):
            raise ConfigError("phases 1 and 3 must share family and level set")

    @property
    def boundaries(self) -> list[int]:
        """Cumulative step at which each phase ends."""
        return list(accumulate(p.steps for p in self.phases))


@dataclass
class RunConfig:
    algorithm: str = "ppo"
    ppo: PpoConfig = field(default_factory=PpoConfig)
    hop: HopConfig = field(default_factory=lambda: HopConfig(
        checkpoint_interval=DESK_CHECKPOINT_INTERVAL))
    families: tuple[str, str, str] = ("runner", "climber", "runner")
    proc_start: int = 1
    proc_num_levels: int = DESK_NUM_LEVELS
    total_timesteps: int = DESK_TOTAL_TIMESTEPS
    report_epoch: int = DESK_REPORT_EPOCH
    eval_batch_size: int = 10
    max_ep_length: int = 200
    max_eval_ep_len: int = 200
    seed: int = 1
    also_eval_phase1: bool = False

    def plan(self) -> PhasePlan:
        per_phase = self.total_timesteps // 3
        seeds = tuple(range(self.proc_start, self.proc_start + self.proc_num_levels))
        return PhasePlan([PhaseSpec(f, seeds, per_phase) for f in self.families])

    def validate(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {ALGORITHMS}")
        for fam in self.families:
            if fam not in FAMILIES:
                raise ConfigError(f"unknown family {fam!r}")
        self.ppo.validate()
        self.hop.validate()
        require_positive(self, "total_timesteps", "max_ep_length", "max_eval_ep_len",
                         "report_epoch", "eval_batch_size", "proc_num_levels")
        if self.seed < 0:       # a SeedSequence takes no negative entropy
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        batch = self.ppo.batch_size
        if self.total_timesteps % 3 != 0 or (self.total_timesteps // 3) % batch != 0:
            raise ConfigError(
                "total_timesteps must split into three phases that are "
                f"multiples of the rollout batch ({batch})"
            )
        if self.report_epoch % batch != 0:
            raise ConfigError(f"report_epoch must be a multiple of {batch}")
        if self.algorithm == "hop" and self.hop.checkpoint_interval % batch != 0:
            raise ConfigError(f"checkpoint_interval must be a multiple of {batch}")
        self.plan().validate()


@dataclass
class MetricsRow:
    step: int
    phase: int
    mean_return: float
    stderr: float
    active_checkpoint_count_mean: float
    phase1_mean_return: Optional[float] = None


@dataclass
class MetricsReport:
    algorithm: str
    seed: int
    rows: list[MetricsRow]
    phase_steps: list[int]           # cumulative phase boundaries
    config_echo: dict

    def phase3_start(self) -> int:
        return self.phase_steps[1]


def steps_to_return(report: MetricsReport) -> int | str:
    """Steps after phase-3 start until the phase-1 peak is first re-attained."""
    phase1 = [r.mean_return for r in report.rows if r.phase == 1]
    if not phase1:
        return "not reached"
    peak = max(phase1)
    start = report.phase3_start()
    for row in report.rows:
        if row.phase == 3 and row.mean_return >= peak:
            return row.step - start
    return "not reached"


def final_rewards(report: MetricsReport) -> Optional[float]:
    return report.rows[-1].mean_return if report.rows else None


def summarize(report: MetricsReport) -> dict:
    return {
        "algorithm": report.algorithm,
        "seed": report.seed,
        "steps_to_return": steps_to_return(report),
        "final_rewards": final_rewards(report),
        "phase1_peak": max((r.mean_return for r in report.rows if r.phase == 1),
                           default=None),
        "config": report.config_echo,
    }


CSV_FIELDS = ["step", "phase", "mean_return", "stderr",
              "active_checkpoint_count_mean", "phase1_mean_return"]


def export_metrics(report: MetricsReport, out_dir, formats=("csv", "json")):
    """metrics.csv (time series) and summary.json (derived scalars)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if "csv" in formats:
        path = out_dir / "metrics.csv"
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(CSV_FIELDS)
            for r in report.rows:
                writer.writerow([
                    r.step, r.phase, repr(r.mean_return), repr(r.stderr),
                    repr(r.active_checkpoint_count_mean),
                    "" if r.phase1_mean_return is None else repr(r.phase1_mean_return),
                ])
        written.append(path)
    if "json" in formats:
        path = out_dir / "summary.json"
        with open(path, "w") as f:
            json.dump(summarize(report), f, indent=1)
        written.append(path)
    return written


def read_metrics_csv(path) -> list[MetricsRow]:
    rows = []
    with open(path, newline="") as f:
        for rec in csv.DictReader(f):
            rows.append(MetricsRow(
                step=int(rec["step"]),
                phase=int(rec["phase"]),
                mean_return=float(rec["mean_return"]),
                stderr=float(rec["stderr"]),
                active_checkpoint_count_mean=float(rec["active_checkpoint_count_mean"]),
                phase1_mean_return=(float(rec["phase1_mean_return"])
                                    if rec["phase1_mean_return"] else None),
            ))
    return rows


class Trainer:
    """Owns all mutable run state; picklable at rollout boundaries."""

    def __init__(self, config: RunConfig, out_dir: Optional[str] = None):
        config.validate()
        self.config = config
        self.out_dir = Path(out_dir) if out_dir else None
        self.plan = config.plan()
        self.global_step = 0
        self.iteration = 0
        self.current_phase = -1
        self.rows: list[MetricsRow] = []
        self.act_count_accum: list[float] = []
        self.train_rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, 0x51EED]))
        init_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x1217]))
        self.orchestra = Orchestra()
        self.stack: Optional[PnnStack] = None
        if config.algorithm == "pnn":     # trains its columns, and has no learner
            self.stack = PnnStack(OBS_DIM, N_ACTIONS, HIDDEN,
                                  config.ppo.learning_rate, init_rng)
        else:
            self.actor = Mlp([OBS_DIM, HIDDEN, HIDDEN, N_ACTIONS], init_rng)
            self.critic = Mlp([OBS_DIM, HIDDEN, HIDDEN, 1], init_rng)
            self.actor_opt = Adam(self.actor.parameters, config.ppo.learning_rate)
            self.critic_opt = Adam(self.critic.parameters, config.ppo.learning_rate)
        self._enter_phase(0)
        if self.out_dir:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            with open(self.out_dir / "config.json", "w") as f:
                json.dump(config_to_flat_dict(config), f, indent=1)
            with open(self.out_dir / RUN_ENV, "w") as f:
                json.dump(run_environment(), f, indent=1)

    # --- phases ---------------------------------------------------------

    def _phase_of(self, step: int) -> int:
        return min(bisect.bisect_right(self.plan.boundaries, step),
                   len(self.plan.phases) - 1)

    def _enter_phase(self, idx: int):
        self.current_phase = idx
        phase = self.plan.phases[idx]
        self.vecenv = VecEnv(phase.level_specs(), self.config.ppo.num_envs,
                             self.config.max_ep_length)
        if self.stack is not None:
            if phase.task_id() not in self.stack.task_index:
                self.stack.add_column(phase.task_id())

    def _source(self, phase_idx: int):
        """The action source that acts on phase ``phase_idx``'s levels."""
        if self.config.algorithm == "hop":
            return JoinedSource(self.actor, self.orchestra, self.config.hop)
        if self.config.algorithm == "pnn":
            return ColumnSource(self.stack, self.plan.phases[phase_idx].task_id())
        return LearnerSource(self.actor)

    # --- main loop ------------------------------------------------------

    @property
    def total_iterations(self) -> int:
        return self.plan.boundaries[-1] // self.config.ppo.batch_size

    def run(self, max_iterations: Optional[int] = None) -> MetricsReport:
        cfg = self.config
        batch = cfg.ppo.batch_size
        done_iters = 0
        while self.iteration < self.total_iterations:
            if max_iterations is not None and done_iters >= max_iterations:
                break
            phase_idx = self._phase_of(self.global_step)
            if phase_idx != self.current_phase:
                self._enter_phase(phase_idx)
            source = self._source(self.current_phase)
            buffer = collect_rollout(source, self.vecenv, self._value_fn(),
                                     cfg.ppo, self.train_rng)
            gae = compute_gae(buffer, cfg.ppo.gamma, cfg.ppo.gae_lambda,
                              norm_adv=cfg.ppo.norm_adv)
            stats = self._update(buffer, gae)
            self.global_step += batch
            self.iteration += 1
            done_iters += 1
            self._accumulate_activations(buffer)
            # the rollout (13 MB of observations at desk scale) is spent: the
            # checkpoint attempt, the evaluation and the persist reuse its pages
            del buffer, gae
            self._log_update(stats)
            if cfg.algorithm == "hop" and self.global_step % cfg.hop.checkpoint_interval == 0:
                self._checkpoint()
            if self.global_step % cfg.report_epoch == 0:
                self._evaluate()
            self._persist()
        return self.report()

    def _value_fn(self):
        if self.stack is not None:
            # the value source is the active column with its adapters
            task = self.plan.phases[self.current_phase].task_id()
            return partial(self.stack.net_forward_np, task, "critic")
        return self.critic.forward_np

    def _update(self, buffer, gae):
        cfg = self.config
        if cfg.algorithm == "hop":
            return masked_policy_update(buffer, gae, self.actor, self.critic,
                                        self.orchestra, cfg.ppo, cfg.hop,
                                        self.actor_opt, self.critic_opt,
                                        self.train_rng)
        if cfg.algorithm == "pnn":
            phase = self.plan.phases[self.current_phase]
            return pnn_update(self.stack, phase.task_id(), buffer, gae,
                              cfg.ppo, self.train_rng)
        return ppo_update(buffer, gae, self.actor, self.critic, cfg.ppo,
                          self.actor_opt, self.critic_opt, self.train_rng)

    def _accumulate_activations(self, buffer):
        if self.config.algorithm != "hop":
            return
        active = np.concatenate(buffer.aux)["bitmask"].sum(axis=1)
        self.act_count_accum.extend(active.astype(float).tolist())

    def _event_rng(self, tag: int) -> np.random.Generator:
        """The generator of one evaluation or checkpoint event at this step."""
        return np.random.default_rng(
            np.random.SeedSequence([self.config.seed, tag, self.global_step]))

    def _checkpoint(self):
        cfg = self.config
        phase = self.plan.phases[self.current_phase]
        ckpt = checkpoint_now(self.actor, self.orchestra, phase.level_specs(),
                              cfg.hop, cfg.max_eval_ep_len, self._event_rng(0xC4EC),
                              self.global_step, cfg.ppo.learning_rate)
        if ckpt is not None and self.out_dir:
            save_checkpoint(ckpt, self.out_dir / f"checkpoint_{ckpt.index:03d}",
                            cfg.hop)

    def _evaluate(self):
        cfg = self.config
        phase_idx = self._phase_of(self.global_step - 1)
        phase = self.plan.phases[phase_idx]
        result = evaluate_policy(self._source(phase_idx), phase.level_specs(),
                                 cfg.eval_batch_size, cfg.max_eval_ep_len,
                                 self._event_rng(0xE7A1))
        phase1_mean = None
        if cfg.also_eval_phase1 and phase_idx != 0:
            phase1_mean = evaluate_policy(
                self._source(0), self.plan.phases[0].level_specs(),
                cfg.eval_batch_size, cfg.max_eval_ep_len,
                self._event_rng(0xE7A2)).mean_return
        act_mean = float(np.mean(self.act_count_accum)) if self.act_count_accum else 0.0
        self.act_count_accum = []
        self.rows.append(MetricsRow(
            step=self.global_step,
            phase=phase_idx + 1,
            mean_return=result.mean_return,
            stderr=result.stderr,
            active_checkpoint_count_mean=act_mean,
            phase1_mean_return=phase1_mean,
        ))
        if self.out_dir:
            export_metrics(self.report(), self.out_dir)

    def _log_update(self, stats):
        if self.out_dir:
            with open(self.out_dir / "updates.jsonl", "a") as f:
                f.write(stats.to_jsonl(self.global_step) + "\n")

    # --- persistence ----------------------------------------------------

    def _persist(self):
        """Write every attribute to state.pkl but those that load_trainer
        rebuilds from config.json and the run directory, at protocol 5,
        which writes each array's buffer without copying it."""
        if not self.out_dir:
            return
        state = {k: v for k, v in vars(self).items() if k not in ("config", "out_dir", "plan")}
        tmp = self.out_dir / "state.pkl.tmp"
        with open(tmp, "wb") as f:
            pickle.dump(state, f, protocol=5)
        os.replace(tmp, self.out_dir / "state.pkl")

    def report(self) -> MetricsReport:
        return MetricsReport(
            algorithm=self.config.algorithm,
            seed=self.config.seed,
            rows=list(self.rows),
            phase_steps=self.plan.boundaries,
            config_echo=config_to_flat_dict(self.config),
        )


def run_three_phase(config: RunConfig, out_dir: Optional[str] = None) -> MetricsReport:
    trainer = Trainer(config, out_dir)
    report = trainer.run()
    if out_dir:
        export_metrics(report, out_dir)
    return report


def load_trainer(out_dir) -> Trainer:
    """Rebuild a run's Trainer from its config.json and last state.pkl; a
    run stopped before its first persist has no state.pkl and starts at
    step 0."""
    out_dir = Path(out_dir)
    config = config_from_flat_dict(json.loads((out_dir / "config.json").read_text()))
    trainer = Trainer(config, None)     # rebuild, then overwrite mutable state
    trainer.out_dir = out_dir
    state = out_dir / "state.pkl"
    if state.exists():
        with open(state, "rb") as f:
            vars(trainer).update(pickle.load(f))
    return trainer


def resume(out_dir) -> MetricsReport:
    """Continue an interrupted run from its last persisted rollout boundary.

    Refuses with ConfigError when the numpy/BLAS environment differs from
    the one recorded when the run started, since the rerun would then not be
    bit-identical. Update records written after that boundary (the run
    stopped between logging an update and persisting it) are dropped, so
    the rerun iterations do not log them twice; so is a last line the stop
    cut short.
    """
    _check_run_environment(out_dir)
    trainer = load_trainer(out_dir)
    updates = trainer.out_dir / "updates.jsonl"
    if updates.exists():
        lines = updates.read_text().splitlines(keepends=True)
        updates.write_text("".join(
            line for line in lines
            if line.endswith("\n") and json.loads(line)["step"] <= trainer.global_step))
    report = trainer.run()
    export_metrics(report, trainer.out_dir)
    return report


# --- run environment -----------------------------------------------------------
#
# Same config + same seed gives bit-identical runs only under the same numpy,
# BLAS and BLAS thread count: a BLAS splits a matmul differently at another
# thread count. A run records them in run_env.json and resume checks them.

RUN_ENV = "run_env.json"


def run_environment() -> dict:
    """numpy version, BLAS name and version, and OpenBLAS thread count."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):       # numpy before 1.26 has no dict mode
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "blas_threads": openblas_threads(),
    }


def _check_run_environment(out_dir):
    """Raise ConfigError if the run's recorded environment differs from this
    process's. Runs recorded before run_env.json existed are not checked."""
    path = Path(out_dir) / RUN_ENV
    if not path.exists():
        return
    recorded = json.loads(path.read_text())
    current = run_environment()
    drift = [f"{key}: {recorded.get(key)!r} -> {current.get(key)!r}"
             for key in sorted(set(recorded) | set(current))
             if recorded.get(key) != current.get(key)]
    if drift:
        raise ConfigError(f"run environment changed since {path} was written "
                          f"({'; '.join(drift)}); a resumed run would not be "
                          "bit-identical")


# --- flat JSON configuration -------------------------------------------------
#
# Keys mirror the experiment-parameter tables verbatim. Unknown keys are
# rejected so silent typos cannot skew a run.

_PPO_KEYS = {f.name for f in fields(PpoConfig)}
_HOP_KEYS = {f.name for f in fields(HopConfig)}
_RUN_KEYS = ({f.name for f in fields(RunConfig)} - {"ppo", "hop", "families"}) | {"experiment"}
_DERIVED_KEYS = {"batch_size", "minibatch_size"}  # accepted, must be consistent
# each key's kind, and the values it takes: a bool is no number here
_KINDS = {f.name: getattr(f.type, "__name__", f.type)
          for c in (PpoConfig, HopConfig, RunConfig) for f in fields(c)}
_KINDS.update(experiment="str", batch_size="int", minibatch_size="int")
_ACCEPTS = {"bool": (bool, np.bool_), "int": (int, np.integer),
            "float": (int, float, np.integer, np.floating), "str": (str,)}


def config_from_flat_dict(raw: dict) -> RunConfig:
    unknown = set(raw) - _PPO_KEYS - _HOP_KEYS - _RUN_KEYS - _DERIVED_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in raw.items():
        kind = _KINDS[key]
        if not isinstance(value, _ACCEPTS[kind]) or (
                kind != "bool" and isinstance(value, (bool, np.bool_))):
            raise ConfigError(f"{key}: expected {kind}, got {type(value).__name__} {value!r}")
    # numpy scalars become Python ones, so config.json can hold them
    raw = {k: v.item() if isinstance(v, np.generic) else v for k, v in raw.items()}
    ppo = PpoConfig(**{k: raw[k] for k in _PPO_KEYS if k in raw})
    hop = replace(RunConfig().hop, **{k: raw[k] for k in _HOP_KEYS if k in raw})
    if "batch_size" in raw and raw["batch_size"] != ppo.batch_size:
        raise ConfigError(
            f"batch_size={raw['batch_size']} inconsistent with "
            f"num_steps*num_envs={ppo.batch_size}"
        )
    if "minibatch_size" in raw and raw["minibatch_size"] != ppo.minibatch_size:
        raise ConfigError(
            f"minibatch_size={raw['minibatch_size']} inconsistent with "
            f"batch_size/num_minibatches={ppo.minibatch_size}"
        )
    families = ("runner", "climber", "runner")
    if "experiment" in raw:
        parts = tuple(raw["experiment"].split("-"))
        if len(parts) != 3:
            raise ConfigError("experiment must be 'familyA-familyB-familyA'")
        families = parts
    run_kwargs = {k: raw[k] for k in _RUN_KEYS & set(raw)
                  if k not in ("algorithm", "experiment")}
    cfg = RunConfig(algorithm=raw.get("algorithm", "ppo"), ppo=ppo, hop=hop,
                    families=families, **run_kwargs)
    cfg.validate()
    return cfg


def config_to_flat_dict(cfg: RunConfig) -> dict:
    out = {k: getattr(cfg.ppo, k) for k in sorted(_PPO_KEYS)}
    out.update({k: getattr(cfg.hop, k) for k in sorted(_HOP_KEYS)})
    out["batch_size"] = cfg.ppo.batch_size
    out["minibatch_size"] = cfg.ppo.minibatch_size
    out["algorithm"] = cfg.algorithm
    out["experiment"] = "-".join(cfg.families)
    for k in sorted(_RUN_KEYS - {"algorithm", "experiment"}):
        out[k] = getattr(cfg, k)
    return out


def aggregate(run_dirs: Sequence[str]) -> dict:
    """Cross-seed aggregate of exported run summaries, grouped by algorithm."""
    groups: dict[str, list[dict]] = {}
    for d in run_dirs:
        with open(Path(d) / "summary.json") as f:
            s = json.load(f)
        groups.setdefault(s["algorithm"], []).append(s)
    out = {}
    for algo, summaries in sorted(groups.items()):
        finals = [s["final_rewards"] for s in summaries
                  if s["final_rewards"] is not None]
        strs = [s["steps_to_return"] for s in summaries]
        numeric = [v for v in strs if isinstance(v, (int, float))]
        entry = {
            "runs": len(summaries),
            "seeds": [s["seed"] for s in summaries],
            "final_rewards_mean": float(np.mean(finals)) if finals else None,
            "final_rewards_stderr": (
                float(np.std(finals, ddof=1) / np.sqrt(len(finals)))
                if len(finals) > 1 else 0.0),
            "steps_to_return": strs,
            "steps_to_return_mean": float(np.mean(numeric)) if numeric else None,
            "not_reached_count": sum(1 for v in strs if v == "not reached"),
        }
        out[algo] = entry
    return out
