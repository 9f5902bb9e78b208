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
from dataclasses import dataclass, field, fields
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
from .hop import (CheckpointPolicy, HopConfig, JoinedSource, Orchestra, checkpoint_now,
                  load_checkpoint, masked_policy_update, save_checkpoint)
from .pnn import ColumnSource, PnnStack, pnn_update

HIDDEN = 256
BUNDLE = "checkpoint_{:03d}"    # a snapshot's bundle in the run directory, by index


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

    @property
    def boundaries(self) -> list[int]:
        """Cumulative step at which each phase ends."""
        return list(accumulate(p.steps for p in self.phases))


@dataclass
class RunConfig:
    algorithm: str = "ppo"
    ppo: PpoConfig = field(default_factory=PpoConfig)
    hop: HopConfig = field(default_factory=HopConfig)
    experiment: str = "runner-climber-runner"
    proc_start: int = 1
    # desk scale; every interval is a multiple of the rollout batch
    proc_num_levels: int = 5
    total_timesteps: int = 294_912          # 3 phases x 24 rollouts x 4096
    report_epoch: int = 8_192
    eval_batch_size: int = 10
    max_ep_length: int = 200
    max_eval_ep_len: int = 200
    seed: int = 1
    also_eval_phase1: bool = False

    def plan(self) -> PhasePlan:
        per_phase = self.total_timesteps // 3
        seeds = tuple(range(self.proc_start, self.proc_start + self.proc_num_levels))
        return PhasePlan([PhaseSpec(f, seeds, per_phase) for f in self.experiment.split("-")])

    def validate(self):
        if self.algorithm not in TRAINERS:
            raise ConfigError(f"algorithm must be one of {tuple(TRAINERS)}")
        families = self.experiment.split("-")
        if len(families) != 3:
            raise ConfigError("experiment must be 'familyA-familyB-familyA'")
        for fam in families:
            if fam not in FAMILIES:
                raise ConfigError(f"unknown family {fam!r}")
        if families[0] != families[2]:
            raise ConfigError("phases 1 and 3 must share family and level set")
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


def steps_to_return(report: MetricsReport) -> int | str:
    """Steps after phase-3 start until the phase-1 peak is first re-attained."""
    phase1 = [r.mean_return for r in report.rows if r.phase == 1]
    if not phase1:
        return "not reached"
    peak = max(phase1)
    for row in report.rows:
        if row.phase == 3 and row.mean_return >= peak:
            return row.step - report.phase_steps[1]
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


def export_metrics(report: MetricsReport, out_dir):
    """metrics.csv (time series) and summary.json (derived scalars), and their paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path, json_path = out_dir / "metrics.csv", out_dir / "summary.json"
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_FIELDS)
        for r in report.rows:
            writer.writerow([
                r.step, r.phase, repr(r.mean_return), repr(r.stderr),
                repr(r.active_checkpoint_count_mean),
                "" if r.phase1_mean_return is None else repr(r.phase1_mean_return),
            ])
    with open(json_path, "w") as f:
        json.dump(summarize(report), f, indent=1)
    return [csv_path, json_path]


class Trainer:
    """The PPO trainer, and the base of HOP's and PNN's, which override its
    hooks. It owns all mutable run state, picklable at rollout boundaries,
    and runs the phases, evaluations and persists. ``Trainer(config)`` builds
    a ``TRAINERS[config.algorithm]``. It refuses an ``out_dir`` that already
    holds a run's config.json."""

    def __new__(cls, config: Optional[RunConfig] = None, out_dir: Optional[str] = None):
        # unpickling calls __new__ with no arguments, and gets cls itself
        return super().__new__(cls if config is None else TRAINERS.get(config.algorithm, cls))

    def __init__(self, config: RunConfig, out_dir: Optional[str] = None):
        config.validate()
        self.config = config
        self.out_dir = Path(out_dir) if out_dir else None
        if self.out_dir and (self.out_dir / "config.json").exists():
            raise ConfigError(f"{self.out_dir} already holds a run; continue it with "
                              f"`orchestra resume --out {self.out_dir}`")
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
        self._networks(init_rng, config.ppo.learning_rate)
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
        self.vecenv = VecEnv(self.plan.phases[idx].level_specs(), self.config.ppo.num_envs,
                             self.config.max_ep_length)

    # --- main loop ------------------------------------------------------

    @property
    def total_iterations(self) -> int:
        return self.plan.boundaries[-1] // self.config.ppo.batch_size

    def run(self, max_iterations: Optional[int] = None) -> MetricsReport:
        cfg = self.config
        done_iters = 0
        while self.iteration < self.total_iterations:
            if max_iterations is not None and done_iters >= max_iterations:
                break
            phase_idx = self._phase_of(self.global_step)
            if phase_idx != self.current_phase:
                self._enter_phase(phase_idx)
            buffer = collect_rollout(self._source(self.current_phase), self.vecenv,
                                     self._critic().forward_np, cfg.ppo, self.train_rng)
            gae = compute_gae(buffer, cfg.ppo.gamma, cfg.ppo.gae_lambda, norm_adv=True)
            stats = self._update(buffer, gae)
            self.global_step += cfg.ppo.batch_size
            self.iteration += 1
            done_iters += 1
            # the rollout (1.7 MB of observations at desk scale) is spent: the
            # checkpoint attempt, the evaluation and the persist reuse its pages
            del buffer, gae
            self._log_update(stats)
            self._checkpoint()
            if self.global_step % cfg.report_epoch == 0:
                self._evaluate()
            self._persist()
        return self.report()

    # --- the algorithm's hooks: PPO's here, HOP's and PNN's in subclasses -

    def _networks(self, rng: np.random.Generator, lr: float):
        """The learner: an actor and a critic, each with its Adam."""
        self.actor = Mlp([OBS_DIM, HIDDEN, HIDDEN, N_ACTIONS], rng)
        self.critic = Mlp([OBS_DIM, HIDDEN, HIDDEN, 1], rng)
        self.actor_opt = Adam(self.actor.parameters, lr)
        self.critic_opt = Adam(self.critic.parameters, lr)

    def _source(self, phase_idx: int):
        """The action source that acts on phase ``phase_idx``'s levels."""
        return LearnerSource(self.actor)

    def _critic(self):
        """The critic of the current phase."""
        return self.critic

    def _update(self, buffer, gae):
        return ppo_update(buffer, gae, self.actor, self.critic, self.config.ppo,
                          self.actor_opt, self.critic_opt, self.train_rng)

    def _checkpoint(self):
        """A snapshot attempt after every update: none but HOP's takes one."""

    def _event_rng(self, tag: int) -> np.random.Generator:
        """The generator of one evaluation or checkpoint event at this step."""
        return np.random.default_rng(
            np.random.SeedSequence([self.config.seed, tag, self.global_step]))

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
        which writes each array's buffer without copying it. A snapshot with
        no optimizer never changes once ``_checkpoint`` has written its
        bundle, so it is written as the bundle's name, index and creation
        step, and load_trainer reads the bundle back."""
        if not self.out_dir:
            return
        state = {k: v for k, v in vars(self).items() if k not in ("config", "out_dir", "plan")}
        state["orchestra"] = Orchestra([
            c if c.opt is not None else
            {"bundle": BUNDLE.format(c.index), "index": c.index, "created_step": c.created_step}
            for c in self.orchestra.checkpoints])
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


class HopTrainer(Trainer):
    """The learner acting through the orchestra of its snapshots: joined
    acts, the masked update, and a snapshot attempt at every multiple of
    ``checkpoint_interval``."""

    def _source(self, phase_idx: int):
        return JoinedSource(self.actor, self.orchestra, self.config.hop)

    def _update(self, buffer, gae):
        cfg = self.config
        stats = masked_policy_update(buffer, gae, self.actor, self.critic,
                                     self.orchestra, cfg.ppo, cfg.hop,
                                     self.actor_opt, self.critic_opt,
                                     self.train_rng)
        for records in buffer.aux:      # each step's active checkpoints, per env
            self.act_count_accum.extend(records["bitmask"].sum(axis=1).astype(float).tolist())
        return stats

    def _checkpoint(self):
        cfg = self.config
        if self.global_step % cfg.hop.checkpoint_interval:
            return
        phase = self.plan.phases[self.current_phase]
        ckpt = checkpoint_now(self.actor, self.orchestra, phase.level_specs(),
                              cfg.hop, cfg.max_eval_ep_len, self._event_rng(0xC4EC),
                              self.global_step, cfg.ppo.learning_rate)
        if ckpt is not None and self.out_dir:
            save_checkpoint(ckpt, self.out_dir / BUNDLE.format(ckpt.index), cfg.hop)


class PnnTrainer(Trainer):
    """Progressive networks: no learner, and one column per task, added on
    entering the task's phase; each phase acts and trains its own column. A
    column whose task no remaining phase trains retires at the next update."""

    def _networks(self, rng: np.random.Generator, lr: float):
        self.stack = PnnStack(OBS_DIM, N_ACTIONS, HIDDEN, lr, rng)

    def _enter_phase(self, idx: int):
        super()._enter_phase(idx)
        task_id = self.plan.phases[idx].task_id()
        if task_id not in self.stack.task_index:
            self.stack.add_column(task_id)

    def _source(self, phase_idx: int):
        return ColumnSource(self.stack, self.plan.phases[phase_idx].task_id())

    def _critic(self):
        return self.stack.net(self.plan.phases[self.current_phase].task_id(), "critic")

    def _update(self, buffer, gae):
        remaining = {phase.task_id() for phase in self.plan.phases[self.current_phase:]}
        for task in self.stack.task_index.keys() - remaining:
            self.stack.retire(task)
        return pnn_update(self.stack, self.plan.phases[self.current_phase].task_id(),
                          buffer, gae, self.config.ppo, self.train_rng)


TRAINERS = {"ppo": Trainer, "hop": HopTrainer, "pnn": PnnTrainer}


def run_three_phase(config: RunConfig, out_dir: Optional[str] = None) -> MetricsReport:
    report = Trainer(config, out_dir).run()
    if out_dir:
        export_metrics(report, out_dir)
    return report


def load_trainer(out_dir) -> Trainer:
    """Rebuild a run's Trainer from its config.json and last state.pkl, and
    each snapshot that state.pkl names from its bundle; a run stopped before
    its first persist has no state.pkl and starts at step 0. A state.pkl
    that is cut short raises ConfigError, as does a named bundle that is
    missing, lacks a key or array, or holds another checkpoint."""
    out_dir = Path(out_dir)
    config = config_from_flat_dict(read_json(out_dir / "config.json"))
    trainer = Trainer(config, None)     # rebuild, then overwrite mutable state
    trainer.out_dir = out_dir
    state = out_dir / "state.pkl"
    if state.exists():
        with open(state, "rb") as f:
            try:
                vars(trainer).update(pickle.load(f))
            except (pickle.UnpicklingError, EOFError) as err:
                raise ConfigError(f"{state} cannot be read: {err}") from err
    trainer.orchestra.checkpoints = [_load_bundle(out_dir, c) if isinstance(c, dict) else c
                                     for c in trainer.orchestra.checkpoints]
    return trainer


def _load_bundle(out_dir: Path, ref: dict) -> CheckpointPolicy:
    """The snapshot that state.pkl names by ``ref``, read from its bundle."""
    path = out_dir / ref["bundle"]
    try:
        ckpt = load_checkpoint(path)
    except (OSError, ValueError, KeyError) as err:     # KeyError: a key or array is missing
        raise ConfigError(f"{path} cannot be read: {err}") from err
    if (ckpt.index, ckpt.created_step) != (ref["index"], ref["created_step"]):
        raise ConfigError(f"{path} holds checkpoint {ckpt.index} of step {ckpt.created_step}, "
                          f"but state.pkl names checkpoint {ref['index']} of step "
                          f"{ref['created_step']}")
    return ckpt


def resume(out_dir) -> MetricsReport:
    """Continue an interrupted run from its last persisted rollout boundary.

    Refuses with ConfigError when the numpy/BLAS environment differs from
    the one recorded when the run started, since the rerun would then not be
    bit-identical, or when run_env.json is missing. Update records written
    after that boundary (the run stopped between logging an update and
    persisting it) are dropped, so the rerun iterations do not log them
    twice; so is a last line the stop cut short.
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
    process's, or was not recorded: every run with a directory records it."""
    path = Path(out_dir) / RUN_ENV
    if not path.exists():
        raise ConfigError(f"{path} is missing, so a resumed run could not be "
                          "checked to be bit-identical")
    recorded = read_json(path)
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
# rejected so silent typos cannot skew a run. The batch sizes, anneal_lr,
# norm_adv and attributes are fixed (_IMPLIED): the tables and earlier
# config.json files hold them, so each is accepted only at its implied value.

_PPO_KEYS = {f.name for f in fields(PpoConfig)}
_HOP_KEYS = {f.name for f in fields(HopConfig)}
_RUN_KEYS = {f.name for f in fields(RunConfig)} - {"ppo", "hop"}
_IMPLIED = {"batch_size": lambda cfg: cfg.ppo.batch_size,
            "minibatch_size": lambda cfg: cfg.ppo.minibatch_size,
            "anneal_lr": lambda cfg: False, "norm_adv": lambda cfg: True,
            "attributes": lambda cfg: "joined"}
# each key's kind, and the values it takes: a bool is no number here
_KINDS = {f.name: getattr(f.type, "__name__", f.type)
          for c in (PpoConfig, HopConfig, RunConfig) for f in fields(c)}
_KINDS.update({k: type(implied(RunConfig())).__name__ for k, implied in _IMPLIED.items()})
_ACCEPTS = {"bool": (bool, np.bool_), "int": (int, np.integer),
            "float": (int, float, np.integer, np.floating), "str": (str,)}


def read_json(path) -> dict:
    """The JSON object in ``path``; ConfigError if it is missing or malformed."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, ValueError) as err:    # ValueError: not JSON, or not UTF-8
        raise ConfigError(f"cannot read {path}: {err}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} holds a JSON {type(raw).__name__}, not an object")
    return raw


def config_from_flat_dict(raw: dict) -> RunConfig:
    unknown = set(raw) - _PPO_KEYS - _HOP_KEYS - _RUN_KEYS - set(_IMPLIED)
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
    hop = HopConfig(**{k: raw[k] for k in _HOP_KEYS if k in raw})
    cfg = RunConfig(ppo=ppo, hop=hop, **{k: raw[k] for k in _RUN_KEYS & set(raw)})
    cfg.validate()      # first, so the implied batch sizes divide by no zero
    for key in sorted(_IMPLIED.keys() & raw.keys()):
        if raw[key] != _IMPLIED[key](cfg):
            raise ConfigError(f"{key} must be {_IMPLIED[key](cfg)!r}, the value the rest "
                              f"of the config implies; got {raw[key]!r}")
    return cfg


def config_to_flat_dict(cfg: RunConfig) -> dict:
    out = {k: getattr(cfg.ppo, k) for k in sorted(_PPO_KEYS)}
    out.update({k: getattr(cfg.hop, k) for k in sorted(_HOP_KEYS)})
    out["batch_size"] = cfg.ppo.batch_size
    out["minibatch_size"] = cfg.ppo.minibatch_size
    for k in ("algorithm", "experiment", *sorted(_RUN_KEYS - {"algorithm", "experiment"})):
        out[k] = getattr(cfg, k)
    return out


def aggregate(run_dirs: Sequence[str]) -> dict:
    """Cross-seed aggregate of exported run summaries, grouped by algorithm."""
    groups: dict[str, list[dict]] = {}
    for d in run_dirs:
        s = read_json(path := Path(d) / "summary.json")
        for key in ("algorithm", "seed", "final_rewards", "steps_to_return"):
            if key not in s:
                raise ConfigError(f"{path} has no {key!r}")
        groups.setdefault(s["algorithm"], []).append(s)
    out = {}
    for algo, summaries in sorted(groups.items()):
        finals = [s["final_rewards"] for s in summaries
                  if s["final_rewards"] is not None]
        strs = [s["steps_to_return"] for s in summaries]
        numeric = [v for v in strs if isinstance(v, (int, float))]
        out[algo] = {
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
    return out
