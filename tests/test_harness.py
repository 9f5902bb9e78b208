import csv
import inspect
import json
import os
import pickle
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from orchestra import harness
from orchestra.cli import main as cli_main
from orchestra.errors import ConfigError
from orchestra.harness import (HopTrainer, MetricsReport, MetricsRow, PnnTrainer,
                               RunConfig, Trainer, aggregate, config_from_flat_dict,
                               config_to_flat_dict, export_metrics,
                               final_rewards, load_trainer, resume,
                               run_three_phase, steps_to_return, summarize)
from orchestra.hop import HopConfig, save_checkpoint
from orchestra.pnn import PnnStack
from orchestra.ppo import PpoConfig

from conftest import assert_parameters_stay_aligned


def tiny_run_config(algorithm="ppo", seed=1, **overrides):
    """Fast end-to-end setting: batch 16, three 32-step phases."""
    base = dict(
        algorithm=algorithm,
        ppo=PpoConfig(num_steps=8, num_envs=2, num_minibatches=2,
                      update_epochs=2),
        hop=HopConfig(checkpoint_interval=32, eval_episodes=2),
        total_timesteps=96,
        report_epoch=32,
        eval_batch_size=2,
        max_ep_length=30,
        max_eval_ep_len=30,
        proc_num_levels=2,
        seed=seed,
    )
    base.update(overrides)
    return RunConfig(**base)


# --- flat configuration ---------------------------------------------------------


def test_config_flat_round_trip():
    cfg = tiny_run_config("hop", experiment="dodger-runner-dodger")
    flat = config_to_flat_dict(cfg)
    assert flat["experiment"] == "dodger-runner-dodger"
    assert flat["batch_size"] == 16 and flat["minibatch_size"] == 8
    cfg2 = config_from_flat_dict(flat)
    assert config_to_flat_dict(cfg2) == flat


def test_flat_config_takes_missing_keys_from_run_config_defaults():
    assert config_from_flat_dict({"algorithm": "hop"}) == RunConfig(algorithm="hop")
    # the defaults, HopConfig's desk checkpoint interval among them
    defaults = {
        "clip_coef": 0.2, "clip_vloss": False, "ent_coef": 0.01,
        "gae_lambda": 0.95, "gamma": 0.999, "learning_rate": 0.0005, "max_grad_norm": 0.5,
        "num_envs": 16, "num_minibatches": 8, "num_steps": 256,
        "target_kl": 0.05, "update_epochs": 3, "vf_coef": 0.5,
        "checkpoint_gradients": True, "checkpoint_interval": 24576, "eval_episodes": 10,
        "min_similarity_score": 0.98, "reward_limit": 7.5, "trusted_cap": 4096,
        "batch_size": 4096, "minibatch_size": 512, "algorithm": "ppo",
        "experiment": "runner-climber-runner", "also_eval_phase1": False, "eval_batch_size": 10,
        "max_ep_length": 200, "max_eval_ep_len": 200, "proc_num_levels": 5, "proc_start": 1,
        "report_epoch": 8192, "seed": 1, "total_timesteps": 294912,
    }
    assert config_to_flat_dict(RunConfig()) == defaults
    assert config_to_flat_dict(config_from_flat_dict({})) == defaults


def test_config_rejects_unknown_keys():
    flat = config_to_flat_dict(tiny_run_config())
    flat["learning_rte"] = 1e-3
    with pytest.raises(ConfigError, match="learning_rte"):
        config_from_flat_dict(flat)


def test_config_rejects_inconsistent_derived_sizes():
    flat = config_to_flat_dict(tiny_run_config())
    flat["batch_size"] = 999
    with pytest.raises(ConfigError, match="batch_size"):
        config_from_flat_dict(flat)
    flat = config_to_flat_dict(tiny_run_config())
    flat["minibatch_size"] = 3
    with pytest.raises(ConfigError, match="minibatch_size"):
        config_from_flat_dict(flat)


RETIRED = {"anneal_lr": False, "norm_adv": True, "attributes": "joined"}


@pytest.mark.parametrize("key,value", [
    *RETIRED.items(), ("anneal_lr", np.bool_(False)), ("norm_adv", np.bool_(True)),
    ("attributes", np.str_("joined"))])
def test_config_accepts_a_retired_key_at_its_value(key, value):
    flat = config_to_flat_dict(tiny_run_config("hop"))
    assert key not in flat
    assert config_from_flat_dict({**flat, key: value}) == tiny_run_config("hop")


@pytest.mark.parametrize("key,value", [
    ("anneal_lr", True), ("norm_adv", False), ("attributes", "learner"),
    ("norm_adv", np.bool_(False))])
def test_config_refuses_a_retired_key_at_another_value(key, value):
    flat = {**config_to_flat_dict(tiny_run_config("hop")), key: value}
    with pytest.raises(ConfigError, match=key):
        config_from_flat_dict(flat)


def test_a_flat_config_of_the_earlier_format_gives_the_same_config():
    flat = config_to_flat_dict(tiny_run_config("hop"))
    earlier = {**flat, **RETIRED}       # what config.json held before they were retired
    assert config_from_flat_dict(earlier) == config_from_flat_dict(flat)
    preset = json.loads((Path(__file__).parents[1] / "scripts" / "configs"
                         / "hop_desk.json").read_text())
    assert RETIRED.items() <= preset.items()
    assert config_from_flat_dict(preset) == \
        config_from_flat_dict({k: v for k, v in preset.items() if k not in RETIRED})


def test_config_refuses_no_minibatches_before_checking_the_implied_sizes():
    # the implied minibatch_size divides by num_minibatches
    flat = {**config_to_flat_dict(tiny_run_config("hop")), **RETIRED, "num_minibatches": 0}
    with pytest.raises(ConfigError, match="num_minibatches"):
        config_from_flat_dict(flat)


def test_config_validation_rules():
    with pytest.raises(ConfigError, match="algorithm"):
        tiny_run_config("sarsa").validate()
    with pytest.raises(ConfigError, match="family"):
        tiny_run_config(experiment="runner-flyer-runner").validate()
    with pytest.raises(ConfigError, match="three phases"):
        tiny_run_config(total_timesteps=100).validate()
    with pytest.raises(ConfigError, match="report_epoch"):
        tiny_run_config(report_epoch=24).validate()
    with pytest.raises(ConfigError, match="share family"):
        tiny_run_config(experiment="runner-climber-dodger").validate()
    with pytest.raises(ConfigError, match="anneal_lr"):
        config_from_flat_dict({**config_to_flat_dict(tiny_run_config()), "anneal_lr": True})
    with pytest.raises(ConfigError, match="familyA"):
        config_from_flat_dict({"experiment": "runner-climber"})


@pytest.mark.parametrize("key", ["report_epoch", "checkpoint_interval", "update_epochs",
                                 "num_envs", "num_steps", "num_minibatches",
                                 "eval_batch_size", "eval_episodes", "trusted_cap",
                                 "total_timesteps", "max_ep_length", "max_eval_ep_len"])
def test_config_rejects_counts_below_one(key):
    flat = config_to_flat_dict(tiny_run_config("hop"))
    del flat["batch_size"], flat["minibatch_size"]
    flat[key] = 0
    with pytest.raises(ConfigError, match=key):
        config_from_flat_dict(flat)


@pytest.mark.parametrize("key,value", [
    ("checkpoint_gradients", "false"), ("norm_adv", "no"), ("also_eval_phase1", 1),
    ("num_envs", 16.0), ("seed", True), ("num_steps", np.float64(8)),
    ("learning_rate", "5e-4"), ("gamma", False), ("reward_limit", None),
    ("algorithm", 1), ("experiment", None), ("batch_size", 16.0)])
def test_config_rejects_a_value_of_the_wrong_kind(key, value):
    flat = config_to_flat_dict(tiny_run_config("hop"))
    flat[key] = value
    with pytest.raises(ConfigError, match=key):
        config_from_flat_dict(flat)


def test_config_takes_ints_for_floats_and_numpy_scalars():
    flat = config_to_flat_dict(tiny_run_config("hop"))
    flat.update(learning_rate=1, gamma=np.float32(0.5), num_envs=np.int64(2),
                clip_vloss=np.bool_(True), experiment=np.str_("dodger-runner-dodger"))
    cfg = config_from_flat_dict(flat)
    assert (cfg.ppo.learning_rate, cfg.ppo.gamma, cfg.ppo.num_envs) == (1, 0.5, 2)
    assert cfg.ppo.clip_vloss is True and type(cfg.experiment) is str
    json.dumps(config_to_flat_dict(cfg))      # config.json can hold every value


@pytest.mark.parametrize("key,value", [
    ("learning_rate", -1.0), ("learning_rate", 0.0), ("learning_rate", np.inf),
    ("learning_rate", np.nan), ("gamma", 1.5), ("gamma", -0.1), ("gae_lambda", 1.01),
    ("gae_lambda", np.nan)])
def test_ppo_config_rejects_bad_rates_and_discounts(key, value):
    with pytest.raises(ConfigError, match=key):
        PpoConfig(**{key: value}).validate()


def test_ppo_config_takes_edge_discounts_and_unbounded_clips():
    PpoConfig(gamma=0.0, gae_lambda=1.0, clip_coef=np.inf, target_kl=np.inf,
              max_grad_norm=np.inf).validate()
    PpoConfig(gamma=1.0, gae_lambda=0.0, clip_coef=0.0, target_kl=-1.0,
              vf_coef=0.0, ent_coef=0.0).validate()


@pytest.mark.parametrize("key,value", [
    ("reward_limit", np.nan), ("max_grad_norm", np.nan), ("max_grad_norm", 0.0),
    ("max_grad_norm", -1.0), ("vf_coef", -0.5), ("vf_coef", np.nan), ("ent_coef", np.nan),
    ("clip_coef", -0.1), ("clip_coef", np.nan), ("seed", -1), ("proc_num_levels", 0),
    ("target_kl", np.nan)])
def test_config_rejects_a_value_that_silently_breaks_a_run(key, value):
    # reward_limit=nan fails every checkpoint gate, max_grad_norm=nan turns
    # clipping off, a negative vf_coef trains the critic uphill, a negative
    # clip_coef clips every ratio to 1 + clip_coef, a NaN target_kl never
    # stops an update early; a NaN clip_coef, a negative seed and no levels
    # would fail only later, without the key
    flat = config_to_flat_dict(tiny_run_config("hop"))
    flat[key] = value
    with pytest.raises(ConfigError, match=key):
        config_from_flat_dict(flat)


# --- derived metrics --------------------------------------------------------------


def _report(rows, phase_steps=(100, 200, 300)):
    return MetricsReport(algorithm="ppo", seed=1, rows=rows,
                         phase_steps=list(phase_steps), config_echo={})


def _row(step, phase, mean):
    return MetricsRow(step=step, phase=phase, mean_return=mean, stderr=0.0,
                      active_checkpoint_count_mean=0.0)


def test_steps_to_return_immediate_recovery():
    rows = [_row(50, 1, 4.0), _row(100, 1, 6.0),
            _row(150, 2, 1.0), _row(200, 2, 1.5),
            _row(250, 3, 6.5), _row(300, 3, 7.0)]
    # first phase-3 row already matches the phase-1 peak of 6.0
    assert steps_to_return(_report(rows)) == 250 - 200


def test_steps_to_return_known_crossing():
    rows = [_row(100, 1, 6.0), _row(250, 3, 5.9), _row(280, 3, 6.0),
            _row(300, 3, 7.0)]
    assert steps_to_return(_report(rows)) == 80


def test_steps_to_return_never_recovers():
    rows = [_row(100, 1, 6.0), _row(250, 3, 5.0), _row(300, 3, 5.9)]
    assert steps_to_return(_report(rows)) == "not reached"
    assert steps_to_return(_report([])) == "not reached"


def test_final_rewards_and_summary():
    rows = [_row(100, 1, 6.0), _row(300, 3, 4.25)]
    rep = _report(rows)
    assert final_rewards(rep) == 4.25
    assert final_rewards(_report([])) is None
    s = summarize(rep)
    assert s["phase1_peak"] == 6.0 and s["final_rewards"] == 4.25


# --- metrics export -----------------------------------------------------------------


def read_metrics_csv(path) -> list[MetricsRow]:
    """The rows of a metrics.csv that export_metrics wrote."""
    with open(path, newline="") as f:
        return [MetricsRow(
            step=int(rec["step"]),
            phase=int(rec["phase"]),
            mean_return=float(rec["mean_return"]),
            stderr=float(rec["stderr"]),
            active_checkpoint_count_mean=float(rec["active_checkpoint_count_mean"]),
            phase1_mean_return=(float(rec["phase1_mean_return"])
                                if rec["phase1_mean_return"] else None),
        ) for rec in csv.DictReader(f)]


def test_metrics_csv_round_trip_is_exact(tmp_path):
    rows = [MetricsRow(32, 1, 1.23456789012345678, 0.1 + 0.2, 1.5, None),
            MetricsRow(64, 2, -7.25, 0.0, 0.0, 3.5)]
    rep = _report(rows)
    export_metrics(rep, tmp_path)
    back = read_metrics_csv(tmp_path / "metrics.csv")
    assert back == rows  # repr round-trips floats exactly
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["final_rewards"] == -7.25


def test_empty_report_exports_header_only(tmp_path):
    export_metrics(_report([]), tmp_path)
    lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("step,phase")
    assert read_metrics_csv(tmp_path / "metrics.csv") == []


# --- end-to-end tiny runs --------------------------------------------------------------


def test_zero_iteration_run_produces_empty_series():
    trainer = Trainer(tiny_run_config())
    report = trainer.run(max_iterations=0)
    assert report.rows == []
    assert steps_to_return(report) == "not reached"


@pytest.mark.parametrize("algorithm", ["ppo", "hop", "pnn"])
def test_tiny_run_is_deterministic_and_phase_labeled(algorithm):
    reports = [run_three_phase(tiny_run_config(algorithm)) for _ in range(2)]
    a, b = reports
    assert a.rows == b.rows
    assert [r.step for r in a.rows] == [32, 64, 96]
    assert [r.phase for r in a.rows] == [1, 2, 3]
    assert a.phase_steps == [32, 64, 96]


def test_hop_run_attempts_checkpoints_and_counts_activations():
    cfg = tiny_run_config("hop")
    cfg.hop.reward_limit = -100.0  # force every checkpoint attempt to succeed
    trainer = Trainer(cfg)
    trainer.run()
    assert len(trainer.orchestra) == 3  # one attempt per 32-step interval
    assert all(len(c.trusted) > 0 for c in trainer.orchestra.checkpoints)


@pytest.mark.parametrize("algorithm", ["ppo", "hop", "pnn"])
def test_resume_reproduces_uninterrupted_run(tmp_path, algorithm):
    def config():
        cfg = tiny_run_config(algorithm, seed=3, also_eval_phase1=True)
        cfg.hop.reward_limit = -100.0
        return cfg

    full = run_three_phase(config(), tmp_path / "full")

    part_dir = tmp_path / "part"
    trainer = Trainer(config(), part_dir)
    trainer.run(max_iterations=3)  # stop mid-run at a rollout boundary, in phase 2
    if algorithm == "pnn":
        assert trainer.stack.adapters
    if algorithm == "hop":
        assert len(trainer.orchestra) == 1
    resumed = resume(part_dir)

    assert resumed.rows == full.rows
    for name in ("updates.jsonl", "metrics.csv", "summary.json"):
        assert (part_dir / name).read_bytes() == \
               (tmp_path / "full" / name).read_bytes(), name


def _opt_state(opt):
    return (opt.step_count, [None if r is None else r.tobytes() for r in opt.rows],
            [m.tobytes() for m in opt.m], [v.tobytes() for v in opt.v])


def test_a_pnn_column_retires_once_no_remaining_phase_trains_it(monkeypatch):
    trainer = Trainer(tiny_run_config("pnn"))
    trainer.run(max_iterations=4)       # through phase 2: nothing retired yet
    a, b = trainer.stack.columns
    assert b.actor_opt is not None and set(trainer.stack.adapter_opts) == {1}
    trainer.run(max_iterations=1)       # phase 3's first update: column B retires
    assert b.actor_opt is None and b.critic_opt is None and trainer.stack.adapter_opts == {}
    trainer.run()

    # a run whose columns never retire trains the same bits: column A's
    # optimizers go on as they would, and column B and its adapters stay
    monkeypatch.setattr(PnnStack, "retire", lambda self, task_id: None)
    kept = Trainer(tiny_run_config("pnn"))
    report = kept.run()
    assert kept.stack.columns[1].actor_opt is not None
    assert report.rows == trainer.report().rows
    for ours, theirs in zip(trainer.stack.columns, kept.stack.columns):
        for net in ("actor", "critic"):
            for x, y in zip(getattr(ours, net).get_arrays(), getattr(theirs, net).get_arrays()):
                assert x.tobytes() == y.tobytes()
    for key, adp in trainer.stack.adapters.items():
        for x, y in zip(adp.parameters, kept.stack.adapters[key].parameters):
            assert x.data.tobytes() == y.data.tobytes()
    a_kept = kept.stack.columns[0]
    assert _opt_state(a.actor_opt) == _opt_state(a_kept.actor_opt)
    assert _opt_state(a.critic_opt) == _opt_state(a_kept.critic_opt)


def test_a_pnn_run_of_one_task_retires_nothing():
    trainer = Trainer(tiny_run_config("pnn", experiment="runner-runner-runner"))
    trainer.run()
    (column,) = trainer.stack.columns
    assert column.actor_opt.step_count == column.critic_opt.step_count > 0
    assert trainer.stack.adapter_opts == {}


@pytest.mark.parametrize("stop,retired", [(3, True), (4, True), (5, True), (5, False)],
                         ids=["3", "4", "5", "5-unretired"])
def test_a_pnn_run_resumes_through_the_retirement(tmp_path, monkeypatch, stop, retired):
    run_three_phase(tiny_run_config("pnn", seed=2), tmp_path / "full")
    with monkeypatch.context() as patch:
        if not retired:     # as a state.pkl written inside phase 3 before columns retired
            patch.setattr(PnnStack, "retire", lambda self, task_id: None)
        Trainer(tiny_run_config("pnn", seed=2), tmp_path / "part").run(max_iterations=stop)
    if not retired:
        with open(tmp_path / "part" / "state.pkl", "rb") as f:
            assert pickle.load(f)["stack"].columns[1].actor_opt is not None
    resume(tmp_path / "part")
    for name in ("updates.jsonl", "metrics.csv", "summary.json"):
        assert (tmp_path / "part" / name).read_bytes() == \
               (tmp_path / "full" / name).read_bytes(), name
    # a column retires at every update, so a state.pkl that entered phase 3
    # with column B's optimizers sheds them at the first update after the resume
    with open(tmp_path / "part" / "state.pkl", "rb") as f:
        stack = pickle.load(f)["stack"]
    assert stack.columns[1].actor_opt is None and stack.columns[1].critic_opt is None
    assert stack.adapter_opts == {}


def test_a_pnn_trainer_has_no_learner(tmp_path):
    learner = {"actor", "critic", "actor_opt", "critic_opt"}
    assert learner <= set(vars(Trainer(tiny_run_config("ppo"))))
    trainer = Trainer(tiny_run_config("pnn"), tmp_path)
    assert not learner & set(vars(trainer))
    trainer.run(max_iterations=1)
    with open(tmp_path / "state.pkl", "rb") as f:
        assert not learner & set(pickle.load(f))


_STATE = ["config", "out_dir", "plan", "global_step", "iteration", "current_phase", "rows",
          "act_count_accum", "train_rng", "orchestra", "stack"]
_LEARNER = ["actor", "critic", "actor_opt", "critic_opt"]


@pytest.mark.parametrize("algorithm,cls,names", [
    ("ppo", Trainer, _STATE + _LEARNER + ["vecenv"]),
    ("hop", HopTrainer, _STATE + _LEARNER + ["vecenv"]),
    ("pnn", PnnTrainer, _STATE + ["vecenv"])], ids=["ppo", "hop", "pnn"])
def test_each_algorithm_trains_in_its_own_class(tmp_path, algorithm, cls, names):
    trainer = Trainer(tiny_run_config(algorithm), tmp_path)
    assert type(trainer) is cls and list(vars(trainer)) == names
    trainer.run(max_iterations=3)
    loaded = load_trainer(tmp_path)
    assert type(loaded) is cls and list(vars(loaded)) == names
    # unpickling, as of a trainer that a worker process returns, calls
    # __new__ with no arguments; the copy trains on as the trainer would
    copy = pickle.loads(pickle.dumps(trainer))
    assert type(copy) is cls and list(vars(copy)) == names
    assert copy.run().rows == run_three_phase(tiny_run_config(algorithm)).rows
    with pytest.raises(ConfigError, match="algorithm"):
        Trainer(tiny_run_config("sarsa"))


@pytest.mark.parametrize("algorithm,steps", [("ppo", []), ("hop", [32, 64, 96]), ("pnn", [])],
                         ids=["ppo", "hop", "pnn"])
def test_only_hop_attempts_checkpoints_at_each_interval(monkeypatch, algorithm, steps):
    attempted = []
    original = harness.checkpoint_now

    def spy(*args, **kwargs):
        bound = inspect.signature(original).bind(*args, **kwargs)
        attempted.append(bound.arguments["created_step"])
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "checkpoint_now", spy)
    trainer = Trainer(tiny_run_config(algorithm))    # batch 16, checkpoint_interval 32
    trainer.run()
    assert trainer.global_step == 96 and attempted == steps


def test_resumed_parameters_are_aligned(tmp_path):
    cfg = tiny_run_config("pnn")
    Trainer(cfg, tmp_path / "pnn").run(max_iterations=4)    # through phase 2
    trainer = load_trainer(tmp_path / "pnn")
    assert len(trainer.stack.columns) == 2
    adapters = [p for adp in trainer.stack.adapters.values() for p in adp.parameters]
    networks = [n for c in trainer.stack.columns for n in (c.actor, c.critic)]
    assert_parameters_stay_aligned(adapters + [p for n in networks for p in n.parameters])
    # the optimizers hold the restored parameters themselves
    assert trainer.stack.columns[1].actor_opt.params == trainer.stack.columns[1].actor.parameters

    cfg = tiny_run_config("hop")
    cfg.hop.reward_limit = -100.0
    Trainer(cfg, tmp_path / "hop").run(max_iterations=2)
    trainer = load_trainer(tmp_path / "hop")
    assert len(trainer.orchestra) == 1
    assert trainer.actor_opt.params == trainer.actor.parameters
    snapshot = trainer.orchestra.checkpoints[0]
    assert snapshot.opt.params == snapshot.actor.parameters
    assert_parameters_stay_aligned(trainer.actor.parameters + trainer.critic.parameters
                                   + snapshot.actor.parameters)


@pytest.mark.parametrize("stage", ["_evaluate", "_persist"])
def test_resume_after_kill_inside_an_iteration(tmp_path, monkeypatch, stage):
    def config():
        cfg = tiny_run_config("hop", seed=4)
        cfg.hop.reward_limit = -100.0
        return cfg

    run_three_phase(config(), tmp_path / "full")

    # die on the second call, after that iteration's update was logged but
    # before its state was persisted
    original = getattr(Trainer, stage)
    calls = []

    def dies_on_second_call(self):
        calls.append(stage)
        if len(calls) == 2:
            raise RuntimeError("killed")
        return original(self)

    monkeypatch.setattr(Trainer, stage, dies_on_second_call)
    with pytest.raises(RuntimeError, match="killed"):
        run_three_phase(config(), tmp_path / "part")
    monkeypatch.undo()
    resume(tmp_path / "part")

    for name in ("updates.jsonl", "metrics.csv"):
        assert (tmp_path / "part" / name).read_bytes() == \
               (tmp_path / "full" / name).read_bytes(), name


def test_resume_with_checkpoint_gradients_is_bit_identical(tmp_path):
    # four minibatches per update, so a checkpoint is often inactive in one
    # after a minibatch that routed into it; pickling drops gradients
    def config():
        cfg = tiny_run_config("hop", seed=3, total_timesteps=192, report_epoch=64,
                              ppo=PpoConfig(num_steps=8, num_envs=4,
                                            num_minibatches=4, update_epochs=2))
        cfg.hop.reward_limit = -100.0
        cfg.hop.checkpoint_gradients = True
        return cfg

    run_three_phase(config(), tmp_path / "full")
    Trainer(config(), tmp_path / "part").run(max_iterations=3)
    resume(tmp_path / "part")
    for name in ("updates.jsonl", "metrics.csv"):
        assert (tmp_path / "part" / name).read_bytes() == \
               (tmp_path / "full" / name).read_bytes(), name


def test_persist_makes_no_copy_of_the_state_arrays(tmp_path):
    # the whole run, so three routed snapshots: Adam keeps moments only for
    # the first-layer rows with a gradient, and after two iterations with
    # one snapshot state.pkl is about 6.6 MB
    cfg = tiny_run_config("hop")
    cfg.hop.reward_limit = -100.0
    trainer = Trainer(cfg, tmp_path)
    trainer.run()
    assert len(trainer.orchestra) == 3
    tracemalloc.start()
    try:
        trainer._persist()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "state.pkl").stat().st_size > 8e6
    assert peak < 1e6


def test_a_protocol_4_state_resumes(tmp_path):
    # every state.pkl before protocol 5 was written at protocol 4
    def config():
        cfg = tiny_run_config("hop", seed=3)
        cfg.hop.reward_limit = -100.0
        cfg.hop.checkpoint_gradients = True
        return cfg

    run_three_phase(config(), tmp_path / "full")
    Trainer(config(), tmp_path / "part").run(max_iterations=3)
    state = tmp_path / "part" / "state.pkl"
    assert state.read_bytes()[:2] == b"\x80\x05"
    state.write_bytes(pickle.dumps(pickle.loads(state.read_bytes()), protocol=4))
    resume(tmp_path / "part")
    for name in ("updates.jsonl", "metrics.csv", "summary.json"):
        assert (tmp_path / "part" / name).read_bytes() == \
               (tmp_path / "full" / name).read_bytes(), name


def _snapshotting_hop_config(checkpoint_gradients=False):
    """A tiny hop run whose every attempt takes a snapshot, at steps 32, 64
    and 96; with no routed gradients no snapshot has an optimizer."""
    cfg = tiny_run_config("hop", seed=3)
    cfg.hop.reward_limit = -100.0
    cfg.hop.checkpoint_gradients = checkpoint_gradients
    return cfg


def _same_files(a: Path, b: Path, but=("state.pkl",)):
    """Every file of two run directories but the paths ``but`` has the same bytes."""
    files = sorted({p.relative_to(root) for root in (a, b) for p in root.rglob("*")
                    if p.is_file() and str(p.relative_to(root)) not in but})
    assert [str(rel) for rel in files if not ((a / rel).is_file() and (b / rel).is_file()
                                              and (a / rel).read_bytes() == (b / rel).read_bytes())] == []


def test_state_names_the_bundle_of_each_frozen_snapshot(tmp_path):
    run_three_phase(_snapshotting_hop_config(), tmp_path / "full")
    Trainer(_snapshotting_hop_config(), tmp_path / "part").run(max_iterations=3)
    with open(tmp_path / "part" / "state.pkl", "rb") as f:
        checkpoints = pickle.load(f)["orchestra"].checkpoints
    assert checkpoints == [{"bundle": "checkpoint_001", "index": 1, "created_step": 32}]
    trainer = load_trainer(tmp_path / "part")
    (ckpt,) = trainer.orchestra.checkpoints
    assert ckpt.opt is None and ckpt.trusted.raw[0].dtype == np.uint8
    resume(tmp_path / "part")
    _same_files(tmp_path / "part", tmp_path / "full")


@pytest.mark.parametrize("gradients", [False, True], ids=["frozen", "routed"])
def test_a_state_in_the_earlier_layout_resumes(tmp_path, gradients):
    # state.pkl held every snapshot whole, and trusted sets and bundles held
    # float64 states, before snapshots with no optimizer named their bundles
    run_three_phase(_snapshotting_hop_config(gradients), tmp_path / "full")
    part = tmp_path / "part"
    trainer = Trainer(_snapshotting_hop_config(gradients), part)
    trainer.run(max_iterations=3)
    (ckpt,) = trainer.orchestra.checkpoints
    ckpt.trusted.raw = [s.astype(np.float64) for s in ckpt.trusted.raw]
    save_checkpoint(ckpt, part / "checkpoint_001", trainer.config.hop)
    state = {k: v for k, v in vars(trainer).items() if k not in ("config", "out_dir", "plan")}
    (part / "state.pkl").write_bytes(pickle.dumps(state, protocol=5))
    resume(part)
    # updates.jsonl, metrics.csv and summary.json among them; only the
    # earlier bundle holds float64 states
    _same_files(part, tmp_path / "full", but=("state.pkl", "checkpoint_001/arrays.npz"))


def test_resume_before_the_first_persist_starts_at_step_zero(tmp_path):
    run_three_phase(tiny_run_config("hop", seed=6), tmp_path / "full")
    Trainer(tiny_run_config("hop", seed=6), tmp_path / "part")  # stopped at once
    assert not (tmp_path / "part" / "state.pkl").exists()
    resume(tmp_path / "part")
    for name in ("updates.jsonl", "metrics.csv"):
        assert (tmp_path / "part" / name).read_bytes() == \
               (tmp_path / "full" / name).read_bytes(), name


def test_state_pickle_does_not_depend_on_the_hash_seed(tmp_path):
    # a set of bytes iterates in an order set by the per-process hash salt:
    # runs that differ only in PYTHONHASHSEED must still write the same bytes
    cfg = tiny_run_config("hop", seed=2)
    cfg.hop.reward_limit = -100.0
    config = tmp_path / "config.json"
    config.write_text(json.dumps(config_to_flat_dict(cfg)))
    src = str(Path(harness.__file__).resolve().parents[1])
    code = ("import json, sys\n"
            "from orchestra.harness import config_from_flat_dict, run_three_phase\n"
            "run_three_phase(config_from_flat_dict(json.loads(open(sys.argv[1]).read())), "
            "sys.argv[2])")
    for seed in ("1", "2"):
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c", code, str(config), str(tmp_path / seed)],
                       env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path), check=True)
    assert len(load_trainer(tmp_path / "1").orchestra) == 3
    assert (tmp_path / "1" / "state.pkl").read_bytes() == \
           (tmp_path / "2" / "state.pkl").read_bytes()


def test_resume_refuses_a_changed_run_environment(tmp_path):
    Trainer(tiny_run_config(), tmp_path).run(max_iterations=1)
    recorded = json.loads((tmp_path / "run_env.json").read_text())
    assert recorded == harness.run_environment()
    assert recorded["numpy"] == np.__version__
    for key, value in (("numpy", "1.0.0"), ("blas", "otherblas 9.9"),
                       ("blas_threads", 64)):
        (tmp_path / "run_env.json").write_text(json.dumps({**recorded, key: value}))
        with pytest.raises(ConfigError, match=f"{key}: {value!r}"):
            resume(tmp_path)
    (tmp_path / "run_env.json").unlink()
    with pytest.raises(ConfigError, match="run_env.json is missing"):
        resume(tmp_path)
    (tmp_path / "run_env.json").write_text(json.dumps(recorded))
    assert [r.step for r in resume(tmp_path).rows] == [32, 64, 96]


def test_pnn_phase1_evaluation_uses_the_phase1_column(monkeypatch):
    evaluated = []
    original = harness.evaluate_policy

    def spy(source, level_specs, *args):
        evaluated.append((source.task_id, tuple(level_specs)))
        return original(source, level_specs, *args)

    monkeypatch.setattr(harness, "evaluate_policy", spy)
    trainer = Trainer(tiny_run_config("pnn", also_eval_phase1=True))
    report = trainer.run()

    task_of_levels = {tuple(p.level_specs()): p.task_id() for p in trainer.plan.phases}
    # one evaluation per phase, plus a phase-1 evaluation in phases 2 and 3
    assert len(evaluated) == 5
    for task_id, levels in evaluated:
        assert task_id == task_of_levels[levels]
    assert [r.phase1_mean_return is None for r in report.rows] == [True, False, False]


def test_resume_reads_persisted_flat_config(tmp_path):
    cfg = tiny_run_config("ppo", seed=9)
    trainer = Trainer(cfg, tmp_path)
    trainer.run(max_iterations=2)
    stored = json.loads((tmp_path / "config.json").read_text())
    assert stored == config_to_flat_dict(cfg)
    report = resume(tmp_path)
    assert [r.step for r in report.rows] == [32, 64, 96]


def test_a_trainer_refuses_a_directory_that_holds_a_run(tmp_path):
    Trainer(tiny_run_config("hop"), tmp_path).run(max_iterations=4)
    files = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert {"config.json", "run_env.json", "updates.jsonl", "state.pkl"} <= \
        {p.name for p in files}
    with pytest.raises(ConfigError, match="orchestra resume"):
        Trainer(tiny_run_config("hop"), tmp_path)
    with pytest.raises(ConfigError, match="orchestra resume"):
        run_three_phase(tiny_run_config("ppo", seed=2), tmp_path)
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == files
    assert load_trainer(tmp_path).global_step == 64


def test_updates_log_is_one_json_record_per_rollout(tmp_path):
    trainer = Trainer(tiny_run_config(), tmp_path)
    trainer.run(max_iterations=4)
    lines = (tmp_path / "updates.jsonl").read_text().strip().splitlines()
    assert len(lines) == 4
    rec = json.loads(lines[0])
    assert rec["step"] == 16
    assert {"policy_loss", "value_loss", "entropy", "approx_kl",
            "clipfrac", "grad_norm", "epochs_run"} <= set(rec)


def test_aggregate_groups_by_algorithm(tmp_path):
    def fake_run(name, algo, seed, final, s2r):
        d = tmp_path / name
        d.mkdir()
        (d / "summary.json").write_text(json.dumps({
            "algorithm": algo, "seed": seed, "steps_to_return": s2r,
            "final_rewards": final, "phase1_peak": final, "config": {},
        }))
        return str(d)

    dirs = [fake_run("a1", "hop", 1, 8.0, 8192),
            fake_run("a2", "hop", 2, 6.0, "not reached"),
            fake_run("b1", "ppo", 1, 4.0, 16384)]
    agg = aggregate(dirs)
    assert agg["hop"]["runs"] == 2
    assert agg["hop"]["final_rewards_mean"] == 7.0
    assert agg["hop"]["steps_to_return_mean"] == 8192.0
    assert agg["hop"]["not_reached_count"] == 1
    assert agg["ppo"]["seeds"] == [1]


@pytest.mark.parametrize("key", ["algorithm", "seed", "final_rewards", "steps_to_return"])
def test_cli_refuses_to_aggregate_a_summary_without_a_key(tmp_path, capsys, key):
    summary = {"algorithm": "hop", "seed": 1, "steps_to_return": 8192,
               "final_rewards": 8.0, "phase1_peak": 8.0, "config": {}}
    del summary[key]
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    _cli_refuses(["aggregate", "--runs", str(tmp_path)], capsys,
                 f"{tmp_path / 'summary.json'} has no {key!r}")


# --- CLI -----------------------------------------------------------------------------


def test_cli_train_resume_aggregate_export(tmp_path, capsys):
    flat = config_to_flat_dict(tiny_run_config(seed=5))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(flat))
    run_dir = tmp_path / "run"

    cli_main(["train", "--config", str(cfg_path), "--out", str(run_dir)])
    printed = json.loads(capsys.readouterr().out)
    assert printed["algorithm"] == "ppo" and printed["seed"] == 5
    assert (run_dir / "metrics.csv").exists()
    assert (run_dir / "summary.json").exists()

    cli_main(["resume", "--out", str(run_dir)])  # finished run: no-op rerun
    assert json.loads(capsys.readouterr().out)["seed"] == 5

    cli_main(["export", "--out", str(run_dir)])
    out = capsys.readouterr().out
    assert "metrics.csv" in out and "summary.json" in out

    cli_main(["aggregate", "--runs", str(run_dir),
              "--out", str(tmp_path / "agg.json")])
    agg = json.loads((tmp_path / "agg.json").read_text())
    assert agg["ppo"]["runs"] == 1


def test_cli_train_seed_override(tmp_path, capsys):
    flat = config_to_flat_dict(tiny_run_config(seed=5))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(flat))
    cli_main(["train", "--config", str(cfg_path), "--seed", "11",
              "--out", str(tmp_path / "run")])
    assert json.loads(capsys.readouterr().out)["seed"] == 11


def _cli_refuses(argv, capsys, reason: str):
    """``orchestra argv`` exits with status 2 and one line on stderr that
    gives ``reason``, and no traceback."""
    with pytest.raises(SystemExit) as exited:
        cli_main(argv)
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("orchestra: error: ") and reason in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_refuses_a_second_train_into_a_used_directory(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config_to_flat_dict(tiny_run_config())))
    argv = ["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]
    cli_main(argv)
    capsys.readouterr()
    _cli_refuses(argv, capsys, "already holds a run")


def test_cli_refuses_a_bad_flat_config(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"algorithm": "ppo", "num_stepz": 8}))
    _cli_refuses(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")],
                 capsys, "unknown config keys: ['num_stepz']")
    assert not (tmp_path / "run").exists()


def test_cli_refuses_to_resume_under_a_changed_blas(tmp_path, capsys):
    Trainer(tiny_run_config(), tmp_path).run(max_iterations=1)
    recorded = json.loads((tmp_path / "run_env.json").read_text())
    (tmp_path / "run_env.json").write_text(json.dumps({**recorded, "blas": "otherblas 9.9"}))
    _cli_refuses(["resume", "--out", str(tmp_path)], capsys, "run environment changed")


def test_cli_refuses_a_truncated_state(tmp_path, capsys):
    Trainer(tiny_run_config(), tmp_path).run(max_iterations=1)
    state = tmp_path / "state.pkl"
    state.write_bytes(state.read_bytes()[:100])
    for command in ("resume", "export"):
        _cli_refuses([command, "--out", str(tmp_path)], capsys, str(state))


@pytest.mark.parametrize("damage", ["missing", "index", "created_step", "actor_sizes",
                                    "actor_5", "not_an_object"])
def test_cli_refuses_a_state_whose_bundle_is_missing_or_another(tmp_path, capsys, damage):
    Trainer(_snapshotting_hop_config(), tmp_path).run(max_iterations=2)
    bundle = tmp_path / "checkpoint_001"
    if damage == "missing":
        shutil.rmtree(bundle)
    elif damage == "actor_sizes":       # a manifest without a key
        manifest = json.loads((bundle / "manifest.json").read_text())
        del manifest[damage]
        (bundle / "manifest.json").write_text(json.dumps(manifest))
    elif damage == "not_an_object":     # a manifest that is JSON, but a list
        (bundle / "manifest.json").write_text("[]")
    elif damage == "actor_5":           # an archive without an array
        with np.load(bundle / "arrays.npz") as arrays:
            kept = {k: arrays[k] for k in arrays.files if k != damage}
        np.savez(bundle / "arrays.npz", **kept)
    else:
        manifest = json.loads((bundle / "manifest.json").read_text())
        (bundle / "manifest.json").write_text(
            json.dumps({**manifest, damage: manifest[damage] + 1}))
    for command in ("resume", "export"):
        _cli_refuses([command, "--out", str(tmp_path)], capsys, str(bundle))


def test_cli_refuses_a_missing_or_malformed_file(tmp_path, capsys):
    run = str(tmp_path / "run")
    _cli_refuses(["train", "--config", str(tmp_path / "absent.json"), "--out", run],
                 capsys, "absent.json")
    for name, text in (("broken.json", "{\"algorithm\": "), ("list.json", "[1, 2]")):
        (tmp_path / name).write_text(text)
        _cli_refuses(["train", "--config", str(tmp_path / name), "--out", run], capsys, name)
    assert not (tmp_path / "run").exists()
    # a directory without config.json or summary.json, and a malformed run_env.json
    _cli_refuses(["export", "--out", str(tmp_path)], capsys, "config.json")
    _cli_refuses(["aggregate", "--runs", str(tmp_path)], capsys, "summary.json")
    (tmp_path / "run_env.json").write_text("{")
    _cli_refuses(["resume", "--out", str(tmp_path)], capsys, "run_env.json")
