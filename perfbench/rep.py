"""One repetition of a benchmark workload, in a fresh process.

Trains the workload through A -> B -> A in its own run directory, times a
one-observation ``act`` of the final action source on the held-out states,
runs the correctness checks and writes ``rep_<n>.json`` to the work
directory. run.py starts it with the BLAS thread count pinned to 1 and
``src`` on ``PYTHONPATH``; ``--spawned`` is the monotonic clock reading taken
just before the start, so set-up time covers interpreter start and imports.

Every time is recorded twice: as measured, and scaled to the reference host
speed by the kernel of ``hostspeed.py``, timed before and after every
training iteration and between the chunks of the act timing. The kernel
cannot run during set-up, so set-up time is scaled by the mean factor of the
training that follows it.
"""
from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path

import numpy as np

import checks
import hostspeed
import inputs
import spans
from orchestra.harness import Trainer, export_metrics, steps_to_return
from orchestra.hop import JoinedSource, load_checkpoint
from orchestra.nn import Adam
from orchestra.pnn import ColumnSource
from orchestra.ppo import LearnerSource

ACT_WARMUP = 50
ACT_SECONDS = 1.0
TINY_ACT_SECONDS = 0.05
ACT_CHUNK_S = 0.1           # act calls between two samples of the host speed
KERNEL_SAMPLES = 20         # kernel passes per host-speed sample
KERNEL_SAMPLES_IN_ACT = 6


def final_source(trainer: Trainer):
    """The action source the run ends with, built from public types."""
    cfg = trainer.config
    if cfg.algorithm == "hop":
        return JoinedSource(trainer.actor, trainer.orchestra, cfg.hop)
    if cfg.algorithm == "pnn":
        return ColumnSource(trainer.stack, trainer.plan.phases[-1].task_id())
    return LearnerSource(trainer.actor)


def act_latencies_us(source, states: np.ndarray, rng: np.random.Generator,
                     seconds: float):
    """Latencies of one-observation acts, as measured and scaled to the
    reference host speed, cycling over the held-out states for at least one
    pass and at least ``seconds``.

    The acts run in chunks of ACT_CHUNK_S with a host-speed sample between
    two chunks; a chunk is scaled by the samples on either side of it. The
    act right after a sample warms the caches again and is not timed.
    """
    for state in states[:ACT_WARMUP]:
        source.act(state[None, :], rng)
    chunks, kernel = [], [hostspeed.sample(KERNEL_SAMPLES_IN_ACT)]
    clock = time.perf_counter_ns
    stop = clock() + seconds * 1e9
    i = 0
    while i < len(states) or clock() < stop:
        source.act(states[i % len(states)][None, :], rng)
        chunk, chunk_end = [], clock() + ACT_CHUNK_S * 1e9
        while clock() < chunk_end:
            x = states[i % len(states)][None, :]
            start = clock()
            source.act(x, rng)
            chunk.append(clock() - start)
            i += 1
        chunks.append(np.array(chunk) / 1e3)
        kernel.append(hostspeed.sample(KERNEL_SAMPLES_IN_ACT))
    scaled = [c * hostspeed.scale(kernel[k] + kernel[k + 1]) for k, c in enumerate(chunks)]
    return np.concatenate(chunks), np.concatenate(scaled)


def directory_mb(path: Path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 1e6


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", type=Path, required=True)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--workload", choices=sorted(inputs.ALGORITHM), required=True)
    p.add_argument("--rep", required=True)
    p.add_argument("--config-seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--spawned", type=float, required=True)
    args = p.parse_args(argv)

    inputs.check_source_root(args.root)
    cfg = inputs.run_config(args.root, args.workload, args.config_seed, args.tiny)
    run_dir = args.work / f"run_{args.rep}"
    heldout = np.load(args.work / "heldout.npy")
    tracer = None
    if args.trace:
        tracer = spans.Tracer(f"{args.workload}/{args.config_seed}/rep{args.rep}")
        tracer.install()

    trainer = Trainer(cfg, str(run_dir))
    for bundle in sorted(args.work.glob("snapshot_*")):
        ckpt = load_checkpoint(bundle)
        if cfg.hop.checkpoint_gradients:
            ckpt.opt = Adam(ckpt.actor.parameters, cfg.ppo.learning_rate)
        trainer.orchestra.checkpoints.append(ckpt)
    if tracer is not None:
        tracer.orchestra = trainer.orchestra
    setup_s = time.monotonic() - args.spawned

    iterations = trainer.total_iterations
    per_phase = iterations // 3
    probe = heldout[:256]
    first_task = trainer.plan.phases[0].task_id()
    column_outputs = []
    train_s = train_ref_s = 0.0
    for it in range(1, iterations + 1):
        before = hostspeed.sample(KERNEL_SAMPLES)
        start = time.monotonic()
        trainer.run(max_iterations=1)
        if it == iterations:
            report = trainer.report()
            export_metrics(report, run_dir)
        elapsed = time.monotonic() - start
        train_s += elapsed
        train_ref_s += elapsed * hostspeed.scale(before + hostspeed.sample(KERNEL_SAMPLES))
        if trainer.stack is not None and it % per_phase == 0 and it < iterations:
            column_outputs.append(trainer.stack.forward_with_adapters(first_task, probe))
    layers = None
    if tracer is not None:
        tracer.uninstall()
        trusted = sum(len(c.trusted) for c in trainer.orchestra.checkpoints)
        columns = len(trainer.stack.columns) if trainer.stack is not None else 0
        layers = spans.layer_metrics(tracer, trusted, columns)
        tracer.save(args.work / f"spans_rep{args.rep}.npz")

    results = [checks.metrics_csv(run_dir / "metrics.csv",
                                  cfg.total_timesteps // cfg.report_epoch)]
    if args.workload == "hop-desk":
        stored = [load_checkpoint(d) for d in sorted(run_dir.glob("checkpoint_*"))]
        results.append(checks.trusted_gate(stored, cfg.hop.reward_limit))
    if trainer.stack is not None:
        results.append(checks.column_frozen(*column_outputs))
    source = final_source(trainer)
    if cfg.algorithm == "hop":
        results.append(checks.joined_matches_reference(
            source, trainer.actor, trainer.orchestra.checkpoints,
            heldout[:inputs.CHECKED_STATES], cfg.hop.min_similarity_score))
    threads = inputs.blas_threads()
    results.append(("blas_threads_pinned", threads == 1, f"{threads} BLAS threads"))

    latencies, scaled = act_latencies_us(
        source, heldout, np.random.default_rng([args.config_seed, 0xAC7]),
        TINY_ACT_SECONDS if args.tiny else ACT_SECONDS)
    p50, p99 = (float(np.percentile(latencies, q)) for q in (50, 99))
    metrics_csv = run_dir / "metrics.csv"
    record = {
        "rep": args.rep,
        "config_seed": args.config_seed,
        "traced": bool(args.trace),
        "setup_s": setup_s * train_ref_s / train_s,
        "train_s": train_ref_s,
        "train_steps": trainer.global_step,
        "act_us_p50": float(np.percentile(scaled, 50)),
        "act_us_p99": float(np.percentile(scaled, 99)),
        "raw": {"setup_s": setup_s, "train_s": train_s, "act_us_p50": p50, "act_us_p99": p99},
        "host_speed": {"train": train_ref_s / train_s,
                       "act": float(np.median(scaled / latencies))},
        "act_samples": len(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "run_dir_mb": directory_mb(run_dir),
        "final_return": report.rows[-1].mean_return,
        "steps_to_return": steps_to_return(report),
        "checkpoints": len(trainer.orchestra),
        "metrics_csv": metrics_csv.read_text() if metrics_csv.is_file() else None,
        "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in results],
        "blas_threads": threads,
        "layers": layers,
    }
    (args.work / f"rep_{args.rep}.json").write_text(json.dumps(record))


if __name__ == "__main__":
    main()
