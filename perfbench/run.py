"""orchestra-rl benchmark: one workload, one seed, one line of JSON.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hop-desk --seed 1 --seconds 30 --trace 0

Every repetition trains the workload through A -> B -> A in a fresh process
with the BLAS thread count pinned to 1 (``rep.py``). A run makes
``--seconds`` / ``inputs.REP_SECONDS`` repetitions, and at least MIN_REPS,
with the training seeds ``inputs.TRAINING_SEEDS``; the first seed runs
twice, and the two ``metrics.csv`` files must be bit-identical.

``--trace 0`` reports the end-to-end metrics as medians over repetitions,
with every time scaled to the reference host speed (``hostspeed.py``); the
times as measured are printed next to them.
``--trace 1`` runs pairs of repetitions on one training seed, untraced then
traced, and reports the per-layer metrics of the traced ones together with
the tracing overhead. The last line of standard output is the result; the
lines before it print every metric with its quartiles, the checks and the
environment fingerprint. The full result, and the spans of traced
repetitions, are also written to ``.bench_out/results/``.
"""
from __future__ import annotations

import os

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)   # before numpy is imported anywhere

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
HARD_LIMIT_S = 165.0        # the whole run must end within 180 s
MIN_REPS = 3
MIN_TRACED_REPS = 4         # two untraced/traced pairs
END_TO_END = ("setup_s", "train_steps_per_s", "act_us_p50", "act_us_p99",
              "peak_rss_mb", "run_dir_mb")
HOST_SCALED = END_TO_END[:4]        # reported at the reference host speed


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def rep_schedule(seeds, trace: bool):
    """(training seed, traced) of repetition 0, 1, 2, ..."""
    if trace:
        for seed in seeds:
            yield seed, False
            yield seed, True
    else:
        yield seeds[0], False
        for seed in seeds:
            yield seed, False


def run_rep(root: Path, work: Path, args, rep: str, seed: int, traced: bool, deadline: float):
    """Start one repetition and wait for it; return its record or a failure."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **PINNED_THREADS)
    cmd = [sys.executable, str(HERE / "rep.py"), "--root", str(root), "--work", str(work),
           "--workload", args.workload, "--rep", str(rep), "--config-seed", str(seed),
           "--trace", str(int(traced))]
    if args.tiny:
        cmd.append("--tiny")
    spawned = time.monotonic()
    cmd += ["--spawned", repr(spawned)]
    failure = {"rep": rep, "config_seed": seed, "traced": traced, "failed": True}
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        return dict(failure, error="timed out")
    out = work / f"rep_{rep}.json"
    if proc.returncode != 0 or not out.is_file():
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-5:]
        return dict(failure, error=f"exit {proc.returncode}: " + " | ".join(tail))
    record = json.loads(out.read_text())
    record["wall_s"] = time.monotonic() - spawned
    record["failed"] = not all(c["ok"] for c in record["checks"])
    return record


def determinism(records):
    """Mark repetitions whose metrics.csv differs from an earlier one on the same seed."""
    first = {}
    for r in records:
        if r["failed"]:
            continue
        seen = first.setdefault(r["config_seed"], r)
        if seen is not r:
            same = seen["metrics_csv"] == r["metrics_csv"]
            r["checks"].append({"name": "repeat_bit_identical", "ok": same,
                                "detail": f"metrics.csv vs rep {seen['rep']}"})
            r["failed"] = not same


def train_rate(record) -> float:
    return record["train_steps"] / record["train_s"]


def summarize(records, trace: bool):
    """Metric name -> (median, q1, q3) over the repetitions that count.

    Traced runs report the per-layer metrics of their traced repetitions
    and the tracing overhead: the share of training throughput the traced
    repetition of a pair loses against the untraced one, median over pairs.
    """
    good = [r for r in records if not r["failed"]]
    traced = [r for r in good if r["traced"]]
    plain = [r for r in good if not r["traced"]]
    out = {}
    if trace:
        if traced and plain:
            for name in traced[0]["layers"]:
                q1, med, q3 = quartiles([r["layers"][name] for r in traced])
                out[name] = (med, q1, q3)
            untraced = {r["config_seed"]: train_rate(r) for r in plain}
            lost = [1.0 - train_rate(r) / untraced[r["config_seed"]]
                    for r in traced if r["config_seed"] in untraced]
            if lost:
                out["trace.overhead_share"] = (statistics.median(lost), None, None)
        return out
    for name in END_TO_END if good else ():
        if name == "train_steps_per_s":
            values = [train_rate(r) for r in good]
        else:
            values = [r[name] for r in good]
        q1, med, q3 = quartiles(values)
        out[name] = (med, q1, q3)
    return out


def main(argv=None) -> int:
    started = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test geometry")
    args = p.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "orchestra" / "__init__.py").is_file():
        print("perfbench: src/orchestra not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    sys.path.insert(0, str(root / "src"))
    import inputs
    inputs.check_source_root(root)
    if args.workload not in inputs.ALGORITHM:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(inputs.ALGORITHM)}", file=sys.stderr)
        return 2

    work = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    seeds = inputs.TRAINING_SEEDS
    cfg = inputs.run_config(root, args.workload, seeds[0], args.tiny)
    count = inputs.TINY_HELDOUT_STATES if args.tiny else inputs.HELDOUT_STATES
    np.save(work / "heldout.npy", inputs.heldout_states(cfg, args.seed, count))
    if args.workload == "hop-m6":
        states = inputs.TINY_SNAPSHOT_STATES if args.tiny else inputs.SNAPSHOT_STATES
        inputs.write_snapshots(cfg, args.seed, work, states)

    measure_start = time.monotonic()
    deadline = started + HARD_LIMIT_S
    planned = int(args.seconds / inputs.REP_SECONDS[args.workload])
    if args.trace:
        planned = max(MIN_TRACED_REPS, planned + planned % 2)
    else:
        planned = max(MIN_REPS, planned)
    records, longest = [], 0.0
    for rep, (seed, traced) in enumerate(rep_schedule(seeds, bool(args.trace))):
        now = time.monotonic()
        if rep == planned or now + longest > deadline:
            break
        records.append(run_rep(root, work, args, str(rep), seed, traced, deadline))
        longest = max(longest, time.monotonic() - now)
        for run_dir in work.glob("run_*"):
            shutil.rmtree(run_dir)
    determinism(records)

    fp = inputs.fingerprint(root, args.seed, next(
        (r["blas_threads"] for r in records if "blas_threads" in r), None))
    metrics = summarize(records, bool(args.trace))
    raw = summarize([dict(r, **r["raw"]) for r in records if "raw" in r], False)
    failed = sum(r["failed"] for r in records)
    attempted = len(records)
    correct = failed == 0 and len(records) == planned and bool(metrics)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"reps={len(records)} of {planned} measured={time.monotonic() - measure_start:.1f}s")
    print("fingerprint " + json.dumps(fp))
    for name, (med, q1, q3) in metrics.items():
        spread = "" if q1 is None else f"  q1 {q1:.6g}  q3 {q3:.6g}"
        measured = ""
        if not args.trace and name in HOST_SCALED and name in raw:
            measured = f"  (as measured {raw[name][0]:.6g})"
        print(f"  {name:<38} {med:>12.6g} {units[name]:<8}{spread}{measured}")
    if not args.trace:
        calls = [r["act_samples"] for r in records if not r["failed"]]
        print(f"  {'act calls timed per repetition':<38} {min(calls, default=0):>12d} "
              f"to {max(calls, default=0)}")
    print(f"  {'runs_failed':<38} {failed:>12d} of {attempted} runs")
    for r in records:
        status = "FAILED" if r["failed"] else "ok"
        extra = r.get("error") or ", ".join(
            f"{c['name']}={'ok' if c['ok'] else 'FAIL'} ({c['detail']})" for c in r["checks"])
        returns = ("" if "final_return" not in r else
                   f" final_return={r['final_return']:.4f} steps_to_return={r['steps_to_return']}")
        print(f"  rep {r['rep']} seed={r['config_seed']} traced={r['traced']} {status}{returns}: {extra}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": med, "unit": units[name]}
                    for name, (med, _, _) in metrics.items()},
    }
    results_dir = root / ".bench_out" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    full = dict(result, workload=args.workload, fingerprint=fp,
                quartiles={n: [q1, q3] for n, (_, q1, q3) in metrics.items()},
                measured={n: med for n, (med, _, _) in raw.items() if n in HOST_SCALED},
                reps=[{k: v for k, v in r.items() if k not in ("metrics_csv", "layers")}
                      for r in records])
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(full, indent=1))
    for spans in work.glob("spans_rep*.npz"):
        spans.replace(results_dir / f"{stem}-{spans.name}")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
