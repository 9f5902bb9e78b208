"""Compare benchmark results of two versions, metric by metric.

    python3 perfbench/compare.py --base old/*.json --head new/*.json

Each file is a result that run.py wrote to ``.bench_out/results/``. Take
the two sides' runs alternately (base, head, base, head, ...), on the same
seeds, so that both see the same drift of the host. Results are grouped by
workload and trace mode. For each metric on both sides the script prints
each side's median over its files and the spread: the distance between the
first and third quartiles of the files' values as a share of their median
(the range, with fewer than four files).

A metric with a bound in BENCHMARK.json gets a verdict:

- ``unresolved`` when either side's spread exceeds the bound: the runs
  cannot tell a change of that size from noise; unless every head run
  reads better than every base run, which is ``better``;
- ``REGRESSION`` when the median got worse by more than the bound;
- ``ok`` otherwise.

Results whose environment fingerprints differ (Python, numpy, BLAS, BLAS
threads, nproc) are reported as not comparable. Exits 1 on a regression or
a mismatch.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ENVIRONMENT_KEYS = ("python", "numpy", "blas", "blas_threads", "nproc")


def load(paths):
    groups = {}
    for path in paths:
        result = json.loads(Path(path).read_text())
        traced = any(r.get("traced") for r in result["reps"])
        groups.setdefault((result["workload"], traced), []).append(result)
    return groups


def environment(result) -> dict:
    return {k: result["fingerprint"].get(k) for k in ENVIRONMENT_KEYS}


def median_and_spread(values):
    med = statistics.median(values)
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        width = q3 - q1
    else:
        width = max(values) - min(values)
    return med, (width / abs(med) if med else 0.0)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--head", nargs="+", required=True)
    p.add_argument("--spec", default=str(Path(__file__).resolve().parents[1] / "BENCHMARK.json"))
    args = p.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, head = load(args.base), load(args.head)

    envs = {json.dumps(environment(r), sort_keys=True)
            for side in (base, head) for results in side.values() for r in results}
    if len(envs) > 1:
        print("not comparable: environment fingerprints differ")
        for env in sorted(envs):
            print("  " + env)
        return 1

    status = 0
    for key in sorted(base.keys() & head.keys()):
        workload, traced = key
        print(f"{workload}{' (traced)' if traced else ''}: "
              f"{len(base[key])} base results, {len(head[key])} head results")
        names = [n for n in metrics
                 if all(n in r["metrics"] for r in base[key] + head[key])]
        for name in names:
            olds = [r["metrics"][name]["value"] for r in base[key]]
            news = [r["metrics"][name]["value"] for r in head[key]]
            old, old_spread = median_and_spread(olds)
            new, new_spread = median_and_spread(news)
            meta = metrics[name]
            sign = -1 if meta["better"] == "higher" else 1
            change = (new - old) / old if old else 0.0
            worse = sign * change
            verdict = ""
            if "bound" in meta:
                if max(old_spread, new_spread) > meta["bound"]:
                    all_better = max(sign * v for v in news) < min(sign * v for v in olds)
                    verdict = "better" if all_better else "unresolved"
                elif worse > meta["bound"]:
                    verdict = "REGRESSION"
                    status = 1
                else:
                    verdict = "ok"
            print(f"  {name:<38} {old:>12.6g} ({old_spread:.3f}) -> {new:<12.6g} "
                  f"({new_spread:.3f}) {change:+8.1%} {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
