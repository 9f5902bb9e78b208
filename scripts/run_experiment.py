#!/usr/bin/env python3
"""Run the three-phase forgetting/recovery experiment for one algorithm
under the bundled preset, scripts/configs/hop_desk.json.

Examples:
    python3 scripts/run_experiment.py --algorithm hop --seed 1 --out runs/hop-1
    python3 scripts/run_experiment.py --algorithm ppo --seeds 1 2 3 4 --out runs
"""
import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from orchestra.harness import config_from_flat_dict, run_three_phase, summarize

PRESET = HERE / "configs" / "hop_desk.json"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--algorithm", choices=["ppo", "hop", "pnn"], default="ppo")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--experiment", default="runner-climber-runner",
                    help="familyA-familyB-familyA phase preset")
    ap.add_argument("--out", required=True, help="output directory (one subdir per seed)")
    ap.add_argument("--checkpoint-gradients", action="store_true",
                    help="route masked gradients into stored checkpoints "
                         "(off by default for this preset; see README)")
    args = ap.parse_args()

    preset = json.loads(PRESET.read_text())
    for seed in args.seeds:
        cfg = config_from_flat_dict({
            **preset,
            "algorithm": args.algorithm,
            "experiment": args.experiment,
            "seed": seed,
            "checkpoint_gradients": args.checkpoint_gradients,
        })
        out_dir = Path(args.out) / f"{args.algorithm}-{seed}"
        report = run_three_phase(cfg, out_dir)
        print(json.dumps(summarize(report), indent=1))


if __name__ == "__main__":
    main()
