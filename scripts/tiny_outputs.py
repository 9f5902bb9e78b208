#!/usr/bin/env python3
"""Write tiny runs of the bundled preset into OUT, to compare across commits.

    python3 scripts/tiny_outputs.py OUT

The runs take scripts/configs/hop_desk.json (of the checkout this script
sits in) cut down to 192 steps: OUT/ppo, OUT/hop, OUT/hop-grad (checkpoint
gradients on) and OUT/pnn, seed 1, in a few seconds. The gate is lowered so
that the hop runs keep checkpoints and write their bundles. Run it on two
commits at the same BLAS thread count, since a BLAS rounds differently at
another, and compare every file but ``state.pkl``, which pickles classes
whose layout a refactor may change:

    diff -r -x state.pkl OUT_NEW OUT_OLD
"""
import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from orchestra.harness import config_from_flat_dict, run_three_phase

TINY = {
    "total_timesteps": 192, "report_epoch": 64, "checkpoint_interval": 64,
    "num_steps": 8, "num_envs": 4, "num_minibatches": 4, "update_epochs": 2,
    "eval_batch_size": 2, "eval_episodes": 2, "max_ep_length": 30,
    "max_eval_ep_len": 30, "proc_num_levels": 2, "reward_limit": -100.0,
    "seed": 1,
}
RUNS = {"ppo": ("ppo", False), "hop": ("hop", False),
        "hop-grad": ("hop", True), "pnn": ("pnn", False)}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out", type=Path, help="directory of the runs")
    out = ap.parse_args().out
    preset = json.loads((HERE / "configs" / "hop_desk.json").read_text())
    for name, (algorithm, gradients) in RUNS.items():
        cfg = config_from_flat_dict({**preset, **TINY, "algorithm": algorithm,
                                     "checkpoint_gradients": gradients})
        run_three_phase(cfg, out / name)


if __name__ == "__main__":
    main()
