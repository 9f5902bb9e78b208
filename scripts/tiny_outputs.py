#!/usr/bin/env python3
"""Write tiny runs of the bundled preset into OUT, to compare across commits.

    python3 scripts/tiny_outputs.py OUT
    python3 scripts/tiny_outputs.py --digests [OUT]

The runs take scripts/configs/hop_desk.json (of the checkout this script
sits in) cut down to 192 steps: OUT/ppo, OUT/hop, OUT/hop-grad (checkpoint
gradients on) and OUT/pnn, seed 1, in a few seconds. The gate is lowered so
that the hop runs keep checkpoints and write their bundles. Run it on two
commits at the same BLAS thread count, since a BLAS rounds differently at
another, and compare every file but ``state.pkl``, which pickles classes
whose layout a refactor may change:

    diff -r -x state.pkl OUT_NEW OUT_OLD

``--digests`` prints the SHA-256 of every file but ``run_env.json`` as a
JSON table, the ``state.pkl`` files in a section of their own, with the
numpy and BLAS build it was made under; without OUT the runs go to a
temporary directory. tests/test_outputs.py compares the runs with the table
it keeps, so a change that alters the outputs on purpose re-records it:

    OPENBLAS_NUM_THREADS=1 python3 scripts/tiny_outputs.py --digests > tests/tiny_outputs.json
"""
import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from orchestra.harness import RUN_ENV, config_from_flat_dict, run_environment, run_three_phase

TINY = {
    "total_timesteps": 192, "report_epoch": 64, "checkpoint_interval": 64,
    "num_steps": 8, "num_envs": 4, "num_minibatches": 4, "update_epochs": 2,
    "eval_batch_size": 2, "eval_episodes": 2, "max_ep_length": 30,
    "max_eval_ep_len": 30, "proc_num_levels": 2, "reward_limit": -100.0,
    "seed": 1,
}
RUNS = {"ppo": ("ppo", False), "hop": ("hop", False),
        "hop-grad": ("hop", True), "pnn": ("pnn", False)}


def write_runs(out: Path):
    preset = json.loads((HERE / "configs" / "hop_desk.json").read_text())
    for name, (algorithm, gradients) in RUNS.items():
        cfg = config_from_flat_dict({**preset, **TINY, "algorithm": algorithm,
                                     "checkpoint_gradients": gradients})
        run_three_phase(cfg, out / name)


def digests(out: Path) -> dict:
    """The SHA-256 of every file under OUT but the run_env.json files, by
    relative path, and the numpy and BLAS build that wrote them."""
    env = run_environment()
    table = {"numpy": env["numpy"], "blas": env["blas"], "files": {}, "state.pkl": {}}
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != RUN_ENV:
            section = table["state.pkl" if path.name == "state.pkl" else "files"]
            section[path.relative_to(out).as_posix()] = \
                hashlib.sha256(path.read_bytes()).hexdigest()
    return table


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out", type=Path, nargs="?", help="directory of the runs")
    ap.add_argument("--digests", action="store_true",
                    help="print the digest table of the runs")
    args = ap.parse_args()
    if args.out is None and not args.digests:
        ap.error("OUT is required without --digests")
    with tempfile.TemporaryDirectory() as tmp:
        out = args.out or Path(tmp)
        write_runs(out)
        if args.digests:
            print(json.dumps(digests(out), indent=1))


if __name__ == "__main__":
    main()
