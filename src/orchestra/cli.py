"""Command-line entry points: train, resume, aggregate, export."""
from __future__ import annotations

import argparse
import json
from pathlib import Path

from .errors import ConfigError
from .harness import (aggregate, config_from_flat_dict, export_metrics,
                      load_trainer, read_json, resume, run_three_phase, summarize)


def _cmd_train(args):
    raw = read_json(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    config = config_from_flat_dict(raw)
    report = run_three_phase(config, args.out)
    print(json.dumps(summarize(report), indent=1))


def _cmd_resume(args):
    report = resume(args.out)
    print(json.dumps(summarize(report), indent=1))


def _cmd_aggregate(args):
    result = aggregate(args.runs)
    text = json.dumps(result, indent=1)
    if args.out:
        Path(args.out).write_text(text)
    print(text)


def _cmd_export(args):
    trainer = load_trainer(args.out)
    formats = ("csv", "json") if args.format == "both" else (args.format,)
    for path in export_metrics(trainer.report(), trainer.out_dir, formats):
        print(path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orchestra",
        description="Continual-RL experiment runner (ppo / hop / pnn on MiniProc)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run a three-phase experiment")
    p.add_argument("--config", required=True, help="flat JSON config file")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("resume", help="continue an interrupted run")
    p.add_argument("--out", required=True, help="run directory with state.pkl")
    p.set_defaults(func=_cmd_resume)

    p = sub.add_parser("aggregate", help="aggregate exported runs across seeds")
    p.add_argument("--runs", nargs="+", required=True, help="run directories")
    p.add_argument("--out", default=None, help="write aggregate JSON here")
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("export", help="re-export metrics from persisted state")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--format", choices=["csv", "json", "both"], default="both")
    p.set_defaults(func=_cmd_export)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ConfigError as err:
        parser.exit(2, f"{parser.prog}: error: {err}\n")


if __name__ == "__main__":
    main()
