"""Command-line entry point: run sweeps, validate configs, aggregate figures."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import ExperimentConfig, load_config
from .errors import ConfigurationError
from .harness import FIGURE_VIEWS, read_csv, run_experiment, write_csv, write_figure_csv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fdiab",
                                     description="Full-duplex mmWave IAB link simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the configured sweep and write a results CSV")
    run.add_argument("--config", help="INI config file (defaults used when omitted)")
    run.add_argument("--out", required=True, help="output CSV path")
    run.add_argument("--seed", type=int, help="override master seed")
    run.add_argument("--trials", type=int, help="override trial count")
    run.add_argument("--threads", type=int, help="worker process count")

    val = sub.add_parser("validate", help="check a config file and exit")
    val.add_argument("--config", help="INI config file (defaults used when omitted)")

    fig = sub.add_parser("figures", help="aggregate a results CSV into plot-ready cells")
    fig.add_argument("--results", required=True, help="results CSV from a run")
    fig.add_argument("--out", required=True, help="aggregated CSV path")
    fig.add_argument("--fig", action="append", choices=sorted(FIGURE_VIEWS),
                     help="figure id; repeat the flag for more figures, each once "
                          "(default: every figure that has rows)")
    return parser


# (command-line flag, config field) of each run override
_OVERRIDES = (("seed", "master_seed"), ("trials", "trials"), ("threads", "threads"))


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    cfg = replace(cfg, **{field: getattr(args, flag) for flag, field in _OVERRIDES
                          if getattr(args, flag, None) is not None})
    cfg.validate()
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            _load(args)
            print("config ok")
            return 0
        if args.command == "run":
            cfg = _load(args)
            result = run_experiment(cfg)
            write_csv(result, args.out)
            print(f"wrote {len(result.rows)} rows to {args.out}")
            return 0
        if args.command == "figures":
            write_figure_csv(read_csv(args.results), args.fig, args.out)
            print(f"wrote {args.out}")
            return 0
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
