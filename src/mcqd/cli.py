"""Command line entry points: run, preset, plotdata, aggregate."""
from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .config import ExperimentConfig, build_preset, preset_names
from .core import ConfigurationError
from .runner import emit_plot_data, run_experiment, write_aggregate


def _add_run_flags(parser):
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--replicates", type=int, default=None,
                        help="replicate count override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcqd",
        description="multi-container quality-diversity experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a YAML config")
    p_run.add_argument("config", help="path to the experiment config")
    _add_run_flags(p_run)

    p_preset = sub.add_parser("preset", help="run (or list) a named preset case")
    p_preset.add_argument("name", nargs="?", default=None)
    p_preset.add_argument("--list", action="store_true", help="list preset names")
    p_preset.add_argument("--desk", action="store_true",
                          help="desk scale: budgets / 10, 10x10 grids")
    _add_run_flags(p_preset)

    p_plot = sub.add_parser("plotdata", help="emit plot-ready tables for a run")
    p_plot.add_argument("run_dir")

    p_agg = sub.add_parser("aggregate", help="aggregate replicate metric logs")
    p_agg.add_argument("run_dirs", nargs="+")
    p_agg.add_argument("--out", default=None, help="aggregate file destination")

    return parser


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    if args.seed is not None:
        config.seed = args.seed
    if args.replicates is not None:
        config.replicates = args.replicates
    return config


def _report(result) -> int:
    print(f"run directory: {result.run_dir}")
    for rep in result.replicates:
        status = f"FAILED ({rep.error})" if rep.failed else "ok"
        print(f"  seed {rep.seed}: {status}")
    return 1 if result.failed else 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = ExperimentConfig.from_file(args.config)
            config = _apply_overrides(config, args)
            return _report(run_experiment(config, args.out))

        if args.command == "preset":
            if args.list or args.name is None:
                for name in preset_names():
                    print(name)
                return 0
            config = _apply_overrides(build_preset(args.name, desk=args.desk), args)
            return _report(run_experiment(config, args.out))

        if args.command == "plotdata":
            plot_dir = emit_plot_data(args.run_dir)
            print(f"plot data written to {plot_dir}")
            return 0

        if args.out is None and len(args.run_dirs) > 1:
            # the first run's own aggregate.csv is one of its artifacts
            print("error: aggregating several run directories needs --out",
                  file=sys.stderr)
            return 2
        out = Path(args.out) if args.out else Path(args.run_dirs[0]) / "aggregate.csv"
        path = write_aggregate(args.run_dirs, out)
        print(f"aggregate written to {path}")
        return 0
    except (ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
