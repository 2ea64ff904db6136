"""Command-line entry point.

Subcommands map onto pipeline stage subsets; ``run`` drives the full chain
from one config document.  Exit codes: 0 success, 2 config error, 3 stage
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import ConfigError, HypercalError
from .pipeline import (PRESETS, PipelineConfig, check_order, default_config,
                       load_config, run)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3

# stages each subcommand executes (in pipeline order); None means the
# config's own stage list
_SUBCOMMAND_STAGES = {
    "simulate": ("simulate",),
    "caldark": ("simulate", "caldark"),
    "calflat": ("simulate", "caldark", "flat-field"),
    "correct": ("simulate", "caldark", "flat-field", "bunch", "interference",
                "stray"),
    "calspec": ("simulate", "caldark", "flat-field", "smile",
                "absolute-shift", "keystone"),
    "geocal": ("simulate", "geocal"),
    "ortho": ("simulate", "geocal", "ortho"),
    "bundle": ("simulate", "caldark", "flat-field", "geocal", "ortho",
               "bundle"),
    "report": ("simulate", "report"),
    "run": None,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypercal",
        description="Hyperspectral pushbroom simulator and calibration "
                    "pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMAND_STAGES:
        p = sub.add_parser(name, help=f"run the {name} stage set")
        p.add_argument("--config", help="pipeline config document (JSON)")
        p.add_argument("--seed", type=int, help="random seed override")
        p.add_argument("--out", help="output directory override")
        p.add_argument("--stages",
                       help="comma-separated stage subset of the config")
        p.add_argument("--preset", choices=PRESETS, help="sensor preset")
    return parser


def _resolve_config(args) -> PipelineConfig:
    config = load_config(args.config) if args.config else default_config(
        preset=args.preset or ("dual" if args.command == "bundle" else "vnir"))

    wanted = _SUBCOMMAND_STAGES[args.command]
    if args.stages:
        wanted = tuple(s.strip() for s in args.stages.split(",") if s.strip())
    stages = config.stages
    if wanted is not None:
        for s in wanted:
            if s not in config.stage_names():
                raise ConfigError(f"--stages: {s!r} is not in the config")
        stages = tuple((n, p) for n, p in config.stages if n in wanted)
        check_order([n for n, _ in stages])

    return dataclasses.replace(
        config, stages=stages, preset=args.preset or config.preset,
        seed=args.seed if args.seed is not None else config.seed,
        out=args.out or config.out)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        report = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HypercalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE
    print(f"wrote {report.summary_csv} ({len(report.metrics)} metrics)")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
