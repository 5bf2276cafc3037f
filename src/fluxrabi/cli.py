"""Command-line driver.

    fluxrabi run --config path.json [--tasks a,b] [--out dir] [--workers N]

Exit codes: 0 success, 2 configuration errors, 3 numeric non-convergence
(outputs written so far are kept, with flags in the metadata), 4 I/O
errors.  Every computation is deterministic, so repeated runs write
identical bytes.
"""

from __future__ import annotations

import argparse
import sys

from .config import TASK_NAMES, ConfigError, load_config
from .fitting import FitDataError
from .planewave import EigensolveError
from .qubit import TwoLevelFitError
from .tasks import run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluxrabi",
        description="Flux qubit / LC oscillator spectrum sweeps and "
                    "two-level-model comparisons.")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute the tasks of a JSON config")
    runp.add_argument("--config", required=True, help="path to the JSON config")
    runp.add_argument("--tasks", default=None,
                      help=f"comma-separated subset of: {', '.join(TASK_NAMES)}")
    runp.add_argument("--out", default=None,
                      help="output directory (overrides the config)")
    runp.add_argument("--workers", type=int, default=1,
                      help="parallel workers for sweep points")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    tasks = [t.strip() for t in args.tasks.split(",")] if args.tasks else None
    try:
        cfg = load_config(args.config, output_override=args.out,
                          tasks_override=tasks, workers=args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg, log=print)
    except (EigensolveError, TwoLevelFitError, FitDataError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
