"""Command-line interface.

Exit codes: 0 all checks passed, 2 checks failed or indeterminate,
3 infeasible search, 4 configuration or usage error, 1 internal error.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from .config import COMMANDS, RunConfig
from .errors import ConfigError, InfeasibleParameterError, SemidecayError
from .reports import (EXIT_CHECKS_FAILED, EXIT_CONFIG, EXIT_INFEASIBLE,
                      EXIT_INTERNAL, EXIT_OK)
from .runner import run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semidecay",
        description="verify exponential-decay estimates on matrix semigroups "
                    "in enlarged weighted spaces")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON run configuration")
        cmd.add_argument("--seed", type=int, default=None, help="override config seed")
        cmd.add_argument("--jobs", type=int, default=None,
                         help="accepted and ignored; runs are serial")
        cmd.add_argument("--out", default=None, help="override output directory")
    return parser


def _load_config(args) -> RunConfig:
    config = RunConfig.from_json_file(args.config, command=args.command)
    flags = {"seed": args.seed, "jobs": args.jobs, "out_dir": args.out}
    return config.override(**{key: val for key, val in flags.items() if val is not None})


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage message; --help exits 0
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        config = _load_config(args)
        _, code = run(config)
    except InfeasibleParameterError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SemidecayError as exc:
        print(f"check error: {exc}", file=sys.stderr)
        return EXIT_CHECKS_FAILED
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL
    status = {EXIT_OK: "all checks passed",
              EXIT_CHECKS_FAILED: "checks failed or indeterminate",
              EXIT_INFEASIBLE: "search infeasible"}.get(code, "done")
    print(f"{config.command}: {status}; report in {config.out_dir}/report.json")
    return code


if __name__ == "__main__":
    sys.exit(main())
