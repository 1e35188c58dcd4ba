"""Command-line entry point: run / describe / validate."""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .harness import ConfigError, ExperimentConfig, describe, run, validate_degree_file


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pairlab",
        description="Monte Carlo lab for the uniform pairing model with a "
        "fixed subpower-law degree sequence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("-c", "--config", required=True)
    # these replace the config file's fields of the same name; one not given
    # is absent from the namespace, so the file's value stays
    p_run.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p_run.add_argument("--workers", type=int, default=argparse.SUPPRESS)
    p_run.add_argument("-o", "--output", dest="output_dir", default=argparse.SUPPRESS)

    p_desc = sub.add_parser("describe", help="dry-run report, no sampling")
    p_desc.add_argument("-c", "--config", required=True)

    p_val = sub.add_parser("validate", help="check a degree file")
    p_val.add_argument("path")
    p_val.add_argument("--gamma", type=float, default=None)
    p_val.add_argument("--c", type=float, default=None)

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")

    try:
        if args.command == "validate":
            report = validate_degree_file(args.path, gamma=args.gamma, c=args.c)
            json.dump(report, sys.stdout, indent=2, sort_keys=True)
            print()
            return 0 if report["valid"] else 1
        overrides = {k: v for k, v in vars(args).items()
                     if k in ("seed", "workers", "output_dir")}
        config = ExperimentConfig.from_file(args.config, **overrides)
        if args.command == "describe":
            json.dump(describe(config), sys.stdout, indent=2, sort_keys=True)
            print()
            return 0
        summary = run(config)
        json.dump(
            summary.deterministic_dict(), sys.stdout, indent=2, sort_keys=True
        )
        print()
        return 0 if summary.passed else 1
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
