"""Command-line front end: one experiment per invocation.

Subcommands mirror the config kinds; the config file still names its kind
and the two must agree, so a shell history line never silently runs a
different experiment than it claims.

Exit codes: 0 run completed (Done or BlownUp -- blow-up is a result, not
an error), 1 operational failure during the run (recorded in the
manifest), 2 usage or config errors (nothing was run).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .runner import KINDS, ConfigError, parse_config, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hnlslab",
        description="Pseudospectral experiments for the hyperbolic "
                    "nonlinear Schrodinger equation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--config", required=True,
                       help="path to the JSON experiment config")
        p.add_argument("--out", default=None,
                       help="output directory (overrides the config)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
    except ConfigError as exc:
        for msg in exc.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return 2
    if config.kind != args.command:
        print(f"config kind {config.kind!r} does not match subcommand "
              f"{args.command!r}", file=sys.stderr)
        return 2
    if args.seed is not None:
        if args.seed < 0:
            print("error: --seed must be >= 0", file=sys.stderr)
            return 2
        config = replace(config, seed=args.seed)
    for warning in config.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    outdir = args.out if args.out is not None else config.output
    try:
        code = run_experiment(config, out_dir=args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        with open(os.path.join(outdir, "manifest.json"),
                  encoding="utf-8") as handle:
            manifest = json.load(handle)
        print(f"{config.kind}: {manifest['status']} "
              f"({len(manifest['outputs'])} artifacts in {outdir})")
    except OSError:
        pass
    return code


if __name__ == "__main__":
    sys.exit(main())
