"""Command line entry point.

Each subcommand's flags, and the keys its `--config` file may hold, come from
its option table (experiments.OPTIONS); the runner types and range-checks
every value through that table's rows.

Exit codes: 0 on success, 1 when a runner's built-in assertions fail (example
decisions or growth out of tolerance, deviation bound violated), 2 on bad
configuration, such as too few samples to fill every (element, phase index)
group or a dense tensor above its size cap, and on an unwritable output file.
"""

from __future__ import annotations

import argparse
import sys

from .beamforming import EmptyGroupError
from .config import ConfigError, ExperimentConfig, check_known_keys
from .experiments import OPTIONS, RUNNERS, write_csv, write_json

COMMAND_HELP = {
    "scaling": "received-power growth versus surface size",
    "compare": "benchmark methods on one scenario",
    "conditions": "condition satisfaction versus link density",
    "examples": "constructed channels with known optima",
    "lemma-check": "decided-versus-ideal phase deviation bound",
}


def _described(row) -> str:
    return f"{row.help} (default {row.default})"


def build_parser(commands=tuple(OPTIONS)) -> argparse.ArgumentParser:
    """The CLI parser, with flags for the subcommands in `commands`."""
    parser = argparse.ArgumentParser(
        prog="blindbeam",
        description="Blind multi-surface beamforming experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in commands:
        rows = OPTIONS[command]
        file_only = "; ".join(f"{row.key}, {_described(row)}" for row in rows if not row.flags)
        epilog = f"config-file keys without a flag: {file_only}" if file_only else None
        p = sub.add_parser(command, help=COMMAND_HELP[command], epilog=epilog)
        for row in rows:
            if row.flags:
                p.add_argument(*row.flags, dest=row.key, help=_described(row))
        p.add_argument("--config", metavar="FILE",
                       help="key = value config file; command line flags win")
        p.add_argument("--out", metavar="CSV",
                       help="write records as CSV (deterministic for a fixed seed)")
        p.add_argument("--json", metavar="FILE", dest="json_out",
                       help="also dump records and summaries as JSON")
        p.add_argument("--timing", action="store_true",
                       help="record real wall-clock seconds in the CSV; breaks "
                            "byte-for-byte determinism")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # parsing a subcommand's arguments needs only that subcommand's flags
    args = build_parser(argv[:1] if argv[:1] and argv[0] in OPTIONS else OPTIONS).parse_args(argv)
    rows = OPTIONS[args.command]
    try:
        config = ExperimentConfig.merge(
            args.config, {row.key: getattr(args, row.key) for row in rows if row.flags})
        # flags are rows, so only a file key can be unknown
        check_known_keys(config.values, {row.key for row in rows}, args.config)
        result = RUNNERS[args.command](config)
    except (ConfigError, EmptyGroupError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        if args.out:
            write_csv(args.out, result.records, result.summary_lines, timing=args.timing)
            print(f"wrote {len(result.records)} records to {args.out}")
        if args.json_out:
            write_json(args.json_out, config, result)
            print(f"wrote JSON to {args.json_out}")
    except OSError as e:
        print(f"output error: {e}", file=sys.stderr)
        return 2
    for line in result.report_lines:
        print(line)
    if result.failures:
        for line in result.failures:
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
