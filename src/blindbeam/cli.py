"""Command line entry point.

Exit codes: 0 on success, 1 when a runner's built-in assertions fail (example
decisions or growth out of tolerance, deviation bound violated), 2 on
configuration errors, including a sample count too small to fill every
(element, phase index) group.
"""

from __future__ import annotations

import argparse
import sys

from .beamforming import EmptyGroupError
from .config import ConfigError, ExperimentConfig, check_known_keys
from .experiments import RUNNERS, write_csv, write_json


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=None, help="master RNG seed (default 0)")
    p.add_argument("--config", default=None, metavar="FILE",
                   help="key = value config file; command line flags win")
    p.add_argument("--out", default=None, metavar="CSV",
                   help="write records as CSV (deterministic for a fixed seed)")
    p.add_argument("--json", default=None, metavar="FILE", dest="json_out",
                   help="also dump records and summaries as JSON")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads for trial evaluation (default 1)")
    p.add_argument("--timing", action="store_true",
                   help="record real wall-clock seconds in the CSV; breaks "
                        "byte-for-byte determinism")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blindbeam",
        description="Blind multi-surface beamforming experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scaling", help="received-power growth versus surface size")
    _add_common(p)
    p.add_argument("--surfaces", "-L", type=int, default=None)
    p.add_argument("--n-sweep", default=None, metavar="N1,N2,...",
                   help="element counts to sweep (default 8,16,32,64,128)")
    p.add_argument("--levels", "-K", default=None, metavar="K or K1,K2,...",
                   help="phase levels, one value or one per surface")
    p.add_argument("--methods", default=None, help="comma list from: csm,cpp")
    p.add_argument("--t-rule", default=None, dest="t_rule", metavar="RULE",
                   help="samples per surface: fixed:T, linear:c, or theory:c")
    p.add_argument("--noise", default=None,
                   help="noiseless, one_draw, or averaged:M (default noiseless)")
    p.add_argument("--leakage-margin", type=float, default=None, dest="leakage_margin",
                   help="fraction of the feasible leakage ceiling to use (default 0.5)")

    p = sub.add_parser("compare", help="benchmark methods on one scenario")
    _add_common(p)
    p.add_argument("--scenario", default=None, metavar="FILE",
                   help="scenario file (default: packaged two-surface corridor)")
    p.add_argument("--elements", "-N", type=int, default=None)
    p.add_argument("--methods", default=None,
                   help="comma list from: zero,random,virtual,csm,cpp")
    p.add_argument("--t-rule", default=None, dest="t_rule")
    p.add_argument("--budget-per-surface", type=int, default=None, dest="budget_per_surface",
                   help="sample budget per surface for random/virtual (default 1000)")
    p.add_argument("--noise", default=None)

    p = sub.add_parser("conditions", help="condition satisfaction versus link density")
    _add_common(p)
    p.add_argument("--surfaces", "-L", type=int, default=None)
    p.add_argument("--elements", "-N", type=int, default=None)
    p.add_argument("--eta-sweep", default=None, dest="eta_sweep", metavar="P1,P2,...",
                   help="line-of-sight probabilities (default 0.2,0.4,0.6,0.8,1.0)")
    p.add_argument("--levels", "-K", default=None)

    p = sub.add_parser("examples", help="constructed channels with known optima")
    _add_common(p)
    p.add_argument("--n-sweep", default=None, metavar="N1,N2,...",
                   help="odd element counts (default 9,19)")
    p.add_argument("--beta", type=float, default=None, help="channel gain scale")
    p.add_argument("--growth-rel-tol", type=float, default=None, dest="growth_rel_tol")

    p = sub.add_parser("lemma-check", help="decided-versus-ideal phase deviation bound")
    _add_common(p)
    p.add_argument("--surfaces", "-L", type=int, default=None)
    p.add_argument("--elements", "-N", type=int, default=None)
    p.add_argument("--levels", "-K", default=None)
    p.add_argument("--leakage-margin", type=float, default=None, dest="leakage_margin")

    return parser


_SKIP_DESTS = {"command", "config", "out", "json_out", "timing"}

# config-file keys a runner reads that have no flag
_FILE_ONLY_KEYS = {"scaling": {"power_dbm", "noise_dbm"}}


def _overrides(args: argparse.Namespace) -> dict:
    out = {}
    for dest, value in vars(args).items():
        if dest in _SKIP_DESTS or value is None:
            continue
        out[dest] = value
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = ExperimentConfig.merge(args.config, _overrides(args))
        # overrides are flag destinations, so only a file key can be unknown
        check_known_keys(config.values, (set(vars(args)) - _SKIP_DESTS)
                         | _FILE_ONLY_KEYS.get(args.command, set()), args.config)
        result = RUNNERS[args.command](config)
    except (ConfigError, EmptyGroupError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    if args.out:
        write_csv(args.out, result.records, result.summary_lines, timing=args.timing)
        print(f"wrote {len(result.records)} records to {args.out}")
    if args.json_out:
        write_json(args.json_out, config, result)
        print(f"wrote JSON to {args.json_out}")
    for line in result.report_lines:
        print(line)
    if result.failures:
        for line in result.failures:
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
