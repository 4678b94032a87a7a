"""Command line entry point.

Exit codes: 0 on success, 1 when a theorem/lemma check fails (the failing
record is printed), 2 on a config schema violation or an output directory
that cannot be made.  Every other exit leaves a ``summary.json`` in the
output directory; after a config error it holds ``"passed": false`` and the
error text.
"""

from __future__ import annotations

import argparse
import sys

from .errors import CheckFailure, ScenarioError
from .harness import OUT_ENV, bundled_scenarios, make_out_dir, run_config, write_error_summary


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marketlab",
        description="Run auction and Fisher market experiment scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser(
        "run",
        help="execute a scenario config (a JSON path or a bundled scenario name)",
        epilog="Bundled: " + ", ".join(bundled_scenarios()),
    )
    runp.add_argument("config", help="path to a config file or a bundled scenario name")
    runp.add_argument(
        "--out",
        default=None,
        help=f"output directory (default: ${OUT_ENV} or ./results)",
    )
    runp.add_argument(
        "--seed-override",
        type=int,
        default=None,
        metavar="S",
        help="replace every scenario's seed list with this single seed",
    )
    runp.add_argument(
        "--jobs", type=int, default=1, metavar="J", help="worker processes (default 1)"
    )
    runp.add_argument(
        "--filter",
        default=None,
        metavar="SCENARIO_ID",
        help="run only the scenario with this id",
    )
    return parser


def _config_error(out, msg: str) -> int:
    """Exit 2, with a failed ``summary.json`` in the output directory
    ``out``; None when the output directory is itself what is wrong."""
    print(f"scenario error: {msg}", file=sys.stderr)
    if out is None:
        return 2
    try:
        path = write_error_summary(out, msg)
    except OSError as e:
        print(f"cannot write summary.json: {e}", file=sys.stderr)
    else:
        print(f"summary: {path}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        out = make_out_dir(args.out)
    except ScenarioError as e:
        return _config_error(None, str(e))
    if args.jobs < 1:
        return _config_error(out, "--jobs: must be >= 1")
    try:
        report = run_config(
            args.config,
            out_dir=str(out),
            seed_override=args.seed_override,
            jobs=args.jobs,
            only=args.filter,
        )
    except ScenarioError as e:
        return _config_error(out, str(e))
    except CheckFailure as e:
        report = e.report
        for sc in report.scenarios:
            mark = "PASS" if sc.passed else "FAIL"
            print(f"{sc.id}: {mark} ({sc.rows} rows, {sc.seconds:.1f}s) -> {sc.csv_path}")
        print(f"check failed: {e}", file=sys.stderr)
        print(f"summary: {report.summary_path}", file=sys.stderr)
        return 1
    for sc in report.scenarios:
        print(f"{sc.id}: PASS ({sc.rows} rows, {sc.seconds:.1f}s) -> {sc.csv_path}")
    print(f"summary: {report.summary_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
