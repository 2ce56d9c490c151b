"""Command line interface: run, compare, verify.

Exit codes: 0 success, 1 scenario validation failure, 2 runtime error,
3 broken ledger chain.  Machine-readable output goes to stdout, diagnostics
to stderr.  Set GOVLAB_NO_COLOR (or redirect stderr) to disable styling.
"""

from __future__ import annotations

import argparse
import os
import sys

from .core import GovlabError, canonical_json
from .ledger import _replace_file, read_ndjson, verify_chain, write_ndjson
from .scenario import ScenarioValidationError, load_scenario
from .simulation import compare_mechanisms, render_table, report_csv, run

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_LEDGER_BROKEN = 3


def _style(text: str, code: str) -> str:
    if os.environ.get("GOVLAB_NO_COLOR") or not sys.stderr.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _info(message: str) -> None:
    print(_style(message, "36"), file=sys.stderr)


def _error(message: str) -> None:
    print(_style(f"error: {message}", "31"), file=sys.stderr)


def _parse_seed(value: str) -> int:
    seed = int(value)
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError("seed must be a u64")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="govlab",
        description="Deterministic DAO governance simulations with a tamper-evident ledger.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write its report")
    p_run.add_argument("--scenario", required=True, help="scenario JSON path")
    p_run.add_argument("--out", required=True, help="report JSON output path")
    p_run.add_argument("--seed", type=_parse_seed, default=None, help="override the scenario seed")
    p_run.add_argument(
        "--ledger",
        default=None,
        help="event ledger output path (default: <out>.ledger.jsonl)",
    )
    p_run.add_argument("--csv", default=None, help="also write per-agent realized power CSV")

    p_cmp = sub.add_parser("compare", help="run a scenario under several mechanisms")
    p_cmp.add_argument("--scenario", required=True, help="scenario JSON path")
    p_cmp.add_argument(
        "--mechanisms",
        required=True,
        help="comma-separated list, e.g. token,quadratic,conviction,quorum",
    )
    p_cmp.add_argument("--out", required=True, help="merged report JSON output path")
    p_cmp.add_argument("--seed", type=_parse_seed, default=None, help="override the scenario seed")

    p_ver = sub.add_parser("verify", help="check a persisted ledger's hash chain")
    p_ver.add_argument("--ledger", required=True, help="ledger NDJSON path")
    return parser


def cmd_run(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioValidationError as exc:
        for line in exc.errors:
            _error(line)
        return EXIT_VALIDATION
    result = run(scenario, seed_override=args.seed)
    # Each output is replaced whole.  The CSV goes first, so an error while
    # building it leaves every output as it was.
    if args.csv is not None:
        _replace_file(args.csv, report_csv(result), "utf-8")
    _replace_file(args.out, result.report_json, "ascii")
    ledger_path = args.ledger if args.ledger is not None else f"{args.out}.ledger.jsonl"
    write_ndjson(result.ledger, ledger_path)
    _info(f"wrote report to {args.out} and ledger to {ledger_path}")
    print(result.head_hash)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    mechanisms = [m.strip() for m in args.mechanisms.split(",") if m.strip()]
    try:
        scenario = load_scenario(args.scenario)
        merged, rows = compare_mechanisms(scenario, mechanisms, seed_override=args.seed)
    except ScenarioValidationError as exc:
        for line in exc.errors:
            _error(line)
        return EXIT_VALIDATION
    _replace_file(args.out, canonical_json(merged) + "\n", "ascii")
    _info(f"wrote merged report to {args.out}")
    sys.stdout.write(render_table(rows))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    entries = read_ndjson(args.ledger)
    broken = verify_chain(entries)
    if broken is None:
        print("ok")
        return EXIT_OK
    print(broken)
    return EXIT_LEDGER_BROKEN


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "compare": cmd_compare, "verify": cmd_verify}
    try:
        return handlers[args.command](args)
    except ScenarioValidationError as exc:
        for line in exc.errors:
            _error(line)
        return EXIT_VALIDATION
    except (GovlabError, OSError) as exc:
        _error(str(exc))
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
