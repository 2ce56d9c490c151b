"""Command line interface: run, compare, verify.

Exit codes: 0 success, 1 scenario validation failure, 2 runtime error,
3 broken ledger chain.  Machine-readable output goes to stdout, diagnostics
to stderr as plain text, one line each.
"""

from __future__ import annotations

import argparse
import sys

from .core import GovlabError, canonical_json
from .ledger import StagedFiles, iter_ndjson, ndjson_line, verify_chain
from .scenario import ScenarioValidationError, load_scenario
from .simulation import compare_mechanisms, render_table, report_csv_lines, run

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_LEDGER_BROKEN = 3


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _error(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _parse_seed(value: str) -> int:
    # ASCII decimal digits only, as a scenario's seed is a JSON integer: int() also takes other
    # scripts' digits, "_", a sign and surrounding whitespace.  Any other error type would make
    # argparse name this function in its message.
    try:
        seed = int(value)
        if value.isascii() and value.isdigit() and seed < 2**64:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("seed must be a u64")


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
    scenario = load_scenario(args.scenario)
    ledger_path = args.ledger if args.ledger is not None else f"{args.out}.ledger.jsonl"
    with StagedFiles([args.scenario]) as staged:
        # Opened in the order they are replaced (CSV, report, ledger); the ledger's lines
        # stream into its file as the run appends them, and the other two follow the run,
        # the CSV a line at a time, so no output is held whole.
        csv_file = staged.open(args.csv) if args.csv is not None else None
        report_file = staged.open(args.out)
        write_line = staged.open(ledger_path).write
        result = run(scenario, seed_override=args.seed, ledger_sink=lambda entry: write_line(ndjson_line(entry)))
        if csv_file is not None:
            csv_file.writelines(report_csv_lines(result))
        report_file.write(result.report_json)
        staged.commit()
    _info(f"wrote report to {args.out} and ledger to {ledger_path}")
    print(result.head_hash)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    mechanisms = [m.strip() for m in args.mechanisms.split(",") if m.strip()]
    scenario = load_scenario(args.scenario)
    with StagedFiles([args.scenario]) as staged:
        out = staged.open(args.out)
        merged, rows = compare_mechanisms(scenario, mechanisms, seed_override=args.seed)
        out.write(canonical_json(merged) + "\n")
        staged.commit()
    _info(f"wrote merged report to {args.out}")
    sys.stdout.write(render_table(rows))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    entries = iter_ndjson(args.ledger)  # one entry held at a time
    broken = verify_chain(entries)
    # A malformed line after the break is still an error (exit 2), so the rest is read too.
    for _ in entries:
        pass
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
