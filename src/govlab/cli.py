"""Command line interface: run, compare, verify.

Exit codes: 0 success, 1 scenario validation failure, 2 runtime error,
3 broken ledger chain.  Machine-readable output goes to stdout, diagnostics
to stderr as plain text, one line each.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .core import GovlabError, canonical_json
from .ledger import StagedFiles, iter_ndjson, ndjson_line, verify_chain
from .scenario import Scenario, ScenarioValidationError, load_scenario
from .simulation import compare_mechanisms, render_table, report_csv_lines, run

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_LEDGER_BROKEN = 3


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _error(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


# Each command's help and flags.  A flag takes one string value and is required or, when
# absent, None; --seed's value is a u64.  build_parser() and _parse_plain() both read this.
COMMANDS = {
    "run": ("run one scenario and write its report", {
        "--scenario": (True, "scenario JSON path"),
        "--out": (True, "report JSON output path"),
        "--seed": (False, "override the scenario seed"),
        "--ledger": (False, "event ledger output path (default: <out>.ledger.jsonl)"),
        "--csv": (False, "also write per-agent realized power CSV"),
    }),
    "compare": ("run a scenario under several mechanisms", {
        "--scenario": (True, "scenario JSON path"),
        "--mechanisms": (True, "comma-separated list, e.g. token,quadratic,conviction,quorum"),
        "--out": (True, "merged report JSON output path"),
        "--seed": (False, "override the scenario seed"),
    }),
    "verify": ("check a persisted ledger's hash chain", {
        "--ledger": (True, "ledger NDJSON path"),
    }),
}


def _u64(value: str) -> int | None:
    """The seed that value spells in ASCII decimal digits, or None when it is not in [0, 2**64).

    Only ASCII digits, as a scenario's seed is a JSON integer: int() also takes other
    scripts' digits, "_", a sign and surrounding whitespace.  The length test comes first,
    so int() never meets a string past its digit limit."""
    if len(value) <= 20 and value.isascii() and value.isdigit() and (seed := int(value)) < 2**64:
        return seed
    return None


def build_parser():
    """The argparse.ArgumentParser of COMMANDS, which gives govlab its help and usage errors."""
    # Imported here: argparse and its first parser cost a command several milliseconds of
    # start-up (README, Cost model), which only an argv that _parse_plain refuses pays.
    import argparse

    def parse_seed(value: str) -> int:
        # argparse prints an ArgumentTypeError's message as it is; for any other error type
        # it would print "invalid parse_seed value" instead.
        seed = _u64(value)
        if seed is None:
            raise argparse.ArgumentTypeError("seed must be a u64")
        return seed

    parser = argparse.ArgumentParser(
        prog="govlab",
        description="Deterministic DAO governance simulations with a tamper-evident ledger.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, flags) in COMMANDS.items():
        p_command = sub.add_parser(command, help=summary)
        for flag, (required, help_text) in flags.items():
            seed_type = parse_seed if flag == "--seed" else None
            p_command.add_argument(flag, required=required, type=seed_type, help=help_text)
    return parser


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """argv parsed against COMMANDS when it has the form every caller uses, else None.

    That form is a command, then flags of that command, each spelt in full, given once and
    followed by a separate string value that does not start with "-", with every required
    flag given and a --seed that is a u64.  argparse parses such an argv to the same values.
    Any other argv, such as --help, an abbreviated flag, --flag=value or a usage error, is
    left to build_parser(), which prints argparse's help or error."""
    if type(argv) is not list or len(argv) % 2 != 1 or any(type(arg) is not str for arg in argv):
        return None
    command = argv[0]
    if command not in COMMANDS:
        return None
    flags = COMMANDS[command][1]
    values = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        if flag not in flags or flag in values or value.startswith("-"):
            return None
        if flag == "--seed" and (value := _u64(value)) is None:
            return None
        values[flag] = value
    if any(required and flag not in values for flag, (required, _) in flags.items()):
        return None
    return SimpleNamespace(command=command, **{flag[2:]: values.get(flag) for flag in flags})


def _scenario(args: SimpleNamespace) -> Scenario:
    """The scenario file, with --seed, which _u64 has checked, in place of its seed."""
    scenario = load_scenario(args.scenario)
    return scenario if args.seed is None else scenario._replace(seed=args.seed)


def cmd_run(args: SimpleNamespace) -> int:
    scenario = _scenario(args)
    ledger_path = args.ledger if args.ledger is not None else f"{args.out}.ledger.jsonl"
    with StagedFiles([args.scenario]) as staged:
        # Opened in the order they are replaced (CSV, report, ledger); the ledger's lines
        # stream into its file as the run appends them, and the other two follow the run,
        # the CSV a line at a time, so no output is held whole.
        csv_file = staged.open(args.csv) if args.csv is not None else None
        report_file = staged.open(args.out)
        write_line = staged.open(ledger_path).write
        result = run(scenario, ledger_sink=lambda entry: write_line(ndjson_line(entry)))
        if csv_file is not None:
            csv_file.writelines(report_csv_lines(result))
        report_file.write(result.report_json)
        staged.commit()
    _info(f"wrote report to {args.out} and ledger to {ledger_path}")
    print(result.head_hash)
    return EXIT_OK


def cmd_compare(args: SimpleNamespace) -> int:
    mechanisms = [m.strip() for m in args.mechanisms.split(",") if m.strip()]
    scenario = _scenario(args)
    with StagedFiles([args.scenario]) as staged:
        out = staged.open(args.out)
        merged, rows = compare_mechanisms(scenario, mechanisms)
        out.write(canonical_json(merged) + "\n")
        staged.commit()
    _info(f"wrote merged report to {args.out}")
    sys.stdout.write(render_table(rows))
    return EXIT_OK


def cmd_verify(args: SimpleNamespace) -> int:
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
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv, namespace=SimpleNamespace())
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
