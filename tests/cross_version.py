"""Cross-version byte check: run scenarios under this interpreter and compare every output with its pin.

    python3.12 tests/cross_version.py presets
    PYTHONHASHSEED=1 python3.13 tests/cross_version.py workloads
    python3.10 tests/cross_version.py cli

For each preset (`presets`) or each benchmark workload's seed-1 scenario
(`workloads`) it runs the scenario twice, through `govlab.simulation.run` and
through `govlab run --csv`, replays the ledger, and compares four SHA-256
values of each with the pins in tests/test_golden.py: the ledger head, the
report JSON, the per-agent CSV and the NDJSON dump.  It prints one line per
case, "ok" or "FAIL" with the differing artifacts, and exits 1 when any case
fails.

The `cli` suite parses each argv of CLI_CORPUS both from govlab.cli's table
and with argparse, whose parsing differs between Python versions.  Each argv
the table parses must be one the corpus marks so, and argparse must parse it
to the same values; each other argv must be left to argparse.  It prints one
line per argv, with the path taken and argparse's outcome.

It needs only the standard library and the package under src/, so it runs
under an interpreter that has no pytest.  tests/test_cross_version.py runs it
under each of python3.10 to python3.13 that is installed.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import importlib.util
import io
import os
import platform
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "test_golden.py"
ARTIFACTS = ("head", "report", "csv", "ndjson")
_BAD_SEEDS = ("-1", "18446744073709551616", "\u0663", "\uff10", " 7", "7 ", "+7", "1_0", "1.5", "", "1" * 5000)
# Each argv, and whether govlab.cli parses it from its table (True) or leaves it to argparse.
CLI_CORPUS = (
    (["run", "--scenario", "P", "--out", "R"], True),
    (["run", "--scenario", "P", "--out", "R", "--seed", "0", "--ledger", "L", "--csv", "C"], True),
    (["run", "--csv", "C", "--seed", "18446744073709551615", "--out", "R", "--scenario", "P"], True),
    (["run", "--scenario", "", "--out", "R"], True),
    (["run", "--scenario", "P Q", "--out", " -R"], True),
    (["run", "--scenario", "verify", "--out", "a=b"], True),
    (["run", "--scenario", "\u0663", "--out", "R", "--seed", "007"], True),
    (["compare", "--scenario", "P", "--mechanisms", "token,quadratic", "--out", "R"], True),
    (["compare", "--out", "R", "--mechanisms", "", "--scenario", "P", "--seed", "7"], True),
    (["verify", "--ledger", "L"], True),
    ([], False),
    (["--help"], False),
    (["-h"], False),
    (["--", "verify", "--ledger", "L"], False),
    (["bogus"], False),
    (["bogus", "--ledger", "L"], False),
    (["run"], False),
    (["run", "--help"], False),
    (["verify", "-h", "--ledger", "L"], False),
    (["verify", "--ledger", "L", "--help"], False),
    (["run", "--scen", "P", "--out", "R"], False),
    (["verify", "--led", "L"], False),
    (["verify", "--LEDGER", "L"], False),
    (["run", "--scenario=P", "--out", "R"], False),
    (["verify", "--ledger=L"], False),
    (["verify", "--ledger", "L", "--ledger", "M"], False),
    (["run", "--scenario", "P", "--out", "R", "--out", "S"], False),
    (["verify", "--ledger", "L", "--"], False),
    (["verify", "--", "--ledger", "L"], False),
    (["verify", "--ledger", "-"], False),
    (["verify", "--ledger", "-1"], False),
    (["verify", "--ledger", "--x"], False),
    (["verify", "--ledger", "-x y"], False),
    (["verify", "--ledger"], False),
    (["verify"], False),
    (["run", "--scenario", "P"], False),
    (["compare", "--scenario", "P", "--out", "R"], False),
    (["run", "--scenario", "P", "--out", "R", "extra"], False),
    (["verify", "--ledger", "L", "--csv", "C"], False),
    *((["run", "--scenario", "P", "--out", "R", "--seed", seed], False) for seed in _BAD_SEEDS),
)


def pins() -> dict[str, dict[str, tuple[str, str, str, str]]]:
    """The PRESETS and WORKLOADS tables of tests/test_golden.py, read as literals without importing it."""
    tables = {}
    for node in ast.parse(GOLDEN.read_text("utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            if (name := node.targets[0].id) in ("PRESETS", "WORKLOADS"):
                tables[name.lower()] = ast.literal_eval(node.value)
    return tables


def _sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def scenario_texts(suite: str) -> dict[str, str]:
    if suite == "presets":
        presets = ROOT / "src" / "govlab" / "presets"
        return {path.stem: path.read_text("utf-8") for path in sorted(presets.glob("*.json"))}
    spec = importlib.util.spec_from_file_location("govlab_bench_workloads", ROOT / "benchmarks" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return {name: workloads.scenario_text(name, 1) for name in sorted(workloads.WORKLOADS)}


def fingerprint(text: str) -> tuple[str, str, str, str]:
    """The four SHA-256 values of a run() of the scenario, after its ledger replays to its head."""
    from govlab.governance import replay
    from govlab.ledger import dump_ndjson
    from govlab.scenario import loads_scenario
    from govlab.simulation import report_csv, run

    result = run(loads_scenario(text))
    entries = tuple(result.ledger)
    if replay(entries).ledger.head_hash() != result.head_hash:
        raise AssertionError("the replayed head differs from the run's")
    return result.head_hash, _sha256(result.report_json), _sha256(report_csv(result)), _sha256(dump_ndjson(entries))


def cli_fingerprint(text: str) -> tuple[str, str, str, str]:
    """The same four values from the files `govlab run --csv` writes, after its ledger file replays."""
    from govlab.cli import main
    from govlab.governance import replay
    from govlab.ledger import read_ndjson

    with tempfile.TemporaryDirectory() as folder:
        scenario, report, ledger, csv = (Path(folder, name) for name in ("s.json", "r.json", "l.jsonl", "a.csv"))
        scenario.write_text(text, encoding="utf-8")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["run", "--scenario", str(scenario), "--out", str(report), "--ledger", str(ledger), "--csv", str(csv)])
        if code != 0:
            raise AssertionError(f"govlab run exited {code}: {stderr.getvalue().strip()}")
        head = stdout.getvalue().strip()
        if replay(read_ndjson(ledger)).ledger.head_hash() != head:
            raise AssertionError("the replayed ledger file's head differs from the run's")
        return head, _sha256(report.read_bytes()), _sha256(csv.read_bytes()), _sha256(ledger.read_bytes())


def check_cli() -> int:
    """The cli suite: 0 when each argv of CLI_CORPUS takes its path and the two parsers agree, else 1."""
    from govlab.cli import _parse_plain, build_parser

    failed = False
    for argv, plain in CLI_CORPUS:
        table = _parse_plain(argv)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                parsed = vars(build_parser().parse_args(argv))
            except SystemExit as exc:
                parsed = f"exit {exc.code}"
        shown = shlex.join(arg[:30] for arg in argv) or "(no arguments)"
        if (table is not None) != plain:
            print(f"FAIL {shown}: {'parsed' if table is not None else 'refused'} by the table, argparse gives {parsed}")
            failed = True
        elif table is not None and vars(table) != parsed:
            print(f"FAIL {shown}: the table gives {vars(table)}, argparse {parsed}")
            failed = True
        else:
            print(f"ok {'table' if plain else 'argparse'} {shown} -> {'parsed' if isinstance(parsed, dict) else parsed}")
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in ("presets", "workloads", "cli"):
        print("usage: cross_version.py presets|workloads|cli", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # the package in this checkout, never an installed copy
    suite = argv[0]
    print(f"# python {platform.python_version()} PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED', 'unset')} {suite}")
    if suite == "cli":
        return check_cli()
    pinned = pins()[suite]
    texts = scenario_texts(suite)
    failed = sorted(set(pinned) ^ set(texts))
    for name in failed:
        print(f"FAIL {name}: pinned in tests/test_golden.py or generated, not both")
    for name in sorted(set(pinned) & set(texts)):
        for via, measure in (("library", fingerprint), ("cli", cli_fingerprint)):
            try:
                got = measure(texts[name])
            except Exception as exc:  # reported as the case's failure, not a traceback
                wrong = [f"{type(exc).__name__}: {exc}"]
            else:
                wrong = [f"{artifact} differs" for artifact, a, b in zip(ARTIFACTS, got, pinned[name]) if a != b]
            if wrong:
                print(f"FAIL {name} {via}: {', '.join(wrong)}")
                failed.append(name)
            else:
                print(f"ok {name} {via} {got[0][:16]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
