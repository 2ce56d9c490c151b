"""Cross-version byte check: run scenarios under this interpreter and compare every output with its pin.

    python3.12 tests/cross_version.py presets
    PYTHONHASHSEED=1 python3.13 tests/cross_version.py workloads
    python3.10 tests/cross_version.py cli
    python3.13 tests/cross_version.py decay
    python3.11 -I tests/cross_version.py context

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

The `decay` suite computes the conviction decay factor of each (rate, dt) of
DECAY_CORPUS from a cold cache and compares its text with the pinned 50 digits,
which the exp route gave.  The power route's error bound rests on the
interpreter's decimal `power`, so each interpreter checks it.  The corpus takes
the power route, the exp route past its hold-time range and below 10^Emin, and
factors that round to 1.  It prints one line per pair.

The `context` suite edits decimal.DefaultContext before the package is
imported (HOSTILE_CONTEXT: five digits, exponents within -5 to 5, a
lowercase exponent mark and Inexact trapped) and makes the main thread's
context a copy of it, then checks the presets as `presets` does, and the two
scenarios of CONTEXT_SCENARIOS against CONTEXT_PINS: a zero quorum threshold
and a nine-digit decay rate, both written in exponent form.  DefaultContext
is process-wide, so the suite runs in a process of its own.

It needs only the standard library and the package under src/, so it runs
under an interpreter that has no pytest.  tests/test_cross_version.py runs it
under each of python3.10 to python3.13 that is installed.
"""

from __future__ import annotations

import ast
import contextlib
import decimal
import hashlib
import importlib.util
import io
import json
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

# (decay rate, dt, 1 - e^(-rate * dt) to 50 digits by the exp route).
DECAY_CORPUS = (
    ("0.000300000", 1, "0.00029995500449966252024898754339122996495372995509"),
    ("0.000300000", 1466, "0.35583475875105483336769261414835145945142591318076"),
    ("0.000300000", 19999, "0.99752050408612563849801773450270024488470446273530"),
    ("0.000300000", 20000, "0.99752124782333364157695483256918333210849352041447"),
    ("0.050000000", 7, "0.29531191028128656564517930096912153181558659391496"),
    ("0.25", 3, "0.52763344725898529286195344905673208702979642086352"),
    ("0.1", 24, "0.90928204671058749662482777992030853313821997151346"),
    ("0.1", 199, "0.99999999772207295879463227076127108472559791659767"),
    ("0.1", 10000, "1.0000000000000000000000000000000000000000000000000"),
    ("0.5", 1, "0.39346934028736657639620046500881954655808186451281"),
    ("0.5", 10000000, "1.0000000000000000000000000000000000000000000000000"),
    ("0.000000001", 1, "9.9999999950000000016666666662500000000833E-10"),
    ("0.000000001", 1000000000, "0.63212055882855767840447622983853913255418886896823"),
    ("0.000000001", 1000000001, "0.63212055919643711939197883090965498209779992822016"),
    ("0.000000001", 123456789012, "1.0000000000000000000000000000000000000000000000000"),
    ("0.000000001", 1000000000000000000, "1.0000000000000000000000000000000000000000000000000"),
    ("0.000000007", 123456789, "0.57861042757746505022101063546934257759818336420786"),
    ("0.999999999", 100, "0.99999999999999999999999999999999999999999996279924"),
    ("1", 1, "0.63212055882855767840447622983853913255418886896823"),
    ("2", 30, "0.99999999999999999999999999124348923730347966151127"),
    ("3.7", 12, "0.99999999999999999994784151077913796315358439057825"),
    ("123.456789012", 17, "1.0000000000000000000000000000000000000000000000000"),
    ("9223372036.854775807", 1, "1.0000000000000000000000000000000000000000000000000"),
)


# The decimal context fields the context suite sets on DefaultContext, besides trapping Inexact.
HOSTILE_CONTEXT = {"prec": 5, "Emin": -5, "Emax": 5, "capitals": 0}

# Two scenarios whose submit event and report write decimals in exponent form: "0E-9", "1E-9", "3.07E-7".
CONTEXT_SCENARIOS = {
    "zero_threshold_quorum": {
        "schema_version": 1, "name": "zero_threshold_quorum", "ticks": 10, "supply": "1", "mechanism": "quorum",
        "quorum": {"basis": "token_supply_fraction", "threshold": "0"},
        "proposals": [{"id": "p1", "options": ["yes", "no"], "discussion_window": [0, 2], "voting_window": [2, 10]}],
        "agents": [{"id": "voter", "kind": "honest", "balance": "1", "preference": ["yes", "no"]}],
    },
    "nano_decay_conviction": {
        "schema_version": 1, "name": "nano_decay_conviction", "ticks": 40, "supply": "1000000000",
        "mechanism": "conviction", "conviction": {"decay_rate": "0.000000001"},
        "proposals": [{"id": "p1", "options": ["yes", "no"], "discussion_window": [0, 2], "voting_window": [2, 40]}],
        "agents": [
            {"id": "ann", "kind": "honest", "balance": "300", "preference": ["yes", "no"]},
            {"id": "bob", "kind": "honest", "balance": "7", "preference": ["no", "yes"], "cast_at": 30},
        ],
    },
}
# The head, report, CSV and NDJSON SHA-256 values of each, as ARTIFACTS orders them.
CONTEXT_PINS = {
    "zero_threshold_quorum": (
        "073eafb878f0e71d24ba9d401a67b33eb52fbe1fd8ea73efc7ff9cc48a2f8492",
        "2dc03ab7baa9da0997ee9b28d717388398f50257a9aface46e538f52c325dc64",
        "63e44f5c7725dc439114d5ba4dec95bbab30c39cafa412dc3c391544cc6a2c4a",
        "0d0f9760b4db3b68301ba35c72fa190bc2cbaf841d712aa8443407246d433d67",
    ),
    "nano_decay_conviction": (
        "06679ee0882f26e50ec23271beb919869784f3b581b9eff603720bdb86b39e94",
        "a5a2e7c965bb9761b058cf51095df107243eace580308382c51f10dc901ca46f",
        "21ac1a19b131ea8508a1fe74b3145139ec9f9034a46ebc983c298ace6227da6d",
        "414f1589f63e4c79adc3eece0395b6cb4299e4b5e0c9e9defbba577fc6a484f0",
    ),
}


def set_hostile(context) -> None:
    """Give a decimal context HOSTILE_CONTEXT's fields and trap Inexact."""
    for name, value in HOSTILE_CONTEXT.items():
        setattr(context, name, value)
    context.traps[decimal.Inexact] = True


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
    if suite == "context":
        return {**scenario_texts("presets"), **{name: json.dumps(obj) for name, obj in CONTEXT_SCENARIOS.items()}}
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


def check_decay() -> int:
    """The decay suite: 0 when each factor of DECAY_CORPUS, computed cold, has its pinned text, else 1."""
    from decimal import Decimal

    from govlab.mechanisms import _decay_base, _decay_factor

    failed = False
    for rate, dt, want in DECAY_CORPUS:
        _decay_factor.cache_clear()
        _decay_base.cache_clear()
        got = str(_decay_factor(Decimal(rate), dt))
        if got != want:
            print(f"FAIL rate {rate} dt {dt}: {got}, pinned {want}")
            failed = True
        else:
            print(f"ok rate {rate} dt {dt} {got[:16]}")
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in ("presets", "workloads", "cli", "decay", "context"):
        print("usage: cross_version.py presets|workloads|cli|decay|context", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # the package in this checkout, never an installed copy
    suite = argv[0]
    print(f"# python {platform.python_version()} PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED', 'unset')} {suite}")
    if suite == "cli":
        return check_cli()
    if suite == "decay":
        return check_decay()
    if suite == "context":  # before govlab is imported, which no suite has done yet
        set_hostile(decimal.DefaultContext)
        decimal.setcontext(decimal.DefaultContext)  # this thread's context becomes a copy of it
        pinned = {**pins()["presets"], **CONTEXT_PINS}
    else:
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
