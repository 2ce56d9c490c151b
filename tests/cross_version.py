"""Cross-version byte check: run scenarios under this interpreter and compare every output with its pin.

    python3.12 tests/cross_version.py presets
    PYTHONHASHSEED=1 python3.13 tests/cross_version.py workloads

For each preset (`presets`) or each benchmark workload's seed-1 scenario
(`workloads`) it runs the scenario twice, through `govlab.simulation.run` and
through `govlab run --csv`, replays the ledger, and compares four SHA-256
values of each with the pins in tests/test_golden.py: the ledger head, the
report JSON, the per-agent CSV and the NDJSON dump.  It prints one line per
case, "ok" or "FAIL" with the differing artifacts, and exits 1 when any case
fails.

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
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "test_golden.py"
ARTIFACTS = ("head", "report", "csv", "ndjson")


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


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in ("presets", "workloads"):
        print("usage: cross_version.py presets|workloads", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # the package in this checkout, never an installed copy
    suite = argv[0]
    pinned = pins()[suite]
    texts = scenario_texts(suite)
    print(f"# python {platform.python_version()} PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED', 'unset')} {suite}")
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
