"""CLI behavior: exit codes, stdout/stderr separation, and file outputs."""

import ast
import gc
import importlib.resources as resources
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from govlab.cli import COMMANDS, EXIT_LEDGER_BROKEN, EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, _parse_plain, build_parser, main
from govlab.core import GovlabError, loads_canonical
from govlab.governance import GovernanceEngine
from govlab.ledger import read_ndjson, verify_chain
from govlab.scenario import MAX_ERRORS, ScenarioValidationError, load_preset, load_scenario, loads_scenario
from govlab.simulation import report_csv_lines, run

HEX = set("0123456789abcdef")
ROOT = Path(__file__).resolve().parent.parent
WORKLOADS_PATH = ROOT / "benchmarks" / "workloads.py"


@pytest.fixture()
def scenario_path(tmp_path):
    """The shipped wallet-splitting scenario copied to a plain file."""
    text = resources.files("govlab.presets").joinpath("sybil_attack_quadratic.json").read_text()
    path = tmp_path / "scenario.json"
    path.write_text(text)
    return path


def _over_cast_budget(text):
    """The preset at the wallet cap, voting in three proposals: 300,000 casts, over their cap."""
    obj = json.loads(text)
    obj["agents"][1]["n_wallets"] = 99_999
    for agent in obj["agents"]:
        del agent["cast_at"]
    obj["proposals"] = [
        {**obj["proposals"][0], "id": f"p{k}", "discussion_window": [6 * k, 6 * k + 1], "voting_window": [6 * k + 1, 6 * k + 6]}
        for k in range(3)
    ]
    return json.dumps(obj)


def test_the_exit_codes_are_the_documented_numbers():
    """The installed `govlab` is main, whose return its wrapper passes to sys.exit, so each test of
    main's code is a test of the exit code."""
    assert 'govlab = "govlab.cli:main"' in (ROOT / "pyproject.toml").read_text("utf-8").splitlines()
    assert (EXIT_OK, EXIT_VALIDATION, EXIT_RUNTIME, EXIT_LEDGER_BROKEN) == (0, 1, 2, 3)


class TestRunCommand:
    def test_success_prints_only_the_head_hash(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["run", "--scenario", str(scenario_path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        lines = captured.out.splitlines()
        assert len(lines) == 1
        assert len(lines[0]) == 64 and set(lines[0]) <= HEX
        assert "wrote report" in captured.err

    def test_report_and_ledger_files_are_written(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["run", "--scenario", str(scenario_path), "--out", str(out)])
        head = capsys.readouterr().out.strip()
        report = loads_canonical(out.read_text())
        assert report["scenario"] == "sybil_attack_quadratic"
        assert report["ledger_head"] == head
        entries = read_ndjson(tmp_path / "report.json.ledger.jsonl")
        assert verify_chain(entries) is None
        assert entries[-1].hash == head

    def test_explicit_ledger_and_csv_paths(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        ledger = tmp_path / "chain.ndjson"
        csv_path = tmp_path / "agents.csv"
        code = main(
            [
                "run",
                "--scenario", str(scenario_path),
                "--out", str(out),
                "--ledger", str(ledger),
                "--csv", str(csv_path),
            ]
        )
        assert code == EXIT_OK
        assert verify_chain(read_ndjson(ledger)) is None
        header = csv_path.read_text().splitlines()[0]
        assert header == "proposal,agent,wallets_counted,counted_tokens,realized_power"

    def test_cli_matches_the_library(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["run", "--scenario", str(scenario_path), "--out", str(out)])
        head = capsys.readouterr().out.strip()
        library = run(load_preset("sybil_attack_quadratic"))
        assert head == library.head_hash
        assert out.read_text() == library.report_json

    def test_input_scenario_is_never_mutated(self, scenario_path, tmp_path, capsys):
        before = scenario_path.read_bytes()
        main(["run", "--scenario", str(scenario_path), "--out", str(tmp_path / "r.json")])
        assert scenario_path.read_bytes() == before

    def test_invalid_scenario_reports_every_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "schema_version": 2,
                    "name": "",
                    "seed": -4,
                    "ticks": 5,
                    "supply": "10",
                    "mechanism": "approval",
                    "proposals": [
                        {
                            "id": "p1",
                            "options": ["a", "b"],
                            "discussion_window": [0, 1],
                            "voting_window": [1, 5],
                        }
                    ],
                    "agents": [
                        {"id": "g", "kind": "honest", "balance": "10", "preference": ["a"]}
                    ],
                }
            )
        )
        code = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "r.json")])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert captured.out == ""
        assert "schema_version" in captured.err
        assert "name" in captured.err
        assert "seed" in captured.err
        assert "mechanism" in captured.err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda text: text.replace('"options": ["option_a", "option_b"]', '"options": [{}, {}]'), "options must be"),
            (lambda text: text.replace('"supply": "22100.000000000"', '"supply": 1e999999'), "supply: quantity exceeds"),
            (lambda text: text.replace('"supply": "22100.000000000"', '"supply": 1e999990'), "supply: quantity exceeds"),
            (lambda text: "[" * 100_000, "malformed JSON: maximum recursion depth"),
            (lambda text: text.replace('"ticks": 20', '"ticks": ' + "9" * 5000), "malformed JSON: Exceeds the limit"),
            (lambda text: text.replace('"n_wallets": 100', '"n_wallets": 10000000'), "wallets in total"),
            (lambda text: _over_cast_budget(text), "wallets x proposals"),
            (
                lambda text: text.replace('"quorum": null', '"quorum": {"basis": {"a": 1}, "threshold": "0.5"}'),
                "quorum.basis must be a participation basis, got {'a': 1}",
            ),
            (
                lambda text: text.replace('"identity": null', '"identity": {"mode": ["x"], "policy": "drop_unverified"}'),
                "identity.mode must be a registry mode, got ['x']",
            ),
            (
                lambda text: text.replace('"identity": null', '"identity": {"mode": "strict_one_wallet", "policy": {}}'),
                "identity.policy must be a vote policy, got {}",
            ),
            (
                lambda text: text.replace('"kind": "honest"', '"kind": {"a": 1}'),
                "agent 'grace': kind must be an agent kind, got {'a': 1}",
            ),
            (
                lambda text: text.replace('"identity_strategy": "one_identity"', '"identity_strategy": []'),
                "agent 'whale': identity_strategy must be an identity strategy, got []",
            ),
        ],
        ids=[
            "unhashable-options", "huge-supply-number", "huge-supply-in-context", "deep-nesting", "huge-ticks-integer", "ten-million-wallets",
            "over-cast-budget", "unhashable-quorum-basis", "unhashable-identity-mode", "unhashable-identity-policy",
            "unhashable-agent-kind", "unhashable-identity-strategy",
        ],
    )
    def test_hostile_values_are_one_validation_error(self, scenario_path, tmp_path, capsys, edit, message):
        text = scenario_path.read_text()
        bad = tmp_path / "bad.json"
        bad.write_text(edit(text))
        assert bad.read_text() != text
        code = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "r.json")])
        err_lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert code == EXIT_VALIDATION
        assert len(err_lines) == 1 and message in err_lines[0]
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "supply", ["\uff11\uff10\uff10\uff10\u0660\n", "\uff12\uff12\uff11\uff10\uff10", "\u0662\u0662100", "22100\n", "22100.5\n"],
        ids=["fullwidth-arabic-indic-newline", "fullwidth", "arabic-indic", "trailing-newline", "fraction-trailing-newline"],
    )
    def test_a_supply_not_in_ascii_digits_is_one_validation_error(self, scenario_path, tmp_path, capsys, supply):
        """A decimal string is ASCII digits, an optional point and fraction, and nothing after."""
        bad = tmp_path / "bad.json"
        bad.write_text(scenario_path.read_text().replace('"22100.000000000"', json.dumps(supply)), encoding="utf-8")
        code = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "r.json")])
        err_lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert code == EXIT_VALIDATION == 1
        assert len(err_lines) == 1 and "supply: malformed decimal string" in err_lines[0], err_lines
        assert not (tmp_path / "r.json").exists()

    def test_error_list_is_capped_with_an_exact_count_of_the_rest(self, tmp_path, capsys):
        """2,500 honest agents rank an option that none of 100 proposals offers: 250,000 errors."""
        proposals = [
            {"id": f"p{k}", "options": ["yes", "no"], "discussion_window": [2 * k, 2 * k + 1], "voting_window": [2 * k + 1, 2 * k + 2]}
            for k in range(100)
        ]
        agents = [{"id": f"v{i}", "kind": "honest", "balance": "1", "preference": ["zz"]} for i in range(2500)]
        text = json.dumps(
            {"schema_version": 1, "name": "n", "ticks": 200, "supply": "2500", "mechanism": "token", "proposals": proposals, "agents": agents}
        )
        with pytest.raises(ScenarioValidationError) as excinfo:
            loads_scenario(text)
        errors = excinfo.value.errors
        assert len(errors) == MAX_ERRORS + 1
        assert errors[0] == "agent 'v0': preference 'zz' not among options of proposal 'p0'"
        assert errors[-1] == f"... and {250_000 - MAX_ERRORS} more"
        assert str(excinfo.value) == "; ".join(errors)

        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "r.json")]) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [f"error: {e}" for e in errors]

    def test_a_long_agent_id_with_500_unknown_keys_is_501_bounded_error_lines(self, tmp_path, capsys):
        """An error quotes a value cut to QUOTED_CHARS characters, so a 20,000-character agent id with
        500 unknown keys is 501 error lines (the id's and one per key) in under 100 kB."""
        obj = json.loads(resources.files("govlab.presets").joinpath("nonprofit_grant_vote.json").read_text())
        obj["agents"][0]["id"] = "x" * 20_000
        obj["agents"][0].update({f"k{k}": 1 for k in range(500)})
        bad = tmp_path / "long-id.json"
        bad.write_text(json.dumps(obj))
        code = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION == 1
        assert sum(line.startswith("error:") for line in err.splitlines()) == 501
        assert len(err.encode()) < 100_000
        assert not (tmp_path / "r.json").exists()

    def test_a_misspelt_agent_key_is_one_validation_error(self, tmp_path, capsys):
        obj = json.loads(resources.files("govlab.presets").joinpath("nonprofit_grant_vote.json").read_text())
        obj["agents"][0]["castAt"] = 3
        bad = tmp_path / "typo.json"
        bad.write_text(json.dumps(obj))
        code = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "r.json")])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert captured.err.splitlines() == ["error: agent 'board_chair': unknown field 'castAt'"]
        assert captured.out == ""
        assert not (tmp_path / "r.json").exists()

    def test_ids_the_engine_would_reject_are_validation_errors(self, scenario_path, tmp_path, capsys):
        obj = json.loads(scenario_path.read_text())
        obj["proposals"][0]["id"] = "bad id!"
        obj["agents"][0]["id"] = "caf\u00e9"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert "proposal #0: id must be" in err
        assert "agent 'caf\u00e9': id must be" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "failure",
        ["csv", "finalize", "interrupt", "missing-ledger-dir", "out-is-a-directory", "out-is-the-ledger", "csv-is-the-out"],
    )
    def test_failed_run_leaves_existing_outputs_untouched(self, scenario_path, tmp_path, capsys, monkeypatch, failure):
        out, ledger, csv_path = tmp_path / "r.json", tmp_path / "r.jsonl", tmp_path / "agents.csv"
        for path in (out, ledger, csv_path):
            path.write_bytes(b"old bytes\n")
        names = ["agents.csv", "r.json", "r.jsonl", "scenario.json"]
        staged_at_finalize, staged_at_csv = [], []

        def failing_finalize(exc):
            def finalize(engine, proposal_id, now):
                # Genesis, submit, phase and the casts have gone to the staged ledger file.
                staged_at_finalize.append((len(engine.ledger), sorted(p.suffix for p in tmp_path.iterdir())))
                raise exc
            return finalize

        def broken_csv(result):
            # The header and a first row go to the staged CSV, then the line generator fails.
            lines = report_csv_lines(result)
            yield next(lines)
            yield next(lines)
            staged_at_csv.append(sorted(p.suffix for p in tmp_path.iterdir()))
            raise GovlabError("csv failed")

        argv_out, argv_ledger, argv_csv, message = out, ledger, csv_path, f"{failure} failed"
        if failure == "csv":
            monkeypatch.setattr("govlab.cli.report_csv_lines", broken_csv)
        elif failure == "finalize":
            monkeypatch.setattr(GovernanceEngine, "finalize", failing_finalize(GovlabError("finalize failed")))
        elif failure == "interrupt":
            monkeypatch.setattr(GovernanceEngine, "finalize", failing_finalize(KeyboardInterrupt()))
        elif failure == "missing-ledger-dir":
            # The ledger is the last output; its directory is missing, so none is replaced.
            argv_ledger, message = tmp_path / "nodir" / "l.jsonl", "nodir"
        elif failure == "out-is-a-directory":
            # Refused while staging: os.replace would fail only at commit, after replacing the CSV.
            argv_out, message = tmp_path / "outdir", "Is a directory"
            argv_out.mkdir()
            names.append("outdir")
        elif failure == "out-is-the-ledger":
            # Refused while staging: the ledger, replaced last, would overwrite the report.
            argv_ledger, message = out, f"{out}: two outputs would be written to this file"
        else:
            # Another spelling of one file is refused too.
            monkeypatch.chdir(tmp_path)
            argv_csv, argv_out, message = os.path.join(".", "r.json"), "r.json", "r.json: two outputs"
        argv = ["run", "--scenario", str(scenario_path), "--out", str(argv_out), "--ledger", str(argv_ledger),
                "--csv", str(argv_csv)]
        if failure == "interrupt":
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            assert main(argv) == EXIT_RUNTIME
            err_lines = capsys.readouterr().err.splitlines()
            assert len(err_lines) == 1 and err_lines[0].startswith("error: ") and message in err_lines[0]
            if failure == "missing-ledger-dir":
                # The error names the ledger path as given, not its temporary file.
                assert f"'{argv_ledger}'" in err_lines[0] and ".tmp" not in err_lines[0]
        if failure in ("finalize", "interrupt"):
            ((streamed, suffixes),) = staged_at_finalize
            assert streamed > 3 and suffixes.count(".tmp") == 3
        if failure == "csv":
            (suffixes,) = staged_at_csv
            assert suffixes.count(".tmp") == 3
        for path in (out, ledger, csv_path):
            assert path.read_bytes() == b"old bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)

    @pytest.mark.slow
    def test_cli_run_peaks_below_the_library_run(self, scenario_path, tmp_path, capsys):
        """The ledger streams into its file, so `govlab run` holds neither the entries that
        run() keeps nor the ledger text: its peak stays below run()'s own."""
        obj = json.loads(scenario_path.read_text())
        obj["agents"][1]["n_wallets"] = 12_000  # one proposal: 12,000 attacker casts
        scenario_path.write_text(json.dumps(obj))
        scenario = load_scenario(scenario_path)

        def peak(fn):
            gc.collect()
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        library = peak(lambda: run(scenario))
        cli = peak(lambda: main(["run", "--scenario", str(scenario_path), "--out", str(tmp_path / "r.json"),
                                 "--csv", str(tmp_path / "agents.csv")]))
        assert len(read_ndjson(tmp_path / "r.json.ledger.jsonl")) > 12_000
        assert cli < library

    def test_outputs_are_replaced_without_leftovers(self, scenario_path, tmp_path, capsys):
        out, csv_path = tmp_path / "r.json", tmp_path / "agents.csv"
        csv_path.write_bytes(b"old bytes\n")
        assert main(["run", "--scenario", str(scenario_path), "--out", str(out), "--csv", str(csv_path)]) == EXIT_OK
        assert csv_path.read_text().startswith("proposal,agent,")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "agents.csv", "r.json", "r.json.ledger.jsonl", "scenario.json"
        ]

    def test_missing_scenario_file_is_a_runtime_error(self, tmp_path, capsys):
        code = main(["run", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path / "r.json")])
        assert code == EXIT_RUNTIME
        assert "error:" in capsys.readouterr().err

    def test_seed_override_accepts_u64_only(self, scenario_path, tmp_path, capsys):
        for seed in ("-1", "abc", "1.5", "", str(2**64), "\u0665", "\uff10", "1_0", " 7", "7 ", "+7"):
            with pytest.raises(SystemExit) as exc:
                main(["run", "--scenario", str(scenario_path), "--out", str(tmp_path / "r.json"), "--seed", seed])
            err = capsys.readouterr().err
            assert exc.value.code == 2  # argparse's usage error
            assert err.startswith("usage: govlab run"), seed
            assert err.endswith("govlab run: error: argument --seed: seed must be a u64\n"), seed
            assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_the_seed_option_replaces_the_scenario_seed(self, scenario_path, tmp_path, capsys, command):
        """With a provider that draws, --seed 5 gives the report of the scenario with seed 5, not 42."""
        identity = '{"mode": "collapse_per_identity", "policy": "drop_unverified", "provider": {"false_accept_rate": "0.5"}}'
        text = scenario_path.read_text().replace('"one_identity"', '"fake_identities"').replace('"identity": null', f'"identity": {identity}')
        scenario_path.write_text(text)
        scenario = loads_scenario(text)
        out = tmp_path / "r.json"
        argv = [command, "--scenario", str(scenario_path), "--out", str(out), "--seed", "5"]
        if command == "compare":
            argv += ["--mechanisms", "quadratic"]
        assert main(argv) == EXIT_OK
        report = json.loads(out.read_text())
        if command == "compare":
            report = report["runs"]["quadratic"]
        assert report == run(scenario._replace(seed=5)).report != run(scenario).report

    def test_rerun_is_byte_identical(self, scenario_path, tmp_path, capsys):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["run", "--scenario", str(scenario_path), "--out", str(out1)])
        first = capsys.readouterr().out
        main(["run", "--scenario", str(scenario_path), "--out", str(out2)])
        second = capsys.readouterr().out
        assert first == second
        assert out1.read_bytes() == out2.read_bytes()


class TestOutputIsTheInput:
    """An output path naming the scenario file is refused before any run, and nothing is written."""

    @pytest.mark.parametrize(
        "command, option",
        [("run", "--out"), ("run", "--ledger"), ("run", "--csv"), ("run", "--out-symlink"), ("compare", "--out")],
    )
    def test_an_output_on_the_scenario_is_refused(self, scenario_path, tmp_path, capsys, monkeypatch, command, option):
        before = scenario_path.read_bytes()

        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr("govlab.cli.run", no_run)
        monkeypatch.setattr("govlab.cli.compare_mechanisms", no_run)
        target = scenario_path
        if option == "--out-symlink":
            option, target = "--out", tmp_path / "link.json"
            target.symlink_to(scenario_path)
        argv = [command, "--scenario", str(scenario_path), "--out", str(tmp_path / "r.json"), option, str(target)]
        if command == "compare":
            argv += ["--mechanisms", "token,quadratic"]
        names = sorted(p.name for p in tmp_path.iterdir())
        assert main(argv) == EXIT_RUNTIME
        assert capsys.readouterr().err.splitlines() == [f"error: {target}: an output would replace an input file"]
        assert scenario_path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == names

    def test_the_default_ledger_path_on_the_scenario_is_refused(self, scenario_path, tmp_path, capsys):
        """--ledger defaults to <out>.ledger.jsonl, which is checked like any other output."""
        ledger = tmp_path / "r.json.ledger.jsonl"
        ledger.write_bytes(scenario_path.read_bytes())
        argv = ["run", "--scenario", str(ledger), "--out", str(tmp_path / "r.json")]
        assert main(argv) == EXIT_RUNTIME
        assert capsys.readouterr().err.splitlines() == [f"error: {ledger}: an output would replace an input file"]
        assert ledger.read_bytes() == scenario_path.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json.ledger.jsonl", "scenario.json"]


class TestStagedPaths:
    """Staging resolves each path once: the scenario when staging starts, each output as it is opened."""

    def test_run_with_a_csv_resolves_each_path_once(self, scenario_path, tmp_path, capsys, monkeypatch):
        resolved, realpath = [], os.path.realpath

        def counted(path, *args, **kwargs):
            resolved.append(os.fspath(path))
            return realpath(path, *args, **kwargs)

        monkeypatch.setattr(os.path, "realpath", counted)
        outputs = [str(tmp_path / name) for name in ("agents.csv", "r.json", "r.jsonl")]
        argv = ["run", "--scenario", str(scenario_path), "--csv", outputs[0], "--out", outputs[1], "--ledger", outputs[2]]
        assert main(argv) == EXIT_OK
        assert resolved == [str(scenario_path), *outputs]

    @pytest.mark.parametrize("refusal", ["input", "output"])
    def test_each_refusal_sees_through_a_symlink(self, scenario_path, tmp_path, capsys, refusal):
        """A symlinked scenario whose file is an output, and an output symlinked to another, are
        refused with the text a plain path gets, and nothing is written."""
        link = tmp_path / "link.json"
        out, ledger, csv_path = tmp_path / "r.json", tmp_path / "r.jsonl", tmp_path / "agents.csv"
        if refusal == "input":
            link.symlink_to(scenario_path)
            scenario, out, named = link, scenario_path, scenario_path
            message = f"{named}: an output would replace an input file"
        else:
            link.symlink_to(out)
            scenario, csv_path, named = scenario_path, link, out
            message = f"{named}: two outputs would be written to this file"
        names = sorted(p.name for p in tmp_path.iterdir())
        argv = ["run", "--scenario", str(scenario), "--csv", str(csv_path), "--out", str(out), "--ledger", str(ledger)]
        assert main(argv) == EXIT_RUNTIME
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert sorted(p.name for p in tmp_path.iterdir()) == names


class TestScenarioFileErrors:
    """A scenario file that cannot be read as one JSON document is one validation error, whichever command reads it."""

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_non_utf8_scenario_is_one_validation_error(self, scenario_path, tmp_path, capsys, command):
        data = scenario_path.read_bytes()
        offset = data.index(b"sybil")
        scenario_path.write_bytes(data[:offset] + b"\xff" + data[offset:])
        out = tmp_path / "r.json"
        argv = [command, "--scenario", str(scenario_path), "--out", str(out)]
        if command == "compare":
            argv += ["--mechanisms", "token,quadratic"]
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [f"error: {scenario_path}: not UTF-8 at byte offset {offset}"]
        assert not out.exists()

    @pytest.mark.parametrize("where", ["top-level", "agent"])
    def test_a_duplicate_key_is_one_validation_error(self, scenario_path, tmp_path, capsys, where):
        text = scenario_path.read_text()
        if where == "top-level":
            text = text.replace('"mechanism": "quadratic"', '"mechanism": "token", "mechanism": "quadratic"', 1)
            key = "mechanism"
        else:
            text = text.replace('"kind": "sybil_attacker"', '"kind": "sybil_attacker", "kind": "honest"', 1)
            key = "kind"
        assert text != scenario_path.read_text()
        scenario_path.write_text(text)
        out = tmp_path / "r.json"
        assert main(["run", "--scenario", str(scenario_path), "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [f"error: malformed JSON: duplicate key {key!r}"]
        assert not out.exists()


class TestVerifyCommand:
    def _written_ledger(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["run", "--scenario", str(scenario_path), "--out", str(out)])
        capsys.readouterr()
        return tmp_path / "report.json.ledger.jsonl"

    def test_intact_chain_prints_ok(self, scenario_path, tmp_path, capsys):
        ledger = self._written_ledger(scenario_path, tmp_path, capsys)
        code = main(["verify", "--ledger", str(ledger)])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "ok\n"

    def test_tampered_chain_prints_the_first_broken_index(self, scenario_path, tmp_path, capsys):
        ledger = self._written_ledger(scenario_path, tmp_path, capsys)
        lines = ledger.read_text().splitlines()
        lines[3] = lines[3].replace("cast", "Cast", 1)
        ledger.write_text("\n".join(lines) + "\n")
        code = main(["verify", "--ledger", str(ledger)])
        captured = capsys.readouterr()
        assert code == EXIT_LEDGER_BROKEN
        assert captured.out == "3\n"

    def test_a_crlf_ledger_verifies_clean(self, scenario_path, tmp_path, capsys):
        ledger = self._written_ledger(scenario_path, tmp_path, capsys)
        ledger.write_bytes(ledger.read_bytes().replace(b"\n", b"\r\n"))
        code = main(["verify", "--ledger", str(ledger)])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "ok\n"

    @pytest.mark.parametrize("separators", [(",", ":"), (", ", ": ")], ids=["compact", "spaced"])
    def test_a_malformed_line_after_the_break_is_still_a_runtime_error(self, scenario_path, tmp_path, capsys, separators):
        """verify streams the entries, and reads on past a break (an edited hash, written compact as
        ndjson_line writes a line or spaced as json.dumps does) to the end of the file."""
        ledger = self._written_ledger(scenario_path, tmp_path, capsys)
        lines = ledger.read_text().splitlines()
        entry = json.loads(lines[1])
        entry["hash"] = "0" * 64
        lines[1] = json.dumps(entry, separators=separators)
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        ledger.write_text("\n".join(lines) + "\n")
        code = main(["verify", "--ledger", str(ledger)])
        captured = capsys.readouterr()
        assert code == EXIT_RUNTIME
        assert captured.out == ""
        assert captured.err.startswith(f"error: line {len(lines)}: malformed JSON")
        assert len(captured.err.splitlines()) == 1

    def test_empty_ledger_verifies_clean(self, tmp_path, capsys):
        empty = tmp_path / "empty.ndjson"
        empty.write_text("")
        code = main(["verify", "--ledger", str(empty)])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "ok\n"

    def test_garbage_file_is_a_runtime_error(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.ndjson"
        garbage.write_text("not a ledger\n")
        code = main(["verify", "--ledger", str(garbage)])
        assert code == EXIT_RUNTIME
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("[" * 100_000, "line 1: malformed JSON: maximum recursion depth"),
            ('{"hash":"' + "0" * 64 + '","index":' + "9" * 5000 + ',"payload":"{}","prev_hash":"' + "0" * 64 + '"}',
             "line 1: malformed JSON: Exceeds the limit"),
        ],
        ids=["deep-nesting", "huge-index-integer"],
    )
    def test_hostile_json_is_one_runtime_error(self, tmp_path, capsys, line, message):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(line + "\n")
        code = main(["verify", "--ledger", str(bad)])
        captured = capsys.readouterr()
        assert code == EXIT_RUNTIME
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith(f"error: {message}")

    def test_missing_file_is_a_runtime_error(self, tmp_path, capsys):
        code = main(["verify", "--ledger", str(tmp_path / "nope.ndjson")])
        assert code == EXIT_RUNTIME

    def test_non_utf8_file_is_a_runtime_error_naming_the_byte(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\xff\xfe x\n")
        code = main(["verify", "--ledger", str(bad)])
        captured = capsys.readouterr()
        assert code == EXIT_RUNTIME
        assert captured.out == ""
        assert captured.err == f"error: {bad}: not UTF-8 at byte offset 0\n"

    def test_lone_surrogate_payload_is_a_runtime_error_naming_the_line(
        self, scenario_path, tmp_path, capsys
    ):
        ledger = self._written_ledger(scenario_path, tmp_path, capsys)
        bad = json.dumps({"hash": "0" * 64, "index": 99, "payload": "\ud800", "prev_hash": "0" * 64})
        lines = ledger.read_text().splitlines()
        ledger.write_text("\n".join([lines[0], bad, *lines[1:]]) + "\n")
        code = main(["verify", "--ledger", str(ledger)])
        captured = capsys.readouterr()
        assert code == EXIT_RUNTIME
        assert captured.out == ""
        assert captured.err == "error: line 2: payload holds a lone surrogate at offset 0\n"


    def test_malformed_hash_is_a_runtime_error_naming_the_line(self, scenario_path, tmp_path, capsys):
        ledger = self._written_ledger(scenario_path, tmp_path, capsys)
        lines = ledger.read_text().splitlines()
        entry = json.loads(lines[2])
        entry["hash"] = entry["hash"].upper()
        lines[2] = json.dumps(entry)
        ledger.write_text("\n".join(lines) + "\n")
        code = main(["verify", "--ledger", str(ledger)])
        captured = capsys.readouterr()
        assert code == EXIT_RUNTIME
        assert captured.out == ""
        assert captured.err == f"error: line 3: hash must be 64 lowercase hex chars: {entry['hash']!r}\n"


class TestCompareCommand:
    def test_table_and_merged_report(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "merged.json"
        code = main(
            [
                "compare",
                "--scenario", str(scenario_path),
                "--mechanisms", "token,quadratic,conviction",
                "--out", str(out),
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_OK
        lines = captured.out.splitlines()
        assert lines[0].split() == [
            "mechanism", "outcome", "gini", "amplification", "conviction_at_finalize",
        ]
        cells = {line.split()[0]: line.split() for line in lines[1:]}
        assert cells["token"][1:] == ["winner(option_a)", "0.537610322", "1.000000000", "-"]
        assert cells["quadratic"][1:] == ["winner(option_b)", "0.089198109", "10.000000000", "-"]
        assert cells["conviction"][1:] == [
            "winner(option_a)", "0.537610322", "1.000000000", "21580.257816542",
        ]
        merged = loads_canonical(out.read_text())
        assert merged["mechanisms"] == ["token", "quadratic", "conviction"]
        assert set(merged["runs"]) == {"token", "quadratic", "conviction"}

    def test_single_mechanism_table(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "merged.json"
        code = main(
            ["compare", "--scenario", str(scenario_path), "--mechanisms", "token", "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "conviction_at_finalize" not in captured.out
        assert len(captured.out.splitlines()) == 2

    @pytest.mark.parametrize("unknown", ["approval", "bogus"])
    def test_unknown_mechanism_is_a_validation_error(self, scenario_path, tmp_path, capsys, unknown):
        out = tmp_path / "m.json"
        code = main(["compare", "--scenario", str(scenario_path), "--mechanisms", f"token,{unknown}", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert captured.err.splitlines() == [
            f"error: unknown mechanism {unknown!r}; expected one of token, quorum, quadratic, conviction"
        ]
        assert captured.out == ""
        assert not out.exists()

    def test_mechanisms_missing_their_config_are_validation_errors(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(resources.files("govlab.presets").joinpath("plurality_iia_probe.json").read_text())
        out = tmp_path / "m.json"
        code = main(["compare", "--scenario", str(path), "--mechanisms", "token,quorum,conviction", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: mechanism 'quorum' requires a quorum config",
            "error: mechanism 'conviction' requires conviction params",
        ]
        assert not out.exists()

    def test_invalid_scenario_file_is_a_validation_error(self, scenario_path, tmp_path, capsys):
        scenario_path.write_text(scenario_path.read_text().replace('"seed": 42', '"seed": -1').replace('"ticks": 20', '"ticks": -2'))
        out = tmp_path / "m.json"
        code = main(["compare", "--scenario", str(scenario_path), "--mechanisms", "token,quadratic", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert captured.out == ""
        errors = captured.err.splitlines()
        assert errors[:2] == ["error: seed must be a u64, got -1", "error: ticks must be a non-negative integer horizon, got -2"]
        assert all(line.startswith("error: ") for line in errors)
        assert not out.exists()

    def test_sybil_identity_workload_quadratic_run_equals_a_standalone_run(self, tmp_path, capsys):
        """compare on the seed-1 sybil_identity benchmark workload prints a header and two rows, and its
        quadratic run is the report `run` writes for the scenario, whose mechanism is quadratic."""
        spec = importlib.util.spec_from_file_location("govlab_bench_workloads", WORKLOADS_PATH)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        scenario = tmp_path / "sybil.json"
        scenario.write_text(workloads.scenario_text("sybil_identity", 1))
        merged, report = tmp_path / "compare.json", tmp_path / "report.json"
        assert main(["compare", "--scenario", str(scenario), "--mechanisms", "token,quadratic", "--out", str(merged)]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 3
        assert main(["run", "--scenario", str(scenario), "--out", str(report)]) == EXIT_OK
        assert json.loads(merged.read_text())["runs"]["quadratic"] == json.loads(report.read_text())

    def test_columns_align(self, scenario_path, tmp_path, capsys):
        main(
            [
                "compare",
                "--scenario", str(scenario_path),
                "--mechanisms", "token,quadratic",
                "--out", str(tmp_path / "m.json"),
            ]
        )
        lines = capsys.readouterr().out.splitlines()
        starts = [line.index("winner") if "winner" in line else None for line in lines[1:]]
        assert len(set(starts)) == 1


class TestProcessLevel:
    def test_console_script_round_trip(self, scenario_path, tmp_path):
        """End to end through a real process: run, then verify the ledger it wrote."""
        out = tmp_path / "report.json"
        proc = subprocess.run(
            [sys.executable, "-m", "govlab.cli", "run", "--scenario", str(scenario_path), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        head = proc.stdout.strip()
        assert len(head) == 64 and set(head) <= HEX
        proc2 = subprocess.run(
            [
                sys.executable, "-m", "govlab.cli",
                "verify", "--ledger", str(tmp_path / "report.json.ledger.jsonl"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc2.returncode == EXIT_OK
        assert proc2.stdout == "ok\n"

    def test_no_ansi_codes_with_color_disabled(self, scenario_path, tmp_path):
        proc = subprocess.run(
            [
                sys.executable, "-m", "govlab.cli",
                "run", "--scenario", str(scenario_path), "--out", str(tmp_path / "r.json"),
            ],
            capture_output=True,
            text=True,
        )
        assert "\x1b[" not in proc.stdout
        assert "\x1b[" not in proc.stderr

    def test_an_error_on_a_terminal_is_one_plain_line(self, tmp_path):
        """Stderr attached to a terminal gets the same single error line as a pipe, with no escape codes."""
        try:
            master, terminal = os.openpty()
        except (AttributeError, OSError) as exc:
            pytest.skip(f"no pseudo-terminal here: {exc}")
        with os.fdopen(master, "rb", buffering=0) as screen:
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "govlab.cli", "verify", "--ledger", str(tmp_path / "missing.jsonl")],
                    stdout=subprocess.PIPE,
                    stderr=terminal,
                )
            finally:
                os.close(terminal)
            shown = b""
            while True:
                try:
                    chunk = screen.read(4096)
                except OSError:  # Linux raises EIO once every writer of the terminal has closed it
                    break
                if not chunk:
                    break
                shown += chunk
        assert proc.returncode == EXIT_RUNTIME
        assert proc.stdout == b""
        assert b"\x1b[" not in shown
        lines = shown.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


VALUES = ["P", "", "-", "-1", "--x", "\u0663", "7", "18446744073709551616"]
STRAYS = ["-h", "--help", "--", *VALUES, *sorted({flag for _, flags in COMMANDS.values() for flag in flags})]


@st.composite
def edited_argvs(draw):
    """A command (or "bogus") with some of its flags, each exact and followed by a value, then up
    to two edits: a token abbreviated, a flag attached to its value (--flag=v), a flag and value
    repeated, a token dropped or a stray token inserted."""
    command = draw(st.sampled_from(["run", "compare", "verify", "bogus"]))
    flags = COMMANDS.get(command, COMMANDS["run"])[1]
    argv = [command]
    for flag in draw(st.permutations(list(flags))):
        if flags[flag][0] or draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(["P", "7"] * 4 + VALUES))]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(1, len(argv) - 1))
        edit = draw(st.sampled_from(["abbreviate", "attach", "repeat", "drop", "insert"]))
        if edit == "abbreviate":
            argv[at] = argv[at][:5]
        elif edit == "attach":
            argv[at:at + 2] = ["=".join(argv[at:at + 2])]
        elif edit == "repeat":
            argv += argv[at:at + 2]
        elif edit == "drop":
            del argv[at]
        else:
            argv.insert(at, draw(st.sampled_from(STRAYS)))
    return argv


def _benchmark_argvs():
    """Each argv that benchmarks/cold_start.py and benchmarks/run.py pass to main, a non-literal element read as "P"."""
    for name in ("cold_start.py", "run.py"):
        for node in ast.walk(ast.parse((ROOT / "benchmarks" / name).read_text("utf-8"))):
            if isinstance(node, ast.List) and node.elts and getattr(node.elts[0], "value", None) in COMMANDS:
                yield [element.value if isinstance(element, ast.Constant) else "P" for element in node.elts]


def _console_step_argvs():
    """The arguments of each govlab call in CI's console-script step, shell variables left as written."""
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text("utf-8")
    step = workflow[workflow.index("- name: Console script"):]
    script = step[step.index("run: |"):step.index("\n      - name:")]
    for call in re.findall(r"(?:^\s*|\$\()govlab (.*?)(?:\)|\s+>|$)", script, re.MULTILINE):
        yield shlex.split(call)


class TestArgvParsing:
    """main parses the argv every caller uses against COMMANDS; argparse parses the rest."""

    @settings(max_examples=500)
    @given(edited_argvs())
    def test_the_table_parses_as_argparse_does(self, argv):
        args = _parse_plain(argv)
        if args is not None:
            assert vars(args) == vars(build_parser().parse_args(argv))

    def test_the_benchmark_argvs_take_the_table_path(self):
        argvs = list(_benchmark_argvs())
        assert [argv[0] for argv in argvs] == ["run", "run", "verify"]
        assert all(_parse_plain(argv) is not None for argv in argvs), argvs

    def test_the_console_step_argvs_take_the_table_path_but_two(self):
        """CI's smoke step runs a preset and verifies its ledger through the installed entry point;
        its `govlab --help` and `govlab verify --led` are there to exercise argparse through it."""
        argvs = list(_console_step_argvs())
        assert argvs == [
            ["run", "--scenario", "src/govlab/presets/nonprofit_grant_vote.json", "--out", "$RUNNER_TEMP/report.json"],
            ["verify", "--ledger", "$ledger"],
            ["--help"],
            ["verify", "--led", "$ledger"],
        ]
        via_argparse = [argv for argv in argvs if _parse_plain(argv) is None]
        assert via_argparse == [["--help"], ["verify", "--led", "$ledger"]]

    @pytest.mark.parametrize(
        "argv",
        [["run", "--scen", "S", "--out", "R"], ["run", "--scenario=S", "--out", "R"], ["verify", "--ledger", "K", "--ledger", "L"]],
    )
    def test_argparse_values_reach_the_command(self, argv, monkeypatch):
        """An abbreviated, attached or repeated flag gives the command the values argparse parsed."""
        seen = []
        monkeypatch.setattr("govlab.cli.cmd_run", lambda args: seen.append(vars(args)) or EXIT_OK)
        monkeypatch.setattr("govlab.cli.cmd_verify", lambda args: seen.append(vars(args)) or EXIT_OK)
        assert _parse_plain(argv) is None
        assert main(argv) == EXIT_OK
        assert seen == [vars(build_parser().parse_args(argv))]
