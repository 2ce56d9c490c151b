"""CLI behavior: exit codes, stdout/stderr separation, and file outputs."""

import json
import os
import subprocess
import sys

import pytest

from govlab.cli import EXIT_LEDGER_BROKEN, EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main
from govlab.core import GovlabError, loads_canonical
from govlab.ledger import read_ndjson, verify_chain
from govlab.scenario import load_preset
from govlab.simulation import run

HEX = set("0123456789abcdef")


@pytest.fixture()
def scenario_path(tmp_path):
    """The shipped wallet-splitting scenario copied to a plain file."""
    import importlib.resources as resources

    text = resources.files("govlab.presets").joinpath("sybil_attack_quadratic.json").read_text()
    path = tmp_path / "scenario.json"
    path.write_text(text)
    return path


@pytest.fixture(autouse=True)
def no_color(monkeypatch):
    monkeypatch.setenv("GOVLAB_NO_COLOR", "1")


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

    def test_failed_run_leaves_existing_outputs_untouched(self, scenario_path, tmp_path, capsys, monkeypatch):
        def broken_csv(result):
            raise GovlabError("csv failed")

        monkeypatch.setattr("govlab.cli.report_csv", broken_csv)
        out, ledger, csv_path = tmp_path / "r.json", tmp_path / "r.jsonl", tmp_path / "agents.csv"
        for path in (out, ledger, csv_path):
            path.write_bytes(b"old bytes\n")
        code = main(
            ["run", "--scenario", str(scenario_path), "--out", str(out), "--ledger", str(ledger), "--csv", str(csv_path)]
        )
        assert code == EXIT_RUNTIME
        assert "csv failed" in capsys.readouterr().err
        for path in (out, ledger, csv_path):
            assert path.read_bytes() == b"old bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["agents.csv", "r.json", "r.jsonl", "scenario.json"]

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

    def test_seed_override_accepts_u64_only(self, scenario_path, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "--scenario", str(scenario_path), "--out", str(tmp_path / "r.json"), "--seed", "-1"])

    def test_rerun_is_byte_identical(self, scenario_path, tmp_path, capsys):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["run", "--scenario", str(scenario_path), "--out", str(out1)])
        first = capsys.readouterr().out
        main(["run", "--scenario", str(scenario_path), "--out", str(out2)])
        second = capsys.readouterr().out
        assert first == second
        assert out1.read_bytes() == out2.read_bytes()


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

    def test_unknown_mechanism_is_a_validation_error(self, scenario_path, tmp_path, capsys):
        code = main(
            [
                "compare",
                "--scenario", str(scenario_path),
                "--mechanisms", "token,approval",
                "--out", str(tmp_path / "m.json"),
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert "unknown mechanism" in captured.err
        assert captured.out == ""

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
            env={**os.environ, "GOVLAB_NO_COLOR": "1"},
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
            env={**os.environ, "GOVLAB_NO_COLOR": "1"},
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
            env={**os.environ, "GOVLAB_NO_COLOR": "1"},
        )
        assert "\x1b[" not in proc.stdout
        assert "\x1b[" not in proc.stderr
