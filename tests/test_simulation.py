"""Inequality metrics, deterministic scenario runs, and mechanism comparison."""

import copy
import gc
import importlib.util
import sys
from collections import Counter
import time
import tracemalloc
from decimal import Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from govlab import core
from govlab import events as events_module
from govlab import mechanisms
from govlab import simulation as simulation_module
from govlab.core import NANO, TokenAmount, VoteRecord, canonical_json, fmt_units, loads_canonical, parse_units
from govlab.governance import GovernanceEngine, Proposal, Window, replay
from govlab.ledger import LedgerError, dump_ndjson, load_ndjson
from govlab.mechanisms import Mechanism, config_error
from govlab.scenario import MAX_CASTS, MAX_WALLETS, AgentKind, ScenarioValidationError, load_preset, loads_scenario, parse_scenario, preset_names
from govlab.simulation import (
    SimulationError,
    compare_mechanisms,
    gini,
    min_controlling_set,
    proposal_entry,
    build_setup,
    render_table,
    report_csv,
    run,
)
from govlab.sybil import sybil_gain

from cross_version import CONTEXT_SCENARIOS, set_hostile
from oracles import controlling_set_exhaustive, gini_pairwise_units, report_csv_ref, run_with_counts

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"


def _bench_workloads():
    """The benchmark's scenario generators, read only."""
    spec = importlib.util.spec_from_file_location("govlab_bench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _powers(*values):
    return [v * NANO for v in values]


unit_lists = st.lists(st.integers(min_value=0, max_value=10**15), min_size=1, max_size=40).filter(
    lambda xs: any(xs)
)


class TestGini:
    def test_single_whale_among_four(self):
        # One holder of everything among four voters: G = 3/4.
        assert gini(_powers(0, 0, 0, 100)) == Decimal("0.750000000")

    def test_two_to_one_split(self):
        assert gini(_powers(1, 3)) == Decimal("0.250000000")

    def test_equal_powers_give_exactly_zero(self):
        assert gini(_powers(7, 7, 7, 7, 7)) == Decimal("0E-9")
        assert gini(_powers(7, 7, 7, 7, 7)) == Decimal("0.000000000")

    def test_empty_is_undefined(self):
        with pytest.raises(SimulationError, match="undefined for empty or all-zero"):
            gini([])

    def test_all_zero_is_undefined(self):
        with pytest.raises(SimulationError, match="undefined for empty or all-zero"):
            gini(_powers(0, 0, 0))

    def test_order_does_not_matter(self):
        assert gini(_powers(5, 1, 3)) == gini(_powers(3, 5, 1))

    @given(unit_lists)
    @settings(max_examples=100)
    def test_matches_pairwise_oracle_within_one_ulp(self, units):
        ours = gini(units)
        oracle = Decimal(gini_pairwise_units(units)).scaleb(-9)
        assert abs(ours - oracle) <= Decimal("0.000000001")

    @given(unit_lists)
    @settings(max_examples=60)
    def test_stays_in_the_unit_interval(self, units):
        value = gini(units)
        assert Decimal(0) <= value < Decimal(1)


class TestMinControllingSet:
    def test_one_whale_controls_alone(self):
        assert min_controlling_set(_powers(60, 30, 10)) == 1

    def test_balanced_triple_needs_two(self):
        assert min_controlling_set(_powers(40, 35, 25)) == 2

    def test_equal_powers_need_a_majority_of_voters(self):
        assert min_controlling_set(_powers(10, 10, 10, 10)) == 3

    def test_exact_half_is_not_control(self):
        # 50 equals the other half; control requires strictly more.
        assert min_controlling_set(_powers(50, 30, 20)) == 2

    def test_empty_is_undefined(self):
        with pytest.raises(SimulationError, match="no controlling set"):
            min_controlling_set([])

    def test_all_zero_is_undefined(self):
        with pytest.raises(SimulationError, match="no controlling set"):
            min_controlling_set(_powers(0, 0))

    @given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=10).filter(lambda xs: any(xs)))
    @settings(max_examples=100)
    def test_matches_exhaustive_subset_search(self, units):
        assert min_controlling_set(units) == controlling_set_exhaustive(units)


class TestRunDeterminism:
    def test_same_scenario_same_bytes(self):
        scenario = load_preset("sybil_attack_quadratic")
        first = run(scenario)
        second = run(scenario)
        assert first.report_json == second.report_json
        assert first.head_hash == second.head_hash

    def test_seed_does_not_leak_into_randomness_free_runs(self):
        """Without a fraud provider no randomness is drawn, so the seed is inert."""
        scenario = load_preset("sybil_attack_quadratic")
        baseline = run(scenario)
        reseeded = run(scenario._replace(seed=999))
        assert baseline.report_json == reseeded.report_json
        assert baseline.head_hash == reseeded.head_hash

    def test_report_json_is_canonical_and_omits_the_seed(self):
        result = run(load_preset("sybil_attack_quadratic"))
        report = loads_canonical(result.report_json)
        assert report == result.report
        assert "seed" not in result.report
        assert result.report["schema_version"] == 1

    def test_head_hash_matches_the_ledger(self):
        result = run(load_preset("sybil_attack_quadratic"))
        assert result.head_hash == result.ledger.head_hash()
        assert result.report["ledger_head"] == result.head_hash


class TestCallerDecimalContext:
    @pytest.mark.parametrize("name", sorted(CONTEXT_SCENARIOS))
    def test_a_hostile_thread_context_changes_no_byte(self, name):
        """Five digits, exponents within -5 to 5, a lowercase exponent mark and an Inexact trap
        in the caller's context: the report, head, CSV and ledger equal a plain run's, and the
        ledger, which writes "0E-9" or "1E-9" in its submit event, replays under that context."""
        scenario = parse_scenario(CONTEXT_SCENARIOS[name])
        plain = run(scenario)
        with localcontext() as context:
            set_hostile(context)
            hostile = run(scenario)
            csv, ndjson = report_csv(hostile), dump_ndjson(hostile.ledger)
            replayed = replay(load_ndjson(ndjson))
        assert (hostile.report_json, hostile.head_hash) == (plain.report_json, plain.head_hash)
        assert (csv, ndjson) == (report_csv(plain), dump_ndjson(plain.ledger))
        assert replayed.ledger.head_hash() == plain.head_hash


class TestProposalEntry:
    """proposal_entry gives every report field that a replay of the ledger determines."""

    @pytest.mark.parametrize("name", [*preset_names(), "crowd_quadratic", "sybil_identity", "conviction_horizon"])
    def test_a_replayed_ledger_gives_the_engine_fields_of_the_report(self, name, monkeypatch):
        """The presets and the benchmark workloads at seed 1: every field but sybil_amplification,
        and the top level but the binding counts and arrow_probes, from the replayed engine alone."""
        if name in preset_names():
            scenario = load_preset(name)
        else:
            scenario = loads_scenario(_bench_workloads().scenario_text(name, 1))
        result = run(scenario)
        replayed = {}
        finalize = GovernanceEngine.finalize

        def spy(engine, proposal_id, now):
            votes, tally = finalize(engine, proposal_id, now)
            replayed[proposal_id] = proposal_entry(engine, proposal_id, tally)
            return votes, tally

        monkeypatch.setattr(GovernanceEngine, "finalize", spy)
        engine = replay(tuple(result.ledger))
        report = result.report
        assert replayed == {
            p["id"]: {k: v for k, v in p.items() if k != "sybil_amplification"} for p in report["proposals"]
        }
        assert report["scenario"] == engine.scenario
        assert report["mechanism"] == engine.mechanism
        assert report["supply"] == str(engine.supply)
        assert report["wallet_universe_size"] == len(engine.balances)
        assert report["ledger_head"] == engine.ledger.head_hash()
        if engine.identity is None:
            assert report["identity"] is None
        else:
            assert report["identity"]["mode"] == engine.identity.registry.mode.value
            assert report["identity"]["policy"] == engine.identity.policy.value

    def test_zero_supply_gives_zero_fractions(self):
        """A supply of 0 held by one zero-balance abstainer: nothing to divide by on the token basis."""
        scenario = parse_scenario({
            "schema_version": 1, "name": "empty", "ticks": 5, "supply": "0", "mechanism": "token",
            "proposals": [{"id": "p1", "options": ["yes", "no"], "discussion_window": [0, 1], "voting_window": [1, 3]}],
            "agents": [{"id": "a", "kind": "abstainer", "balance": "0"}],
        })
        [entry] = run(scenario).report["proposals"]
        assert entry["participation"] == {"token_supply_fraction": "0E-9", "wallet_count_fraction": "0E-9"}

    def test_an_empty_wallet_universe_gives_a_zero_wallet_fraction(self):
        """No run funds zero wallets, but a replayed ledger can hold such a genesis."""
        engine = GovernanceEngine(balances={}, supply=TokenAmount(0))
        engine.submit(Proposal("p1", ("yes", "no"), Window(0, 1), Window(1, 3), Mechanism.TOKEN), 0)
        _, result = engine.finalize("p1", 3)
        entry = proposal_entry(engine, "p1", result)
        assert entry["participation"] == {"token_supply_fraction": "0E-9", "wallet_count_fraction": "0E-9"}
        assert (entry["voters"], entry["power_gini"], entry["min_controlling_set"]) == (0, None, None)


@pytest.fixture(scope="module")
def sybil_result():
    return run(load_preset("sybil_attack_quadratic"))


class TestSeedOverride:
    """A scenario with an identity layer runs at either end of the u64 seed range."""

    def test_the_u64_bounds_are_accepted(self):
        scenario = parse_scenario(
            {**_raw(load_preset("sybil_attack_quadratic")), "identity": {"mode": "strict_one_wallet", "policy": "drop_unverified"}}
        )
        assert run(scenario._replace(seed=0)).head_hash == run(scenario._replace(seed=2**64 - 1)).head_hash


class TestSybilPresetRun:
    def test_splitting_flips_the_outcome(self, sybil_result):
        (metrics,) = sybil_result.report["proposals"]
        assert metrics["outcome"] == {"type": "winner", "option": "option_b"}
        assert metrics["phase"] == "rejected"  # option_b is not the status-quo option

    def test_per_option_power(self, sybil_result):
        (metrics,) = sybil_result.report["proposals"]
        assert metrics["per_option_power"]["option_b"] == "1000.000000000"
        assert metrics["per_option_power"]["option_a"] == "110.000000000"

    def test_amplification_is_reported_per_attacker(self, sybil_result):
        (metrics,) = sybil_result.report["proposals"]
        assert metrics["sybil_amplification"] == {"whale": "10.000000000"}

    def test_voter_count_includes_every_wallet(self, sybil_result):
        (metrics,) = sybil_result.report["proposals"]
        assert metrics["voters"] == 101
        assert metrics["min_controlling_set"] == 46
        assert metrics["power_gini"] == "0.089198109"

    def test_participation_fractions(self, sybil_result):
        (metrics,) = sybil_result.report["proposals"]
        assert metrics["participating_tokens"] == "22100.000000000"
        assert metrics["participation"]["token_supply_fraction"] == "1.000000000"
        assert metrics["participation"]["wallet_count_fraction"] == "1.000000000"

    def test_csv_lists_every_agent(self, sybil_result):
        text = report_csv(sybil_result)
        lines = text.strip().splitlines()
        assert lines[0] == "proposal,agent,wallets_counted,counted_tokens,realized_power"
        rows = [line.split(",") for line in lines[1:]]
        by_agent = {row[1]: row for row in rows}
        assert by_agent["whale"][2] == "100"
        assert by_agent["whale"][4] == "1000.000000000"
        assert by_agent["grace"][2] == "1"
        assert by_agent["grace"][4] == "110.000000000"


class TestReportCsv:
    """report_csv writes each row as one line; the csv module, over the votes each finalize
    counted, must give the same text."""

    @pytest.mark.parametrize("name", preset_names())
    def test_presets_match_the_csv_module(self, name):
        result, counted = run_with_counts(load_preset(name))
        assert report_csv(result) == report_csv_ref(result.scenario, counted)

    @pytest.mark.slow
    @pytest.mark.parametrize("workload", ["crowd_quadratic", "sybil_identity", "conviction_horizon"])
    def test_benchmark_workloads_match_the_csv_module(self, workload):
        result, counted = run_with_counts(loads_scenario(_bench_workloads().scenario_text(workload, 1)))  # seed-1 text
        assert report_csv(result) == report_csv_ref(result.scenario, counted)

    @settings(max_examples=40, deadline=None)
    @given(
        proposal=st.text(alphabet="aZ9-_", min_size=1, max_size=12),
        ids=st.lists(st.text(alphabet="aZ9-_", min_size=1, max_size=12), min_size=2, max_size=5, unique=True),
        n_wallets=st.integers(min_value=2, max_value=4),
    )
    def test_ids_with_dashes_and_underscores_match_the_csv_module(self, proposal, ids, n_wallets):
        attacker, *honest = ids
        scenario = parse_scenario({
            "schema_version": 1, "name": "csv", "ticks": 10, "supply": "100", "mechanism": "quadratic",
            "proposals": [{"id": proposal, "options": ["yes", "no"], "discussion_window": [0, 2], "voting_window": [2, 10]}],
            "agents": [
                {"id": attacker, "kind": "sybil_attacker", "balance": "10", "preference": "no", "n_wallets": n_wallets},
                *({"id": a, "kind": "honest", "balance": "1.5", "preference": "yes"} for a in honest),
            ],
        })
        result, counted = run_with_counts(scenario)
        text = report_csv(result)
        assert text == report_csv_ref(scenario, counted)
        assert len(text.splitlines()) == 1 + len(ids)


    def test_rows_that_differ_on_every_proposal_match_the_csv_module(self):
        """Conviction power grows with the ticks a vote is held, so windows of three lengths give
        each agent three rows: more distinct rows than the row memo keeps, so it starts over."""
        scenario = parse_scenario({
            "schema_version": 1, "name": "csv", "ticks": 40, "supply": "100", "mechanism": "conviction",
            "conviction": {"decay_rate": "0.5"},
            "proposals": [
                {"id": f"p{k}", "options": ["yes", "no"], "discussion_window": [start, start + 1], "voting_window": [start + 1, end]}
                for k, (start, end) in enumerate([(0, 4), (4, 15), (15, 40)])
            ],
            "agents": [
                {"id": "a", "kind": "honest", "balance": "10", "preference": "yes"},
                {"id": "b", "kind": "whale", "balance": "30", "preference": "no"},
                {"id": "c", "kind": "honest", "balance": "2.5", "preference": "yes"},
                {"id": "d", "kind": "abstainer", "balance": "1"},
            ],
        })
        result, counted = run_with_counts(scenario)
        rows = report_csv(result).splitlines()[1:]
        assert len({row.split(",", 2)[2] for row in rows}) == 10  # 3 x 3 voting rows and the zero row
        assert report_csv(result) == report_csv_ref(scenario, counted)


class TestIdentityPresetRun:
    def test_strict_registry_neutralizes_the_split(self):
        """Only the attacker's first wallet binds; the other 99 votes are dropped."""
        scenario = load_preset("sybil_attack_quadratic")
        strict = parse_scenario(
            {**_raw(scenario), "identity": {"mode": "strict_one_wallet", "policy": "drop_unverified"}}
        )
        result = run(strict)
        (metrics,) = result.report["proposals"]
        assert metrics["sybil_amplification"] == {"whale": "1.000000000"}
        assert metrics["per_option_power"]["option_b"] == "10.000000000"  # sqrt(100 tokens)
        assert metrics["outcome"] == {"type": "winner", "option": "option_a"}
        assert result.report["identity"]["bindings_rejected"] == 99
        assert result.report["identity"]["rejections_by_reason"] == {"DuplicateIdentity": 99}

    def test_collapse_registry_merges_the_split(self):
        """All 100 wallets collapse onto one identity: power as if never split."""
        scenario = load_preset("sybil_attack_quadratic")
        collapsed = parse_scenario(
            {
                **_raw(scenario),
                "identity": {"mode": "collapse_per_identity", "policy": "drop_unverified"},
            }
        )
        result = run(collapsed)
        (metrics,) = result.report["proposals"]
        assert metrics["per_option_power"]["option_b"] == "100.000000000"  # sqrt(10000)
        assert metrics["outcome"] == {"type": "winner", "option": "option_a"}
        assert metrics["voters"] == 2

    @pytest.mark.parametrize("n", [4, 25, 100])
    def test_amplification_tracks_sqrt_n_for_divisible_splits(self, n):
        scenario = _square_split_scenario(n)
        result = run(scenario)
        (metrics,) = result.report["proposals"]
        reported = Decimal(metrics["sybil_amplification"]["mallory"])
        root = Decimal(n).sqrt()
        assert abs(reported - root) <= Decimal(n) * Decimal("0.000000001")


def _raw(scenario):
    """Rebuild the raw dict for a parsed scenario (presets keep it simple)."""
    return {
        "schema_version": 1,
        "name": scenario.name,
        "seed": scenario.seed,
        "ticks": scenario.ticks,
        "supply": str(scenario.supply),
        "mechanism": scenario.mechanism.value,
        "quorum": None,
        "conviction": {"decay_rate": str(scenario.conviction.decay_rate)}
        if scenario.conviction
        else None,
        "proposals": [
            {
                "id": p.id,
                "options": list(p.options),
                "discussion_window": [p.discussion_window.start, p.discussion_window.end],
                "voting_window": [p.voting_window.start, p.voting_window.end],
            }
            for p in scenario.proposals
        ],
        "agents": [
            {
                "id": a.id,
                "kind": a.kind.value,
                "balance": str(a.balance),
                "preference": list(a.preference),
                **({"cast_at": a.cast_at} if a.cast_at is not None else {}),
                **({"n_wallets": a.n_wallets} if a.n_wallets != 1 else {}),
                **(
                    {"identity_strategy": a.identity_strategy.value}
                    if a.n_wallets != 1
                    else {}
                ),
            }
            for a in scenario.agents
        ],
    }


def _square_split_scenario(n):
    total = 10000  # perfect square, divisible by 4, 25, and 100
    return parse_scenario(
        {
            "schema_version": 1,
            "name": f"split-{n}",
            "seed": 1,
            "ticks": 10,
            "supply": str(2 * total),
            "mechanism": "quadratic",
            "proposals": [
                {
                    "id": "p1",
                    "options": ["a", "b"],
                    "discussion_window": [0, 2],
                    "voting_window": [2, 10],
                }
            ],
            "agents": [
                {"id": "honest", "kind": "honest", "balance": str(total), "preference": ["a"]},
                {
                    "id": "mallory",
                    "kind": "sybil_attacker",
                    "balance": str(total),
                    "preference": ["b"],
                    "n_wallets": n,
                },
            ],
        }
    )


@pytest.fixture(scope="module")
def comparison():
    scenario = load_preset("sybil_attack_quadratic")
    return compare_mechanisms(scenario, ["token", "quadratic", "conviction"])


class TestCompareMechanisms:
    def test_merged_report_structure(self, comparison):
        merged, _ = comparison
        assert merged["scenario"] == "sybil_attack_quadratic"
        assert merged["mechanisms"] == ["token", "quadratic", "conviction"]
        assert set(merged["runs"]) == {"token", "quadratic", "conviction"}

    def test_token_run_is_split_invariant(self, comparison):
        merged, _ = comparison
        (metrics,) = merged["runs"]["token"]["proposals"]
        assert metrics["sybil_amplification"] == {"whale": "1.000000000"}
        assert metrics["outcome"]["option"] == "option_a"

    def test_quadratic_run_amplifies_tenfold(self, comparison):
        merged, _ = comparison
        (metrics,) = merged["runs"]["quadratic"]["proposals"]
        assert metrics["sybil_amplification"] == {"whale": "10.000000000"}
        assert metrics["outcome"]["option"] == "option_b"

    def test_table_includes_conviction_column_when_requested(self, comparison):
        _, rows = comparison
        table = render_table(rows)
        assert "conviction_at_finalize" in table.splitlines()[0]
        by_mechanism = {row["mechanism"]: row for row in rows}
        assert by_mechanism["token"]["conviction_at_finalize"] == "-"
        assert by_mechanism["conviction"]["conviction_at_finalize"] == "21580.257816542"
        assert by_mechanism["token"]["outcome"] == "winner(option_a)"
        assert by_mechanism["quadratic"]["outcome"] == "winner(option_b)"
        assert by_mechanism["quadratic"]["amplification"] == "10.000000000"

    def test_table_omits_conviction_column_otherwise(self):
        scenario = load_preset("sybil_attack_quadratic")
        _, rows = compare_mechanisms(scenario, ["token", "quadratic"])
        assert "conviction_at_finalize" not in render_table(rows)

    def test_duplicate_mechanisms_rejected(self):
        scenario = load_preset("sybil_attack_quadratic")
        with pytest.raises(Exception, match="must be distinct"):
            compare_mechanisms(scenario, ["token", "token"])

    def test_unknown_mechanism_rejected(self):
        scenario = load_preset("sybil_attack_quadratic")
        with pytest.raises(Exception, match="unknown mechanism"):
            compare_mechanisms(scenario, ["token", "approval"])

    def test_empty_list_rejected(self):
        scenario = load_preset("sybil_attack_quadratic")
        with pytest.raises(Exception, match="no mechanisms"):
            compare_mechanisms(scenario, [])

    def test_missing_params_collected_before_any_run(self):
        scenario = load_preset("sybil_attack_quadratic")._replace(
            quorum=None, conviction=None
        )
        with pytest.raises(Exception) as excinfo:
            compare_mechanisms(scenario, ["quorum", "conviction"])
        assert "quorum" in str(excinfo.value)
        assert "conviction" in str(excinfo.value)

    def test_missing_configs_give_the_scenario_messages(self):
        with pytest.raises(ScenarioValidationError) as excinfo:
            compare_mechanisms(load_preset("plurality_iia_probe"), ["token", "quorum", "conviction"])
        assert excinfo.value.errors == [
            "mechanism 'quorum' requires a quorum config",
            "mechanism 'conviction' requires conviction params",
        ]

    def test_runs_keep_no_ledger_entries(self, monkeypatch):
        """compare reads only each run's report, so no run holds its ledger's entries."""
        results = []
        real_run = simulation_module._run

        def spy(*args, **kwargs):
            results.append(real_run(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(simulation_module, "_run", spy)
        compare_mechanisms(load_preset("sybil_attack_quadratic"), ["token", "quadratic"])
        assert len(results) == 2
        for result in results:
            with pytest.raises(LedgerError, match="keeps none"):
                list(result.ledger)

    def test_setup_is_built_once(self, monkeypatch):
        """No part of the setup depends on the mechanism, so every run shares one."""
        calls = []
        real_build_setup = simulation_module.build_setup

        def spy(*args, **kwargs):
            calls.append(args)
            return real_build_setup(*args, **kwargs)

        monkeypatch.setattr(simulation_module, "build_setup", spy)
        compare_mechanisms(load_preset("sybil_attack_quadratic"), ["token", "quadratic", "conviction"])
        assert len(calls) == 1

    @pytest.mark.parametrize("name", preset_names())
    def test_each_run_equals_a_standalone_run(self, name):
        """Every report field, the probes included, reads the run's own engine, so a run inside
        compare equals run() under its mechanism, for every mechanism the preset's config allows.
        participatory_budget's probes are on, so its runs compare probe reports too."""
        scenario = load_preset(name)
        allowed = [m for m in Mechanism if config_error(m, scenario.quorum, scenario.conviction) is None]
        runs = compare_mechanisms(scenario, allowed)[0]["runs"]
        for m in allowed:
            assert runs[m.value] == run(scenario._replace(mechanism=m)).report
            if name == "participatory_budget":
                assert runs[m.value]["arrow_probes"] is not None


class TestOtherPresets:
    def test_nonprofit_grant_vote(self):
        result = run(load_preset("nonprofit_grant_vote"))
        (metrics,) = result.report["proposals"]
        assert metrics["outcome"]["option"] == "fund_mobile_clinic"
        assert metrics["phase"] == "passed"
        assert metrics["per_option_power"]["fund_mobile_clinic"] == "45.811388301"
        probes = result.report["arrow_probes"]
        assert probes["dictator_probe"]["flagged"] == []
        witness = probes["iia_probe"]["witness"]
        assert witness["removed_option"] == "no_award"
        assert witness["winner_before"] == "fund_tutoring"
        assert witness["winner_after"] == "fund_mobile_clinic"

    def test_participatory_budget(self):
        result = run(load_preset("participatory_budget"))
        (metrics,) = result.report["proposals"]
        assert metrics["outcome"]["option"] == "parks"
        assert metrics["per_option_power"]["parks"] == "1889.953559887"
        probes = result.report["arrow_probes"]
        assert probes["dictator_probe"]["flagged"] == ["late_whale"]
        assert probes["iia_probe"]["witness"] is None

    def test_plurality_iia_probe(self):
        result = run(load_preset("plurality_iia_probe"))
        probes = result.report["arrow_probes"]
        witness = probes["iia_probe"]["witness"]
        assert witness["removed_option"] == "C"
        assert witness["winner_before"] == "A"
        assert witness["winner_after"] == "B"
        assert set(witness["profile"]) == {"bloc_a", "bloc_b", "bloc_c"}

    def test_sybil_preset_probe_flags_the_attacker(self, sybil_result):
        """Two agents, two options: small enough to probe; the split whale dictates."""
        probes = sybil_result.report["arrow_probes"]
        assert probes["dictator_probe"]["flagged"] == ["whale"]
        assert probes["iia_probe"]["witness"] is None  # needs three options

    def test_probes_omitted_beyond_four_voters(self):
        obj = _square_split_scenario(4)  # reuse the shape, then widen the cast
        wide = _raw(obj)
        wide["agents"] = [
            {"id": f"v{i}", "kind": "honest", "balance": "100", "preference": ["a"]}
            for i in range(5)
        ]
        wide["supply"] = "500"
        result = run(parse_scenario(wide))
        assert result.report["arrow_probes"] is None



@st.composite
def _token_electorates(draw):
    """A token-voting scenario with no quorum and no identity layer: 1 to 5 honest
    agents, each voting its whole balance, and 1 to 3 proposals on one option set in
    consecutive voting windows (a cast tick is drawn only when there is one window)."""
    options = ["a", "b", "c"][: draw(st.integers(2, 3))]
    n_proposals = draw(st.integers(1, 3))
    agents = [
        {
            "id": f"h{k}",
            "kind": "honest",
            "balance": fmt_units(draw(st.integers(6, 10**15))),
            "preference": [draw(st.sampled_from(options))],
            "cast_at": draw(st.none() | st.integers(1, 3)) if n_proposals == 1 else None,
        }
        for k in range(draw(st.integers(1, 5)))
    ]
    return {
        "schema_version": 1,
        "name": "split-invariance",
        "ticks": 4 * n_proposals,
        "supply": fmt_units(sum(parse_units(a["balance"]) for a in agents)),
        "mechanism": "token",
        "quorum": None,
        "identity": None,
        "proposals": [
            {"id": f"p{j}", "options": options, "discussion_window": [4 * j, 4 * j + 1], "voting_window": [4 * j + 1, 4 * j + 4]}
            for j in range(n_proposals)
        ],
        "agents": agents,
    }


class TestSplitInvariance:
    """Token power is the committed tokens, and a uniform split divides a balance
    exactly, so the split wallets cast the same tokens on the same option."""

    @given(_token_electorates(), st.integers(2, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_splitting_a_holder_changes_no_token_tally(self, scenario, n_wallets, data):
        k = data.draw(st.integers(0, len(scenario["agents"]) - 1))
        split = copy.deepcopy(scenario)
        split["agents"][k].update(kind="sybil_attacker", n_wallets=n_wallets)

        def proposals(raw):
            return run(parse_scenario(raw)).report["proposals"]

        fields = ("outcome", "per_option_power", "participating_tokens")
        for before, after in zip(proposals(scenario), proposals(split), strict=True):
            assert {f: after[f] for f in fields} == {f: before[f] for f in fields}
            assert after["voters"] == before["voters"] + n_wallets - 1


_MECHANISMS = ["token", "quorum", "quadratic", "conviction"]


@st.composite
def _attacked_electorates(draw, identity):
    """One proposal, one to three Sybil attackers and up to two honest agents, under any
    mechanism, with balances in 10^-9 units and a cast tick anywhere in the voting window."""
    mechanism = draw(st.sampled_from(_MECHANISMS))
    agents = [
        {"id": f"h{k}", "kind": "honest", "balance": fmt_units(draw(st.integers(1, 10**12))), "preference": ["a"]}
        for k in range(draw(st.integers(0, 2)))
    ]
    for k in range(draw(st.integers(1, 3))):
        n_wallets = draw(st.integers(2, 40))
        agents.append({
            "id": f"att{k}", "kind": "sybil_attacker", "balance": fmt_units(draw(st.integers(n_wallets, 10**12))),
            "preference": ["b"], "n_wallets": n_wallets, "cast_at": draw(st.none() | st.integers(2, 9)),
            "identity_strategy": draw(st.sampled_from(["one_identity", "fake_identities"])),
        })
    held = sum(parse_units(a["balance"]) for a in agents)
    return parse_scenario({
        "schema_version": 1,
        "name": "sybil-properties",
        "ticks": 10,
        "supply": fmt_units(held + draw(st.integers(0, 10**12))),
        "mechanism": mechanism,
        "quorum": {"basis": "token_supply_fraction", "threshold": "0.5"} if mechanism == "quorum" else None,
        "conviction": {"decay_rate": draw(st.sampled_from(["0.05", "0.5", "2"]))} if mechanism == "conviction" else None,
        "identity": draw(identity),
        "proposals": [{"id": "p1", "options": ["a", "b"], "discussion_window": [0, 2], "voting_window": [2, 10]}],
        "agents": agents,
    })


_ZERO_FALSE_ACCEPTS = st.builds(
    lambda mode: {"mode": mode, "policy": "drop_unverified", "provider": {"false_accept_rate": "0"}},
    st.sampled_from(["strict_one_wallet", "collapse_per_identity"]),
)


class TestSybilProperties:
    """The paper's Sybil argument, stated from the README's rules and checked on whole runs."""

    @given(_attacked_electorates(st.none()))
    @settings(max_examples=60, deadline=None)
    def test_amplification_is_sybil_gain_without_an_identity_layer(self, scenario):
        """Every wallet of a uniform split is counted, each commits its whole balance at the
        agent's cast tick, and the baseline is that balance in one wallet held as long, which
        is sybil_gain's split held for the ticks from the cast to the window's end."""
        (spec,) = scenario.proposals
        (metrics,) = run(scenario).report["proposals"]
        for agent in scenario.agents:
            if agent.n_wallets > 1:
                gain = sybil_gain(
                    agent.balance, agent.n_wallets, scenario.mechanism,
                    conviction=scenario.conviction, held_for=spec.voting_window.end - agent.cast_tick(spec),
                ).amplification
                assert metrics["sybil_amplification"][agent.id] == (None if gain is None else str(gain))

    @given(_attacked_electorates(_ZERO_FALSE_ACCEPTS))
    @settings(max_examples=60, deadline=None)
    def test_an_exact_identity_layer_removes_every_gain(self, scenario):
        """With no false accepts and unverified wallets dropped, a faked identity counts no
        wallet, and an attacker's own identity counts as one wallet (strict) or one merged
        vote (collapse): either way its power is that of its counted tokens in one wallet."""
        (metrics,) = run(scenario).report["proposals"]
        for amplification in metrics["sybil_amplification"].values():
            assert amplification in ("1.000000000", None)

    @pytest.mark.parametrize("seed", [1, 2, 3, 7])
    def test_the_identity_layer_leaves_a_gain_of_sqrt_k(self, seed):
        """Under quadratic voting with collapse_per_identity and drop_unverified, an attacker whose
        provider accepts K of its fake identities keeps K wallets, each its own identity, so its
        amplification over its counted tokens in one wallet is sqrt(K) (to 1e-8: each wallet's power
        has nine digits); an attacker with one identity collapses to one vote and reads exactly 1.
        K is read from genesis's identity record, on the sybil_identity workload's scenario."""
        scenario = loads_scenario(_bench_workloads().scenario_text("sybil_identity", seed))
        result = run(scenario)
        bindings = loads_canonical(next(iter(result.ledger)).payload)["identity"]["registry"]["bindings"]
        bound = {binding["identity"] for binding in bindings}
        for metrics in result.report["proposals"]:
            for agent in scenario.agents:
                if agent.kind is not AgentKind.SYBIL_ATTACKER:
                    continue
                amplification = metrics["sybil_amplification"][agent.id]
                if agent.fakes_identities():
                    k = len(bound.intersection(agent.fake_ids()))
                    assert k >= 2
                    assert abs(Decimal(amplification) - Decimal(k).sqrt()) <= Decimal("1e-8"), (agent.id, k)
                else:
                    assert amplification == "1.000000000"


def _cast_shape(honest, wallets, proposals, mechanism="token", abstainers=0):
    """`honest` honest agents and, with wallets > 0, one attacker over that many wallets, all
    voting on each of `proposals` two-option proposals in consecutive windows, and `abstainers`
    agents who never vote."""
    agents = [{"id": f"h{k}", "kind": "honest", "balance": "1", "preference": ["a"]} for k in range(honest)]
    if wallets:
        agents.append({"id": "att", "kind": "sybil_attacker", "balance": "1000000", "preference": ["b"], "n_wallets": wallets})
    agents += [{"id": f"x{k}", "kind": "abstainer", "balance": "1"} for k in range(abstainers)]
    return parse_scenario({
        "schema_version": 1,
        "name": "cast-cap",
        "ticks": 4 * proposals,
        "supply": str(honest + 1000000),
        "mechanism": mechanism,
        "proposals": [
            {"id": f"p{j}", "options": ["a", "b"], "discussion_window": [4 * j, 4 * j + 1], "voting_window": [4 * j + 1, 4 * j + 4]}
            for j in range(proposals)
        ],
        "agents": agents,
    })


class TestCastCapWorstCase:
    """A run's ledger holds one genesis, then per proposal one submit, one phase and one
    finalize event, and one cast per voting wallet: the work MAX_CASTS bounds, by counts."""

    @staticmethod
    def _event_kinds(scenario):
        kinds = Counter()
        run(scenario, ledger_sink=lambda entry: kinds.update((loads_canonical(entry.payload)["event"],)))
        return kinds

    @staticmethod
    def _expected(voting_wallets, proposals):
        return {"genesis": 1, "submit": proposals, "phase": proposals, "finalize": proposals, "cast": voting_wallets * proposals}

    @pytest.mark.parametrize("honest, wallets, proposals, events", [(50, 0, 5, 266), (3, 200, 10, 2_061)])
    def test_events_are_casts_plus_four_per_proposal(self, honest, wallets, proposals, events):
        kinds = self._event_kinds(_cast_shape(honest, wallets, proposals))
        assert kinds == self._expected(honest + wallets, proposals)
        assert sum(kinds.values()) == events

    @pytest.mark.slow
    def test_a_run_at_the_cast_cap(self):
        scenario = _cast_shape(3, MAX_CASTS // 10 - 3, 10)
        kinds = self._event_kinds(scenario)
        assert kinds["cast"] == MAX_CASTS
        assert kinds == self._expected(MAX_CASTS // 10, 10)

    @pytest.mark.parametrize("proposals", [2_000, pytest.param(20_000, marks=pytest.mark.slow)])
    def test_one_abstainer_on_many_proposals(self, proposals):
        """The most proposals per wallet: every event but a cast, and each proposal opens once."""
        kinds = self._event_kinds(_cast_shape(0, 0, proposals, abstainers=1))
        assert kinds == {"genesis": 1, "submit": proposals, "phase": proposals, "finalize": proposals}

    def test_one_abstainer_on_many_proposals_walks_only_the_report(self, monkeypatch):
        """No event of a run goes through canonical_json's walk: it is entered as often in the
        whole run as in encoding its report alone."""
        walk, entered = core._canonical_value, Counter()

        def counting(value):
            entered["calls"] += 1
            return walk(value)

        monkeypatch.setattr(core, "_canonical_value", counting)
        result = run(_cast_shape(0, 0, 2_000, abstainers=1), ledger_sink=lambda entry: None)
        in_run, entered["calls"] = entered["calls"], 0
        canonical_json(result.report)
        assert in_run == entered["calls"] > 2_000

    def test_advance_to_work_grows_linearly_with_proposals(self):
        """advance_to runs on every submit, cast batch, finalize and tick, so a scan of every
        proposal in it makes a run quadratic in proposals.  Counted in line events, not timed."""
        code = GovernanceEngine.advance_to.__code__

        def lines_in_advance_to(proposals):
            count = 0

            def local(frame, event, arg):
                nonlocal count
                count += event == "line"
                return local

            previous = sys.gettrace()
            sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
            try:
                run(_cast_shape(0, 0, proposals, abstainers=1), ledger_sink=lambda entry: None)
            finally:
                sys.settrace(previous)
            return count

        ratio = lines_in_advance_to(1_000) / lines_in_advance_to(500)
        assert ratio <= 2.5, f"advance_to ran {ratio:.2f} times the lines at twice the proposals"


def _horizon_scenario(mechanism, ticks):
    return {
        "schema_version": 1,
        "name": "long-horizon",
        "ticks": ticks,
        "supply": "100",
        "mechanism": mechanism,
        "conviction": {"decay_rate": "0.5"},
        "proposals": [
            {
                "id": "p1",
                "options": ["yes", "no"],
                "discussion_window": [0, 2],
                "voting_window": [2, ticks],
            }
        ],
        "agents": [
            {"id": "early", "kind": "honest", "balance": "5", "preference": "yes", "cast_at": 3},
            {"id": "late", "kind": "honest", "balance": "3", "preference": "no", "cast_at": ticks // 2},
        ],
    }


class TestEventSchedule:
    @pytest.mark.parametrize("mechanism", ["token", "conviction"])
    def test_idle_ticks_are_free(self, mechanism):
        scenario = parse_scenario(_horizon_scenario(mechanism, 10**12))
        started = time.perf_counter()
        result = run(scenario)
        assert time.perf_counter() - started < 1.0
        events = [loads_canonical(e.payload) for e in result.ledger]
        assert [(e["event"], e.get("tick")) for e in events] == [
            ("genesis", None),
            ("submit", 0),
            ("phase", 2),  # the window opens at a tick with nothing else to do
            ("cast", 3),
            ("cast", 5 * 10**11),
            ("finalize", 10**12),
        ]
        (metrics,) = result.report["proposals"]
        assert metrics["outcome"] == {"type": "winner", "option": "yes"}
        assert metrics["total_power"] == "8.000000000"

    def test_cast_beyond_the_horizon_casts_nothing(self):
        scenario = parse_scenario(_horizon_scenario("token", 20))
        late = scenario.agents[1]._replace(cast_at=25)
        result = run(scenario._replace(agents=(scenario.agents[0], late)))
        events = [loads_canonical(e.payload) for e in result.ledger]
        assert [e["wallet"] for e in events if e["event"] == "cast"] == ["early"]
        (metrics,) = result.report["proposals"]
        assert metrics["voters"] == 1
        assert "p1,late,0,0.000000000,0.000000000" in report_csv(result).splitlines()


class TestCastTemplates:
    """A proposal's cast template for an option is built at its first ballot and kept with the
    vote book until finalize, so a cast on a tick of its own does not build one."""

    @staticmethod
    def _traced_run(scenario, monkeypatch):
        """The run, the (proposal, option) of each template built, and a check after each finalize
        that the engine holds no template of the proposal it finalized."""
        built, build, finalize = [], events_module.cast_template, GovernanceEngine.finalize

        def counted(proposal, option):
            built.append((proposal, option))
            return build(proposal, option)

        def checked(engine, proposal_id, now):
            done = finalize(engine, proposal_id, now)
            assert proposal_id not in engine._templates
            return done

        monkeypatch.setattr(events_module, "cast_template", counted)
        monkeypatch.setattr(GovernanceEngine, "finalize", checked)
        return run(scenario), built

    def test_voters_on_ticks_of_their_own_build_one_template_per_option(self, monkeypatch):
        result, built = self._traced_run(parse_scenario(_bench_workloads().conviction_horizon(1)), monkeypatch)
        casts = [e for e in map(loads_canonical, (entry.payload for entry in result.ledger)) if e["event"] == "cast"]
        assert len(casts) == 150 and len({e["tick"] for e in casts}) > 100
        assert sorted(built) == sorted({(e["proposal"], e["option"]) for e in casts})
        assert result.engine._templates == {}

    def test_proposals_without_casts_build_none(self, monkeypatch):
        result, built = self._traced_run(_cast_shape(0, 0, 2_000, abstainers=1), monkeypatch)
        assert len(result.report["proposals"]) == 2_000
        assert built == [] and result.engine._templates == {}


class TestSetupIdChecks:
    """Setup checks ids once per agent, not once per wallet or claimed identity: an attacker's
    numbered names differ only in their digits, so one match proves them all.  Counted, not timed."""

    @staticmethod
    def _attackers_doubled(scenario):
        agents = tuple(
            a._replace(n_wallets=2 * a.n_wallets) if a.kind is AgentKind.SYBIL_ATTACKER else a for a in scenario.agents
        )
        return scenario._replace(agents=agents)

    def _matches(self, scenario, id_matches):
        id_matches.clear()
        setup = build_setup(scenario)
        return sum(id_matches.values()), setup

    def test_doubling_every_attackers_wallets_adds_no_id_match(self, id_matches):
        scenario = parse_scenario(_bench_workloads().sybil_identity(1, scale=0.25))
        doubled = self._attackers_doubled(scenario)
        matches, setup = self._matches(scenario, id_matches)
        doubled_matches, doubled_setup = self._matches(doubled, id_matches)
        attackers = [a for a in scenario.agents if a.kind is AgentKind.SYBIL_ATTACKER]
        assert len(doubled_setup.balances) - len(setup.balances) == sum(a.n_wallets for a in attackers)
        assert doubled_setup.binding_stats["bindings_accepted"] > setup.binding_stats["bindings_accepted"]
        assert doubled_matches == matches
        # Own id as wallet and as identity for every agent, two per numbered run (first and last).
        assert matches <= 2 * len(scenario.agents) + 4 * len(attackers)


def _one_attacker(wallets):
    """Three honest agents and one attacker splitting its stake over `wallets` wallets on one
    three-option proposal: few enough voters and options that the probes run."""
    return parse_scenario({
        "schema_version": 1, "name": "one-attacker", "ticks": 30, "supply": "1000000", "mechanism": "conviction",
        "conviction": {"decay_rate": "0.1"},
        "proposals": [{"id": "p1", "options": ["a", "b", "c"], "discussion_window": [0, 5], "voting_window": [5, 30]}],
        "agents": [
            {"id": "h0", "kind": "honest", "balance": "300", "preference": ["a", "b", "c"]},
            {"id": "h1", "kind": "honest", "balance": "200", "preference": ["b", "c", "a"]},
            {"id": "h2", "kind": "honest", "balance": "100", "preference": ["c", "a", "b"]},
            {"id": "att", "kind": "sybil_attacker", "balance": "100000", "preference": ["c", "b", "a"],
             "n_wallets": wallets - 3},
        ],
    })


class TestPeakMemoryPerWallet:
    """A run's traced peak, with the ledger streamed to a sink, per wallet and per cast.

    Counted by tracemalloc, not timed, so machine load does not move it.  Measured on a second run
    in the process, this engine took 499-500 B per wallet on the Sybil workload at half scale,
    481 B (4,003 wallets) to 551 B (MAX_WALLETS) per wallet for one attacker with the probes on,
    and 148 B (5,000 casts) and 124 B (MAX_CASTS) per cast for honest agents on many quadratic
    proposals (Python 3.11).  Each bound is about 1.15 times what the engine took while every vote
    named its wallet and proposal and finalize counted a list copy of the book (528-530, 527, 579,
    156 and 127 B).  Holding a second lock table, a finalized proposal's vote book or counted votes,
    a tuple per scheduled cast or a wallet-to-agent map breaks it.
    """

    @staticmethod
    def _peak(scenario):
        # A run leaves the interpreter's free lists full (up to 2,000 tuples of each small size), and a
        # later run reuses them untraced, so a run measured after another one, as in a whole test
        # session, peaks lower than the first run in a process.  One run first makes the count the
        # same whatever ran before.
        run(scenario, ledger_sink=lambda entry: None)
        tracemalloc.start()
        try:
            result = run(scenario, ledger_sink=lambda entry: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak

    def _peak_per_wallet(self, scenario):
        result, peak = self._peak(scenario)
        return result, peak / sum(agent.n_wallets for agent in scenario.agents)

    @pytest.mark.parametrize("seed", [1, 41])
    def test_identity_filtered_attackers_on_two_proposals(self, seed):
        scenario = parse_scenario(_bench_workloads().sybil_identity(seed, scale=0.5))  # 4,150 wallets
        result, per_wallet = self._peak_per_wallet(scenario)
        assert len(result.report["proposals"]) == 2
        assert per_wallet < 610, f"{per_wallet:.0f} B of traced peak per wallet"

    @pytest.mark.parametrize("wallets, bound", [(4_003, 605), pytest.param(MAX_WALLETS, 665, marks=pytest.mark.slow)])
    def test_one_attacker_with_the_probes(self, wallets, bound):
        result, per_wallet = self._peak_per_wallet(_one_attacker(wallets))
        assert result.report["arrow_probes"] is not None
        assert per_wallet < bound, f"{per_wallet:.0f} B of traced peak per wallet"

    @pytest.mark.parametrize(
        "honest, proposals, bound", [(500, 10, 180), pytest.param(MAX_CASTS // 50, 50, 146, marks=pytest.mark.slow)]
    )
    def test_honest_casts_on_many_proposals(self, honest, proposals, bound):
        """Each proposal's counted votes are reduced to its report entry and per-agent rows at
        its finalize and dropped, so only the rows, three ints per agent and proposal, add up.
        The schedule holds one list slot per cast, each tick's dropped as it is played."""
        result, peak = self._peak(_cast_shape(honest, 0, proposals, mechanism="quadratic"))
        assert len(result.by_agent) == proposals
        per_cast = peak / (honest * proposals)
        assert per_cast < bound, f"{per_cast:.0f} B of traced peak per cast"

    def test_the_engine_holds_the_setups_balances_not_a_copy(self, monkeypatch):
        setups, build = [], simulation_module.build_setup

        def build_setup(*args, **kwargs):
            setups.append(build(*args, **kwargs))
            return setups[-1]

        monkeypatch.setattr(simulation_module, "build_setup", build_setup)
        result = run(load_preset("sybil_attack_quadratic"))
        assert result.engine.balances is setups[0].balances

    @pytest.mark.parametrize("name", preset_names())
    def test_a_finished_run_holds_no_vote(self, name):
        def votes_alive():
            gc.collect()
            return sum(type(o) is VoteRecord for o in gc.get_objects())

        before = votes_alive()
        result = run(load_preset(name))
        assert votes_alive() == before
        assert all(p["voters"] for p in result.report["proposals"])


def test_a_cold_conviction_horizon_run_takes_one_exp_per_rate(monkeypatch):
    """The seed-1 workload's 150 voters hold for 150 distinct times: 150 factors are computed,
    each a power of the one rate's base, and none by the exp route."""
    scenario = loads_scenario(_bench_workloads().scenario_text("conviction_horizon", 1))
    exp_route = []
    exp_factor = mechanisms._exp_factor
    monkeypatch.setattr(mechanisms, "_exp_factor", lambda *args: exp_route.append(args) or exp_factor(*args))
    mechanisms._decay_factor.cache_clear()
    mechanisms._decay_base.cache_clear()
    run(scenario)
    assert mechanisms._decay_factor.cache_info().misses == 150
    assert mechanisms._decay_base.cache_info().misses == 1
    assert exp_route == []
