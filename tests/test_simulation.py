"""Inequality metrics, deterministic scenario runs, and mechanism comparison."""

import dataclasses
import time
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from govlab.core import VotingPower, loads_canonical
from govlab.scenario import load_preset, parse_scenario
from govlab.simulation import (
    SimulationError,
    compare_mechanisms,
    gini,
    min_controlling_set,
    render_table,
    report_csv,
    run,
)

from oracles import controlling_set_exhaustive, gini_pairwise_units


def _powers(*values):
    return [VotingPower.parse(v) for v in values]


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
        powers = [VotingPower.from_units(u) for u in units]
        ours = gini(powers)
        oracle = Decimal(gini_pairwise_units(units)).scaleb(-9)
        assert abs(ours - oracle) <= Decimal("0.000000001")

    @given(unit_lists)
    @settings(max_examples=60)
    def test_stays_in_the_unit_interval(self, units):
        value = gini([VotingPower.from_units(u) for u in units])
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
        powers = [VotingPower.from_units(u) for u in units]
        assert min_controlling_set(powers) == controlling_set_exhaustive(units)


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
        reseeded = run(scenario, seed_override=999)
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


@pytest.fixture(scope="module")
def sybil_result():
    return run(load_preset("sybil_attack_quadratic"))


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
        assert result.setup.binding_stats.rejected == 99
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
        scenario = load_preset("sybil_attack_quadratic").with_overrides(
            quorum=None, conviction=None
        )
        with pytest.raises(Exception) as excinfo:
            compare_mechanisms(scenario, ["quorum", "conviction"])
        assert "quorum" in str(excinfo.value)
        assert "conviction" in str(excinfo.value)


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
        late = dataclasses.replace(scenario.agents[1], cast_at=25)
        result = run(scenario.with_overrides(agents=(scenario.agents[0], late)))
        events = [loads_canonical(e.payload) for e in result.ledger]
        assert [e["wallet"] for e in events if e["event"] == "cast"] == ["early"]
        (metrics,) = result.report["proposals"]
        assert metrics["voters"] == 1
        assert "p1,late,0,0.000000000,0.000000000" in report_csv(result).splitlines()
