"""Scenario schema parsing: exhaustive error collection, exact decimals, presets."""

import copy
import json
from decimal import Decimal

import pytest

from govlab.core import ProposalId
from govlab.scenario import (
    AgentKind,
    IdentityStrategy,
    Scenario,
    ScenarioValidationError,
    load_preset,
    loads_scenario,
    parse_scenario,
    preset_names,
)
from govlab.mechanisms import Mechanism


def _valid():
    """A minimal scenario dict that parses clean; tests mutate copies of it."""
    return {
        "schema_version": 1,
        "name": "two-camps",
        "seed": 7,
        "ticks": 20,
        "supply": "1000",
        "mechanism": "token",
        "quorum": None,
        "conviction": None,
        "identity": None,
        "proposals": [
            {
                "id": "p1",
                "options": ["approve", "reject"],
                "discussion_window": [0, 5],
                "voting_window": [5, 15],
            }
        ],
        "agents": [
            {"id": "grace", "kind": "honest", "balance": "600", "preference": ["approve"]},
            {"id": "hal", "kind": "honest", "balance": "400", "preference": ["reject"]},
        ],
    }


def _errors_of(obj):
    with pytest.raises(ScenarioValidationError) as excinfo:
        parse_scenario(obj)
    return excinfo.value.errors


def _agent(scenario, agent_id):
    (agent,) = [a for a in scenario.agents if a.id == agent_id]
    return agent


class TestParsing:
    def test_valid_scenario_parses(self):
        scenario = parse_scenario(_valid())
        assert isinstance(scenario, Scenario)
        assert scenario.mechanism is Mechanism.TOKEN
        assert scenario.supply.units == 1000 * 10**9
        assert _agent(scenario, "grace").kind is AgentKind.HONEST
        assert scenario.proposals[0].voting_window.end == 15
        assert type(scenario.proposals[0].id) is ProposalId  # validated once, here

    def test_number_literals_never_become_floats(self):
        """JSON number balances must arrive as exact decimals, not binary floats."""
        obj = _valid()
        text = json.dumps(obj).replace('"600"', "600.1").replace('"1000"', "1000.1")
        scenario = loads_scenario(text)
        assert _agent(scenario, "grace").balance.units == 600_100_000_000
        assert scenario.supply.units == 1000_100_000_000

    def test_decimal_strings_accepted(self):
        obj = _valid()
        obj["agents"][0]["balance"] = "599.999999999"
        scenario = parse_scenario(obj)
        assert _agent(scenario, "grace").balance.units == 599_999_999_999

    def test_malformed_json_reports_position(self):
        with pytest.raises(ScenarioValidationError, match="malformed JSON"):
            loads_scenario("{not json")

    def test_with_overrides_returns_a_new_scenario(self):
        scenario = parse_scenario(_valid())
        reseeded = scenario.with_overrides(seed=99)
        assert reseeded.seed == 99
        assert scenario.seed == 7
        assert reseeded.agents == scenario.agents


class TestErrorCollection:
    def test_all_violations_reported_at_once(self):
        """One pass surfaces every problem, not just the first."""
        obj = _valid()
        obj["schema_version"] = 2
        obj["seed"] = -1
        obj["mechanism"] = "approval"
        obj["agents"][0]["balance"] = "0"
        errors = _errors_of(obj)
        assert len(errors) == 4
        assert any("schema_version" in e for e in errors)
        assert any("seed" in e for e in errors)
        assert any("mechanism" in e for e in errors)
        assert any("positive balance" in e for e in errors)

    def test_unknown_top_level_field(self):
        obj = _valid()
        obj["extra"] = True
        assert _errors_of(obj) == ["unknown top-level field 'extra'"]

    def test_unknown_preference_names_agent_and_label(self):
        obj = _valid()
        obj["agents"][1]["preference"] = ["extend"]
        (error,) = _errors_of(obj)
        assert "hal" in error
        assert "'extend'" in error
        assert "'p1'" in error

    def test_cast_outside_voting_window(self):
        obj = _valid()
        obj["agents"][0]["cast_at"] = 15  # half-open window [5, 15)
        (error,) = _errors_of(obj)
        assert "cast tick 15 outside voting window" in error

    def test_cast_at_must_be_a_tick(self):
        obj = _valid()
        obj["agents"][0]["cast_at"] = "soon"
        (error,) = _errors_of(obj)
        assert "cast_at must be a non-negative tick" in error

    def test_balances_exceeding_supply(self):
        obj = _valid()
        obj["supply"] = "999.999999999"
        (error,) = _errors_of(obj)
        assert "exceeds supply" in error

    def test_sybil_attacker_needs_at_least_two_wallets(self):
        obj = _valid()
        obj["agents"][0] = {
            "id": "mallory",
            "kind": "sybil_attacker",
            "balance": "600",
            "preference": ["approve"],
            "n_wallets": 1,
        }
        (error,) = _errors_of(obj)
        assert "n_wallets >= 2" in error

    def test_only_sybil_attackers_split_wallets(self):
        obj = _valid()
        obj["agents"][0]["n_wallets"] = 3
        (error,) = _errors_of(obj)
        assert "only sybil attackers may hold multiple wallets" in error

    def test_sybil_balance_must_fund_every_wallet(self):
        obj = _valid()
        obj["agents"][0] = {
            "id": "mallory",
            "kind": "sybil_attacker",
            "balance": "0.000000005",
            "preference": ["approve"],
            "n_wallets": 10**10,
        }
        (error,) = _errors_of(obj)
        assert "cannot fund" in error

    def test_agent_id_shadowing_an_attack_wallet(self):
        obj = _valid()
        obj["supply"] = "2000"
        obj["agents"].append(
            {"id": "a", "kind": "sybil_attacker", "balance": "10", "preference": "approve", "n_wallets": 2}
        )
        obj["agents"] += [
            {"id": f"v{i}", "kind": "honest", "balance": "1", "preference": "reject"} for i in range(3)
        ]
        # Neither the wrong width nor an index past n_wallets names an attack wallet.
        for harmless in ("a_w2", "a_w00", "a_wx"):
            obj["agents"].append({"id": harmless, "kind": "honest", "balance": "5", "preference": "approve"})
        parse_scenario(obj)
        obj["agents"].append({"id": "a_w1", "kind": "honest", "balance": "5", "preference": "approve"})
        (error,) = _errors_of(obj)
        assert error == "agent 'a_w1': wallet id 'a_w1' is also a wallet of agent 'a'"

    def test_agent_id_charset_and_length(self):
        # str.isalnum() accepts non-ASCII letters and digits; a `$` anchor accepts a trailing newline.
        for bad in ("a" * 49, "bad space", "café", "x\u0663", "ok\n"):
            obj = _valid()
            obj["agents"][0]["id"] = bad
            (error,) = _errors_of(obj)
            assert error == f"agent {bad!r}: id must be <= 48 chars from [A-Za-z0-9_-]"

    def test_proposal_id_outside_the_identifier_alphabet(self):
        for bad in ("bad id!", "", "p" * 65, "p\n", 7):
            obj = _valid()
            obj["proposals"][0]["id"] = bad
            (error,) = _errors_of(obj)
            assert error == "proposal #0: id must be 1-64 chars from [A-Za-z0-9_-]"

    def test_duplicate_agent_ids(self):
        obj = _valid()
        obj["agents"][1]["id"] = "grace"
        (error,) = _errors_of(obj)
        assert "duplicate id" in error

    def test_duplicate_proposal_ids(self):
        obj = _valid()
        obj["proposals"].append(copy.deepcopy(obj["proposals"][0]))
        errors = _errors_of(obj)
        assert any("duplicate id" in e for e in errors)

    def test_options_must_be_distinct(self):
        obj = _valid()
        obj["proposals"][0]["options"] = ["approve", "approve"]
        errors = _errors_of(obj)
        assert any("two or more distinct" in e for e in errors)

    def test_single_option_rejected(self):
        obj = _valid()
        obj["proposals"][0]["options"] = ["approve"]
        errors = _errors_of(obj)
        assert any("two or more distinct" in e for e in errors)

    def test_discussion_must_close_before_voting(self):
        obj = _valid()
        obj["proposals"][0]["discussion_window"] = [0, 6]
        errors = _errors_of(obj)
        assert any("must close before voting opens" in e for e in errors)

    def test_voting_window_must_fit_the_horizon(self):
        obj = _valid()
        obj["ticks"] = 10
        errors = _errors_of(obj)
        assert any("horizon" in e or "ticks" in e for e in errors)

    def test_overlapping_voting_windows_rejected(self):
        obj = _valid()
        obj["proposals"].append(
            {
                "id": "p2",
                "options": ["approve", "reject"],
                "discussion_window": [0, 5],
                "voting_window": [10, 18],
            }
        )
        obj["ticks"] = 20
        errors = _errors_of(obj)
        assert any("overlapping voting windows" in e for e in errors)

    def test_quorum_mechanism_requires_config(self):
        obj = _valid()
        obj["mechanism"] = "quorum"
        (error,) = _errors_of(obj)
        assert error == "mechanism 'quorum' requires a quorum config"

    def test_conviction_mechanism_requires_params(self):
        obj = _valid()
        obj["mechanism"] = "conviction"
        (error,) = _errors_of(obj)
        assert error == "mechanism 'conviction' requires conviction params"

    def test_quorum_threshold_must_be_a_decimal_string(self):
        obj = _valid()
        obj["quorum"] = {"basis": "token_supply_fraction", "threshold": "lots"}
        errors = _errors_of(obj)
        assert any("quorum.threshold" in e for e in errors)

    def test_quorum_basis_vocabulary(self):
        obj = _valid()
        obj["quorum"] = {"basis": "turnout", "threshold": "0.5"}
        errors = _errors_of(obj)
        assert any("quorum.basis" in e for e in errors)

    def test_identity_mode_vocabulary(self):
        obj = _valid()
        obj["identity"] = {"mode": "paranoid", "policy": "drop_unverified"}
        (error,) = _errors_of(obj)
        assert "identity.mode must be a registry mode" in error

    def test_identity_policy_vocabulary(self):
        obj = _valid()
        obj["identity"] = {"mode": "strict_one_wallet", "policy": "shrug"}
        (error,) = _errors_of(obj)
        assert "identity.policy must be a vote policy" in error

    def test_provider_rate_must_be_a_probability(self):
        obj = _valid()
        obj["identity"] = {
            "mode": "strict_one_wallet",
            "policy": "drop_unverified",
            "provider": {"false_accept_rate": "1.5"},
        }
        errors = _errors_of(obj)
        assert any("false_accept_rate must be in [0, 1]" in e for e in errors)

    def test_scenario_must_be_an_object(self):
        with pytest.raises(ScenarioValidationError, match="must be a JSON object"):
            parse_scenario([1, 2, 3])


class TestPresets:
    def test_expected_presets_ship(self):
        assert preset_names() == [
            "nonprofit_grant_vote",
            "participatory_budget",
            "plurality_iia_probe",
            "sybil_attack_quadratic",
        ]

    @pytest.mark.parametrize("name", [
        "nonprofit_grant_vote",
        "participatory_budget",
        "plurality_iia_probe",
        "sybil_attack_quadratic",
    ])
    def test_every_preset_parses_clean(self, name):
        scenario = load_preset(name)
        assert scenario.name
        assert scenario.proposals
        assert scenario.agents

    def test_unknown_preset(self):
        with pytest.raises(Exception, match="unknown preset"):
            load_preset("does_not_exist")

    def test_sybil_preset_shape(self):
        scenario = load_preset("sybil_attack_quadratic")
        attacker = _agent(scenario, "whale")
        assert attacker.kind is AgentKind.SYBIL_ATTACKER
        assert attacker.n_wallets == 100
        assert attacker.identity_strategy is IdentityStrategy.ONE_IDENTITY
        assert scenario.mechanism is Mechanism.QUADRATIC

    def test_presets_balance_books(self):
        for name in preset_names():
            scenario = load_preset(name)
            total = sum(a.balance.units for a in scenario.agents)
            assert total <= scenario.supply.units

    def test_preset_decimals_are_exact(self):
        scenario = load_preset("nonprofit_grant_vote")
        for agent in scenario.agents:
            assert isinstance(agent.balance.units, int)
        assert isinstance(scenario.supply.units, int)
        if scenario.conviction is not None:
            assert isinstance(scenario.conviction.decay_rate, Decimal)
