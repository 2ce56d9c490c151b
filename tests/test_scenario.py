"""Scenario schema parsing: exhaustive error collection, exact decimals, presets."""

import copy
import json
import re
import time
import tracemalloc
from decimal import Decimal
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from govlab.core import GovlabError, IdentityId, ProposalId, TokenAmount, WalletId
from govlab.governance import Window
from govlab.scenario import (
    MAX_CASTS,
    MAX_WALLETS,
    QUOTED_CHARS,
    AgentKind,
    AgentSpec,
    IdentityStrategy,
    Scenario,
    ScenarioValidationError,
    load_preset,
    loads_scenario,
    parse_scenario,
    preset_names,
)
from govlab.mechanisms import Mechanism
from govlab.simulation import build_setup
from oracles import ID_RULE, fake_identities_ref, wallets_ref


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


def _errors_with(obj, target, key, literal):
    """The errors of obj's JSON text after target(obj)[key] is set to a raw JSON literal."""
    target(obj)[key] = "<literal>"
    with pytest.raises(ScenarioValidationError) as excinfo:
        loads_scenario(json.dumps(obj).replace('"<literal>"', literal))
    return excinfo.value.errors


def _preset_json(name):
    return json.loads(resources.files("govlab.presets").joinpath(f"{name}.json").read_text("utf-8"))


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

    def test_a_parsed_window_is_built_without_the_constructors_checks(self, monkeypatch):
        """_window makes the int, sign and order checks itself, so one abstainer × 2,000 proposals
        parses without entering Window.__init__, to windows equal to the constructor's."""
        obj = _valid()
        obj["ticks"] = 4_000
        obj["proposals"] = [
            {"id": f"p{k}", "options": ["yes", "no"], "discussion_window": [2 * k, 2 * k + 1], "voting_window": [2 * k + 1, 2 * k + 2]}
            for k in range(2_000)
        ]
        obj["agents"] = [{"id": "idle", "kind": "abstainer", "balance": "1"}]
        entered, init = [], Window.__init__

        def counted(self, start, end):
            entered.append((start, end))
            init(self, start, end)

        monkeypatch.setattr(Window, "__init__", counted)
        scenario = parse_scenario(obj)
        assert entered == []
        monkeypatch.undo()
        assert [(p.discussion_window, p.voting_window) for p in scenario.proposals] == [
            (Window(2 * k, 2 * k + 1), Window(2 * k + 1, 2 * k + 2)) for k in range(2_000)
        ]

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

    @pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN"])
    def test_a_non_finite_decimal_is_one_validation_error(self, value):
        obj = _valid()
        obj["supply"] = Decimal(value)
        assert _errors_of(obj) == [f"supply: malformed decimal: {value}"]

    def test_a_29th_significant_digit_is_an_error_not_rounded_away(self):
        literal = "1000.00000000000000000000000001"
        errors = _errors_with(_valid(), lambda obj: obj, "supply", literal)
        assert errors == [f"supply: more than 9 fractional digits: {literal}"]

    def test_malformed_json_reports_position(self):
        with pytest.raises(ScenarioValidationError, match="malformed JSON"):
            loads_scenario("{not json")

    def test_replace_returns_a_new_scenario(self):
        scenario = parse_scenario(_valid())
        reseeded = scenario._replace(seed=99)
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

    def test_agent_id_shadowing_a_fake_identity(self):
        # Under strict_one_wallet the registry would refuse the honest agent's binding as a
        # duplicate of the attacker's first fake identity and silently drop its vote.
        obj = _valid()
        obj["identity"] = {
            "mode": "strict_one_wallet",
            "policy": "drop_unverified",
            "provider": {"false_accept_rate": "1"},
        }
        obj["agents"] = [
            {"id": "att", "kind": "sybil_attacker", "balance": "10", "preference": "approve",
             "n_wallets": 2, "identity_strategy": "fake_identities"},
            {"id": "att_fake0", "kind": "honest", "balance": "5", "preference": "reject"},
        ]
        (error,) = _errors_of(obj)
        assert error == "agent 'att_fake0': identity 'att_fake0' is also a fake identity of agent 'att'"
        # An attacker that claims its own id is checked too; one that fakes identities is not.
        obj["agents"][1] = {"id": "att_fake1", "kind": "sybil_attacker", "balance": "5", "preference": "reject", "n_wallets": 2}
        (error,) = _errors_of(obj)
        assert error == "agent 'att_fake1': identity 'att_fake1' is also a fake identity of agent 'att'"
        obj["agents"][1]["identity_strategy"] = "fake_identities"
        parse_scenario(obj)
        # Neither the wrong width nor an index past n_wallets names a fake identity.
        obj["agents"][1:] = [
            {"id": harmless, "kind": "honest", "balance": "1", "preference": "reject"}
            for harmless in ("att_fake2", "att_fake00", "att_fakex", "att_fake")
        ]
        parse_scenario(obj)
        # Without an identity block no identity is claimed, and with one_identity att claims only its own.
        obj["agents"][1]["id"] = "att_fake0"
        assert _errors_of(obj)
        parse_scenario({**obj, "identity": None})
        obj["agents"][0]["identity_strategy"] = "one_identity"
        parse_scenario(obj)

    @given(
        st.lists(st.sampled_from(["a", "b", "a_w0", "a_w1", "a_fake0", "a_fake1", "b_w0", "b_fake1"]),
                 min_size=1, max_size=4, unique=True),
        st.data(),
    )
    def test_every_bound_identity_holds_wallets_of_one_agent(self, ids, data):
        """The probes' precondition: with identities bound, no identity spans two agents' wallets."""
        obj = _valid()
        obj["identity"] = {
            "mode": data.draw(st.sampled_from(["strict_one_wallet", "collapse_per_identity"])),
            "policy": data.draw(st.sampled_from(["drop_unverified", "admit_unverified"])),
            "provider": {"false_accept_rate": data.draw(st.sampled_from(["0", "0.3", "1"]))},
        }
        obj["agents"] = []
        for agent_id in ids:
            kind = data.draw(st.sampled_from(["honest", "abstainer", "sybil_attacker"]))
            agent = {"id": agent_id, "kind": kind, "balance": "10", "preference": "approve"}
            if kind == "sybil_attacker":
                agent["n_wallets"] = data.draw(st.integers(2, 3))
                agent["identity_strategy"] = data.draw(st.sampled_from(["one_identity", "fake_identities"]))
            obj["agents"].append(agent)
        try:
            scenario = parse_scenario(obj)
        except ScenarioValidationError:
            assume(False)
        setup = build_setup(scenario)
        owner = {wallet: agent.id for agent in scenario.agents for wallet in agent.wallets()}
        for identity, wallets in setup.identity.registry.bindings():
            assert len({owner[wallet] for wallet in wallets}) == 1, identity

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

    def test_overlaps_are_found_in_one_sweep_and_reported_once_per_proposal(self):
        obj = _valid()
        window = {"options": ["approve", "reject"], "discussion_window": [0, 5], "voting_window": [5, 15]}
        obj["proposals"] = [{"id": f"p{i}", **window} for i in range(4000)]
        start = time.perf_counter()
        errors = _errors_of(obj)
        assert time.perf_counter() - start < 1.0
        assert len(errors) == 3999
        assert len({e.split("'")[3] for e in errors}) == 3999  # the second id names the overlapping proposal
        assert errors[0] == (
            "proposals 'p0' and 'p1' have overlapping voting windows; agents cannot lock their balance in both"
        )

    def test_overlaps_are_reported_in_order_of_voting_start(self):
        obj = _valid()
        obj["ticks"] = 40
        for pid, voting in (("late", [20, 30]), ("middle", [10, 25])):
            obj["proposals"].append(
                {"id": pid, "options": ["approve", "reject"], "discussion_window": [0, 5], "voting_window": voting}
            )
        assert _errors_of(obj) == [
            "proposals 'p1' and 'middle' have overlapping voting windows; agents cannot lock their balance in both",
            "proposals 'middle' and 'late' have overlapping voting windows; agents cannot lock their balance in both",
        ]

    def test_overlaps_without_voters_are_allowed(self):
        obj = _valid()
        obj["agents"] = [{"id": "idle", "kind": "abstainer", "balance": "10"}]
        obj["proposals"] = [{**obj["proposals"][0], "id": f"p{i}"} for i in range(4000)]
        start = time.perf_counter()
        assert len(parse_scenario(obj).proposals) == 4000
        assert time.perf_counter() - start < 1.0

    def test_total_wallets_are_capped_before_any_wallet_exists(self):
        obj = _valid()
        obj["supply"] = "2000"
        attacker = {"id": "mallory", "kind": "sybil_attacker", "balance": "1000", "preference": ["approve"]}
        obj["agents"].append({**attacker, "n_wallets": MAX_WALLETS - 2})
        assert sum(a.n_wallets for a in parse_scenario(obj).agents) == MAX_WALLETS
        obj["agents"][-1]["n_wallets"] = 10_000_000
        start = time.perf_counter()
        errors = _errors_of(obj)
        assert time.perf_counter() - start < 0.1
        assert errors == [f"agents hold 10000002 wallets in total, more than the cap of {MAX_WALLETS}"]

    @staticmethod
    def _at_cast_cap():
        """Five proposals and an attacker whose wallets bring the casts to exactly MAX_CASTS."""
        obj = _valid()
        obj["supply"] = "2000"
        obj["proposals"] = [
            {**obj["proposals"][0], "id": f"p{k}", "discussion_window": [4 * k, 4 * k + 1], "voting_window": [4 * k + 1, 4 * k + 4]}
            for k in range(5)
        ]
        attacker = {"id": "mallory", "kind": "sybil_attacker", "balance": "1000", "preference": ["approve"]}
        obj["agents"].append({**attacker, "n_wallets": MAX_CASTS // 5 - 2})
        return obj

    def test_total_casts_are_capped_before_agents_are_checked(self):
        """Wallets x proposals is capped, and a file over it gets that one error."""
        obj = self._at_cast_cap()
        at_cap = parse_scenario(obj)
        assert sum(a.n_wallets for a in at_cap.agents) * len(at_cap.proposals) == MAX_CASTS
        obj["agents"][-1]["n_wallets"] += 1
        obj["agents"][0]["preference"] = ["maybe"]  # an agent error, never reached
        assert _errors_of(obj) == [
            f"agents' wallets x proposals is {MAX_CASTS + 5} (50001 wallets x 5 proposals), "
            f"more than the cap of {MAX_CASTS}"
        ]

    def test_the_cast_cap_counts_every_agent_that_parsed(self):
        """An abstainer has a CSV row per proposal, so its wallet counts toward the cap.  An agent
        whose own fields fail is never checked against a proposal, so it does not count: the file
        at the cap gets only the broken agent's error."""
        obj = self._at_cast_cap()
        obj["agents"].append({"id": "quiet", "kind": "abstainer", "balance": "0"})
        assert _errors_of(obj) == [
            f"agents' wallets x proposals is {MAX_CASTS + 5} (50001 wallets x 5 proposals), "
            f"more than the cap of {MAX_CASTS}"
        ]
        obj["agents"][-2]["n_wallets"] -= 1  # the attacker gives the abstainer's wallet room
        parse_scenario(obj)
        obj["agents"].append({"id": "broken", "kind": "honest", "balance": "lots", "preference": ["approve"]})
        (error,) = _errors_of(obj)
        assert error.startswith("agent 'broken': balance")

    def test_a_long_ranking_of_missing_labels_is_counted_not_formatted(self):
        """One agent ranks 1,000 labels that none of 2,000 proposals offers: 2,000,000 errors, of
        which only the first MAX_ERRORS are formatted and the rest counted, in a bounded peak."""
        obj = _valid()
        obj["ticks"] = 4_000
        obj["proposals"] = [
            {"id": f"p{k}", "options": ["yes", "no"], "discussion_window": [2 * k, 2 * k + 1], "voting_window": [2 * k + 1, 2 * k + 2]}
            for k in range(2_000)
        ]
        obj["agents"] = [{"id": "a", "kind": "honest", "balance": "1", "preference": [f"x{k}" for k in range(1_000)]}]
        text = json.dumps(obj)
        tracemalloc.start()
        try:
            with pytest.raises(ScenarioValidationError) as excinfo:
                loads_scenario(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        errors = excinfo.value.errors
        assert errors[0] == "agent 'a': preference 'x0' not among options of proposal 'p0'"
        assert errors[-1] == "... and 1995000 more"
        assert peak < 16 * 2**20, f"{peak / 2**20:.1f} MiB traced peak"

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

    @pytest.mark.parametrize(
        "target, key, literal, error",
        [
            (lambda o: o, "schema_version", "true", "schema_version must be 1, got True"),
            (lambda o: o, "schema_version", "1.0", "schema_version must be 1, got Decimal('1.0')"),
            (lambda o: o["agents"][0], "n_wallets", "true", "agent 'grace': n_wallets must be a positive integer, got True"),
            (
                lambda o: o["agents"][0], "n_wallets", "1.0",
                "agent 'grace': n_wallets must be a positive integer, got Decimal('1.0')",
            ),
        ],
        ids=["schema-version-true", "schema-version-1.0", "n-wallets-true", "n-wallets-1.0"],
    )
    def test_integer_fields_take_exact_json_integers(self, target, key, literal, error):
        assert _errors_with(_valid(), target, key, literal) == [error]

    def test_every_bad_field_of_a_nested_object_is_reported(self):
        obj = _valid()
        obj["identity"] = {"mode": "paranoid", "policy": "shrug"}
        obj["quorum"] = {"basis": "turnout", "threshold": "2"}
        assert _errors_of(obj) == [
            "quorum.basis must be a participation basis, got 'turnout'",
            "quorum.threshold must be in [0, 1], got '2'",
            "identity.mode must be a registry mode, got 'paranoid'",
            "identity.policy must be a vote policy, got 'shrug'",
        ]

    def test_identity_strategy_is_checked_on_every_agent_kind(self):
        obj = _valid()
        obj["agents"][0]["identity_strategy"] = "fake_identities"
        parse_scenario(obj)
        obj["agents"][0]["identity_strategy"] = "junk"
        assert _errors_of(obj) == ["agent 'grace': identity_strategy must be an identity strategy, got 'junk'"]

    @pytest.mark.parametrize(
        "preset, target, key, literal, error",
        [
            ("nonprofit_grant_vote", lambda o: o["agents"][0], "castAt", "3", "agent 'board_chair': unknown field 'castAt'"),
            (
                "nonprofit_grant_vote", lambda o: o["proposals"][0], "voting_windw", "[3, 12]",
                "proposal 'grant-2026-q3': unknown field 'voting_windw'",
            ),
            ("nonprofit_grant_vote", lambda o: o["quorum"], "extra", "1", "quorum: unknown field 'extra'"),
            ("participatory_budget", lambda o: o["conviction"], "decay", '"0.5"', "conviction: unknown field 'decay'"),
            ("nonprofit_grant_vote", lambda o: o["identity"], "polcy", '"admit_unverified"', "identity: unknown field 'polcy'"),
            (
                "nonprofit_grant_vote", lambda o: o["identity"]["provider"], "false_accept_rat", '"0.9"',
                "identity.provider: unknown field 'false_accept_rat'",
            ),
        ],
        ids=["agent", "proposal", "quorum", "conviction", "identity", "identity-provider"],
    )
    def test_a_misspelt_nested_key_is_one_error_naming_its_path(self, preset, target, key, literal, error):
        assert _errors_with(_preset_json(preset), target, key, literal) == [error]


def _past_a_long_horizon(obj):
    obj["ticks"] = int("9" * 4000)
    for p in obj["proposals"]:
        p["voting_window"][1] = 10**4000


class TestErrorText:
    """An item's errors name it by its quoted id when it has a usable one, else by its index,
    and no error quotes more than QUOTED_CHARS characters of an id or a value."""

    @pytest.mark.parametrize(
        "change, errors",
        [
            (lambda agents: agents[1].update(castAt=3), ["agent 'hal': unknown field 'castAt'"]),
            (
                lambda agents: agents[1].update(id=7, castAt=3),
                ["agent #1: unknown field 'castAt'", "agent #1: id must be <= 48 chars from [A-Za-z0-9_-]"],
            ),
            (lambda agents: agents[1].update(balance="4x"), ["agent 'hal': balance: malformed decimal string: '4x'"]),
            (
                lambda agents: agents[1].update(id="", balance="4x"),
                ["agent #1: id must be <= 48 chars from [A-Za-z0-9_-]", "agent #1: balance: malformed decimal string: '4x'"],
            ),
            (lambda agents: agents[1].update(id="grace"), ["agent 'grace': duplicate id"]),
        ],
        ids=["unknown-named", "unknown-indexed", "bad-named", "bad-indexed", "duplicate"],
    )
    def test_the_exact_text_of_agent_errors(self, change, errors):
        obj = _valid()
        change(obj["agents"])
        assert _errors_of(obj) == errors

    def test_a_long_id_with_many_unknown_keys(self):
        # Before the cut, this 27 KB file gave 501 errors and 10 MB of text.
        obj = _preset_json("nonprofit_grant_vote")
        obj["agents"][0]["id"] = "x" * 20_000
        obj["agents"][0].update({f"k{k}": 1 for k in range(500)})
        with pytest.raises(ScenarioValidationError) as excinfo:
            loads_scenario(json.dumps(obj))
        errors = excinfo.value.errors
        label = "agent '" + "x" * (QUOTED_CHARS - 1) + "..."
        assert errors[0] == f"{label}: unknown field 'k0'"
        assert errors[-1] == f"{label}: id must be <= 48 chars from [A-Za-z0-9_-]"
        assert len(errors) == 501
        assert max(len(e.encode()) for e in errors) <= 300
        assert sum(len(e.encode()) + 1 for e in errors) <= 100_000

    @pytest.mark.parametrize(
        "change",
        [
            lambda o: o["agents"][0].update(preference=["approve", "y" * 20_000]),
            lambda o: o["agents"][0].update(cast_at=int("9" * 4000)),
            lambda o: o["agents"][0].update({"z" * 20_000: 1}),
            lambda o: o["agents"][0].update(balance="1" + "0" * 20_000),
            _past_a_long_horizon,
            lambda o: o["agents"].append("w" * 20_000),
        ],
        ids=["option", "tick", "key", "amount", "horizon", "item"],
    )
    def test_no_line_quotes_a_long_value_whole(self, change):
        obj = _valid()
        # 50 proposals, so a value that each proposal's error repeats is quoted 50 times.
        obj["ticks"] = 1000
        obj["proposals"] = [
            {"id": f"p{k}", "options": ["approve", "reject"], "discussion_window": [10 * k, 10 * k + 2],
             "voting_window": [10 * k + 2, 10 * k + 10]}
            for k in range(50)
        ]
        change(obj)
        errors = _errors_of(obj)
        assert max(len(e) for e in errors) <= 300

    def test_a_short_value_keeps_its_exact_text(self):
        obj = _valid()
        obj["agents"][0]["preference"] = "x" * (QUOTED_CHARS - 2)
        (error,) = _errors_of(obj)
        assert error == f"agent 'grace': preference {'x' * (QUOTED_CHARS - 2)!r} not among options of proposal 'p1'"


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

    def test_readme_scenario_example_parses_clean(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
        section = readme[readme.index("## Scenario schema"):]
        example = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
        scenario = loads_scenario(example)
        assert _agent(scenario, "mallory").n_wallets == 100

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


def _hand_built(agent_id, n_wallets, kind=AgentKind.SYBIL_ATTACKER):
    """An AgentSpec built without the parser, so none of its rules has run."""
    return AgentSpec(
        agent_id, kind, TokenAmount(max(n_wallets, 1)), ("approve",), None, n_wallets, IdentityStrategy.FAKE_IDENTITIES,
    )


class TestNumberedIds:
    """An agent's wallets and fake identities against the README's naming rule (tests/oracles.py),
    which builds each name on its own, without the package's once-per-agent check."""

    @pytest.mark.parametrize("agent_id", ["a", "x" * 48])
    @pytest.mark.parametrize("n", [2, 9, 10, 11, 99, 100, 101, 1000, MAX_WALLETS])
    def test_names_follow_the_naming_rule(self, agent_id, n):
        agent = _hand_built(agent_id, n)
        wallets, fakes = agent.wallets(), tuple(agent.fake_ids())
        assert list(wallets) == wallets_ref(agent)
        assert list(fakes) == fake_identities_ref(agent)
        assert {type(w) for w in wallets} == {WalletId} and {type(i) for i in fakes} == {IdentityId}
        assert all(ID_RULE.fullmatch(name) for name in (*wallets, *fakes))

    def test_a_form_narrower_than_its_numbers_is_checked_at_its_longest_id(self):
        assert list(WalletId.numbered("x" * 62 + "%01d", 11))[-1] == "x" * 62 + "10"
        with pytest.raises(GovlabError, match="must match"):
            WalletId.numbered("x" * 63 + "%01d", 11)  # x63_0 is 64 characters, x63_10 65
        assert list(WalletId.numbered("bad id%d", 0)) == []

    def test_an_agent_with_one_wallet_owns_its_id(self):
        assert _hand_built("grace", 1, AgentKind.HONEST).wallets() == (WalletId("grace"),)

    @pytest.mark.parametrize(
        "agent_id, n",
        [
            ("a b", 2),  # a space
            ("a b", 1000),
            (" ab", 10),
            ("ab%d", 10),  # a '%', which the %-form must keep literal
            ("ab%", 3),
            ("é", 2),
            ("x" * 59, 11),  # x59_w00 is 63 characters, x59_fake00 66
            ("x" * 61, 10),  # x61_w9 is 64 characters, x61_fake9 67
            ("x" * 61, 11),  # x61_w00 is 65 characters
            ("x" * 62, 100),
        ],
    )
    def test_a_bad_hand_built_id_raises_as_the_rule_says(self, agent_id, n):
        agent = _hand_built(agent_id, n)
        for build, reference in ((agent.wallets, wallets_ref), (agent.fake_ids, fake_identities_ref)):
            if all(ID_RULE.fullmatch(name) for name in reference(agent)):
                assert list(build()) == reference(agent)
            else:
                with pytest.raises(GovlabError, match="must match"):
                    build()

    @pytest.mark.parametrize("agent_id", ["a b", "x" * 49, "x" * 65, ""])
    def test_a_bad_id_of_an_agent_with_one_wallet_raises(self, agent_id):
        agent = _hand_built(agent_id, 1, AgentKind.HONEST)
        if ID_RULE.fullmatch(agent_id):  # 49 characters is a valid wallet id: the 48 cap is the parser's
            assert agent.wallets() == (WalletId(agent_id),)
        else:
            with pytest.raises(GovlabError, match="must match"):
                agent.wallets()

    @pytest.mark.parametrize("agent_id", ["x" * 49, "a b"])
    def test_the_parser_refuses_an_agent_id_that_is_49_characters_or_has_a_space(self, agent_id):
        obj = _valid()
        obj["agents"][0]["id"] = agent_id
        with pytest.raises(GovlabError, match="48 chars"):
            parse_scenario(obj)
