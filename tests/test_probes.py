"""Exhaustive dictator and independence probes, read from a run's report and checked
against in-test enumeration and against the brute-force references in tests/oracles.py."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from govlab import governance, mechanisms, simulation
from govlab.scenario import MAX_WALLETS, load_preset, parse_scenario
from govlab.simulation import run
from oracles import dictator_probe_ref, iia_probe_ref


def _scenario(balances, options=("a", "b"), mechanism="token"):
    """Token-weighted single-proposal scenario with the given holder balances."""
    return parse_scenario(
        {
            "schema_version": 1,
            "name": "probe-instance",
            "seed": 3,
            "ticks": 10,
            "supply": str(sum(balances.values())),
            "mechanism": mechanism,
            "proposals": [
                {
                    "id": "p1",
                    "options": list(options),
                    "discussion_window": [0, 2],
                    "voting_window": [2, 10],
                }
            ],
            "agents": [
                {"id": name, "kind": "honest", "balance": str(tokens), "preference": [options[0]]}
                for name, tokens in balances.items()
            ],
        }
    )


def _token_dictators(balances):
    """Independent enumeration: an agent whose pick wins every two-option profile.

    Under token weighting with a strict-majority winner, that is exactly the
    set of agents holding strictly more than half the total.
    """
    names = list(balances)
    dictators = set(names)
    for profile in product(["a", "b"], repeat=len(names)):
        choices = dict(zip(names, profile))
        weight = {"a": 0, "b": 0}
        for name, option in choices.items():
            weight[option] += balances[name]
        if weight["a"] > weight["b"]:
            winner = "a"
        elif weight["b"] > weight["a"]:
            winner = "b"
        else:
            winner = None
        dictators = {d for d in dictators if choices[d] == winner}
    return dictators


def _probes(scenario):
    return run(scenario).report["arrow_probes"]


def _flagged(scenario):
    return _probes(scenario)["dictator_probe"]["flagged"]


def _witness(scenario):
    return _probes(scenario)["iia_probe"]["witness"]


class TestDictatorProbe:
    def test_majority_whale_is_flagged(self):
        scenario = _scenario({"whale": 60, "mid": 30, "small": 10})
        assert _flagged(scenario) == ["whale"]

    def test_no_majority_holder_no_dictator(self):
        scenario = _scenario({"x": 40, "y": 35, "z": 25})
        assert _flagged(scenario) == []

    def test_exactly_half_is_not_a_dictator(self):
        # 50 can be tied by the other two together; ties have no winner.
        scenario = _scenario({"big": 50, "mid": 30, "small": 20})
        assert _flagged(scenario) == []

    @pytest.mark.parametrize(
        "balances",
        [
            {"a1": 60, "a2": 30, "a3": 10},
            {"a1": 40, "a2": 35, "a3": 25},
            {"a1": 51, "a2": 49},
            {"a1": 50, "a2": 50},
            {"a1": 97, "a2": 1, "a3": 1, "a4": 1},
            {"a1": 25, "a2": 25, "a3": 25, "a4": 25},
        ],
    )
    def test_matches_independent_enumeration(self, balances):
        scenario = _scenario(balances)
        assert set(_flagged(scenario)) == _token_dictators(balances)

    def test_quadratic_weighting_can_unseat_a_token_dictator(self):
        # 60 of 100 tokens dictates under token weighting, but sqrt(60) < sqrt(30)+sqrt(10).
        balances = {"whale": 60, "mid": 30, "small": 10}
        assert _flagged(_scenario(balances)) == ["whale"]
        assert _flagged(_scenario(balances, mechanism="quadratic")) == []

    def test_three_option_profiles_are_enumerated(self):
        scenario = _scenario({"whale": 60, "mid": 30, "small": 10}, options=("a", "b", "c"))
        assert _flagged(scenario) == ["whale"]


class TestIiaProbe:
    def test_two_options_have_no_witness(self):
        scenario = _scenario({"x": 40, "y": 35, "z": 25})
        assert _witness(scenario) is None

    def test_plurality_spoiler_witness(self):
        witness = _witness(load_preset("plurality_iia_probe"))
        assert witness is not None
        assert witness["removed_option"] == "C"
        assert witness["winner_before"] == "A"
        assert witness["winner_after"] == "B"
        rankings = witness["profile"]
        assert set(rankings) == {"bloc_a", "bloc_b", "bloc_c"}
        for ranking in rankings.values():
            assert sorted(ranking) == ["A", "B", "C"]

    def test_witness_profile_is_replayable(self):
        """The returned profile really does flip the winner when the option drops."""
        scenario = load_preset("plurality_iia_probe")
        witness = _witness(scenario)
        balances = {a.id: a.balance.units for a in scenario.agents}
        profile = witness["profile"]

        def plurality_winner(choices):
            weight = {}
            for agent, option in choices.items():
                weight[option] = weight.get(option, 0) + balances[agent]
            ranked = sorted(weight.items(), key=lambda kv: -kv[1])
            if len(ranked) > 1 and ranked[0][1] == ranked[1][1]:
                return None
            return ranked[0][0]

        before = plurality_winner({a: r[0] for a, r in profile.items()})
        assert before == witness["winner_before"]
        survivors = {
            a: next(o for o in r if o != witness["removed_option"]) for a, r in profile.items()
        }
        assert plurality_winner(survivors) == witness["winner_after"]

    def test_dictated_instances_have_no_witness(self):
        """A majority whale's top pick always wins, so removals never flip it."""
        scenario = _scenario({"whale": 60, "mid": 30, "small": 10}, options=("a", "b", "c"))
        assert _witness(scenario) is None


def _count_votes_calls(monkeypatch):
    """Count every count_votes call, finalize's (through governance) and the probes' (through simulation)."""
    calls = []
    count_votes = governance.count_votes

    def counted(*args):
        calls.append(args[0].id)
        return count_votes(*args)

    monkeypatch.setattr(governance, "count_votes", counted)
    monkeypatch.setattr(simulation, "count_votes", counted)
    return calls


class TestEnumerationBounds:
    def test_five_voters_report_null(self):
        assert _probes(_scenario({f"v{i}": 10 for i in range(5)})) is None

    def test_four_options_report_null(self):
        assert _probes(_scenario({"x": 40, "y": 35, "z": 25}, options=("a", "b", "c", "d"))) is None

    def test_bounds_are_checked_before_the_probes_count(self, monkeypatch):
        """Past a bound the run counts each proposal once, at finalize, and never for the probes."""
        calls = _count_votes_calls(monkeypatch)
        too_many_voters = _scenario({f"v{i}": 10 for i in range(5)})
        too_many_options = _scenario({"x": 40, "y": 35, "z": 25}, options=("a", "b", "c", "d"))
        for scenario in (too_many_voters, too_many_options):
            calls.clear()
            assert _probes(scenario) is None
            assert calls == [spec.id for spec in scenario.proposals]

    def test_four_voters_three_options_allowed(self):
        scenario = _scenario(
            {"a1": 97, "a2": 1, "a3": 1, "a4": 1}, options=("a", "b", "c")
        )
        assert _flagged(scenario) == ["a1"]


@st.composite
def probe_scenarios(draw):
    """Small single-proposal scenarios over every mechanism, quorum gate, identity layer and agent kind.

    Balances are a few whole tokens, so equal powers, and with them ties, are common.
    """
    options = ["a", "b", "c"][: draw(st.sampled_from([2, 3]))]
    mechanism = draw(st.sampled_from(["token", "quorum", "quadratic", "conviction"]))
    quorum = None
    if mechanism == "quorum" or draw(st.booleans()):
        quorum = {
            "basis": draw(st.sampled_from(["token_supply_fraction", "wallet_count_fraction"])),
            "threshold": draw(st.sampled_from(["0", "0.3", "0.5", "0.75", "1"])),
        }
    identity = None
    if draw(st.booleans()):
        identity = {
            "mode": draw(st.sampled_from(["strict_one_wallet", "collapse_per_identity"])),
            "policy": draw(st.sampled_from(["drop_unverified", "admit_unverified"])),
            "provider": {"false_accept_rate": draw(st.sampled_from(["0", "0.3", "1"]))},
        }
    agents = []
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["honest", "whale", "sybil_attacker"]))
        agent = {"id": f"v{i}", "kind": kind, "balance": str(draw(st.integers(1, 9))),
                 "preference": list(draw(st.permutations(options)))}
        if kind == "sybil_attacker":
            agent["n_wallets"] = draw(st.integers(2, 4))
            agent["identity_strategy"] = draw(st.sampled_from(["one_identity", "fake_identities"]))
        if draw(st.booleans()):
            agent["cast_at"] = draw(st.integers(2, 9))  # the probes count every voter at the window start
        agents.append(agent)
    agents += [{"id": f"z{i}", "kind": "abstainer", "balance": "1"} for i in range(draw(st.integers(0, 2)))]
    held = sum(int(a["balance"]) for a in agents)
    return parse_scenario({
        "schema_version": 1,
        "name": "probe-differential",
        "seed": draw(st.integers(0, 2**64 - 1)),
        "ticks": 10,
        "supply": str(held + draw(st.sampled_from([0, 1, 20]))),
        "mechanism": mechanism,
        "quorum": quorum,
        "conviction": {"decay_rate": draw(st.sampled_from(["0.05", "0.5"]))} if mechanism == "conviction" else None,
        "identity": identity,
        "proposals": [{"id": "p1", "options": options, "discussion_window": [0, 2], "voting_window": [2, 10]}],
        "agents": agents,
    })


class TestAgainstBruteForce:
    """One count, summed per agent, gives what counting every profile afresh gives."""

    @settings(max_examples=120)
    @given(probe_scenarios())
    def test_probes_match_the_per_profile_count(self, scenario):
        ref = iia_probe_ref(scenario)
        witness = None if ref is None else {
            "profile": {agent: list(ranking) for agent, ranking in ref[0]},
            "removed_option": ref[1],
            "winner_before": ref[2],
            "winner_after": ref[3],
        }
        assert _probes(scenario) == {
            "dictator_probe": {"flagged": list(dictator_probe_ref(scenario))},
            "iia_probe": {"witness": witness},
        }


class TestCountOnce:
    def test_the_probes_count_the_wallets_once(self, monkeypatch):
        calls = _count_votes_calls(monkeypatch)
        scenario = load_preset("participatory_budget")  # 3 options, 4 voters
        report = _probes(scenario)
        assert report["dictator_probe"] == {"flagged": ["late_whale"]}
        assert len(calls) == len(scenario.proposals) + 1  # finalize's counts, and one the two probes share

    @pytest.mark.parametrize("wallets", [1_000, pytest.param(MAX_WALLETS - 3, marks=pytest.mark.slow)])
    def test_power_calls_grow_with_wallets_not_profiles(self, monkeypatch, wallets):
        """The tallies' calls of the power rule stay a small multiple of a run's votes with the probes on."""
        scenario = _attacked(wallets)
        votes = (wallets + 3) * len(scenario.proposals)
        bound = 2 * votes  # finalize's count and the probes' one count
        calls = 0
        power_rule = mechanisms.power_rule

        def counted_rule(*args):
            rule = power_rule(*args)

            def counted(units, dt):
                nonlocal calls
                calls += 1
                assert calls <= bound, f"more than {bound} power rule calls for {votes} votes"
                return rule(units, dt)

            return counted

        monkeypatch.setattr(mechanisms, "power_rule", counted_rule)
        report = run(scenario).report
        assert report["arrow_probes"] is not None
        assert calls >= votes


def _attacked(wallets):
    """Three honest agents and one attacker splitting its stake over `wallets` wallets, under conviction."""
    return parse_scenario({
        "schema_version": 1,
        "name": "probe-cost",
        "ticks": 30,
        "supply": "1000000",
        "mechanism": "conviction",
        "conviction": {"decay_rate": "0.1"},
        "proposals": [{"id": "p1", "options": ["a", "b", "c"], "discussion_window": [0, 5], "voting_window": [5, 30]}],
        "agents": [
            {"id": "h0", "kind": "honest", "balance": "300", "preference": ["a", "b", "c"]},
            {"id": "h1", "kind": "honest", "balance": "200", "preference": ["b", "c", "a"]},
            {"id": "h2", "kind": "honest", "balance": "100", "preference": ["c", "a", "b"]},
            {"id": "att", "kind": "sybil_attacker", "balance": "100000", "preference": ["c", "b", "a"],
             "n_wallets": wallets},
        ],
    })
