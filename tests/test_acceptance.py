"""Acceptance suite: ten end-to-end criteria, one test and one pass/fail line each.

Each test states its tolerance inline; randomized criteria use fixed seeds so
a failure is reproducible.  Reference values come from independent oracles in
tests/oracles.py, never from the code under test.
"""

import random
from decimal import Decimal
from itertools import product

from govlab.core import (
    NANO,
    IdentityId,
    ProposalId,
    TokenAmount,
    VotingPower,
    WalletId,
)
from govlab.governance import GovernanceEngine, Phase, Proposal, Window, replay
from govlab.identity import (
    IdentityRegistry,
    RegistryMode,
    VotePolicy,
    filter_and_collapse,
)
from govlab.ledger import verify_chain
from govlab.mechanisms import (
    ConvictionParams,
    Mechanism,
    QuorumBasis,
    QuorumConfig,
    conviction_power,
    power_quadratic,
)
from govlab.core import VoteRecord
from govlab.scenario import load_preset, parse_scenario
from govlab.simulation import gini, run
from govlab.sybil import sybil_gain

from oracles import conviction_units, gini_pairwise_units, sqrt_units

ULP = Decimal("0.000000001")


def _ok(label):
    print(f"[acceptance] {label}: PASS")


def test_criterion_01_quadratic_worked_examples_exact():
    """100 tokens -> 10.000000000 and 10000 -> 100.000000000, zero tolerance."""
    assert power_quadratic(TokenAmount.parse(100)) == VotingPower.parse(10)
    assert str(power_quadratic(TokenAmount.parse(100))) == "10.000000000"
    assert power_quadratic(TokenAmount.parse(10000)) == VotingPower.parse(100)
    assert str(power_quadratic(TokenAmount.parse(10000))) == "100.000000000"
    _ok("criterion 1, quadratic worked examples exact")


def test_criterion_02_sybil_split_worked_example_exact():
    """10000 tokens over 100 wallets: honest 100, attack 1000, amplification 10."""
    report = sybil_gain(TokenAmount.parse(10000), 100, Mechanism.QUADRATIC)
    assert str(report.honest_power) == "100.000000000"
    assert str(report.attack_power) == "1000.000000000"
    assert report.amplification == Decimal("10.000000000")
    _ok("criterion 2, wallet-splitting worked example exact")


def test_criterion_03_identity_mitigation_neutralizes_the_attack():
    """Collapse merges the split to power 100 and amplification 1; strict rejects 99/100."""
    wallets = [WalletId(f"sybil_{k:02d}") for k in range(100)]

    collapse = IdentityRegistry(RegistryMode.COLLAPSE_PER_IDENTITY)
    for w in wallets:
        assert collapse.bind(IdentityId("whale"), w).accepted
    votes = {w: VoteRecord(option="b", committed=TokenAmount.parse(100), cast_at=5) for w in wallets}
    merged = filter_and_collapse(votes, collapse, VotePolicy.DROP_UNVERIFIED).votes
    assert list(merged) == [wallets[0]]
    assert str(power_quadratic(merged[wallets[0]].committed)) == "100.000000000"

    strict = IdentityRegistry(RegistryMode.STRICT_ONE_WALLET)
    outcomes = [strict.bind(IdentityId("whale"), w) for w in wallets]
    assert sum(1 for o in outcomes if o.accepted) == 1
    assert sum(1 for o in outcomes if not o.accepted) == 99

    raw = _sybil_preset_raw()
    raw["identity"] = {"mode": "collapse_per_identity", "policy": "drop_unverified"}
    metrics = run(parse_scenario(raw)).report["proposals"][0]
    assert metrics["sybil_amplification"] == {"whale": "1.000000000"}
    assert metrics["per_option_power"]["option_b"] == "100.000000000"

    raw["identity"] = {"mode": "strict_one_wallet", "policy": "drop_unverified"}
    result = run(parse_scenario(raw))
    assert result.report["identity"]["bindings_rejected"] == 99
    _ok("criterion 3, identity mitigation (collapse power 100, amp 1; strict rejects 99)")


def test_criterion_04_split_invariance_over_1000_randomized_cases():
    """Token amp = 1 exactly; quadratic within n ulps of sqrt(n); conviction within n ulps of 1."""
    rng = random.Random(20260825)
    for _ in range(1000):
        n = rng.randint(2, 300)
        per_wallet = rng.randint(1, 500)  # whole tokens, so splits stay divisible
        total = TokenAmount.parse(per_wallet * n)

        token = sybil_gain(total, n, Mechanism.TOKEN)
        assert token.amplification == Decimal("1.000000000")

        quad = sybil_gain(total, n, Mechanism.QUADRATIC)
        root_n = Decimal(sqrt_units(n * NANO)).scaleb(-9)
        assert abs(quad.amplification - root_n) <= n * ULP

        alpha_millis = rng.randint(100, 2000)
        dt = rng.randint(max(1, -(-700 // alpha_millis)), 50)  # alpha*dt >= 0.7
        conviction = sybil_gain(
            total,
            n,
            Mechanism.CONVICTION,
            conviction=ConvictionParams(decay_rate=Decimal(alpha_millis).scaleb(-3)),
            held_for=dt,
        )
        assert abs(conviction.amplification - 1) <= n * ULP
    _ok("criterion 4, split invariance across 1000 randomized (total, n) cases")


def test_criterion_05_conviction_curve_oracle_monotonicity_and_reset():
    """100 random triples within 1e-9 of the high-precision oracle; 1000 monotone pairs; exact reset."""
    rng = random.Random(977)
    params_cache = {}
    for _ in range(100):
        tokens = TokenAmount(rng.randint(1, 10**14))
        alpha = Decimal(rng.randint(1, 5000)).scaleb(-3)
        dt = rng.randint(0, 50)
        state = VoteRecord(option="a", committed=tokens, cast_at=0)
        ours = conviction_power(state.committed, dt, ConvictionParams(decay_rate=alpha))
        expected = conviction_units(tokens.units, str(alpha), dt)
        assert abs(ours.units - expected) <= 1  # 1e-9 after rounding

    wallet, state = WalletId("w1"), VoteRecord(option="a", committed=TokenAmount.parse(100), cast_at=0)
    params = ConvictionParams(decay_rate=Decimal("0.05"))
    for _ in range(1000):
        dt1, dt2 = sorted((rng.randint(0, 400), rng.randint(0, 400)))
        p1 = conviction_power(state.committed, dt1, params)
        p2 = conviction_power(state.committed, dt2, params)
        assert p1.units <= p2.units

    accrued = conviction_power(state.committed, 30, params)
    assert accrued.units > 0
    engine = GovernanceEngine(balances={wallet: state.committed}, supply=state.committed)
    engine.submit(
        Proposal(
            id=ProposalId("p1"),
            options=("a", "b"),
            discussion_window=Window(0, 1),
            voting_window=Window(1, 31),
            mechanism=Mechanism.CONVICTION,
            conviction=params,
        ),
        0,
    )
    engine.cast("p1", wallet, "a", state.committed, 1)
    engine.cast("p1", wallet, "b", state.committed, 30)
    votes, _ = engine.finalize("p1", 31)
    switched = votes[wallet]
    assert switched.cast_at == 30
    assert conviction_power(switched.committed, 30 - switched.cast_at, params) == VotingPower(0)
    _ok("criterion 5, conviction curve (oracle, monotonicity, exact reset)")


def test_criterion_06_quorum_gate_over_randomized_scenarios():
    """50 below-threshold scenarios all finalize QuorumFailed; threshold-exact passes."""
    rng = random.Random(424242)
    supply = 1000  # whole tokens; thresholds in thousandths stay exact

    def finalize_with(threshold_thousandths, turnout_tokens):
        splits = sorted(rng.sample(range(1, turnout_tokens), k=min(2, turnout_tokens - 1)))
        shares = [a - b for a, b in zip(splits + [turnout_tokens], [0] + splits)]
        balances = {WalletId(f"w{i}"): TokenAmount.parse(s) for i, s in enumerate(shares)}
        engine = GovernanceEngine(balances=balances, supply=TokenAmount.parse(supply))
        engine.submit(
            Proposal(
                id=ProposalId("p1"),
                options=("a", "b"),
                discussion_window=Window(0, 2),
                voting_window=Window(2, 8),
                mechanism=Mechanism.TOKEN,
                quorum=QuorumConfig(
                    basis=QuorumBasis.TOKEN_SUPPLY_FRACTION,
                    threshold=Decimal(threshold_thousandths).scaleb(-3),
                ),
            ),
            0,
        )
        for i, (wallet, balance) in enumerate(balances.items()):
            option = rng.choice(["a", "b"]) if i else "a"  # margin varies freely
            engine.cast("p1", wallet, option, balance, 2)
        engine.finalize("p1", 8)
        return engine.proposals[ProposalId("p1")].phase

    for _ in range(50):
        turnout = rng.randint(2, 998)
        threshold = rng.randint(turnout + 1, 1000)  # participation strictly below
        assert finalize_with(threshold, turnout) is Phase.QUORUM_FAILED

    exact = finalize_with(400, 400)  # participation == threshold
    assert exact is not Phase.QUORUM_FAILED
    _ok("criterion 6, quorum gate (50 randomized failures, threshold-exact passes)")


def test_criterion_07_ledger_tamper_suite_on_a_500_event_run():
    """Every byte flip at a random entry breaks verification exactly there; replay matches."""
    n_voters = 496
    balances = {
        WalletId(f"w{i:03d}"): TokenAmount.parse(1) for i in range(n_voters)
    }
    engine = GovernanceEngine(balances=balances, supply=TokenAmount.parse(n_voters))
    engine.submit(
        Proposal(
            id=ProposalId("p1"),
            options=("a", "b"),
            discussion_window=Window(0, 5),
            voting_window=Window(5, 10),
            mechanism=Mechanism.TOKEN,
        ),
        0,
    )
    for i, (wallet, balance) in enumerate(balances.items()):
        engine.cast("p1", wallet, "a" if i % 3 else "b", balance, 5)
    engine.finalize("p1", 10)

    entries = list(engine.ledger)
    assert len(entries) == 500  # genesis + submit + phase + 496 casts + finalize
    assert verify_chain(entries) is None  # untouched log verifies Ok

    rng = random.Random(500500)
    k = rng.randrange(len(entries))
    target = entries[k]
    raw = target.payload.encode("ascii")
    for pos in range(len(raw)):
        mutated = bytearray(raw)
        mutated[pos] ^= 0x01
        tampered = list(entries)
        tampered[k] = target._replace(payload=mutated.decode("ascii"))
        assert verify_chain(tampered) == k

    replayed = replay(entries)
    assert replayed.proposals[ProposalId("p1")].phase is engine.proposals[ProposalId("p1")].phase
    assert replayed.proposals[ProposalId("p1")].phase in (Phase.PASSED, Phase.REJECTED)
    assert replayed.ledger.head_hash() == engine.ledger.head_hash()  # the finalize event records the tally
    _ok(f"criterion 7, tamper suite (500 events, {len(raw)} byte flips at index {k}, replay)")


def test_criterion_08_deterministic_reports_and_head_hashes():
    """Same preset twice: identical bytes; new seed on a randomness-free scenario: identical."""
    scenario = load_preset("sybil_attack_quadratic")
    first = run(scenario)
    second = run(scenario)
    assert first.report_json == second.report_json
    assert first.head_hash == second.head_hash

    reseeded = run(scenario._replace(seed=987654321))
    assert reseeded.report_json == first.report_json
    assert reseeded.head_hash == first.head_hash
    _ok("criterion 8, byte-identical determinism (rerun and seed change)")


def test_criterion_09_arrow_probes_on_reference_instances():
    """The 60-of-100 holder dictates, the 40/35/25 split does not; plurality has an IIA witness."""

    def expected_dictators(balances):
        # Independent enumeration: whose choice wins every two-option profile?
        names = list(balances)
        survivors = set(names)
        for profile in product(["a", "b"], repeat=len(names)):
            weight = {"a": 0, "b": 0}
            for name, pick in zip(names, profile):
                weight[pick] += balances[name]
            if weight["a"] != weight["b"]:
                winner = "a" if weight["a"] > weight["b"] else "b"
            else:
                winner = None
            survivors = {
                name for name, pick in zip(names, profile)
                if name in survivors and pick == winner
            }
        return survivors

    whale_case = {"holder_60": 60, "holder_30": 30, "holder_10": 10}
    split_case = {"holder_40": 40, "holder_35": 35, "holder_25": 25}
    assert expected_dictators(whale_case) == {"holder_60"}
    assert expected_dictators(split_case) == set()

    def flagged(balances):
        return run(_token_scenario(balances)).report["arrow_probes"]["dictator_probe"]["flagged"]

    assert flagged(whale_case) == ["holder_60"]
    assert flagged(split_case) == []

    witness = run(load_preset("plurality_iia_probe")).report["arrow_probes"]["iia_probe"]["witness"]
    assert witness is not None
    assert witness["winner_before"] != witness["winner_after"]
    assert witness["removed_option"] not in (witness["winner_before"], witness["winner_after"])
    _ok("criterion 9, Arrow probes (dictator x2 vs enumeration, IIA witness found)")


def test_criterion_10_gini_against_the_pairwise_oracle():
    """100 random vectors (n <= 1000) within one ulp of the O(n^2) oracle; equal powers are 0."""
    rng = random.Random(101010)
    for _ in range(100):
        n = rng.randint(1, 1000)
        units = [rng.randint(0, 10**12) for _ in range(n)]
        units[rng.randrange(n)] = rng.randint(1, 10**12)  # keep the mean positive
        ours = gini(units)
        oracle = Decimal(gini_pairwise_units(units)).scaleb(-9)
        assert abs(ours - oracle) <= ULP

    for count in (1, 2, 7, 100):
        assert gini([13 * NANO] * count) == Decimal(0)
    _ok("criterion 10, Gini vs pairwise oracle (100 vectors) and exact-zero equality")


def _token_scenario(balances):
    return parse_scenario(
        {
            "schema_version": 1,
            "name": "probe-reference",
            "seed": 0,
            "ticks": 10,
            "supply": str(sum(balances.values())),
            "mechanism": "token",
            "proposals": [
                {
                    "id": "p1",
                    "options": ["a", "b"],
                    "discussion_window": [0, 2],
                    "voting_window": [2, 10],
                }
            ],
            "agents": [
                {"id": name, "kind": "honest", "balance": str(tokens), "preference": ["a"]}
                for name, tokens in balances.items()
            ],
        }
    )


def _sybil_preset_raw():
    """The shipped attack preset as a plain dict, ready for identity overrides."""
    import importlib.resources as resources
    import json

    text = resources.files("govlab.presets").joinpath("sybil_attack_quadratic.json").read_text()
    return json.loads(text, parse_float=Decimal)
