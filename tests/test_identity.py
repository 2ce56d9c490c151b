"""Identity registry, vote collapsing, and the simulated verification provider."""

import json
import math
import statistics
from decimal import Decimal
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from govlab.core import (
    IdentityId,
    TokenAmount,
    VoteRecord,
    VotingPower,
    WalletId,
    loads_canonical,
)
from govlab import events
from govlab.identity import (
    IdentityFilter,
    IdentityRegistry,
    RegistryMode,
    RejectionReason,
    SimulatedProvider,
    VotePolicy,
    filter_and_collapse,
)
from govlab.scenario import ScenarioValidationError, parse_scenario
from govlab.mechanisms import ConvictionParams, conviction_power, power_quadratic, tally
from govlab.rng import Xoshiro256StarStar
from govlab.sybil import split_uniform


def _vote(wallet, option, committed, cast_at=0):
    """A (wallet, vote) item of a proposal's book; the filter takes a dict of them."""
    return WalletId(wallet), VoteRecord(option=option, committed=TokenAmount.parse(committed), cast_at=cast_at)


def _verdicts(claims, rate, seed):
    """Review a sequence of fraudulent flags with a fresh provider."""
    provider = SimulatedProvider(Decimal(rate), seed)
    return [provider.review(fraudulent) for fraudulent in claims]


def _wallets_of(registry, identity):
    """The wallets bound to identity, as the registry's bindings list them."""
    return tuple(dict(registry.bindings()).get(identity, ()))


class TestRegistryBinding:
    def test_first_binding_accepted(self):
        registry = IdentityRegistry(RegistryMode.STRICT_ONE_WALLET)
        assert registry.bind(IdentityId("alice"), WalletId("w1")) is None
        assert registry.identity_of(WalletId("w1")) == IdentityId("alice")

    def test_rebinding_the_same_pair_is_an_accepted_noop(self):
        registry = IdentityRegistry("strict_one_wallet")
        registry.bind(IdentityId("alice"), WalletId("w1"))
        assert registry.bind(IdentityId("alice"), WalletId("w1")) is None
        assert _wallets_of(registry, "alice") == (WalletId("w1"),)

    def test_strict_mode_rejects_a_second_wallet(self):
        registry = IdentityRegistry(RegistryMode.STRICT_ONE_WALLET)
        registry.bind(IdentityId("alice"), WalletId("w1"))
        assert registry.bind(IdentityId("alice"), WalletId("w2")) is RejectionReason.DUPLICATE_IDENTITY

    def test_collapse_mode_accepts_many_wallets(self):
        registry = IdentityRegistry(RegistryMode.COLLAPSE_PER_IDENTITY)
        for k in range(5):
            assert registry.bind(IdentityId("alice"), WalletId(f"w{k}")) is None
        assert len(_wallets_of(registry, "alice")) == 5

    def test_a_wallet_cannot_serve_two_identities(self):
        for mode in RegistryMode:
            registry = IdentityRegistry(mode)
            registry.bind(IdentityId("alice"), WalletId("w1"))
            assert registry.bind(IdentityId("bob"), WalletId("w1")) is RejectionReason.WALLET_ALREADY_BOUND

    def test_json_round_trip(self):
        """The registry as genesis records it binds a fresh registry to the same record."""
        def record(registry):
            text = events.genesis(TokenAmount(0), {}, {"identity": IdentityFilter(registry, "drop_unverified")})
            return loads_canonical(text)["identity"]["registry"]

        registry = IdentityRegistry(RegistryMode.COLLAPSE_PER_IDENTITY)
        registry.bind(IdentityId("alice"), WalletId("w2"))
        registry.bind(IdentityId("alice"), WalletId("w1"))
        registry.bind(IdentityId("bob"), WalletId("w3"))
        obj = record(registry)
        assert obj["bindings"] == [{"identity": "alice", "wallets": ["w1", "w2"]}, {"identity": "bob", "wallets": ["w3"]}]
        restored = IdentityRegistry(obj["mode"])
        for binding in obj["bindings"]:
            for wallet in binding["wallets"]:
                assert restored.bind(binding["identity"], wallet) is None
        assert record(restored) == obj
        assert restored.mode is registry.mode
        assert restored.identity_of(WalletId("w3")) == IdentityId("bob")

    @given(
        st.sampled_from(list(RegistryMode)),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=12),
            ),
            max_size=40,
        ),
    )
    def test_invariants_hold_after_any_bind_sequence(self, mode, ops):
        registry = IdentityRegistry(mode)
        for ident, wallet in ops:
            registry.bind(IdentityId(f"id{ident}"), WalletId(f"w{wallet}"))
        seen_wallets = []
        for identity, wallets in registry.bindings():
            if mode is RegistryMode.STRICT_ONE_WALLET:
                assert len(wallets) == 1
            seen_wallets.extend(wallets)
            for wallet in wallets:
                assert registry.identity_of(wallet) == identity
        assert len(seen_wallets) == len(set(seen_wallets))  # no wallet in two identities


class TestFilterAndCollapse:
    def _registry(self, mode=RegistryMode.COLLAPSE_PER_IDENTITY, bindings=()):
        registry = IdentityRegistry(mode)
        for identity, wallet in bindings:
            assert registry.bind(IdentityId(identity), WalletId(wallet)) is None
        return registry

    def test_collapse_neutralizes_the_split_attack_exactly(self):
        """100 bound wallets of 100 tokens merge to one 10,000-token vote: power 100."""
        wallets = [f"sybil_{k:02d}" for k in range(100)]
        registry = self._registry(bindings=[("whale", w) for w in wallets])
        votes = dict(_vote(w, "b", 100) for w in wallets)
        report = filter_and_collapse(votes, registry, VotePolicy.DROP_UNVERIFIED)
        assert list(report.votes) == ["sybil_00"]
        merged = report.votes[WalletId("sybil_00")]
        assert merged.committed == TokenAmount.parse(10000)
        assert str(power_quadratic(merged.committed)) == "100.000000000"

    @given(st.integers(min_value=2, max_value=60), st.integers(min_value=1, max_value=10**10))
    @settings(max_examples=60)
    def test_collapse_equals_the_unsplit_vote_exactly(self, n, units):
        """Merging reverses splitting with no tolerance: one sqrt of the exact sum."""
        if units < n:
            return
        total = TokenAmount(units)
        wallets = [f"w{k:03d}" for k in range(n)]
        registry = self._registry(bindings=[("one", w) for w in wallets])
        votes = dict(_vote(w, "opt", str(b)) for w, b in zip(wallets, split_uniform(total, n)))
        report = filter_and_collapse(votes, registry, VotePolicy.DROP_UNVERIFIED)
        (merged,) = report.votes.values()
        assert power_quadratic(merged.committed) == power_quadratic(total)

    def test_distinct_identities_stay_separate(self):
        registry = self._registry(bindings=[("alice", "w1"), ("bob", "w2")])
        votes = dict([_vote("w1", "a", 100), _vote("w2", "a", 100)])
        report = filter_and_collapse(votes, registry, VotePolicy.DROP_UNVERIFIED)
        assert report.votes == votes
        total = sum(power_quadratic(v.committed).units for v in report.votes.values())
        assert VotingPower(total) == VotingPower.parse(20)

    def test_merged_record_uses_lexmin_wallet_and_latest_cast(self):
        registry = self._registry(bindings=[("alice", "w2"), ("alice", "w1")])
        votes = dict([_vote("w2", "a", 5, cast_at=3), _vote("w1", "a", 7, cast_at=9)])
        report = filter_and_collapse(votes, registry, VotePolicy.DROP_UNVERIFIED)
        ((wallet, merged),) = report.votes.items()
        assert wallet == WalletId("w1") and type(wallet) is WalletId
        assert merged.cast_at == 9
        assert merged.committed == TokenAmount.parse(12)

    def test_merged_conviction_uses_latest_held_since(self):
        """Merged conviction must not accrue from before every member's vote."""
        registry = self._registry(bindings=[("alice", "w1"), ("alice", "w2")])
        votes = dict([_vote("w1", "a", 5, cast_at=2), _vote("w2", "a", 5, cast_at=8)])
        report = filter_and_collapse(votes, registry, VotePolicy.DROP_UNVERIFIED)
        (merged,) = report.votes.values()
        assert merged.committed == TokenAmount.parse(10)
        assert merged.cast_at == 8
        params = ConvictionParams(decay_rate=Decimal("0.1"))
        result = tally(
            report.votes,
            "conviction",
            supply=TokenAmount.parse(10),
            wallet_universe_size=2,
            options=("a",),
            now=10,
            conviction=params,
        )
        assert result.vote_power_units == (conviction_power(TokenAmount.parse(10), 2, params).units,)

    def test_equivocating_identity_loses_every_vote(self):
        registry = self._registry(
            bindings=[("alice", "w1"), ("alice", "w2"), ("bob", "w3")]
        )
        votes = dict([_vote("w1", "a", 5), _vote("w2", "b", 5), _vote("w3", "a", 1)])
        report = filter_and_collapse(votes, registry, VotePolicy.DROP_UNVERIFIED)
        assert list(report.votes) == [WalletId("w3")]
        assert report.equivocating_identities == (IdentityId("alice"),)

    def test_drop_unverified_with_empty_registry_drops_everything(self):
        registry = self._registry()
        report = filter_and_collapse(
            dict([_vote("w1", "a", 1), _vote("w2", "b", 2)]), registry, VotePolicy.DROP_UNVERIFIED
        )
        assert report.votes == {}
        assert set(report.dropped_unverified) == {WalletId("w1"), WalletId("w2")}

    def test_admit_unverified_keeps_unbound_wallets(self):
        registry = self._registry(bindings=[("alice", "w1")])
        votes = dict([_vote("w1", "a", 1), _vote("w9", "b", 2)])
        report = filter_and_collapse(votes, registry, VotePolicy.ADMIT_UNVERIFIED)
        assert report.votes == votes
        assert report.dropped_unverified == ()

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),   # identity
                st.sampled_from(["a", "b"]),             # option
                st.integers(min_value=1, max_value=100), # tokens
            ),
            max_size=12,
        ),
        st.sampled_from(list(VotePolicy)),
        st.booleans(),
    )
    def test_filter_is_idempotent(self, ballots, policy, bind_all):
        registry = IdentityRegistry(RegistryMode.COLLAPSE_PER_IDENTITY)
        votes = {}
        for k, (ident, option, tokens) in enumerate(ballots):
            wallet = WalletId(f"w{k:02d}")
            if bind_all or ident % 2 == 0:
                registry.bind(IdentityId(f"id{ident}"), wallet)
            votes.update([_vote(wallet, option, tokens, cast_at=k)])
        once = filter_and_collapse(votes, registry, policy)
        twice = filter_and_collapse(once.votes, registry, policy)
        assert list(twice.votes.items()) == list(once.votes.items())
        assert twice.equivocating_identities == ()

    def test_strict_mode_cannot_reach_merging(self):
        """A strict registry never maps two wallets to one identity, so any
        multi-wallet group handed to the merge step is a caller bug."""
        strict = IdentityRegistry(RegistryMode.STRICT_ONE_WALLET)
        strict.bind(IdentityId("alice"), WalletId("w1"))
        report = filter_and_collapse(
            dict([_vote("w1", "a", 5)]), strict, VotePolicy.DROP_UNVERIFIED
        )
        assert len(report.votes) == 1
        assert report.votes[WalletId("w1")].committed == TokenAmount.parse(5)


class TestCollapseUnderTally:
    def test_strict_filter_keeps_quorum_participation_honest(self):
        """Dropped wallets do not count toward participation either."""
        registry = IdentityRegistry(RegistryMode.STRICT_ONE_WALLET)
        registry.bind(IdentityId("alice"), WalletId("w1"))
        votes = dict([_vote("w1", "a", 10), _vote("ghost", "b", 50)])
        kept = filter_and_collapse(votes, registry, VotePolicy.DROP_UNVERIFIED).votes
        result = tally(
            kept, "token", supply=TokenAmount.parse(100), wallet_universe_size=2, options=("a", "b"), now=0
        )
        assert result.participating_tokens == TokenAmount.parse(10)
        assert result.outcome.option == "a"


class TestSimulatedProvider:
    def test_genuine_claims_always_accepted(self):
        provider = SimulatedProvider(Decimal("0"), 1)
        assert all(provider.review(False) for _ in range(100))

    def test_genuine_claims_consume_no_randomness(self):
        """Verdicts on fraudulent claims are unaffected by interleaved genuine ones."""
        plain = _verdicts([True] * 50, "0.5", 99)
        interleaved = _verdicts([False, True, False] * 50, "0.5", 99)
        assert [v for i, v in enumerate(interleaved) if i % 3 == 1] == plain

    def test_rate_zero_rejects_and_rate_one_accepts_all_fraud(self):
        assert not any(_verdicts([True] * 30, 0, 5))
        assert all(_verdicts([True] * 30, 1, 5))

    def test_rate_outside_unit_interval_rejected(self):
        """The provider's rate comes from a scenario, whose validation bounds it."""
        preset = json.loads(resources.files("govlab.presets").joinpath("sybil_attack_quadratic.json").read_text())
        preset["identity"] = {
            "mode": "collapse_per_identity",
            "policy": "drop_unverified",
            "provider": {"false_accept_rate": "1.5"},
        }
        with pytest.raises(ScenarioValidationError, match=r"false_accept_rate must be in \[0, 1\]"):
            parse_scenario(preset)

    def test_false_accepts_match_binomial_expectation(self):
        """10,000 fraudulent claims at rate 0.1: within 3 sigma of 1,000, and the
        fixed seed pins the exact count."""
        accepted = sum(_verdicts([True] * 10000, "0.1", 20260825))
        assert 910 <= accepted <= 1090  # 1000 +/- 3 * 30
        assert accepted == 967

    def test_accepted_fakes_are_binomial_over_seeds(self):
        """2,000 fraudulent claims at rate 0.25 under each of seeds 1-200: each accepted count K is
        Binomial(2000, 0.25), mean 500 and sigma sqrt(375), so each lies within 500 +/- 5 sigma and
        the mean of the 200 counts within 500 +/- 3 sigma / sqrt(200).  The seeds are fixed, so the
        test is deterministic."""
        n, rate, seeds = 2000, 0.25, range(1, 201)
        mean, sigma = n * rate, math.sqrt(n * rate * (1 - rate))
        counts = [sum(_verdicts([True] * n, str(rate), seed)) for seed in seeds]
        assert all(abs(k - mean) <= 5 * sigma for k in counts), (min(counts), max(counts))
        assert abs(statistics.fmean(counts) - mean) <= 3 * sigma / math.sqrt(len(seeds))

    @pytest.mark.parametrize("seed", [1, 2, 3, 7])
    def test_a_draw_equal_to_the_rate_is_rejected(self, seed):
        """A fraudulent claim is accepted when its draw is strictly below the rate: a rate equal to
        the seed's first draw rejects it, and the next float above the draw accepts it."""
        draw = Xoshiro256StarStar.from_seed(seed).next_float()
        rate = Decimal(draw)
        assert float(rate) == draw
        assert _verdicts([True], rate, seed) == [False]
        assert _verdicts([True], Decimal(math.nextafter(draw, 1)), seed) == [True]

    def test_same_seed_same_verdicts(self):
        assert _verdicts([True] * 200, "0.3", 7) == _verdicts([True] * 200, "0.3", 7)
