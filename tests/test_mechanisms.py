"""Power functions, the quorum gate, and the tally itself."""

import decimal
import random
import threading
from decimal import ROUND_FLOOR, ROUND_HALF_EVEN, Context, Decimal, Inexact, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from govlab import events, mechanisms
from govlab.core import (
    MAX_UNITS,
    NANO,
    ProposalId,
    TokenAmount,
    VoteRecord,
    VotingPower,
    WalletId,
    fmt_units,
    loads_canonical,
)
from govlab.governance import GovernanceEngine, GovernanceError, Proposal, Window
from govlab.mechanisms import (
    _decay_factor,
    ConvictionParams,
    Mechanism,
    MechanismError,
    QuorumBasis,
    QuorumConfig,
    config_error,
    conviction_power,
    power_quadratic,
    power_rule,
    power_token,
    tally,
)

from govlab.scenario import ScenarioValidationError, load_preset, parse_scenario
from govlab.simulation import compare_mechanisms, run

from oracles import conviction_units, conviction_units_decimal, decay_factor_ref, sqrt_units

token_units_st = st.integers(min_value=1, max_value=10**15)


def _vote(wallet, option, committed, cast_at=0):
    """A (wallet, vote) item of a proposal's book; tally takes a dict of them."""
    return WalletId(wallet), VoteRecord(option=option, committed=TokenAmount.parse(committed), cast_at=cast_at)


class TestPowerToken:
    def test_identity_map(self):
        assert power_token(TokenAmount.parse(100)) == VotingPower.parse(100)
        assert power_token(TokenAmount.parse("0.000000001")).units == 1

    def test_zero_commitment_rejected(self):
        with pytest.raises(MechanismError, match="positive"):
            power_token(TokenAmount(0))

    @given(token_units_st, token_units_st)
    def test_additive_exactly(self, a, b):
        pa = power_token(TokenAmount(a))
        pb = power_token(TokenAmount(b))
        total = power_token(TokenAmount(a + b))
        assert pa.units + pb.units == total.units


class TestPowerQuadratic:
    def test_hundred_tokens_exactly_ten(self):
        assert str(power_quadratic(TokenAmount.parse(100))) == "10.000000000"

    def test_ten_thousand_tokens_exactly_hundred(self):
        assert str(power_quadratic(TokenAmount.parse(10000))) == "100.000000000"

    def test_sqrt_two(self):
        assert str(power_quadratic(TokenAmount.parse(2))) == "1.414213562"

    def test_zero_commitment_has_zero_power(self):
        assert power_quadratic(TokenAmount(0)) == VotingPower(0)

    @given(token_units_st)
    def test_matches_high_precision_oracle(self, units):
        got = power_quadratic(TokenAmount(units)).units
        assert got == sqrt_units(units)

    @given(st.integers(min_value=1, max_value=3 * 10**4))
    def test_perfect_squares_are_exact(self, root):
        """Whole-token squares t^2 have power exactly t, no rounding residue."""
        power = power_quadratic(TokenAmount.parse(root * root))
        assert power == VotingPower.parse(root)

    @given(token_units_st, token_units_st)
    def test_subadditive_within_one_ulp(self, a, b):
        """sqrt is strictly subadditive; rounding can eat at most one unit."""
        pa = power_quadratic(TokenAmount(a)).units
        pb = power_quadratic(TokenAmount(b)).units
        pab = power_quadratic(TokenAmount(a + b)).units
        assert pa + pb + 1 > pab

    @given(
        st.integers(min_value=NANO, max_value=10**15),
        st.integers(min_value=NANO, max_value=10**15),
    )
    def test_strictly_subadditive_above_one_token(self, a, b):
        pa = power_quadratic(TokenAmount(a)).units
        pb = power_quadratic(TokenAmount(b)).units
        pab = power_quadratic(TokenAmount(a + b)).units
        assert pa + pb > pab


class TestConvictionPower:
    alpha = ConvictionParams(decay_rate=Decimal("0.1"))
    hundred = TokenAmount.parse(100)

    def test_hundred_tokens_after_ten_ticks(self):
        """100 * (1 - e^-1) rounded half-even at nine digits."""
        assert str(conviction_power(self.hundred, 10, self.alpha)) == "63.212055883"

    def test_zero_elapsed_time_is_zero_power(self):
        assert conviction_power(self.hundred, 0, self.alpha) == VotingPower(0)

    def test_clock_before_vote_rejected(self):
        with pytest.raises(MechanismError, match="before it is cast"):
            conviction_power(self.hundred, -1, self.alpha)
        with pytest.raises(MechanismError, match="before it is cast"):
            tally(
                dict([_vote("w1", "a", 100, cast_at=5)]),
                "conviction",
                supply=self.hundred,
                wallet_universe_size=1,
                options=("a",),
                now=4,
                conviction=self.alpha,
            )

    def test_zero_decay_rate_rejected(self):
        with pytest.raises(MechanismError, match="positive"):
            ConvictionParams(decay_rate=Decimal("0"))

    @pytest.mark.parametrize("tick", [2.0, True])
    def test_a_tick_that_is_not_an_int_is_refused(self, tick):
        """A float or a bool tick is refused by name, by the power function and by the tally, before
        any accrual is computed from it."""
        with pytest.raises(MechanismError, match="dt must be an integer tick count"):
            conviction_power(self.hundred, tick, self.alpha)
        with pytest.raises(MechanismError, match="dt must be an integer tick count"):
            tally(
                dict([_vote("w1", "a", 100, cast_at=0)]), "conviction", supply=self.hundred, wallet_universe_size=1,
                options=("a",), now=tick, conviction=self.alpha,
            )

    @given(
        st.integers(min_value=1, max_value=10**13),
        st.decimals(
            min_value=Decimal("0.000000001"),
            max_value=Decimal("2"),
            places=9,
            allow_nan=False,
            allow_infinity=False,
        ),
        st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_high_precision_oracle(self, units, rate, dt):
        params = ConvictionParams(decay_rate=rate)
        got = conviction_power(TokenAmount(units), dt, params).units
        want = conviction_units(units, str(rate), dt)
        assert abs(got - want) <= 1

    @given(
        st.integers(min_value=NANO, max_value=10**13),
        st.integers(min_value=1, max_value=100),
        st.integers(min_value=1, max_value=100),
    )
    def test_never_reaches_tokens_before_saturation(self, units, dt_a, dt_b):
        """The decay factor is < 1, so accrued power stays below the stake.

        Rounding at nine digits can only reach the stake itself once
        tokens * e^(-alpha*dt) dips under half an ulp; alpha*dt <= 20 with at
        least one whole token keeps the gap above that, so strictness holds.
        """
        params = ConvictionParams(decay_rate=Decimal("0.1"))
        dt = min(dt_a + dt_b, 200)
        power = conviction_power(TokenAmount(units), dt, params)
        assert power.units < units

    @given(
        st.integers(min_value=1, max_value=10**13),
        st.integers(min_value=0, max_value=3000),
        st.integers(min_value=0, max_value=3000),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_nondecreasing_in_elapsed_time(self, units, dt1, dt2):
        lo, hi = sorted((dt1, dt2))
        params = ConvictionParams(decay_rate=Decimal("0.05"))
        tokens = TokenAmount(units)
        assert conviction_power(tokens, lo, params).units <= conviction_power(tokens, hi, params).units

    def test_saturates_at_stake_for_huge_elapsed_time(self):
        assert str(conviction_power(self.hundred, 10000, self.alpha)) == "100.000000000"


nine_digit_rates = st.one_of(st.integers(1, 10**10), st.integers(1, MAX_UNITS)).map(lambda u: Decimal(u).scaleb(-9))


class TestPowerRule:
    """power_rule's (units, dt) -> power units, the one power function the tally counts with."""

    @given(st.one_of(st.integers(1, MAX_UNITS), st.integers(MAX_UNITS // 100, MAX_UNITS)), st.integers(0, 10**6), nine_digit_rates)
    @settings(max_examples=300, deadline=None)
    def test_conviction_equals_the_decimal_token_route(self, units, dt, rate):
        """Exact for every unit count: the largest have the fewest fractional digits to spare."""
        rule = power_rule(Mechanism.CONVICTION, ConvictionParams(decay_rate=rate))
        assert rule(units, dt) == conviction_units_decimal(units, rate, dt)

    def test_conviction_is_exact_on_a_sweep_of_large_stakes(self):
        """2,000 seeded draws of the top two decades of unit counts with unsaturated factors,
        where a product rounded to fewer than 50 digits would round some units differently."""
        rng = random.Random(31)
        for _ in range(2_000):
            units, rate, dt = rng.randint(MAX_UNITS // 100, MAX_UNITS), Decimal(rng.randint(1, NANO)).scaleb(-9), rng.randint(1, 100)
            rule = power_rule(Mechanism.CONVICTION, ConvictionParams(decay_rate=rate))
            assert rule(units, dt) == conviction_units_decimal(units, rate, dt)

    def test_conviction_pins(self):
        rule = power_rule(Mechanism.CONVICTION, ConvictionParams(decay_rate=Decimal("0.1")))
        assert rule(100 * NANO, 0) == 0
        with pytest.raises(MechanismError, match="before it is cast"):
            rule(100 * NANO, -1)
        assert fmt_units(rule(100 * NANO, 10_000)) == "100.000000000"

    @given(st.integers(0, MAX_UNITS), st.integers(0, 10**6))
    def test_quadratic_is_the_integer_root(self, units, dt):
        assert power_rule(Mechanism.QUADRATIC, None)(units, dt) == sqrt_units(units)

    @given(st.integers(1, MAX_UNITS), st.integers(0, 10**6), st.sampled_from([Mechanism.TOKEN, Mechanism.QUORUM]))
    def test_token_and_quorum_are_the_identity(self, units, dt, mechanism):
        assert power_rule(mechanism, None)(units, dt) == units


def _in_a_new_thread(fn):
    """fn's result in a fresh thread, whose decimal context is a copy of DefaultContext as it is now."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive() and out, "the thread raised or did not finish"
    return out[0]


@pytest.fixture
def edited_default_context():
    """DefaultContext at 12 digits, rounding toward floor and trapping Inexact, restored afterwards."""
    default = decimal.DefaultContext
    saved = default.prec, default.rounding, default.traps[Inexact]
    default.prec, default.rounding, default.traps[Inexact] = 12, ROUND_FLOOR, True
    try:
        yield
    finally:
        default.prec, default.rounding, default.traps[Inexact] = saved


def _random_rate(rng):
    """A nine-digit rate, log-uniform from 10^-9 to 100."""
    return Decimal(rng.randint(1, 10 ** rng.randint(1, 11))).scaleb(-9)


def _random_dt(rng):
    """A hold time, log-uniform from 1 to 10^18."""
    return rng.randint(1, 10 ** rng.randint(1, 18))


class TestDecayFactor:
    """_decay_factor's power route gives the exp route's 50 digits, whatever the caller's context."""

    RATE = Decimal("0.1")
    # The hold times whose factor at RATE differs when the exp route's steps round toward floor.
    FLOOR_SENSITIVE = [dt for dt in range(1, 200) if decay_factor_ref(Decimal("0.1"), dt, ROUND_FLOOR) != decay_factor_ref(Decimal("0.1"), dt)]

    @staticmethod
    def _same(got, want):
        return got == want and str(got) == str(want)

    def _cold(self, dt):
        _decay_factor.cache_clear()
        return _decay_factor(self.RATE, dt)

    def test_ninety_two_hold_times_are_floor_sensitive(self):
        assert len(self.FLOOR_SENSITIVE) == 92

    @pytest.mark.parametrize("caller", [dict(rounding=ROUND_FLOOR), dict(prec=12)], ids=["floor", "prec12"])
    def test_the_caller_context_does_not_reach_a_factor(self, caller):
        for dt in self.FLOOR_SENSITIVE:
            with localcontext() as context:
                for name, value in caller.items():
                    setattr(context, name, value)
                got = self._cold(dt)
            assert self._same(got, decay_factor_ref(self.RATE, dt)), dt

    def test_an_edited_default_context_does_not_reach_a_factor(self, edited_default_context):
        got = _in_a_new_thread(lambda: [self._cold(dt) for dt in self.FLOOR_SENSITIVE])
        for dt, factor in zip(self.FLOOR_SENSITIVE, got):
            assert self._same(factor, decay_factor_ref(self.RATE, dt)), dt

    def test_an_edited_default_context_does_not_reach_the_conviction_rule(self, edited_default_context):
        """The rule's product context spells out every field, traps included, so an Inexact
        trap set on DefaultContext neither raises nor changes a power."""
        cases = [(units, dt) for units in (1, 10**9 + 7, 123_456_789_012_345) for dt in self.FLOOR_SENSITIVE[:10]]
        want = [conviction_units_decimal(units, self.RATE, dt) for units, dt in cases]
        params = ConvictionParams(decay_rate=self.RATE)

        def count():
            _decay_factor.cache_clear()
            rule = power_rule(Mechanism.CONVICTION, params)
            return [rule(units, dt) for units, dt in cases]

        assert _in_a_new_thread(count) == want

    def test_equals_the_exp_route_on_a_seeded_sweep(self):
        rng = random.Random(38)
        for _ in range(5_000):
            rate, dt = _random_rate(rng), _random_dt(rng)
            assert self._same(_decay_factor(rate, dt), decay_factor_ref(rate, dt)), (rate, dt)

    @pytest.mark.slow
    def test_equals_the_exp_route_on_every_short_hold_of_27_rates(self):
        """dt 1 to 3,000 and 300 log-uniform hold times up to 10^18, for each of 27 rates."""
        rng = random.Random(3800)
        rates = [Decimal(text) for text in ("0.000000001", "0.000300000", "0.05", "0.1", "0.5", "1", "2", "9223372036.854775807")]
        rates += [_random_rate(rng) for _ in range(27 - len(rates))]
        for rate in rates:
            _decay_factor.cache_clear()
            for dt in [*range(1, 3_001), *(_random_dt(rng) for _ in range(300))]:
                assert self._same(_decay_factor(rate, dt), decay_factor_ref(rate, dt)), (rate, dt)

    @pytest.mark.parametrize(
        "rate, dt, exp_route",
        [
            ("0.1", 1_000, False),
            ("0.000300000", 19_999, False),
            ("0.000000001", 10**9, False),  # the route's largest hold time
            ("0.000000001", 10**9 + 1, True),  # beyond it
            ("0.5", 10**7, True),  # e^(-5,000,000) is below 10^Emin
        ],
    )
    def test_the_exp_route_is_taken_only_outside_the_power_route(self, rate, dt, exp_route, monkeypatch):
        calls = []
        exp_factor = mechanisms._exp_factor
        monkeypatch.setattr(mechanisms, "_exp_factor", lambda *args: calls.append(args) or exp_factor(*args))
        _decay_factor.cache_clear()
        assert self._same(_decay_factor(Decimal(rate), dt), decay_factor_ref(Decimal(rate), dt))
        assert len(calls) == exp_route

    def test_a_power_at_a_half_ulp_takes_the_exp_route(self, monkeypatch):
        """e^(-0.5) to 50 digits ends in an odd digit, so the midpoint above it rounds half-even
        to its upper neighbour: a power placed there that were accepted would give 1 minus that
        neighbour.  The bound straddles the midpoint, so the exp route gives the right factor."""
        rate = Decimal("0.5")
        nearest = Context(prec=50, rounding=ROUND_HALF_EVEN).exp(-rate)
        assert nearest.as_tuple().digits[-1] % 2 == 1
        midpoint = Context(prec=51).add(nearest, Decimal((0, (5,), nearest.as_tuple().exponent - 1)))
        assert Context(prec=50, rounding=ROUND_HALF_EVEN).plus(midpoint) != nearest
        calls = []
        exp_factor = mechanisms._exp_factor
        monkeypatch.setattr(mechanisms, "_decay_base", lambda decay_rate: midpoint)
        monkeypatch.setattr(mechanisms, "_exp_factor", lambda *args: calls.append(args) or exp_factor(*args))
        _decay_factor.cache_clear()
        assert self._same(_decay_factor(rate, 1), decay_factor_ref(rate, 1))
        assert calls == [(rate, 1)]


class TestSwitchVote:
    """A wallet switches options by casting again on its proposal's engine."""

    alpha = ConvictionParams(decay_rate=Decimal("0.1"))

    def _counted(self, casts, finalize_at):
        """Cast (option, tick) pairs with one 100-token wallet; return the counted vote and its power."""
        engine = GovernanceEngine(
            balances={WalletId("w"): TokenAmount.parse(100)}, supply=TokenAmount.parse(100)
        )
        engine.submit(
            Proposal(
                id=ProposalId("p1"),
                options=("a", "b"),
                discussion_window=Window(0, 1),
                voting_window=Window(1, finalize_at),
                mechanism=Mechanism.CONVICTION,
                conviction=self.alpha,
            ),
            0,
        )
        for option, tick in casts:
            engine.cast("p1", WalletId("w"), option, TokenAmount.parse(100), tick)
        votes, result = engine.finalize("p1", finalize_at)
        (vote,) = votes.values()
        (power,) = result.vote_power_units
        return vote, power

    def _power_at(self, vote, now):
        (power,) = tally(
            {WalletId("w"): vote},
            "conviction",
            supply=vote.committed,
            wallet_universe_size=1,
            options=(vote.option,),
            now=now,
            conviction=self.alpha,
        ).vote_power_units
        return power

    def test_switch_resets_accrual_to_zero(self):
        vote, _ = self._counted([("a", 1), ("b", 50)], 51)
        assert vote.cast_at == 50
        assert vote.option == "b"
        assert vote.committed == TokenAmount.parse(100)
        assert self._power_at(vote, 50) == 0

    def test_conviction_ten_ticks_after_switch(self):
        """Post-switch accrual is indistinguishable from a fresh vote."""
        _, power = self._counted([("a", 1), ("b", 50)], 60)
        assert power == 63_212_055_883

    def test_reset_is_memoryless(self):
        """Switching back to the original option does not restore its history."""
        vote, _ = self._counted([("a", 1), ("b", 50), ("a", 60)], 61)
        assert vote.option == "a"
        assert vote.cast_at == 60
        assert self._power_at(vote, 60) == 0


class TestQuorumConfig:
    def test_threshold_must_be_a_fraction(self):
        with pytest.raises(MechanismError, match=r"\[0, 1\]"):
            QuorumConfig(basis=QuorumBasis.TOKEN_SUPPLY_FRACTION, threshold=Decimal("1.1"))

    def test_json_round_trip(self):
        """The quorum member of a submit event reads back to the same config."""
        config = QuorumConfig(basis="wallet_count_fraction", threshold=Decimal("0.25"))
        proposal = Proposal("p1", ("a", "b"), Window(0, 1), Window(1, 2), Mechanism.QUORUM, quorum=config)
        assert QuorumConfig(**loads_canonical(events.submit(proposal, 0))["quorum"]) == config


    def test_threshold_units_are_exact_under_a_five_digit_caller_context(self):
        config = QuorumConfig(basis=QuorumBasis.TOKEN_SUPPLY_FRACTION, threshold=Decimal("0.123456789"))
        with localcontext() as context:
            context.prec = 5
            assert config.threshold_units == 123_456_789

class TestQuorumGate:
    def _run(self, committed, threshold, supply=100, basis=QuorumBasis.TOKEN_SUPPLY_FRACTION):
        quorum = QuorumConfig(basis=basis, threshold=Decimal(threshold))
        votes = [_vote("w1", "approve", committed)]
        return tally(
            dict(votes),
            Mechanism.QUORUM,
            supply=TokenAmount.parse(supply),
            wallet_universe_size=10,
            options=("approve", "reject"),
            now=0,
            quorum=quorum,
        )

    def test_exact_threshold_passes(self):
        result = self._run(co_mmitted := 40, "0.4")
        assert result.outcome.is_winner()
        assert result.participating_tokens == TokenAmount.parse(co_mmitted)

    def test_one_unit_below_threshold_fails(self):
        result = self._run("39.999999999", "0.4")
        assert result.outcome.kind == "quorum_failed"

    def test_margin_is_irrelevant_below_quorum(self):
        """A landslide that misses quorum still fails."""
        quorum = QuorumConfig(basis=QuorumBasis.TOKEN_SUPPLY_FRACTION, threshold=Decimal("0.5"))
        votes = [_vote("w1", "approve", 30), _vote("w2", "reject", "0.000000001")]
        result = tally(
            dict(votes),
            Mechanism.QUORUM,
            supply=TokenAmount.parse(100),
            wallet_universe_size=5,
            options=("approve", "reject"),
            now=0,
            quorum=quorum,
        )
        assert result.outcome.kind == "quorum_failed"

    def test_wallet_count_basis(self):
        quorum = QuorumConfig(basis=QuorumBasis.WALLET_COUNT_FRACTION, threshold=Decimal("0.5"))
        votes = [_vote(f"w{i}", "approve", 1) for i in range(5)]
        result = tally(
            dict(votes),
            Mechanism.QUORUM,
            supply=TokenAmount.parse(100),
            wallet_universe_size=10,
            options=("approve", "reject"),
            now=0,
            quorum=quorum,
        )
        assert result.outcome.is_winner()  # 5 of 10 wallets meets 0.5 exactly
        short = tally(
            dict(votes[:4]),
            Mechanism.QUORUM,
            supply=TokenAmount.parse(100),
            wallet_universe_size=10,
            options=("approve", "reject"),
            now=0,
            quorum=quorum,
        )
        assert short.outcome.kind == "quorum_failed"

    def test_quorum_mechanism_requires_config(self):
        with pytest.raises(MechanismError, match="requires a quorum config"):
            tally(
                dict([_vote("w1", "a", 1)]),
                Mechanism.QUORUM,
                supply=TokenAmount.parse(10),
                wallet_universe_size=1,
                options=("a",),
                now=0,
            )

    @given(st.lists(st.integers(min_value=1, max_value=10**12), min_size=0, max_size=8))
    def test_zero_threshold_never_fails_quorum(self, commitments):
        quorum = QuorumConfig(basis=QuorumBasis.TOKEN_SUPPLY_FRACTION, threshold=Decimal(0))
        votes = [
            _vote(f"w{i}", "approve", str(TokenAmount(u)))
            for i, u in enumerate(commitments)
        ]
        result = tally(
            dict(votes),
            Mechanism.QUORUM,
            supply=TokenAmount(sum(commitments) + 1),
            wallet_universe_size=len(votes) or 1,
            options=("approve", "reject"),
            now=0,
            quorum=quorum,
        )
        assert result.outcome.kind != "quorum_failed"


    def test_a_run_finalizes_alike_under_a_five_digit_caller_context(self):
        """Participation of 0.123457 meets the 0.123456789 threshold but not its five-digit
        rounding 0.12346, so a threshold rounded in the caller's context would fail quorum."""
        scenario = parse_scenario({
            "schema_version": 1, "name": "tight-quorum", "ticks": 10, "supply": "1", "mechanism": "token",
            "quorum": {"basis": "token_supply_fraction", "threshold": "0.123456789"},
            "proposals": [{"id": "p1", "options": ["yes", "no"], "discussion_window": [0, 2], "voting_window": [2, 10]}],
            "agents": [
                {"id": "voter", "kind": "honest", "balance": "0.123457", "preference": ["yes", "no"]},
                {"id": "idle", "kind": "abstainer", "balance": "0.876543"},
            ],
        })
        default = run(scenario).report_json
        assert loads_canonical(default)["proposals"][0]["outcome"] == {"option": "yes", "type": "winner"}
        with localcontext() as context:
            context.prec = 5
            assert run(scenario).report_json == default

class TestTally:
    @pytest.mark.parametrize("mechanism", list(Mechanism))
    def test_a_negative_wallet_universe_is_refused(self, mechanism):
        quorum = QuorumConfig(QuorumBasis.WALLET_COUNT_FRACTION, Decimal("0.5"))
        with pytest.raises(MechanismError, match="wallet_universe_size must be a non-negative count"):
            tally(
                dict([_vote("w1", "a", 10)]), mechanism, supply=TokenAmount.parse(100), wallet_universe_size=-1,
                options=("a", "b"), now=1, quorum=quorum, conviction=ConvictionParams(Decimal("0.1")),
            )

    def test_winner_is_strict_maximum(self):
        votes = [_vote("w1", "a", 10), _vote("w2", "b", 9)]
        result = tally(dict(votes), "token", supply=TokenAmount.parse(100), wallet_universe_size=2, options=("a", "b"), now=0)
        assert result.outcome.is_winner() and result.outcome.option == "a"

    def test_equal_power_is_a_tie(self):
        votes = [_vote("w1", "a", 10), _vote("w2", "b", 10)]
        result = tally(dict(votes), "token", supply=TokenAmount.parse(100), wallet_universe_size=2, options=("a", "b"), now=0)
        assert result.outcome.kind == "tie"
        assert set(result.outcome.options) == {"a", "b"}

    def test_no_votes_with_options_is_a_tie_of_all(self):
        result = tally(
            {},
            "token",
            supply=TokenAmount.parse(100),
            wallet_universe_size=2,
            options=["a", "b"],
            now=0,
        )
        assert result.outcome.kind == "tie"
        assert result.per_option_power == {
            "a": VotingPower(0),
            "b": VotingPower(0),
        }

    def test_many_small_wallets_beat_a_quadratic_whale(self):
        """200 single-token voters out-power one 10,000-token wallet under sqrt."""
        votes = [_vote(f"small{i:03d}", "a", 1) for i in range(200)]
        votes.append(_vote("whale", "b", 10000))
        result = tally(
            dict(votes), "quadratic", supply=TokenAmount.parse(10200), wallet_universe_size=201, options=("a", "b"), now=0
        )
        assert result.per_option_power["a"] == VotingPower.parse(200)
        assert result.per_option_power["b"] == VotingPower.parse(100)
        assert result.outcome.option == "a"

    def test_commitments_cannot_exceed_supply(self):
        votes = [_vote("w1", "a", 7), _vote("w2", "a", 7)]
        with pytest.raises(MechanismError, match="exceeds supply"):
            tally(dict(votes), "token", supply=TokenAmount.parse(10), wallet_universe_size=2, options=("a", "b"), now=0)

    def test_vote_outside_declared_options_rejected(self):
        votes = [_vote("w1", "c", 1)]
        with pytest.raises(MechanismError, match="not among the tallied options"):
            tally(
                dict(votes),
                "token",
                supply=TokenAmount.parse(10),
                wallet_universe_size=1,
                options=["a", "b"],
                now=0,
            )

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(MechanismError, match="unknown mechanism"):
            tally({}, "futarchy", supply=TokenAmount.parse(1), wallet_universe_size=1, options=("a", "b"), now=0)

    def test_power_rule_takes_a_parsed_mechanism(self):
        """A raw string must not fall through to the token map."""
        assert power_rule(Mechanism.QUADRATIC, None)(100 * NANO, 0) == 10 * NANO
        with pytest.raises(MechanismError, match="needs a Mechanism"):
            power_rule("quadratic", None)

    def test_conviction_tally_needs_params(self):
        state = _vote("w", "a", 5)
        with pytest.raises(MechanismError, match="requires conviction params"):
            tally(dict([state]), "conviction", supply=TokenAmount.parse(10), wallet_universe_size=1, options=("a",), now=0)

    @pytest.mark.parametrize("missing", ["options", "now"])
    def test_options_and_the_tick_are_required(self, missing):
        """Finalize always knows both; a tally never discovers options from the votes."""
        kwargs = {"supply": TokenAmount.parse(10), "wallet_universe_size": 1, "options": ("a",), "now": 0}
        del kwargs[missing]
        with pytest.raises(TypeError, match=missing):
            tally(dict([_vote("w", "a", 5)]), "token", **kwargs)

    def test_conviction_tally_accrues_per_vote(self):
        params = ConvictionParams(decay_rate=Decimal("0.1"))
        early = _vote("early", "a", 100, cast_at=0)
        late = _vote("late", "b", 100, cast_at=9)
        result = tally(
            dict([early, late]),
            "conviction",
            supply=TokenAmount.parse(200),
            wallet_universe_size=2,
            options=("a", "b"),
            now=10,
            conviction=params,
        )
        assert result.per_option_power["a"].units == conviction_units(100 * NANO, "0.1", 10)
        assert result.per_option_power["b"].units == conviction_units(100 * NANO, "0.1", 1)
        assert result.outcome.option == "a"

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.integers(min_value=1, max_value=10**12),
                st.integers(min_value=0, max_value=40),
            ),
            max_size=10,
        ),
        st.sampled_from(list(Mechanism)),
    )
    @settings(max_examples=120, deadline=None)
    def test_vote_power_units_match_the_oracles(self, ballots, mechanism):
        """Per-vote powers follow the oracles and add up to per_option_power."""
        now, alpha = 40, "0.1"
        votes = [
            _vote(f"w{i}", option, str(TokenAmount(u)), cast_at=cast_at)
            for i, (option, u, cast_at) in enumerate(ballots)
        ]
        result = tally(
            dict(votes),
            mechanism,
            supply=TokenAmount(sum(u for _, u, _ in ballots)),
            wallet_universe_size=len(votes),
            options=("a", "b", "c"),
            quorum=QuorumConfig(basis=QuorumBasis.TOKEN_SUPPLY_FRACTION, threshold=Decimal(0)),
            now=now,
            conviction=ConvictionParams(decay_rate=Decimal(alpha)),
        )
        assert len(result.vote_power_units) == len(votes)
        per_option = dict.fromkeys(("a", "b", "c"), 0)
        for (option, u, cast_at), power in zip(ballots, result.vote_power_units):
            if mechanism is Mechanism.QUADRATIC:
                assert power == sqrt_units(u)
            elif mechanism is Mechanism.CONVICTION:
                assert abs(power - conviction_units(u, alpha, now - cast_at)) <= 1
            else:
                assert power == u
            per_option[option] = per_option.get(option, 0) + power
        assert per_option == {o: p.units for o, p in result.per_option_power.items()}

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.integers(min_value=1, max_value=10**12),
            ),
            min_size=1,
            max_size=12,
        ),
        st.randoms(),
        st.sampled_from(["token", "quadratic"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_outcome_invariant_under_permutation(self, ballots, rnd, mechanism):
        votes = [
            _vote(f"w{i}", option, str(TokenAmount(u)))
            for i, (option, u) in enumerate(ballots)
        ]
        supply = TokenAmount(sum(u for _, u in ballots))
        shuffled = list(votes)
        rnd.shuffle(shuffled)
        a = tally(dict(votes), mechanism, supply=supply, wallet_universe_size=len(votes), options=("a", "b", "c"), now=0)
        b = tally(dict(shuffled), mechanism, supply=supply, wallet_universe_size=len(votes), options=("a", "b", "c"), now=0)
        assert a.outcome == b.outcome
        assert a.per_option_power == b.per_option_power
        assert a.participating_tokens == b.participating_tokens


class TestConfigError:
    """config_error owns the mechanism-config rule; every layer that checks it reports its text."""

    MISSING = [Mechanism.QUORUM, Mechanism.CONVICTION]

    def test_the_rule_text(self):
        assert config_error(Mechanism.QUORUM, None, None) == "mechanism 'quorum' requires a quorum config"
        assert config_error(Mechanism.CONVICTION, None, None) == "mechanism 'conviction' requires conviction params"

    @pytest.mark.parametrize("mechanism", MISSING)
    def test_proposal_reports_it(self, mechanism):
        with pytest.raises(GovernanceError) as excinfo:
            Proposal(ProposalId("p1"), ("a", "b"), Window(0, 5), Window(5, 10), mechanism)
        assert str(excinfo.value) == f"proposal 'p1': {config_error(mechanism, None, None)}"

    @pytest.mark.parametrize("mechanism", MISSING)
    def test_tally_reports_it(self, mechanism):
        with pytest.raises(MechanismError) as excinfo:
            tally({}, mechanism, supply=TokenAmount.parse(1), wallet_universe_size=1, options=("a", "b"), now=0)
        assert str(excinfo.value) == config_error(mechanism, None, None)

    @pytest.mark.parametrize("mechanism", MISSING)
    def test_parse_scenario_reports_it(self, mechanism):
        obj = {
            "schema_version": 1, "name": "s", "seed": 1, "ticks": 20, "supply": "10",
            "mechanism": mechanism.value, "quorum": None, "conviction": None, "identity": None,
            "proposals": [{"id": "p1", "options": ["a", "b"], "discussion_window": [0, 5], "voting_window": [5, 15]}],
            "agents": [{"id": "ann", "kind": "honest", "balance": "10", "preference": ["a"]}],
        }
        with pytest.raises(ScenarioValidationError) as excinfo:
            parse_scenario(obj)
        assert excinfo.value.errors == [config_error(mechanism, None, None)]

    @pytest.mark.parametrize("mechanism", MISSING)
    def test_compare_mechanisms_reports_it(self, mechanism):
        scenario = load_preset("plurality_iia_probe")._replace(quorum=None, conviction=None)
        with pytest.raises(ScenarioValidationError) as excinfo:
            compare_mechanisms(scenario, ["token", mechanism])
        assert excinfo.value.errors == [config_error(mechanism, None, None)]
