"""Wallet splitting: uniform splits, amplification arithmetic, best split."""

from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from govlab.core import NANO, TokenAmount, VotingPower, parse_units
from govlab.mechanisms import ConvictionParams, power_quadratic
from govlab.sybil import SplitError, best_split, split_uniform, sybil_gain

from oracles import sqrt_units


class TestSplitUniform:
    def test_hundred_wallet_attack_layout(self):
        """10,000 tokens across 100 wallets: 100 tokens each."""
        balances = split_uniform(TokenAmount.parse(10000), 100)
        assert len(balances) == 100
        assert all(b == TokenAmount.parse(100) for b in balances)

    def test_remainder_goes_to_the_first_wallet(self):
        balances = split_uniform(TokenAmount.parse(10), 3)
        assert [str(b) for b in balances] == [
            "3.333333334",
            "3.333333333",
            "3.333333333",
        ]

    def test_single_wallet_split_is_the_identity(self):
        assert split_uniform(TokenAmount.parse(7), 1) == [TokenAmount.parse(7)]

    def test_zero_balance_rejected(self):
        with pytest.raises(SplitError, match="zero balance"):
            split_uniform(TokenAmount(0), 2)

    def test_sub_unit_split_rejected(self):
        with pytest.raises(SplitError, match="at least one"):
            split_uniform(TokenAmount(3), 4)

    def test_bad_wallet_count_rejected(self):
        with pytest.raises(SplitError, match="positive int"):
            split_uniform(TokenAmount.parse(10), 0)
        with pytest.raises(SplitError, match="positive int"):
            split_uniform(TokenAmount.parse(10), True)

    @given(
        st.integers(min_value=1, max_value=10**14),
        st.integers(min_value=1, max_value=300),
    )
    def test_split_conserves_the_total_exactly(self, units, n):
        if units < n:
            return
        balances = split_uniform(TokenAmount(units), n)
        assert sum(b.units for b in balances) == units
        assert balances[0].units == max(b.units for b in balances)
        assert len({b.units for b in balances[1:]}) <= 1


class TestSybilGain:
    def test_tenfold_amplification_worked_example(self):
        """One 10,000-token wallet vs the same stake split 100 ways, quadratic."""
        report = sybil_gain(TokenAmount.parse(10000), 100, "quadratic")
        assert str(report.honest_power) == "100.000000000"
        assert str(report.attack_power) == "1000.000000000"
        assert str(report.amplification) == "10.000000000"

    def test_three_way_split_of_nine(self):
        """Attack power is the sum of three individually rounded sqrt(3) wallets."""
        per_wallet = sqrt_units(3 * NANO)
        report = sybil_gain(TokenAmount.parse(9), 3, "quadratic")
        assert report.honest_power == VotingPower.parse(3)
        assert report.attack_power.units == 3 * per_wallet
        assert str(report.attack_power) == "5.196152424"
        assert str(report.amplification) == "1.732050808"

    def test_infeasible_split_rejected(self):
        with pytest.raises(SplitError, match="at least one"):
            sybil_gain(TokenAmount(5), 6, "quadratic")

    @given(
        st.integers(min_value=1, max_value=10**12),
        st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=150, deadline=None)
    def test_closed_form_equals_materialized_split(self, units, n):
        """The two-evaluation shortcut must equal brute-force per-wallet summing."""
        if units < n:
            return
        total = TokenAmount(units)
        report = sybil_gain(total, n, "quadratic")
        brute = sum(power_quadratic(b).units for b in split_uniform(total, n))
        assert report.attack_power.units == brute

    @given(
        st.integers(min_value=1, max_value=10**14),
        st.integers(min_value=1, max_value=10**4),
    )
    @settings(max_examples=200)
    def test_token_mechanism_is_split_invariant(self, units, n):
        if units < n:
            return
        report = sybil_gain(TokenAmount(units), n, "token")
        assert report.attack_power.units == report.honest_power.units
        assert str(report.amplification) == "1.000000000"

    @given(st.integers(min_value=1, max_value=10**5), st.integers(min_value=1, max_value=400))
    @settings(max_examples=150, deadline=None)
    def test_quadratic_divisible_split_amplifies_by_sqrt_n(self, tokens_per_wallet, n):
        """For an exactly divisible split, amplification = sqrt(n) within n ulps."""
        total = TokenAmount.parse(tokens_per_wallet * n)
        report = sybil_gain(total, n, "quadratic")
        amp_units = parse_units(report.amplification)
        want = sqrt_units(n * NANO)
        assert abs(amp_units - want) <= n

    @given(
        st.integers(min_value=1, max_value=10**13),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_conviction_with_shared_clock_is_split_invariant(self, units, n, held_for):
        """The decay factor distributes over the token sum, up to n rounding ulps."""
        if units < n:
            return
        params = ConvictionParams(decay_rate=Decimal("0.08"))
        report = sybil_gain(
            TokenAmount(units), n, "conviction", conviction=params, held_for=held_for
        )
        assert abs(report.attack_power.units - report.honest_power.units) <= n
        if report.amplification is not None:
            # |amp - 1| <= n / honest plus half an ulp from the ratio rounding.
            slack = n * NANO + report.honest_power.units
            assert abs(parse_units(report.amplification) - NANO) * report.honest_power.units <= slack

    def test_conviction_with_zero_elapsed_time_has_undefined_amplification(self):
        params = ConvictionParams(decay_rate=Decimal("0.1"))
        report = sybil_gain(
            TokenAmount.parse(100), 4, "conviction", conviction=params, held_for=0
        )
        assert report.honest_power == VotingPower(0)
        assert report.attack_power == VotingPower(0)
        assert report.amplification is None


class TestBestSplit:
    def test_quadratic_prefers_the_wallet_cap(self):
        n, report = best_split(TokenAmount.parse(10000), "quadratic", 100)
        assert n == 100
        assert str(report.amplification) == "10.000000000"

    def test_token_prefers_fewest_wallets(self):
        """Every split yields identical power, so the tiebreak picks n = 1."""
        n, report = best_split(TokenAmount.parse(10000), "token", 100)
        assert n == 1
        assert str(report.amplification) == "1.000000000"

    def test_scan_is_capped_by_unit_granularity(self):
        """A 1e-6-token balance has only 1000 indivisible units to spread."""
        n, _ = best_split(TokenAmount.parse("0.000001"), "quadratic", 10**6)
        assert n == 1000

    def test_bad_max_wallets_rejected(self):
        with pytest.raises(SplitError, match="positive int"):
            best_split(TokenAmount.parse(1), "quadratic", 0)

    @given(
        st.integers(min_value=1, max_value=10**12),
        st.integers(min_value=1, max_value=120),
        st.sampled_from(["token", "quadratic", "conviction"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force_scan(self, units, max_wallets, mechanism):
        params = ConvictionParams(decay_rate=Decimal("0.1")) if mechanism == "conviction" else None
        total = TokenAmount(units)
        got_n, got = best_split(
            total, mechanism, max_wallets, conviction=params, held_for=7
        )
        best = None
        for n in range(1, min(max_wallets, units) + 1):
            report = sybil_gain(total, n, mechanism, conviction=params, held_for=7)
            if best is None or report.attack_power.units > best[1]:
                best = (n, report.attack_power.units)
        assert (got_n, got.attack_power.units) == best

    @pytest.mark.slow
    def test_ten_million_wallet_scan(self):
        """Exhaustive scan up to 1e7 wallets: sqrt growth keeps the cap optimal."""
        n, report = best_split(TokenAmount.parse(10000), "quadratic", 10**7)
        assert n == 10**7
        assert str(report.attack_power) == "316227.770000000"
