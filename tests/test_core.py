"""Fixed-point values, identifiers, vote records, and canonical JSON."""

import json
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from govlab.core import (
    MAX_UNITS,
    NANO,
    CanonicalJsonError,
    FixedPointError,
    FixedPointOverflow,
    GovlabError,
    IdentityId,
    ProposalId,
    TallyOutcome,
    TallyResult,
    TokenAmount,
    VoteRecord,
    VotingPower,
    WalletId,
    _cast_json,
    canonical_json,
    div_units_half_even,
    fmt_units,
    is_canonical_json,
    loads_canonical,
    parse_units,
    power_sum,
    ratio_half_even,
    round_half_even_units,
)

from oracles import canonical_json_ref, parse_units_ref

units_st = st.integers(min_value=0, max_value=MAX_UNITS)


class TestParseUnits:
    def test_integer_tokens_scale_to_units(self):
        assert parse_units(1) == NANO
        assert parse_units(0) == 0
        assert parse_units("12.5") == 12_500_000_000

    def test_nine_fractional_digits_are_exact(self):
        assert parse_units("0.000000001") == 1
        assert parse_units(Decimal("0.000000001")) == 1

    def test_more_than_nine_digits_rejected(self):
        with pytest.raises(FixedPointError, match="fractional digits"):
            parse_units(Decimal("0.0000000001"))
        with pytest.raises(FixedPointError, match="malformed decimal string"):
            parse_units("0.0000000001")

    def test_floats_rejected(self):
        """Binary floats carry representation error, so they never enter."""
        with pytest.raises(FixedPointError, match="non-decimal type"):
            parse_units(0.1)
        with pytest.raises(FixedPointError, match="non-decimal type"):
            parse_units(True)

    def test_negative_rejected(self):
        with pytest.raises(FixedPointError, match="malformed|negative"):
            parse_units("-1")
        with pytest.raises(FixedPointError, match="negative"):
            parse_units(-1)

    def test_garbage_strings_rejected(self):
        for bad in ["", "1e3", "1.", ".5", "1_000", "0x10", "NaN", "Infinity", "+1"]:
            with pytest.raises(FixedPointError):
                parse_units(bad)

    def test_overflow_is_a_hard_error(self):
        assert parse_units(Decimal(MAX_UNITS).scaleb(-9)) == MAX_UNITS
        with pytest.raises(FixedPointOverflow):
            parse_units(Decimal(MAX_UNITS + 1).scaleb(-9))

    def _check_against_decimal(self, text):
        want = parse_units_ref(text)
        if want is None:
            with pytest.raises(FixedPointError, match="malformed decimal string"):
                parse_units(text)
        elif want > MAX_UNITS:
            with pytest.raises(FixedPointOverflow):
                parse_units(text)
        else:
            assert parse_units(text) == want

    def test_edge_strings_agree_with_decimal(self):
        edges = [
            "1.123456789", "1.1234567890", "007.50", "000", "1.5\n", "1.5\n\n", "\u0661\u0662.\u0665",
            "\u0967.5", "", ".", "1.", ".5", " 1", "1 ", "1.5 ",
            fmt_units(MAX_UNITS), fmt_units(MAX_UNITS)[:-1] + "8", str(MAX_UNITS // NANO + 1),
            "0" * 5000 + "1.5", "\u0660" * 5000 + "1", "1" + "0" * 5000, "9" * 40,
        ]
        for text in edges:
            self._check_against_decimal(text)
        assert parse_units(fmt_units(MAX_UNITS)) == MAX_UNITS
        assert parse_units("\u0661\u0662.\u0665") == 12_500_000_000
        assert parse_units("0" * 5000 + "1.5") == 1_500_000_000

    @given(
        st.from_regex(r"[0-9]{1,24}(\.[0-9]{0,11})?\n?", fullmatch=True)
        | st.from_regex(r"\d{1,24}(\.\d{0,11})?\n?", fullmatch=True)
        | st.text(st.sampled_from("0123456789.\n -+e\u0663\u0966"), max_size=14)
    )
    def test_strings_agree_with_decimal(self, text):
        self._check_against_decimal(text)

    @given(units_st)
    def test_fmt_parse_round_trip(self, units):
        text = fmt_units(units)
        whole, frac = text.split(".")
        assert len(frac) == 9
        assert parse_units(text) == units


class TestHalfEvenRounding:
    def test_ties_go_to_even(self):
        assert round_half_even_units(Decimal("0.0000000005")) == 0
        assert round_half_even_units(Decimal("0.0000000015")) == 2
        assert round_half_even_units(Decimal("0.0000000025")) == 2

    def test_plain_cases(self):
        assert round_half_even_units(Decimal("1.0000000004")) == NANO
        assert round_half_even_units(Decimal("1.0000000006")) == NANO + 1

    def test_division_rejects_bad_denominator(self):
        with pytest.raises(FixedPointError, match="non-positive"):
            div_units_half_even(1, 0)

    @given(
        st.integers(min_value=0, max_value=10**15),
        st.integers(min_value=1, max_value=10**15),
    )
    def test_division_matches_fraction_oracle(self, num, den):
        assume(num * NANO <= MAX_UNITS * den)  # ratio must stay representable
        got = div_units_half_even(num, den)
        exact = Fraction(num * NANO, den)
        floor = exact.numerator // exact.denominator
        rem = exact - floor
        if rem > Fraction(1, 2) or (rem == Fraction(1, 2) and floor % 2 == 1):
            floor += 1
        assert got == floor

    def test_division_overflow_is_a_hard_error(self):
        with pytest.raises(FixedPointOverflow, match="ratio"):
            div_units_half_even(MAX_UNITS, 1)

    def test_ratio_renders_nine_digits(self):
        assert str(ratio_half_even(1, 3)) == "0.333333333"
        assert str(ratio_half_even(2, 3)) == "0.666666667"
        assert str(ratio_half_even(1, 2)) == "0.500000000"


class TestFixedValues:
    def test_addition_is_exact(self):
        a = TokenAmount.parse("0.000000001")
        total = TokenAmount.zero()
        for _ in range(1000):
            total = total + a
        assert str(total) == "0.000001000"

    def test_subtraction_cannot_go_negative(self):
        with pytest.raises(FixedPointError, match="below zero"):
            TokenAmount.parse(1) - TokenAmount.parse(2)

    def test_sum_overflow_raises(self):
        top = TokenAmount.from_units(MAX_UNITS)
        with pytest.raises(FixedPointOverflow):
            top + TokenAmount.from_units(1)

    def test_types_do_not_mix(self):
        with pytest.raises(TypeError, match="cannot mix TokenAmount with VotingPower"):
            TokenAmount.parse(1) + VotingPower.parse(1)

    def test_comparisons_and_hash(self):
        assert TokenAmount.parse(2) > TokenAmount.parse(1)
        assert TokenAmount.parse(1) == TokenAmount.parse("1.000000000")
        assert hash(TokenAmount.parse(1)) == hash(TokenAmount.parse("1"))
        assert TokenAmount.parse(1) != VotingPower.parse(1)

    def test_immutable(self):
        amount = TokenAmount.parse(1)
        with pytest.raises(AttributeError):
            amount._units = 5

    @given(units_st)
    def test_str_round_trips_byte_exactly(self, units):
        amount = VotingPower.from_units(units)
        assert VotingPower.parse(str(amount)) == amount
        assert str(VotingPower.parse(str(amount))) == str(amount)


class TestPowerSum:
    def test_empty_sum_is_zero(self):
        assert power_sum([]) == VotingPower.zero()

    def test_exact_addition(self):
        assert power_sum([VotingPower.parse(10), VotingPower.parse(100)]) == VotingPower.parse(110)

    def test_thousand_nano_units_accumulate_exactly(self):
        powers = [VotingPower.parse("0.000000001")] * 1000
        total = power_sum(powers)
        assert total.units == 1000
        assert str(total) == "0.000001000"

    def test_overflow_detected(self):
        with pytest.raises(FixedPointOverflow):
            power_sum([VotingPower.from_units(MAX_UNITS), VotingPower.from_units(1)])

    @given(st.lists(st.integers(min_value=0, max_value=10**15), max_size=30), st.randoms())
    def test_order_independent(self, units, rnd):
        powers = [VotingPower.from_units(u) for u in units]
        shuffled = list(powers)
        rnd.shuffle(shuffled)
        assert power_sum(powers) == power_sum(shuffled)

    @given(
        st.lists(st.integers(min_value=0, max_value=10**13), max_size=15),
        st.lists(st.integers(min_value=0, max_value=10**13), max_size=15),
    )
    def test_associative(self, a, b):
        pa = [VotingPower.from_units(u) for u in a]
        pb = [VotingPower.from_units(u) for u in b]
        assert power_sum([power_sum(pa), power_sum(pb)]) == power_sum(pa + pb)


class TestIdentifiers:
    def test_accepts_word_characters_and_dashes(self):
        assert WalletId("wallet_01-a") == "wallet_01-a"

    def test_rejects_empty_long_and_exotic(self):
        for cls in (WalletId, IdentityId, ProposalId):
            for bad in ["", "x" * 65, "space here", "café", "trailing\n"]:
                with pytest.raises(GovlabError, match="must match"):
                    cls(bad)

    def test_byte_exact_no_normalization(self):
        assert WalletId("Alice") != WalletId("alice")

    def test_same_type_passes_through_unchanged(self):
        wallet = WalletId("a")
        assert WalletId(wallet) is wallet

    def test_other_identifier_type_is_converted_and_validated(self):
        proposal = ProposalId(WalletId("a"))
        assert type(proposal) is ProposalId and proposal == "a"
        # An identifier built around validation still fails the other type's check.
        forged = str.__new__(WalletId, "bad space")
        with pytest.raises(GovlabError, match="must match"):
            ProposalId(forged)


class TestVoteRecord:
    def _record(self, **overrides):
        kwargs = dict(
            wallet=WalletId("w1"),
            proposal=ProposalId("p1"),
            option="approve",
            committed=TokenAmount.parse(10),
            cast_at=3,
        )
        kwargs.update(overrides)
        return VoteRecord(**kwargs)

    def test_zero_commitment_rejected(self):
        with pytest.raises(GovlabError, match="positive"):
            self._record(committed=TokenAmount.zero())

    def test_negative_tick_rejected(self):
        with pytest.raises(GovlabError, match="cast_at"):
            self._record(cast_at=-1)


class TestOutcomes:
    def test_winner_tie_quorum_round_trip(self):
        for outcome, obj in (
            (TallyOutcome.winner("a"), {"type": "winner", "option": "a"}),
            (TallyOutcome.tie(["b", "a"]), {"type": "tie", "options": ["a", "b"]}),
            (TallyOutcome.quorum_failed(), {"type": "quorum_failed"}),
        ):
            assert loads_canonical(canonical_json(outcome.to_json_obj())) == obj

    def test_tally_result_round_trip(self):
        """The JSON form, which the finalize event records, leaves the per-vote powers out."""
        result = TallyResult(
            per_option_power={"a": VotingPower.parse(3), "b": VotingPower.parse(1)},
            participating_tokens=TokenAmount.parse(10),
            outcome=TallyOutcome.winner("a"),
            vote_powers=(VotingPower.parse(2), VotingPower.parse(1), VotingPower.parse(1)),
        )
        assert loads_canonical(canonical_json(result.to_json_obj())) == {
            "per_option_power": {"a": "3.000000000", "b": "1.000000000"},
            "participating_tokens": "10.000000000",
            "outcome": {"type": "winner", "option": "a"},
        }


class TestCanonicalJson:
    def test_keys_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_decimals_render_with_nine_digits(self):
        assert canonical_json({"x": Decimal("1.5")}) == '{"x":"1.500000000"}'
        assert canonical_json({"x": TokenAmount.parse("2")}) == '{"x":"2.000000000"}'

    def test_floats_rejected_on_write(self):
        with pytest.raises(CanonicalJsonError, match="float"):
            canonical_json({"x": 0.1})

    def test_floats_rejected_on_read(self):
        with pytest.raises(CanonicalJsonError, match="float"):
            loads_canonical('{"x":0.1}')

    @pytest.mark.parametrize(
        "bad",
        ["\ufeff{}", b"{}", '{"x":1e3}', '{"x":NaN}', "-Infinity", '{"x":[1,', '{"x"', ""],
    )
    def test_loads_rejects_non_canonical_input(self, bad):
        with pytest.raises(CanonicalJsonError):
            loads_canonical(bad)

    def test_non_ascii_escaped(self):
        text = canonical_json({"k": "café"})
        assert text == '{"k":"caf\\u00e9"}'
        assert text.encode("ascii")

    def test_is_canonical_detects_reordering(self):
        assert is_canonical_json('{"a":1,"b":2}')
        assert not is_canonical_json('{"b":2,"a":1}')
        assert not is_canonical_json('{"a": 1}')
        assert not is_canonical_json("not json")

    @given(
        st.recursive(
            st.one_of(
                st.integers(min_value=-(10**12), max_value=10**12),
                st.booleans(),
                st.none(),
                st.text(max_size=8),
            ),
            lambda inner: st.one_of(
                st.lists(inner, max_size=4),
                st.dictionaries(st.text(max_size=6), inner, max_size=4),
            ),
            max_leaves=12,
        )
    )
    def test_canonical_round_trip_is_fixed_point(self, value):
        text = canonical_json(value)
        assert json.loads(text) == json.loads(canonical_json(loads_canonical(text)))
        assert canonical_json(loads_canonical(text)) == text
        assert is_canonical_json(text)


_id_st = st.from_regex(r"[A-Za-z0-9_-]{1,12}", fullmatch=True)
_encodable_st = st.recursive(
    st.one_of(
        st.integers(min_value=-(10**40), max_value=10**40),
        st.booleans(),
        st.none(),
        st.text(max_size=8),
        _id_st.map(WalletId),
        units_st.map(TokenAmount.from_units),
        units_st.map(VotingPower.from_units),
        units_st.map(lambda u: Decimal(u).scaleb(-9)),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=6), _id_st.map(WalletId)), inner, max_size=4),
    ),
    max_leaves=16,
)


class TestCanonicalJsonOracle:
    @given(_encodable_st)
    def test_matches_reference_encoder(self, value):
        assert canonical_json(value) == canonical_json_ref(value)

    @pytest.mark.parametrize(
        "value",
        [
            0.5,
            {"a": [1, {"b": (2, 0.25)}]},
            [[[{"deep": [float("inf")]}]]],
        ],
    )
    def test_floats_rejected_at_any_depth(self, value):
        with pytest.raises(CanonicalJsonError, match="float"):
            canonical_json(value)

    @pytest.mark.parametrize("value", [{1: "x"}, {"a": [{None: 1}]}, {"a": {(1, 2): 3}}])
    def test_non_string_keys_rejected(self, value):
        with pytest.raises(CanonicalJsonError, match="keys must be strings"):
            canonical_json(value)

    @pytest.mark.parametrize("value", [{1, 2}, b"bytes", {"a": [object()]}, (Fraction(1, 3),)])
    def test_unknown_types_rejected(self, value):
        with pytest.raises(CanonicalJsonError, match="not canonical JSON"):
            canonical_json(value)


_label_st = st.lists(
    st.text(st.characters(blacklist_categories=()), max_size=6)
    | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\u2028", "\ud800", "\udfff", "😀"]),
    min_size=1,
    max_size=5,
).map("".join).filter(bool)


class TestCastTemplate:
    """The cast event is written from a template; canonical_json of its dict form is the oracle."""

    @given(
        proposal=st.from_regex(r"[A-Za-z0-9_-]{1,64}", fullmatch=True).map(ProposalId),
        wallet=st.from_regex(r"[A-Za-z0-9_-]{1,64}", fullmatch=True).map(WalletId),
        option=_label_st,
        committed=st.integers(min_value=1, max_value=MAX_UNITS).map(TokenAmount.from_units),
        tick=st.integers(min_value=0, max_value=10**12),
    )
    @settings(max_examples=300)
    def test_matches_canonical_json(self, proposal, wallet, option, committed, tick):
        expected = canonical_json(
            {
                "event": "cast",
                "proposal": proposal,
                "wallet": wallet,
                "option": option,
                "committed": committed,
                "tick": tick,
            }
        )
        assert _cast_json(proposal, wallet, option, committed, tick) == expected

    def test_hostile_label_is_escaped(self):
        text = _cast_json(ProposalId("p"), WalletId("w"), 'a"\\\x01\u2028\ud800é', TokenAmount.parse(1), 3)
        assert text == (
            '{"committed":"1.000000000","event":"cast","option":"a\\"\\\\\\u0001\\u2028\\ud800\\u00e9",'
            '"proposal":"p","tick":3,"wallet":"w"}'
        )
        assert is_canonical_json(text)
