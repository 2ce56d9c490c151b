"""Fixed-point values, identifiers, vote records, and canonical JSON."""

import json
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
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
    _Record,
    canonical_json,
    div_units_half_even,
    fmt_units,
    loads_canonical,
    parse_units,
    ratio_half_even,
)

from govlab.events import cast_template

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
        # Only ASCII digits, and nothing after the last: not Arabic-Indic or fullwidth digits, nor a "\n".
        for bad in ["", "1e3", "1.", ".5", "1_000", "0x10", "NaN", "Infinity", "+1", "٥", "５.5", "5\n", "1.5\n"]:
            with pytest.raises(FixedPointError):
                parse_units(bad)

    def test_overflow_is_a_hard_error(self):
        assert parse_units(Decimal(MAX_UNITS).scaleb(-9)) == MAX_UNITS
        with pytest.raises(FixedPointOverflow):
            parse_units(Decimal(MAX_UNITS + 1).scaleb(-9))

    def test_exponents_past_the_decimal_context_are_rejected(self):
        """JSON number literals such as 1e999999 reach parse_units as Decimals."""
        with pytest.raises(FixedPointOverflow):
            parse_units(Decimal("1e999999"))
        with pytest.raises(FixedPointError, match="fractional digits"):
            parse_units(Decimal("1e-99999999"))  # underflows to zero unless caught
        assert parse_units(Decimal("0e-99999999")) == 0

    @pytest.mark.parametrize("text", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_decimals_are_malformed(self, text):
        with pytest.raises(FixedPointError, match=f"^malformed decimal: {text}$"):
            parse_units(Decimal(text))

    def test_no_significant_digit_is_rounded_away(self):
        """The default decimal context keeps 28 digits; a 29th must not vanish."""
        with pytest.raises(FixedPointError, match="fractional digits"):
            parse_units(Decimal("1.00000000000000000000000000001"))
        assert parse_units(Decimal("1." + "0" * 40)) == NANO
        with pytest.raises(FixedPointError, match="fractional digits"):
            parse_units(Decimal("1e-1999999999999999990"))  # underflows to 0 in any context

    def test_huge_exponents_inside_the_decimal_context_fail_fast(self):
        """int(Decimal("1e999990")) alone takes tens of seconds."""
        start = time.perf_counter()
        with pytest.raises(FixedPointOverflow):
            parse_units(Decimal("1e999990"))
        with pytest.raises(FixedPointError, match="negative quantity"):
            parse_units(Decimal("-1e999990"))
        assert time.perf_counter() - start < 1.0

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
        with pytest.raises(FixedPointError, match="malformed decimal string"):
            parse_units("\u0661\u0662.\u0665")  # Arabic-Indic digits: a decimal string is ASCII digits
        assert parse_units("0" * 5000 + "1.5") == 1_500_000_000

    @given(
        st.from_regex(r"[0-9]{1,24}(\.[0-9]{0,11})?\n?", fullmatch=True)
        | st.from_regex(r"\d{1,24}(\.\d{0,11})?\n?", fullmatch=True)
        | st.text(st.sampled_from("0123456789.\n -+e\u0663\u0966"), max_size=14)
    )
    def test_strings_agree_with_decimal(self, text):
        self._check_against_decimal(text)

    @pytest.mark.parametrize(
        "text, want",
        [
            ("0.000000000", 0),
            ("9223372036.854775807", MAX_UNITS),
            ("9223372036.854775808", FixedPointOverflow),
            ("9999999999.999999999", FixedPointOverflow),
            ("007.000000000", 7 * NANO),
            ("10000000000.000000000", FixedPointOverflow),
            ("00000000001.000000000", NANO),
            ("1.5", 1_500_000_000),
            ("1", NANO),
        ],
    )
    def test_the_nine_digit_form_agrees_with_the_general_path(self, text, want):
        """A str subclass is not matched by the exact-type fast form, so it takes the general path."""

        class GeneralPath(str):
            pass

        def outcome(value):
            try:
                return parse_units(value)
            except FixedPointError as exc:
                return type(exc), str(exc)

        assert outcome(text) == outcome(GeneralPath(text))
        if isinstance(want, int):
            assert parse_units(text) == want
        else:
            with pytest.raises(want, match=f"quantity exceeds fixed-point range: {text}$"):
                parse_units(text)

    @given(units_st)
    def test_fmt_parse_round_trip(self, units):
        text = fmt_units(units)
        whole, frac = text.split(".")
        assert len(frac) == 9
        assert parse_units(text) == units


class TestHalfEvenRounding:
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
    def test_amounts_have_no_arithmetic_operators(self):
        """Sums are taken on unit counts, never on the values."""
        with pytest.raises(TypeError):
            TokenAmount.parse(1) + TokenAmount.parse(1)
        with pytest.raises(TypeError):
            TokenAmount.parse(2) - TokenAmount.parse(1)

    def test_amounts_have_no_order(self):
        """Comparisons are taken on unit counts, never on the values."""
        with pytest.raises(TypeError):
            TokenAmount.parse(1) < TokenAmount.parse(2)
        with pytest.raises(TypeError):
            TokenAmount.parse(1) < VotingPower.parse(2)

    def test_comparisons_and_hash(self):
        assert TokenAmount.parse(1) == TokenAmount.parse("1.000000000")
        assert hash(TokenAmount.parse(1)) == hash(TokenAmount.parse("1"))
        assert TokenAmount.parse(1) != VotingPower.parse(1)

    def test_immutable(self):
        amount = TokenAmount.parse(1)
        with pytest.raises(AttributeError):
            amount.units = 5
        with pytest.raises(AttributeError, match="immutable"):
            del amount.units
        assert amount.units == 10**9

    @given(units_st)
    def test_str_round_trips_byte_exactly(self, units):
        amount = VotingPower(units)
        assert VotingPower.parse(str(amount)) == amount
        assert str(VotingPower.parse(str(amount))) == str(amount)


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
            option="approve",
            committed=TokenAmount.parse(10),
            cast_at=3,
        )
        kwargs.update(overrides)
        return VoteRecord(**kwargs)

    def test_zero_commitment_rejected(self):
        with pytest.raises(GovlabError, match="positive"):
            self._record(committed=TokenAmount(0))

    def test_negative_tick_rejected(self):
        with pytest.raises(GovlabError, match="cast_at"):
            self._record(cast_at=-1)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("option", "", "option label"),
            ("option", 3, "option label"),
            ("committed", VotingPower.parse(10), "TokenAmount"),
            ("cast_at", True, "cast_at"),
            ("cast_at", "3", "cast_at"),
        ],
        ids=["empty-option", "non-str-option", "committed-type", "bool-tick", "str-tick"],
    )
    def test_each_field_is_checked(self, field, value, message):
        with pytest.raises(GovlabError, match=message):
            self._record(**{field: value})


class TestOutcomes:
    def test_winner_tie_quorum_round_trip(self):
        for outcome, obj in (
            (TallyOutcome.winner("a"), {"type": "winner", "option": "a"}),
            (TallyOutcome.tie(["b", "a"]), {"type": "tie", "options": ["a", "b"]}),
            (TallyOutcome.quorum_failed(), {"type": "quorum_failed"}),
        ):
            assert loads_canonical(canonical_json(outcome.to_json_obj())) == obj
            assert outcome == TallyOutcome(obj["type"], obj.get("option"), tuple(obj.get("options", ())))

    def test_tally_result_round_trip(self):
        """The JSON form, which the finalize event records, leaves the per-vote powers out."""
        result = TallyResult(
            per_option_power={"a": VotingPower.parse(3), "b": VotingPower.parse(1)},
            participating_tokens=TokenAmount.parse(10),
            outcome=TallyOutcome.winner("a"),
            vote_power_units=(2 * NANO, NANO, NANO),
        )
        assert loads_canonical(canonical_json(result.to_json_obj())) == {
            "per_option_power": {"a": "3.000000000", "b": "1.000000000"},
            "participating_tokens": "10.000000000",
            "outcome": {"type": "winner", "option": "a"},
        }


class _Pair(_Record):
    __slots__ = ("left", "right", "note")


class TestRecordConstructor:
    """_Record binds positional arguments to __slots__ in order, then keywords."""

    def test_positional_and_keyword_arguments_are_equivalent(self):
        pair = _Pair(1, 2, "n")
        assert pair == _Pair(1, right=2, note="n") == _Pair(note="n", right=2, left=1)
        assert (pair.left, pair.right, pair.note) == (1, 2, "n")
        assert repr(pair) == "_Pair(left=1, right=2, note='n')"
        assert pair._replace(right=3) == _Pair(1, 3, "n")

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            ((1, 2, 3, 4), {}, r"^_Pair\(\) takes 3 arguments, got 4$"),
            ((1, 2), {"left": 1}, r"^_Pair\(\) got multiple values for 'left'$"),
            ((1,), {"note": 3}, r"^_Pair\(\) missing argument 'right'$"),
            ((1, 2), {"note": None, "nite": 3}, r"^_Pair\(\) got an unexpected argument 'nite'$"),
            # All keywords, the right count, one misspelt: the slot it misses is named first.
            ((), {"left": 1, "right": 2, "nite": 3}, r"^_Pair\(\) missing argument 'note'$"),
            ((), {"left": 1, "right": 2, "note": 3, "nite": 4}, r"^_Pair\(\) got an unexpected argument 'nite'$"),
        ],
        ids=["too-many", "duplicate", "missing", "unexpected", "keyword-misspelt", "keyword-extra"],
    )
    def test_bad_arguments_are_a_type_error_naming_class_and_argument(self, args, kwargs, message):
        with pytest.raises(TypeError, match=message):
            _Pair(*args, **kwargs)


class TestCanonicalJson:
    def test_keys_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    @pytest.mark.parametrize("value", [TokenAmount.parse(1), VotingPower.parse("1.5"), Decimal(1)])
    def test_a_decimal_quantity_is_written_by_its_str(self, value):
        with pytest.raises(CanonicalJsonError, match="not canonical JSON"):
            canonical_json({"a": value})
        assert canonical_json({"a": str(TokenAmount.parse("2"))}) == '{"a":"2.000000000"}'

    def test_floats_rejected_on_write(self):
        with pytest.raises(CanonicalJsonError, match="float"):
            canonical_json({"x": 0.1})

    def test_floats_rejected_on_read(self):
        with pytest.raises(CanonicalJsonError, match="float"):
            loads_canonical('{"x":0.1}')

    @pytest.mark.parametrize(
        "bad",
        ["\ufeff{}", b"{}", '{"x":1e3}', '{"x":NaN}', "-Infinity", '{"x":[1,', '{"x"', "", '{"a":1} x', '{"a":1}{}'],
    )
    def test_loads_rejects_non_canonical_input(self, bad):
        with pytest.raises(CanonicalJsonError):
            loads_canonical(bad)

    def test_non_ascii_escaped(self):
        text = canonical_json({"k": "café"})
        assert text == '{"k":"caf\\u00e9"}'
        assert text.encode("ascii")

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
    @example({"a": 1})
    def test_canonical_round_trip_is_fixed_point(self, value):
        text = canonical_json(value)
        assert json.loads(text) == json.loads(canonical_json(loads_canonical(text)))
        assert canonical_json(loads_canonical(text)) == text
        assert loads_canonical(f" {text}\n") == loads_canonical(text)  # whitespace around the value is JSON's


_id_st = st.from_regex(r"[A-Za-z0-9_-]{1,12}", fullmatch=True)
_encodable_st = st.recursive(
    st.one_of(
        st.integers(min_value=-(10**40), max_value=10**40),
        st.booleans(),
        st.none(),
        st.text(max_size=8),
        _id_st.map(WalletId),
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


class TestCastTemplate:
    """The cast event is written from a template (tests/test_events.py checks it against canonical_json)."""

    def test_hostile_label_is_escaped(self):
        text = cast_template(ProposalId("p"), 'a"\\\x01\u2028\ud800é')(3)(TokenAmount.parse(1).units, WalletId("w"))
        assert text == (
            '{"committed":"1.000000000","event":"cast","option":"a\\"\\\\\\u0001\\u2028\\ud800\\u00e9",'
            '"proposal":"p","tick":3,"wallet":"w"}'
        )
        assert canonical_json(loads_canonical(text)) == text
