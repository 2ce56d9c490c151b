"""Core value types shared by every governance mechanism.

Token amounts and voting powers are fixed-precision decimals with exactly
nine fractional digits, stored internally as integer counts of 10^-9 units.
Arithmetic works on those unit counts, so sums are exact; rounding
(half-even) happens only where an irrational function (square root,
exponential) enters, never in plain arithmetic.  Serialization is canonical
JSON: sorted keys, compact separators, ASCII only.  An amount (a TokenAmount
or VotingPower) is written as its str(), with exactly nine fractional digits.
A report ratio (participation, Gini, amplification) is written by fmt_decimal,
in the package context's scientific form of its nine-digit Decimal, which
takes exponent form below 10^-6: 1E-9, and 0E-9 for zero.  Report schema 1
keeps that form.
"""

from __future__ import annotations

import json
import re
from decimal import MAX_PREC, ROUND_HALF_EVEN, Context, Decimal, DivisionByZero, InvalidOperation, Overflow
from itertools import repeat
from typing import Any, Iterable, Iterator

NANO_DIGITS = 9
NANO = 10**NANO_DIGITS
# Unit counts must fit a signed 64-bit integer so every arithmetic result is
# reproducible bit-for-bit across language runtimes.
MAX_UNITS = 2**63 - 1

_ID_RE = re.compile(r"[A-Za-z0-9_-]{1,64}")
_DECIMAL_RE = re.compile(r"([0-9]+)(?:\.([0-9]{1,9}))?")
# The form fmt_units writes; every amount in a ledger has it.
_NINE_DIGITS = re.compile(r"(0|[1-9][0-9]{0,9})\.([0-9]{9})")


class GovlabError(Exception):
    """Base class for every error raised by this package."""


class FixedPointError(GovlabError):
    """Malformed, negative, or out-of-range fixed-point value."""


class FixedPointOverflow(FixedPointError):
    """Arithmetic left the representable fixed-point range."""


class CanonicalJsonError(GovlabError):
    """Value cannot be rendered as (or is not) canonical JSON."""


class GovernanceError(GovlabError):
    """Base for lifecycle violations, and for a ledger event that replay cannot read."""


def fmt_units(units: int) -> str:
    """Render a non-negative unit count as a 9-fractional-digit decimal string."""
    if units < 0:
        raise FixedPointError(f"negative unit count: {units}")
    return f"{units // NANO}.{units % NANO:09d}"


def parse_units(value: str | int | Decimal) -> int:
    """Parse a decimal quantity into 10^-9 units, exactly.

    Accepts str, int, or Decimal.  Floats are rejected: binary floats carry
    representation error that would leak into hashes and reports.
    """
    if type(value) is str and (match := _NINE_DIGITS.fullmatch(value)):
        units = int(match[1]) * NANO + int(match[2])
        if units > MAX_UNITS:
            raise FixedPointOverflow(f"quantity exceeds fixed-point range: {value}")
        return units
    if isinstance(value, bool) or isinstance(value, float):
        raise FixedPointError(f"refusing non-decimal type {type(value).__name__!r}")
    if isinstance(value, int):
        units = value * NANO
    elif isinstance(value, Decimal):
        return _units_from_decimal(value)
    elif isinstance(value, str):
        match = _DECIMAL_RE.fullmatch(value)
        if not match:
            raise FixedPointError(f"malformed decimal string: {value!r}")
        whole, frac = match.groups()
        # int() refuses very long digit strings; past 20 digits only zero padding is in range.
        if len(whole) > 20 and any(map(int, whole[:-20])):
            raise FixedPointOverflow(f"quantity exceeds fixed-point range: {value}")
        units = int(whole[-20:]) * NANO + int((frac or "").ljust(NANO_DIGITS, "0"))
    else:
        raise FixedPointError(f"refusing non-decimal type {type(value).__name__!r}")
    if units < 0:
        raise FixedPointError(f"negative quantity: {value}")
    if units > MAX_UNITS:
        raise FixedPointOverflow(f"quantity exceeds fixed-point range: {value}")
    return units


def _context(prec: int, emin: int = -999999, emax: int = 999999) -> Context:
    """A half-even context with every field given: Context() copies a missing one
    from the mutable DefaultContext, and no value the package reads or writes may depend on it."""
    return Context(prec=prec, rounding=ROUND_HALF_EVEN, Emin=emin, Emax=emax, capitals=1, clamp=0,
                   flags=[], traps=[InvalidOperation, DivisionByZero, Overflow])


# scaleb rounds to its context's precision (28 digits by default), which would
# drop a 29th significant digit; this context keeps every digit.
_EXACT = _context(MAX_PREC)


def fmt_decimal(value: Decimal) -> str:
    """The text of a Decimal in every byte the package writes: its scientific form in the
    package's context, so the caller's capitals setting never reaches it."""
    return _EXACT.to_sci_string(value)


def _units_from_decimal(d: Decimal) -> int:
    if not d.is_finite():
        raise FixedPointError(f"malformed decimal: {d}")
    try:
        scaled = d.scaleb(NANO_DIGITS, _EXACT)
    except Overflow as exc:  # an exponent past the decimal context's range
        raise FixedPointOverflow(f"quantity exceeds fixed-point range: {d}") from exc
    if scaled != scaled.to_integral_value() or (d and not scaled):  # a tiny d underflows to 0
        raise FixedPointError(f"more than {NANO_DIGITS} fractional digits: {d}")
    # Checked before int(), which takes seconds on a Decimal such as 1e999990.
    if scaled < 0:
        raise FixedPointError(f"negative quantity: {d}")
    if scaled > MAX_UNITS:
        raise FixedPointOverflow(f"quantity exceeds fixed-point range: {d}")
    return int(scaled)


def div_units_half_even(num_units: int, den_units: int) -> int:
    """Exact half-even division of two unit counts into ratio units.

    The result is the dimensionless ratio num/den expressed in 10^-9 units.
    """
    if den_units <= 0:
        raise FixedPointError("division by a non-positive quantity")
    if num_units < 0:
        raise FixedPointError("negative numerator")
    q, r = divmod(num_units * NANO, den_units)
    if 2 * r > den_units or (2 * r == den_units and q % 2 == 1):
        q += 1
    if q > MAX_UNITS:
        raise FixedPointOverflow("ratio exceeds fixed-point range")
    return q


def ratio_half_even(num_units: int, den_units: int) -> Decimal:
    """num/den as a Decimal rounded half-even at nine fractional digits."""
    return Decimal(fmt_units(div_units_half_even(num_units, den_units)))


class _Identifier(str):
    """Nonempty string of at most 64 chars from [A-Za-z0-9_-], compared byte-exact."""

    __slots__ = ()

    def __new__(cls, value: str):
        if type(value) is cls:  # validated when it was built
            return value
        if not isinstance(value, str) or not _ID_RE.fullmatch(value):
            raise GovlabError(
                f"{cls.__name__} must match [A-Za-z0-9_-]{{1,64}}: {value!r}"
            )
        return super().__new__(cls, value)

    @classmethod
    def numbered(cls, form: str, n: int) -> Iterator:
        """The n ids form % k for k = 0..n-1, where form's one conversion is %0<width>d, each
        built as it is drawn.

        The ids differ only in their digits, the first is the shortest and the last the
        longest, so matching those two, before any is drawn, proves every one, and each is
        built unchecked."""
        if n > 0:
            cls(form % 0)
            cls(form % (n - 1))
        return map(str.__new__, repeat(cls, n), map(form.__mod__, range(n)))


class WalletId(_Identifier):
    pass


class IdentityId(_Identifier):
    pass


class ProposalId(_Identifier):
    pass


def _check_option(option: str) -> str:
    if not isinstance(option, str) or not option:
        raise GovlabError(f"option label must be a nonempty string: {option!r}")
    return option


# How a record's __init__ fills its slots, past the __setattr__ that refuses every write.
_set = object.__setattr__


class _Record:
    """A record class whose __slots__ name its constructor's parameters in order.

    The constructor binds positional arguments to the slots in order, then
    keywords by slot name; every field is passed.  An argument too many, a
    duplicate, a missing one or an unknown one is a TypeError naming the
    class.  A record that checks or converts a field writes its own __init__.

    Two records are equal when they are of the same class and their field
    tuples are equal, and the hash is the field tuple's.  The repr is
    Name(field=value, ...).  A field cannot be assigned or deleted; _replace
    builds a changed copy through the constructor, so its checks run again.
    """

    __slots__ = ()

    def __init__(self, *args: Any, **kwargs: Any):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} arguments, got {len(args)}")
        for name, value in zip(names, args):
            if name in kwargs:
                raise TypeError(f"{type(self).__name__}() got multiple values for {name!r}")
            _set(self, name, value)
        # Keywords are read, not popped: an all-keyword call costs one lookup per slot.
        try:
            for name in names[len(args):]:
                _set(self, name, kwargs[name])
        except KeyError:
            raise TypeError(f"{type(self).__name__}() missing argument {name!r}") from None
        if len(args) + len(kwargs) > len(names):
            unexpected = next(key for key in kwargs if key not in names)
            raise TypeError(f"{type(self).__name__}() got an unexpected argument {unexpected!r}")

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any = None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _replace(self, **changes: Any):
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(changes)
        return type(self)(**fields)


class _Fixed(_Record):
    """Immutable non-negative fixed-point number in 10^-9 units: X(units) builds one,
    X.parse(value) reads a decimal and x.units is the count.  Amounts have no order."""

    __slots__ = ("units",)

    def __init__(self, units: int):
        if not isinstance(units, int) or isinstance(units, bool):
            raise FixedPointError("unit count must be an int")
        if units < 0:
            raise FixedPointError(f"negative quantity: {units} units")
        if units > MAX_UNITS:
            raise FixedPointOverflow(f"quantity exceeds fixed-point range: {units} units")
        _set(self, "units", units)

    @classmethod
    def parse(cls, value: str | int | Decimal):
        return cls(parse_units(value))

    def __str__(self) -> str:
        return fmt_units(self.units)

    def __repr__(self) -> str:
        return f"{type(self).__name__}('{self}')"


class TokenAmount(_Fixed):
    """A quantity of governance tokens."""


class VotingPower(_Fixed):
    """Tallied influence; same fixed-point representation as tokens."""


class VoteRecord(_Record):
    """One wallet's live vote on one proposal, as its proposal's book holds it under the wallet.

    cast_at is the tick since which the wallet has held this option: a
    same-option recast keeps it and a switch resets it.  Only conviction
    power reads it, as the start of accrual.
    """

    __slots__ = ("option", "committed", "cast_at")

    def __init__(self, option: str, committed: TokenAmount, cast_at: int):
        _set(self, "option", _check_option(option))
        if not isinstance(committed, TokenAmount):
            raise GovlabError("committed must be a TokenAmount")
        if not committed.units:
            raise GovlabError("committed tokens must be positive")
        if not isinstance(cast_at, int) or isinstance(cast_at, bool) or cast_at < 0:
            raise GovlabError("cast_at must be a non-negative tick")
        _set(self, "committed", committed)
        _set(self, "cast_at", cast_at)


def _checked_vote(option, committed, cast_at) -> VoteRecord:
    """A VoteRecord built without __init__'s checks, from fields of the right types the caller has checked."""
    vote = object.__new__(VoteRecord)
    _set_option(vote, option)
    _set_committed(vote, committed)
    _set_cast_at(vote, cast_at)
    return vote


# Each slot's own setter, which skips object.__setattr__'s lookup of the name.
_set_option, _set_committed, _set_cast_at = (getattr(VoteRecord, n).__set__ for n in VoteRecord.__slots__)


class OutcomeKind:
    WINNER = "winner"
    TIE = "tie"
    QUORUM_FAILED = "quorum_failed"


class TallyOutcome(_Record):
    """Winner(option), Tie(options), or QuorumFailed."""

    __slots__ = ("kind", "option", "options")

    @classmethod
    def winner(cls, option: str) -> "TallyOutcome":
        return cls(OutcomeKind.WINNER, _check_option(option), ())

    @classmethod
    def tie(cls, options: Iterable[str]) -> "TallyOutcome":
        # Sorted so the outcome is independent of vote-list order.
        return cls(OutcomeKind.TIE, None, tuple(sorted(options)))

    @classmethod
    def quorum_failed(cls) -> "TallyOutcome":
        return cls(OutcomeKind.QUORUM_FAILED, None, ())

    def is_winner(self) -> bool:
        return self.kind == OutcomeKind.WINNER

    def to_json_obj(self) -> dict[str, Any]:
        if self.kind == OutcomeKind.WINNER:
            return {"type": self.kind, "option": self.option}
        if self.kind == OutcomeKind.TIE:
            return {"type": self.kind, "options": list(self.options)}
        return {"type": self.kind}


class TallyResult(_Record):
    """Per-option powers, tokens that participated, the outcome, and each vote's power.

    vote_power_units holds each vote's power as an int count of 10^-9 units, in
    the order of the tallied votes; it is not part of the JSON form, which the
    ledger's finalize event records.  GovernanceEngine.finalize returns the
    tally to its caller and keeps no copy, so no per-vote value outlives a
    finalize.
    """

    __slots__ = ("per_option_power", "participating_tokens", "outcome", "vote_power_units")

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "per_option_power": {o: str(p) for o, p in self.per_option_power.items()},
            "participating_tokens": str(self.participating_tokens),
            "outcome": self.outcome.to_json_obj(),
        }


# Already canonical, matched by exact type; ledger payloads hold little else.
_PLAIN = frozenset((str, int, bool, type(None)))


def _canonical_value(value: Any) -> Any:
    if type(value) in _PLAIN:
        return value
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise CanonicalJsonError(f"object keys must be strings: {k!r}")
            out[k] = v if type(v) in _PLAIN else _canonical_value(v)
        return out
    if isinstance(value, (list, tuple)):
        return [v if type(v) in _PLAIN else _canonical_value(v) for v in value]
    if isinstance(value, float):
        raise CanonicalJsonError("float is not canonical; write a decimal quantity as its str()")
    if isinstance(value, (int, str)):
        return value
    raise CanonicalJsonError(f"type {type(value).__name__!r} is not canonical JSON")


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def canonical_json(value: Any) -> str:
    """Serialize to canonical JSON: sorted keys, compact, ASCII, no floats."""
    return _ENCODER.encode(_canonical_value(value))


def _reject_float(text: str) -> Any:
    raise CanonicalJsonError(f"float literal {text!r} is not canonical JSON")


# What json raises on bad text: JSONDecodeError (a ValueError), the ValueError of an
# integer literal past int()'s digit limit, and RecursionError from deep nesting.
JSON_FAULTS = (ValueError, RecursionError)

# Built once: json.loads(text, parse_float=...) would build a decoder per call.
_DECODER = json.JSONDecoder(parse_float=_reject_float, parse_constant=_reject_float)


def loads_canonical(text: str) -> Any:
    """Parse JSON produced by canonical_json; float literals (NaN too) are rejected."""
    if not isinstance(text, str):
        raise CanonicalJsonError(f"canonical JSON is text, not {type(text).__name__}")
    try:
        return _DECODER.decode(text)
    except JSON_FAULTS as exc:
        raise CanonicalJsonError(f"malformed JSON: {exc}") from exc

