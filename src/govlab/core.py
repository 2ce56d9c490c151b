"""Core value types shared by every governance mechanism.

Token amounts and voting powers are fixed-precision decimals with exactly
nine fractional digits, stored internally as integer counts of 10^-9 units.
Sums and differences are exact; rounding (half-even) happens only where an
irrational function (square root, exponential) enters, never in plain
arithmetic.  Serialization is canonical JSON: sorted keys, compact
separators, ASCII only, decimal quantities rendered as strings with exactly
nine fractional digits.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Iterable

NANO_DIGITS = 9
NANO = 10**NANO_DIGITS
# Unit counts must fit a signed 64-bit integer so every arithmetic result is
# reproducible bit-for-bit across language runtimes.
MAX_UNITS = 2**63 - 1

_ID_RE = re.compile(r"[A-Za-z0-9_-]{1,64}")
_DECIMAL_RE = re.compile(r"^(\d+)(?:\.(\d{1,9}))?$")


class GovlabError(Exception):
    """Base class for every error raised by this package."""


class FixedPointError(GovlabError):
    """Malformed, negative, or out-of-range fixed-point value."""


class FixedPointOverflow(FixedPointError):
    """Arithmetic left the representable fixed-point range."""


class CanonicalJsonError(GovlabError):
    """Value cannot be rendered as (or is not) canonical JSON."""


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
    if isinstance(value, bool) or isinstance(value, float):
        raise FixedPointError(f"refusing non-decimal type {type(value).__name__!r}")
    if isinstance(value, int):
        units = value * NANO
    elif isinstance(value, Decimal):
        units = _units_from_decimal(value)
    elif isinstance(value, str):
        match = _DECIMAL_RE.match(value)
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


def _units_from_decimal(d: Decimal) -> int:
    try:
        scaled = d.scaleb(NANO_DIGITS)
    except InvalidOperation as exc:  # NaN / infinity
        raise FixedPointError(f"malformed decimal: {d}") from exc
    if scaled != scaled.to_integral_value():
        raise FixedPointError(f"more than {NANO_DIGITS} fractional digits: {d}")
    return int(scaled)


def round_half_even_units(d: Decimal) -> int:
    """Round a high-precision Decimal to integer 10^-9 units, ties to even."""
    q = d.quantize(Decimal(1).scaleb(-NANO_DIGITS), rounding="ROUND_HALF_EVEN")
    return int(q.scaleb(NANO_DIGITS))


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


class _Fixed:
    """Immutable non-negative fixed-point number in 10^-9 units."""

    __slots__ = ("_units",)

    def __init__(self, units: int):
        if not isinstance(units, int) or isinstance(units, bool):
            raise FixedPointError("unit count must be an int")
        if units < 0:
            raise FixedPointError(f"negative quantity: {units} units")
        if units > MAX_UNITS:
            raise FixedPointOverflow(f"quantity exceeds fixed-point range: {units} units")
        object.__setattr__(self, "_units", units)

    def __setattr__(self, name: str, value: Any):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def from_units(cls, units: int):
        return cls(units)

    @classmethod
    def parse(cls, value: str | int | Decimal):
        return cls(parse_units(value))

    @classmethod
    def zero(cls):
        return cls(0)

    @property
    def units(self) -> int:
        return self._units

    def is_zero(self) -> bool:
        return self._units == 0

    def as_decimal(self) -> Decimal:
        return Decimal(str(self))

    def _check_same(self, other: Any) -> int:
        if type(other) is not type(self):
            raise TypeError(
                f"cannot mix {type(self).__name__} with {type(other).__name__}"
            )
        return other._units

    def __add__(self, other):
        total = self._units + self._check_same(other)
        if total > MAX_UNITS:
            raise FixedPointOverflow("sum exceeds fixed-point range")
        return type(self)(total)

    def __sub__(self, other):
        delta = self._units - self._check_same(other)
        if delta < 0:
            raise FixedPointError("subtraction below zero")
        return type(self)(delta)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other._units == self._units

    def __lt__(self, other) -> bool:
        return self._units < self._check_same(other)

    def __le__(self, other) -> bool:
        return self._units <= self._check_same(other)

    def __gt__(self, other) -> bool:
        return self._units > self._check_same(other)

    def __ge__(self, other) -> bool:
        return self._units >= self._check_same(other)

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._units))

    def __str__(self) -> str:
        return fmt_units(self._units)

    def __repr__(self) -> str:
        return f"{type(self).__name__}('{self}')"


class TokenAmount(_Fixed):
    """A quantity of governance tokens."""


class VotingPower(_Fixed):
    """Tallied influence; same fixed-point representation as tokens."""


def power_sum(powers: Iterable[VotingPower]) -> VotingPower:
    """Exact sum of voting powers; overflow of the fixed-point range is an error."""
    total = 0
    for p in powers:
        if not isinstance(p, VotingPower):
            raise TypeError(f"power_sum expects VotingPower, got {type(p).__name__}")
        total += p.units
        if total > MAX_UNITS:
            raise FixedPointOverflow("power sum exceeds fixed-point range")
    return VotingPower(total)


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


@dataclass(frozen=True, slots=True)
class VoteRecord:
    """One wallet's live vote on one proposal.

    cast_at is the tick since which the wallet has held this option: a
    same-option recast keeps it and a switch resets it.  Only conviction
    power reads it, as the start of accrual.
    """

    wallet: WalletId
    proposal: ProposalId
    option: str
    committed: TokenAmount
    cast_at: int

    def __post_init__(self):
        object.__setattr__(self, "wallet", WalletId(self.wallet))
        object.__setattr__(self, "proposal", ProposalId(self.proposal))
        _check_option(self.option)
        if not isinstance(self.committed, TokenAmount):
            raise GovlabError("committed must be a TokenAmount")
        if self.committed.is_zero():
            raise GovlabError("committed tokens must be positive")
        if not isinstance(self.cast_at, int) or isinstance(self.cast_at, bool) or self.cast_at < 0:
            raise GovlabError("cast_at must be a non-negative tick")


class OutcomeKind:
    WINNER = "winner"
    TIE = "tie"
    QUORUM_FAILED = "quorum_failed"


@dataclass(frozen=True, slots=True)
class TallyOutcome:
    """Winner(option), Tie(options), or QuorumFailed."""

    kind: str
    option: str | None = None
    options: tuple[str, ...] = ()

    @classmethod
    def winner(cls, option: str) -> "TallyOutcome":
        return cls(kind=OutcomeKind.WINNER, option=_check_option(option))

    @classmethod
    def tie(cls, options: Iterable[str]) -> "TallyOutcome":
        # Sorted so the outcome is independent of vote-list order.
        return cls(kind=OutcomeKind.TIE, options=tuple(sorted(options)))

    @classmethod
    def quorum_failed(cls) -> "TallyOutcome":
        return cls(kind=OutcomeKind.QUORUM_FAILED)

    def is_winner(self) -> bool:
        return self.kind == OutcomeKind.WINNER

    def to_json_obj(self) -> dict[str, Any]:
        if self.kind == OutcomeKind.WINNER:
            return {"type": self.kind, "option": self.option}
        if self.kind == OutcomeKind.TIE:
            return {"type": self.kind, "options": list(self.options)}
        return {"type": self.kind}


@dataclass(frozen=True, slots=True)
class TallyResult:
    """Per-option powers, tokens that participated, the outcome, and each vote's power.

    vote_powers is in the order of the tallied votes; it is not part of the
    JSON form, which the ledger's finalize event records.
    """

    per_option_power: dict[str, VotingPower]
    participating_tokens: TokenAmount
    outcome: TallyOutcome
    vote_powers: tuple[VotingPower, ...]

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
        return [_canonical_value(v) for v in value]
    if isinstance(value, float):
        raise CanonicalJsonError(
            "float is not canonical; use str, int, Decimal, or a fixed-point type"
        )
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, _Fixed):
        return str(value)
    if isinstance(value, Decimal):
        return fmt_units(parse_units(value))
    raise CanonicalJsonError(f"type {type(value).__name__!r} is not canonical JSON")


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def canonical_json(value: Any) -> str:
    """Serialize to canonical JSON: sorted keys, compact, ASCII, no floats."""
    return _ENCODER.encode(_canonical_value(value))


class _CanonicalText(str):
    """Canonical JSON text written from a template here; Ledger.append takes it unchecked."""

    __slots__ = ()


def _cast_json(
    proposal: ProposalId, wallet: WalletId, option: str, committed: TokenAmount, tick: int
) -> _CanonicalText:
    """canonical_json of a cast event, written from a fixed template.

    Keys are in sorted order and every string is escaped as canonical_json
    escapes it, so the text equals canonical_json of the event's dict.
    """
    return _CanonicalText(
        f'{{"committed":{_quote(str(committed))},"event":"cast","option":{_quote(option)},'
        f'"proposal":{_quote(proposal)},"tick":{tick},"wallet":{_quote(wallet)}}}'
    )


def _reject_float(text: str) -> Any:
    raise CanonicalJsonError(f"float literal {text!r} is not canonical JSON")


# Built once: json.loads(text, parse_float=...) would build a decoder per call.
_DECODER = json.JSONDecoder(parse_float=_reject_float, parse_constant=_reject_float)


def loads_canonical(text: str) -> Any:
    """Parse JSON produced by canonical_json; float literals (NaN too) are rejected."""
    if not isinstance(text, str):
        raise CanonicalJsonError(f"canonical JSON is text, not {type(text).__name__}")
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise CanonicalJsonError(f"malformed JSON: {exc}") from exc


def is_canonical_json(text: str) -> bool:
    """True iff text is byte-identical to its canonical re-serialization."""
    try:
        return canonical_json(loads_canonical(text)) == text
    except GovlabError:
        return False
