"""Voting mechanisms: token-weighted, quorum-gated, quadratic, conviction.

Power functions:
  token / quorum  power = tokens committed (identity map)
  quadratic       power = sqrt(tokens), half-even at 9 fractional digits
  conviction      power = tokens * (1 - e^(-decay_rate * (now - cast_at))),
                  half-even at 9 fractional digits

power_rule is the one place that picks a power function by mechanism, as a
rule from committed units and ticks held to power units; the tally, the
report's Sybil baseline and the Sybil tools all count through it, in ints.
config_error owns the rule that quorum needs a quorum config and conviction
its params; Proposal, tally, parse_scenario and compare_mechanisms report it.
decide owns the outcome rule; tally and probes.arrow_probes, which enumerates profiles
over the run's one probe count, pick outcomes through it.

The square root is computed on integers (exact decision against the true
midpoint, so the half-even rule is honored without floating point); the
exponential and its product with the committed units are evaluated in
50-digit decimal context before the single rounding.  The exponential is a
power of one e^(-decay_rate) per rate wherever an error bound certifies its
50 digits, and exp() itself elsewhere; every context is explicit, so no
caller's decimal context changes a power.  A quorum gate may be
attached to any mechanism: participation is measured against total token
supply or against the wallet universe, and a tally meeting the threshold
exactly passes.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Decimal
from enum import Enum
from functools import lru_cache
from math import isqrt
from typing import Callable, Mapping, Sequence

from .core import (
    GovlabError,
    NANO,
    TallyOutcome,
    TallyResult,
    TokenAmount,
    VoteRecord,
    VotingPower,
    WalletId,
    _EXACT,
    _Record,
    _context,
    _set,
    fmt_units,
    parse_units,
)


class MechanismError(GovlabError):
    """Violated precondition in a mechanism computation."""


class Mechanism(str, Enum):
    TOKEN = "token"
    QUORUM = "quorum"
    QUADRATIC = "quadratic"
    CONVICTION = "conviction"

    @classmethod
    def parse(cls, value: "str | Mechanism") -> "Mechanism":
        try:
            return cls(value)
        except ValueError:
            raise MechanismError(
                f"unknown mechanism {value!r}; expected one of "
                f"{', '.join(m.value for m in cls)}"
            ) from None


class QuorumBasis(str, Enum):
    TOKEN_SUPPLY_FRACTION = "token_supply_fraction"
    WALLET_COUNT_FRACTION = "wallet_count_fraction"


class QuorumConfig(_Record):
    """Minimum-participation gate: basis plus a threshold fraction in [0, 1]."""

    __slots__ = ("basis", "threshold")

    def __init__(self, basis: QuorumBasis, threshold: Decimal):
        _set(self, "basis", QuorumBasis(basis))
        units = parse_units(threshold)
        if units > NANO:
            raise MechanismError(f"quorum threshold must be in [0, 1]: {threshold}")
        _set(self, "threshold", Decimal(fmt_units(units)))

    @property
    def threshold_units(self) -> int:
        return int(self.threshold.scaleb(9, _EXACT))  # exact, whatever the caller's context


class ConvictionParams(_Record):
    """decay_rate is the alpha in 1 - e^(-alpha * dt); must be positive."""

    __slots__ = ("decay_rate",)

    def __init__(self, decay_rate: Decimal):
        units = parse_units(decay_rate)
        if units == 0:
            raise MechanismError("decay_rate must be positive")
        _set(self, "decay_rate", Decimal(fmt_units(units)))


def config_error(mechanism: Mechanism, quorum: QuorumConfig | None, conviction: ConvictionParams | None) -> str | None:
    """The error when the mechanism lacks its config: quorum needs a quorum config, conviction its params."""
    if mechanism is Mechanism.QUORUM and quorum is None:
        return "mechanism 'quorum' requires a quorum config"
    if mechanism is Mechanism.CONVICTION and conviction is None:
        return "mechanism 'conviction' requires conviction params"
    return None


def _token_units(units: int, dt: int) -> int:
    """Token and quorum power: the committed units themselves, however long they are held."""
    return units


def quadratic_units(units: int, dt: int) -> int:
    """Quadratic power in 10^-9 units of a commitment of `units` 10^-9 tokens, held for any dt.

    The result is the half-even rounding of sqrt(units * 10^9).  With
    s = isqrt(n), the root exceeds the midpoint s + 1/2 exactly when
    n - s^2 > s, so the decision is exact in integers; a tie would need
    n = s^2 + s + 1/4, which no integer n is.
    """
    n = units * NANO
    s = isqrt(n)
    return s + 1 if n - s * s > s else s


_FACTOR = _context(50)  # the factor's 50 digits, and the conviction rule's product
# The power route: e^(-rate) to 70 digits, raised to dt at 70 digits, for dt <= 10^9.  A rate
# from ConvictionParams is positive with at most 19 digits, so -rate * dt is exact in 50.
# The wide exponent range keeps the power and its error bound clear of underflow.
_DT_MAX = 10**9
_BASE = _context(70, MIN_EMIN, MAX_EMAX)


def _exp_factor(decay_rate: Decimal, dt: int) -> Decimal:
    """The exp route: 1 - e^(-decay_rate * dt), each step rounded to 50 digits half-even."""
    return _FACTOR.subtract(1, _FACTOR.exp(_FACTOR.multiply(_FACTOR.minus(decay_rate), dt)))


@lru_cache(maxsize=256)
def _decay_base(decay_rate: Decimal) -> Decimal:
    """e^(-decay_rate) to 70 digits."""
    return _BASE.exp(_BASE.minus(decay_rate))


@lru_cache(maxsize=4096)
def _decay_factor(decay_rate: Decimal, dt: int) -> Decimal:
    """1 - e^(-decay_rate * dt) to 50 significant digits: the exp route's value, always.

    decay_rate is a ConvictionParams rate and dt a positive tick count.  The
    power route raises the rate's base b = e^(-decay_rate), good to one ulp
    at W = 70 digits, to dt at W digits.  The base's dt factors, the power's
    rounding at W and its working products at W + digits(dt) + 2 digits keep
    the power P within (dt + 2) * 10^(1-W) of e^(-decay_rate * dt), relative.
    When P less and P plus that bound round to the same 50 digits, so does
    the exact power, which is then the value exp() rounds correctly; 1 minus
    it is the exp route's factor.  Any other case (a P near a 50-digit
    midpoint or below 10^Emin, or a dt above 10^9) takes the exp route.
    """
    if dt <= _DT_MAX:
        power = _BASE.power(_decay_base(decay_rate), dt)
        if power.adjusted() > _FACTOR.Emin:
            bound = _BASE.scaleb(_BASE.multiply(power, dt + 2), 1 - _BASE.prec)
            low = _FACTOR.subtract(power, bound)
            if low == _FACTOR.add(power, bound):
                return _FACTOR.subtract(1, low)
    return _exp_factor(decay_rate, dt)


def _conviction_rule(decay_rate: Decimal) -> Callable[[int, int], int]:
    multiply = _FACTOR.multiply  # one context for all the rule's votes

    def conviction_units(units: int, dt: int) -> int:
        """units * (1 - e^(-decay_rate * dt)) to 50 digits, then half-even to an integer.

        The 10^-9 token amount of `units` has the same 50 significant digits times
        the factor, so this equals rounding the token product at nine fractional digits.
        """
        if dt > 0:
            return int(multiply(units, _decay_factor(decay_rate, dt)).to_integral_value(ROUND_HALF_EVEN))
        if dt == 0:
            return 0
        raise MechanismError(f"dt={dt}: a vote cannot accrue before it is cast")

    return conviction_units


def power_rule(mechanism: Mechanism, conviction: ConvictionParams | None) -> Callable[[int, int], int]:
    """The mechanism's power rule: (committed units, ticks held) -> power units.

    Token and quorum voting map units to themselves, quadratic takes the
    square root, and conviction (which alone reads dt) the accrual curve.
    Picked once, it is the one power function of the tally, the report's
    Sybil baseline and the Sybil tools.  `mechanism` must already be a
    Mechanism (see Mechanism.parse), not its string value.
    """
    if mechanism is Mechanism.QUADRATIC:
        return quadratic_units
    if mechanism is Mechanism.CONVICTION:
        if conviction is None:
            raise MechanismError("conviction mechanism requires ConvictionParams")
        return _conviction_rule(conviction.decay_rate)
    if mechanism is Mechanism.TOKEN or mechanism is Mechanism.QUORUM:
        return _token_units
    raise MechanismError(f"power_rule needs a Mechanism, not {mechanism!r}")


def _check_dt(dt: int) -> int:
    """dt, once it is checked to be an int tick count; only conviction reads it."""
    if not isinstance(dt, int) or isinstance(dt, bool):
        raise MechanismError("dt must be an integer tick count")
    return dt


def power_token(committed: TokenAmount) -> VotingPower:
    """One token, one vote: power equals the committed amount exactly."""
    if not committed.units:
        raise MechanismError("token voting requires a positive commitment")
    return VotingPower(committed.units)


def power_quadratic(committed: TokenAmount) -> VotingPower:
    """power = sqrt(tokens), rounded half-even at nine fractional digits."""
    return VotingPower(quadratic_units(committed.units, 0))


def conviction_power(committed: TokenAmount, dt: int, params: ConvictionParams) -> VotingPower:
    """Conviction accrued after holding for dt ticks: tokens * (1 - e^(-decay_rate * dt))."""
    return VotingPower(_conviction_rule(params.decay_rate)(committed.units, _check_dt(dt)))


def _quorum_met(
    quorum: QuorumConfig,
    participating_units: int,
    voting_wallets: int,
    supply_units: int,
    wallet_universe_size: int,
) -> bool:
    t = quorum.threshold_units
    if quorum.basis is QuorumBasis.TOKEN_SUPPLY_FRACTION:
        # participating/supply >= t/NANO, cross-multiplied so the test is exact.
        return participating_units * NANO >= t * supply_units
    return voting_wallets * NANO >= t * wallet_universe_size


def tally(
    votes: Mapping[WalletId, VoteRecord],
    mechanism: "str | Mechanism",
    *,
    supply: TokenAmount,
    wallet_universe_size: int,
    options: Sequence[str],
    now: int,
    quorum: QuorumConfig | None = None,
    conviction: ConvictionParams | None = None,
) -> TallyResult:
    """Aggregate one proposal's live votes at tick `now`, gate on quorum, pick the outcome.

    votes maps each voting wallet to its vote, so a wallet counts once and
    the voting wallets are len(votes); vote_power_units, each vote's power in
    10^-9 units, follow its order.  The mechanism's power_rule is picked once
    and counts every vote in ints.  Every option in `options` appears in
    per_option_power, in that order (zero-vote options at zero power), and
    every vote must be for one of them; decide picks the outcome.  A
    conviction vote accrues from its cast_at to `now`.
    """
    mechanism = Mechanism.parse(mechanism)
    if not isinstance(wallet_universe_size, int) or wallet_universe_size < 0:
        raise MechanismError("wallet_universe_size must be a non-negative count")
    if error := config_error(mechanism, quorum, conviction):
        raise MechanismError(error)

    per_option_units: dict[str, int] = {o: 0 for o in options}
    if len(per_option_units) != len(options):
        raise MechanismError("options must be distinct")

    if mechanism is Mechanism.CONVICTION:
        _check_dt(now)
    rule = power_rule(mechanism, conviction)
    committed_units = 0
    powers: list[int] = []

    for vote in votes.values():
        units = vote.committed.units
        power = rule(units, now - vote.cast_at)
        powers.append(power)
        committed_units += units
        option = vote.option
        try:
            per_option_units[option] += power
        except KeyError:
            raise MechanismError(f"vote option {option!r} is not among the tallied options") from None

    if committed_units > supply.units:
        raise MechanismError(
            f"committed total {fmt_units(committed_units)} exceeds supply {supply}"
        )

    quorum_met = quorum is None or _quorum_met(quorum, committed_units, len(votes), supply.units, wallet_universe_size)
    return TallyResult(
        per_option_power={o: VotingPower(u) for o, u in per_option_units.items()},
        participating_tokens=TokenAmount(committed_units),
        outcome=decide(per_option_units, quorum_met),
        vote_power_units=tuple(powers),
    )


def decide(per_option_units: dict[str, int], quorum_met: bool) -> TallyOutcome:
    """Quorum failed, else the unique option of strictly maximal power, else a tie of the
    leaders: equal maximal powers tie, so with no votes every option ties."""
    if not quorum_met:
        return TallyOutcome.quorum_failed()
    best = max(per_option_units.values(), default=0)
    leaders = [o for o, u in per_option_units.items() if u == best]
    return TallyOutcome.winner(leaders[0]) if len(leaders) == 1 else TallyOutcome.tie(leaders)
