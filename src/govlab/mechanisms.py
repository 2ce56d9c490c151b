"""Voting mechanisms: token-weighted, quorum-gated, quadratic, conviction.

Power functions:
  token / quorum  power = tokens committed (identity map)
  quadratic       power = sqrt(tokens), half-even at 9 fractional digits
  conviction      power = tokens * (1 - e^(-decay_rate * (now - cast_at))),
                  half-even at 9 fractional digits

vote_power is the one place that picks a power function by mechanism; the
tally, the report's Sybil baseline and the Sybil tools all go through it.
config_error owns the rule that quorum needs a quorum config and conviction
its params; Proposal, tally, parse_scenario and compare_mechanisms report it.
decide owns the outcome rule; tally and probes.arrow_probes, which enumerates profiles
over the run's one probe count, pick outcomes through it.

The square root is computed on integers (exact decision against the true
midpoint, so the half-even rule is honored without floating point); the
exponential is evaluated in 50-digit decimal context before the single
rounding.  A quorum gate may be attached to any mechanism: participation is
measured against total token supply or against the wallet universe, and a
tally meeting the threshold exactly passes.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from enum import Enum
from functools import lru_cache
from math import isqrt
from typing import Mapping, Sequence

from .core import (
    GovlabError,
    NANO,
    TallyOutcome,
    TallyResult,
    TokenAmount,
    VoteRecord,
    VotingPower,
    WalletId,
    _Record,
    _set,
    fmt_units,
    parse_units,
    round_half_even_units,
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
        return int(self.threshold.scaleb(9))

    def to_json_obj(self) -> dict:
        return {"basis": self.basis.value, "threshold": str(self.threshold)}


class ConvictionParams(_Record):
    """decay_rate is the alpha in 1 - e^(-alpha * dt); must be positive."""

    __slots__ = ("decay_rate",)

    def __init__(self, decay_rate: Decimal):
        units = parse_units(decay_rate)
        if units == 0:
            raise MechanismError("decay_rate must be positive")
        _set(self, "decay_rate", Decimal(fmt_units(units)))

    def to_json_obj(self) -> dict:
        return {"decay_rate": str(self.decay_rate)}


def config_error(mechanism: Mechanism, quorum: QuorumConfig | None, conviction: ConvictionParams | None) -> str | None:
    """The error when the mechanism lacks its config: quorum needs a quorum config, conviction its params."""
    if mechanism is Mechanism.QUORUM and quorum is None:
        return "mechanism 'quorum' requires a quorum config"
    if mechanism is Mechanism.CONVICTION and conviction is None:
        return "mechanism 'conviction' requires conviction params"
    return None


def power_token(committed: TokenAmount) -> VotingPower:
    """One token, one vote: power equals the committed amount exactly."""
    if not committed.units:
        raise MechanismError("token voting requires a positive commitment")
    return VotingPower(committed.units)


def quadratic_units(units: int) -> int:
    """Quadratic power in 10^-9 units of a commitment of `units` 10^-9 tokens.

    The result is the half-even rounding of sqrt(units * 10^9).  With
    s = isqrt(n), the root exceeds the midpoint s + 1/2 exactly when
    n - s^2 > s, so the decision is exact in integers; a tie would need
    n = s^2 + s + 1/4, which no integer n is.
    """
    n = units * NANO
    s = isqrt(n)
    return s + 1 if n - s * s > s else s


def power_quadratic(committed: TokenAmount) -> VotingPower:
    """power = sqrt(tokens), rounded half-even at nine fractional digits."""
    return VotingPower(quadratic_units(committed.units))


@lru_cache(maxsize=4096)
def _decay_factor(decay_rate: Decimal, dt: int) -> Decimal:
    """1 - e^(-decay_rate * dt) to 50 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        return 1 - (-decay_rate * dt).exp()


def conviction_power(committed: TokenAmount, dt: int, params: ConvictionParams) -> VotingPower:
    """Conviction accrued after holding for dt ticks: tokens * (1 - e^(-decay_rate * dt))."""
    if not isinstance(dt, int) or isinstance(dt, bool):
        raise MechanismError("dt must be an integer tick count")
    if dt < 0:
        raise MechanismError(f"dt={dt}: a vote cannot accrue before it is cast")
    if dt == 0:
        return VotingPower(0)
    with localcontext() as ctx:
        ctx.prec = 50
        raw = Decimal(str(committed)) * _decay_factor(params.decay_rate, dt)
    return VotingPower(round_half_even_units(raw))


def vote_power(
    mechanism: Mechanism,
    committed: TokenAmount,
    dt: int,
    conviction: ConvictionParams | None,
) -> VotingPower:
    """Power of one vote committing `committed`, held for dt ticks.

    Token and quorum voting use the token map, quadratic the square root,
    and conviction (which alone reads dt) the accrual curve.  `mechanism`
    must already be a Mechanism (see Mechanism.parse), not its string value.
    """
    if mechanism is Mechanism.QUADRATIC:
        return power_quadratic(committed)
    if mechanism is Mechanism.CONVICTION:
        if conviction is None:
            raise MechanismError("conviction mechanism requires ConvictionParams")
        return conviction_power(committed, dt, conviction)
    if mechanism is Mechanism.TOKEN or mechanism is Mechanism.QUORUM:
        return power_token(committed)
    raise MechanismError(f"vote_power needs a Mechanism, not {mechanism!r}")


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
    the voting wallets are len(votes); vote_powers follow its order.  Every
    option in `options` appears in per_option_power, in that order
    (zero-vote options at zero power), and every vote must be for one of
    them; decide picks the outcome.  A conviction vote accrues from its
    cast_at to `now`.
    """
    mechanism = Mechanism.parse(mechanism)
    if not isinstance(wallet_universe_size, int) or wallet_universe_size < 0:
        raise MechanismError("wallet_universe_size must be a non-negative count")
    if error := config_error(mechanism, quorum, conviction):
        raise MechanismError(error)

    per_option_units: dict[str, int] = {o: 0 for o in options}
    if len(per_option_units) != len(options):
        raise MechanismError("options must be distinct")

    committed_units = 0
    powers: list[VotingPower] = []

    for vote in votes.values():
        power = vote_power(mechanism, vote.committed, now - vote.cast_at, conviction)
        powers.append(power)
        if vote.option not in per_option_units:
            raise MechanismError(
                f"vote option {vote.option!r} is not among the tallied options"
            )
        committed_units += vote.committed.units
        per_option_units[vote.option] += power.units

    if committed_units > supply.units:
        raise MechanismError(
            f"committed total {fmt_units(committed_units)} exceeds supply {supply}"
        )

    quorum_met = quorum is None or _quorum_met(quorum, committed_units, len(votes), supply.units, wallet_universe_size)
    return TallyResult(
        per_option_power={o: VotingPower(u) for o, u in per_option_units.items()},
        participating_tokens=TokenAmount(committed_units),
        outcome=decide(per_option_units, quorum_met),
        vote_powers=tuple(powers),
    )


def decide(per_option_units: dict[str, int], quorum_met: bool) -> TallyOutcome:
    """Quorum failed, else the unique option of strictly maximal power, else a tie of the
    leaders: equal maximal powers tie, so with no votes every option ties."""
    if not quorum_met:
        return TallyOutcome.quorum_failed()
    best = max(per_option_units.values(), default=0)
    leaders = [o for o, u in per_option_units.items() if u == best]
    return TallyOutcome.winner(leaders[0]) if len(leaders) == 1 else TallyOutcome.tie(leaders)
