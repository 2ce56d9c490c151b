"""Sybil wallet-splitting attacks and their amplification arithmetic.

A splitter divides one balance across n wallets and votes with all of them.
Token voting is split-invariant; quadratic voting hands a uniform splitter
roughly sqrt(n) times the honest influence, which is the attack these tools
quantify.  Amplification is the exact ratio attack_power / honest_power
rounded half-even at nine fractional digits, and is undefined (None) when
the honest power is zero.
"""

from __future__ import annotations

from .core import GovlabError, TokenAmount, VotingPower, _Record, ratio_half_even
from .mechanisms import ConvictionParams, Mechanism, _check_dt, power_rule


class SplitError(GovlabError):
    """Infeasible wallet split."""


class SybilReport(_Record):
    __slots__ = ("honest_power", "attack_power", "amplification")  # amplification is None when honest power is zero


def _uniform_shares(total: TokenAmount, n: int) -> tuple[int, int]:
    """(q, r) in units for a feasible n-way split: q per wallet, and r more to the first."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SplitError(f"wallet count must be a positive int: {n!r}")
    if not total.units:
        raise SplitError("cannot split a zero balance")
    if total.units < n:
        raise SplitError(
            f"cannot split {total} into {n} wallets of at least one 1e-9 unit each"
        )
    return divmod(total.units, n)


def split_uniform(total: TokenAmount, n: int) -> list[TokenAmount]:
    """Split into n balances of floor(total/n) each, remainder to the first wallet; the
    list's two distinct amounts are two immutable TokenAmounts, shared by the wallets."""
    q, r = _uniform_shares(total, n)
    return [TokenAmount(q + r)] + [TokenAmount(q)] * (n - 1)


def sybil_gain(
    total: TokenAmount,
    n: int,
    mechanism: "str | Mechanism",
    *,
    conviction: ConvictionParams | None = None,
    held_for: int = 0,
) -> SybilReport:
    """Honest power of one wallet vs. attack power of a uniform n-way split.

    All split wallets share the honest wallet's cast_at, so under
    conviction every balance accrues for the same held_for ticks.
    """
    mechanism = Mechanism.parse(mechanism)
    if mechanism is Mechanism.CONVICTION and _check_dt(held_for) < 0:
        raise SplitError("held_for must be a non-negative tick span")
    q, r = _uniform_shares(total, n)
    rule = power_rule(mechanism, conviction)
    honest = rule(total.units, held_for)
    # A uniform split has only two distinct balances (q+r once, q repeated),
    # so the exact per-wallet power sum needs just two evaluations.
    attack = rule(q + r, held_for) + rule(q, held_for) * (n - 1)
    amplification = ratio_half_even(attack, honest) if honest else None
    return SybilReport(honest_power=VotingPower(honest), attack_power=VotingPower(attack), amplification=amplification)


def best_split(
    total: TokenAmount,
    mechanism: "str | Mechanism",
    max_wallets: int,
    *,
    conviction: ConvictionParams | None = None,
    held_for: int = 0,
) -> tuple[int, SybilReport]:
    """Exhaustively scan n in [1, max_wallets] for the attack-power maximum.

    Ties break toward fewer wallets.  Splits finer than one 10^-9 unit per
    wallet are infeasible, so the scan stops at total's unit count.
    """
    if not isinstance(max_wallets, int) or isinstance(max_wallets, bool) or max_wallets < 1:
        raise SplitError(f"max_wallets must be a positive int: {max_wallets!r}")
    mechanism = Mechanism.parse(mechanism)
    total_units = total.units
    feasible_max = min(max_wallets, total_units)
    if feasible_max < 1:
        raise SplitError("cannot split a zero balance")
    if mechanism is Mechanism.CONVICTION:
        _check_dt(held_for)
    rule = power_rule(mechanism, conviction)
    # A uniform split repeats the balance q, whose power changes only when q does.
    best_n, best_units, last_q, rest_units = 0, -1, -1, 0
    for n in range(1, feasible_max + 1):
        q, r = divmod(total_units, n)
        if q != last_q:
            last_q, rest_units = q, rule(q, held_for)
        attack_units = rule(q + r, held_for) + (n - 1) * rest_units
        if attack_units > best_units:
            best_units, best_n = attack_units, n
    return best_n, sybil_gain(total, best_n, mechanism, conviction=conviction, held_for=held_for)
