"""Identity verification and the one-person-one-vote vote filter.

An IdentityRegistry binds wallets to verified identities under one of two
modes.  StrictOneWallet admits at most one wallet per identity, so a
split-wallet attack keeps exactly one voting wallet.  CollapsePerIdentity
admits many wallets but the filter merges an identity's same-option votes
into a single record before tallying, so a concave power function (the
square root) applies once to the combined stake, which is precisely what
neutralizes quadratic-voting Sybil amplification.

An identity whose wallets vote for different options is equivocating: all
of its votes are excluded and reported.

An IdentityFilter pairs a registry with a vote policy.  It is the whole
identity layer of a GovernanceEngine: the engine applies it at finalize and
records it in the genesis event, from which replay rebuilds it.
"""

from __future__ import annotations

from decimal import Decimal
from enum import Enum
from typing import Iterator, Mapping

from .core import (
    IdentityId,
    TokenAmount,
    VoteRecord,
    WalletId,
    _Record,
)
from .rng import Xoshiro256StarStar


class RegistryMode(str, Enum):
    STRICT_ONE_WALLET = "strict_one_wallet"
    COLLAPSE_PER_IDENTITY = "collapse_per_identity"


class VotePolicy(str, Enum):
    DROP_UNVERIFIED = "drop_unverified"
    ADMIT_UNVERIFIED = "admit_unverified"


class RejectionReason(str, Enum):
    DUPLICATE_IDENTITY = "DuplicateIdentity"
    WALLET_ALREADY_BOUND = "WalletAlreadyBound"
    PROVIDER_REJECTED = "ProviderRejected"


class VerificationOutcome(_Record):
    __slots__ = ("accepted", "reason")


_ACCEPTED = VerificationOutcome(True, None)  # immutable, so every accepted bind shares it


class IdentityRegistry:
    """Mutable wallet-to-identity binding table; single writer."""

    def __init__(self, mode: "str | RegistryMode"):
        self.mode = RegistryMode(mode)
        self._wallets_by_identity: dict[IdentityId, list[WalletId]] = {}
        self._identity_by_wallet: dict[WalletId, IdentityId] = {}

    def bind(self, identity: IdentityId, wallet: WalletId) -> VerificationOutcome:
        """Attempt to bind a wallet to an identity under the registry's mode.

        Rebinding an existing (identity, wallet) pair is an accepted no-op.
        A wallet bound to a different identity is rejected WalletAlreadyBound;
        a second wallet under StrictOneWallet is rejected DuplicateIdentity.
        """
        if type(identity) is not IdentityId:
            identity = IdentityId(identity)
        if type(wallet) is not WalletId:
            wallet = WalletId(wallet)
        bound_to = self._identity_by_wallet.get(wallet)
        if bound_to is not None:
            if bound_to == identity:
                return _ACCEPTED
            return VerificationOutcome(False, RejectionReason.WALLET_ALREADY_BOUND)
        existing = self._wallets_by_identity.get(identity)
        if existing is None:
            self._wallets_by_identity[identity] = [wallet]
        elif self.mode is RegistryMode.STRICT_ONE_WALLET:
            return VerificationOutcome(False, RejectionReason.DUPLICATE_IDENTITY)
        else:
            existing.append(wallet)
        self._identity_by_wallet[wallet] = identity
        return _ACCEPTED

    def identity_of(self, wallet: WalletId) -> IdentityId | None:
        return self._identity_by_wallet.get(wallet)

    def bindings(self) -> Iterator[tuple[IdentityId, list[WalletId]]]:
        """Each bound identity and its wallets, both sorted: the order genesis records them in."""
        wallets = self._wallets_by_identity
        for identity in sorted(wallets):
            yield identity, sorted(wallets[identity])


class FilterReport(_Record):
    """Votes that survived the identity filter, keyed by wallet, plus what was excluded and why."""

    __slots__ = ("votes", "dropped_unverified", "equivocating_identities")


def _merge_group(wallets: list[WalletId], votes: Mapping[WalletId, VoteRecord]) -> tuple[WalletId, VoteRecord]:
    """One group's (wallet, vote) pair: its one vote, or the votes merged under the least wallet."""
    # A strict registry binds one wallet per identity, so only collapse mode has larger groups.
    if len(wallets) == 1:
        return wallets[0], votes[wallets[0]]
    group = [votes[wallet] for wallet in wallets]
    return min(wallets), VoteRecord(
        option=group[0].option,
        committed=TokenAmount(sum(v.committed.units for v in group)),
        # Latest cast wins: merged conviction cannot accrue from before any member's vote.
        cast_at=max(v.cast_at for v in group),
    )


def filter_and_collapse(
    votes: Mapping[WalletId, VoteRecord],
    registry: IdentityRegistry,
    policy: "str | VotePolicy",
) -> FilterReport:
    """Apply identity policy to one proposal's live votes, keyed by wallet.

    Wallets the registry has not bound are unverified, and are dropped or
    admitted per policy.  Each identity's votes are grouped: mixed
    options mean equivocation and the identity loses all its votes; in
    collapse mode same-option votes merge into one record with the exact
    token sum, kept under the group's least wallet.  The kept votes are a
    dict in the order of each group's first vote.  The operation is idempotent.
    """
    policy = VotePolicy(policy)
    # Each identity's wallets, in first-occurrence order.  An admitted unverified wallet is a
    # group of its own under (wallet,): a tuple, so it cannot equal an identity's name.
    groups: dict[IdentityId | tuple[WalletId], list[WalletId]] = {}
    dropped: list[WalletId] = []

    for wallet in votes:
        identity = registry.identity_of(wallet)
        if identity is not None:
            groups.setdefault(identity, []).append(wallet)
        elif policy is VotePolicy.ADMIT_UNVERIFIED:
            groups[(wallet,)] = [wallet]
        else:
            dropped.append(wallet)

    equivocating: list[IdentityId] = []
    kept: dict[WalletId, VoteRecord] = {}
    for key, wallets in groups.items():
        if len({votes[wallet].option for wallet in wallets}) > 1:
            equivocating.append(key)
        else:
            wallet, vote = _merge_group(wallets, votes)
            kept[wallet] = vote

    return FilterReport(
        votes=kept,
        dropped_unverified=tuple(dropped),
        equivocating_identities=tuple(equivocating),
    )


class IdentityFilter:
    """A registry and a vote policy: the identity layer one engine applies and records."""

    def __init__(self, registry: IdentityRegistry, policy: "str | VotePolicy"):
        self.registry = registry
        self.policy = VotePolicy(policy)


class SimulatedProvider:
    """Deterministic stand-in for an external identity-verification service.

    Genuine claims are always accepted and consume no randomness.  A
    fraudulent claim consumes one draw and is falsely accepted when the
    draw lands below false_accept_rate, which the scenario checks is in [0, 1].
    """

    def __init__(self, false_accept_rate: Decimal, seed: int):
        self._rng = Xoshiro256StarStar.from_seed(seed)
        self._rate = float(false_accept_rate)

    def review(self, fraudulent: bool) -> bool:
        if not fraudulent:
            return True
        return self._rng.next_float() < self._rate
