"""Proposal lifecycle: Draft -> Discussion -> Voting -> terminal.

The engine owns wallet balances, per-proposal vote books, and token locks;
committed tokens stay locked for the proposal's voting window, so a wallet
cannot commit the same tokens to two concurrent proposals.  Every state
change appends exactly one event to the hash-chained ledger, and replaying
that event log through a fresh engine reproduces identical terminal states.

Outcome mapping at finalize: the proposal's first option is the designated
"approve" option; the proposal passes only when that option is the unique
winner.  Ties (including the no-votes case) reject; the status quo wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Sequence

from .core import (
    GovlabError,
    OutcomeKind,
    ProposalId,
    TallyResult,
    TokenAmount,
    VoteRecord,
    WalletId,
    _check_option,
)
from .ledger import Ledger
from .mechanisms import ConvictionParams, Mechanism, QuorumConfig, tally


class GovernanceError(GovlabError):
    """Base for lifecycle violations."""


class PhaseError(GovernanceError):
    """Operation applied in the wrong phase or along an undeclared edge."""


class WindowError(GovernanceError):
    """Malformed discussion/voting windows."""


class OutOfWindow(GovernanceError):
    """Cast or finalize attempted outside the allowed tick range."""


class ZeroCommitment(GovernanceError):
    """Vote committing zero tokens."""


class InsufficientUnlockedTokens(GovernanceError):
    """Commitment exceeds the wallet's unlocked balance."""


class Phase(str, Enum):
    DRAFT = "draft"
    DISCUSSION = "discussion"
    VOTING = "voting"
    PASSED = "passed"
    REJECTED = "rejected"
    QUORUM_FAILED = "quorum_failed"
    EXECUTED = "executed"


TERMINAL_PHASES = frozenset({Phase.PASSED, Phase.REJECTED, Phase.QUORUM_FAILED, Phase.EXECUTED})


@dataclass(frozen=True, slots=True)
class Window:
    """Half-open tick range [start, end)."""

    start: int
    end: int

    def __post_init__(self):
        for v in (self.start, self.end):
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise WindowError(f"window bounds must be non-negative ticks: {self}")
        if self.start >= self.end:
            raise WindowError(f"window must be nonempty: [{self.start}, {self.end})")

    def contains(self, tick: int) -> bool:
        return self.start <= tick < self.end


@dataclass(slots=True)
class Proposal:
    """Governance proposal; phase is managed by the engine after submission."""

    id: ProposalId
    options: tuple[str, ...]
    discussion_window: Window
    voting_window: Window
    mechanism: Mechanism
    quorum: QuorumConfig | None = None
    conviction: ConvictionParams | None = None
    phase: Phase = Phase.DRAFT

    def __post_init__(self):
        self.id = ProposalId(self.id)
        self.options = tuple(self.options)
        if len(self.options) < 2:
            raise GovernanceError(f"proposal {self.id!r} needs at least two options")
        if len(set(self.options)) != len(self.options):
            raise GovernanceError(f"proposal {self.id!r} has duplicate options")
        for o in self.options:
            _check_option(o)
        self.mechanism = Mechanism.parse(self.mechanism)
        if self.discussion_window.end > self.voting_window.start:
            raise WindowError(
                f"proposal {self.id!r}: discussion window must close before voting opens"
            )
        if self.mechanism is Mechanism.QUORUM and self.quorum is None:
            raise GovernanceError(f"proposal {self.id!r}: quorum mechanism needs a QuorumConfig")
        if self.mechanism is Mechanism.CONVICTION and self.conviction is None:
            raise GovernanceError(
                f"proposal {self.id!r}: conviction mechanism needs ConvictionParams"
            )

    @property
    def approve_option(self) -> str:
        return self.options[0]


VoteFilter = Callable[[Sequence[VoteRecord]], Any]


class GovernanceEngine:
    """Drives proposals through their lifecycle and writes the event ledger.

    vote_filter, when given, is applied to the live vote set at finalize
    (identity.filter_and_collapse is the intended plug-in); it must return
    an object with a .votes attribute.
    """

    def __init__(
        self,
        *,
        balances: dict[WalletId, TokenAmount],
        supply: TokenAmount,
        wallet_universe_size: int | None = None,
        ledger: Ledger | None = None,
        vote_filter: VoteFilter | None = None,
        genesis_context: dict[str, Any] | None = None,
        record_genesis: bool = True,
    ):
        self.balances = {WalletId(w): b for w, b in balances.items()}
        held = sum(b.units for b in self.balances.values())
        if held > supply.units:
            raise GovernanceError("wallet balances exceed token supply")
        self.supply = supply
        self.wallet_universe_size = (
            wallet_universe_size if wallet_universe_size is not None else len(self.balances)
        )
        self.ledger = ledger if ledger is not None else Ledger()
        self.vote_filter = vote_filter
        self.proposals: dict[ProposalId, Proposal] = {}
        self._votes: dict[ProposalId, dict[WalletId, VoteRecord]] = {}
        self._locks: dict[WalletId, dict[ProposalId, int]] = {}
        self.results: dict[ProposalId, TallyResult] = {}
        self.counted_votes: dict[ProposalId, tuple[VoteRecord, ...]] = {}
        self._now = 0
        if record_genesis:
            payload: dict[str, Any] = {
                "event": "genesis",
                "supply": str(self.supply),
                "balances": {str(w): str(b) for w, b in sorted(self.balances.items())},
                "wallet_universe_size": self.wallet_universe_size,
            }
            if genesis_context:
                payload.update(genesis_context)
            self.ledger.append(payload)

    # -- clock ------------------------------------------------------------

    def _touch(self, now: int) -> None:
        if not isinstance(now, int) or isinstance(now, bool) or now < 0:
            raise GovernanceError(f"now must be a non-negative tick: {now!r}")
        if now < self._now:
            raise GovernanceError(f"clock moved backwards: {now} < {self._now}")
        self._now = now

    def advance_to(self, now: int) -> None:
        """Apply window-driven transitions up to `now` (Discussion -> Voting)."""
        self._touch(now)
        for proposal in self.proposals.values():
            if proposal.phase is Phase.DISCUSSION and now >= proposal.voting_window.start:
                proposal.phase = Phase.VOTING
                self.ledger.append(
                    {
                        "event": "phase",
                        "proposal": str(proposal.id),
                        "from": Phase.DISCUSSION.value,
                        "to": Phase.VOTING.value,
                        "tick": now,
                    }
                )

    # -- operations -------------------------------------------------------

    def submit(self, proposal: Proposal, now: int) -> None:
        """Draft -> Discussion.  Allowed strictly before the discussion window closes."""
        self._touch(now)
        if proposal.phase is not Phase.DRAFT:
            raise PhaseError(f"proposal {proposal.id!r} is not a draft")
        if proposal.id in self.proposals:
            raise GovernanceError(f"duplicate proposal id {proposal.id!r}")
        if now >= proposal.discussion_window.end:
            raise OutOfWindow(
                f"proposal {proposal.id!r}: discussion window closed at tick "
                f"{proposal.discussion_window.end}"
            )
        proposal.phase = Phase.DISCUSSION
        self.proposals[proposal.id] = proposal
        self._votes[proposal.id] = {}
        payload: dict[str, Any] = {
            "event": "submit",
            "proposal": str(proposal.id),
            "options": list(proposal.options),
            "discussion_window": [proposal.discussion_window.start, proposal.discussion_window.end],
            "voting_window": [proposal.voting_window.start, proposal.voting_window.end],
            "mechanism": proposal.mechanism.value,
            "quorum": proposal.quorum.to_json_obj() if proposal.quorum else None,
            "conviction": proposal.conviction.to_json_obj() if proposal.conviction else None,
            "tick": now,
        }
        self.ledger.append(payload)
        self.advance_to(now)

    def locked_units(self, wallet: WalletId, exclude: ProposalId | None = None) -> int:
        locks = self._locks.get(wallet, {})
        return sum(units for pid, units in locks.items() if pid != exclude)

    def cast(
        self,
        proposal_id: ProposalId,
        wallet: WalletId,
        option: str,
        committed: TokenAmount,
        now: int,
    ) -> None:
        """Record or replace a wallet's vote; commits lock tokens until finalize."""
        self.advance_to(now)
        proposal = self._get(proposal_id)
        wallet = WalletId(wallet)
        if proposal.phase is not Phase.VOTING:
            raise PhaseError(f"proposal {proposal.id!r} is not in its voting phase")
        if not proposal.voting_window.contains(now):
            raise OutOfWindow(
                f"tick {now} is outside voting window "
                f"[{proposal.voting_window.start}, {proposal.voting_window.end})"
            )
        if committed.is_zero():
            raise ZeroCommitment(f"wallet {wallet!r} committed zero tokens")
        if option not in proposal.options:
            raise GovernanceError(
                f"option {option!r} is not on proposal {proposal.id!r}"
            )
        balance = self.balances.get(wallet)
        if balance is None:
            raise GovernanceError(f"unknown wallet {wallet!r}")
        available = balance.units - self.locked_units(wallet, exclude=proposal.id)
        if committed.units > available:
            raise InsufficientUnlockedTokens(
                f"wallet {wallet!r} has {available} unlocked units, needs {committed.units}"
            )

        book = self._votes[proposal.id]
        prior = book.get(wallet)
        # Same option: the hold (conviction's accrual) continues; a fresh vote or a switch restarts it.
        cast_at = prior.cast_at if prior is not None and prior.option == option else now
        book[wallet] = VoteRecord(
            wallet=wallet, proposal=proposal.id, option=option, committed=committed, cast_at=cast_at
        )
        self._locks.setdefault(wallet, {})[proposal.id] = committed.units
        self.ledger.append(
            {
                "event": "cast",
                "proposal": str(proposal.id),
                "wallet": str(wallet),
                "option": option,
                "committed": str(committed),
                "tick": now,
            }
        )

    def finalize(self, proposal_id: ProposalId, now: int) -> TallyResult:
        """Tally after the voting window closes; locks release; phase goes terminal."""
        self.advance_to(now)
        proposal = self._get(proposal_id)
        if proposal.phase in TERMINAL_PHASES:
            raise PhaseError(f"proposal {proposal.id!r} is already finalized")
        if proposal.phase is not Phase.VOTING:
            raise PhaseError(f"proposal {proposal.id!r} never reached its voting phase")
        if now < proposal.voting_window.end:
            raise OutOfWindow(
                f"voting window is open until tick {proposal.voting_window.end}"
            )

        votes: Sequence[VoteRecord] = list(self._votes[proposal.id].values())
        filter_report = None
        if self.vote_filter is not None:
            filter_report = self.vote_filter(votes)
            votes = list(filter_report.votes)

        result = tally(
            votes,
            proposal.mechanism,
            supply=self.supply,
            wallet_universe_size=self.wallet_universe_size,
            quorum=proposal.quorum,
            now=now,
            conviction=proposal.conviction,
            options=proposal.options,
        )
        outcome = result.outcome
        if outcome.kind == OutcomeKind.QUORUM_FAILED:
            proposal.phase = Phase.QUORUM_FAILED
        elif outcome.is_winner() and outcome.option == proposal.approve_option:
            proposal.phase = Phase.PASSED
        else:
            proposal.phase = Phase.REJECTED

        for wallet in self._votes[proposal.id]:
            locks = self._locks.get(wallet)
            if locks is not None:
                locks.pop(proposal.id, None)

        self.results[proposal.id] = result
        self.counted_votes[proposal.id] = tuple(votes)
        payload: dict[str, Any] = {
            "event": "finalize",
            "proposal": str(proposal.id),
            "phase": proposal.phase.value,
            "tally": result.to_json_obj(),
            "tick": now,
        }
        if filter_report is not None:
            payload["dropped_unverified"] = [str(w) for w in filter_report.dropped_unverified]
            payload["equivocating_identities"] = [
                str(i) for i in filter_report.equivocating_identities
            ]
        self.ledger.append(payload)
        return result

    def mark_executed(self, proposal_id: ProposalId, now: int) -> None:
        """Passed -> Executed; bookkeeping only, no execution payloads."""
        self._touch(now)
        proposal = self._get(proposal_id)
        if proposal.phase is not Phase.PASSED:
            raise PhaseError(f"proposal {proposal.id!r} has not passed")
        proposal.phase = Phase.EXECUTED
        self.ledger.append(
            {"event": "executed", "proposal": str(proposal.id), "tick": now}
        )

    def _get(self, proposal_id: ProposalId) -> Proposal:
        proposal = self.proposals.get(ProposalId(proposal_id))
        if proposal is None:
            raise GovernanceError(f"unknown proposal {proposal_id!r}")
        return proposal


def replay(entries: Sequence, vote_filter: VoteFilter | None = None) -> GovernanceEngine:
    """Rebuild an engine by replaying a recorded event ledger.

    The genesis event seeds balances; submit/phase/cast/finalize events are
    re-applied in order, re-running the deterministic tally logic.  Every
    event the engine re-derives must equal the recorded payload byte for
    byte, and every recorded event must be re-derived; the first difference
    raises GovernanceError naming its index.
    """
    from .core import loads_canonical

    if not entries:
        raise GovernanceError("cannot replay an empty ledger")
    events = [loads_canonical(e.payload) for e in entries]
    if events[0].get("event") != "genesis":
        raise GovernanceError("ledger does not start with a genesis event")
    genesis = events[0]

    vf = vote_filter
    if vf is None and genesis.get("identity"):
        from .identity import IdentityRegistry, VotePolicy, filter_and_collapse

        registry = IdentityRegistry.from_json_obj(genesis["identity"]["registry"])
        policy = VotePolicy(genesis["identity"]["policy"])
        vf = lambda votes: filter_and_collapse(votes, registry, policy)  # noqa: E731

    engine = GovernanceEngine(
        balances={WalletId(w): TokenAmount.parse(b) for w, b in genesis["balances"].items()},
        supply=TokenAmount.parse(genesis["supply"]),
        wallet_universe_size=genesis["wallet_universe_size"],
        vote_filter=vf,
        record_genesis=False,
    )
    derived = engine.ledger  # holds every event but genesis: event k is derived[k - 1]
    checked = 0
    for event in events[1:]:
        kind = event["event"]
        if kind == "submit":
            engine.submit(
                Proposal(
                    id=ProposalId(event["proposal"]),
                    options=tuple(event["options"]),
                    discussion_window=Window(*event["discussion_window"]),
                    voting_window=Window(*event["voting_window"]),
                    mechanism=Mechanism.parse(event["mechanism"]),
                    quorum=QuorumConfig.from_json_obj(event["quorum"]) if event["quorum"] else None,
                    conviction=(
                        ConvictionParams.from_json_obj(event["conviction"])
                        if event["conviction"]
                        else None
                    ),
                ),
                now=event["tick"],
            )
        elif kind == "phase":
            engine.advance_to(event["tick"])
        elif kind == "cast":
            engine.cast(
                ProposalId(event["proposal"]),
                WalletId(event["wallet"]),
                event["option"],
                TokenAmount.parse(event["committed"]),
                now=event["tick"],
            )
        elif kind == "finalize":
            engine.finalize(ProposalId(event["proposal"]), now=event["tick"])
        elif kind == "executed":
            engine.mark_executed(ProposalId(event["proposal"]), now=event["tick"])
        else:
            raise GovernanceError(f"unknown event kind {kind!r}")
        while checked < len(derived):
            checked += 1
            if checked >= len(entries) or derived[checked - 1].payload != entries[checked].payload:
                raise GovernanceError(f"replay diverged at event {checked}: payload differs from the record")
    if checked != len(entries) - 1:
        raise GovernanceError(f"replay diverged at event {checked + 1}: recorded but not re-derived")
    return engine
