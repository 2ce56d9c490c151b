"""Proposal lifecycle: Draft -> Discussion -> Voting -> terminal.

The engine owns wallet balances, per-proposal vote books (each wallet's live
vote, keyed by the wallet), and token locks;
committed tokens stay locked for the proposal's voting window, so a wallet
cannot commit the same tokens to two concurrent proposals.  A wallet's lock is
one total, its live votes' commitments summed over the proposals not yet
finalized; a vote's own share is read from its proposal's book.  Finalize
counts a proposal's book, releases its locks and drops it.  It hands the
counted votes (the book itself, or the identity filter's wallet-keyed dict)
and the tally, with each vote's power, to its caller and
keeps neither (the finalize event records the tally), so the engine holds no
vote of a finalized proposal.  Every state change appends exactly one event,
encoded by govlab.events, to the hash-chained ledger, and replaying that event
log through a fresh engine, read once in order, re-derives every event,
genesis included, byte for byte.

Casts come in batches on one proposal at one tick, checked once per batch and
once per option.  A proposal's events.cast_template for an option is built at
its first ballot and dropped with its book at finalize; a batch makes each
option's line for its tick from it.  cast_batch is one loop: it checks each
ballot, records its vote and lock, and appends its text (Ledger.append) before
drawing the next.  A failing ballot changes nothing, so a batch that stops at
ballot k leaves the ledger, vote book and locks exactly as k single casts would.

Outcome mapping at finalize: the proposal's first option is the designated
"approve" option; the proposal passes only when that option is the unique
winner.  Ties (including the no-votes case) reject; the status quo wins.
"""

from __future__ import annotations

import functools
import heapq
from decimal import Decimal
from enum import Enum
from typing import Any, Callable, Iterable, Mapping

from . import events
from .core import (
    GovernanceError,
    IdentityId,
    OutcomeKind,
    ProposalId,
    TallyResult,
    TokenAmount,
    VoteRecord,
    WalletId,
    _check_option,
    _checked_vote,
    _Record,
    _set,
)
from .identity import FilterReport, IdentityFilter, IdentityRegistry, filter_and_collapse
from .ledger import Ledger, LedgerEntry
from .mechanisms import ConvictionParams, Mechanism, QuorumConfig, config_error, tally


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


TERMINAL_PHASES = frozenset({Phase.PASSED, Phase.REJECTED, Phase.QUORUM_FAILED})


class Window(_Record):
    """Half-open tick range [start, end)."""

    __slots__ = ("start", "end")

    def __init__(self, start: int, end: int):
        _set(self, "start", start)
        _set(self, "end", end)
        for v in (start, end):
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise WindowError(f"window bounds must be non-negative ticks: {self}")
        if start >= end:
            raise WindowError(f"window must be nonempty: [{start}, {end})")

    def contains(self, tick: int) -> bool:
        return self.start <= tick < self.end


def _checked_window(start: int, end: int) -> Window:
    """A Window built without __init__'s checks, from int ticks 0 <= start < end the caller has checked."""
    window = object.__new__(Window)
    _set_start(window, start)
    _set_end(window, end)
    return window


# Each slot's own setter, which skips object.__setattr__'s lookup of the name.
_set_start, _set_end = (getattr(Window, n).__set__ for n in Window.__slots__)


class Proposal(_Record):
    """Governance proposal; phase is managed by the engine after submission.

    Unlike the other records it is mutable, and so not hashable.
    """

    __slots__ = ("id", "options", "discussion_window", "voting_window", "mechanism", "quorum", "conviction", "phase")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        id: ProposalId,
        options: tuple[str, ...],
        discussion_window: Window,
        voting_window: Window,
        mechanism: Mechanism,
        quorum: QuorumConfig | None = None,
        conviction: ConvictionParams | None = None,
    ):
        self.id = ProposalId(id)
        self.options = tuple(options)
        self.discussion_window = discussion_window
        self.voting_window = voting_window
        self.quorum = quorum
        self.conviction = conviction
        self.phase = Phase.DRAFT
        if len(self.options) < 2:
            raise GovernanceError(f"proposal {self.id!r} needs at least two options")
        if len(set(self.options)) != len(self.options):
            raise GovernanceError(f"proposal {self.id!r} has duplicate options")
        for o in self.options:
            if events._SPLIT_PAIR.search(_check_option(o)):
                raise GovernanceError(f"proposal {self.id!r}: option {o!r} does not read back from its JSON text")
        self.mechanism = Mechanism.parse(mechanism)
        if self.discussion_window.end > self.voting_window.start:
            raise WindowError(
                f"proposal {self.id!r}: discussion window must close before voting opens"
            )
        if error := config_error(self.mechanism, self.quorum, self.conviction):
            raise GovernanceError(f"proposal {self.id!r}: {error}")

    @property
    def approve_option(self) -> str:
        return self.options[0]

    def _replace(self, **changes: Any) -> "Proposal":
        """A draft built through the constructor from this proposal's fields with changes applied;
        phase is the engine's, not a constructor parameter, so it is not copied."""
        fields = {name: getattr(self, name) for name in self.__slots__ if name != "phase"}
        fields.update(changes)
        return Proposal(**fields)


class GovernanceEngine:
    """Drives proposals through their lifecycle and writes the event ledger.

    genesis_context is recorded in the genesis event; its keys must be among
    events.GENESIS_CONTEXT.  Its "scenario" and "mechanism" labels are kept as
    the engine's scenario and mechanism (None when absent).  Its "identity" is
    an identity.IdentityFilter or None.  The filter is the engine's one identity layer: finalize applies it
    to the live vote set, and genesis records its policy and bindings
    (events.genesis), so a replay rebuilds exactly the filter that was
    applied.  With no "identity" key (or None) every live vote is tallied.  The
    engine keeps balances, keyed by WalletId, as given (no copy) and never writes
    it.  Its wallet universe, which genesis records and a wallet-count quorum
    divides by, is the number of funded wallets.  ledger_sink, if given, receives
    each ledger entry as it is appended, and the ledger keeps none (see ledger.Ledger).
    """

    def __init__(
        self,
        *,
        balances: dict[WalletId, TokenAmount],
        supply: TokenAmount,
        genesis_context: dict[str, Any] | None = None,
        ledger_sink: Callable[[LedgerEntry], object] | None = None,
    ):
        if any(type(wallet) is not WalletId for wallet in balances):
            raise GovernanceError("balances must be keyed by WalletId")
        self.balances = balances
        held = sum(b.units for b in self.balances.values())
        if held > supply.units:
            raise GovernanceError("wallet balances exceed token supply")
        self.supply = supply
        self.ledger = Ledger(ledger_sink)
        context = genesis_context or {}
        self.scenario, self.mechanism = context.get("scenario"), context.get("mechanism")
        self.identity = context.get("identity")
        if self.identity is not None and not isinstance(self.identity, IdentityFilter):
            raise GovernanceError(f"genesis identity must be an IdentityFilter or None, not {self.identity!r}")
        self.proposals: dict[ProposalId, Proposal] = {}
        # (voting start, submit order, proposal) of each proposal in discussion, a heap on its start
        self._opening: list[tuple[int, int, Proposal]] = []
        self._votes: dict[ProposalId, dict[WalletId, VoteRecord]] = {}
        # Each live proposal's events.cast_template per option, built at its first ballot and dropped at finalize.
        self._templates: dict[ProposalId, dict[str, Callable]] = {}
        self._locked: dict[WalletId, int] = {}  # units committed to live proposals; no zero totals
        self._now = 0
        self.ledger.append(events.genesis(self.supply, self.balances, context))

    # -- clock ------------------------------------------------------------

    def _touch(self, now: int) -> None:
        if not isinstance(now, int) or isinstance(now, bool) or now < 0:
            raise GovernanceError(f"now must be a non-negative tick: {now!r}")
        if now < self._now:
            raise GovernanceError(f"clock moved backwards: {now} < {self._now}")
        self._now = now

    def advance_to(self, now: int) -> None:
        """Apply window-driven transitions up to `now` (Discussion -> Voting), in submit order."""
        self._touch(now)
        opening = self._opening
        if not opening or opening[0][0] > now:
            return
        due = []
        while opening and opening[0][0] <= now:
            due.append(heapq.heappop(opening)[1:])
        for _, proposal in sorted(due):  # submit orders are distinct, so proposals are never compared
            proposal.phase = Phase.VOTING
            self.ledger.append(events.phase(proposal.id, now))

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
        heapq.heappush(self._opening, (proposal.voting_window.start, len(self.proposals), proposal))
        self.ledger.append(events.submit(proposal, now))
        self.advance_to(now)

    def cast(
        self, proposal_id: ProposalId, wallet: WalletId, option: str, committed: TokenAmount, now: int
    ) -> None:
        """Record or replace a wallet's vote; commits lock tokens until finalize."""
        self.cast_batch(proposal_id, ((wallet, option, committed),), now)

    def cast_batch(self, proposal_id: ProposalId, ballots: Iterable[tuple], now: int) -> None:
        """Cast each (wallet, option, committed) ballot in order; the per-batch checks run even for none."""
        self.advance_to(now)
        proposal = self._get(proposal_id)
        if proposal.phase is not Phase.VOTING:
            raise PhaseError(f"proposal {proposal.id!r} is not in its voting phase")
        window = proposal.voting_window
        if not window.contains(now):
            raise OutOfWindow(f"tick {now} is outside voting window [{window.start}, {window.end})")
        pid, balances, locked, append = proposal.id, self.balances, self._locked, self.ledger.append
        book = self._votes[pid]
        if (templates := self._templates.get(pid)) is None:
            templates = self._templates[pid] = {}
        lines: dict[str, Callable] = {}  # option -> its template's line at this tick, made on its first ballot
        for wallet, option, committed in ballots:
            if type(wallet) is not WalletId:
                wallet = WalletId(wallet)
            if type(committed) is not TokenAmount:
                raise GovernanceError(f"wallet {wallet!r} committed {committed!r}, not a TokenAmount")
            if not (units := committed.units):
                raise ZeroCommitment(f"wallet {wallet!r} committed zero tokens")
            line = lines.get(option) if type(option) is str else None
            if line is None:
                if option not in proposal.options:
                    raise GovernanceError(f"option {option!r} is not on proposal {pid!r}")
                if (template := templates.get(option)) is None:
                    template = templates[option] = events.cast_template(pid, option)
                line = lines[option] = template(now)
            balance = balances.get(wallet)
            if balance is None:
                raise GovernanceError(f"unknown wallet {wallet!r}")
            prior = book.get(wallet)
            # A recast frees the prior vote's lock first.
            others = locked.get(wallet, 0) - (prior.committed.units if prior is not None else 0)
            available = balance.units - others
            if units > available:
                raise InsufficientUnlockedTokens(f"wallet {wallet!r} has {available} unlocked units, needs {units}")
            # Same option: the hold (conviction's accrual) continues; a fresh vote or a switch restarts it.
            cast_at = prior.cast_at if prior is not None and prior.option == option else now
            book[wallet] = _checked_vote(option, committed, cast_at)
            locked[wallet] = others + units
            append(line(units, wallet))

    def finalize(self, proposal_id: ProposalId, now: int) -> tuple[Mapping[WalletId, VoteRecord], TallyResult]:
        """Tally after the voting window closes; locks release; phase goes terminal.

        Returns the counted votes, keyed by wallet, and the tally, whose vote_power_units
        are theirs, in order: with no identity filter, the proposal's book itself.  The engine
        keeps neither: the ledger's finalize event records the tally."""
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

        book = self._votes[proposal.id]
        votes, result, report = count_votes(proposal, book, self.identity, self.supply, len(self.balances), now)
        outcome = result.outcome
        if outcome.kind == OutcomeKind.QUORUM_FAILED:
            proposal.phase = Phase.QUORUM_FAILED
        elif outcome.is_winner() and outcome.option == proposal.approve_option:
            proposal.phase = Phase.PASSED
        else:
            proposal.phase = Phase.REJECTED

        del self._votes[proposal.id]  # a finalized proposal refuses casts before it reads a book
        self._templates.pop(proposal.id, None)
        locked = self._locked
        for wallet, vote in book.items():
            if left := locked[wallet] - vote.committed.units:
                locked[wallet] = left
            else:
                del locked[wallet]

        self.ledger.append(events.finalize(proposal.id, proposal.phase.value, result, now, report))
        return votes, result

    def _get(self, proposal_id: ProposalId) -> Proposal:
        proposal = self.proposals.get(proposal_id if type(proposal_id) is ProposalId else ProposalId(proposal_id))
        if proposal is None:
            raise GovernanceError(f"unknown proposal {proposal_id!r}")
        return proposal


def count_votes(
    proposal: Proposal, votes: Mapping[WalletId, VoteRecord], identity: IdentityFilter | None,
    supply: TokenAmount, wallet_universe_size: int, now: int,
) -> tuple[Mapping[WalletId, VoteRecord], TallyResult, FilterReport | None]:
    """Count a proposal's live votes, keyed by wallet, at tick now: the identity filter, if any,
    then the tally under the proposal's mechanism, quorum, conviction and options.  Returns the
    counted votes (votes itself when there is no filter), the tally and the filter's report."""
    report = None
    if identity is not None:
        report = filter_and_collapse(votes, identity.registry, identity.policy)
        votes = report.votes
    result = tally(
        votes, proposal.mechanism, supply=supply, wallet_universe_size=wallet_universe_size,
        quorum=proposal.quorum, now=now, conviction=proposal.conviction, options=proposal.options,
    )
    return votes, result, report


def replay(entries: Iterable[LedgerEntry]) -> GovernanceEngine:
    """Rebuild an engine by replaying a recorded event ledger, read once, in order.

    entries may be any iterable.  Replay holds one recorded entry at a time, the
    lookahead, decoded and checked by events.decode.  Genesis seeds a fresh engine,
    which re-derives it: its identity record, if any, is rebuilt into the
    IdentityFilter that finalize applies, so the ledger alone says which filter
    counted the votes.  Later events are re-applied in order, each run of casts on
    one proposal at one tick as one cast_batch whose ballots come from the
    lookahead.  The ledger's sink compares each derived event with the lookahead
    and only then reads the next entry, so the first difference raises
    GovernanceError naming its index before anything after it is read; so does a
    recorded event that derives nothing.  The returned engine's ledger keeps no
    entries: compare its head_hash() with the record's.

    Amount strings (a genesis balance, the supply, a cast's commitment) go through
    a memo of TokenAmount.parse that lives for this one replay: each distinct
    string is parsed once, and every event that records it shares that one
    immutable TokenAmount, since a ledger holds few distinct amounts.
    """
    payloads = (entry.payload for entry in entries)
    end = object()  # the lookahead past the last entry, unequal to any derived payload
    payload = next(payloads, end)
    if payload is end:
        raise GovernanceError("cannot replay an empty ledger")
    genesis = event = events.decode(0, payload)
    if genesis["event"] != "genesis":
        raise GovernanceError("ledger does not start with a genesis event")

    amounts = functools.cache(TokenAmount.parse)
    balances = {WalletId(w): amounts(b) for w, b in genesis["balances"].items()}
    # A recorded wallet in genesis becomes its WalletId, validated once; any other is checked where it is used.
    wallets = {w: w for w in balances}
    context = {key: genesis[key] for key in events.GENESIS_CONTEXT if key in genesis}
    if identity := genesis.get("identity"):
        registry = IdentityRegistry(identity["registry"]["mode"])
        for binding in identity["registry"]["bindings"]:
            # A refused binding, or one with no wallet to build its identity at, is left out, so genesis diverges.
            if bound := binding["wallets"]:
                name = IdentityId(binding["identity"])
            for wallet in bound:
                registry.bind(name, wallets.get(wallet, wallet))
        context["identity"] = IdentityFilter(registry, identity["policy"])

    def check(entry: LedgerEntry) -> None:
        nonlocal payload, event
        if entry.payload != payload:
            raise GovernanceError(f"replay diverged at event {entry.index}: payload differs from the record")
        payload = next(payloads, end)
        event = None if payload is end else events.decode(entry.index + 1, payload)

    def ballots(pid: str, tick: int):
        while (e := event) is not None and e["event"] == "cast" and e["proposal"] == pid and e["tick"] == tick:
            yield wallets.get(e["wallet"], e["wallet"]), e["option"], amounts(e["committed"])

    # The wallet universe is re-derived from the balances, so genesis is compared like every other event.
    engine = GovernanceEngine(
        balances=balances, supply=amounts(genesis["supply"]), genesis_context=context, ledger_sink=check,
    )
    while (recorded := event) is not None:
        if (kind := recorded["event"]) == "genesis":
            raise GovernanceError(f"event {len(engine.ledger)}: a genesis event after the first")
        pid, tick = recorded["proposal"], recorded["tick"]
        if kind == "submit":
            quorum, conviction = recorded["quorum"], recorded["conviction"]
            proposal = Proposal(
                id=pid,
                options=recorded["options"],
                discussion_window=Window(*recorded["discussion_window"]),
                voting_window=Window(*recorded["voting_window"]),
                mechanism=recorded["mechanism"],
                quorum=QuorumConfig(quorum["basis"], Decimal(quorum["threshold"])) if quorum else None,
                conviction=ConvictionParams(Decimal(conviction["decay_rate"])) if conviction else None,
            )
            engine.submit(proposal, now=tick)
        elif kind == "phase":
            engine.advance_to(tick)  # the one dispatch that can derive nothing
        elif kind == "cast":
            engine.cast_batch(pid, ballots(pid, tick), tick)
        else:
            engine.finalize(pid, now=tick)
        if event is recorded:
            raise GovernanceError(f"replay diverged at event {len(engine.ledger)}: recorded but not re-derived")
    return engine
