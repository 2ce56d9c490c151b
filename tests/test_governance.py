"""Proposal lifecycle, token locks, event accounting, and replay."""

import json
from decimal import Decimal
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from govlab.core import ProposalId, TokenAmount, WalletId, fmt_units, loads_canonical, parse_units
from govlab.governance import (
    GovernanceEngine,
    GovernanceError,
    InsufficientUnlockedTokens,
    OutOfWindow,
    Phase,
    PhaseError,
    Proposal,
    TERMINAL_PHASES,
    Window,
    ZeroCommitment,
    replay,
)
from govlab.identity import IdentityRegistry, RegistryMode, VotePolicy, filter_and_collapse
from govlab.ledger import Ledger, verify_chain
from govlab.mechanisms import (
    ConvictionParams,
    Mechanism,
    QuorumBasis,
    QuorumConfig,
    conviction_power,
)
from govlab.scenario import load_preset, parse_scenario, preset_names
from govlab.simulation import run


def _engine(balances=None, supply=1000):
    balances = balances or {"alice": 100, "bob": 50, "carol": 25}
    return GovernanceEngine(
        balances={WalletId(w): TokenAmount.parse(b) for w, b in balances.items()},
        supply=TokenAmount.parse(supply),
    )


def _proposal(pid="p1", options=("approve", "reject"), discussion=(0, 5), voting=(5, 10), **kw):
    return Proposal(
        id=ProposalId(pid),
        options=tuple(options),
        discussion_window=Window(*discussion),
        voting_window=Window(*voting),
        mechanism=kw.pop("mechanism", Mechanism.TOKEN),
        quorum=kw.pop("quorum", None),
        conviction=kw.pop("conviction", None),
    )


class TestWindows:
    def test_window_must_be_nonempty_and_ordered(self):
        with pytest.raises(GovernanceError, match="window"):
            Window(5, 5)
        with pytest.raises(GovernanceError, match="window"):
            Window(6, 5)

    def test_half_open_membership(self):
        window = Window(5, 10)
        assert not window.contains(4)
        assert window.contains(5)
        assert window.contains(9)
        assert not window.contains(10)

    def test_voting_cannot_start_before_discussion_ends(self):
        with pytest.raises(GovernanceError, match="must close before voting opens"):
            _proposal(discussion=(0, 6), voting=(5, 10))


class TestLifecycle:
    def test_submit_moves_draft_to_discussion(self):
        engine = _engine()
        proposal = _proposal()
        assert proposal.phase is Phase.DRAFT
        engine.submit(proposal, 0)
        assert proposal.phase is Phase.DISCUSSION

    def test_discussion_moves_to_voting_at_window_start(self):
        engine = _engine()
        proposal = _proposal()
        engine.submit(proposal, 0)
        engine.advance_to(4)
        assert proposal.phase is Phase.DISCUSSION
        engine.advance_to(5)
        assert proposal.phase is Phase.VOTING

    def test_duplicate_submission_rejected(self):
        engine = _engine()
        engine.submit(_proposal(), 0)
        with pytest.raises(GovernanceError, match="duplicate proposal"):
            engine.submit(_proposal(), 1)

    def test_submit_after_discussion_closes_rejected(self):
        engine = _engine()
        with pytest.raises(OutOfWindow, match="discussion window closed"):
            engine.submit(_proposal(), 5)

    def test_cast_during_discussion_rejected(self):
        engine = _engine()
        engine.submit(_proposal(), 0)
        with pytest.raises(PhaseError, match="not in its voting phase"):
            engine.cast("p1", WalletId("alice"), "approve", TokenAmount.parse(10), 3)

    def test_cast_after_voting_window_rejected(self):
        engine = _engine()
        engine.submit(_proposal(), 0)
        with pytest.raises(OutOfWindow, match="outside voting window"):
            engine.cast("p1", WalletId("alice"), "approve", TokenAmount.parse(10), 10)

    def test_first_option_winning_passes(self):
        engine = _engine()
        engine.submit(_proposal(), 0)
        engine.cast("p1", WalletId("alice"), "approve", TokenAmount.parse(100), 5)
        engine.cast("p1", WalletId("bob"), "reject", TokenAmount.parse(50), 5)
        result = engine.finalize("p1", 10)
        assert result.outcome.option == "approve"
        assert engine.proposals[ProposalId("p1")].phase is Phase.PASSED

    def test_other_option_winning_rejects(self):
        engine = _engine()
        engine.submit(_proposal(), 0)
        engine.cast("p1", WalletId("bob"), "reject", TokenAmount.parse(50), 5)
        engine.finalize("p1", 10)
        assert engine.proposals[ProposalId("p1")].phase is Phase.REJECTED

    def test_tie_rejects(self):
        """Status-quo bias: equal power does not pass a proposal."""
        engine = _engine()
        engine.submit(_proposal(), 0)
        engine.cast("p1", WalletId("alice"), "approve", TokenAmount.parse(50), 5)
        engine.cast("p1", WalletId("bob"), "reject", TokenAmount.parse(50), 5)
        engine.finalize("p1", 10)
        assert engine.proposals[ProposalId("p1")].phase is Phase.REJECTED

    def test_no_votes_reject(self):
        engine = _engine()
        engine.submit(_proposal(), 0)
        engine.finalize("p1", 10)
        assert engine.proposals[ProposalId("p1")].phase is Phase.REJECTED

    def test_quorum_failure_outranks_any_margin(self):
        engine = _engine()
        quorum = QuorumConfig(basis=QuorumBasis.TOKEN_SUPPLY_FRACTION, threshold=Decimal("0.2"))
        engine.submit(_proposal(quorum=quorum), 0)
        engine.cast("p1", WalletId("alice"), "approve", TokenAmount.parse(100), 5)
        engine.finalize("p1", 10)  # 100 of 1000 supply = 0.1 < 0.2
        assert engine.proposals[ProposalId("p1")].phase is Phase.QUORUM_FAILED

    def test_finalize_before_window_end_rejected(self):
        engine = _engine()
        engine.submit(_proposal(), 0)
        with pytest.raises(OutOfWindow, match="open until"):
            engine.finalize("p1", 9)

    def test_finalize_is_idempotent_by_rejection(self):
        engine = _engine()
        engine.submit(_proposal(), 0)
        engine.finalize("p1", 10)
        with pytest.raises(PhaseError, match="already finalized"):
            engine.finalize("p1", 11)

    def test_finalize_requires_the_voting_phase(self):
        engine = _engine()
        proposal = _proposal(pid="p2", discussion=(0, 20), voting=(20, 30))
        engine.submit(proposal, 0)
        with pytest.raises(PhaseError, match="never reached its voting phase"):
            engine.finalize("p2", 10)

    def test_mark_executed_only_from_passed(self):
        engine = _engine()
        engine.submit(_proposal(), 0)
        engine.cast("p1", WalletId("alice"), "approve", TokenAmount.parse(100), 5)
        engine.finalize("p1", 10)
        engine.mark_executed("p1", 11)
        assert engine.proposals[ProposalId("p1")].phase is Phase.EXECUTED
        with pytest.raises(PhaseError, match="not passed"):
            engine.mark_executed("p1", 12)

    def test_mark_executed_from_rejected_fails(self):
        engine = _engine()
        engine.submit(_proposal(), 0)
        engine.finalize("p1", 10)
        with pytest.raises(PhaseError, match="not passed"):
            engine.mark_executed("p1", 11)

    def test_clock_never_moves_backwards(self):
        engine = _engine()
        engine.advance_to(7)
        with pytest.raises(GovernanceError, match="clock moved backwards"):
            engine.advance_to(6)

    def test_unknown_proposal(self):
        engine = _engine()
        with pytest.raises(GovernanceError, match="unknown proposal"):
            engine.finalize("nope", 10)


class TestVoteBook:
    def test_recast_replaces_the_previous_vote(self):
        engine = _engine()
        engine.submit(_proposal(), 0)
        engine.cast("p1", WalletId("alice"), "approve", TokenAmount.parse(60), 5)
        engine.cast("p1", WalletId("alice"), "reject", TokenAmount.parse(40), 6)
        engine.finalize("p1", 10)
        votes = engine.counted_votes[ProposalId("p1")]
        assert len(votes) == 1
        assert votes[0].option == "reject"
        assert votes[0].committed == TokenAmount.parse(40)

    def test_cast_at_rule_is_the_same_for_every_mechanism(self):
        """A same-option recast keeps cast_at and a switch resets it, whatever the mechanism."""
        for mechanism in Mechanism:
            engine = _engine()
            engine.submit(
                _proposal(
                    mechanism=mechanism,
                    quorum=QuorumConfig(basis=QuorumBasis.TOKEN_SUPPLY_FRACTION, threshold=Decimal(0)),
                    conviction=ConvictionParams(decay_rate=Decimal("0.1")),
                ),
                0,
            )
            engine.cast("p1", WalletId("alice"), "approve", TokenAmount.parse(60), 5)
            engine.cast("p1", WalletId("bob"), "approve", TokenAmount.parse(10), 5)
            engine.cast("p1", WalletId("alice"), "approve", TokenAmount.parse(70), 6)
            engine.cast("p1", WalletId("bob"), "reject", TokenAmount.parse(10), 7)
            engine.finalize("p1", 10)
            alice, bob = engine.counted_votes[ProposalId("p1")]
            assert (alice.cast_at, alice.committed) == (5, TokenAmount.parse(70)), mechanism
            assert (bob.cast_at, bob.option) == (7, "reject"), mechanism

    def test_zero_commitment_rejected_at_cast(self):
        engine = _engine()
        engine.submit(_proposal(), 0)
        with pytest.raises(ZeroCommitment, match="zero tokens"):
            engine.cast("p1", WalletId("alice"), "approve", TokenAmount.zero(), 5)

    def test_unknown_wallet_rejected(self):
        engine = _engine()
        engine.submit(_proposal(), 0)
        with pytest.raises(GovernanceError, match="unknown wallet"):
            engine.cast("p1", WalletId("mallory"), "approve", TokenAmount.parse(1), 5)

    def test_unknown_option_rejected(self):
        engine = _engine()
        engine.submit(_proposal(), 0)
        with pytest.raises(GovernanceError, match="not on proposal"):
            engine.cast("p1", WalletId("alice"), "abstain", TokenAmount.parse(1), 5)

    def test_overcommitting_a_balance_rejected(self):
        engine = _engine()
        engine.submit(_proposal(), 0)
        with pytest.raises(InsufficientUnlockedTokens, match="unlocked units"):
            engine.cast("p1", WalletId("alice"), "approve", TokenAmount.parse(101), 5)


class TestTokenLocks:
    def _two_live_proposals(self):
        engine = _engine()
        engine.submit(_proposal(pid="p1", discussion=(0, 5), voting=(5, 20)), 0)
        engine.submit(_proposal(pid="p2", discussion=(0, 5), voting=(5, 20)), 0)
        return engine

    def test_commitments_lock_across_concurrent_proposals(self):
        engine = self._two_live_proposals()
        engine.cast("p1", WalletId("alice"), "approve", TokenAmount.parse(80), 5)
        with pytest.raises(InsufficientUnlockedTokens):
            engine.cast("p2", WalletId("alice"), "approve", TokenAmount.parse(30), 6)
        engine.cast("p2", WalletId("alice"), "approve", TokenAmount.parse(20), 6)

    def test_recasting_releases_the_prior_lock_first(self):
        engine = self._two_live_proposals()
        engine.cast("p1", WalletId("alice"), "approve", TokenAmount.parse(80), 5)
        engine.cast("p1", WalletId("alice"), "approve", TokenAmount.parse(100), 6)
        assert engine.locked_units(WalletId("alice")) == 100 * 10**9

    def test_finalize_releases_locks(self):
        engine = _engine()
        engine.submit(_proposal(pid="p1", discussion=(0, 5), voting=(5, 10)), 0)
        engine.submit(_proposal(pid="p2", discussion=(0, 5), voting=(5, 20)), 0)
        engine.cast("p1", WalletId("alice"), "approve", TokenAmount.parse(100), 5)
        engine.finalize("p1", 10)
        assert engine.locked_units(WalletId("alice")) == 0
        engine.cast("p2", WalletId("alice"), "approve", TokenAmount.parse(100), 10)

    def test_balances_bound_the_supply(self):
        with pytest.raises(GovernanceError, match="exceed token supply"):
            _engine(balances={"a": 600, "b": 600}, supply=1000)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["alice", "bob", "carol"]),
                st.sampled_from(["p1", "p2"]),
                st.integers(min_value=1, max_value=120),
            ),
            max_size=25,
        )
    )
    @settings(max_examples=60)
    def test_locks_never_exceed_balances(self, casts):
        engine = self._two_live_proposals()
        balances = {w: engine.balances[WalletId(w)].units for w in ("alice", "bob", "carol")}
        for wallet, pid, tokens in casts:
            try:
                engine.cast(pid, WalletId(wallet), "approve", TokenAmount.parse(tokens), 5)
            except InsufficientUnlockedTokens:
                pass
            for w, balance in balances.items():
                assert engine.locked_units(WalletId(w)) <= balance


class TestConvictionGovernance:
    alpha = ConvictionParams(decay_rate=Decimal("0.1"))

    def _engine(self):
        engine = _engine()
        engine.submit(
            _proposal(
                mechanism=Mechanism.CONVICTION,
                conviction=self.alpha,
                voting=(5, 30),
            ),
            0,
        )
        return engine

    def test_recasting_the_same_option_keeps_accrual(self):
        engine = self._engine()
        engine.cast("p1", WalletId("alice"), "approve", TokenAmount.parse(100), 5)
        engine.cast("p1", WalletId("alice"), "approve", TokenAmount.parse(100), 15)
        (power,) = engine.finalize("p1", 30).vote_powers
        (vote,) = engine.counted_votes[ProposalId("p1")]
        assert vote.cast_at == 5
        assert power == conviction_power(TokenAmount.parse(100), 25, self.alpha)

    def test_switching_options_resets_accrual(self):
        engine = self._engine()
        engine.cast("p1", WalletId("alice"), "approve", TokenAmount.parse(100), 5)
        engine.cast("p1", WalletId("alice"), "reject", TokenAmount.parse(100), 15)
        (power,) = engine.finalize("p1", 30).vote_powers
        (vote,) = engine.counted_votes[ProposalId("p1")]
        assert vote.cast_at == 15
        assert power == conviction_power(TokenAmount.parse(100), 15, self.alpha)

    def test_collapse_merge_takes_the_latest_cast_at(self):
        registry = IdentityRegistry(RegistryMode.COLLAPSE_PER_IDENTITY)
        registry.bind("alice", WalletId("bob"))
        registry.bind("alice", WalletId("alice"))
        engine = GovernanceEngine(
            balances={WalletId("alice"): TokenAmount.parse(100), WalletId("bob"): TokenAmount.parse(50)},
            supply=TokenAmount.parse(1000),
            vote_filter=lambda votes: filter_and_collapse(votes, registry, VotePolicy.DROP_UNVERIFIED),
        )
        engine.submit(
            _proposal(mechanism=Mechanism.CONVICTION, conviction=self.alpha, voting=(5, 30)), 0
        )
        engine.cast("p1", WalletId("bob"), "approve", TokenAmount.parse(50), 5)
        engine.cast("p1", WalletId("alice"), "approve", TokenAmount.parse(100), 12)
        (power,) = engine.finalize("p1", 30).vote_powers
        (merged,) = engine.counted_votes[ProposalId("p1")]
        assert merged.wallet == WalletId("alice")
        assert merged.committed == TokenAmount.parse(150)
        assert merged.cast_at == 12
        assert power == conviction_power(TokenAmount.parse(150), 18, self.alpha)

    def test_finalize_tallies_conviction_at_window_end(self):
        engine = self._engine()
        engine.cast("p1", WalletId("alice"), "approve", TokenAmount.parse(100), 5)
        engine.cast("p1", WalletId("bob"), "reject", TokenAmount.parse(50), 5)
        result = engine.finalize("p1", 30)
        assert result.outcome.option == "approve"
        assert engine.proposals[ProposalId("p1")].phase is Phase.PASSED


class TestEventAccounting:
    def test_every_state_change_appends_exactly_one_event(self):
        engine = _engine()
        assert len(engine.ledger) == 1  # genesis
        engine.submit(_proposal(), 0)
        assert len(engine.ledger) == 2  # + submit
        engine.advance_to(5)
        assert len(engine.ledger) == 3  # + discussion -> voting
        engine.cast("p1", WalletId("alice"), "approve", TokenAmount.parse(10), 5)
        engine.cast("p1", WalletId("bob"), "reject", TokenAmount.parse(10), 6)
        assert len(engine.ledger) == 5  # + one per cast
        engine.advance_to(8)  # no transition, no event
        assert len(engine.ledger) == 5
        engine.finalize("p1", 10)
        assert len(engine.ledger) == 6

    def test_event_kinds_in_order(self):
        engine = _engine()
        engine.submit(_proposal(), 0)
        engine.cast("p1", WalletId("alice"), "approve", TokenAmount.parse(10), 5)
        engine.finalize("p1", 10)
        engine.mark_executed("p1", 11)
        kinds = [loads_canonical(e.payload)["event"] for e in engine.ledger]
        assert kinds == ["genesis", "submit", "phase", "cast", "finalize", "executed"]

    def test_genesis_snapshots_the_funding_state(self):
        engine = _engine()
        genesis = loads_canonical(engine.ledger[0].payload)
        assert genesis["supply"] == "1000.000000000"
        assert genesis["balances"]["alice"] == "100.000000000"
        assert genesis["wallet_universe_size"] == 3


class TestReplay:
    def _recorded_run(self):
        engine = _engine()
        engine.submit(_proposal(pid="p1"), 0)
        engine.submit(_proposal(pid="p2", discussion=(0, 12), voting=(12, 20)), 1)
        engine.cast("p1", WalletId("alice"), "approve", TokenAmount.parse(100), 5)
        engine.cast("p1", WalletId("bob"), "reject", TokenAmount.parse(50), 6)
        engine.finalize("p1", 10)
        engine.cast("p2", WalletId("bob"), "reject", TokenAmount.parse(50), 12)
        engine.finalize("p2", 20)
        engine.mark_executed("p1", 21)
        return engine

    def test_replay_reproduces_terminal_phases(self):
        recorded = self._recorded_run()
        replayed = replay(recorded.ledger.entries)
        for pid, proposal in recorded.proposals.items():
            assert replayed.proposals[pid].phase is proposal.phase
        assert replayed.results[ProposalId("p1")] == recorded.results[ProposalId("p1")]

    def test_replay_rejects_an_empty_ledger(self):
        with pytest.raises(GovernanceError, match="empty ledger"):
            replay([])

    def test_replay_requires_a_genesis_event(self):
        recorded = self._recorded_run()
        with pytest.raises(GovernanceError, match="genesis"):
            replay(recorded.ledger.entries[1:])

    def test_replay_detects_a_forged_outcome(self):
        """Flipping the recorded finalize phase makes the replay diverge."""
        recorded = self._recorded_run()
        entries = []
        for entry in recorded.ledger.entries:
            payload = loads_canonical(entry.payload)
            if payload.get("event") == "finalize" and payload["proposal"] == "p1":
                forged = entry.payload.replace('"phase":"passed"', '"phase":"rejected"')
                assert forged != entry.payload
                entries.append(SimpleNamespace(payload=forged))
            elif payload.get("event") == "executed":
                continue  # executed no longer applies to the forged history
            else:
                entries.append(SimpleNamespace(payload=entry.payload))
        with pytest.raises(GovernanceError, match="replay diverged"):
            replay(entries)

    @pytest.mark.parametrize("name", preset_names())
    def test_replay_re_derives_every_preset_event_byte_for_byte(self, name):
        recorded = run(load_preset(name)).ledger.entries
        replayed = replay(recorded)
        assert [e.payload for e in replayed.ledger] == [e.payload for e in recorded[1:]]

    def test_replay_detects_a_forged_tally(self):
        """A finalize event with a changed per-option power, re-chained, passes
        verify_chain but not replay."""
        recorded = run(load_preset("sybil_attack_quadratic")).ledger.entries
        forged_ledger = Ledger()
        forged_at = None
        for k, entry in enumerate(recorded):
            payload = loads_canonical(entry.payload)
            if forged_at is None and payload["event"] == "finalize":
                option, power = next(iter(payload["tally"]["per_option_power"].items()))
                payload["tally"]["per_option_power"][option] = fmt_units(parse_units(power) + 1)
                forged_at = k
            forged_ledger.append(payload)
        assert forged_at is not None
        assert verify_chain(forged_ledger.entries) is None
        with pytest.raises(GovernanceError, match=f"replay diverged at event {forged_at}:"):
            replay(forged_ledger.entries)

    def test_replay_detects_an_event_it_does_not_re_derive(self):
        entries = list(self._recorded_run().ledger.entries)
        late = {"event": "phase", "from": "discussion", "proposal": "p2", "tick": 30, "to": "voting"}
        extra = SimpleNamespace(payload=json.dumps(late, separators=(",", ":")))
        with pytest.raises(GovernanceError, match=f"replay diverged at event {len(entries)}: recorded but not"):
            replay(entries + [extra])

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["alice", "bob", "carol"]),
                st.sampled_from(["approve", "reject"]),
                st.integers(min_value=1, max_value=25),
                st.integers(min_value=5, max_value=9),
            ),
            max_size=10,
        )
    )
    @settings(max_examples=40)
    def test_replay_matches_any_recorded_run(self, casts):
        engine = _engine()
        engine.submit(_proposal(), 0)
        for wallet, option, tokens, tick in sorted(casts, key=lambda c: c[3]):
            try:
                engine.cast("p1", WalletId(wallet), option, TokenAmount.parse(tokens), tick)
            except InsufficientUnlockedTokens:
                pass
        engine.finalize("p1", 10)
        replayed = replay(engine.ledger.entries)
        assert replayed.proposals[ProposalId("p1")].phase is engine.proposals[ProposalId("p1")].phase
        assert replayed.proposals[ProposalId("p1")].phase in TERMINAL_PHASES
        assert len(replayed.ledger.head_hash()) == 64

    def test_replay_re_derives_a_run_with_hostile_labels(self):
        labels = ['say "yes"', "back\\slash", "\x00\x1f\n", "line\u2028sep", "\ud800lone", "caf\u00e9 \U0001f600"]
        scenario = parse_scenario(
            {
                "schema_version": 1,
                "name": "hostile-labels",
                "ticks": 10,
                "supply": "100",
                "mechanism": "quadratic",
                "proposals": [
                    {"id": "p1", "options": labels, "discussion_window": [0, 2], "voting_window": [2, 9]}
                ],
                "agents": [
                    {"id": f"a{k}", "kind": "honest", "balance": "10", "preference": [label], "cast_at": 2 + k}
                    for k, label in enumerate(labels)
                ],
            }
        )
        recorded = run(scenario).ledger.entries
        casts = [loads_canonical(e.payload) for e in recorded if '"event":"cast"' in e.payload]
        assert [c["option"] for c in casts] == labels
        replayed = replay(recorded)
        assert [e.payload for e in replayed.ledger] == [e.payload for e in recorded[1:]]


class TestPhaseEdgeSet:
    """No operation sequence reaches a transition outside the declared edges."""

    EDGES = {
        (Phase.DRAFT, Phase.DISCUSSION),
        (Phase.DISCUSSION, Phase.VOTING),
        (Phase.VOTING, Phase.PASSED),
        (Phase.VOTING, Phase.REJECTED),
        (Phase.VOTING, Phase.QUORUM_FAILED),
        (Phase.PASSED, Phase.EXECUTED),
    }

    @given(
        st.lists(
            st.sampled_from(["submit", "advance", "cast", "finalize", "execute"]),
            max_size=14,
        ),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=80)
    def test_random_operation_sequences(self, ops, step):
        engine = _engine()
        proposal = _proposal(voting=(5, 10))
        now = 0
        phases = [proposal.phase]

        def observe():
            if proposal.phase is not phases[-1]:
                phases.append(proposal.phase)

        for op in ops:
            now += step
            try:
                if op == "submit":
                    engine.submit(proposal, now)
                elif op == "advance":
                    engine.advance_to(now)
                elif op == "cast":
                    engine.cast("p1", WalletId("alice"), "approve", TokenAmount.parse(1), now)
                elif op == "finalize":
                    engine.finalize("p1", now)
                elif op == "execute":
                    engine.mark_executed("p1", now)
            except GovernanceError:
                pass
            observe()
        for edge in zip(phases, phases[1:]):
            assert edge in self.EDGES
