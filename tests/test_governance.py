"""Proposal lifecycle, token locks, event accounting, and replay."""

import importlib.util
import json
from collections import Counter
from pathlib import Path
from decimal import Decimal
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from govlab import events as events_module
from govlab import ledger as ledger_module
from govlab.core import GovlabError, IdentityId, ProposalId, TokenAmount, VotingPower, WalletId, canonical_json, fmt_units, loads_canonical, parse_units
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
from govlab.identity import IdentityFilter, IdentityRegistry, RegistryMode, VotePolicy
from govlab.ledger import Ledger, dump_ndjson, load_ndjson, read_ndjson, verify_chain
from govlab.mechanisms import (
    ConvictionParams,
    Mechanism,
    QuorumBasis,
    QuorumConfig,
    conviction_power,
)
from govlab.scenario import load_preset, parse_scenario, preset_names
from govlab.simulation import run
from oracles import LockTableRef, identity_record_ref

# JSON values that canonical_json writes: null, booleans, integers, strings, arrays and objects.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"


def _engine(balances=None, supply=1000):
    balances = balances or {"alice": 100, "bob": 50, "carol": 25}
    return GovernanceEngine(
        balances={WalletId(w): TokenAmount.parse(b) for w, b in balances.items()},
        supply=TokenAmount.parse(supply),
    )


def _locked_units(engine, wallet):
    """Units of `wallet` locked across live proposals, read from the engine's lock table."""
    return engine._locked.get(WalletId(wallet), 0)


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

    def test_replace_builds_a_checked_draft_from_the_constructor_fields(self):
        engine = _engine()
        proposal = _proposal(options=("approve", "reject", "defer"))
        engine.submit(proposal, 0)
        changed = proposal._replace(options=("approve", "defer"))
        assert changed.phase is Phase.DRAFT and proposal.phase is Phase.DISCUSSION
        assert changed == _proposal(options=("approve", "defer"))
        assert proposal._replace() == _proposal(options=("approve", "reject", "defer"))
        with pytest.raises(GovernanceError, match="at least two options"):
            proposal._replace(options=("approve",))
        with pytest.raises(TypeError, match="phase"):
            proposal._replace(phase=Phase.VOTING)

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
        _, result = engine.finalize("p1", 10)
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
        votes, _ = engine.finalize("p1", 10)
        assert list(votes) == [WalletId("alice")]
        assert votes[WalletId("alice")].option == "reject"
        assert votes[WalletId("alice")].committed == TokenAmount.parse(40)

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
            votes, _ = engine.finalize("p1", 10)
            alice, bob = votes.values()
            assert (alice.cast_at, alice.committed) == (5, TokenAmount.parse(70)), mechanism
            assert (bob.cast_at, bob.option) == (7, "reject"), mechanism

    def test_zero_commitment_rejected_at_cast(self):
        engine = _engine()
        engine.submit(_proposal(), 0)
        with pytest.raises(ZeroCommitment, match="zero tokens"):
            engine.cast("p1", WalletId("alice"), "approve", TokenAmount(0), 5)

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


class TestFinalizeCountsTheBook:
    """A proposal's votes are one wallet-keyed book from cast to tally: finalize counts the book itself."""

    def test_without_a_filter_count_votes_gets_and_returns_the_engines_book(self, monkeypatch):
        import govlab.governance as governance_module

        seen, count_votes = [], governance_module.count_votes

        def spy(proposal, votes, identity, *args):
            seen.append((votes, identity))
            return count_votes(proposal, votes, identity, *args)

        monkeypatch.setattr(governance_module, "count_votes", spy)
        engine = _engine()
        engine.submit(_proposal(), 0)
        engine.cast("p1", WalletId("alice"), "approve", TokenAmount.parse(60), 5)
        engine.cast("p1", WalletId("bob"), "reject", TokenAmount.parse(10), 6)
        book = engine._votes[ProposalId("p1")]
        votes, result = engine.finalize("p1", 10)
        assert seen == [(book, None)] and seen[0][0] is book
        assert votes is book and list(votes) == ["alice", "bob"]
        assert result.vote_power_units == (60 * 10**9, 10 * 10**9)

    def test_finalize_transient_per_vote_under_a_dropping_filter(self):
        """The traced peak of one finalize over 20,000 quadratic votes, half of them unverified and
        dropped, above what was allocated before it.  Measured per vote: 158 B on 3.11.7, 146 B on
        3.10.13, 113 B on 3.12.1 and 105 B on 3.13.0; 201 B on each while finalize copied the book to
        a list and the filter kept a set of every wallet it had seen."""
        import tracemalloc

        n = 20_000
        wallets = [WalletId(f"w{k:06d}") for k in range(n)]
        registry = IdentityRegistry(RegistryMode.STRICT_ONE_WALLET)
        for wallet in wallets[::2]:
            assert registry.bind(IdentityId(f"id-{wallet}"), wallet).accepted
        balances = dict.fromkeys(wallets, TokenAmount.parse(10))
        engine = GovernanceEngine(
            balances=balances, supply=TokenAmount.parse(10 * n), ledger_sink=lambda entry: None,
            genesis_context={"identity": IdentityFilter(registry, VotePolicy.DROP_UNVERIFIED)},
        )
        engine.submit(_proposal(mechanism=Mechanism.QUADRATIC), 0)
        engine.cast_batch("p1", ((w, "reject" if k % 3 else "approve", balances[w]) for k, w in enumerate(wallets)), 5)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            votes, result = engine.finalize("p1", 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(votes) == len(result.vote_power_units) == n // 2
        per_vote = (peak - before) / n
        assert per_vote < 180, f"{per_vote:.0f} B of traced finalize peak per vote"


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
        assert _locked_units(engine, "alice") == 100 * 10**9

    def test_finalize_releases_locks(self):
        engine = _engine()
        engine.submit(_proposal(pid="p1", discussion=(0, 5), voting=(5, 10)), 0)
        engine.submit(_proposal(pid="p2", discussion=(0, 5), voting=(5, 20)), 0)
        engine.cast("p1", WalletId("alice"), "approve", TokenAmount.parse(100), 5)
        engine.finalize("p1", 10)
        assert _locked_units(engine, "alice") == 0
        engine.cast("p2", WalletId("alice"), "approve", TokenAmount.parse(100), 10)

    def test_finalize_returns_the_counted_votes_and_keeps_none(self):
        engine = self._two_live_proposals()
        engine.cast("p1", WalletId("alice"), "approve", TokenAmount.parse(60), 5)
        engine.cast("p2", WalletId("alice"), "reject", TokenAmount.parse(40), 5)
        votes, result = engine.finalize("p1", 20)
        assert ProposalId("p1") not in engine._votes and ProposalId("p2") in engine._votes
        assert [(w, v.committed) for w, v in votes.items()] == [(WalletId("alice"), TokenAmount.parse(60))]
        assert len(result.vote_power_units) == 1
        assert engine._locked == {WalletId("alice"): 40 * 10**9}
        with pytest.raises(PhaseError, match="not in its voting phase"):
            engine.cast("p1", WalletId("alice"), "approve", TokenAmount.parse(1), 20)
        with pytest.raises(PhaseError, match="already finalized"):
            engine.finalize("p1", 20)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["cast"] * 5 + ["finalize"]),
                st.sampled_from(["p1", "p2"]),
                st.sampled_from(["alice", "bob", "carol"]),
                st.sampled_from(["approve", "reject"]),
                st.integers(min_value=1, max_value=480),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=150)
    def test_lock_decisions_match_the_per_proposal_table(self, ops):
        """Casts, recasts, switches and finalizes on two overlapping proposals decide, and word
        each refusal, as a per-proposal lock table does; the ledger replays to its head."""
        engine = _engine()
        ends = {"p1": 10, "p2": 20}
        for pid, end in ends.items():
            engine.submit(_proposal(pid=pid, discussion=(0, 5), voting=(5, end)), 0)
        oracle = LockTableRef({w: b.units for w, b in engine.balances.items()})
        now = 5
        for op, pid, wallet, option, quarters in ops:
            if op == "finalize":
                if engine.proposals[pid].phase is Phase.VOTING:
                    now = max(now, ends[pid])
                    engine.finalize(pid, now)
                    oracle.finalize(pid)
            elif now < ends[pid]:
                units = quarters * 10**9 // 4
                expected = oracle.cast(pid, wallet, units)
                try:
                    engine.cast(pid, WalletId(wallet), option, TokenAmount(units), now)
                    refused = None
                except InsufficientUnlockedTokens as exc:
                    refused = str(exc)
                assert refused == expected
            assert engine._locked == oracle.totals()
        assert replay(tuple(engine.ledger)).ledger.head_hash() == engine.ledger.head_hash()

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
                assert _locked_units(engine, w) <= balance


class TestCastBatch:
    """A batch equals a loop of single casts, up to and including the ballot that fails."""

    BALANCES = {"alice": 100, "bob": 50, "carol": 25, "dave": 10}

    def _engines(self, n=2):
        engines = []
        for _ in range(n):
            engine = _engine(balances=self.BALANCES)
            engine.submit(_proposal(pid="p1", voting=(5, 20)), 0)
            engine.submit(_proposal(pid="p2", voting=(5, 20)), 0)
            engine.cast("p2", WalletId("bob"), "reject", TokenAmount.parse(30), 5)  # a lock on another proposal
            engines.append(engine)
        return engines

    @staticmethod
    def _ballot(wallet, option, tokens):
        return WalletId(wallet), option, TokenAmount(tokens * 10**9 // 4)

    def _compare(self, ballots, tick=6):
        """Cast as one batch, as single casts, and as single casts of only the ballots before the first failure."""
        batched, single, prefix = self._engines(3)
        errors = []
        try:
            batched.cast_batch("p1", iter(ballots), tick)
            errors.append(None)
        except GovernanceError as exc:
            errors.append(type(exc))
        done = 0
        try:
            for wallet, option, committed in ballots:
                single.cast("p1", wallet, option, committed, tick)
                done += 1
            errors.append(None)
        except GovernanceError as exc:
            errors.append(type(exc))
        for wallet, option, committed in ballots[:done]:
            prefix.cast("p1", wallet, option, committed, tick)
        assert errors[0] is errors[1]
        for other in (single, prefix):
            assert tuple(batched.ledger) == tuple(other.ledger)
            assert batched._votes == other._votes
            for wallet in self.BALANCES:
                assert _locked_units(batched, wallet) == _locked_units(other, wallet)
        assert batched.finalize("p1", 20) == single.finalize("p1", 20)
        assert tuple(batched.ledger) == tuple(single.ledger)
        return errors[0], batched

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["alice", "bob", "carol", "dave", "mallory"]),
                st.sampled_from(["approve", "reject", "abstain"]),
                st.integers(min_value=0, max_value=420),
            ),
            max_size=12,
        )
    )
    @settings(max_examples=150)
    def test_any_batch_matches_single_casts(self, ballots):
        self._compare([self._ballot(*b) for b in ballots])

    @pytest.mark.parametrize(
        "bad, error",
        [
            (("carol", "approve", 0), ZeroCommitment),
            (("mallory", "approve", 4), GovernanceError),
            (("bob", "approve", 84), InsufficientUnlockedTokens),  # 21 tokens; 30 of bob's 50 are locked on p2
            (("carol", "abstain", 4), GovernanceError),
            (("alice", "reject", 40), None),  # a repeated wallet recasts, as a single cast would
        ],
    )
    def test_a_ballot_failing_mid_batch_leaves_the_ballots_before_it(self, bad, error):
        ballots = [self._ballot("alice", "approve", 400), self._ballot("dave", "reject", 40), self._ballot(*bad)]
        ballots.append(self._ballot("carol", "approve", 100))
        raised, batched = self._compare(ballots)
        assert raised is error
        casts = [loads_canonical(e.payload) for e in batched.ledger if '"event":"cast"' in e.payload]
        expected = ["alice", "dave"] if error else ["alice", "dave", "alice", "carol"]
        assert [c["wallet"] for c in casts if c["proposal"] == "p1"] == expected

    def test_ballots_after_a_failure_are_never_drawn(self):
        engine = self._engines(1)[0]
        drawn = []

        def ballots():
            for ballot in [self._ballot("alice", "approve", 4), self._ballot("carol", "approve", 0)]:
                drawn.append(ballot[0])
                yield ballot
            drawn.append("past the failure")

        with pytest.raises(ZeroCommitment):
            engine.cast_batch("p1", ballots(), 6)
        assert drawn == ["alice", "carol"]

    def test_batch_checks_run_even_for_an_empty_batch(self):
        engine = self._engines(1)[0]
        head, count = engine.ledger.head_hash(), len(engine.ledger)
        with pytest.raises(GovernanceError, match="unknown proposal"):
            engine.cast_batch("p9", [], 6)
        with pytest.raises(OutOfWindow):
            engine.cast_batch("p1", [], 20)
        assert (engine.ledger.head_hash(), len(engine.ledger)) == (head, count)  # nothing appended for the empty batches


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
        votes, result = engine.finalize("p1", 30)
        (vote,) = votes.values()
        (power,) = result.vote_power_units
        assert vote.cast_at == 5
        assert power == conviction_power(TokenAmount.parse(100), 25, self.alpha).units

    def test_switching_options_resets_accrual(self):
        engine = self._engine()
        engine.cast("p1", WalletId("alice"), "approve", TokenAmount.parse(100), 5)
        engine.cast("p1", WalletId("alice"), "reject", TokenAmount.parse(100), 15)
        votes, result = engine.finalize("p1", 30)
        (vote,) = votes.values()
        (power,) = result.vote_power_units
        assert vote.cast_at == 15
        assert power == conviction_power(TokenAmount.parse(100), 15, self.alpha).units

    def test_collapse_merge_takes_the_latest_cast_at(self):
        registry = IdentityRegistry(RegistryMode.COLLAPSE_PER_IDENTITY)
        registry.bind("alice", WalletId("bob"))
        registry.bind("alice", WalletId("alice"))
        engine = GovernanceEngine(
            balances={WalletId("alice"): TokenAmount.parse(100), WalletId("bob"): TokenAmount.parse(50)},
            supply=TokenAmount.parse(1000),
            genesis_context={"identity": IdentityFilter(registry, VotePolicy.DROP_UNVERIFIED)},
        )
        engine.submit(
            _proposal(mechanism=Mechanism.CONVICTION, conviction=self.alpha, voting=(5, 30)), 0
        )
        engine.cast("p1", WalletId("bob"), "approve", TokenAmount.parse(50), 5)
        engine.cast("p1", WalletId("alice"), "approve", TokenAmount.parse(100), 12)
        votes, result = engine.finalize("p1", 30)
        ((wallet, merged),) = votes.items()
        (power,) = result.vote_power_units
        assert wallet == WalletId("alice")
        assert merged.committed == TokenAmount.parse(150)
        assert merged.cast_at == 12
        assert power == conviction_power(TokenAmount.parse(150), 18, self.alpha).units

    def test_finalize_tallies_conviction_at_window_end(self):
        engine = self._engine()
        engine.cast("p1", WalletId("alice"), "approve", TokenAmount.parse(100), 5)
        engine.cast("p1", WalletId("bob"), "reject", TokenAmount.parse(50), 5)
        _, result = engine.finalize("p1", 30)
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
        kinds = [loads_canonical(e.payload)["event"] for e in engine.ledger]
        assert kinds == ["genesis", "submit", "phase", "cast", "finalize"]

    def test_genesis_snapshots_the_funding_state(self):
        engine = _engine()
        genesis = loads_canonical(next(iter(engine.ledger)).payload)
        assert genesis["supply"] == "1000.000000000"
        assert genesis["balances"]["alice"] == "100.000000000"
        assert genesis["wallet_universe_size"] == 3

    @staticmethod
    def _phases_and_replay(engine):
        """(proposal, tick) of each phase event in ledger order, once replay has re-derived the head."""
        assert replay(engine.ledger).ledger.head_hash() == engine.ledger.head_hash()
        recorded = (loads_canonical(entry.payload) for entry in engine.ledger)
        return [(event["proposal"], event["tick"]) for event in recorded if event["event"] == "phase"]

    def test_proposals_opening_at_one_tick_record_their_phase_in_submit_order(self):
        engine = _engine()
        for pid in ("p2", "p1", "p3"):
            engine.submit(_proposal(pid, discussion=(0, 5), voting=(5, 10)), 0)
        engine.advance_to(5)
        assert self._phases_and_replay(engine) == [("p2", 5), ("p1", 5), ("p3", 5)]

    def test_one_advance_past_two_starts_records_their_phase_in_submit_order(self):
        """The proposal submitted later opens first, but one advance_to crosses both starts."""
        engine = _engine()
        engine.submit(_proposal("late", discussion=(0, 7), voting=(7, 12)), 0)
        engine.submit(_proposal("early", discussion=(1, 4), voting=(4, 12)), 1)
        engine.advance_to(9)
        assert self._phases_and_replay(engine) == [("late", 9), ("early", 9)]

    def test_balances_are_kept_as_given_and_keyed_by_wallet_id(self):
        """The engine writes genesis from its balances unescaped, so a key must be a validated WalletId."""
        balances = {WalletId("a"): TokenAmount(5)}
        assert GovernanceEngine(balances=balances, supply=TokenAmount(5)).balances is balances
        for key in ("a", 'a"b'):
            with pytest.raises(GovernanceError, match="^balances must be keyed by WalletId$"):
                GovernanceEngine(balances={key: TokenAmount(5)}, supply=TokenAmount(5))

    def test_the_wallet_universe_cannot_be_set_apart_from_the_balances(self):
        with pytest.raises(TypeError):
            GovernanceEngine(balances={WalletId("a"): TokenAmount.parse(1)}, supply=TokenAmount.parse(1), wallet_universe_size=2)


class TestReplay:
    def _recorded_run(self):
        """Two proposals under an identity filter; p1 has a quorum gate and conviction params."""
        registry = IdentityRegistry(RegistryMode.COLLAPSE_PER_IDENTITY)
        for wallet in ("alice", "bob", "carol"):
            registry.bind(IdentityId(f"id-{wallet}"), WalletId(wallet))
        engine = GovernanceEngine(
            balances={WalletId(w): TokenAmount.parse(b) for w, b in {"alice": 100, "bob": 50, "carol": 25}.items()},
            supply=TokenAmount.parse(1000),
            genesis_context={
                "scenario": "replay",
                "mechanism": "conviction",
                "identity": IdentityFilter(registry, VotePolicy.DROP_UNVERIFIED),
            },
        )
        engine.submit(
            _proposal(
                pid="p1",
                mechanism=Mechanism.CONVICTION,
                conviction=ConvictionParams(Decimal("0.5")),
                quorum=QuorumConfig(QuorumBasis.TOKEN_SUPPLY_FRACTION, Decimal("0.1")),
            ),
            0,
        )
        engine.submit(_proposal(pid="p2", discussion=(0, 12), voting=(12, 20)), 1)
        engine.cast("p1", WalletId("alice"), "approve", TokenAmount.parse(100), 5)
        engine.cast("p1", WalletId("bob"), "reject", TokenAmount.parse(50), 6)
        engine.finalize("p1", 10)
        engine.cast("p2", WalletId("bob"), "reject", TokenAmount.parse(50), 12)
        engine.finalize("p2", 20)
        return engine

    def test_replay_reproduces_terminal_phases(self):
        recorded = self._recorded_run()
        replayed = replay(tuple(recorded.ledger))
        for pid, proposal in recorded.proposals.items():
            assert replayed.proposals[pid].phase is proposal.phase
        assert replayed.ledger.head_hash() == recorded.ledger.head_hash()  # finalize events record each tally

    def test_the_filter_an_engine_applies_is_the_one_its_genesis_records(self):
        """An IdentityFilter and no scenario or mechanism labels: the collapsing finalize replays clean."""
        registry = IdentityRegistry(RegistryMode.COLLAPSE_PER_IDENTITY)
        for identity, wallet in (("id-a", "alice"), ("id-a", "bob"), ("id-c", "carol")):
            assert registry.bind(identity, WalletId(wallet)).accepted
        engine = GovernanceEngine(
            balances={WalletId(w): TokenAmount.parse(b) for w, b in {"alice": 100, "bob": 44, "carol": 25}.items()},
            supply=TokenAmount.parse(1000),
            genesis_context={"identity": IdentityFilter(registry, "drop_unverified")},
        )
        engine.submit(_proposal(mechanism=Mechanism.QUADRATIC), 0)
        engine.cast("p1", WalletId("alice"), "approve", TokenAmount.parse(100), 5)
        engine.cast("p1", WalletId("bob"), "approve", TokenAmount.parse(44), 5)
        engine.cast("p1", WalletId("carol"), "reject", TokenAmount.parse(25), 5)
        votes, result = engine.finalize("p1", 10)
        assert {w: v.committed for w, v in votes.items()} == {"alice": TokenAmount.parse(144), "carol": TokenAmount.parse(25)}
        assert result.per_option_power["approve"] == VotingPower.parse(12)
        recorded = tuple(engine.ledger)
        genesis = loads_canonical(recorded[0].payload)
        assert genesis["identity"] == identity_record_ref(engine.identity)
        assert genesis["identity"]["registry"]["bindings"] == [
            {"identity": "id-a", "wallets": ["alice", "bob"]}, {"identity": "id-c", "wallets": ["carol"]},
        ]
        assert "scenario" not in genesis and "mechanism" not in genesis
        assert loads_canonical(recorded[6].payload)["event"] == "finalize"
        replayed = replay(recorded)
        assert replayed.ledger.head_hash() == engine.ledger.head_hash()
        assert identity_record_ref(replayed.identity) == identity_record_ref(engine.identity)

    def test_genesis_identity_is_absent_null_or_the_filter_record(self):
        balances = {WalletId("alice"): TokenAmount.parse(1)}
        def genesis(**context):
            engine = GovernanceEngine(balances=balances, supply=TokenAmount.parse(1), genesis_context=context or None)
            return loads_canonical(next(iter(engine.ledger)).payload)
        assert "identity" not in genesis()
        assert genesis(identity=None)["identity"] is None
        registry = IdentityRegistry(RegistryMode.STRICT_ONE_WALLET)
        record = {"policy": "admit_unverified", "registry": {"mode": "strict_one_wallet", "bindings": []}}
        assert genesis(identity=IdentityFilter(registry, VotePolicy.ADMIT_UNVERIFIED))["identity"] == record
        # A record alone is not a filter: the engine would apply nothing and replay would diverge.
        with pytest.raises(GovernanceError, match="IdentityFilter"):
            genesis(identity=record)

    def test_a_genesis_label_replay_would_refuse_fails_the_build(self):
        """A scenario label that is not a JSON string raises the error replay would raise on its genesis."""
        with pytest.raises(GovernanceError, match="^event 0: field 'scenario' is missing or has the wrong JSON type$"):
            GovernanceEngine(balances={WalletId("a"): TokenAmount(5)}, supply=TokenAmount(5), genesis_context={"scenario": 5})

    @given(
        st.fixed_dictionaries({}, optional={
            "scenario": JSON_VALUES | st.text(), "mechanism": JSON_VALUES | st.text(), "identity": st.none(),
        })
    )
    @settings(max_examples=80)
    def test_any_genesis_context_the_engine_accepts_replays_to_its_head(self, context):
        """The engine accepts exactly the string labels, and its persisted genesis replays to its head."""
        labels = [context[key] for key in ("scenario", "mechanism") if key in context]
        try:
            engine = GovernanceEngine(balances={WalletId("a"): TokenAmount(5)}, supply=TokenAmount(5), genesis_context=context)
        except GovernanceError:
            assert not all(type(label) is str for label in labels)
            return
        assert replay(load_ndjson(dump_ndjson(engine.ledger))).ledger.head_hash() == engine.ledger.head_hash()
        assert all(type(label) is str for label in labels)

    def test_replay_rejects_an_empty_ledger(self):
        with pytest.raises(GovernanceError, match="empty ledger"):
            replay([])

    def test_replay_requires_a_genesis_event(self):
        recorded = self._recorded_run()
        with pytest.raises(GovernanceError, match="genesis"):
            replay(tuple(recorded.ledger)[1:])

    def test_replay_detects_a_forged_outcome(self):
        """Flipping the recorded finalize phase makes the replay diverge."""
        recorded = self._recorded_run()
        entries = []
        for entry in recorded.ledger:
            payload = loads_canonical(entry.payload)
            if payload.get("event") == "finalize" and payload["proposal"] == "p1":
                forged = entry.payload.replace('"phase":"passed"', '"phase":"rejected"')
                assert forged != entry.payload
                entries.append(SimpleNamespace(payload=forged))
            else:
                entries.append(SimpleNamespace(payload=entry.payload))
        with pytest.raises(GovernanceError, match="replay diverged"):
            replay(entries)

    @pytest.mark.parametrize("name", preset_names())
    def test_replay_re_derives_every_preset_event_byte_for_byte(self, name):
        result = run(load_preset(name))
        recorded = tuple(result.ledger)
        replayed = replay(recorded)
        assert (replayed.ledger.head_hash(), len(replayed.ledger)) == (result.head_hash, len(recorded))

    def test_an_executed_event_verifies_but_does_not_replay(self):
        """The lifecycle ends at finalize: an executed event, re-chained after a preset's
        last finalize, keeps a clean hash chain, and replay refuses its unknown kind."""
        ledger = Ledger()
        for entry in run(load_preset("nonprofit_grant_vote")).ledger:
            ledger.append(entry.payload)
            last = loads_canonical(entry.payload)
        k = len(ledger)
        ledger.append(canonical_json({"event": "executed", "proposal": last["proposal"], "tick": last["tick"] + 1}))
        assert verify_chain(tuple(ledger)) is None
        with pytest.raises(GovernanceError, match=f"^event {k}: unknown event kind 'executed'$"):
            replay(tuple(ledger))

    def test_replay_detects_a_forged_tally(self):
        """A finalize event with a changed per-option power, re-chained, passes
        verify_chain but not replay."""
        recorded = tuple(run(load_preset("sybil_attack_quadratic")).ledger)
        forged_ledger = Ledger()
        forged_at = None
        for k, entry in enumerate(recorded):
            payload = loads_canonical(entry.payload)
            if forged_at is None and payload["event"] == "finalize":
                option, power = next(iter(payload["tally"]["per_option_power"].items()))
                payload["tally"]["per_option_power"][option] = fmt_units(parse_units(power) + 1)
                forged_at = k
            forged_ledger.append(canonical_json(payload))
        assert forged_at is not None
        assert verify_chain(tuple(forged_ledger)) is None
        with pytest.raises(GovernanceError, match=f"replay diverged at event {forged_at}:"):
            replay(tuple(forged_ledger))

    def test_replay_detects_an_event_it_does_not_re_derive(self):
        entries = list(self._recorded_run().ledger)
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
        replayed = replay(tuple(engine.ledger))
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
        recorded = tuple(run(scenario).ledger)
        casts = [loads_canonical(e.payload) for e in recorded if '"event":"cast"' in e.payload]
        assert [c["option"] for c in casts] == labels
        assert replay(recorded).ledger.head_hash() == recorded[-1].hash

    def test_replay_reads_back_an_exponent_form_threshold_and_decay_rate(self):
        """Below 10^-6 a submit event holds str() of a Decimal: 0E-9, 5.00E-7."""
        engine = _engine()
        quorum = QuorumConfig(QuorumBasis.TOKEN_SUPPLY_FRACTION, Decimal(0))
        engine.submit(_proposal(mechanism=Mechanism.CONVICTION, conviction=ConvictionParams(Decimal("0.0000005")), quorum=quorum), 0)
        engine.finalize("p1", 10)
        submit = tuple(engine.ledger)[1].payload
        assert '"decay_rate":"5.00E-7"' in submit and '"threshold":"0E-9"' in submit
        assert replay(tuple(engine.ledger)).ledger.head_hash() == engine.ledger.head_hash()

    @staticmethod
    def _rechained(payloads):
        """A valid chain over the events: dicts are encoded canonically, text is kept as is."""
        ledger = Ledger()
        for payload in payloads:
            ledger.append(payload if isinstance(payload, str) else canonical_json(payload))
        assert verify_chain(tuple(ledger)) is None
        return tuple(ledger)

    @pytest.mark.parametrize("name", preset_names())
    def test_a_forged_wallet_universe_diverges_at_event_0(self, name):
        """The engine writes len(balances) as the wallet universe, so replay re-derives it."""
        payloads = [loads_canonical(e.payload) for e in run(load_preset(name)).ledger]
        payloads[0]["wallet_universe_size"] += 7
        with pytest.raises(GovernanceError, match="replay diverged at event 0:"):
            replay(self._rechained(payloads))

    def test_an_event_derived_past_the_end_of_the_record_diverges(self):
        """One tick opens two proposals' votes; a record cut after the first phase event
        still derives the second, at an index the record does not have."""
        engine = _engine()
        engine.submit(_proposal("p1"), 0)
        engine.submit(_proposal("p2"), 0)
        engine.advance_to(5)
        recorded = tuple(engine.ledger)[:-1]
        assert [loads_canonical(e.payload)["event"] for e in recorded] == ["genesis", "submit", "submit", "phase"]
        with pytest.raises(GovernanceError, match=f"replay diverged at event {len(recorded)}: payload differs"):
            replay(recorded)

    def test_a_replayed_engine_keeps_no_entries(self):
        recorded = tuple(self._recorded_run().ledger)
        replayed = replay(recorded)
        assert (len(replayed.ledger), replayed.ledger.head_hash()) == (len(recorded), recorded[-1].hash)
        with pytest.raises(GovlabError, match="keeps none"):
            list(replayed.ledger)

    def test_replay_stops_at_the_first_divergent_event(self, monkeypatch):
        """The divergence is raised as the event is derived: the events after it are not applied."""
        texts = [e.payload for e in self._recorded_run().ledger]
        k = next(i for i, text in enumerate(texts) if '"event":"cast"' in text)
        texts[k] = json.dumps(loads_canonical(texts[k]), sort_keys=True)
        finalized = []
        monkeypatch.setattr(GovernanceEngine, "finalize", lambda engine, pid, now: finalized.append(pid))
        with pytest.raises(GovernanceError, match=f"replay diverged at event {k}:"):
            replay(self._rechained(texts))
        assert finalized == []

    def test_a_quorum_submit_without_its_config_names_the_proposal(self):
        events = [loads_canonical(e.payload) for e in self._recorded_run().ledger]
        submit = next(e for e in events if e["event"] == "submit" and e["proposal"] == "p1")
        submit.update(mechanism="quorum", quorum=None)
        with pytest.raises(GovernanceError) as excinfo:
            replay(self._rechained(events))
        assert str(excinfo.value) == "proposal 'p1': mechanism 'quorum' requires a quorum config"

    def _one_tick_casts(self):
        engine = _engine()
        engine.submit(_proposal(), 0)
        engine.cast_batch(
            "p1",
            [
                (WalletId("alice"), "approve", TokenAmount.parse(100)),
                (WalletId("bob"), "reject", TokenAmount.parse(50)),
                (WalletId("carol"), "reject", TokenAmount.parse(25)),
            ],
            5,
        )
        engine.finalize("p1", 10)
        return [loads_canonical(e.payload) for e in engine.ledger]

    def test_replay_re_derives_a_batch_as_one_group(self):
        events = self._one_tick_casts()
        assert [e["event"] for e in events].count("cast") == 3
        replayed = replay(self._rechained(events))
        assert replayed.proposals[ProposalId("p1")].phase is Phase.PASSED

    def test_divergence_before_a_failing_cast_in_one_group_is_reported_first(self):
        events = self._one_tick_casts()
        k = next(i for i, e in enumerate(events) if e.get("wallet") == "alice")
        assert events[k + 1]["wallet"] == "bob"
        events[k]["committed"] = "1.5"  # parses as 1.500000000: a non-canonical record
        events[k + 1]["committed"] = "60.000000000"  # bob holds 50: this cast fails
        with pytest.raises(GovernanceError, match=f"replay diverged at event {k}:"):
            replay(self._rechained(events))

    def test_a_failing_cast_mid_group_raises_its_own_error(self):
        events = self._one_tick_casts()
        k = next(i for i, e in enumerate(events) if e.get("wallet") == "bob")
        events[k]["committed"] = "60.000000000"
        with pytest.raises(InsufficientUnlockedTokens):
            replay(self._rechained(events))

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("cast", "tick", None),
            ("cast", "tick", True),
            ("cast", "wallet", 7),
            ("cast", "option", None),
            ("cast", "committed", 5),
            ("cast", "proposal", None),
            ("submit", "voting_window", [5]),
            ("submit", "options", "approve"),
            ("submit", "quorum", []),
            ("phase", "tick", "5"),
            ("finalize", "proposal", None),
            ("finalize", "tick", None),
            ("genesis", "balances", []),
            ("genesis", "wallet_universe_size", None),
            ("submit", "event", None),
            ("submit", "quorum.threshold", None),
            ("submit", "conviction.decay_rate", None),
            ("genesis", "identity.registry.bindings", None),
            ("genesis", "identity.policy", 7),
            ("genesis", "identity.registry.bindings.0.wallets", "alice"),
            ("genesis", "scenario", 7),
        ],
    )
    def test_a_missing_or_mistyped_field_names_its_event(self, kind, field, value):
        """field is a dotted path; a None value deletes the field."""
        events = [loads_canonical(e.payload) for e in self._recorded_run().ledger]
        k = next(i for i, e in enumerate(events) if e["event"] == kind)
        *parents, key = field.split(".")
        target = events[k]
        for part in parents:
            target = target[int(part) if part.isdigit() else part]
        if value is None:
            del target[key]
        else:
            target[key] = value
        with pytest.raises(GovernanceError, match=f"event {k}: field .*{field!r}"):
            replay(self._rechained(events))

    @pytest.mark.parametrize(
        "forge",
        [
            lambda g: g.update(balances={w: b.split(".")[0] for w, b in g["balances"].items()}),
            lambda g: g.update(note="an extra key"),
            lambda g: g["identity"]["registry"]["bindings"][1]["wallets"].append("alice"),
            # No wallet to bind, so replay never reads the identity, not even to refuse its name.
            lambda g: g["identity"]["registry"]["bindings"].append({"identity": "not an id!", "wallets": []}),
        ],
        ids=["integer-balances", "extra-key", "refused-binding", "walletless-binding"],
    )
    def test_a_forged_genesis_diverges_at_event_0(self, forge):
        """Replay re-derives genesis: a record the engine would not write diverges."""
        events = [loads_canonical(e.payload) for e in self._recorded_run().ledger]
        forge(events[0])
        with pytest.raises(GovernanceError, match="replay diverged at event 0:"):
            replay(self._rechained(events))

    @pytest.mark.parametrize(
        "dumps",
        [
            lambda event: json.dumps(event, sort_keys=True),
            lambda event: json.dumps(dict(reversed(list(event.items()))), separators=(",", ":")),
        ],
        ids=["spaced", "reordered"],
    )
    def test_a_non_canonical_event_diverges(self, dumps):
        """An event re-chained with the same fields in other bytes is not what the engine writes."""
        texts = [e.payload for e in self._recorded_run().ledger]
        k = next(i for i, text in enumerate(texts) if '"event":"cast"' in text)
        texts[k] = dumps(loads_canonical(texts[k]))
        assert loads_canonical(texts[k]) == loads_canonical(tuple(self._recorded_run().ledger)[k].payload)
        with pytest.raises(GovernanceError, match=f"replay diverged at event {k}:"):
            replay(self._rechained(texts))

    @pytest.mark.parametrize(
        "wallet, error, message",
        [
            ("dave", GovernanceError, "unknown wallet 'dave'"),
            ("bad id!", GovlabError, "WalletId must match [A-Za-z0-9_-]{1,64}: 'bad id!'"),
        ],
        ids=["absent-from-genesis", "malformed"],
    )
    def test_a_cast_wallet_outside_genesis_is_checked_as_it_is_cast(self, wallet, error, message):
        """Replay swaps a recorded wallet for its genesis WalletId; any other wallet meets the cast's own checks."""
        events = [loads_canonical(e.payload) for e in self._recorded_run().ledger]
        k = next(i for i, e in enumerate(events) if e["event"] == "cast")
        events[k]["wallet"] = wallet
        with pytest.raises(GovlabError) as raised:
            replay(self._rechained(events))
        assert type(raised.value) is error and str(raised.value) == message

    def test_a_bound_wallet_outside_genesis_balances_is_checked_as_it_is_bound(self):
        """Replay binds a funded wallet's WalletId from the balances; any other is checked by bind."""
        events = [loads_canonical(e.payload) for e in self._recorded_run().ledger]
        events[0]["identity"]["registry"]["bindings"][0]["wallets"].append("bad id!")
        with pytest.raises(GovlabError) as raised:
            replay(self._rechained(events))
        assert str(raised.value) == "WalletId must match [A-Za-z0-9_-]{1,64}: 'bad id!'"

    def test_a_non_object_event_names_its_index(self):
        events = [loads_canonical(e.payload) for e in self._recorded_run().ledger]
        events[3] = ["cast"]
        with pytest.raises(GovernanceError, match="event 3: field 'event'"):
            replay(self._rechained(events))

    @pytest.mark.parametrize("name", preset_names())
    def test_replay_reads_a_one_shot_generator(self, name):
        result = run(load_preset(name))
        replayed = replay(entry for entry in result.ledger)
        assert replayed.ledger.head_hash() == result.head_hash

    @pytest.mark.parametrize("at", ["genesis", "submit", "first-cast", "last-cast", "finalize"])
    def test_a_divergent_record_is_read_no_further_than_one_entry_past_it(self, at):
        recorded = tuple(run(load_preset("sybil_attack_quadratic")).ledger)
        texts = [e.payload for e in recorded]
        kinds = [loads_canonical(text)["event"] for text in texts]
        k = {
            "genesis": 0,
            "submit": kinds.index("submit"),
            "first-cast": kinds.index("cast"),
            "last-cast": len(kinds) - 1 - kinds[::-1].index("cast"),
            "finalize": kinds.index("finalize"),
        }[at]
        texts[k] = json.dumps(loads_canonical(texts[k]), sort_keys=True)
        drawn = 0

        def counting(entries):
            nonlocal drawn
            for entry in entries:
                drawn += 1
                yield entry

        with pytest.raises(GovernanceError, match=f"replay diverged at event {k}:"):
            replay(counting(self._rechained(texts)))
        assert drawn <= k + 2

    def test_a_divergence_is_raised_before_a_later_entry_is_decoded(self):
        """Entries are decoded as they are reached: a non-canonical cast at j comes
        before a mistyped field at k > j, which a decode of every payload first
        would have raised instead."""
        texts = [e.payload for e in self._recorded_run().ledger]
        events = [loads_canonical(text) for text in texts]
        j = next(i for i, e in enumerate(events) if e["event"] == "cast")
        k = next(i for i, e in enumerate(events) if e["event"] == "finalize")
        assert j < k
        texts[j] = json.dumps(events[j], sort_keys=True)
        events[k]["tick"] = "10"
        texts[k] = canonical_json(events[k])
        with pytest.raises(GovernanceError, match=f"event {k}: field 'tick'"):
            events_module.decode(k, texts[k])
        with pytest.raises(GovernanceError, match=f"replay diverged at event {j}:"):
            replay(self._rechained(texts))


def _sybil_scenario(source):
    if source == "preset":
        return load_preset("sybil_attack_quadratic")
    spec = importlib.util.spec_from_file_location("govlab_bench_workloads", WORKLOADS_PATH)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return parse_scenario(workloads.sybil_identity(1, 0.05))


class TestReadPathFastPaths:
    """Reading back a ledger govlab wrote takes the fixed-shape paths: each line by two patterns
    and scanstring, each cast by events' cast pattern, each amount string parsed once."""

    @pytest.mark.parametrize("source", ["preset", "generated"])
    def test_a_sybil_ledger_is_read_without_the_general_paths(self, source, monkeypatch, tmp_path):
        path = tmp_path / "ledger.jsonl"
        text = dump_ndjson(run(_sybil_scenario(source)).ledger)
        path.write_text(text, encoding="ascii")
        decodes = {"ledger": 0, "events": 0}
        for name, module in (("ledger", ledger_module), ("events", events_module)):
            def counted(payload, name=name, original=module.loads_canonical):
                decodes[name] += 1
                return original(payload)
            monkeypatch.setattr(module, "loads_canonical", counted)
        parsed = []
        original_parse = TokenAmount.parse.__func__
        monkeypatch.setattr(TokenAmount, "parse", classmethod(lambda cls, v: parsed.append(v) or original_parse(cls, v)))

        entries = read_ndjson(path)
        assert load_ndjson(text) == entries
        assert decodes["ledger"] == 0
        kinds = [json.loads(entry.payload)["event"] for entry in entries]
        assert kinds.count("cast") > 100
        assert replay(entries).ledger.head_hash() == entries[-1].hash
        assert decodes["events"] == len(kinds) - kinds.count("cast")
        assert len(parsed) == len(set(parsed)) < kinds.count("cast")


    def test_each_genesis_wallet_is_matched_once(self, id_matches):
        """Its balance builds its WalletId, and its binding and its casts reuse it.  An honest agent's
        id is also its identity's name, matched once more for its binding."""
        entries = tuple(run(_sybil_scenario("generated")).ledger)
        genesis = json.loads(entries[0].payload)
        names = Counter(binding["identity"] for binding in genesis["identity"]["registry"]["bindings"])
        id_matches.clear()
        assert replay(entries).ledger.head_hash() == entries[-1].hash
        assert {id_matches[wallet] - names[wallet] for wallet in genesis["balances"]} == {1}


class TestPhaseEdgeSet:
    """No operation sequence reaches a transition outside the declared edges."""

    EDGES = {
        (Phase.DRAFT, Phase.DISCUSSION),
        (Phase.DISCUSSION, Phase.VOTING),
        (Phase.VOTING, Phase.PASSED),
        (Phase.VOTING, Phase.REJECTED),
        (Phase.VOTING, Phase.QUORUM_FAILED),
    }

    @given(
        st.lists(
            st.sampled_from(["submit", "advance", "cast", "finalize"]),
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
            except GovernanceError:
                pass
            observe()
        for edge in zip(phases, phases[1:]):
            assert edge in self.EDGES
