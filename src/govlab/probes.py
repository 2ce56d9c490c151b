"""Brute-force probes for two Arrow social-choice criteria.

These report on the actual mechanism by exhaustive enumeration of small
instances; they are diagnostics, not verifications.  dictator_probe flags
an agent whose top choice wins in *every* preference profile; iia_probe
hunts for a profile where deleting a non-winning option flips the winner
between the remaining options (an independence violation witness).
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Any

from .core import GovlabError, TallyResult, VoteRecord, _Record
from .governance import Proposal, count_votes
from .scenario import AgentSpec, Scenario
from .simulation import SimulationSetup, _engine_proposal, build_setup

MAX_PROBE_AGENTS = 4
MAX_PROBE_OPTIONS = 3


class InstanceTooLarge(GovlabError):
    """Enumeration bound exceeded; probes are exhaustive by design."""


def _profile_tally(
    scenario: Scenario, setup: SimulationSetup, proposal: Proposal, choices: dict[str, str]
) -> TallyResult:
    """Count one preference profile as finalize would: every voter commits its full
    balance at the voting-window start, and the count is at the window's end."""
    window = proposal.voting_window
    votes = [
        VoteRecord(wallet, proposal.id, choices[agent.id], setup.balances[wallet], window.start)
        for agent in scenario.agents if agent.votes()
        for wallet in setup.wallets_by_agent[agent.id]
    ]
    return count_votes(proposal, votes, setup.identity, scenario.supply, len(setup.balances), window.end)[1]


def _check_bounds(scenario: Scenario) -> tuple[list[AgentSpec], Proposal]:
    """The voting agents and the first proposal as the engine runs it, within the enumeration bounds."""
    voters = [a for a in scenario.agents if a.votes()]
    options = scenario.proposals[0].options
    if len(voters) > MAX_PROBE_AGENTS:
        raise InstanceTooLarge(f"{len(voters)} voting agents exceed the enumeration bound of {MAX_PROBE_AGENTS}")
    if len(options) > MAX_PROBE_OPTIONS:
        raise InstanceTooLarge(f"{len(options)} options exceed the enumeration bound of {MAX_PROBE_OPTIONS}")
    return voters, _engine_proposal(scenario, scenario.proposals[0])


def dictator_probe(scenario: Scenario, *, setup: SimulationSetup | None = None) -> tuple[str, ...]:
    """Agents whose chosen option wins in every single-choice profile.

    Enumerates (#options)^(#voters) profiles; a tie or quorum failure in any
    profile clears every agent whose choice failed to win it.
    """
    voters, proposal = _check_bounds(scenario)
    if setup is None:
        setup = build_setup(scenario)
    candidates = {a.id for a in voters}
    for profile in product(proposal.options, repeat=len(voters)):
        if not candidates:
            break
        choices = {agent.id: option for agent, option in zip(voters, profile)}
        outcome = _profile_tally(scenario, setup, proposal, choices).outcome
        winner = outcome.option if outcome.is_winner() else None
        candidates = {a for a in candidates if choices[a] == winner}
    return tuple(a.id for a in voters if a.id in candidates)


class IiaWitness(_Record):
    """A profile where deleting a losing option changes the winner."""

    __slots__ = ("profile", "removed_option", "winner_before", "winner_after")  # profile: (agent id, ranking) pairs

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "profile": {agent: list(ranking) for agent, ranking in self.profile},
            "removed_option": self.removed_option,
            "winner_before": self.winner_before,
            "winner_after": self.winner_after,
        }


def iia_probe(scenario: Scenario, *, setup: SimulationSetup | None = None) -> IiaWitness | None:
    """Search ranking profiles for an independence-of-irrelevant-alternatives breach.

    Every voter ranks all options; ballots are top choices.  For each profile
    with a unique winner, each non-winning option is deleted and ballots fall
    to the next surviving preference.  A changed (unique) winner is returned
    as the witness.  Two-option instances trivially have none.
    """
    voters, proposal = _check_bounds(scenario)
    options = proposal.options
    if len(options) < 3:
        return None
    if setup is None:
        setup = build_setup(scenario)
    # The proposal with each option deleted.
    without = {removed: proposal._replace(options=tuple(o for o in options if o != removed)) for removed in options}
    rankings = list(permutations(options))
    for profile in product(rankings, repeat=len(voters)):
        choices = {agent.id: ranking[0] for agent, ranking in zip(voters, profile)}
        outcome = _profile_tally(scenario, setup, proposal, choices).outcome
        if not outcome.is_winner():
            continue
        before = outcome.option
        for removed in options:
            if removed == before:
                continue
            fallback = {
                agent.id: next(o for o in ranking if o != removed)
                for agent, ranking in zip(voters, profile)
            }
            after_outcome = _profile_tally(scenario, setup, without[removed], fallback).outcome
            if after_outcome.is_winner() and after_outcome.option != before:
                return IiaWitness(
                    profile=tuple(
                        (agent.id, tuple(ranking)) for agent, ranking in zip(voters, profile)
                    ),
                    removed_option=removed,
                    winner_before=before,
                    winner_after=after_outcome.option,
                )
    return None
