"""Brute-force probes for two Arrow social-choice criteria.

These report on the actual mechanism by exhaustive enumeration of small
instances; they are diagnostics, not verifications.  dictator_probe flags
an agent whose top choice wins in *every* preference profile; iia_probe
hunts for a profile where deleting a non-winning option flips the winner
between the remaining options (an independence violation witness).
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Any, Callable, Sequence

from .core import GovlabError, OutcomeKind, TallyOutcome, VoteRecord, _Record
from .governance import count_votes
from .mechanisms import decide
from .scenario import AgentSpec, Scenario
from .simulation import SimulationSetup, _engine_proposal, _index_votes, build_setup

MAX_PROBE_AGENTS = 4
MAX_PROBE_OPTIONS = 3


class InstanceTooLarge(GovlabError):
    """Enumeration bound exceeded; probes are exhaustive by design."""


def _profile_outcomes(
    scenario: Scenario, setup: SimulationSetup | None, fewest_options: int = 2
) -> tuple[list[AgentSpec], tuple[str, ...], Callable[[Sequence[str], dict[str, str]], TallyOutcome]] | None:
    """The voters, the first proposal's options and outcome(options, choices), finalize's outcome when
    each voter commits its full balance to its choice at the voting-window start (None for fewer than
    fewest_options options).  Every identity the registry binds holds wallets of exactly one agent, so
    one count, every wallet on the first option, fixes each voter's power and the quorum test.
    """
    voters = [a for a in scenario.agents if a.votes()]
    options = scenario.proposals[0].options
    if len(voters) > MAX_PROBE_AGENTS:
        raise InstanceTooLarge(f"{len(voters)} voting agents exceed the enumeration bound of {MAX_PROBE_AGENTS}")
    if len(options) > MAX_PROBE_OPTIONS:
        raise InstanceTooLarge(f"{len(options)} options exceed the enumeration bound of {MAX_PROBE_OPTIONS}")
    if len(options) < fewest_options:
        return None
    if setup is None:
        setup = build_setup(scenario)
    proposal = _engine_proposal(scenario, scenario.proposals[0])
    window = proposal.voting_window
    owner = {wallet: agent.id for agent in voters for wallet in setup.wallets_by_agent[agent.id]}
    votes = [VoteRecord(wallet, proposal.id, options[0], setup.balances[wallet], window.start) for wallet in owner]
    votes, result, _ = count_votes(proposal, votes, setup.identity, scenario.supply, len(setup.balances), window.end)
    power = {agent: row[2] for agent, row in _index_votes(owner, votes, result.vote_powers).items()}
    quorum_met = result.outcome.kind != OutcomeKind.QUORUM_FAILED

    def outcome(options: Sequence[str], choices: dict[str, str]) -> TallyOutcome:
        per_option_units = dict.fromkeys(options, 0)
        for agent, units in power.items():
            per_option_units[choices[agent]] += units
        return decide(per_option_units, quorum_met)

    return voters, options, outcome


def dictator_probe(scenario: Scenario, *, setup: SimulationSetup | None = None) -> tuple[str, ...]:
    """Agents whose chosen option wins in every single-choice profile.

    Enumerates (#options)^(#voters) profiles; a tie or quorum failure in any
    profile clears every agent whose choice failed to win it.
    """
    return _dictator(*_profile_outcomes(scenario, setup))


def _dictator(voters: list[AgentSpec], options: tuple[str, ...], outcome: Callable) -> tuple[str, ...]:
    candidates = {a.id for a in voters}
    for profile in product(options, repeat=len(voters)):
        if not candidates:
            break
        choices = {agent.id: option for agent, option in zip(voters, profile)}
        result = outcome(options, choices)
        candidates = {a for a in candidates if result.is_winner() and choices[a] == result.option}
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
    counted = _profile_outcomes(scenario, setup, fewest_options=3)
    return None if counted is None else _iia(*counted)


def _iia(voters: list[AgentSpec], options: tuple[str, ...], outcome: Callable) -> IiaWitness | None:
    if len(options) < 3:
        return None
    for profile in product(permutations(options), repeat=len(voters)):
        before = outcome(options, {agent.id: ranking[0] for agent, ranking in zip(voters, profile)})
        if not before.is_winner():
            continue
        for removed in options:
            if removed == before.option:
                continue
            survivors = tuple(o for o in options if o != removed)
            fallback = {agent.id: next(o for o in ranking if o != removed) for agent, ranking in zip(voters, profile)}
            after = outcome(survivors, fallback)
            if after.is_winner() and after.option != before.option:
                return IiaWitness(
                    profile=tuple((agent.id, tuple(ranking)) for agent, ranking in zip(voters, profile)),
                    removed_option=removed,
                    winner_before=before.option,
                    winner_after=after.option,
                )
    return None
