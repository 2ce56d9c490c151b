"""Brute-force probes for two Arrow social-choice criteria.

These report on the actual mechanism by exhaustive enumeration of small
instances; they are diagnostics, not verifications.  The dictator probe flags
an agent whose top choice wins in *every* preference profile; the IIA probe
hunts for a profile where deleting a non-winning option flips the winner
between the remaining options (an independence violation witness).

A run counts the votes once (simulation._probe_report); this module only enumerates
profiles, each decided by mechanisms.decide on per-option sums of the voters' powers.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Any, Callable, Sequence

from .core import TallyOutcome
from .mechanisms import decide

MAX_PROBE_AGENTS = 4
MAX_PROBE_OPTIONS = 3


def arrow_probes(
    voters: Sequence[str], options: tuple[str, ...], power: Sequence[int], quorum_met: bool
) -> dict[str, Any]:
    """The report's arrow_probes, voters[i] holding power[i] counted units in every profile,
    which all share the count's quorum test.  A tie or quorum failure in any single-choice
    profile clears every agent whose choice failed to win it.  Ranking profiles vote top
    choices; deleting a non-winning option moves ballots to the next surviving preference,
    and the first change of unique winner is the independence witness."""

    def outcome(options: Sequence[str], choices: Sequence[str]) -> TallyOutcome:
        per_option_units = dict.fromkeys(options, 0)
        for units, choice in zip(power, choices):
            per_option_units[choice] += units
        return decide(per_option_units, quorum_met)

    candidates = set(voters)
    for profile in product(options, repeat=len(voters)):
        if not candidates:
            break
        result = outcome(options, profile)  # its option is None unless one option wins
        candidates = {v for v, choice in zip(voters, profile) if v in candidates and result.option == choice}

    return {
        "dictator_probe": {"flagged": [v for v in voters if v in candidates]},
        "iia_probe": {"witness": _iia_witness(voters, options, outcome)},
    }


def _iia_witness(
    voters: Sequence[str], options: tuple[str, ...], outcome: Callable[..., TallyOutcome]
) -> dict[str, Any] | None:
    for profile in product(permutations(options), repeat=len(voters)):
        before = outcome(options, [ranking[0] for ranking in profile])
        if not before.is_winner():
            continue
        for removed in options:
            if removed == before.option:
                continue
            survivors = tuple(o for o in options if o != removed)
            after = outcome(survivors, [next(o for o in ranking if o != removed) for ranking in profile])
            if after.is_winner() and after.option != before.option:
                return {
                    "profile": {v: list(ranking) for v, ranking in zip(voters, profile)},
                    "removed_option": removed,
                    "winner_before": before.option,
                    "winner_after": after.option,
                }
    return None
