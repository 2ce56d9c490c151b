"""Seeded scenario generators for the benchmark workloads.

Each generator returns a scenario as a plain JSON object; the benchmark writes
it to a file and that file is the only input handed to govlab.  The same
(seed, scale) always gives the same bytes.  `scale` multiplies the population
(agents and wallets), never the horizon, so `scale=0.5` is the half-size run
behind the growth ratios.  Sizes are fixed per workload and the seed only
changes values (balances, rankings, cast ticks, identity draws), so the work
per run stays comparable across seeds.
"""

from __future__ import annotations

import json
import random

NANO = 10**9


def _tokens(units: int) -> str:
    return f"{units // NANO}.{units % NANO:09d}"


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _ranking(rng: random.Random, options: list[str]) -> list[str]:
    ranking = list(options)
    rng.shuffle(ranking)
    return ranking


def _sequential_proposals(count: int, options: list[str], voting_len: int) -> tuple[list[dict], int]:
    proposals = []
    tick = 0
    for k in range(count):
        discussion = [tick, tick + 5]
        voting = [tick + 5, tick + 5 + voting_len]
        proposals.append(
            {"id": f"p{k + 1}", "options": options, "discussion_window": discussion, "voting_window": voting}
        )
        tick = voting[1]
    return proposals, tick


def _scenario(name: str, seed: int, ticks: int, agents: list[dict], proposals: list[dict], **extra) -> dict:
    held = sum(int(a["balance"].replace(".", "")) for a in agents)
    scenario = {
        "schema_version": 1,
        "name": name,
        "seed": seed % 2**64,
        "ticks": ticks,
        "supply": _tokens(held + 1000 * NANO),
        "agents": agents,
        "proposals": proposals,
    }
    scenario.update(extra)
    return scenario


def crowd_quadratic(seed: int, scale: float = 1.0) -> dict:
    """Many honest voters, a few whales and abstainers, three sequential
    three-option proposals under quadratic voting with a quorum gate."""
    rng = _rng("crowd_quadratic", seed)
    options = ["fund", "defer", "reject"]
    proposals, ticks = _sequential_proposals(3, options, voting_len=10)
    agents = []
    for i in range(round(2000 * scale)):
        agents.append(
            {
                "id": f"h{i:05d}",
                "kind": "honest",
                "balance": _tokens(rng.randrange(NANO, 1000 * NANO)),
                "preference": _ranking(rng, options),
            }
        )
    for i in range(5):
        agents.append(
            {
                "id": f"whale{i}",
                "kind": "whale",
                "balance": _tokens(rng.randrange(50_000 * NANO, 100_000 * NANO)),
                "preference": _ranking(rng, options),
            }
        )
    for i in range(round(20 * scale)):
        agents.append({"id": f"idle{i:03d}", "kind": "abstainer", "balance": _tokens(rng.randrange(NANO, 500 * NANO))})
    return _scenario(
        "crowd_quadratic",
        seed,
        ticks,
        agents,
        proposals,
        mechanism="quadratic",
        quorum={"basis": "token_supply_fraction", "threshold": "0.25"},
    )


def sybil_identity(seed: int, scale: float = 1.0) -> dict:
    """A few hundred honest voters against four Sybil attackers with
    thousands of wallets each, filtered by an identity layer whose provider
    falsely accepts some fake identities."""
    rng = _rng("sybil_identity", seed)
    options = ["approve", "reject"]
    proposals, ticks = _sequential_proposals(2, options, voting_len=10)
    agents = []
    for i in range(round(300 * scale)):
        agents.append(
            {
                "id": f"h{i:04d}",
                "kind": "honest",
                "balance": _tokens(rng.randrange(NANO, 2000 * NANO)),
                "preference": _ranking(rng, options),
            }
        )
    strategies = ["fake_identities", "one_identity", "fake_identities", "one_identity"]
    for i, strategy in enumerate(strategies):
        agents.append(
            {
                "id": f"attacker{i}",
                "kind": "sybil_attacker",
                "balance": _tokens(rng.randrange(20_000 * NANO, 40_000 * NANO)),
                "preference": _ranking(rng, options),
                "n_wallets": round(2000 * scale),
                "identity_strategy": strategy,
            }
        )
    return _scenario(
        "sybil_identity",
        seed,
        ticks,
        agents,
        proposals,
        mechanism="quadratic",
        identity={
            "mode": "collapse_per_identity",
            "policy": "drop_unverified",
            "provider": {"false_accept_rate": "0.25"},
        },
    )


def conviction_horizon(seed: int, scale: float = 1.0) -> dict:
    """Conviction voting on one proposal with a long voting window; cast
    ticks are spread over the window, so late entry matters."""
    rng = _rng("conviction_horizon", seed)
    options = ["grant", "hold", "return"]
    proposals, ticks = _sequential_proposals(1, options, voting_len=20_000)
    start, end = proposals[0]["voting_window"]
    agents = []
    for i in range(round(150 * scale)):
        agents.append(
            {
                "id": f"h{i:04d}",
                "kind": "honest" if i % 50 else "whale",
                "balance": _tokens(rng.randrange(NANO, 5000 * NANO)),
                "preference": _ranking(rng, options),
                "cast_at": rng.randrange(start, end),
            }
        )
    return _scenario(
        "conviction_horizon",
        seed,
        ticks,
        agents,
        proposals,
        mechanism="conviction",
        conviction={"decay_rate": "0.000300000"},
    )


WORKLOADS = {
    "crowd_quadratic": crowd_quadratic,
    "sybil_identity": sybil_identity,
    "conviction_horizon": conviction_horizon,
}


def scenario_text(workload: str, seed: int, scale: float = 1.0) -> str:
    return json.dumps(WORKLOADS[workload](seed, scale), indent=1, sort_keys=True) + "\n"
