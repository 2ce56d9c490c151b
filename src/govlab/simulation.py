"""Scenario-driven simulation: populations of honest voters, whales, Sybil
attackers, and abstainers vote under a chosen mechanism.

Runs are strictly deterministic: identical scenario and seed produce
byte-identical reports, and the only consumer of randomness is the simulated
identity provider's false-accept draw, so scenarios without fraudulent
claims are seed-invariant.  The report is canonical JSON and deliberately
omits the seed so that another seed on a randomness-free scenario leaves
the bytes unchanged.
"""

from __future__ import annotations

from collections import defaultdict
from decimal import Decimal
from itertools import repeat
from operator import mul
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .core import (
    GovlabError,
    IdentityId,
    OutcomeKind,
    TallyResult,
    TokenAmount,
    VoteRecord,
    VotingPower,
    WalletId,
    _Record,
    canonical_json,
    fmt_decimal,
    fmt_units,
    ratio_half_even,
)
from .governance import GovernanceEngine, Proposal, count_votes
from .identity import IdentityFilter, IdentityRegistry, RejectionReason, SimulatedProvider
from .ledger import Ledger, LedgerEntry
from .mechanisms import Mechanism, MechanismError, config_error, power_rule
from .probes import MAX_PROBE_AGENTS, MAX_PROBE_OPTIONS, arrow_probes
from .scenario import AgentKind, AgentSpec, ProposalSpec, Scenario, ScenarioValidationError
from .sybil import split_uniform

REPORT_SCHEMA_VERSION = 1


class SimulationError(GovlabError):
    """Metric preconditions and runner failures."""


def gini(powers: Iterable[int]) -> Decimal:
    """Gini coefficient sum_i sum_j |x_i - x_j| / (2 n sum(x)) of power unit ints, half-even at 9 digits."""
    return _gini(sorted(powers))


def _gini(ranked: list[int]) -> Decimal:
    """gini of ascending unit ints, by the sorted prefix form, which is exact in
    integer units and equal to the pairwise double sum."""
    if not ranked or ranked[-1] == 0:
        raise SimulationError("gini is undefined for empty or all-zero power vectors")
    n = len(ranked)
    num = sum(map(mul, range(1 - n, n, 2), ranked))  # the weights 2i - n + 1, i = 0..n-1
    return ratio_half_even(num, n * sum(ranked))


def min_controlling_set(powers: Iterable[int]) -> int:
    """Smallest number of voters whose combined power, in unit ints, strictly exceeds half the total."""
    return _min_controlling_set(sorted(powers))


def _min_controlling_set(ranked: list[int]) -> int:
    """min_controlling_set of ascending unit ints.  Greedy from the largest is exact
    here: the top-k prefix maximizes every k-subset sum."""
    total = sum(ranked)
    if total == 0:
        raise SimulationError("no controlling set exists for empty or all-zero powers")
    acc = 0
    for count, u in enumerate(reversed(ranked), start=1):
        acc += u
        if 2 * acc > total:
            return count
    raise AssertionError("unreachable: the full set always exceeds half")


class SimulationSetup(_Record):
    """One scenario's voting agents, each with its wallet tuple, in scenario order (the one list of who
    votes), its funded balances, its identity layer and the report's binding counts."""

    __slots__ = ("voters", "balances", "identity", "binding_stats")


def build_setup(scenario: Scenario) -> SimulationSetup:
    """Fund wallets and, when configured, run identity verification."""
    voters: list[tuple[AgentSpec, tuple[WalletId, ...]]] = []
    balances: dict[WalletId, TokenAmount] = {}
    identity = None
    stats = None
    if (cfg := scenario.identity) is not None:
        provider_seed = cfg.provider.seed if cfg.provider.seed is not None else scenario.seed
        provider = SimulatedProvider(cfg.provider.false_accept_rate, provider_seed)
        registry = IdentityRegistry(cfg.mode)
        accepted = 0
        by_reason: dict[RejectionReason, int] = {}
    for agent in scenario.agents:
        wallets = agent.wallets()
        if agent.votes():
            voters.append((agent, wallets))
        if agent.kind is AgentKind.SYBIL_ATTACKER:
            for wallet, amount in zip(wallets, split_uniform(agent.balance, agent.n_wallets)):
                balances[wallet] = amount
        else:
            balances[wallets[0]] = agent.balance
        if cfg is not None:  # each wallet is reviewed and bound in agent order, as it is funded
            fake = agent.fakes_identities()
            # Each wallet's claim: its own fake identity, or the agent's one identity, built once.
            claims = agent.fake_ids() if fake else repeat(IdentityId(agent.id))
            for wallet, claim in zip(wallets, claims):
                reason = registry.bind(claim, wallet) if provider.review(fake) else RejectionReason.PROVIDER_REJECTED
                if reason is None:
                    accepted += 1
                else:
                    by_reason[reason] = by_reason.get(reason, 0) + 1
    if cfg is not None:
        identity = IdentityFilter(registry, cfg.policy)
        stats = {"bindings_accepted": accepted, "bindings_rejected": sum(by_reason.values()),
                 "rejections_by_reason": dict(sorted((reason.value, n) for reason, n in by_reason.items()))}

    return SimulationSetup(tuple(voters), balances, identity, stats)


class RunResult(_Record):
    # by_agent maps a proposal id to its _agent_rows.
    __slots__ = ("scenario", "engine", "by_agent", "report", "report_json", "head_hash")

    @property
    def ledger(self) -> Ledger:
        return self.engine.ledger


def _engine_proposal(scenario: Scenario, spec: ProposalSpec) -> Proposal:
    return Proposal(
        id=spec.id,
        options=spec.options,
        discussion_window=spec.discussion_window,
        voting_window=spec.voting_window,
        mechanism=scenario.mechanism,
        quorum=scenario.quorum,
        conviction=scenario.conviction,
    )


def _play_schedule(
    scenario: Scenario, setup: SimulationSetup, engine: GovernanceEngine
) -> tuple[dict[str, dict[str, Any]], dict[str, dict[str, tuple[int, int, int]]]]:
    """Apply the scenario's events to the engine in tick order.  Returns, per proposal id, its
    report entry and its _agent_rows, taken from its counted votes as it finalizes.

    The scenario compiles to tick -> (submits, finalizes), with an entry at every voting-window
    start so its phase event keeps its tick, and tick -> proposal id -> the run of voters casting
    then, one list slot per cast: a cast on a tick of its own costs a dict and a list.  Only those
    ticks are visited, each dropped as it is.  A run is one cast_batch, its voters in scenario
    order and its ballots generated as the engine draws them.  cast_batch and finalize advance
    the clock themselves, so a tick with neither advances it alone.  parse_scenario keeps voting
    windows apart, so a tick holds the casts of one proposal.
    """
    balances, rule = setup.balances, power_rule(scenario.mechanism, scenario.conviction)
    steps: defaultdict[int, tuple[list, list]] = defaultdict(lambda: ([], []))
    casts: dict[int, dict[str, list]] = {}
    for spec in scenario.proposals:
        steps[spec.discussion_window.start][0].append(spec)
        steps[spec.voting_window.start]  # an entry, so the phase event keeps its tick
        steps[spec.voting_window.end][1].append(spec)
        for voter in setup.voters:
            if (runs := casts.get(tick := voter[0].cast_tick(spec))) is None:
                runs = casts[tick] = {}
            if (run := runs.get(spec.id)) is None:
                run = runs[spec.id] = []
            run.append(voter)

    attackers = [agent for agent, _ in setup.voters if agent.kind is AgentKind.SYBIL_ATTACKER]
    entries, by_agent, idle = {}, {}, ((), ())
    for now in sorted(t for t in steps.keys() | casts.keys() if t <= scenario.ticks):
        submits, finalizes = steps.pop(now, idle)
        for spec in submits:
            engine.submit(_engine_proposal(scenario, spec), now)
        if runs := casts.pop(now, None):
            for pid, voters in runs.items():
                ballots = ((w, agent.preference[0], balances[w]) for agent, wallets in voters for w in wallets)
                engine.cast_batch(pid, ballots, now)
        elif not finalizes:
            engine.advance_to(now)
        for spec in finalizes:
            votes, result = engine.finalize(spec.id, now)
            rows = by_agent[spec.id] = _agent_rows(setup.voters, votes, result.vote_power_units)
            entry = entries[spec.id] = proposal_entry(engine, spec.id, result)
            entry["sybil_amplification"] = _amplification(attackers, spec, rule, rows)
    return entries, by_agent


def _agent_rows(
    voters: Sequence[tuple[AgentSpec, tuple[WalletId, ...]]], votes: Mapping[WalletId, VoteRecord],
    powers: Sequence[int],
) -> dict[str, tuple[int, int, int]]:
    """Per voter with a counted vote: (wallets, token units, power units) of its counted votes, with
    the power unit ints the tally gave them, in the order of votes.  A vote merged from several wallets counts
    for the agent that holds its wallet, the group's least.  An agent with one counted vote shares
    its vote's and its power's unit ints."""
    power_of = dict(zip(votes, powers, strict=True))
    rows = {}
    for agent, wallets in voters:
        if len(wallets) == 1:  # a one-wallet voter is read without building a list
            mine = wallets if wallets[0] in power_of else ()
        else:
            mine = [wallet for wallet in wallets if wallet in power_of]
        if len(mine) == 1:
            rows[agent.id] = (1, votes[mine[0]].committed.units, power_of[mine[0]])
        elif mine:
            rows[agent.id] = (len(mine), sum(votes[w].committed.units for w in mine), sum(power_of[w] for w in mine))
    return rows


def run(scenario: Scenario, *, ledger_sink: Callable[[LedgerEntry], object] | None = None) -> RunResult:
    """Execute a scenario's events in tick order (idle ticks cost nothing) and report.

    With a ledger_sink, each ledger entry goes to it as it is appended and the result's
    ledger keeps none; without one, the ledger keeps them all."""
    return _run(scenario, build_setup(scenario), ledger_sink)


def _run(scenario: Scenario, setup: SimulationSetup, ledger_sink: Callable[[LedgerEntry], object] | None) -> RunResult:
    engine = GovernanceEngine(
        balances=setup.balances,
        supply=scenario.supply,
        genesis_context={"scenario": scenario.name, "mechanism": scenario.mechanism.value, "identity": setup.identity},
        ledger_sink=ledger_sink,
    )

    entries, by_agent = _play_schedule(scenario, setup, engine)
    report = _build_report(scenario, setup, engine, [entries[spec.id] for spec in scenario.proposals])
    report_json = canonical_json(report) + "\n"
    return RunResult(
        scenario=scenario,
        engine=engine,
        by_agent=by_agent,
        report=report,
        report_json=report_json,
        head_hash=engine.ledger.head_hash(),
    )


def proposal_entry(engine: GovernanceEngine, proposal_id: str, result: TallyResult) -> dict[str, Any]:
    """The report entry of a proposal the engine has just finalized to result, every field but
    sybil_amplification.  Each is determined by the engine, so replaying its ledger gives the same."""
    powers, tokens = result.vote_power_units, result.participating_tokens.units
    supply_units, universe = engine.supply.units, len(engine.balances)
    ranked = sorted(powers)  # the one sort of both concentration metrics
    total = sum(ranked)
    return {
        "id": proposal_id,
        "phase": engine.proposals[proposal_id].phase.value,
        **result.to_json_obj(),  # outcome, per_option_power and participating_tokens, as finalize records them
        "participation": {  # "0E-9" is fmt_decimal() of a zero nine-digit Decimal
            "token_supply_fraction": fmt_decimal(ratio_half_even(tokens, supply_units)) if supply_units else "0E-9",
            "wallet_count_fraction": fmt_decimal(ratio_half_even(len(powers), universe)) if universe else "0E-9",
        },
        "voters": len(powers),
        "power_gini": fmt_decimal(_gini(ranked)) if total else None,
        "min_controlling_set": _min_controlling_set(ranked) if total else None,
        "total_power": str(VotingPower(total)),
    }


def _amplification(
    attackers: Sequence[AgentSpec], spec: ProposalSpec, rule: Callable[[int, int], int],
    rows: Mapping[str, tuple[int, int, int]],
) -> dict[str, str | None]:
    """sybil_amplification, the one entry field that needs the agent-to-wallet map: per attacker among
    the voters, in scenario order, its realized power over the power of its counted tokens as one
    wallet held over the same ticks, or None when it has no counted vote or that baseline is zero."""
    amplification = {}
    for agent in attackers:
        mine = rows.get(agent.id)
        honest = mine and rule(mine[1], spec.voting_window.end - agent.cast_tick(spec))
        amplification[agent.id] = fmt_decimal(ratio_half_even(mine[2], honest)) if honest else None
    return amplification


def _build_report(
    scenario: Scenario, setup: SimulationSetup, engine: GovernanceEngine, proposals: list[dict[str, Any]]
) -> dict[str, Any]:
    """The report.  Its top-level fields come from the engine, save the identity block's binding
    counts and arrow_probes, which need the scenario."""
    identity = engine.identity
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "scenario": engine.scenario,
        "mechanism": engine.mechanism,
        "supply": str(engine.supply),
        "wallet_universe_size": len(engine.balances),
        "identity": identity and {
            "mode": identity.registry.mode.value, "policy": identity.policy.value, **setup.binding_stats,
        },
        "proposals": proposals,
        "arrow_probes": _probe_report(scenario, setup, engine),
        "ledger_head": engine.ledger.head_hash(),
    }


def _probe_report(scenario: Scenario, setup: SimulationSetup, engine: GovernanceEngine) -> dict[str, Any] | None:
    """The Arrow probes on the first proposal, or None past the enumeration bounds.  One count,
    every voter's wallets committing their full balance to the first option at the window start,
    fixes each voter's power and the quorum test: each identity the registry binds holds wallets of
    one agent, so every profile drops and merges the same wallets, and no power depends on an option."""
    options = scenario.proposals[0].options
    if len(setup.voters) > MAX_PROBE_AGENTS or len(options) > MAX_PROBE_OPTIONS:
        return None
    proposal = engine.proposals[scenario.proposals[0].id]
    window = proposal.voting_window
    votes = {
        wallet: VoteRecord(options[0], setup.balances[wallet], window.start)
        for _, wallets in setup.voters for wallet in wallets
    }
    votes, result, _ = count_votes(proposal, votes, engine.identity, engine.supply, len(engine.balances), window.end)
    by_agent = _agent_rows(setup.voters, votes, result.vote_power_units)
    ids = [agent.id for agent, _ in setup.voters]
    power = [by_agent.get(voter, (0, 0, 0))[2] for voter in ids]
    return arrow_probes(ids, options, power, result.outcome.kind != OutcomeKind.QUORUM_FAILED)


def report_csv_lines(result: RunResult) -> Iterator[str]:
    """Per-agent realized power, one row per (proposal, agent), each yielded as one line:
    no field ever needs CSV quoting, since a run validates every id as [A-Za-z0-9_-]
    (a wallet or proposal id) and every amount is digits and a point."""
    yield "proposal,agent,wallets_counted,counted_tokens,realized_power\n"
    # A token or quadratic agent commits the same tokens and gets the same power on every proposal,
    # and every agent without a counted vote has the zero row, so each distinct row's tail is formatted
    # once.  The memo holds at most one tail more than there are agents: past that it starts over.
    agents, tails = result.scenario.agents, {}
    for spec in result.scenario.proposals:
        by_agent = result.by_agent[spec.id]
        for agent in agents:
            row = by_agent.get(agent.id, (0, 0, 0))
            if (tail := tails.get(row)) is None:
                if len(tails) > len(agents):
                    tails.clear()
                wallets, tokens, realized = row
                tail = tails[row] = f"{wallets},{fmt_units(tokens)},{fmt_units(realized)}\n"
            yield f"{spec.id},{agent.id},{tail}"


def report_csv(result: RunResult) -> str:
    """The whole CSV of report_csv_lines as one string."""
    return "".join(report_csv_lines(result))


def compare_mechanisms(scenario: Scenario, mechanisms: Sequence[str | Mechanism]) -> tuple[dict[str, Any], list[dict[str, str]]]:
    """Run one scenario under several mechanisms with the same seed.

    Returns (merged report, table rows).  The scenario must be valid under
    every listed mechanism; violations are collected before any run starts.
    """
    parsed = []
    errors = []
    for m in mechanisms:
        try:
            parsed.append(Mechanism.parse(m))
        except MechanismError as exc:
            errors.append(str(exc))
    if errors:
        raise ScenarioValidationError(errors)
    if not parsed:
        raise ScenarioValidationError(["no mechanisms to compare"])
    if len(set(parsed)) != len(parsed):
        raise ScenarioValidationError(["mechanisms to compare must be distinct"])
    errors = [e for m in parsed if (e := config_error(m, scenario.quorum, scenario.conviction))]
    if errors:
        raise ScenarioValidationError(errors)

    runs: dict[str, Any] = {}
    rows: list[dict[str, str]] = []
    include_conviction = Mechanism.CONVICTION in parsed
    # Nothing in the setup depends on the mechanism, and the engine only reads it.
    setup = build_setup(scenario)
    for m in parsed:
        # Only the report is read, so each run's ledger entries are dropped as they are appended.
        result = _run(scenario._replace(mechanism=m), setup, lambda entry: None)
        runs[m.value] = result.report
        rows.append(_table_row(m, result, include_conviction))

    merged = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "scenario": scenario.name,
        "mechanisms": [m.value for m in parsed],
        "runs": runs,
    }
    return merged, rows


def _render_cells(per_proposal: dict[str, str]) -> str:
    if len(per_proposal) == 1:
        return next(iter(per_proposal.values()))
    return ",".join(f"{pid}={val}" for pid, val in per_proposal.items())


def _table_row(mechanism: Mechanism, result: RunResult, include_conviction: bool) -> dict[str, str]:
    outcomes: dict[str, str] = {}
    ginis: dict[str, str] = {}
    amps: dict[str, str] = {}
    totals: dict[str, str] = {}
    for p in result.report["proposals"]:
        outcome = p["outcome"]
        if outcome["type"] == "winner":
            outcomes[p["id"]] = f"winner({outcome['option']})"
        elif outcome["type"] == "tie":
            outcomes[p["id"]] = f"tie({'|'.join(outcome['options'])})"
        else:
            outcomes[p["id"]] = "quorum_failed"
        ginis[p["id"]] = p["power_gini"] if p["power_gini"] is not None else "-"
        amp = p["sybil_amplification"]
        if not amp:
            amps[p["id"]] = "-"
        else:
            cells = [
                f"{agent}={val if val is not None else 'undefined'}" for agent, val in amp.items()
            ]
            if len(cells) == 1:
                cells = [next(iter(amp.values())) or "undefined"]
            amps[p["id"]] = ",".join(cells)
        totals[p["id"]] = p["total_power"]

    row = {
        "mechanism": mechanism.value,
        "outcome": _render_cells(outcomes),
        "gini": _render_cells(ginis),
        "amplification": _render_cells(amps),
    }
    if include_conviction:
        row["conviction_at_finalize"] = (
            _render_cells(totals) if mechanism is Mechanism.CONVICTION else "-"
        )
    return row


def render_table(rows: list[dict[str, str]]) -> str:
    """Fixed-width text table; column order is stable."""
    columns = list(rows[0])
    widths = {c: max(len(c), max(len(r[c]) for r in rows)) for c in columns}
    lines = ["  ".join(c.ljust(widths[c]) for c in columns).rstrip()]
    for r in rows:
        lines.append("  ".join(r[c].ljust(widths[c]) for c in columns).rstrip())
    return "\n".join(lines) + "\n"
