"""Scenario-driven simulation: populations of honest voters, whales, Sybil
attackers, and abstainers vote under a chosen mechanism.

Runs are strictly deterministic: identical scenario and seed produce
byte-identical reports, and the only consumer of randomness is the simulated
identity provider's false-accept draw, so scenarios without fraudulent
claims are seed-invariant.  The report is canonical JSON and deliberately
omits the effective seed so that a seed override on a randomness-free
scenario leaves the bytes unchanged.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from decimal import Decimal
from typing import Any, Callable, Sequence

from .core import (
    GovlabError,
    TokenAmount,
    VotingPower,
    WalletId,
    canonical_json,
    ratio_half_even,
)
from .governance import GovernanceEngine, Proposal
from .identity import (
    IdentityClaim,
    IdentityId,
    IdentityRegistry,
    ProviderParams,
    RejectionReason,
    SimulatedProvider,
    VerificationOutcome,
    VotePolicy,
    filter_and_collapse,
)
from .ledger import Ledger
from .mechanisms import Mechanism, MechanismError, vote_power
from .scenario import (
    AgentKind,
    AgentSpec,
    IdentityStrategy,
    ProposalSpec,
    Scenario,
    ScenarioValidationError,
)
from .sybil import split_uniform

REPORT_SCHEMA_VERSION = 1


class SimulationError(GovlabError):
    """Metric preconditions and runner failures."""


def gini(powers: Sequence[VotingPower]) -> Decimal:
    """Gini coefficient sum_i sum_j |x_i - x_j| / (2 n sum(x)), half-even at 9 digits.

    Computed with the sorted prefix form, which is exact in integer units and
    equal to the pairwise double sum.
    """
    units = sorted(p.units for p in powers)
    if not units or units[-1] == 0:
        raise SimulationError("gini is undefined for empty or all-zero power vectors")
    n = len(units)
    total = sum(units)
    num = sum((2 * i - n + 1) * x for i, x in enumerate(units))
    return ratio_half_even(num, n * total)


def min_controlling_set(powers: Sequence[VotingPower]) -> int:
    """Smallest number of voters whose combined power strictly exceeds half the total.

    Greedy over descending powers is exact here: the top-k prefix maximizes
    every k-subset sum.
    """
    units = sorted((p.units for p in powers), reverse=True)
    total = sum(units)
    if not units or total == 0:
        raise SimulationError("no controlling set exists for empty or all-zero powers")
    acc = 0
    for count, u in enumerate(units, start=1):
        acc += u
        if 2 * acc > total:
            return count
    raise AssertionError("unreachable: the full set always exceeds half")


def agent_wallets(agent: AgentSpec) -> tuple[WalletId, ...]:
    """Deterministic wallet ids for an agent; attackers get index suffixes."""
    if agent.kind is AgentKind.SYBIL_ATTACKER:
        width = len(str(agent.n_wallets - 1))
        return tuple(WalletId(f"{agent.id}_w{k:0{width}d}") for k in range(agent.n_wallets))
    return (WalletId(agent.id),)


@dataclass(frozen=True, slots=True)
class BindingStats:
    accepted: int
    rejected: int
    by_reason: dict[str, int]

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "bindings_accepted": self.accepted,
            "bindings_rejected": self.rejected,
            "rejections_by_reason": dict(sorted(self.by_reason.items())),
        }


@dataclass(frozen=True, slots=True)
class SimulationSetup:
    """Wallet layout, funded balances, and the identity layer for one run."""

    wallets_by_agent: dict[str, tuple[WalletId, ...]]
    balances: dict[WalletId, TokenAmount]
    wallet_universe_size: int
    registry: IdentityRegistry | None
    policy: VotePolicy | None
    binding_stats: BindingStats | None

    def vote_filter(self) -> Callable | None:
        if self.registry is None:
            return None
        return lambda votes: filter_and_collapse(votes, self.registry, self.policy)


def build_setup(scenario: Scenario, *, seed_override: int | None = None) -> SimulationSetup:
    """Fund wallets and, when configured, run identity verification."""
    effective_seed = scenario.seed if seed_override is None else seed_override
    wallets_by_agent: dict[str, tuple[WalletId, ...]] = {}
    balances: dict[WalletId, TokenAmount] = {}
    for agent in scenario.agents:
        wallets = agent_wallets(agent)
        wallets_by_agent[agent.id] = wallets
        if agent.kind is AgentKind.SYBIL_ATTACKER:
            for wallet, amount in zip(wallets, split_uniform(agent.balance, agent.n_wallets)):
                balances[wallet] = amount
        else:
            balances[wallets[0]] = agent.balance

    registry = None
    policy = None
    stats = None
    if scenario.identity is not None:
        cfg = scenario.identity
        provider_seed = cfg.provider.seed if cfg.provider.seed is not None else effective_seed
        provider = SimulatedProvider(
            ProviderParams(false_accept_rate=cfg.provider.false_accept_rate, seed=provider_seed)
        )
        registry = IdentityRegistry(cfg.mode)
        policy = cfg.policy
        accepted = 0
        by_reason: dict[str, int] = {}

        def record(outcome: VerificationOutcome) -> None:
            nonlocal accepted
            if outcome.accepted:
                accepted += 1
            else:
                reason = outcome.reason.value
                by_reason[reason] = by_reason.get(reason, 0) + 1

        for agent in scenario.agents:
            wallets = wallets_by_agent[agent.id]
            fake = (
                agent.kind is AgentKind.SYBIL_ATTACKER
                and agent.identity_strategy is IdentityStrategy.FAKE_IDENTITIES
            )
            width = len(str(len(wallets) - 1)) if len(wallets) > 1 else 1
            for k, wallet in enumerate(wallets):
                if fake:
                    claim = IdentityClaim(
                        identity=IdentityId(f"{agent.id}_fake{k:0{width}d}"),
                        wallet=wallet,
                        fraudulent=True,
                    )
                else:
                    claim = IdentityClaim(identity=IdentityId(agent.id), wallet=wallet)
                if not provider.review(claim):
                    record(VerificationOutcome.rejected(RejectionReason.PROVIDER_REJECTED))
                    continue
                record(registry.bind(claim.identity, claim.wallet))
        stats = BindingStats(
            accepted=accepted, rejected=sum(by_reason.values()), by_reason=by_reason
        )

    return SimulationSetup(
        wallets_by_agent=wallets_by_agent,
        balances=balances,
        wallet_universe_size=len(balances),
        registry=registry,
        policy=policy,
        binding_stats=stats,
    )


@dataclass(frozen=True, slots=True)
class RunResult:
    scenario: Scenario
    setup: SimulationSetup
    engine: GovernanceEngine
    by_agent: dict[str, dict[str, list[int]]]  # proposal id -> _index_votes rows
    report: dict[str, Any]
    report_json: str
    head_hash: str

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


def _play_schedule(scenario: Scenario, setup: SimulationSetup, engine: GovernanceEngine) -> None:
    """Apply the scenario's events to the engine in tick order.

    The scenario compiles to tick -> (submits, casts, finalizes), casts agent-major,
    and only those ticks are visited.  Every voting-window start has an entry, so
    its phase event keeps its tick.
    """
    schedule: dict[int, tuple[list, list, list]] = {}
    for spec in scenario.proposals:
        schedule.setdefault(spec.discussion_window.start, ([], [], []))[0].append(spec)
        schedule.setdefault(spec.voting_window.start, ([], [], []))
        schedule.setdefault(spec.voting_window.end, ([], [], []))[2].append(spec)
    for agent in scenario.agents:
        if agent.votes():
            for spec in scenario.proposals:
                cast_at = agent.cast_at if agent.cast_at is not None else spec.voting_window.start
                schedule.setdefault(cast_at, ([], [], []))[1].append((agent, spec))

    for now in sorted(t for t in schedule if t <= scenario.ticks):
        submits, casts, finalizes = schedule[now]
        for spec in submits:
            engine.submit(_engine_proposal(scenario, spec), now)
        engine.advance_to(now)
        for agent, spec in casts:
            option = agent.preference[0]
            for wallet in setup.wallets_by_agent[agent.id]:
                engine.cast(spec.id, wallet, option, setup.balances[wallet], now)
        for spec in finalizes:
            engine.finalize(spec.id, now)


def _index_votes(
    owner: dict[WalletId, str], engine: GovernanceEngine, spec: ProposalSpec
) -> dict[str, list[int]]:
    """Per agent: [wallets, token units, power units] counted, with the powers the tally computed."""
    by_agent: dict[str, list[int]] = {}
    powers = engine.results[spec.id].vote_powers
    for vote, power in zip(engine.counted_votes[spec.id], powers, strict=True):
        row = by_agent.setdefault(owner[vote.wallet], [0, 0, 0])
        row[0] += 1
        row[1] += vote.committed.units
        row[2] += power.units
    return by_agent


def run(scenario: Scenario, *, seed_override: int | None = None) -> RunResult:
    """Execute a scenario's events in tick order (idle ticks cost nothing) and report."""
    setup = build_setup(scenario, seed_override=seed_override)
    genesis_context: dict[str, Any] = {
        "scenario": scenario.name,
        "mechanism": scenario.mechanism.value,
        "identity": None,
    }
    if setup.registry is not None:
        genesis_context["identity"] = {
            "policy": setup.policy.value,
            "registry": setup.registry.to_json_obj(),
        }
    engine = GovernanceEngine(
        balances=setup.balances,
        supply=scenario.supply,
        wallet_universe_size=setup.wallet_universe_size,
        vote_filter=setup.vote_filter(),
        genesis_context=genesis_context,
    )

    _play_schedule(scenario, setup, engine)
    owner = {w: aid for aid, wallets in setup.wallets_by_agent.items() for w in wallets}
    by_agent = {spec.id: _index_votes(owner, engine, spec) for spec in scenario.proposals}
    report = _build_report(scenario, setup, engine, by_agent)
    report_json = canonical_json(report) + "\n"
    return RunResult(
        scenario=scenario,
        setup=setup,
        engine=engine,
        by_agent=by_agent,
        report=report,
        report_json=report_json,
        head_hash=engine.ledger.head_hash(),
    )


def _proposal_metrics(
    scenario: Scenario, engine: GovernanceEngine, spec: ProposalSpec, by_agent: dict[str, list[int]]
) -> dict[str, Any]:
    result = engine.results[spec.id]
    powers = result.vote_powers
    total_power_units = sum(p.units for p in powers)

    supply_units = scenario.supply.units
    token_fraction = (
        ratio_half_even(result.participating_tokens.units, supply_units)
        if supply_units > 0
        else Decimal("0.000000000")
    )
    wallet_fraction = ratio_half_even(len(powers), engine.wallet_universe_size) if engine.wallet_universe_size else Decimal("0.000000000")

    amplification: dict[str, Any] = {}
    for agent in scenario.agents:
        if agent.kind is not AgentKind.SYBIL_ATTACKER:
            continue
        mine = by_agent.get(agent.id)
        if mine is None:
            amplification[agent.id] = None
            continue
        _, counted_units, realized_units = mine
        # Baseline: the counted tokens as one wallet, held over the same ticks.
        cast_tick = agent.cast_at if agent.cast_at is not None else spec.voting_window.start
        honest_units = vote_power(
            scenario.mechanism,
            TokenAmount.from_units(counted_units),
            spec.voting_window.end - cast_tick,
            scenario.conviction,
        ).units
        amplification[agent.id] = (
            str(ratio_half_even(realized_units, honest_units)) if honest_units else None
        )

    return {
        "id": spec.id,
        "phase": engine.proposals[spec.id].phase.value,
        "outcome": result.outcome.to_json_obj(),
        "per_option_power": {o: str(p) for o, p in result.per_option_power.items()},
        "participating_tokens": str(result.participating_tokens),
        "participation": {
            "token_supply_fraction": str(token_fraction),
            "wallet_count_fraction": str(wallet_fraction),
        },
        "voters": len(powers),
        "power_gini": str(gini(powers)) if total_power_units else None,
        "min_controlling_set": min_controlling_set(powers) if total_power_units else None,
        "total_power": str(VotingPower.from_units(total_power_units)),
        "sybil_amplification": amplification,
    }


def _build_report(
    scenario: Scenario,
    setup: SimulationSetup,
    engine: GovernanceEngine,
    by_agent: dict[str, dict[str, list[int]]],
) -> dict[str, Any]:
    identity_obj = None
    if scenario.identity is not None:
        identity_obj = {
            "mode": scenario.identity.mode.value,
            "policy": scenario.identity.policy.value,
        }
        identity_obj.update(setup.binding_stats.to_json_obj())

    report: dict[str, Any] = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "scenario": scenario.name,
        "mechanism": scenario.mechanism.value,
        "supply": str(scenario.supply),
        "wallet_universe_size": setup.wallet_universe_size,
        "identity": identity_obj,
        "proposals": [
            _proposal_metrics(scenario, engine, spec, by_agent[spec.id]) for spec in scenario.proposals
        ],
        "arrow_probes": _probe_report(scenario, setup),
        "ledger_head": engine.ledger.head_hash(),
    }
    return report


def _probe_report(scenario: Scenario, setup: SimulationSetup) -> dict[str, Any] | None:
    from .probes import dictator_probe, iia_probe

    voters = [a for a in scenario.agents if a.votes()]
    options = scenario.proposals[0].options
    if len(voters) > 4 or len(options) > 3:
        return None
    probes: dict[str, Any] = {
        "dictator_probe": {"flagged": list(dictator_probe(scenario, setup=setup))}
    }
    if len(options) == 3:
        witness = iia_probe(scenario, setup=setup)
        probes["iia_probe"] = {"witness": witness.to_json_obj() if witness else None}
    else:
        probes["iia_probe"] = {"witness": None}
    return probes


def report_csv(result: RunResult) -> str:
    """Per-agent realized power, one row per (proposal, agent)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["proposal", "agent", "wallets_counted", "counted_tokens", "realized_power"])
    for spec in result.scenario.proposals:
        by_agent = result.by_agent[spec.id]
        for agent in result.scenario.agents:
            wallets, tokens, realized = by_agent.get(agent.id, (0, 0, 0))
            writer.writerow(
                [
                    spec.id,
                    agent.id,
                    wallets,
                    str(TokenAmount.from_units(tokens)),
                    str(VotingPower.from_units(realized)),
                ]
            )
    return out.getvalue()


def compare_mechanisms(
    scenario: Scenario,
    mechanisms: Sequence[str | Mechanism],
    *,
    seed_override: int | None = None,
) -> tuple[dict[str, Any], list[dict[str, str]]]:
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
    for m in parsed:
        if m is Mechanism.QUORUM and scenario.quorum is None:
            errors.append(f"mechanism {m.value!r} requires a quorum config in the scenario")
        if m is Mechanism.CONVICTION and scenario.conviction is None:
            errors.append(f"mechanism {m.value!r} requires conviction params in the scenario")
    if errors:
        raise ScenarioValidationError(errors)

    runs: dict[str, Any] = {}
    rows: list[dict[str, str]] = []
    include_conviction = Mechanism.CONVICTION in parsed
    for m in parsed:
        result = run(scenario.with_overrides(mechanism=m), seed_override=seed_override)
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
    if not rows:
        return ""
    columns = list(rows[0])
    widths = {c: max(len(c), max(len(r[c]) for r in rows)) for c in columns}
    lines = ["  ".join(c.ljust(widths[c]) for c in columns).rstrip()]
    for r in rows:
        lines.append("  ".join(r[c].ljust(widths[c]) for c in columns).rstrip())
    return "\n".join(lines) + "\n"
