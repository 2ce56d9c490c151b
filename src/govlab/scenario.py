"""Scenario files: the JSON schema driving a simulation run (schema_version 1).

Validation is collect-everything: a bad file reports every violation it
contains, each naming the offending agent, proposal, or field.  Decimal
quantities may be written as strings ("10.500000000") or JSON numbers;
number literals are parsed as exact decimals, never binary floats.
"""

from __future__ import annotations

import json
import re
from decimal import Decimal, InvalidOperation
from enum import Enum
from importlib import resources
from typing import Any

from .core import JSON_FAULTS, FixedPointError, GovlabError, ProposalId, TokenAmount, _Record, _set, fmt_units, parse_units
from .governance import Window, WindowError
from .mechanisms import ConvictionParams, Mechanism, MechanismError, QuorumConfig, QuorumBasis
from .identity import RegistryMode, VotePolicy

SCHEMA_VERSION = 1
# A run costs about 50 us and 1.5 KiB per wallet (one attacker with 10^5 wallets took
# 5.1 s and 175 MiB peak RSS), so this cap bounds the wallets one scenario file can ask for.
MAX_WALLETS = 100_000
# Each voting wallet casts once per proposal, at about 17 us and 0.6 KiB per cast
# (2.5 * 10^5 casts took 4.2-4.3 s and 200-220 MiB peak RSS), so this cap bounds the casts.
MAX_CASTS = 250_000


class ScenarioValidationError(GovlabError):
    """Carries the full list of violations found in a scenario."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class AgentKind(str, Enum):
    HONEST = "honest"
    WHALE = "whale"
    SYBIL_ATTACKER = "sybil_attacker"
    ABSTAINER = "abstainer"


class IdentityStrategy(str, Enum):
    ONE_IDENTITY = "one_identity"  # bind every attack wallet to one identity
    FAKE_IDENTITIES = "fake_identities"  # one fraudulent identity per wallet


# The strings each enum-valued field accepts.  A value is checked to be a str first:
# a JSON object or array is unhashable, so a set lookup would raise TypeError.
_QUORUM_BASES = frozenset(b.value for b in QuorumBasis)
_REGISTRY_MODES = frozenset(m.value for m in RegistryMode)
_VOTE_POLICIES = frozenset(p.value for p in VotePolicy)
_AGENT_KINDS = frozenset(k.value for k in AgentKind)
_IDENTITY_STRATEGIES = frozenset(s.value for s in IdentityStrategy)


class ProviderConfig(_Record):
    __slots__ = ("false_accept_rate", "seed")

    def __init__(self, false_accept_rate: Decimal = Decimal("0"), seed: int | None = None):
        _set(self, "false_accept_rate", false_accept_rate)
        _set(self, "seed", seed)  # defaults to the scenario seed


class IdentityConfig(_Record):
    __slots__ = ("mode", "policy", "provider")

    def __init__(self, mode: RegistryMode, policy: VotePolicy, provider: ProviderConfig = ProviderConfig()):
        _set(self, "mode", mode)
        _set(self, "policy", policy)
        _set(self, "provider", provider)


class AgentSpec(_Record):
    __slots__ = ("id", "kind", "balance", "preference", "cast_at", "n_wallets", "identity_strategy")

    def __init__(
        self,
        id: str,
        kind: AgentKind,
        balance: TokenAmount,
        preference: tuple[str, ...],
        cast_at: int | None = None,
        n_wallets: int = 1,
        identity_strategy: IdentityStrategy = IdentityStrategy.ONE_IDENTITY,
    ):
        _set(self, "id", id)
        _set(self, "kind", kind)
        _set(self, "balance", balance)
        _set(self, "preference", preference)
        _set(self, "cast_at", cast_at)  # defaults to each proposal's voting-window start
        _set(self, "n_wallets", n_wallets)
        _set(self, "identity_strategy", identity_strategy)

    def votes(self) -> bool:
        return self.kind is not AgentKind.ABSTAINER


class ProposalSpec(_Record):
    __slots__ = ("id", "options", "discussion_window", "voting_window")

    def __init__(self, id: ProposalId, options: tuple[str, ...], discussion_window: Window, voting_window: Window):
        _set(self, "id", id)
        _set(self, "options", options)
        _set(self, "discussion_window", discussion_window)
        _set(self, "voting_window", voting_window)


class Scenario(_Record):
    __slots__ = (
        "name", "seed", "ticks", "supply", "mechanism", "agents", "proposals", "quorum", "conviction", "identity",
    )

    def __init__(
        self,
        name: str,
        seed: int,
        ticks: int,
        supply: TokenAmount,
        mechanism: Mechanism,
        agents: tuple[AgentSpec, ...],
        proposals: tuple[ProposalSpec, ...],
        quorum: QuorumConfig | None = None,
        conviction: ConvictionParams | None = None,
        identity: IdentityConfig | None = None,
    ):
        _set(self, "name", name)
        _set(self, "seed", seed)
        _set(self, "ticks", ticks)
        _set(self, "supply", supply)
        _set(self, "mechanism", mechanism)
        _set(self, "agents", agents)
        _set(self, "proposals", proposals)
        _set(self, "quorum", quorum)
        _set(self, "conviction", conviction)
        _set(self, "identity", identity)

    def with_overrides(self, **changes: Any) -> "Scenario":
        return self._replace(**changes)


# Attack wallets get an index suffix; agent ids keep headroom inside the 64-char cap.
_AGENT_ID_RE = re.compile(r"[A-Za-z0-9_-]{1,48}")

_ID_FIELDS = {"schema_version", "name", "seed", "ticks", "supply", "mechanism",
              "quorum", "conviction", "identity", "agents", "proposals"}


def _parse_decimal(value: Any, label: str, errors: list[str]) -> Decimal | None:
    try:
        if isinstance(value, (str, int, Decimal)) and not isinstance(value, bool):
            return Decimal(fmt_units(parse_units(value)))
    except (FixedPointError, InvalidOperation) as exc:
        errors.append(f"{label}: {exc}")
        return None
    errors.append(f"{label}: expected a decimal string or integer, got {value!r}")
    return None


def _parse_window(value: Any, label: str, errors: list[str]) -> Window | None:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or any(not isinstance(v, int) or isinstance(v, bool) for v in value)
    ):
        errors.append(f"{label}: expected [start, end] integer ticks, got {value!r}")
        return None
    try:
        return Window(value[0], value[1])
    except WindowError as exc:
        errors.append(f"{label}: {exc}")
        return None


def parse_scenario(obj: Any) -> Scenario:
    """Build a Scenario from parsed JSON, collecting every violation."""
    errors: list[str] = []
    if not isinstance(obj, dict):
        raise ScenarioValidationError(["scenario must be a JSON object"])
    unknown = set(obj) - _ID_FIELDS
    for key in sorted(unknown):
        errors.append(f"unknown top-level field {key!r}")

    if obj.get("schema_version") != SCHEMA_VERSION:
        errors.append(
            f"schema_version must be {SCHEMA_VERSION}, got {obj.get('schema_version')!r}"
        )
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        errors.append(f"name must be a nonempty string, got {name!r}")
        name = "invalid"
    seed = obj.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        errors.append(f"seed must be a u64, got {seed!r}")
        seed = 0
    ticks = obj.get("ticks")
    if not isinstance(ticks, int) or isinstance(ticks, bool) or ticks < 0:
        errors.append(f"ticks must be a non-negative integer horizon, got {ticks!r}")
        ticks = 0

    supply_dec = _parse_decimal(obj.get("supply"), "supply", errors)
    supply = TokenAmount.parse(supply_dec) if supply_dec is not None else TokenAmount.zero()

    mechanism = None
    try:
        mechanism = Mechanism.parse(obj.get("mechanism"))
    except MechanismError as exc:
        errors.append(str(exc))

    quorum = None
    if obj.get("quorum") is not None:
        q = obj["quorum"]
        if not isinstance(q, dict):
            errors.append(f"quorum must be an object, got {q!r}")
        else:
            threshold = _parse_decimal(q.get("threshold"), "quorum.threshold", errors)
            basis = q.get("basis")
            if type(basis) is not str or basis not in _QUORUM_BASES:
                errors.append(f"quorum.basis must be a participation basis, got {basis!r}")
            elif threshold is not None:
                try:
                    quorum = QuorumConfig(basis=QuorumBasis(basis), threshold=threshold)
                except MechanismError as exc:
                    errors.append(f"quorum: {exc}")

    conviction = None
    if obj.get("conviction") is not None:
        c = obj["conviction"]
        if not isinstance(c, dict):
            errors.append(f"conviction must be an object, got {c!r}")
        else:
            rate = _parse_decimal(c.get("decay_rate"), "conviction.decay_rate", errors)
            if rate is not None:
                try:
                    conviction = ConvictionParams(decay_rate=rate)
                except MechanismError as exc:
                    errors.append(f"conviction: {exc}")

    identity = _parse_identity(obj.get("identity"), errors)
    proposals = _parse_proposals(obj.get("proposals"), ticks, errors)
    if cast_error := _cast_budget_error(obj.get("agents"), len(proposals)):
        raise ScenarioValidationError([*errors, cast_error])
    agents = _parse_agents(obj.get("agents"), proposals, errors)

    if mechanism is Mechanism.QUORUM and quorum is None:
        errors.append("mechanism 'quorum' requires a quorum config")
    if mechanism is Mechanism.CONVICTION and conviction is None:
        errors.append("mechanism 'conviction' requires conviction params")

    total_units = sum(a.balance.units for a in agents)
    if supply_dec is not None and total_units > supply.units:
        errors.append(
            f"agent balances total {fmt_units(total_units)} exceeds supply {supply}"
        )

    wallets = sum(a.n_wallets for a in agents)
    if wallets > MAX_WALLETS:
        errors.append(f"agents hold {wallets} wallets in total, more than the cap of {MAX_WALLETS}")
    _check_schedule(agents, proposals, errors)
    _check_wallet_ids(agents, errors)

    if errors:
        raise ScenarioValidationError(errors)
    return Scenario(
        name=name,
        seed=seed,
        ticks=ticks,
        supply=supply,
        mechanism=mechanism,
        agents=tuple(agents),
        proposals=tuple(proposals),
        quorum=quorum,
        conviction=conviction,
        identity=identity,
    )


def _cast_budget_error(agents: Any, n_proposals: int) -> str | None:
    """The cast cap's error, counted from the raw agent list before any agent is checked.

    Each voting agent casts once per proposal from each of its wallets.  An
    attacker counts at most MAX_WALLETS wallets here: more is the wallet cap's
    error, or its own agent's, which _parse_agents reports.
    """
    if not isinstance(agents, list):
        return None
    wallets = 0
    for a in agents:
        if isinstance(a, dict) and a.get("kind") != AgentKind.ABSTAINER.value:
            n = a.get("n_wallets") if a.get("kind") == AgentKind.SYBIL_ATTACKER.value else 1
            wallets += min(n, MAX_WALLETS) if type(n) is int and n > 1 else 1
    if wallets * n_proposals > MAX_CASTS:
        return (
            f"agents ask for {wallets * n_proposals} cast events ({wallets} voting wallets x "
            f"{n_proposals} proposals), more than the cap of {MAX_CASTS}"
        )
    return None


def _parse_identity(value: Any, errors: list[str]) -> IdentityConfig | None:
    if value is None:
        return None
    if not isinstance(value, dict):
        errors.append(f"identity must be an object, got {value!r}")
        return None
    mode = value.get("mode")
    if type(mode) is not str or mode not in _REGISTRY_MODES:
        errors.append(f"identity.mode must be a registry mode, got {mode!r}")
        return None
    policy = value.get("policy")
    if type(policy) is not str or policy not in _VOTE_POLICIES:
        errors.append(f"identity.policy must be a vote policy, got {policy!r}")
        return None
    provider = ProviderConfig()
    if value.get("provider") is not None:
        p = value["provider"]
        if not isinstance(p, dict):
            errors.append(f"identity.provider must be an object, got {p!r}")
        else:
            rate = _parse_decimal(
                p.get("false_accept_rate", 0), "identity.provider.false_accept_rate", errors
            )
            seed = p.get("seed")
            if seed is not None and (
                not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64
            ):
                errors.append(f"identity.provider.seed must be a u64, got {seed!r}")
                seed = None
            if rate is not None:
                if rate > 1:
                    errors.append(
                        f"identity.provider.false_accept_rate must be in [0, 1], got {rate}"
                    )
                else:
                    provider = ProviderConfig(false_accept_rate=rate, seed=seed)
    return IdentityConfig(mode=RegistryMode(mode), policy=VotePolicy(policy), provider=provider)


def _parse_proposals(value: Any, ticks: int, errors: list[str]) -> list[ProposalSpec]:
    if not isinstance(value, list) or not value:
        errors.append("proposals must be a nonempty list")
        return []
    proposals: list[ProposalSpec] = []
    seen_ids: set[str] = set()
    for i, p in enumerate(value):
        label = f"proposal #{i}"
        if not isinstance(p, dict):
            errors.append(f"{label}: expected an object, got {p!r}")
            continue
        try:
            pid = ProposalId(p.get("id"))
        except GovlabError:
            errors.append(f"{label}: id must be 1-64 chars from [A-Za-z0-9_-]")
            continue
        label = f"proposal {pid!r}"
        if pid in seen_ids:
            errors.append(f"{label}: duplicate id")
            continue
        seen_ids.add(pid)
        options = p.get("options")
        if (
            not isinstance(options, list)
            or len(options) < 2
            or any(not isinstance(o, str) or not o for o in options)
            or len(set(options)) != len(options)
        ):
            errors.append(f"{label}: options must be two or more distinct nonempty labels")
            continue
        dw = _parse_window(p.get("discussion_window"), f"{label}: discussion_window", errors)
        vw = _parse_window(p.get("voting_window"), f"{label}: voting_window", errors)
        if dw is None or vw is None:
            continue
        if dw.end > vw.start:
            errors.append(f"{label}: discussion window must close before voting opens")
            continue
        if vw.end > ticks:
            errors.append(
                f"{label}: voting window ends at tick {vw.end} beyond horizon {ticks}"
            )
            continue
        proposals.append(
            ProposalSpec(id=pid, options=tuple(options), discussion_window=dw, voting_window=vw)
        )
    return proposals


def _parse_agents(value: Any, proposals: list[ProposalSpec], errors: list[str]) -> list[AgentSpec]:
    if not isinstance(value, list) or not value:
        errors.append("agents must be a nonempty list")
        return []
    agents: list[AgentSpec] = []
    seen_ids: set[str] = set()
    for i, a in enumerate(value):
        label = f"agent #{i}"
        if not isinstance(a, dict):
            errors.append(f"{label}: expected an object, got {a!r}")
            continue
        aid = a.get("id")
        if not isinstance(aid, str) or not aid:
            errors.append(f"{label}: id must be a nonempty string")
            continue
        label = f"agent {aid!r}"
        if aid in seen_ids:
            errors.append(f"{label}: duplicate id")
            continue
        seen_ids.add(aid)
        if not _AGENT_ID_RE.fullmatch(aid):
            errors.append(f"{label}: id must be <= 48 chars from [A-Za-z0-9_-]")
            continue
        kind_raw = a.get("kind")
        if type(kind_raw) is not str or kind_raw not in _AGENT_KINDS:
            errors.append(f"{label}: kind must be an agent kind, got {kind_raw!r}")
            continue
        kind = AgentKind(kind_raw)
        balance_dec = _parse_decimal(a.get("balance"), f"{label}: balance", errors)
        if balance_dec is None:
            continue
        balance = TokenAmount.parse(balance_dec)

        preference_raw = a.get("preference")
        if isinstance(preference_raw, str):
            preference: tuple[str, ...] = (preference_raw,)
        elif isinstance(preference_raw, list) and preference_raw and all(
            isinstance(o, str) and o for o in preference_raw
        ) and len(set(preference_raw)) == len(preference_raw):
            preference = tuple(preference_raw)
        elif kind is AgentKind.ABSTAINER and preference_raw is None:
            preference = ()
        else:
            errors.append(
                f"{label}: preference must be an option label or a distinct ranking"
            )
            continue

        cast_at = a.get("cast_at")
        if cast_at is not None and (
            not isinstance(cast_at, int) or isinstance(cast_at, bool) or cast_at < 0
        ):
            errors.append(f"{label}: cast_at must be a non-negative tick")
            continue

        n_wallets = a.get("n_wallets", 1)
        strategy_raw = a.get("identity_strategy", IdentityStrategy.ONE_IDENTITY.value)
        if kind is AgentKind.SYBIL_ATTACKER:
            if not isinstance(n_wallets, int) or isinstance(n_wallets, bool) or n_wallets < 2:
                errors.append(f"{label}: sybil attackers need n_wallets >= 2")
                continue
            if type(strategy_raw) is not str or strategy_raw not in _IDENTITY_STRATEGIES:
                errors.append(
                    f"{label}: identity_strategy must be an identity strategy, got {strategy_raw!r}"
                )
                continue
            if balance.units < n_wallets:
                errors.append(
                    f"{label}: balance {balance} cannot fund {n_wallets} wallets"
                )
                continue
        elif "n_wallets" in a and n_wallets != 1:
            errors.append(f"{label}: only sybil attackers may hold multiple wallets")
            continue

        if kind is not AgentKind.ABSTAINER:
            if balance.is_zero():
                errors.append(f"{label}: voting agents need a positive balance")
                continue
            if not preference:
                errors.append(f"{label}: voting agents need a preference")
                continue
            for option in preference:
                for p in proposals:
                    if option not in p.options:
                        errors.append(
                            f"{label}: preference {option!r} not among options of proposal {p.id!r}"
                        )
            for p in proposals:
                effective = cast_at if cast_at is not None else p.voting_window.start
                if not p.voting_window.contains(effective):
                    errors.append(
                        f"{label}: cast tick {effective} outside voting window of proposal {p.id!r}"
                    )

        agents.append(
            AgentSpec(
                id=aid,
                kind=kind,
                balance=balance,
                preference=preference,
                cast_at=cast_at,
                n_wallets=n_wallets if kind is AgentKind.SYBIL_ATTACKER else 1,
                identity_strategy=IdentityStrategy(strategy_raw)
                if kind is AgentKind.SYBIL_ATTACKER
                else IdentityStrategy.ONE_IDENTITY,
            )
        )
    return agents


def _check_schedule(agents: list[AgentSpec], proposals: list[ProposalSpec], errors: list[str]) -> None:
    # Agents commit their full balance per proposal, so one agent voting in two
    # proposals with overlapping voting windows would violate the lock invariant.
    # Swept in order of voting start, each proposal is checked against the latest-closing
    # proposal that opened no later, so one that overlaps is reported once.
    if not any(a.votes() for a in agents):
        return
    latest = None
    for p in sorted(proposals, key=lambda p: p.voting_window.start):
        if latest is not None and p.voting_window.start < latest.voting_window.end:
            errors.append(
                f"proposals {latest.id!r} and {p.id!r} have overlapping voting windows; "
                "agents cannot lock their balance in both"
            )
        if latest is None or p.voting_window.end > latest.voting_window.end:
            latest = p


def _check_wallet_ids(agents: list[AgentSpec], errors: list[str]) -> None:
    # Attacker `a` with n wallets owns a_w<k>, k padded to len(str(n - 1)) digits
    # (simulation.agent_wallets); attackers never collide, so only an id can shadow one.
    attackers = {a.id: a.n_wallets for a in agents if a.kind is AgentKind.SYBIL_ATTACKER}
    for agent in agents:
        if agent.kind is AgentKind.SYBIL_ATTACKER:
            continue
        owner, _, k = agent.id.rpartition("_w")
        n = attackers.get(owner)
        if n and k.isascii() and k.isdigit() and len(k) == len(str(n - 1)) and int(k) < n:
            errors.append(
                f"agent {agent.id!r}: wallet id {agent.id!r} is also a wallet of agent {owner!r}"
            )


def loads_scenario(text: str) -> Scenario:
    """Parse scenario JSON text (number literals become exact decimals)."""
    try:
        obj = json.loads(text, parse_float=Decimal)
    except JSON_FAULTS as exc:
        raise ScenarioValidationError([f"malformed JSON: {exc}"]) from exc
    return parse_scenario(obj)


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_scenario(fh.read())


def preset_names() -> list[str]:
    files = resources.files("govlab.presets")
    return sorted(p.name[: -len(".json")] for p in files.iterdir() if p.name.endswith(".json"))


def load_preset(name: str) -> Scenario:
    """Load a scenario shipped with the package (see preset_names())."""
    try:
        text = resources.files("govlab.presets").joinpath(f"{name}.json").read_text("utf-8")
    except FileNotFoundError:
        raise GovlabError(f"unknown preset {name!r}; available: {', '.join(preset_names())}") from None
    return loads_scenario(text)
