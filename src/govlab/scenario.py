"""Scenario files: the JSON schema driving a simulation run (schema_version 1).

One table per JSON object lists its fields, each with its parser and, when
the field is optional, its default.  _walk iterates over the keys an object
holds, not over its table: each is looked up in the table, so an unknown key at
any depth is an error that names its path, and each known one is parsed, every
bad one reported.  An absent optional field keeps the default the walk starts
from, and an absent required one is parsed as null, which is its error.  The
errors come out in the table's order all the same.  A list of agents or
proposals builds each record through its slots.  The rules that relate fields
run after the walk, on the objects whose fields all parsed.  Decimal quantities may
be written as strings ("10.500000000") or JSON numbers; number literals are
parsed as exact decimals, never binary floats.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from decimal import Decimal
from enum import Enum
from importlib import resources
from itertools import islice
from typing import Any, Iterator

from .core import _ID_RE, _NINE_DIGITS, JSON_FAULTS, MAX_UNITS, NANO, GovlabError, IdentityId, ProposalId, TokenAmount, WalletId, _Record, fmt_units, parse_units
from .governance import Window, _checked_window
from .mechanisms import ConvictionParams, Mechanism, QuorumConfig, QuorumBasis, config_error
from .identity import RegistryMode, VotePolicy

SCHEMA_VERSION = 1
# A run costs about 12-22 us and 0.7-0.8 KiB per wallet through `govlab run --csv`: one attacker
# with 10^5 wallets on a conviction proposal, probes on, took 1.2-1.4 s and 69 MiB peak RSS, and
# the Sybil workload scaled to 99,600 wallets under identity filtering 1.9-2.1 s and 76 MiB.
# run(), which keeps the ledger's entries, peaked at 108 and 165 MiB (1.1-1.7 KiB per wallet).
# So this cap bounds the wallets one scenario file can ask for.
MAX_WALLETS = 100_000
# Each voting wallet casts once per proposal, at about 10-17 us per cast, and the CSV has a row
# per agent and proposal, so this cap bounds every agent's wallets x proposals, abstainers'
# too.  No vote outlives its proposal's finalize, so a cast costs 0.08-0.14 KiB through
# `govlab run`, which streams the ledger and the CSV to their files, or about 0.5 KiB through
# run() (2.5 * 10^5 casts peaked at 40-53 MiB RSS and 134-146 MiB).
MAX_CASTS = 250_000
# One file can hold an error per agent, option and proposal; past this many the rest are
# counted, not listed.  An error quotes at most QUOTED_CHARS characters of any id or value,
# so a line is at most about 300 characters and `govlab run` prints at most about 1.5 MB.
MAX_ERRORS = 5_000
QUOTED_CHARS = 80


class ScenarioValidationError(GovlabError):
    """Carries the violations found in a scenario: the first MAX_ERRORS of
    them, then one line counting the rest.  unlisted counts the violations
    found past MAX_ERRORS that were never formatted."""

    def __init__(self, errors: list[str], unlisted: int = 0):
        self.errors = errors[:MAX_ERRORS]
        if (more := len(errors) - MAX_ERRORS + unlisted) > 0:
            self.errors.append(f"... and {more} more")
        super().__init__("; ".join(self.errors))


class AgentKind(str, Enum):
    HONEST = "honest"
    WHALE = "whale"
    SYBIL_ATTACKER = "sybil_attacker"
    ABSTAINER = "abstainer"


class IdentityStrategy(str, Enum):
    ONE_IDENTITY = "one_identity"  # bind every attack wallet to one identity
    FAKE_IDENTITIES = "fake_identities"  # one fraudulent identity per wallet


class ProviderConfig(_Record):
    __slots__ = ("false_accept_rate", "seed")


class IdentityConfig(_Record):
    __slots__ = ("mode", "policy", "provider")


# The suffixes of an attacker's wallet ids and of its fake identities.
_WALLET, _FAKE = "_w", "_fake"


class AgentSpec(_Record):
    __slots__ = ("id", "kind", "balance", "preference", "cast_at", "n_wallets", "identity_strategy")

    def votes(self) -> bool:
        return self.kind is not AgentKind.ABSTAINER

    def cast_tick(self, proposal: ProposalSpec) -> int:
        """The tick the agent casts at: cast_at, or else the proposal's voting-window start."""
        return self.cast_at if self.cast_at is not None else proposal.voting_window.start

    def fakes_identities(self) -> bool:
        """Whether each wallet claims a fresh fraudulent identity instead of the agent's own id."""
        return self.kind is AgentKind.SYBIL_ATTACKER and self.identity_strategy is IdentityStrategy.FAKE_IDENTITIES

    def _digits(self) -> int:
        # An attacker numbers its n wallets k = 0..n-1, zero-padded to the digits of n - 1.
        return len(str(self.n_wallets - 1))

    def _form(self, suffix: str) -> str:
        """The %-form of the agent's numbered names, <id><suffix><k>; a '%' in a bad id stays literal."""
        return f"{self.id.replace('%', '%%')}{suffix}%0{self._digits()}d"

    def wallets(self) -> tuple[WalletId, ...]:
        """The agent's wallet ids: its own id, or an attacker's <id>_w<k>."""
        if self.kind is not AgentKind.SYBIL_ATTACKER:
            return (WalletId(self.id),)
        return tuple(WalletId.numbered(self._form(_WALLET), self.n_wallets))

    def fake_ids(self) -> Iterator[IdentityId]:
        """The identities an attacker's wallets claim when it fakes them, wallet k's <id>_fake<k>, in
        wallet order.  Each is built as it is drawn, so one whose claim the provider rejects is not kept."""
        return IdentityId.numbered(self._form(_FAKE), self.n_wallets)

    def has_number(self, k: str) -> bool:
        """Whether k is a wallet number as wallets() and fake_ids() spell it."""
        return len(k) == self._digits() and k.isascii() and k.isdigit() and int(k) < self.n_wallets


class ProposalSpec(_Record):
    __slots__ = ("id", "options", "discussion_window", "voting_window")


class Scenario(_Record):
    __slots__ = (
        "name", "seed", "ticks", "supply", "mechanism", "agents", "proposals", "quorum", "conviction", "identity",
    )


class _Invalid(Exception):
    """A field's value is wrong; the message is the text that follows the field's path."""


def _clip(text: str) -> str:
    return text if len(text) <= QUOTED_CHARS else text[:QUOTED_CHARS] + "..."


def _quote(value: Any) -> str:
    """The value's repr, cut to QUOTED_CHARS characters and "..." when longer."""
    return _clip(repr(value))


def _must(what: str, value: Any) -> _Invalid:
    return _Invalid(f" must be {what}, got {_quote(value)}")


# Leaf parsers take a field's JSON value and return what its record holds.  They raise
# _Invalid, or the GovlabError of a check that parse_units or a record makes itself.

def _int(what: str, lo: int, hi: int | None = None):
    def parse(value: Any) -> int:
        # Exact JSON integers only: true equals 1, and 1.0 arrives as Decimal("1.0").
        if type(value) is int and lo <= value and (hi is None or value <= hi):
            return value
        raise _must(what, value)
    return parse


def _units(value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, (str, int, Decimal)):
        raise _Invalid(f": expected a decimal string or integer, got {_quote(value)}")
    return parse_units(value)


# An amount in parse_units' own fast form is built here without TokenAmount's checks, which it passes.
_set_units = TokenAmount.units.__set__


def _tokens(value: Any) -> TokenAmount:
    if type(value) is str and _NINE_DIGITS.fullmatch(value) and (units := int(value.replace(".", ""))) <= MAX_UNITS:
        amount = object.__new__(TokenAmount)
        _set_units(amount, units)
        return amount
    return TokenAmount(_units(value))


def _decimal(value: Any) -> Decimal:
    return Decimal(fmt_units(_units(value)))


def _fraction(value: Any) -> Decimal:
    if (units := _units(value)) > NANO:
        raise _must("in [0, 1]", value)
    return Decimal(fmt_units(units))


def _enum(cls: type[Enum], what: str):
    members = {m.value: m for m in cls}

    def parse(value: Any) -> Enum:
        # Only a str is looked up: a JSON object or array is unhashable.
        if type(value) is str and value in members:
            return members[value]
        raise _must(what, value)
    return parse


def _id(pattern: re.Pattern, what: str, make: type = str):
    def parse(value: Any) -> str:
        if isinstance(value, str) and pattern.fullmatch(value):
            return make(value)
        raise _Invalid(f" must be {what}")
    return parse


def _window(value: Any) -> Window:
    if type(value) is list and len(value) == 2 and type(value[0]) is int and type(value[1]) is int:
        start, end = value
        # Window's own checks, made here: the constructor runs only to raise its error for a bad window.
        return _checked_window(start, end) if 0 <= start < end else Window(start, end)
    raise _Invalid(f": expected [start, end] integer ticks, got {_quote(value)}")


def _labels(what: str, least: int):
    def parse(value: Any) -> tuple[str, ...]:
        labels = [value] if isinstance(value, str) else value  # a bare label is a list of one
        if type(labels) is list and len(labels) >= least:
            try:
                nonempty = all(map(str.__len__, labels))  # every label a str, none of them empty
            except TypeError:  # a label that is not a str
                nonempty = False
            if nonempty and len(set(labels)) == len(labels):
                return tuple(labels)
        raise _must(what, value)
    return parse


_REQUIRED = object()
_FAILED = object()  # a field's value when it did not parse, or a required field's before it is read


def _req(parse) -> tuple:
    return parse, _REQUIRED, False


def _opt(parse, default: Any) -> tuple:
    """An optional field; null is not its default but a value, which parse checks."""
    return parse, default, False


def _null(parse, default: Any = None) -> tuple:
    """An optional field that null also sets to its default."""
    return parse, default, True


class _Table:
    """An object's fields in order, each built by _req, _opt or _null, laid out once for _walk."""

    def __init__(self, fields: dict):
        self.keys = tuple(fields)
        # By key: the field's position, its parser, whether null sets its default, and whether it is an object.
        self.fields = {
            key: (pos, parse, nullable, isinstance(parse, _Object))
            for pos, (key, (parse, _, nullable)) in enumerate(fields.items())
        }
        self.defaults = [_FAILED if default is _REQUIRED else default for _, default, _ in fields.values()]
        self.required = frozenset(key for key, (_, default, _) in fields.items() if default is _REQUIRED)


class _Object:
    """A field holding a JSON object: the table of its fields and the record they build, in the
    order of its constructor's parameters."""

    def __init__(self, record: type, fields: dict):
        assert tuple(fields) == record.__slots__, record
        self.record = record
        self.table = _Table(fields)

    def read(self, value: Any, path: str, errors: list[str]) -> Any:
        if not isinstance(value, dict):
            raise _must("an object", value)
        before = len(errors)
        values = _walk(value, self.table, path, ".", errors)
        return self.record(*values) if len(errors) == before else _FAILED


class _Records(_Object):
    """A field holding a nonempty list of objects with distinct ids.  Errors name
    an item by its id when named(id) holds, else by its index.  A record is built
    through its slots, which its table lists in order, id first."""

    def __init__(self, record: type, fields: dict, noun: str, named):
        super().__init__(record, fields)
        assert self.table.keys[0] == "id"
        self.noun = noun
        self.named = named
        self.setters = tuple(getattr(record, name).__set__ for name in record.__slots__)

    def read(self, value: Any, path: str, errors: list[str]) -> list:
        if type(value) is not list or not value:
            raise _Invalid(" must be a nonempty list")
        records, seen = [], set()
        cls, table, noun, setters = self.record, self.table, self.noun, self.setters
        for i, item in enumerate(value):
            if not isinstance(item, dict):
                errors.append(f"{noun} #{i}: expected an object, got {_quote(item)}")
                continue
            # The walk names the item by its noun alone; an item's label is built only for its errors.
            before = len(errors)
            values = _walk(item, table, noun, ": ", errors)
            if len(errors) > before:
                where = self._label(item, i)
                errors[before:] = [where + e[len(noun):] for e in errors[before:]]
            elif values[0] in seen:
                errors.append(f"{self._label(item, i)}: duplicate id")
            else:
                seen.add(values[0])
                record = object.__new__(cls)
                for set_slot, field in zip(setters, values):
                    set_slot(record, field)
                records.append(record)
        return records

    def _label(self, item: dict, i: int) -> str:
        return f"{self.noun} {_quote(item['id'])}" if self.named(item.get("id")) else f"{self.noun} #{i}"


def _walk(obj: dict, table: _Table, where: str, sep: str, errors: list[str]) -> list:
    """Parse obj's fields by table, appending one error per unknown key or bad field.

    where names obj in errors ("" at the top level), and a field's path is
    where + sep + key.  Only the keys obj holds are visited: an absent optional
    field keeps its default, and an absent required one is read as null, which
    its parser refuses.  The errors come out in the table's order, after the
    unknown keys, sorted.  Returns the field values in table order, _FAILED
    for each field that did not parse.
    """
    values = table.defaults.copy()
    fields = table.fields
    unknown, faults = [], {}  # the unknown keys, and by field position the field's errors
    pairs = obj.items()
    if not obj.keys() >= table.required:
        pairs = [*pairs, *[(key, None) for key in table.keys if key in table.required and key not in obj]]
    for key, value in pairs:
        if (field := fields.get(key)) is None:
            unknown.append(key)
            continue
        pos, parse, nullable, nested = field
        if value is None and nullable:
            continue
        try:
            if nested:
                value = parse.read(value, f"{where}{sep}{key}", inner := [])
                if inner:
                    faults[pos] = inner
            else:
                value = parse(value)
        except _Invalid as exc:
            faults[pos] = [f"{where}{sep}{key}{exc}"]
            value = _FAILED
        except GovlabError as exc:
            faults[pos] = [f"{where}{sep}{key}: {_clip(str(exc))}"]
            value = _FAILED
        values[pos] = value
    if unknown or faults:
        for key in sorted(unknown):
            errors.append(f"{where}: unknown field {_quote(key)}" if where else f"unknown top-level field {_quote(key)}")
        for pos in sorted(faults):
            errors += faults[pos]
    return values


_U64 = _int("a u64", 0, 2**64 - 1)
# Attack wallet ids and fake identities append a suffix and a number to the agent id:
# 48 chars, "_fake" and at most 5 digits (MAX_WALLETS - 1) stay within the 64-char id cap.
_AGENT_ID_RE = re.compile(r"[A-Za-z0-9_-]{1,48}")

_PROPOSAL = {
    "id": _req(_id(_ID_RE, "1-64 chars from [A-Za-z0-9_-]", ProposalId)),
    "options": _req(_labels("two or more distinct nonempty labels", 2)),
    "discussion_window": _req(_window),
    "voting_window": _req(_window),
}
_AGENT = {
    "id": _req(_id(_AGENT_ID_RE, "<= 48 chars from [A-Za-z0-9_-]")),
    "kind": _req(_enum(AgentKind, "an agent kind")),
    "balance": _req(_tokens),
    "preference": _null(_labels("an option label or a distinct ranking", 1), ()),
    "cast_at": _null(_int("a non-negative tick", 0)),
    "n_wallets": _opt(_int("a positive integer", 1), 1),
    "identity_strategy": _opt(_enum(IdentityStrategy, "an identity strategy"), IdentityStrategy.ONE_IDENTITY),
}
_SCENARIO = _Table({
    "schema_version": _req(_int(str(SCHEMA_VERSION), SCHEMA_VERSION, SCHEMA_VERSION)),
    "name": _req(_id(re.compile(".+", re.DOTALL), "a nonempty string")),
    "seed": _opt(_U64, 0),
    "ticks": _req(_int("a non-negative integer horizon", 0)),
    "supply": _req(_tokens),
    "mechanism": _req(_enum(Mechanism, "token, quorum, quadratic or conviction")),
    "quorum": _null(_Object(QuorumConfig, {
        "basis": _req(_enum(QuorumBasis, "a participation basis")),
        "threshold": _req(_fraction),
    })),
    "conviction": _null(_Object(ConvictionParams, {"decay_rate": _req(_decimal)})),
    "identity": _null(_Object(IdentityConfig, {
        "mode": _req(_enum(RegistryMode, "a registry mode")),
        "policy": _req(_enum(VotePolicy, "a vote policy")),
        "provider": _null(_Object(ProviderConfig, {
            "false_accept_rate": _opt(_fraction, Decimal(0)),
            "seed": _null(_U64),  # a None seed is the scenario seed
        }), ProviderConfig(Decimal(0), None)),
    })),
    "proposals": _req(_Records(ProposalSpec, _PROPOSAL, "proposal", lambda i: isinstance(i, str) and _ID_RE.fullmatch(i))),
    # An agent is named by any nonempty string id, so the error for a bad id shows it.
    "agents": _req(_Records(AgentSpec, _AGENT, "agent", lambda i: isinstance(i, str) and i != "")),
})


def parse_scenario(obj: Any) -> Scenario:
    """Build a Scenario from parsed JSON, collecting every violation."""
    if not isinstance(obj, dict):
        raise ScenarioValidationError(["scenario must be a JSON object"])
    errors: list[str] = []
    values = _walk(obj, _SCENARIO, "", "", errors)
    fields = {key: value for key, value in zip(_SCENARIO.keys, values) if value is not _FAILED}
    # The rules on top-level fields run only when all of them parsed.
    complete = len(fields) == len(_SCENARIO.keys)

    proposals = []
    for p in fields.get("proposals", ()):
        if p.discussion_window.end > p.voting_window.start:
            errors.append(f"proposal {p.id!r}: discussion window must close before voting opens")
        elif complete and p.voting_window.end > fields["ticks"]:
            errors.append(
                f"proposal {p.id!r}: voting window ends at tick {_quote(p.voting_window.end)} "
                f"beyond horizon {_quote(fields['ticks'])}"
            )
        else:
            proposals.append(p)
    # A voting wallet casts once per proposal, and the CSV has a row per agent and proposal, so every
    # agent's wallets count, abstainers' too.  An attacker counts at most MAX_WALLETS wallets here:
    # more is the wallet cap's error, or its own agent's.
    held = sum(min(a.n_wallets, MAX_WALLETS) if a.kind is AgentKind.SYBIL_ATTACKER else 1 for a in fields.get("agents", ()))
    if (pairs := held * len(proposals)) > MAX_CASTS:
        error = f"agents' wallets x proposals is {pairs} ({held} wallets x {len(proposals)} proposals)"
        raise ScenarioValidationError([*errors, f"{error}, more than the cap of {MAX_CASTS}"])

    agents = []
    for a in fields.get("agents", ()):
        if error := _agent_error(a):
            errors.append(f"agent {a.id!r}: {error}")
        else:
            agents.append(a)
    wallets = sum(a.n_wallets for a in agents)
    if wallets > MAX_WALLETS:
        errors.append(f"agents hold {wallets} wallets in total, more than the cap of {MAX_WALLETS}")
    unlisted = _check_ballots(agents, proposals, errors)

    if complete:
        if error := config_error(fields["mechanism"], fields["quorum"], fields["conviction"]):
            errors.append(error)
        total_units = sum(a.balance.units for a in agents)
        if total_units > fields["supply"].units:
            errors.append(f"agent balances total {fmt_units(total_units)} exceeds supply {fields['supply']}")
    _check_schedule(agents, proposals, errors)
    _check_names(agents, fields.get("identity") is not None, errors)

    if errors:
        raise ScenarioValidationError(errors, unlisted)
    del fields["schema_version"]
    return Scenario(**{**fields, "agents": tuple(agents), "proposals": tuple(proposals)})


def _agent_error(a: AgentSpec) -> str | None:
    """The first rule that the agent's fields break together, or None."""
    if a.kind is AgentKind.SYBIL_ATTACKER:
        if a.n_wallets < 2:
            return "sybil attackers need n_wallets >= 2"
        if a.balance.units < a.n_wallets:
            return f"balance {a.balance} cannot fund {_quote(a.n_wallets)} wallets"
    elif a.n_wallets != 1:
        return "only sybil attackers may hold multiple wallets"
    if a.votes() and not a.balance.units:
        return "voting agents need a positive balance"
    if a.votes() and not a.preference:
        return "voting agents need a preference"
    return None


def _check_ballots(agents: list[AgentSpec], proposals: list[ProposalSpec], errors: list[str]) -> int:
    """Append each voting agent's ballot errors while fewer than MAX_ERRORS are held, and return
    how many more there are, counted without being formatted."""
    # A voting agent ranks options that every proposal offers, and casts inside every voting window.
    offered = Counter(option for p in proposals for option in p.options)
    offers = None  # each proposal's options as a set, built for the first label that some proposal lacks
    unlisted = 0
    for a in filter(AgentSpec.votes, agents):
        for option in a.preference:
            if not (lacking := len(proposals) - offered[option]):
                continue
            if listed := min(lacking, max(MAX_ERRORS - len(errors), 0)):
                offers = offers or [frozenset(p.options) for p in proposals]
                missing = (p for p, options in zip(proposals, offers) if option not in options)
                errors += [
                    f"agent {a.id!r}: preference {_quote(option)} not among options of proposal {p.id!r}"
                    for p in islice(missing, listed)
                ]
            unlisted += lacking - listed
        # An agent without cast_at casts at each window's start, which a window holds: Window refuses an empty one.
        if a.cast_at is None:
            continue
        for p in proposals:
            if p.voting_window.contains(a.cast_at):
                continue
            if len(errors) < MAX_ERRORS:
                errors.append(f"agent {a.id!r}: cast tick {_quote(a.cast_at)} outside voting window of proposal {p.id!r}")
            else:
                unlisted += 1
    return unlisted


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


def _check_names(agents: list[AgentSpec], identities: bool, errors: list[str]) -> None:
    # Attacker `a` owns the wallets a_w<k> and, when it fakes identities, claims a_fake<k>
    # (AgentSpec.wallets and AgentSpec.fake_ids).  Names built on different attackers' ids
    # never collide, so only an agent's own id can shadow one: as a wallet id, unless it is
    # an attacker's, and as a claimed identity when the scenario binds identities.
    attackers = {a.id: a for a in agents if a.kind is AgentKind.SYBIL_ATTACKER}
    if not attackers:  # no name is built on any agent's id
        return
    fakers = {a.id: a for a in attackers.values() if a.fakes_identities()} if identities else {}
    for agent in agents:
        if agent.kind is not AgentKind.SYBIL_ATTACKER and (owner := _owner(attackers, agent.id, _WALLET)):
            errors.append(f"agent {agent.id!r}: wallet id {agent.id!r} is also a wallet of agent {owner!r}")
        if not agent.fakes_identities() and (owner := _owner(fakers, agent.id, _FAKE)):
            errors.append(f"agent {agent.id!r}: identity {agent.id!r} is also a fake identity of agent {owner!r}")


def _owner(attackers: dict[str, AgentSpec], name: str, suffix: str) -> str | None:
    """The attacker whose <id><suffix><k> name is name, or None."""
    owner, _, k = name.rpartition(suffix)
    attacker = attackers.get(owner)
    return owner if attacker is not None and attacker.has_number(k) else None


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    # json keeps the last of two equal keys, so two readers of one file could see two scenarios.
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {_quote(key)}")
            seen.add(key)
    return obj


def loads_scenario(text: str) -> Scenario:
    """Parse scenario JSON text (number literals become exact decimals; a key twice in one object is refused)."""
    try:
        obj = json.loads(text, parse_float=Decimal, object_pairs_hook=_unique_keys)
    except JSON_FAULTS as exc:
        raise ScenarioValidationError([f"malformed JSON: {exc}"]) from exc
    return parse_scenario(obj)


def load_scenario(path) -> Scenario:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioValidationError([f"{path}: not UTF-8 at byte offset {exc.start}"]) from exc
    return loads_scenario(text)


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
