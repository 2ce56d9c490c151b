"""Ledger events: one encoder per event kind and one decoder for them all.

This is the only module that knows the event format.  An event is a JSON
object whose "event" field names its kind; _KINDS below lists every other
field and its JSON type.  The genesis context (scenario, mechanism, identity)
and finalize's filter lists (dropped_unverified, equivocating_identities) may
be absent; every other field is required and no other field is allowed.

Canonical form.  A payload, the bytes the ledger hashes, is written as:
  - no whitespace: "," between members and elements, ":" after a key;
  - object keys sorted by code point;
  - strings in ASCII, as json.encoder.encode_basestring_ascii escapes them:
    '"' and '\\' by a backslash, \\b \\f \\n \\r \\t as such, every other character
    outside 0x20-0x7e as \\uXXXX in lowercase hex (a UTF-16 surrogate pair for
    one past U+FFFF);
  - integers in decimal, "-" for a negative sign, no leading zeros;
  - amounts and powers as strings: the whole part in decimal without leading
    zeros, ".", then exactly nine fractional digits.  A submit event's quorum
    threshold and decay rate are core.fmt_decimal of a Decimal with nine
    fractional digits, which is that form except below 10^-6 ("5.00E-7", "0E-9");
  - true, false and null as literals; no floats, NaN or Infinity.
RFC 8785 (the JSON Canonicalization Scheme) differs in three places: it writes
non-ASCII and DEL (0x7f) raw in UTF-8, it sorts keys by UTF-16 code unit, which
orders characters past U+FFFF differently, and its numbers are IEEE doubles.

A cast, the one event a run has thousands of, fills a template whose bytes
equal canonical_json of the event's dict.  The engine builds a proposal's
template for an option at the first ballot for it and keeps it as long as the
proposal's vote book, dropping it at finalize; each tick with casts for the
option makes its line from it with one f-string, so a cast on a tick of its
own does not escape the option again.  Genesis, the one event with a member
per wallet, writes its balances member directly in the same way.  Every other
field of every event, genesis's identity record among them, goes to core's
JSON encoder as one dict without canonical_json's walk: each is a str, an int,
None, or a list or dict of them that the engine built from typed values
(validated ids, checked option labels, enum values, str() of amounts and
fmt_decimal of decimals) or that genesis checks, so the walk would find
nothing to refuse.  canonical_json stays the reference that the tests
compare each encoder's text with.

decode checks the key set and the JSON type of every field, nested ones
included.  A missing or mistyped field raises GovernanceError("event k:
field ..."); an unknown field means the record is not what the engine
writes, so it raises "replay diverged at event k".  Values are left to
replay, which re-derives every event and compares the bytes.

A cast's text is first matched against the exact bytes cast_template writes
(_cast_text): the commitment in the nine-digit form, an option of printable
ASCII other than '"' and '\\' (so no escape to undo), ids of 1-64 characters
of [A-Za-z0-9_-] and a tick of at most 18 digits without a leading zero.  On a
match its fields are the JSON values themselves, and decode returns the dict
the general path would, without a JSON decode.  Any other text, an escaped
option or a fault among them, takes the general path, so what decode accepts
and every error it raises stay the same.
"""

from __future__ import annotations

import functools
import re
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable

from .core import _ENCODER, NANO, GovernanceError, ProposalId, TallyResult, TokenAmount, fmt_decimal, fmt_units, loads_canonical
from .identity import IdentityFilter, RegistryMode, VotePolicy
from .mechanisms import QuorumBasis

GENESIS_CONTEXT = frozenset({"scenario", "mechanism", "identity"})
# A high then a low surrogate code point: the text writes them as \uXXXX\uXXXX, which JSON reads back as one
# character, so a label holding them would not decode back to itself.  Every other string does.  genesis
# refuses such a scenario or mechanism label, and governance.Proposal such an option.
_SPLIT_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")


def genesis(supply: TokenAmount, balances: dict, context: dict | None) -> str:
    """The genesis event; its wallet universe is the number of funded wallets.

    balances maps each WalletId to its TokenAmount.  Its member is written here, as a cast's
    text is: ids are [A-Za-z0-9_-] and amounts digits and a point, so nothing needs escaping,
    sorted ids are in code-point order, and "balances" sorts before every other field.
    context's "identity" is an identity.IdentityFilter or None, recorded as _identity's dict.
    """
    context = context or {}
    if unknown := context.keys() - GENESIS_CONTEXT:
        raise GovernanceError(f"genesis context has unknown keys {sorted(unknown)}")
    # Checked as decode checks them, so no genesis is written that replay refuses; identity is the engine's record.
    for key in ("scenario", "mechanism"):
        if key in context:
            _check(context[key], _KINDS["genesis"][key], 0, key)
            if _SPLIT_PAIR.search(context[key]):
                raise GovernanceError(f"genesis {key} label does not read back from its JSON text")
    amount = functools.cache(fmt_units)  # split wallets share few balances, each formatted once
    members = ",".join([f'"{w}":"{amount(balances[w].units)}"' for w in sorted(balances)])
    if "identity" in context:
        context = {**context, "identity": _identity(context["identity"])}
    # Every field is a str, an int, None or the identity record's lists and dicts of ids, as checked
    # above, so the encoder takes the dict as it is, without canonical_json's walk.
    rest = _ENCODER.encode({"event": "genesis", "supply": str(supply), "wallet_universe_size": len(balances), **context})
    return f'{{"balances":{{{members}}},{rest[1:]}'


def _identity(identity: IdentityFilter | None) -> dict | None:
    """The identity record: the filter's policy and its registry's mode and bindings."""
    if identity is None:
        return None
    registry = identity.registry
    bindings = [{"identity": name, "wallets": wallets} for name, wallets in registry.bindings()]
    return {"policy": identity.policy.value, "registry": {"mode": registry.mode.value, "bindings": bindings}}


def submit(proposal, tick: int) -> str:
    quorum, conviction = proposal.quorum, proposal.conviction
    return _ENCODER.encode({
        "event": "submit",
        "proposal": str(proposal.id),
        "options": list(proposal.options),
        "discussion_window": [proposal.discussion_window.start, proposal.discussion_window.end],
        "voting_window": [proposal.voting_window.start, proposal.voting_window.end],
        "mechanism": proposal.mechanism.value,
        "quorum": {"basis": quorum.basis.value, "threshold": fmt_decimal(quorum.threshold)} if quorum else None,
        "conviction": {"decay_rate": fmt_decimal(conviction.decay_rate)} if conviction else None,
        "tick": tick,
    })


def phase(proposal: ProposalId, tick: int) -> str:
    """The one phase change the engine records: discussion to voting."""
    return _ENCODER.encode({"event": "phase", "proposal": str(proposal), "from": "discussion", "to": "voting", "tick": tick})


def cast_template(proposal: ProposalId, option: str) -> Callable[[int], Callable[[int, str], str]]:
    """at(tick) is line(units, wallet), a cast's text at tick; only the option needs escaping, never ids or digits."""
    option = _quote(option).replace("%", "%%")
    head = f'{{"committed":"%d.%09d","event":"cast","option":{option},"proposal":"{proposal}","tick":'

    def at(tick: int) -> Callable[[int, str], str]:
        template = f'{head}{tick},"wallet":"%s"}}'
        return lambda units, wallet: template % (units // NANO, units % NANO, wallet)

    return at


def finalize(proposal: ProposalId, outcome_phase: str, result: TallyResult, tick: int, report=None) -> str:
    """report is the vote filter's FilterReport, or None when the engine has no filter."""
    tally = result.to_json_obj()
    event = {"event": "finalize", "proposal": str(proposal), "phase": outcome_phase, "tally": tally, "tick": tick}
    if report is not None:
        event["dropped_unverified"] = [str(w) for w in report.dropped_unverified]
        event["equivocating_identities"] = [str(i) for i in report.equivocating_identities]
    return _ENCODER.encode(event)


# A field's spec: a JSON type; a frozenset of the strings allowed; a pattern the
# string matches; [spec] for an array of any length, [spec, spec] for a pair;
# {key: spec} for an object with those keys, {str: spec} for any keys; and
# (None, spec) for null or spec.
_FRACTION = re.compile(r"[0-9]+\.[0-9]{9}|[0-9](\.[0-9]{1,2})?E-[789]")  # a fmt_decimal text that Decimal() reads
_BINDING = {"identity": str, "wallets": [str]}
_IDENTITY = {
    "policy": frozenset(p.value for p in VotePolicy),
    "registry": {"mode": frozenset(m.value for m in RegistryMode), "bindings": [_BINDING]},
}
_KINDS: dict[str, dict] = {
    "genesis": {
        "event": str, "supply": str, "balances": {str: str}, "wallet_universe_size": int,
        "scenario": str, "mechanism": str, "identity": (None, _IDENTITY),
    },
    "submit": {
        "event": str, "proposal": str, "options": [str], "discussion_window": [int, int], "voting_window": [int, int],
        "mechanism": str, "tick": int,
        "quorum": (None, {"basis": frozenset(b.value for b in QuorumBasis), "threshold": _FRACTION}),
        "conviction": (None, {"decay_rate": _FRACTION}),
    },
    "phase": {"event": str, "proposal": str, "from": str, "to": str, "tick": int},
    "cast": {"event": str, "proposal": str, "option": str, "wallet": str, "committed": str, "tick": int},
    "finalize": {
        "event": str, "proposal": str, "phase": str, "tick": int,
        "tally": {"per_option_power": {str: str}, "participating_tokens": str, "outcome": dict},
        "dropped_unverified": [str], "equivocating_identities": [str],
    },
}
_OPTIONAL = {"genesis": GENESIS_CONTEXT, "finalize": frozenset({"dropped_unverified", "equivocating_identities"})}
_MISSING = object()


@functools.cache  # compiled at the first decode: `govlab run` never reads a cast back
def _cast_text() -> re.Pattern:
    return re.compile(
        r'\{"committed":"((?:0|[1-9][0-9]{0,9})\.[0-9]{9})","event":"cast","option":"([ !#-\[\]-~]*)",'
        r'"proposal":"([A-Za-z0-9_-]{1,64})","tick":(0|[1-9][0-9]{0,17}),"wallet":"([A-Za-z0-9_-]{1,64})"\}'
    )


def decode(k: int, text: str) -> dict[str, Any]:
    """Event k of a ledger: its payload text parsed and checked against its kind's fields."""
    if cast := _cast_text().fullmatch(text):
        committed, option, proposal, tick, wallet = cast.groups()
        return {
            "committed": committed, "event": "cast", "option": option, "proposal": proposal,
            "tick": int(tick), "wallet": wallet,
        }
    event = loads_canonical(text)
    kind = event.get("event") if type(event) is dict else None
    if type(kind) is not str:
        raise GovernanceError(f"event {k}: field 'event' is missing or has the wrong JSON type")
    if kind not in _KINDS:
        raise GovernanceError(f"event {k}: unknown event kind {kind!r}")
    _check(event, _KINDS[kind], k, "", _OPTIONAL.get(kind, ()))
    return event


def _check(value: Any, spec: Any, k: int, path: str, optional=()) -> None:
    """Raise GovernanceError naming event k and the field at path unless value matches spec."""
    if type(spec) is tuple:
        if value is None:
            return
        spec = spec[1]
    kind = type(spec)
    if kind is type:
        ok = type(value) is spec
    elif kind is frozenset:
        ok = type(value) is str and value in spec
    elif kind is re.Pattern:
        ok = type(value) is str and spec.fullmatch(value) is not None
    else:  # an object, or an array: [spec] of any length, [spec, spec] of two
        ok = type(value) is kind and (kind is dict or len(spec) in (1, len(value)))
    if not ok:
        raise GovernanceError(f"event {k}: field {path!r} is missing or has the wrong JSON type")
    # Genesis has a balance and a bound wallet per wallet: plain items, and bindings whose fields are
    # plain, are scanned without a call each.  A mismatch falls through to the walk, which names it.
    if kind is list:
        if len(spec) == 1 and type(spec[0]) is type and all(type(item) is spec[0] for item in value):
            return
        if spec[0] is _BINDING and all(
            type(b) is dict and len(b) == 2 and type(b.get("identity")) is str and type(ws := b.get("wallets")) is list
            and all(type(w) is str for w in ws)
            for b in value
        ):
            return
        for i, item in enumerate(value):
            _check(item, spec[min(i, len(spec) - 1)], k, f"{path}.{i}")
    elif kind is dict and str in spec:
        if type(spec[str]) is type and all(type(item) is spec[str] for item in value.values()):
            return
        for key, item in value.items():
            _check(item, spec[str], k, f"{path}.{key}")
    elif kind is dict:
        prefix = f"{path}." if path else ""
        for key, item_spec in spec.items():
            if key not in optional or key in value:
                _check(value.get(key, _MISSING), item_spec, k, prefix + key)
        if unknown := sorted(value.keys() - spec.keys()):
            raise GovernanceError(f"replay diverged at event {k}: field {prefix + unknown[0]!r} is not an event field")
