"""The event codec: each kind's encoder against canonical_json, and decode of what it wrote."""

import json
import re
from decimal import Decimal
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from govlab import events
from govlab.core import (
    MAX_UNITS,
    GovernanceError,
    GovlabError,
    ProposalId,
    TallyOutcome,
    TallyResult,
    TokenAmount,
    VotingPower,
    WalletId,
    canonical_json,
    loads_canonical,
)
from govlab.governance import Proposal, Window
from govlab.identity import RegistryMode, VotePolicy
from govlab.mechanisms import ConvictionParams, Mechanism, QuorumBasis, QuorumConfig
from oracles import canonical_json_ref

_id_st = st.from_regex(r"[A-Za-z0-9_-]{1,64}", fullmatch=True)
_label_st = st.lists(
    st.text(st.characters(blacklist_categories=()), max_size=6)
    | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", " ", "\ud800", "\udfff", "😀", "%d"]),
    min_size=1,
    max_size=5,
).map("".join).filter(bool)
_tick_st = st.integers(min_value=0, max_value=10**12)
_amount_st = st.integers(min_value=0, max_value=MAX_UNITS).map(TokenAmount)
_fraction_st = st.integers(min_value=0, max_value=10**9).map(lambda u: Decimal(u).scaleb(-9))


def _cast(proposal, option, tick, committed, wallet):
    text = events.cast_template(ProposalId(proposal), option, tick)(committed.units, WalletId(wallet))
    fields = {"event": "cast", "proposal": proposal, "option": option, "tick": tick, "committed": str(committed), "wallet": wallet}
    return text, fields


@st.composite
def _genesis(draw):
    balances = draw(st.dictionaries(_id_st.map(WalletId), _amount_st, max_size=4))
    supply = draw(_amount_st)
    context = draw(
        st.none()
        | st.fixed_dictionaries(
            {},
            optional={
                "scenario": _label_st,
                "mechanism": st.sampled_from([m.value for m in Mechanism]),
                "identity": st.none() | st.fixed_dictionaries({
                    "policy": st.sampled_from([p.value for p in VotePolicy]),
                    "registry": st.fixed_dictionaries({
                        "mode": st.sampled_from([m.value for m in RegistryMode]),
                        "bindings": st.lists(
                            st.fixed_dictionaries({"identity": _id_st, "wallets": st.lists(_id_st, max_size=3)}),
                            max_size=3,
                        ),
                    }),
                }),
            },
        )
    )
    fields = {
        "event": "genesis", "supply": str(supply), "balances": {w: str(b) for w, b in balances.items()},
        "wallet_universe_size": len(balances), **(context or {}),
    }
    return events.genesis(supply, balances, context), fields


@st.composite
def _submit(draw):
    options = draw(st.lists(_label_st, min_size=2, max_size=4, unique=True))
    start, gap, length, tick = (draw(st.integers(min_value=v, max_value=50)) for v in (0, 1, 1, 0))
    quorum = draw(st.none() | st.builds(QuorumConfig, st.sampled_from(list(QuorumBasis)), _fraction_st))
    conviction = draw(st.none() | st.builds(ConvictionParams, _fraction_st.filter(bool)))
    proposal = Proposal(
        id=ProposalId(draw(_id_st)),
        options=tuple(options),
        discussion_window=Window(start, start + gap),
        voting_window=Window(start + gap, start + gap + length),
        mechanism=draw(st.sampled_from([Mechanism.TOKEN, Mechanism.QUADRATIC])),
        quorum=quorum,
        conviction=conviction,
    )
    fields = {
        "event": "submit",
        "proposal": proposal.id,
        "options": options,
        "discussion_window": [start, start + gap],
        "voting_window": [start + gap, start + gap + length],
        "mechanism": proposal.mechanism.value,
        # str() of a Decimal: below 10^-6 it is exponent form, such as 5.00E-7 (see events.py).
        "quorum": {"basis": quorum.basis.value, "threshold": str(quorum.threshold)} if quorum else None,
        "conviction": {"decay_rate": str(conviction.decay_rate)} if conviction else None,
        "tick": tick,
    }
    return events.submit(proposal, tick), fields


@st.composite
def _finalize(draw):
    powers = draw(st.dictionaries(_label_st, _amount_st.map(lambda a: VotingPower(a.units)), min_size=1, max_size=3))
    outcome = draw(
        st.sampled_from(sorted(powers)).map(TallyOutcome.winner)
        | st.lists(st.sampled_from(sorted(powers)), min_size=1, unique=True).map(TallyOutcome.tie)
        | st.just(TallyOutcome.quorum_failed())
    )
    result = TallyResult(powers, draw(_amount_st), outcome, ())
    report = draw(st.none() | st.builds(SimpleNamespace, dropped_unverified=st.lists(_id_st), equivocating_identities=st.lists(_id_st)))
    proposal, phase, tick = draw(_id_st), draw(st.sampled_from(["passed", "rejected", "quorum_failed"])), draw(_tick_st)
    fields = {"event": "finalize", "proposal": proposal, "phase": phase, "tally": result.to_json_obj(), "tick": tick}
    if report is not None:
        fields.update(vars(report))
    return events.finalize(ProposalId(proposal), phase, result, tick, report), fields


_KINDS = {
    "genesis": _genesis(),
    "submit": _submit(),
    "phase": st.builds(
        lambda p, t: (events.phase(ProposalId(p), t),
                      {"event": "phase", "proposal": p, "from": "discussion", "to": "voting", "tick": t}),
        _id_st, _tick_st,
    ),
    "cast": st.builds(_cast, _id_st, _label_st, _tick_st, _amount_st.filter(lambda a: a.units), _id_st),
    "finalize": _finalize(),
    "executed": st.builds(
        lambda p, t: (events.executed(ProposalId(p), t), {"event": "executed", "proposal": p, "tick": t}),
        _id_st, _tick_st,
    ),
}


class TestCodec:
    @pytest.mark.parametrize("kind", list(_KINDS))
    @given(data=st.data())
    @settings(max_examples=100)
    def test_each_kind_encodes_as_canonical_json_and_decodes_back(self, kind, data):
        """canonical_json of the event's dict form is the oracle; decode returns its JSON fields."""
        text, fields = data.draw(_KINDS[kind])
        assert text == canonical_json(fields)
        assert events.decode(7, text) == loads_canonical(canonical_json(fields))

    def test_a_percent_sign_in_a_label_survives_the_cast_template(self):
        """The template is %-formatted, so a label's own % signs must survive it."""
        text, fields = _cast("p", "100% %d %s", 0, TokenAmount.parse("0.5"), "w")
        assert text == canonical_json(fields)

    @given(
        balances=st.dictionaries(_id_st.map(WalletId), _amount_st, max_size=40),
        scenario=st.none() | _label_st | st.sampled_from(['"', "\\", 'a"b\\c', "caf\u00e9", "\u2603 \U0001f600"]),
        identity=st.booleans(),
        supply=_amount_st,
    )
    @settings(max_examples=150)
    def test_genesis_writes_its_balances_as_canonical_json_would(self, balances, scenario, identity, supply):
        """The balances member is written directly; the whole text equals canonical_json of the event."""
        context = {"mechanism": "token"}
        if scenario is not None:
            context["scenario"] = scenario
        if identity:
            context["identity"] = {
                "policy": "drop_unverified",
                "registry": {"mode": "collapse_per_identity", "bindings": [{"identity": "i", "wallets": sorted(balances)}]},
            }
        fields = {
            "event": "genesis", "supply": str(supply), "balances": {str(w): str(b) for w, b in balances.items()},
            "wallet_universe_size": len(balances), **context,
        }
        text = events.genesis(supply, balances, context)
        assert text == canonical_json(fields) == canonical_json_ref(fields)
        assert events.decode(0, text) == fields

    def test_genesis_context_takes_only_its_fixed_keys(self):
        with pytest.raises(GovernanceError, match="unknown keys"):
            events.genesis(TokenAmount.parse(1), {}, {"scenario": "s", "seed": 7})

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"event":"vote","tick":1}', "event 3: unknown event kind 'vote'"),
            ('["cast"]', "event 3: field 'event' is missing"),
            ('{"event":"executed","proposal":"p","tick":1,"x":0}', "event 3: field 'x' is not an event field"),
            ('{"event":"phase","from":"a","proposal":"p","tick":1,"to":2}', "event 3: field 'to' is missing"),
        ],
    )
    def test_decode_names_the_event_and_the_field(self, text, message):
        with pytest.raises(GovernanceError, match=message):
            events.decode(3, text)


def _decode_ref(k, text):
    """decode as it was before the cast pattern: a JSON decode, then the cast checks or the table."""
    event = loads_canonical(text)
    kind = event.get("event") if type(event) is dict else None
    if kind == "cast" and event.keys() == events._KINDS["cast"].keys() and type(event["tick"]) is int and (
        type(event["proposal"]) is type(event["option"]) is type(event["wallet"]) is type(event["committed"]) is str
    ):
        return event
    if type(kind) is not str:
        raise GovernanceError(f"event {k}: field 'event' is missing or has the wrong JSON type")
    if kind not in events._KINDS:
        raise GovernanceError(f"event {k}: unknown event kind {kind!r}")
    events._check(event, events._KINDS[kind], k, "", events._OPTIONAL.get(kind, ()))
    return event


def _outcome(decoder, text):
    """The value's repr (so key order, 1 and True differ), or the error's class and message."""
    try:
        return repr(decoder(5, text))
    except GovlabError as exc:
        return type(exc), str(exc)


# Field values that sit at an edge of the cast pattern, and forms JSON or decode refuses.
_EDGES = {
    "option": ['"', "\\", "%", "\u00e9", "\x01", "\x7f"],
    "committed": [
        "9223372036.854775807", "9223372036.854775808", "9999999999.999999999", "10000000000.000000000",
        "1.50000000", "1.5000000000", "01.500000000", "1", "",
    ],
    "tick": ["007", "00", "9" * 18, "1" + "0" * 18, "-1", "1.0", '"5"', "null"],
    "wallet": ["w" * 64, "w" * 65, "", "w!"],
    "proposal": ["p" * 65, "p.1"],
}


@st.composite
def _cast_mutants(draw):
    """A cast's text as cast_template writes it, after at most one edit."""
    printable = st.from_regex(r"[ -~]{1,8}", fullmatch=True)  # the pattern's option alphabet, and '"' and '\\'
    option = draw(_label_st | printable | st.sampled_from(["approve", "", 'a"b', "a\\b", "100%", "caf\u00e9", "a\x01b", "\x7f"]))
    tick = draw(_tick_st | st.sampled_from([10**18 - 1, 10**18, 10**19]))
    units = draw(st.integers(min_value=1, max_value=MAX_UNITS))
    text = events.cast_template(ProposalId(draw(_id_st)), option, tick)(units, WalletId(draw(_id_st)))
    edit = draw(st.sampled_from(["none", "raw", "value", "reorder", "space", "key", "trail"]))
    if edit == "trail":
        return text + draw(st.sampled_from(["x", "}", ",", '"', "{}", " 1"]))
    if edit == "raw":  # unescaped, at the start of the option's string
        return text.replace('"option":"', '"option":"' + draw(st.sampled_from(_EDGES["option"])), 1)
    if edit == "value":
        field = draw(st.sampled_from(sorted(_EDGES)))
        value = draw(st.sampled_from(_EDGES[field]))
        if field != "tick":
            value = json.dumps(value)
        return re.sub(rf'"{field}":("(?:[^"\\\\]|\\\\.)*"|[0-9]+)', lambda _: f'"{field}":{value}', text, count=1)
    if edit == "reorder":
        items = draw(st.permutations(list(json.loads(text).items())))
        return json.dumps(dict(items), separators=(",", ":"))
    if edit == "space":
        at = draw(st.sampled_from([0, 1, text.index(":") + 1, text.index(",") + 1, len(text) - 1, len(text)]))
        return text[:at] + draw(st.sampled_from([" ", "\n", "\t", "\r"])) + text[at:]
    if edit == "key":
        return draw(st.sampled_from([text[:-1] + ',"x":1}', text.replace('"wallet"', '"Wallet"'), re.sub(r',"tick":[0-9]+', "", text)]))
    return text


class TestCastFastPath:
    """decode matches a cast's exact text first; every text must get the old decode's dict or error."""

    @given(_cast_mutants())
    @settings(max_examples=500)
    def test_a_cast_decodes_as_before(self, text):
        assert _outcome(events.decode, text) == _outcome(_decode_ref, text)

    @pytest.mark.parametrize("field", sorted(_EDGES))
    def test_each_edge_decodes_as_before(self, field):
        """One text per edge value, so each stays covered whatever the draws above are."""
        text = events.cast_template(ProposalId("p1"), "approve", 7)(5 * 10**9, WalletId("w1"))
        for value in _EDGES[field]:
            if field == "option":
                edited = text.replace('"option":"', '"option":"' + value, 1)
            else:
                literal = value if field == "tick" else json.dumps(value)
                edited = re.sub(rf'"{field}":("[^"]*"|[0-9]+)', lambda _: f'"{field}":{literal}', text, count=1)
            assert edited != text
            assert _outcome(events.decode, edited) == _outcome(_decode_ref, edited), edited

    @pytest.mark.parametrize("tail", ["x", "}", " ", "\n"])
    def test_text_after_the_event_decodes_as_before(self, tail):
        text = events.cast_template(ProposalId("p1"), "approve", 7)(5 * 10**9, WalletId("w1")) + tail
        assert _outcome(events.decode, text) == _outcome(_decode_ref, text)

    def test_the_template_text_takes_the_pattern(self, monkeypatch):
        """The cast_template text of an ASCII option without '"' or '\\' is decoded without JSON."""
        text = events.cast_template(ProposalId("p1"), "yes, 100% (~)", 10**18 - 1)(MAX_UNITS, WalletId("w" * 64))
        expected = _decode_ref(0, text)
        monkeypatch.setattr(events, "loads_canonical", None)
        assert repr(events.decode(0, text)) == repr(expected)
