"""The event codec: each kind's encoder against canonical_json, and decode of what it wrote."""

import importlib.util
import json
import re
from decimal import Decimal
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from govlab import core, events
from govlab.core import (
    MAX_UNITS,
    GovernanceError,
    GovlabError,
    IdentityId,
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
from govlab.identity import IdentityFilter, IdentityRegistry, RegistryMode, VotePolicy
from govlab.mechanisms import ConvictionParams, Mechanism, QuorumBasis, QuorumConfig
from govlab.scenario import load_preset, loads_scenario, preset_names
from govlab.simulation import build_setup, run
from oracles import canonical_json_ref, identity_record_ref

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"

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


def _reads_back(label):
    """Whether a label decodes back from its JSON text as itself."""
    return loads_canonical(canonical_json(label)) == label


_option_st = _label_st.filter(_reads_back)  # a Proposal refuses the others, so no cast or tally holds one


def _genesis_fields(supply, balances, context):
    """genesis's event as a dict, its identity member the reference record."""
    fields = {
        "event": "genesis", "supply": str(supply), "balances": {str(w): str(b) for w, b in balances.items()},
        "wallet_universe_size": len(balances), **context,
    }
    if "identity" in context:
        fields["identity"] = identity_record_ref(context["identity"])
    return fields


def _finalize_fields(proposal, outcome_phase, result, tick, report=None):
    """finalize's event as a dict, its filter lists the report's ids."""
    fields = {"event": "finalize", "proposal": str(proposal), "phase": outcome_phase, "tally": result.to_json_obj(), "tick": tick}
    if report is not None:
        fields["dropped_unverified"] = [str(w) for w in report.dropped_unverified]
        fields["equivocating_identities"] = [str(i) for i in report.equivocating_identities]
    return fields


def _cast(proposal, option, tick, committed, wallet):
    text = events.cast_template(ProposalId(proposal), option)(tick)(committed.units, WalletId(wallet))
    fields = {"event": "cast", "proposal": proposal, "option": option, "tick": tick, "committed": str(committed), "wallet": wallet}
    return text, fields


@st.composite
def _identity_filters(draw, wallets=st.lists(_id_st, max_size=6)):
    """A filter whose registry was asked to bind each of the wallets to one of a few identities,
    in any order; the registry refuses some binds, and the genesis record lists what it kept."""
    registry = IdentityRegistry(draw(st.sampled_from(list(RegistryMode))))
    names = draw(st.lists(_id_st, min_size=1, max_size=3))
    for wallet in draw(wallets):
        registry.bind(draw(st.sampled_from(names)), wallet)
    return IdentityFilter(registry, draw(st.sampled_from(list(VotePolicy))))


@st.composite
def _genesis(draw):
    balances = draw(st.dictionaries(_id_st.map(WalletId), _amount_st, max_size=4))
    supply = draw(_amount_st)
    context = draw(
        st.none()
        | st.fixed_dictionaries(
            {},
            optional={
                "scenario": _label_st.filter(_reads_back),  # genesis refuses the others
                "mechanism": st.sampled_from([m.value for m in Mechanism]),
                "identity": st.none() | _identity_filters(),
            },
        )
    )
    return events.genesis(supply, balances, context), _genesis_fields(supply, balances, context or {})


@st.composite
def _submit(draw):
    options = draw(st.lists(_option_st, min_size=2, max_size=4, unique=True))
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
    powers = draw(st.dictionaries(_option_st, _amount_st.map(lambda a: VotingPower(a.units)), min_size=1, max_size=3))
    outcome = draw(
        st.sampled_from(sorted(powers)).map(TallyOutcome.winner)
        | st.lists(st.sampled_from(sorted(powers)), min_size=1, unique=True).map(TallyOutcome.tie)
        | st.just(TallyOutcome.quorum_failed())
    )
    result = TallyResult(powers, draw(_amount_st), outcome, ())
    report = draw(st.none() | st.builds(SimpleNamespace, dropped_unverified=st.lists(_id_st), equivocating_identities=st.lists(_id_st)))
    proposal, phase, tick = draw(_id_st), draw(st.sampled_from(["passed", "rejected", "quorum_failed"])), draw(_tick_st)
    return events.finalize(ProposalId(proposal), phase, result, tick, report), _finalize_fields(proposal, phase, result, tick, report)


_KINDS = {
    "genesis": _genesis(),
    "submit": _submit(),
    "phase": st.builds(
        lambda p, t: (events.phase(ProposalId(p), t),
                      {"event": "phase", "proposal": p, "from": "discussion", "to": "voting", "tick": t}),
        _id_st, _tick_st,
    ),
    "cast": st.builds(_cast, _id_st, _option_st, _tick_st, _amount_st.filter(lambda a: a.units), _id_st),
    "finalize": _finalize(),
}


class TestCodec:
    @pytest.mark.parametrize("kind", list(_KINDS))
    @given(data=st.data())
    @settings(max_examples=100)
    def test_each_kind_encodes_as_canonical_json_and_decodes_back(self, kind, data):
        """canonical_json of the event's dict form is the oracle; decode returns the fields themselves."""
        text, fields = data.draw(_KINDS[kind])
        assert text == canonical_json(fields)
        assert events.decode(7, text) == fields

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
        """The balances member is written directly; the whole text equals canonical_json of the event,
        and decodes back to it.  A label that would not decode back is refused."""
        context = {"mechanism": "token"}
        if scenario is not None:
            context["scenario"] = scenario
            if not _reads_back(scenario):
                with pytest.raises(GovernanceError, match="genesis scenario label does not read back"):
                    events.genesis(supply, balances, context)
                return
        if identity:
            registry = IdentityRegistry(RegistryMode.COLLAPSE_PER_IDENTITY)
            for wallet in balances:
                registry.bind("i", wallet)
            context["identity"] = IdentityFilter(registry, VotePolicy.DROP_UNVERIFIED)
        fields = _genesis_fields(supply, balances, context)
        text = events.genesis(supply, balances, context)
        assert text == canonical_json(fields) == canonical_json_ref(fields)
        assert events.decode(0, text) == fields

    @pytest.mark.parametrize("key", ["scenario", "mechanism"])
    def test_genesis_refuses_a_label_that_reads_back_as_another(self, key):
        """U+D800 then U+DFFF, two code points, is written as a surrogate pair, which JSON reads back
        as the one character U+103FF: the decoded genesis would name another label."""
        with pytest.raises(GovernanceError, match=f"genesis {key} label does not read back from its JSON text"):
            events.genesis(TokenAmount(1), {}, {key: "x\ud800\udfffy"})
        for label in ("x\U000103ffy", "x\ud800y", "x\udfff\ud800y"):
            assert events.decode(0, events.genesis(TokenAmount(1), {}, {key: label}))[key] == label

    def test_a_proposal_refuses_an_option_that_reads_back_as_another(self):
        """U+D800 then U+DC00, two code points, would be written as a surrogate pair in the submit and
        cast events, which JSON reads back as the one character U+10000."""
        fixed = {"discussion_window": Window(0, 1), "voting_window": Window(1, 2), "mechanism": Mechanism.TOKEN}
        with pytest.raises(GovernanceError, match=r"^proposal 'p': option 'a\\ud800\\udc00' does not read back"):
            Proposal(ProposalId("p"), ("a\ud800\udc00", "b"), **fixed)
        for option in ("a\U00010000", "a\ud800", "a\udc00\ud800"):
            text = events.submit(Proposal(ProposalId("p"), (option, "b"), **fixed), 0)
            assert events.decode(1, text)["options"] == [option, "b"]

    def test_genesis_context_takes_only_its_fixed_keys(self):
        with pytest.raises(GovernanceError, match="unknown keys"):
            events.genesis(TokenAmount.parse(1), {}, {"scenario": "s", "seed": 7})

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"event":"vote","tick":1}', "event 3: unknown event kind 'vote'"),
            ('["cast"]', "event 3: field 'event' is missing"),
            ('{"event":"phase","from":"discussion","proposal":"p","tick":1,"to":"voting","x":0}', "event 3: field 'x' is not an event field"),
            ('{"event":"phase","from":"a","proposal":"p","tick":1,"to":2}', "event 3: field 'to' is missing"),
        ],
    )
    def test_decode_names_the_event_and_the_field(self, text, message):
        with pytest.raises(GovernanceError, match=message):
            events.decode(3, text)

    def test_every_kind_is_written_by_a_run(self):
        """The decoder knows the kinds the presets and the benchmark workloads write, and no other."""
        scenarios = [load_preset(name) for name in preset_names()]
        scenarios += [_bench_scenario(w) for w in ("crowd_quadratic", "sybil_identity", "conviction_horizon")]
        written = set()
        for scenario in scenarios:
            run(scenario, ledger_sink=lambda entry: written.add(json.loads(entry.payload)["event"]))
        assert written == set(events._KINDS)


def _bench_scenario(workload):
    """The benchmark's seed-1 scenario of a workload, its generator read only."""
    spec = importlib.util.spec_from_file_location("govlab_bench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return loads_scenario(module.scenario_text(workload, 1))


class TestIdentityMembers:
    """genesis builds its identity record from the engine's IdentityFilter, and finalize its two
    filter lists from the FilterReport: each text must equal canonical_json of the event's
    reference dict, whose identity record comes from oracles.identity_record_ref."""

    @staticmethod
    def _run_observed(scenario):
        """Run the scenario with both encoders checked against their references; returns the
        genesis identity record and each finalize's filter lists (None without a filter)."""
        genesis, finalize, seen = events.genesis, events.finalize, {"identity": [], "lists": []}

        def checked_genesis(supply, balances, context):
            text, fields = genesis(supply, balances, context), _genesis_fields(supply, balances, context)
            assert text == canonical_json(fields)
            seen["identity"].append(fields["identity"])
            return text

        def checked_finalize(*args):
            text, fields = finalize(*args), _finalize_fields(*args)
            assert text == canonical_json(fields)
            lists = (fields["dropped_unverified"], fields["equivocating_identities"]) if "dropped_unverified" in fields else None
            seen["lists"].append(lists)
            return text

        with mock.patch.object(events, "genesis", checked_genesis), mock.patch.object(events, "finalize", checked_finalize):
            run(scenario)
        return seen

    @pytest.mark.parametrize("name", preset_names())
    def test_presets(self, name):
        scenario = load_preset(name)
        seen = self._run_observed(scenario)
        (record,) = seen["identity"]
        assert (record is None) == (scenario.identity is None)
        assert len(seen["lists"]) == len(scenario.proposals)

    @pytest.mark.parametrize("workload", ["crowd_quadratic", "sybil_identity", "conviction_horizon"])
    def test_benchmark_workloads(self, workload):
        scenario = _bench_scenario(workload)
        seen = self._run_observed(scenario)
        (record,) = seen["identity"]
        if workload == "sybil_identity":
            assert sum(len(b["wallets"]) for b in record["registry"]["bindings"]) > 1_000
            assert all(lists is not None and lists[0] for lists in seen["lists"])  # thousands of dropped wallets
        else:
            assert record is None and seen["lists"] == [None] * len(scenario.proposals)

    @given(identity=st.none() | _identity_filters(wallets=st.lists(_id_st, max_size=30)), supply=_amount_st)
    @settings(max_examples=150)
    def test_drawn_bindings(self, identity, supply):
        context = {"identity": identity}
        assert events.genesis(supply, {}, context) == canonical_json(_genesis_fields(supply, {}, context))

    def test_genesis_encodes_without_the_canonical_walk(self):
        """Its fields are typed values genesis built or checked, so they skip canonical_json; the
        differentials above compare the text with canonical_json of the reference dict."""
        scenario = _bench_scenario("sybil_identity")
        setup = build_setup(scenario)
        context = {"scenario": scenario.name, "identity": setup.identity}
        with mock.patch.object(core, "_canonical_value", side_effect=AssertionError("walked")) as walk:
            text = events.genesis(scenario.supply, setup.balances, context)
        assert not walk.called
        assert text == canonical_json(_genesis_fields(scenario.supply, setup.balances, context))

    def test_an_empty_registry_and_a_null_identity(self):
        empty = IdentityFilter(IdentityRegistry(RegistryMode.STRICT_ONE_WALLET), VotePolicy.ADMIT_UNVERIFIED)
        assert '"identity":{"policy":"admit_unverified","registry":{"bindings":[],"mode":"strict_one_wallet"}}' in (
            events.genesis(TokenAmount(1), {}, {"identity": empty})
        )
        assert '"event":"genesis","identity":null,' in events.genesis(TokenAmount(1), {}, {"identity": None})

    @given(dropped=st.lists(_id_st, max_size=5), equivocating=st.lists(_id_st, max_size=5), tick=_tick_st)
    @settings(max_examples=150)
    def test_drawn_filter_lists(self, dropped, equivocating, tick):
        report = SimpleNamespace(
            dropped_unverified=tuple(WalletId(w) for w in dropped),
            equivocating_identities=tuple(IdentityId(i) for i in equivocating),
        )
        result = TallyResult({"a": VotingPower(3)}, TokenAmount(9), TallyOutcome.winner("a"), (VotingPower(3),))
        args = (ProposalId("p1"), "passed", result, tick, report)
        text = events.finalize(*args)
        assert text == canonical_json(_finalize_fields(*args))
        if not dropped and not equivocating:
            assert text.startswith('{"dropped_unverified":[],"equivocating_identities":[],"event":"finalize",')


class TestEncodersSkipTheWalk:
    """Submit, phase and finalize, like genesis, hand their dict to the encoder without
    canonical_json's walk; canonical_json of the same fields is the oracle of their text."""

    @staticmethod
    def _unwalked(encode, *args):
        with mock.patch.object(core, "_canonical_value", side_effect=AssertionError("walked")) as walk:
            text = encode(*args)
        assert not walk.called
        return text

    @pytest.mark.parametrize("gated", [False, True])
    def test_submit_encodes_without_the_canonical_walk(self, gated):
        proposal = Proposal(
            id=ProposalId("p-1"), options=("fund", 'say "no"', "\u00e9t\u00e9"), discussion_window=Window(0, 3),
            voting_window=Window(3, 9), mechanism=Mechanism.CONVICTION if gated else Mechanism.TOKEN,
            quorum=QuorumConfig(QuorumBasis.WALLET_COUNT_FRACTION, Decimal("0.0000005")) if gated else None,
            conviction=ConvictionParams(Decimal("0.3")) if gated else None,
        )
        text = self._unwalked(events.submit, proposal, 2)
        assert text == canonical_json({
            "event": "submit", "proposal": "p-1", "options": list(proposal.options), "discussion_window": [0, 3],
            "voting_window": [3, 9], "mechanism": proposal.mechanism.value,
            "quorum": {"basis": "wallet_count_fraction", "threshold": "5.00E-7"} if gated else None,
            "conviction": {"decay_rate": "0.300000000"} if gated else None, "tick": 2,
        })

    def test_phase_encodes_without_the_canonical_walk(self):
        text = self._unwalked(events.phase, ProposalId("p-1"), 3)
        assert text == canonical_json({"event": "phase", "proposal": "p-1", "from": "discussion", "to": "voting", "tick": 3})

    @pytest.mark.parametrize("filtered", [False, True])
    def test_finalize_encodes_without_the_canonical_walk(self, filtered):
        powers = {"fund": VotingPower(7), 'say "no"': VotingPower(7)}
        result = TallyResult(powers, TokenAmount(14), TallyOutcome.tie(powers), (VotingPower(7), VotingPower(7)))
        report = SimpleNamespace(dropped_unverified=(WalletId("w1"),), equivocating_identities=(IdentityId("i2"),))
        args = (ProposalId("p-1"), "rejected", result, 9, report if filtered else None)
        assert self._unwalked(events.finalize, *args) == canonical_json(_finalize_fields(*args))


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
    text = events.cast_template(ProposalId(draw(_id_st)), option)(tick)(units, WalletId(draw(_id_st)))
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
        text = events.cast_template(ProposalId("p1"), "approve")(7)(5 * 10**9, WalletId("w1"))
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
        text = events.cast_template(ProposalId("p1"), "approve")(7)(5 * 10**9, WalletId("w1")) + tail
        assert _outcome(events.decode, text) == _outcome(_decode_ref, text)

    def test_the_template_text_takes_the_pattern(self, monkeypatch):
        """The cast_template text of an ASCII option without '"' or '\\' is decoded without JSON."""
        text = events.cast_template(ProposalId("p1"), "yes, 100% (~)")(10**18 - 1)(MAX_UNITS, WalletId("w" * 64))
        expected = _decode_ref(0, text)
        monkeypatch.setattr(events, "loads_canonical", None)
        assert repr(events.decode(0, text)) == repr(expected)
