"""The event codec: each kind's encoder against canonical_json, and decode of what it wrote."""

from decimal import Decimal
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from govlab import events
from govlab.core import (
    MAX_UNITS,
    GovernanceError,
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

_id_st = st.from_regex(r"[A-Za-z0-9_-]{1,64}", fullmatch=True)
_label_st = st.lists(
    st.text(st.characters(blacklist_categories=()), max_size=6)
    | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", " ", "\ud800", "\udfff", "😀", "%d"]),
    min_size=1,
    max_size=5,
).map("".join).filter(bool)
_tick_st = st.integers(min_value=0, max_value=10**12)
_amount_st = st.integers(min_value=0, max_value=MAX_UNITS).map(TokenAmount.from_units)
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
