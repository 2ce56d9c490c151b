"""Stage 1's behaviour, pinned: what the scenario parser accepts or refuses, and every error
line and its order, on a fixed corpus of hostile files.

The corpus is derandomized mutants of the presets (test_fuzz.mutant, driven by a seeded
random.Random) and crowd-shaped agent and proposal lists with nulls, missing and unknown
keys, duplicate ids, bad balances, non-object items and more than MAX_ERRORS faults.  Each
file's outcome is the Scenario's repr, or its error lines (the count of unlisted errors is
their last line), and the test compares the SHA-256 of all outcomes with a pinned value.  A
parser change that moves any accepted value, error text or error order changes the hash.
"""

import hashlib
import importlib.util
import json
import random
from pathlib import Path

import pytest

from govlab.core import GovlabError
from govlab.scenario import AgentSpec, ProposalSpec, load_preset, loads_scenario, preset_names
from test_fuzz import mutant

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"

# A value that is wrong for some field, or right for another.
_JUNK = (
    None, True, 0, -1, 1.5, "", "x", "bad id", "é", "a" * 49, [], [1, 2], {}, {"a": 1},
    "honest", "sybil_attacker", "1.0000000001", "-1", "１", 10**30, "0.000000000",
)
_BALANCES = ("-1", "1.0000000001", 1.5, "１", 10**30, "abc", True, [], "0.000000000", "9223372036.854775808", "7")
_OPTIONS = ("yes", "no", "later")
_OPTIONAL_AGENT_KEYS = ("preference", "cast_at", "n_wallets", "identity_strategy")


def _balance(rng: random.Random) -> object:
    units = rng.randrange(1, 10**12)
    return rng.choice((f"{units // 10**9}.{units % 10**9:09d}", units // 10**9 + 1, str(units // 10**9 + 1)))


def _proposals(rng: random.Random, count: int) -> list[dict]:
    options = list(_OPTIONS[: rng.choice((2, 3))])
    return [
        {"id": f"p{k}", "options": options, "discussion_window": [10 * k, 10 * k + 2], "voting_window": [10 * k + 2, 10 * k + 9]}
        for k in range(count)
    ]


def _agents(rng: random.Random, count: int) -> list[dict]:
    agents = []
    for i in range(count):
        kind = rng.choices(("honest", "whale", "abstainer", "sybil_attacker"), (80, 5, 10, 5))[0]
        agent = {"id": f"a{i}", "kind": kind, "balance": _balance(rng)}
        if kind != "abstainer":
            agent["preference"] = rng.choice((["yes"], "no", ["no", "yes"], ["yes", "no", "later"]))
        if rng.random() < 0.3:
            agent["cast_at"] = rng.choice((2, 5, 8, 9, 12))
        if kind == "sybil_attacker":
            agent["n_wallets"] = rng.choice((2, 3, 11))
            if rng.random() < 0.5:
                agent["identity_strategy"] = rng.choice(("one_identity", "fake_identities"))
        agents.append(agent)
    return agents


def _fault(rng: random.Random, items: list, i: int) -> None:
    """Break item i of an agent or proposal list in one of the ways a hostile file can."""
    item = items[i]
    if not isinstance(item, dict):
        return
    way = rng.randrange(10)
    if way == 0:  # a null, on a nullable or a non-nullable field
        item[rng.choice(sorted(item))] = None
    elif way == 1:  # a key missing, required or not
        del item[rng.choice(sorted(item))]
    elif way == 2:
        item[rng.choice(("colour", "Id", "zz", "weight"))] = rng.choice(_JUNK)
    elif way == 3 and i:  # a duplicate id
        earlier = items[rng.randrange(i)]
        item["id"] = earlier.get("id") if isinstance(earlier, dict) else "a0"
    elif way == 4 and "balance" in item:
        item["balance"] = rng.choice(_BALANCES)
    elif way == 5:
        items[i] = rng.choice((1, "x", None, [], [1], True))
    elif way == 6:  # a junk value in place of any field
        item[rng.choice(sorted(item) or ["id"])] = rng.choice(_JUNK)
    elif way == 7 and "options" in item:
        item["options"] = rng.choice((["a", "a"], [], "solo", ["", "x"], [1, 2], ["yes"], ["yes", "no", "maybe"]))
    elif way == 7:
        item["preference"] = rng.choice((["maybe"], ["yes", "yes"], [], "", ["no", "maybe"]))
        item[rng.choice(_OPTIONAL_AGENT_KEYS)] = rng.choice(_JUNK)
    elif way == 8:  # windows, cast ticks or wallet counts out of order or out of range
        if "voting_window" in item:
            item[rng.choice(("voting_window", "discussion_window"))] = rng.choice(([5, 2], [1], ["0", 3], [-1, 3], [0, 10**6]))
        else:
            item["cast_at"] = rng.choice((0, 1, 10**6, -1))
            item["n_wallets"] = rng.choice((0, 1, 2, 100_001))
    else:  # an id that shadows a wallet or a fake identity of an attacker, or a bad id
        item["id"] = rng.choice(("a1_w1", "a2_w01", "a3_fake1", "a4_fake0", "a5_w10", "bad id", "", "-", "a" * 49))


def _crowd(rng: random.Random, agents: int, proposals: int, rate: float) -> str:
    """A crowd-shaped scenario's JSON text, each agent and proposal broken with probability rate."""
    mechanism = rng.choice(("token", "quadratic", "quorum", "conviction"))
    scenario = {
        "schema_version": 1,
        "name": "crowd",
        "seed": rng.randrange(2**64),
        "ticks": 10 * proposals + rng.choice((0, 5)),
        "supply": rng.choice(("1000000000000", "1000.000000000", 10**9)),
        "mechanism": mechanism,
        "quorum": {"basis": "token_supply_fraction", "threshold": "0.100000000"} if mechanism == "quorum" else None,
        "conviction": {"decay_rate": "0.500000000"} if mechanism == "conviction" else None,
        "identity": rng.choice((None, {"mode": "strict_one_wallet", "policy": "admit_unverified"}, {
            "mode": "collapse_per_identity", "policy": "drop_unverified", "provider": {"false_accept_rate": "0.1", "seed": 3},
        })),
        "proposals": _proposals(rng, proposals),
        "agents": _agents(rng, agents),
    }
    for items in (scenario["proposals"], scenario["agents"]):
        for i in range(len(items)):
            if rng.random() < rate:
                _fault(rng, items, i)
    if rng.random() < 0.1:
        scenario[rng.choice(("ticks", "supply", "seed", "quorum", "identity", "name"))] = rng.choice(_JUNK)
    return json.dumps(scenario)


def _flood(rng: random.Random, agents: int, proposals: int) -> str:
    """More than MAX_ERRORS faults: every agent has an unknown key, or prefers a label no proposal offers."""
    scenario = json.loads(_crowd(rng, agents, proposals, 0.0))
    for agent in scenario["agents"]:
        if rng.random() < 0.5:
            agent["weight"] = 1
        if agent["kind"] != "abstainer":
            agent["preference"] = ["maybe", "yes"]
    return json.dumps(scenario)


def corpus(mutants: int, crowds: int, largest: int) -> list[str]:
    """The scenario texts of the corpus: its size is the number of mutants, of crowd files and
    the most agents one crowd holds."""
    texts = []
    for k in range(mutants):
        rng = random.Random(f"mutant:{k}")
        texts.append(mutant(rng.choice))
    for k in range(crowds):
        rng = random.Random(f"crowd:{k}")
        size = rng.choice((1, 3, 20, 120, largest))
        texts.append(_crowd(rng, size, rng.choice((1, 2, 3, 5)), rng.choice((0.0, 0.0, 0.01, 0.1, 0.5, 1.0))))
    texts.append(_flood(random.Random("flood:0"), 5_200, 1))
    texts.append(_flood(random.Random("flood:1"), largest, 3))
    return texts


def outcome(text: str) -> str:
    """What the parser makes of text: the Scenario's repr, or its exact error lines."""
    try:
        return repr(loads_scenario(text))
    except GovlabError as exc:
        return f"{type(exc).__name__}\n" + "\n".join(getattr(exc, "errors", [str(exc)]))


def corpus_digest(texts: list[str]) -> str:
    digest = hashlib.sha256()
    for text in texts:
        digest.update(hashlib.sha256(outcome(text).encode("utf-8", "surrogatepass")).digest())
    return digest.hexdigest()


def test_stage_one_outcomes_match_their_pin():
    texts = corpus(mutants=300, crowds=60, largest=600)
    assert corpus_digest(texts) == "bbd06128fb903bd41cbbc2177fcd4c1756bb6883de5ee7353eecfccff5c1db91"


@pytest.mark.slow
def test_stage_one_outcomes_match_their_pin_at_scale():
    texts = corpus(mutants=3_000, crowds=400, largest=2_000)
    assert corpus_digest(texts) == "cc57122dd9a76caea1d6348cc6d942e58cb8af4a3d45e5bd654b83f7175c88f5"


def test_the_corpus_reaches_every_kind_of_outcome():
    """The pin means something only if the corpus accepts files, refuses them, and lists more
    errors than MAX_ERRORS."""
    outcomes = [outcome(text) for text in corpus(mutants=300, crowds=60, largest=600)]
    assert sum(o.startswith("Scenario(") for o in outcomes) >= 20
    refused = [o for o in outcomes if o.startswith("ScenarioValidationError")]
    assert len(refused) >= 200
    assert any(o.rsplit("\n", 1)[-1].endswith(" more") for o in refused)
    for fault in ("unknown field", "duplicate id", "must be", "expected an object", "not among options", "also a wallet"):
        assert any(fault in o for o in refused), fault


def _workload_scenarios():
    spec = importlib.util.spec_from_file_location("govlab_bench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [loads_scenario(module.scenario_text(name, 1)) for name in sorted(module.WORKLOADS)]


def test_parsed_records_equal_records_built_by_their_constructors():
    """Every AgentSpec and ProposalSpec stage 1 builds equals the one its constructor builds from
    the same fields, on the presets and the seed-1 benchmark workloads."""
    scenarios = [load_preset(name) for name in preset_names()] + _workload_scenarios()
    for scenario in scenarios:
        for record in (*scenario.agents, *scenario.proposals):
            cls = type(record)
            assert cls in (AgentSpec, ProposalSpec)
            built = cls(**{name: getattr(record, name) for name in cls.__slots__})
            assert built == record and hash(built) == hash(record) and repr(built) == repr(record)
