"""Golden bytes: every output of a run is pinned across commits.

For each preset and for the seed-1 scenario of each benchmark workload the
test pins the full SHA-256 of four artifacts: the ledger head hash, the
report JSON, the per-agent CSV and the NDJSON ledger dump.  A change that
moves any of them must say so and bump the report schema version.

The benchmark scenarios are generated by `benchmarks/workloads.py`, loaded
by file path and used read-only.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

import pytest

from govlab.ledger import dump_ndjson
from govlab.scenario import load_preset, loads_scenario, preset_names
from govlab.simulation import report_csv, run

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"

# name -> (ledger head, report sha256, csv sha256, ndjson dump sha256)
PRESETS = {
    "nonprofit_grant_vote": (
        "e16799b20601a245e6b87fef3cc0cae2e016a2040623262af6d6dac1f4c738f5",
        "21db8347ca1de63d5925ea11b8f4d499b5fbed928e40996877c306aa42665e99",
        "312b79df4e63131f7cf1d1e4fd82906a7b386c78777f231b272e80cc2f6db34d",
        "35553d22e3c9a4eb7a3c1f51d7f906a244bd660b2e0ebd26aa52773b7f933e80",
    ),
    "participatory_budget": (
        "b96bc702d4ebc0c92f51cf087e01e8e40c9b862e03e54fa816248425a844db03",
        "9056809763595700dfbc35a74d824652225d526f8ef4fc9632a3ec494da52cbe",
        "73f1d0d42744482d683c1a793bbf678fe487fe939a4401b98d7ab299b28fb643",
        "ff6e605ebbd4d88486c4ac3b36b9850b6d31ff162d49a09a9e930953b816372f",
    ),
    "plurality_iia_probe": (
        "6bd8826af567824089ddb654245274d01bbc64311fea80d9ed135df95f6fbc07",
        "403b0b4cc9374259372b47cf6728b08b7dcc015128d9bf8e332c7688402d353d",
        "445b7d6483689f354f1b58f0f25fffce8356272c256a2061f16ab748a0b7853d",
        "2678d13d724f6ecc16af10070cca54f568933d92c0768f2fc163fb6a6157e2bb",
    ),
    "sybil_attack_quadratic": (
        "3a804496649dad2573da92b7bf98caded1fc09173e49f4e663ae9debc796ff75",
        "9d9eb16b351ffd3b30576069e623450b5e39a5a19d476a722fbbe8006f1d5828",
        "9b81ef6fe58f2cdddfc43b066dd5bd0d05b4bbd8f297ffe3b1771f2482fa7d70",
        "5bf3caec7a21855ab019da856982122e061ff553731342773d3b73a83a716a00",
    ),
}

WORKLOADS = {
    "crowd_quadratic": (
        "a2087679257620c264a55bbcdd1c0b0ee0f20c4c53a12a2d4cfd5c2691b3d523",
        "48d7dce32d1c0575879084220bc892deaab0880ed19c3b7f157acb87d738d5c6",
        "6e49480a284235c39f12c5c02d23588a6cb8038d72dc2c5b22e134266b38819e",
        "70e4463d92f751718e3ed7fcfc25e6526abf2327e9fbf1465fc45a2d2699a682",
    ),
    "sybil_identity": (
        "532be82cec36e2dec5e285cf2acd9046167d4d459f415dbd694bf17efd41fc18",
        "0e7eed9084249044281084d526840fa4aa3f1ea7671bf95d683cd5c983fce48e",
        "f822430c932eefe4ca188ad421208d6c9e89b73d2d0c01ec71345166a97b1ce8",
        "736ff371f16b652eab11394695f938ec3d8aee394832a3325a5aa27d1c74cf74",
    ),
    "conviction_horizon": (
        "8da468efa99186ff0149c705018c9b55207fb5a441257801777ce813d8d535a6",
        "ddc8c15a73df903938d04859900d84796a2b420508a632aa787b11e09ee78240",
        "ea3c33a4428f387b9e2a8500b1b930ca1e840bb06405d088803221477b36e9be",
        "88a410782ccb50b17fac6b1c98c06fddf62c8c7bfee91914d89a7b62df6de3b5",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fingerprint(scenario) -> tuple[str, str, str, str]:
    result = run(scenario)
    return (
        result.head_hash,
        _sha256(result.report_json),
        _sha256(report_csv(result)),
        _sha256(dump_ndjson(result.ledger)),
    )


def _workloads_module():
    spec = importlib.util.spec_from_file_location("govlab_bench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_preset_is_pinned():
    assert sorted(PRESETS) == preset_names()


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_bytes_are_pinned(name):
    assert _fingerprint(load_preset(name)) == PRESETS[name]


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_scenario_bytes_are_pinned(name):
    text = _workloads_module().scenario_text(name, 1)
    assert _fingerprint(loads_scenario(text)) == WORKLOADS[name]
