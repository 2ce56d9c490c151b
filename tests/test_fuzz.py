"""Hostile inputs end in a GovlabError and a documented exit code, never a traceback.

Inputs are mutants of the shipped presets and of a pinned ledger: random JSON
alone rarely gets past the first check, while an edit to a valid file reaches
every field's own check.  Hypothesis runs derandomized (tests/conftest.py), so
every run tries the same mutants.
"""

import contextlib
import functools
import io
import json
import tempfile
from importlib import resources
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from govlab.cli import EXIT_LEDGER_BROKEN, EXIT_OK, EXIT_RUNTIME, main
from govlab.core import GovlabError
from govlab.governance import replay
from govlab.ledger import dump_ndjson, read_ndjson
from govlab.scenario import ScenarioValidationError, load_preset, loads_scenario, preset_names
from govlab.simulation import run

PRESETS = {
    name: json.loads(resources.files("govlab.presets").joinpath(f"{name}.json").read_text("utf-8"))
    for name in preset_names()
}

# JSON text put in place of a field's value: every JSON type, huge and tiny
# numbers, and strings that are valid somewhere else in the schema.
HOSTILE = (
    "{}", '{"a": 1}', "[]", '[1, "x"]', '[["option_a"]]', "[" * 40 + "]" * 40,
    "true", "false", "null", "0", "-1", "1", "2", "99999999999999999999999", "1" + "0" * 400,
    "1e999", "-1e999", "1e-999", "1.5", "0.5", "-0.0", "1E+2",
    '""', '"x"', '"0.5"', '"-1"', '"honest"', '"sybil_attacker"', '"abstainer"', '"quadratic"',
    '"strict_one_wallet"', '"admit_unverified"', '"fake_identities"', '"token_supply_fraction"',
)


def _paths(value, path=()):
    """Every (container path, key) under value, a dict or list."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield path, key
        if isinstance(child, (dict, list)) and child:
            yield from _paths(child, (*path, key))


def mutant(pick) -> str:
    """A preset's JSON text after one to three deletions or value replacements, each choice made by
    pick(options), which returns one item of a sequence."""
    obj = json.loads(json.dumps(PRESETS[pick(sorted(PRESETS))]))
    literals = []
    for _ in range(pick(range(1, 4))):
        paths = list(_paths(obj))
        if not paths:
            break
        path, key = pick(paths)
        parent = functools.reduce(lambda node, k: node[k], path, obj)
        if pick((False, True)):
            del parent[key]
        else:
            parent[key] = f"<hostile {len(literals)}>"
            literals.append(pick(HOSTILE))
    text = json.dumps(obj)
    for k, literal in enumerate(literals):
        text = text.replace(f'"<hostile {k}>"', literal)
    return text


@st.composite
def scenario_mutants(draw):
    return mutant(lambda options: draw(st.sampled_from(options)))


@given(scenario_mutants())
@settings(max_examples=500)
def test_a_mutated_preset_validates_or_is_rejected_and_then_runs(text):
    try:
        scenario = loads_scenario(text)
    except ScenarioValidationError:
        return
    try:
        run(scenario)
    except GovlabError:
        pass


@functools.cache
def _pinned_ledger() -> bytes:
    return dump_ndjson(run(load_preset("sybil_attack_quadratic")).ledger).encode("ascii")


# Inserted at a random offset: JSON tokens, a lone-surrogate escape, a byte that is not UTF-8.
TOKENS = (b"{", b"}", b"[", b"]", b",", b":", b'"', b"\\", b"null", b"true", b"-0", b"1.5", b"1e999",
          b"9" * 30, b"\\ud800", b'"\\ud800"', b"\xff", b"\n", b"\r\n", b" ")


@st.composite
def ledger_mutants(draw):
    """The pinned ledger's bytes after one to three flips, insertions or deleted runs."""
    data = bytearray(_pinned_ledger())
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(data) - 1))
        edit = draw(st.sampled_from(["flip", "insert", "delete"]))
        if edit == "flip":
            data[pos] ^= draw(st.integers(1, 255))
        elif edit == "insert":
            data[pos:pos] = draw(st.sampled_from(TOKENS))
        else:
            del data[pos:pos + draw(st.integers(1, 200))]
    return bytes(data)


@given(ledger_mutants())
@settings(max_examples=300)
def test_a_mutated_ledger_verifies_breaks_or_is_one_runtime_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ledger.jsonl"
        path.write_bytes(data)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["verify", "--ledger", str(path)])
        assert code in (EXIT_OK, EXIT_RUNTIME, EXIT_LEDGER_BROKEN)
        try:
            replay(read_ndjson(path))
        except GovlabError:
            pass
