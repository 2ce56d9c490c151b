"""The golden bytes under every supported interpreter that is installed, and under two hash seeds.

tests/cross_version.py runs the scenarios and compares each output with the
pins in tests/test_golden.py.  Each interpreter of INTERPRETERS found on PATH
that starts and reports its own version runs it; an absent one is skipped.
The presets, the CLI's argv corpus, the decay factor corpus and the presets
under an edited decimal.DefaultContext run by default, and the seed-1
benchmark workloads under `slow`.
"""

from __future__ import annotations

import functools
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent / "cross_version.py"
INTERPRETERS = ("python3.10", "python3.11", "python3.12", "python3.13")
HASH_SEEDS = ("0", "1")


@functools.cache
def _interpreter(name: str) -> str | None:
    """The path of the named interpreter, or None when it is absent or does not run as that version."""
    path = shutil.which(name)
    if path is None:
        return None
    try:
        probe = subprocess.run(
            [path, "-c", "import sys; print('python%d.%d' % sys.version_info[:2])"],
            capture_output=True, text=True, timeout=60,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return path if probe.returncode == 0 and probe.stdout.strip() == name else None


def _check(name: str, suite: str, hash_seed: str, *flags: str) -> None:
    if (path := _interpreter(name)) is None:
        pytest.skip(f"{name} is not installed")
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    result = subprocess.run([path, *flags, str(SCRIPT), suite], capture_output=True, text=True, env=env, timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert lines[0].startswith(f"# python {name[len('python'):]}.") and f"PYTHONHASHSEED={hash_seed} " in lines[0]
    assert lines[1:] and all(line.startswith("ok ") for line in lines[1:]), result.stdout


@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
@pytest.mark.parametrize("name", INTERPRETERS)
def test_presets_give_their_pinned_bytes(name, hash_seed):
    _check(name, "presets", hash_seed)


@pytest.mark.parametrize("name", INTERPRETERS)
def test_the_cli_table_parses_as_argparse_does(name):
    _check(name, "cli", HASH_SEEDS[0])


@pytest.mark.parametrize("name", INTERPRETERS)
def test_the_decay_factors_give_their_pinned_digits(name):
    _check(name, "decay", HASH_SEEDS[0])


@pytest.mark.parametrize("name", INTERPRETERS)
def test_an_edited_default_context_changes_no_byte(name):
    """DefaultContext is process-wide, so the suite runs isolated (-I) in a process of its own."""
    _check(name, "context", HASH_SEEDS[0], "-I")


@pytest.mark.slow
@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
@pytest.mark.parametrize("name", INTERPRETERS)
def test_benchmark_workloads_give_their_pinned_bytes(name, hash_seed):
    _check(name, "workloads", hash_seed)


def test_the_running_interpreter_is_among_the_checked_ones():
    assert f"python{sys.version_info[0]}.{sys.version_info[1]}" in INTERPRETERS
