"""Source hygiene that no installed linter checks: every imported name is used,
every name the package defines has a caller outside the tests, importing the
CLI loads no code-generation module, a command loads neither OpenSSL nor
argparse, every source file parses under the oldest Python grammar the
package supports, and the README gives each command CI runs."""

import ast
import importlib.util
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "govlab"
# __init__ imports names to re-export them.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(p for folder in (SRC, ROOT / "tests", ROOT / "benchmarks", ROOT / "tools") for p in folder.rglob("*.py"))


def _used_names(tree: ast.AST) -> set[str]:
    """Every bare name the module reads, quoted annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else node.annotation
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= _used_names(ast.parse(annotation.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text("utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({(a.asname or a.name.split(".")[0]): node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({(a.asname or a.name): node.lineno for a in node.names})
    used = _used_names(tree)
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def _references(tree: ast.AST) -> tuple[Counter, Counter]:
    """How often each bare name, and each attribute name, is read under tree."""
    names, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
    return names, attributes


def test_every_defined_name_has_a_caller_outside_the_tests():
    """A function or class (dunders aside) is referenced in the package outside
    its own definition, or in benchmarks/*.py or the README.  A method or
    property counts as used only through an attribute reference (.name), since
    a local variable of the same name is no call of it."""
    trees = {p.name: ast.parse(p.read_text("utf-8")) for p in sorted(SRC.glob("*.py"))}
    names, attributes = Counter(), Counter()
    for tree in trees.values():
        tree_names, tree_attributes = _references(tree)
        names += tree_names
        attributes += tree_attributes
    outside = "\n".join(p.read_text("utf-8") for p in sorted((ROOT / "benchmarks").glob("*.py")))
    outside += (ROOT / "README.md").read_text("utf-8")
    dead = []
    for module, tree in trees.items():
        methods = {
            id(member)
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for member in node.body if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own_names, own_attributes = _references(node)
            if id(node) in methods:
                used = attributes[name] > own_attributes[name]
                pattern = rf"\.{re.escape(name)}\b"
            else:
                used = names[name] + attributes[name] > own_names[name] + own_attributes[name]
                pattern = rf"\b{re.escape(name)}\b"
            if not (used or re.search(pattern, outside)):
                dead.append(f"{module}:{node.lineno} {name}")
    assert not dead, f"defined but referenced only by tests: {', '.join(dead)}"


def test_importing_the_cli_loads_no_code_generation_modules():
    """`import govlab.cli` is what every command pays before it starts.  dataclasses
    (about 1 ms per decorated class) and the inspect, ast and dis modules it pulls
    in would add tens of milliseconds, so the records are plain __slots__ classes.
    The per-agent CSV is written line by line, so the csv module is not loaded either."""
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import govlab.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    out = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True, text=True, check=True).stdout
    loaded = set(out.split())
    assert "govlab.cli" in loaded
    forbidden = loaded & {"dataclasses", "inspect", "csv", "_csv"}
    assert not forbidden, sorted(forbidden)


@pytest.mark.skipif(
    importlib.util.find_spec("_sha2") is None and importlib.util.find_spec("_sha256") is None,
    reason="this interpreter has no built-in SHA-256, so the ledger takes hashlib's",
)
def test_commands_load_no_openssl(tmp_path):
    """hashlib loads OpenSSL's libcrypto through _hashlib, about 3.6 MiB resident in
    every command, so the ledger hashes with the interpreter's own SHA-256.  Importing
    the CLI, then `govlab run` and `govlab verify` on a preset, loads none of them."""
    report = tmp_path / "report.json"
    preset = ROOT / "src" / "govlab" / "presets" / "nonprofit_grant_vote.json"
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import govlab.cli\n"
        f"assert govlab.cli.main(['run', '--scenario', {str(preset)!r}, '--out', {str(report)!r}]) == 0\n"
        f"assert govlab.cli.main(['verify', '--ledger', {str(report) + '.ledger.jsonl'!r}]) == 0\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True, text=True, check=True).stdout
    loaded = set(out.split())
    assert "govlab.ledger" in loaded
    assert not loaded & {"_hashlib", "hashlib", "_ssl"}, sorted(loaded & {"_hashlib", "hashlib", "_ssl"})


def test_commands_load_no_argparse(tmp_path):
    """argparse, with the gettext and locale modules it loads, and its first parser cost every
    command several milliseconds of start-up, so main parses the argv every caller uses from
    cli.COMMANDS.  Importing the CLI, then `govlab run --csv` and `govlab verify` on a preset,
    loads none of them.  An abbreviated flag still runs, through argparse, and --help exits 0
    with argparse's help."""
    report = tmp_path / "report.json"
    preset = ROOT / "src" / "govlab" / "presets" / "nonprofit_grant_vote.json"
    run = ["run", "--scenario", str(preset), "--out", str(report), "--csv", str(tmp_path / "a.csv")]
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import govlab.cli\n"
        f"assert govlab.cli.main({run!r}) == 0\n"
        f"assert govlab.cli.main(['verify', '--ledger', {str(report) + '.ledger.jsonl'!r}]) == 0\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True, text=True, check=True).stdout
    loaded = set(out.split())
    assert "govlab.ledger" in loaded
    assert not loaded & {"argparse", "gettext", "locale"}, sorted(loaded & {"argparse", "gettext", "locale"})
    abbreviated = ["run", "--scen", str(preset), "--out", str(report)]
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import govlab.cli\n"
        f"assert govlab.cli.main({abbreviated!r}) == 0\n"
        "assert 'argparse' in sys.modules\n"
        "govlab.cli.main(['--help'])\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    head, usage = proc.stdout.splitlines()[:2]  # the run's head hash, then the help
    assert len(head) == 64 and usage.startswith("usage: govlab [-h] {run,compare,verify}"), proc.stdout


@pytest.mark.parametrize("path", SOURCES, ids=[p.relative_to(ROOT).as_posix() for p in SOURCES])
def test_every_source_file_parses_as_python_3_10(path):
    """pyproject.toml asks for Python >= 3.10, so no file may use later grammar, such
    as 3.11's `except*`.  This checks grammar only, not the standard library API: a
    call to a function that 3.10 lacks still parses."""
    ast.parse(path.read_text("utf-8"), filename=str(path), feature_version=(3, 10))


def _ci_lines():
    """Each shell line that a step of CI's workflow runs, the install step's aside."""
    step, in_block = None, False
    for line in (ROOT / ".github" / "workflows" / "tests.yml").read_text("utf-8").splitlines():
        if line.startswith("      - name: "):
            step, in_block = line.split(": ", 1)[1], False
        elif line.startswith("        run: "):
            command = line.split(": ", 1)[1]
            in_block = command == "|"
            if not in_block and step != "Install":
                yield command
        elif in_block and line.startswith("          ") and step != "Install":
            yield line.strip()


def test_the_readme_gives_each_command_ci_runs():
    readme = (ROOT / "README.md").read_text("utf-8")
    start = readme.index("## Running the tests")
    section = readme[start:readme.index("\n## ", start)].splitlines()
    ci = list(_ci_lines())
    assert len(ci) == 14
    assert [line for line in ci if line not in section] == []
