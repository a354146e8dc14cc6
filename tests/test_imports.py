"""Every name a library module imports is used in that module, and each
CLI command loads only the modules it runs."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qsodyn"
MODULES = sorted(p.name for p in SRC.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by the module's import statements and never read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_finds_an_unused_name():
    source = "import json\nfrom typing import Optional, Sequence\n\nx: Optional[int] = json.loads('1')\n"
    assert unused_imports(source) == [(2, "Sequence")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert unused_imports((SRC / module).read_text()) == []


# the modules only some commands need; what else the CLI imports at start-up
# (click, numpy, operator, simplex, specfile) every command uses. hashlib is
# loaded only by the JSON reports that hash their spec file.
OPTIONAL = ("hashlib", "mpmath", "qsodyn.abscont", "qsodyn.classify", "qsodyn.markov")


def _fixture(name: str) -> str:
    return str(SRC / "fixtures" / f"{name}.json")


COMMANDS = [
    (["validate", "--spec", _fixture("uniqueness_sufficiency_gap")], {"hashlib", "qsodyn.classify"}),
    (["classify", "--spec", _fixture("attracting_not_unique")], {"hashlib", "qsodyn.classify"}),
    (["fixed-points", "--spec", _fixture("attracting_not_unique")], {"hashlib"}),
    # a family spec builds its operator through abscont, with no mpmath
    (["iterate", "--spec", _fixture("va_a23"), "--x", "0.5,0.5", "--steps", "3"], {"qsodyn.abscont"}),
    (["markov", "--spec", _fixture("va_a05"), "--x", "0.5,0.5", "--horizon", "3"],
     {"hashlib", "qsodyn.abscont", "qsodyn.markov"}),
    (["mixing", "--spec", _fixture("va_a23"), "--x", "0.5,0.5", "--A", "0:1", "--B", "0:1", "--m-max", "3"],
     {"qsodyn.abscont", "qsodyn.markov"}),
    (["abscont", "--a", "0.5", "--x", "0.3,0.7", "--y", "0.6,0.4", "--m-max", "3"],
     {"mpmath", "qsodyn.abscont"}),
]


@pytest.mark.parametrize("argv, loaded", COMMANDS, ids=[argv[0] for argv, _ in COMMANDS])
def test_command_loads_only_what_it_runs(argv, loaded):
    """The command runs in a fresh interpreter, as from the shell; then the
    optional modules in sys.modules are exactly the ones it calls."""
    code = (
        "import json, sys\n"
        "from qsodyn.cli import main\n"
        f"main({argv!r}, standalone_mode=False)\n"
        f"print(json.dumps([m for m in {OPTIONAL!r} if m in sys.modules]), file=sys.stderr)\n"
    )
    path = [str(SRC.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stderr.splitlines()[-1])) == loaded
