"""Every name a library module imports is used in that module, every public
library name has a reader, each CLI command loads only the modules it runs,
and the library stays within its line budget."""

import ast
import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qsodyn"
BENCH = SRC.parent.parent / "bench"
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


# public names with no reader in the library or the benchmark, kept for the
# library's users, each with the reason
API_NAMES = {
    "b_leq": "the b-order itself, the oracle the tests check every order verdict against",
    "vertex": "the simplex's vertices, the start points and fixed points the paper names",
    "VaParams.of": "the two-state family's parameters from (a, x1), as the paper writes them",
    "va_transition_closed_form": "acceptance criterion 07's closed form of H^[k,k+1]",
}


def _is_command(node) -> bool:
    """Decorated with @main.command(...): click reads it, no line of code does."""
    return any(
        isinstance(d, ast.Call)
        and isinstance(d.func, ast.Attribute)
        and d.func.attr == "command"
        and isinstance(d.func.value, ast.Name)
        and d.func.value.id == "main"
        for d in node.decorator_list
    )


def public_names(src: Path) -> dict:
    """Qualified name -> (file, line) of every public top-level function and
    class in src, and of every public method of those classes."""
    names = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if not _is_command(node):
                names[node.name] = (path, node.lineno)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        names[f"{node.name}.{item.name}"] = (path, item.lineno)
    return names


def reads(paths) -> dict:
    """Name -> the (file, line) places where an ast Name, Attribute or import
    alias reads it; an attribute counts under its last part alone."""
    found = defaultdict(set)
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found[node.id].add((path, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                found[node.attr].add((path, node.lineno))
            elif isinstance(node, ast.alias):
                found[node.name.split(".")[-1]].add((path, node.lineno))
    return found


def unread_names(src: Path, others) -> list:
    """Public names of src, API_NAMES aside, that no other line of src or others reads."""
    found = reads([*src.glob("*.py"), *others])
    return sorted(
        name
        for name, where in public_names(src).items()
        if name not in API_NAMES and not found[name.split(".")[-1]] - {where}
    )


def test_finds_an_unread_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Box:\n"
        "    def used(self):\n        return self.unused\n"
        "    def unused(self):\n        return 1\n"
        "def helper():\n    return 2\n"
        "@main.command()\ndef run():\n    return Box().used()\n"
    )
    assert unread_names(tmp_path, []) == ["helper"]


def test_api_names_are_public_and_have_no_reader():
    """Each API_NAMES entry is a public name, and would fail the check
    below without its entry: once it gains a reader, its entry goes."""
    found = reads([*SRC.glob("*.py"), *BENCH.glob("*.py")])
    names = public_names(SRC)
    for name in API_NAMES:
        assert name in names
        assert not found[name.split(".")[-1]] - {names[name]}, name


def test_every_public_name_is_used():
    assert unread_names(SRC, BENCH.glob("*.py")) == []


# src/ stays under this many lines, certificates included: new proof code
# has to make room by deleting what it replaces
SRC_MAX_LINES = 2_300


def test_src_stays_under_its_line_budget():
    """The lines of src/qsodyn/*.py, counted as wc -l counts them."""
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))
    assert lines < SRC_MAX_LINES


# the modules only some commands need; what else the CLI imports at start-up
# (click, numpy, operator, simplex, specfile) every command uses. hashlib is
# loaded only by the JSON reports that hash their spec file, fractions only
# by classify and abscont, which decide with exact rationals.
OPTIONAL = ("fractions", "hashlib", "mpmath", "qsodyn.abscont", "qsodyn.classify", "qsodyn.markov")


def _fixture(name: str) -> str:
    return str(SRC / "fixtures" / f"{name}.json")


COMMANDS = [
    (["validate", "--spec", _fixture("uniqueness_sufficiency_gap")], {"fractions", "hashlib", "qsodyn.classify"}),
    (["classify", "--spec", _fixture("attracting_not_unique")], {"fractions", "hashlib", "qsodyn.classify"}),
    (["fixed-points", "--spec", _fixture("attracting_not_unique")], {"hashlib"}),
    # specfile builds a family spec's operator itself, so only the chain
    # commands load the markov kernel; abscont alone loads abscont. No
    # command loads mpmath: the kernel takes its own logs, and mpmath is
    # only the tests' oracle
    (["iterate", "--spec", _fixture("va_a23"), "--x", "0.5,0.5", "--steps", "3"], set()),
    (["markov", "--spec", _fixture("va_a05"), "--x", "0.5,0.5", "--horizon", "3"], {"hashlib", "qsodyn.markov"}),
    (["mixing", "--spec", _fixture("va_a23"), "--x", "0.5,0.5", "--A", "0:1", "--B", "0:1", "--m-max", "3"],
     {"qsodyn.markov"}),
    (["abscont", "--a", "0.5", "--x", "0.3,0.7", "--y", "0.6,0.4", "--m-max", "3"],
     {"fractions", "qsodyn.abscont", "qsodyn.markov"}),
    (["abscont", "--a", "0.5", "--x", "0.3,0.7", "--y", "0.6,0.4", "--m-max", "3", "--format", "csv"],
     {"fractions", "qsodyn.abscont", "qsodyn.markov"}),
]
# the commands that run no chain, on a family spec
FAMILY_COMMANDS = [
    (["validate", "--spec", _fixture("va_a05")], {"fractions", "hashlib", "qsodyn.classify"}),
    (["classify", "--spec", _fixture("va_a05")], {"fractions", "hashlib", "qsodyn.classify"}),
    (["fixed-points", "--spec", _fixture("va_a05")], {"hashlib"}),
]


@pytest.mark.parametrize(
    "argv, loaded",
    COMMANDS + FAMILY_COMMANDS,
    ids=[argv[0] + ("-csv" if "csv" in argv else "") for argv, _ in COMMANDS]
    + [argv[0] + "-family" for argv, _ in FAMILY_COMMANDS],
)
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


# the three log views, out to values far below the double range
LOG_VIEWS = """
from qsodyn.abscont import CylinderClass, VaParams, va_cylinder_closed_form, va_operator, va_transition_closed_form
from qsodyn.markov import TransitionFamily
params = VaParams.of(0.7, 0.4)
family = TransitionFamily(va_operator(0.7), params.x)
views = [
    [family.transition_matrix_log(k).tolist() for k in (0, 3, 12)],
    [va_cylinder_closed_form(params, c).constructive_log
     for c in (CylinderClass("all_ones", 1, 12), CylinderClass("ones_then_twos", 0, 11, 10))],
    [va_transition_closed_form(params, k).log.tolist() for k in (0, 3, 12)],
]
"""


def test_runs_where_mpmath_cannot_be_imported():
    """A fresh interpreter whose import system refuses mpmath takes the
    three log views and reads what this process reads. That no command
    loads mpmath is test_command_loads_only_what_it_runs's check."""
    code = (
        "import json, sys\n"
        "class Refuse:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'mpmath':\n"
        "            raise ImportError('mpmath refused')\n"
        "sys.meta_path.insert(0, Refuse())\n"
        "try:\n"
        "    import mpmath\n"
        "    sys.exit('mpmath was imported')\n"
        "except ImportError:\n"
        "    pass\n"
        f"{LOG_VIEWS}"
        "print(json.dumps(views))\n"
    )
    path = [str(SRC.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    views = json.loads(proc.stdout)
    here = {}
    exec(LOG_VIEWS, here)
    assert views == here["views"]
    assert views[0][2][0][0] < -1000  # H_11 at k = 12, below the double range


def test_cli_import_compiles_no_orbit_kernel():
    """Start-up is most of every CLI command: importing the CLI compiles no
    generated orbit code, which the first trajectory call does, and builds
    no grid or seed array, which the first scan or search does."""
    code = (
        "import qsodyn.cli\n"
        "from qsodyn.operator import _orbit_kernel, _search_seeds\n"
        "from qsodyn.simplex import grid_array\n"
        "print(*(f.cache_info().currsize for f in (_orbit_kernel, grid_array, _search_seeds)))\n"
    )
    path = [str(SRC.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 0 0\n"

