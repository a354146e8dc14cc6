"""Every name a library module imports is used in that module."""

import ast
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
