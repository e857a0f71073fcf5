"""No module of the package imports a name it never uses.

A stdlib stand-in for a linter's unused-import rule (F401). A name counts
as used when the module reads it anywhere or lists it in ``__all__``. An
import on a line marked ``# noqa: F401`` is kept on purpose.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "scientoscope"


def unused_imports(source: str) -> list[str]:
    """The names *source* imports and never uses, as ``line: name``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_guard_catches_an_unused_import():
    source = ("from os import path, sep  # noqa: F401\n"
              "import json, sys\n"
              "from typing import TextIO\n"
              "__all__ = ['json']\n"
              "def f(stream: TextIO) -> None:\n"
              "    pass\n")
    assert unused_imports(source) == ["2: sys"]
