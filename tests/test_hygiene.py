"""Source hygiene: every name a library module imports is used in it.

A stdlib-`ast` stand-in for an unused-import lint. `__init__.py` is skipped
because its imports are the package's re-exports, and `from __future__`
imports are compiler directives, not names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fellbundles"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == [
        "os (line 1)", "tau (line 2)"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []
