"""Source hygiene: every name a library module imports is used in it, and
residual reports are built in one place.

A stdlib-`ast` stand-in for an unused-import lint. `__init__.py` is skipped
because its imports are the package's re-exports, and `from __future__`
imports are compiler directives, not names.

Reports are built by `matrices.ResidualReport`, so no other module writes a
dict literal with a "max_residual" key or calls `violations.append`.
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


def hand_built_reports(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Dict) and any(
                isinstance(k, ast.Constant) and k.value == "max_residual" for k in node.keys):
            found.append(f"max_residual dict (line {node.lineno})")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            if node.func.attr == "append" and name == "violations":
                found.append(f"violations.append (line {node.lineno})")
    return sorted(found)


def test_checker_flags_a_hand_built_report():
    source = ('checks = {"pass": r <= tol, "max_residual": r}\n'
              'violations.append({"axiom": "a"})\n'
              'self.violations.append(v)\n'
              'rows.append(1)\n'
              'entry = {**fields, "min_eigenvalue": w}\n')
    assert hand_built_reports(source) == [
        "max_residual dict (line 1)", "violations.append (line 2)", "violations.append (line 3)"]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "matrices.py"])
def test_reports_are_built_by_the_builder(module):
    assert hand_built_reports((SRC / module).read_text(encoding="utf-8")) == []
