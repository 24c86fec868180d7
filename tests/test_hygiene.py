"""Source hygiene: every name a library module imports is used in it, no
module-level name is defined in two modules, and residual reports are built
in one place.

A stdlib-`ast` stand-in for an unused-import lint. `__init__.py` is skipped
because its imports are the package's re-exports, and `from __future__`
imports are compiler directives, not names.

A shared constant or helper lives in one module and is imported by the
others, so two library modules never both assign, def or class the same
module-level name (`__init__.py` again excepted).

Reports are built by `matrices.ResidualReport`, so no other module writes a
dict literal with a "max_residual" key or calls `violations.append`.

The commands read the crossed product off the bundle, so `cli.py` never
calls `crossed_product`, `j_fiber` or `np.kron`: the dense model lives in
`tests/models.py` as the tests' reference, not on a command path.

Maps between gradings are evaluated once per basis element and checked on
structure constants, so no function nested inside a library function (a map
handed to a check, say) solves `np.linalg.lstsq` on every call.

The approximation-property witness is constructed, not searched: the uniform
witness is exact on every Fell bundle, so `approximation.py` calls no
`np.linalg.lstsq`.

The dualities check maps into a pull-back on its small factor (a
`bundles.PulledBack`), so `duality.py` calls no `np.kron` and imports no
`left_regular`: no a (x) lambda(s) is formed there. Nor in `imprimitivity.py`:
the bimodule checks realize B0 as d (x) E_{st,t}, with no lambda(s) factor,
and `realize_b`, the dense model of B0 with one, lives in `tests/models.py`.

Subgroup membership and normality are decided in `groups` (`subgroup_members`
and `NormalSubgroup`), so no other library module raises `NotASubgroup` or
`NotNormal`.

One `imprimitivity` command builds each of the six binary slot tables once,
in `bimodule_check`, and the gamma report reads two of them, so one run on
the Pauli spec calls `imprimitivity._slot_table` once for each of the six
formulas; `imprimitivity` defines no `_clean`.

The Olesen-Pedersen map is checked on abstract coordinates, so
`olesen_pedersen_forward` calls neither `_image` nor `fiber_images`: it forms
no dense image of either realization. Nor do the other duality maps, which go
from a dense grading into a realization in its coordinates: only the two family
builders call `_image`, whose unitaries are matrices, and `duality.py` calls no
`bundle_isomorphism_report`. `landstad_reconstruct` reads D once, as a grading,
before any guard on its family, and `quotient_pullback_roundtrip` reads its
bundle once and checks its family once, in the collapse.

A twisted action is read in coordinates, off `TwistedAction.structure`, so
`_twisted_semidirect`, `verify_twisted_action` and `twisted_normal_form` call
neither `product_coords` nor `apply`: none of them decomposes a dense product
or image of the action again, and one `olesen-pedersen` run reads the
structure constants once per `TwistedAction`.

A dense grading is read in one place, `bundles._read_grading`, which checks the
grading axioms in the sweep that reads the structure constants; so no command
on the Pauli spec reads one grading twice.

Each command declares exactly the options its handler reads: the `args`
attributes read by `cmd_*`, by the module functions taking `args` that it
calls (`_spec`, `_tol`, `_quotient_setup`, `_normal`) and by `run_command`,
which emits every report to -o, equal the destinations its subparser declares.
"""

import argparse
import ast
import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from fellbundles import bundles, cli, duality, imprimitivity
from fellbundles.errors import AxiomViolation

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


def module_level_names(source: str) -> set[str]:
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def names_defined_twice(sources: dict[str, str]) -> list[str]:
    owners: dict[str, list[str]] = {}
    for module, source in sorted(sources.items()):
        for name in module_level_names(source):
            owners.setdefault(name, []).append(module)
    return sorted(f"{name}: {', '.join(mods)}" for name, mods in owners.items() if len(mods) > 1)


def test_checker_flags_a_name_defined_twice():
    sources = {
        "a.py": "import os\nX = 1\ndef f():\n    y = 2\nclass C:\n    z = 3\np, (q, r) = 1, (2, 3)\n",
        "b.py": "import os\nX: int = 2\ndef g():\n    return f\nclass C:\n    pass\nr = 4\ny = z = 5\n",
        "c.py": "from a import X\nf = 6\n",
    }
    assert names_defined_twice(sources) == [
        "C: a.py, b.py", "X: a.py, b.py", "f: a.py, c.py", "r: a.py, b.py"]


def test_no_module_level_name_is_defined_twice():
    assert names_defined_twice(
        {module: (SRC / module).read_text(encoding="utf-8") for module in MODULES}) == []


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


DENSE_CROSSED = {"crossed_product", "j_fiber", "kron"}


def dense_crossed_calls(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in DENSE_CROSSED:
                found.append(f"{name} (line {node.lineno})")
    return found


def test_checker_flags_a_dense_crossed_call():
    source = ("cp = sections.crossed_product(b)\n"
              "x = cp.j_fiber(s, a)\n"
              "y = np.kron(a, lam)\n"
              "z = crossed_product(b, tol)\n"
              "w = cp.total.dim + kronecker(a)\n")
    assert dense_crossed_calls(source) == [
        "crossed_product (line 1)", "j_fiber (line 2)", "kron (line 3)",
        "crossed_product (line 4)"]


def test_cli_builds_no_dense_crossed_product():
    assert dense_crossed_calls((SRC / "cli.py").read_text(encoding="utf-8")) == []


def nested_lstsq_calls(source: str) -> list[str]:
    found = set()
    for outer in ast.walk(ast.parse(source)):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(
                    inner, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for node in ast.walk(inner):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name == "lstsq":
                        found.add(f"{getattr(inner, 'name', 'lambda')} (line {node.lineno})")
    return sorted(found)


def test_checker_flags_a_nested_lstsq():
    source = ("def top(a, b):\n"
              "    x = np.linalg.lstsq(a, b)\n"
              "    def phi(s, m):\n"
              "        return np.linalg.lstsq(a, m)[0]\n"
              "    f = lambda m: lstsq(a, m)\n"
              "    return phi, f\n")
    assert nested_lstsq_calls(source) == ["lambda (line 5)", "phi (line 4)"]


@pytest.mark.parametrize("module", MODULES)
def test_no_nested_function_solves_lstsq(module):
    assert nested_lstsq_calls((SRC / module).read_text(encoding="utf-8")) == []


def test_approximation_searches_no_witness():
    calls = [node.lineno for node in ast.walk(ast.parse(
        (SRC / "approximation.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "lstsq"]
    assert calls == []


def dense_lambda_uses(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "kron":
                found.append(f"kron (line {node.lineno})")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if any(alias.name.split(".")[-1] == "left_regular" for alias in node.names):
                found.append(f"left_regular import (line {node.lineno})")
        elif isinstance(node, ast.Attribute) and node.attr == "left_regular":
            found.append(f"left_regular (line {node.lineno})")
    return found


def test_checker_flags_a_dense_lambda_factor():
    source = ("from .groups import left_regular, quotient\n"
              "x = np.kron(a, lam[s])\n"
              "lam = groups.left_regular(g)\n"
              "y = kron(a, b) + kronecker(a)\n"
              "from .groups import right_regular\n")
    assert dense_lambda_uses(source) == [
        "left_regular import (line 1)", "kron (line 2)", "left_regular (line 3)",
        "kron (line 4)"]


def test_duality_forms_no_lambda_factor():
    assert dense_lambda_uses((SRC / "duality.py").read_text(encoding="utf-8")) == []


def test_imprimitivity_forms_lambda_only_in_the_dense_model():
    assert dense_lambda_uses((SRC / "imprimitivity.py").read_text(encoding="utf-8")) == []


# Thresholds are decided in `matrices` (DEFAULT_TOL, precondition_tol, _ZERO_CUT),
# so no other library module writes a float literal below 1e-6.
SMALL = 1e-6


def small_float_literals(source: str) -> list[str]:
    found = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Constant) and type(node.value) in (float, complex)
             and 0 < abs(node.value) < SMALL]
    found.sort(key=lambda node: (node.lineno, node.col_offset))
    return [f"{node.value!r} (line {node.lineno})" for node in found]


def test_checker_flags_a_small_float_literal():
    source = ("tol = max(tol, 1e-8)\n"
              "cut = -1e-12 + 1e-6 + 0.0\n"
              "z = 2e-9j\n"
              "doc = '1e-10'\n"
              "n = 0\n")
    assert small_float_literals(source) == ["1e-08 (line 1)", "1e-12 (line 2)", "2e-09j (line 3)"]


@pytest.mark.parametrize("module", [p.name for p in sorted(SRC.glob("*.py"))
                                    if p.name != "matrices.py"])
def test_thresholds_live_in_matrices(module):
    assert small_float_literals((SRC / module).read_text(encoding="utf-8")) == []


SUBGROUP_ERRORS = {"NotASubgroup", "NotNormal"}


def subgroup_error_raises(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
            if name in SUBGROUP_ERRORS:
                found.append(f"{name} (line {node.lineno})")
    return found


def test_checker_flags_a_subgroup_error_raise():
    source = ('raise NotASubgroup(f"{mem} is not closed")\n'
              'raise errors.NotNormal("conjugation escapes")\n'
              'raise NotNormal\n'
              'raise GroupMismatch("different groups")\n'
              'err = NotASubgroup("built, not raised")\n'
              'raise\n')
    assert subgroup_error_raises(source) == [
        "NotASubgroup (line 1)", "NotNormal (line 2)", "NotNormal (line 3)"]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "groups.py"])
def test_only_groups_decides_subgroups(module):
    assert subgroup_error_raises((SRC / module).read_text(encoding="utf-8")) == []


def test_one_imprimitivity_run_builds_each_table_once(tmp_path, monkeypatch, pauli_bundle):
    built, real = [], imprimitivity._slot_table
    monkeypatch.setattr(imprimitivity, "_slot_table",
                        lambda f, *args: built.append(f.__name__) or real(f, *args))
    spec = tmp_path / "pauli.json"
    spec.write_text(json.dumps(cli.bundle_to_spec(pauli_bundle, {"kind": "cyclic", "n": 2})))
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.run_command(["imprimitivity", str(spec), "--group", "cyclic:4", "--normal", "0,2"])
    assert rc == 0 and sorted(built) == ["b_mul", "c_mul", "left_action", "linner",
                                         "right_action", "rinner"]
    assert not hasattr(imprimitivity, "_clean")


def args_reads(source: str) -> dict[str, set[str]]:
    """Per command (cmd_foo_bar is foo-bar), the `args` attributes its handler
    reads, itself or through module functions taking `args`, with those that
    run_command reads; `command`, the name argparse stores, is left out."""
    funcs = {f.name: f for f in ast.parse(source).body if isinstance(f, ast.FunctionDef)}
    takes_args = {name for name, f in funcs.items() if "args" in [a.arg for a in f.args.args]}

    def reads(name: str, seen: set) -> set[str]:
        seen.add(name)
        found = set()
        for node in ast.walk(funcs[name]):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "args"):
                found.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in takes_args and node.func.id not in seen):
                found |= reads(node.func.id, seen)
        return found

    common = reads("run_command", set())
    return {name[4:].replace("_", "-"): (reads(name, set()) | common) - {"command"}
            for name in funcs if name.startswith("cmd_")}


def test_checker_reads_args_through_helpers():
    source = ("def _tol(args, options):\n    return args.tol\n"
              "def _spec(args):\n    return args.spec, _tol(args, {})\n"
              "def _run(args):\n    return args.command\n"
              "def _unused(args):\n    return args.group\n"
              "def run_command(argv):\n    args = parse(argv)\n    _run(args)\n"
              "    emit(args.output)\n"
              "def cmd_verify(args):\n    return _spec(args)\n"
              "def cmd_olesen_pedersen(args):\n    return args.spec, len(args.normal)\n")
    assert args_reads(source) == {"verify": {"spec", "tol", "output"},
                                  "olesen-pedersen": {"spec", "normal", "output"}}


def test_each_command_declares_exactly_the_options_it_reads():
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    declared = {name: {a.dest for a in sp._actions if a.dest != "help"}
                for name, sp in sub.choices.items()}
    assert args_reads((SRC / "cli.py").read_text(encoding="utf-8")) == declared


DENSE_IMAGES = {"_image", "fiber_images"}


def calls_inside(source: str, function: str, names) -> list[str]:
    """Calls of the given names (bare or as attributes) inside the module-level
    function `function`, nested functions included."""
    found = []
    for top in ast.parse(source).body:
        if not (isinstance(top, ast.FunctionDef) and top.name == function):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in names:
                    found.append(f"{name} (line {node.lineno})")
    return found


def test_checker_flags_a_dense_image_call():
    source = ("def forward(t, real):\n"
              "    y = _image(real, 0, c)\n"
              "    def inner(s):\n"
              "        return real.fiber_images(s)\n"
              "    return real.images, image(real)\n"
              "def other(real):\n"
              "    return _image(real, 1, c)\n")
    assert calls_inside(source, "forward", DENSE_IMAGES) == [
        "_image (line 2)", "fiber_images (line 4)"]


def test_olesen_pedersen_forward_forms_no_dense_image():
    source = (SRC / "duality.py").read_text(encoding="utf-8")
    assert calls_inside(source, "olesen_pedersen_forward", DENSE_IMAGES) == []


def test_only_the_family_builders_form_dense_images():
    source = (SRC / "duality.py").read_text(encoding="utf-8")
    tops = [top.name for top in ast.parse(source).body if isinstance(top, ast.FunctionDef)]

    def callers(names):
        return [f for f in tops if calls_inside(source, f, names)]

    assert callers({"_image"}) == ["canonical_landstad_family", "induced_multiplier_family"]
    assert callers({"fiber_images"}) == ["_image"]
    assert callers({"bundle_isomorphism_report"}) == []


def test_landstad_reads_d_once_before_its_family(monkeypatch, pauli_bundle, q_z4, z2):
    events, read, hom = [], bundles._read_grading, duality._hom_residual
    monkeypatch.setattr(bundles, "_read_grading", lambda b, tol: events.append(
        "d" if b is pauli_bundle else "other") or read(b, tol))
    monkeypatch.setattr(duality, "_hom_residual",
                        lambda *args: events.append("family") or hom(*args))
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    u = bundles.UnitaryMultiplierFamily(pauli_bundle, (0, 1, 2, 3),
                                        {s: np.linalg.matrix_power(x, s) for s in range(4)})
    assert duality.landstad_reconstruct(pauli_bundle, q_z4, u)[1]["pass"]
    assert events == ["d", "family"]
    # so a non-grading d is rejected as such, whatever its family
    from test_duality import not_principal_inputs
    with pytest.raises(AxiomViolation):
        duality.landstad_reconstruct(*not_principal_inputs(z2, scale=2.0))


def test_the_quotient_round_trip_reads_its_bundle_and_family_once(monkeypatch, pauli_pullback,
                                                                  q_z4):
    reads, checks = [], []
    read, check = bundles._read_grading, bundles._family_check
    monkeypatch.setattr(bundles, "_read_grading",
                        lambda b, tol: reads.append(b) or read(b, tol))
    monkeypatch.setattr(bundles, "_family_check",
                        lambda u, tol: checks.append(u) or check(u, tol))
    fam = bundles.canonical_multiplier_family(pauli_pullback, q_z4)
    assert duality.quotient_pullback_roundtrip(pauli_pullback, fam, q_z4)["pass"]
    assert len(reads) == 1 and reads[0] is pauli_pullback
    assert len(checks) == 1


@pytest.mark.parametrize("function", ["_twisted_semidirect", "verify_twisted_action",
                                      "twisted_normal_form", "quotient_bundle"])
def test_twisted_actions_are_read_in_coordinates(function):
    source = (SRC / "bundles.py").read_text(encoding="utf-8")
    assert calls_inside(source, function, {"product_coords", "apply"}) == []


def test_both_collapses_along_n_share_one_realignment():
    # the twisted semidirect bundle and the quotient by a multiplier family are one
    # collapse, which alone assembles their products and adjoints at the sections
    source = (SRC / "bundles.py").read_text(encoding="utf-8")
    for function in ("_twisted_semidirect", "_collapse_by_family"):
        assert calls_inside(source, function, {"_collapse"})
        assert calls_inside(source, function, {"AbstractBundle"}) == []


def test_bundle_maps_have_one_homomorphism_kernel():
    # every isomorphism target is read in coordinates; the dense kernel serves
    # only the covariant pair, whose target is a Hilbert space and not a bundle
    source = (SRC / "bundles.py").read_text(encoding="utf-8")
    assert calls_inside(source, "_isomorphism_report", {"_coordinate_residuals"})
    assert calls_inside(source, "_isomorphism_report", {"homomorphism_residuals"}) == []
    callers = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        callers += [(path.stem, top.name) for top in ast.parse(text).body
                    if isinstance(top, ast.FunctionDef)
                    and calls_inside(text, top.name, {"homomorphism_residuals"})]
    assert callers == [("sections", "verify_covariant_pair")]


def test_one_olesen_pedersen_run_reads_each_action_once(tmp_path, monkeypatch):
    from test_cli import transformation_system_spec
    prop, read = bundles.TwistedAction.__dict__["structure"], []
    real = prop.func
    monkeypatch.setattr(prop, "func", lambda t: read.append(t) or real(t))
    # the parsed action, its plain action in the forward check, and the extracted
    # twist; over N = {e} the forward check reuses the twisted bundle, so no plain action
    for kind, n, normal, reads in [("dihedral", 4, (0, 2), 3), ("symmetric", 3, (0,), 2)]:
        spec = transformation_system_spec(tmp_path / f"ts_{kind}{n}.json", kind, n, normal)
        read.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.run_command(["olesen-pedersen", str(spec)])
        assert rc == 0 and len(read) == reads
        assert len({id(t) for t in read}) == len(read)


@pytest.mark.parametrize("argv", [
    ["verify"], ["crossed"], ["gsimple"], ["report"],
    ["imprimitivity", "--group", "cyclic:4", "--normal", "0,2"],
    ["landstad", "--group", "cyclic:4", "--normal", "0,2", "--family", "u.json"],
    ["pullback", "--group", "cyclic:4", "--normal", "0,2"]], ids=lambda argv: argv[0])
def test_one_run_reads_each_dense_grading_once(tmp_path, monkeypatch, pauli_bundle, argv):
    real, read = bundles._read_grading, []
    monkeypatch.setattr(bundles, "_read_grading",
                        lambda bundle, tol: read.append(bundle) or real(bundle, tol))
    monkeypatch.chdir(tmp_path)
    Path("pauli.json").write_text(json.dumps(cli.bundle_to_spec(pauli_bundle,
                                                                {"kind": "cyclic", "n": 2})))
    # u(s) = X^s over C4 -> C4/{0, 2}, the Landstad family of the Pauli grading
    u = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    Path("u.json").write_text(json.dumps(
        {"u": {str(s): cli.encode_matrix(np.array(u[s % 2], dtype=complex)) for s in range(4)}}))
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.run_command([argv[0], "pauli.json", *argv[1:]])
    # the spec is read once; pullback also reads the pull-back, once
    assert rc == 0 and len(read) == (2 if argv[0] == "pullback" else 1)
    assert len({id(bundle) for bundle in read}) == len(read)
