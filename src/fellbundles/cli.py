"""JSON command-line front end.

Bundle specs, multiplier families, witnesses, and actions are read from
JSON files; every command emits a key-sorted JSON report, so repeated runs
produce byte-identical output.  A command exits 0 iff its report passes, 1
if not (the report is still written) and 2 on bad input.  One reader,
`_load_object`, checks schema, kind and fields of all but group-table files.

A command takes only the options in its row of `OPTIONS`, beside its input
file and -o; any other option, a missing required one and every other bad
argument print one `error:` line and exit 2.  Integer fields must be JSON
integers (true, 2.0 and "2" exit 2, nothing is truncated), and a group that
the descriptor does not define (cyclic:0, a table that is not a group), a
key of an element-keyed map that names no element or repeats one, a matrix
entry that is not finite (NaN, Infinity, "nan"), and an -o path that cannot
be written exit 2 too.

A bundle spec looks like

    {"schema": "fellbundle/1",
     "group": {"kind": "cyclic", "n": 2},
     "ambient_dim": 2,
     "fibers": {"0": [[[[1,0],[0,0]],[[0,0],[1,0]]]], "1": [...]}}

with matrices as row-major nests of [re, im] pairs; unlisted fibers are
zero-dimensional.  Every matrix field of every input file may instead be
packed as {"dtype": "complex128", "shape": [rows, cols], "data": BASE64},
the base64 of the entries' little-endian bytes in row-major order.  Both
forms are read by one decoder, `decode_matrix`, under one set of rules
(finite entries, the expected shape, exit 2 naming the file and field).
`bundle_to_spec`, and so `pullback -o`, writes the packed form, which reads
without one Python object per number: the trivial M2 bundle over S4 takes
4.5 MiB instead of 9.9 MiB.  `encode_matrix` writes the nested form, which
every report keeps.  Group descriptors on the command line use colon
grammar: cyclic:N, dihedral:N, symmetric:N, or table:FILE.
"""

from __future__ import annotations

import argparse
import base64
import binascii
import functools
import json
import sys
from itertools import chain

import numpy as np

from . import approximation as approx
from . import bundles, duality, groups, imprimitivity
from .errors import FellBundleError, ParseError
from .matrices import DEFAULT_TOL, op_norm, orthonormalize, unit_element

SCHEMA = "fellbundle/1"


# serialization


def encode_matrix(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def pack_matrix(m) -> dict:
    """The packed form of a matrix: its complex128 entries as base64 of their
    little-endian bytes in row-major order."""
    m = np.ascontiguousarray(m, dtype="<c16")
    return {"dtype": "complex128", "shape": list(m.shape),
            "data": base64.b64encode(m.tobytes()).decode("ascii")}


def _unpack_matrix(obj: dict, field: str) -> np.ndarray:
    if obj.keys() != {"dtype", "shape", "data"}:
        raise ParseError(f"{field}: a packed matrix has exactly the keys data, dtype and shape")
    if obj["dtype"] != "complex128":
        raise ParseError(f"{field}: dtype must be \"complex128\", got {json.dumps(obj['dtype'])}")
    shape = _json_int(obj["shape"], f"{field}: shape", depth=1)
    if len(shape) != 2 or min(shape) <= 0:
        raise ParseError(f"{field}: shape must be two positive integers, got {list(shape)}")
    rows, cols = shape
    try:
        raw = base64.b64decode(obj["data"], validate=True)
    except (binascii.Error, TypeError, ValueError) as exc:  # not text, or not ASCII
        raise ParseError(f"{field}: data is not base64: {exc}") from exc
    if len(raw) != 16 * rows * cols:
        raise ParseError(f"{field}: data holds {len(raw)} bytes, a complex128 "
                         f"{rows}x{cols} matrix {16 * rows * cols}")
    m = np.frombuffer(raw, dtype="<c16").reshape(rows, cols)
    if not np.isfinite(m).all():
        raise ParseError(f"{field}: entries must be finite numbers")
    return m


def decode_matrix(obj, field: str) -> np.ndarray:
    """A matrix field, nested or packed. Nested entries are JSON numbers: text,
    booleans and nulls are not parsed into them."""
    if isinstance(obj, dict):
        return _unpack_matrix(obj, field)
    try:
        arr = np.asarray(obj)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{field}: not a numeric matrix: {exc}") from exc
    if arr.ndim != 3 or arr.shape[-1] != 2:
        raise ParseError(f"{field}: matrices are row-major nests of [re, im] pairs")
    if arr.dtype.kind not in "fiu" or not np.isfinite(arr).all():
        raise ParseError(f"{field}: entries must be finite numbers")
    # numpy reads a boolean among numbers as 0 or 1, so only then are the entries' types read
    if ((arr == 0) | (arr == 1)).any() and bool in set(map(type, chain(*chain(*obj)))):
        raise ParseError(f"{field}: entries must be finite numbers, not booleans")
    return arr[..., 0] + 1j * arr[..., 1]


def _decode_square(obj, n: int, field: str) -> np.ndarray:
    m = decode_matrix(obj, field)
    if m.shape != (n, n):
        raise ParseError(f"{field}: expected a {n}x{n} matrix, got {m.shape[0]}x{m.shape[1]}")
    return m


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.ndim == 2:
            return encode_matrix(obj)
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    return obj


def render_report(report: dict) -> str:
    return json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"


# input files


def _cast(cast, value, path: str, field: str):
    """cast(value), with a malformed value reported as a ParseError naming the field."""
    if cast in (int, float) and isinstance(value, bool):  # int(true) and float(true) are 1
        raise ParseError(f"{path}: {field}: expected a number, got {json.dumps(value)}")
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {field}: {exc}") from exc


def _json_int(value, field: str, depth: int = 0):
    """A JSON integer, or at depth d a d-fold nested list of them as tuples; a
    ParseError naming the field otherwise: true, 2.0 and "2" are not integers."""
    if depth:
        if not isinstance(value, list):
            raise ParseError(f"{field}: expected a list, got {json.dumps(value)}")
        return tuple(_json_int(v, field, depth - 1) for v in value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    wanted = "an integer" if isinstance(value, float) else "a number"
    raise ParseError(f"{field}: expected {wanted}, got {json.dumps(value)}")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc


def _load_object(path: str, kind: str | None, *fields: str) -> dict:
    """The JSON object in path: a ParseError unless its schema is SCHEMA (the
    default), its kind is `kind` (the default) and it has every field."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")
    schema = data.get("schema", SCHEMA)
    if schema != SCHEMA:
        raise ParseError(f"{path}: unsupported schema '{schema}'")
    if kind is not None and data.get("kind", kind) != kind:
        raise ParseError(f"{path}: expected kind '{kind}'")
    for field in fields:
        if field not in data:
            raise ParseError(f"{path}: missing {field} field")
    return data


def _element_map(path: str, raw: dict, g: groups.FiniteGroup, key_name: str,
                 name: str | None = None) -> dict:
    """A JSON map keyed by element indices of g, as {element: value}. A key that
    is not an index as str(int) writes it, or repeats an element, is a ParseError
    calling it key_name; one outside g calls it name (key_name by default)."""
    out = {}
    for key, value in raw.items():
        try:
            s = int(key)
        except ValueError:
            s = None
        if s in out:
            raise ParseError(f"{path}: {key_name} '{key}' repeats element {s}")
        if s is None or key != str(s):
            raise ParseError(f"{path}: {key_name} '{key}' is not an element index")
        if not 0 <= s < g.order:
            raise ParseError(f"{path}: {name or key_name} {s} outside a group of order {g.order}")
        out[s] = value
    return out


_GROUP_KINDS = {"cyclic": groups.cyclic, "dihedral": groups.dihedral,
                "symmetric": groups.symmetric, "table": groups.from_table}


def decode_group(obj, field: str) -> groups.FiniteGroup:
    """The group of a JSON descriptor; a ParseError naming the field if it is
    malformed or defines no group (an order 0, a table that is not a group)."""
    if isinstance(obj, str):
        return group_from_descriptor(obj, field)[0]
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError(f"{field}: expected a descriptor with a 'kind'")
    kind = obj["kind"]
    if kind not in _GROUP_KINDS:
        raise ParseError(f"{field}: unknown group kind '{kind}'")
    key = "table" if kind == "table" else "n"
    if key not in obj:
        raise ParseError(f"{field}: missing field '{key}' for kind '{kind}'")
    value = _json_int(obj[key], f"{field}: {key}", depth=2 if kind == "table" else 0)
    try:
        return _GROUP_KINDS[kind](value)
    except FellBundleError as exc:
        raise ParseError(f"{field}: {exc}") from exc


def group_from_descriptor(text: str, field: str = "--group") -> tuple[groups.FiniteGroup, dict]:
    """Colon grammar for --group, or for a spec's group string (errors name
    field); returns the group and a serializable descriptor."""
    kind, sep, rest = text.partition(":")
    if not sep:
        raise ParseError(f"{field}: expected kind:value, got '{text}'")
    if kind in ("cyclic", "dihedral", "symmetric"):
        try:
            n = int(rest)
        except ValueError as exc:
            raise ParseError(f"{field}: '{rest}' is not an integer") from exc
        desc = {"kind": kind, "n": n}
        return decode_group(desc, field), desc
    if kind == "table":
        data = _load_json(rest)
        if isinstance(data, dict) and "table" not in data:
            raise ParseError(f"{rest}: expected a 'table' field")
        table = data["table"] if isinstance(data, dict) else data
        g = decode_group({"kind": "table", "table": table}, f"{field}: {rest}")
        return g, {"kind": "table", "table": [list(row) for row in g.table]}
    raise ParseError(f"{field}: unknown kind '{kind}'")


def parse_spec(path: str):
    """Read a bundle spec file; returns (group, bundle, options)."""
    data = _load_object(path, None, "group", "ambient_dim")
    g = decode_group(data["group"], f"{path}: group")
    n = _json_int(data["ambient_dim"], f"{path}: ambient_dim")
    if n <= 0:
        raise ParseError(f"{path}: ambient_dim must be positive")
    raw = data.get("fibers", {})
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: fibers must map element indices to matrix lists")
    spans: dict[int, list] = {}
    for s, mats in _element_map(path, raw, g, "fiber key", "fiber index").items():
        if not isinstance(mats, list):
            raise ParseError(f"{path}: fibers[{s}]: expected a list of matrices")
        spans[s] = [_decode_square(m, n, f"{path}: fibers[{s}][{i}]")
                    for i, m in enumerate(mats)]
    fibers = tuple(orthonormalize(spans.get(s, []), ambient_dim=n)
                   for s in g.elements())
    bundle = bundles.GradedBundle(g, fibers)
    options = ({"tolerance": _cast(float, data["tolerance"], path, "tolerance")}
               if "tolerance" in data else {})
    return g, bundle, options


def bundle_to_spec(bundle: bundles.GradedBundle, group_desc: dict) -> dict:
    fibers = {str(s): [pack_matrix(b) for b in bundle.fiber(s).basis_list()]
              for s in bundle.group.elements() if bundle.fiber(s).dim}
    return {"schema": SCHEMA, "group": group_desc,
            "ambient_dim": bundle.ambient_dim, "fibers": fibers}


def _matrix_map(path: str, key: str, g: groups.FiniteGroup, n: int) -> dict:
    """Files like {"f": {"0": matrix, ...}} for witnesses and families."""
    data = _load_object(path, None)
    if not isinstance(data.get(key), dict):
        raise ParseError(f"{path}: expected an object with a '{key}' map")
    return {s: _decode_square(m, n, f"{path}: {key}[{s}]")
            for s, m in _element_map(path, data[key], g, "key", "element").items()}


def _normal(args, g: groups.FiniteGroup) -> groups.NormalSubgroup:
    """--normal as a normal subgroup of g."""
    try:
        members = tuple(int(x) for x in args.normal.split(","))
    except ValueError as exc:
        raise ParseError(
            f"--normal: expected a comma list of integers, got '{args.normal}'") from exc
    try:
        return groups.NormalSubgroup(g, members)
    except FellBundleError as exc:
        raise ParseError(f"--normal: {exc}") from exc


def _quotient_setup(args, d: bundles.GradedBundle):
    """Build G and G/N from --group/--normal and identify d's group with G/N."""
    if not args.group or not args.normal:
        raise ParseError("this command needs --group and --normal")
    g, desc = group_from_descriptor(args.group)
    q = groups.quotient(g, _normal(args, g))
    if q.quotient_group.table != d.group.table:
        raise ParseError(
            "bundle group does not match the quotient of --group by --normal "
            f"(orders {d.group.order} and {q.quotient_group.order})")
    return g, q, desc


def parse_action_spec(path: str):
    """Twisted-action files for the olesen-pedersen command."""
    data = _load_object(path, "twisted_action", "group", "algebra", "alpha")
    g = decode_group(data["group"], f"{path}: group")
    mats = data["algebra"]
    if not isinstance(mats, list) or not mats:
        raise ParseError(f"{path}: algebra must be a nonempty list of matrices")
    first = decode_matrix(mats[0], f"{path}: algebra[0]")
    if first.ndim != 2 or first.shape[0] != first.shape[1]:
        raise ParseError(f"{path}: algebra matrices must be square")
    k = first.shape[0]
    algebra = orthonormalize([_decode_square(m, k, f"{path}: algebra[{i}]")
                              for i, m in enumerate(mats)])
    members = _json_int(data.get("normal_subgroup", [0]), f"{path}: normal_subgroup", depth=1)
    try:
        nsub = groups.NormalSubgroup(g, members)
    except FellBundleError as exc:
        raise ParseError(f"{path}: normal_subgroup: {exc}") from exc
    alpha = np.zeros((g.order, algebra.dim, algebra.dim), dtype=complex)
    raw_alpha = data["alpha"]
    if not isinstance(raw_alpha, dict):
        raise ParseError(f"{path}: alpha must map element indices to coordinate matrices")
    by_element = _element_map(path, raw_alpha, g, "alpha key")
    for s in g.elements():
        if s not in by_element:
            raise ParseError(f"{path}: alpha is missing element {s}")
        alpha[s] = _decode_square(by_element[s], algebra.dim, f"{path}: alpha[{s}]")
    raw_tau = data.get("tau", {})
    if not isinstance(raw_tau, dict):
        raise ParseError(f"{path}: tau must map normal-subgroup elements to matrices")
    tau = {}
    for nn, m in _element_map(path, raw_tau, g, "tau key").items():
        if nn not in members:
            raise ParseError(f"{path}: tau[{nn}] is not indexed by the normal subgroup")
        tau[nn] = _decode_square(m, k, f"{path}: tau[{nn}]")
    for nn in members:
        if nn not in tau:
            if nn == 0:
                try:
                    tau[0] = unit_element(algebra)
                except FellBundleError as exc:
                    raise ParseError(f"{path}: algebra has no unit for tau[0]") from exc
            else:
                raise ParseError(f"{path}: tau is missing element {nn}")
    return bundles.TwistedAction(algebra, g, nsub, alpha, tau)


def parse_gset_spec(path: str):
    """G-set action files for the obstruction command."""
    data = _load_object(path, "gset_action", "group", "size", "perm")
    g = decode_group(data["group"], f"{path}: group")
    size = _json_int(data["size"], f"{path}: size")
    raw = data["perm"]
    if isinstance(raw, dict):
        by_element = _element_map(path, raw, g, "perm key")
        missing = [s for s in g.elements() if s not in by_element]
        if missing:
            raise ParseError(f"{path}: perm is missing element {missing[0]}")
        rows = [by_element[s] for s in g.elements()]
    elif isinstance(raw, list):
        rows = raw
    else:
        raise ParseError(f"{path}: perm must be a list of rows or an element map")
    perm = tuple(_json_int(r, f"{path}: perm[{s}]", depth=1) for s, r in enumerate(rows))
    try:
        return duality.GSetAction(g, size, perm)
    except FellBundleError as exc:
        raise ParseError(f"{path}: {exc}") from exc


# commands


def _tol(args, options) -> float:
    """--tol, else the spec's tolerance, else the default; a ParseError naming
    its source unless it is a finite number >= 0."""
    source, tol = (("--tol", args.tol) if args.tol is not None else
                   (f"{args.spec}: tolerance", options.get("tolerance", DEFAULT_TOL)))
    if not (np.isfinite(tol) and tol >= 0):
        raise ParseError(f"{source}: expected a finite number >= 0, got {tol}")
    return float(tol)


def _spec(args) -> tuple[bundles.GradedBundle, float]:
    """The bundle of the spec file and the run's tolerance."""
    _, bundle, options = parse_spec(args.spec)
    return bundle, _tol(args, options)


def cmd_verify(args) -> dict:
    """run the grading axiom battery on a bundle spec"""
    bundle, tol = _spec(args)
    return {"command": "verify", **bundles.verify_fell_axioms(bundle, tol)}


def cmd_pullback(args) -> dict:
    """pull a bundle over G/N back to G (-o writes the bundle spec)"""
    d, tol = _spec(args)
    g, q, desc = _quotient_setup(args, d)
    pb = bundles.pullback(d, q)
    if args.output:  # written also when a check below fails
        _emit(render_report(bundle_to_spec(pb, desc)), args.output)
    # the base's axioms, as a precondition: the lambda factors make the
    # pull-back's fibers independent even where D's are not
    bundles.abstract_from_graded(d, tol)
    rep = bundles.verify_fell_axioms(pb, tol)
    return {
        "command": "pullback", "pass": rep["pass"],
        "group_order": g.order, "ambient_dim": pb.ambient_dim,
        "fiber_dims": list(pb.fiber_dims()),
        "section_dimension": pb.section_dimension(),
        "axioms": rep["checks"],
    }


def cmd_crossed(args) -> dict:
    """crossed-product dimension law and fiberwise isometry"""
    bundle, tol = _spec(args)
    bundles.abstract_from_graded(bundle, tol)  # the grading axioms, as a precondition
    g = bundle.group
    lam = groups.left_regular(g)
    # read off span{a_s (x) E_{st,t}}: its (s, t) slots are HS-orthogonal, so
    # dim = |G| * sum_s dim A_s, and ||a (x) lambda_s|| = ||a|| * ||lambda_s||
    residual = float(np.concatenate(
        [op_norm(bundle.fiber(s).basis) * abs(op_norm(lam[s]) - 1.0)
         for s in g.elements()]).max(initial=0.0))
    dimension = g.order * bundle.section_dimension()
    return {
        "command": "crossed", "pass": residual <= tol,
        "ambient_dim": bundle.ambient_dim * g.order,
        "crossed_dimension": dimension,
        "expected_dimension": dimension,
        "fiber_dims": list(bundle.fiber_dims()),
        "isometry_residual": residual,
    }


def cmd_imprimitivity(args) -> dict:
    """bimodule axioms and Morita report for a bundle over G/N"""
    d, tol = _spec(args)
    _, q, _ = _quotient_setup(args, d)
    rep, morita, gamma = imprimitivity.bimodule_check(q, d, tol)
    report = {"command": "imprimitivity", **rep}
    if rep["pass"]:  # no item violations, so gamma's are all of them
        report.update({"pass": gamma["pass"], "violations": gamma["violations"],
                       "morita": morita, "gamma": gamma["pass"]})
    return report


def cmd_landstad(args) -> dict:
    """reconstruct a twisted action from a bundle plus --family"""
    d, tol = _spec(args)
    g, q, _ = _quotient_setup(args, d)
    if not args.family:
        raise ParseError("landstad needs --family FILE with a 'u' matrix map")
    mats = _matrix_map(args.family, "u", g, d.ambient_dim)
    missing = [s for s in g.elements() if s not in mats]
    if missing:
        raise ParseError(f"--family: u is missing elements {missing}")
    u = bundles.UnitaryMultiplierFamily(d, tuple(g.elements()), mats)
    _, rep = duality.landstad_reconstruct(d, q, u, tol)
    return {
        "command": "landstad", "pass": rep["pass"],
        "coefficient_dim": rep["coefficient_dim"],
        "twist": {str(n): encode_matrix(m) for n, m in rep["twist"].items()},
        "isomorphism": rep["iso"]["pass"],
    }


def cmd_olesen_pedersen(args) -> dict:
    """semidirect vs pull-back comparison for a twisted action"""
    action = parse_action_spec(args.spec)
    tol = _tol(args, {})
    fwd = duality.olesen_pedersen_forward(action, tol)
    fam = duality.induced_multiplier_family(action, fwd["semidirect"])
    extracted = duality.extract_twist(action, fwd["semidirect"], fam, tol)
    residual = max(
        (float(np.linalg.norm(extracted[n] - action.tau[n])) for n in extracted),
        default=0.0)
    return {
        "command": "olesen-pedersen", "pass": fwd["pass"] and residual <= tol,
        "dim_semidirect": fwd["dim_semidirect"],
        "dim_pullback": fwd["dim_pullback"],
        "isomorphism": fwd["iso"]["pass"],
        "extracted_twist": {str(n): encode_matrix(m) for n, m in extracted.items()},
        "twist_residual": residual,
    }


def cmd_gsimple(args) -> dict:
    """graded ideals of the section algebra"""
    bundle, tol = _spec(args)
    constants = bundles.abstract_from_graded(bundle, tol)
    ideals = duality.graded_ideals(constants, bundle.fiber(0), tol)
    return {
        "command": "gsimple", "pass": True,
        "section_dimension": constants.section_dimension(),
        "ideal_dims": [len(i) for i in ideals],
        "ideal_count": len(ideals),
        "is_g_simple": duality.is_g_simple(constants, bundle.fiber(0), tol, ideals),
    }


def cmd_obstruction(args) -> dict:
    """stabilizer obstruction for a G-set action spec"""
    act = parse_gset_spec(args.spec)
    nsub = _normal(args, act.group)
    if nsub.is_trivial():
        raise ParseError("--normal must name a nontrivial subgroup")
    return {"command": "obstruction", "pass": True,
            **duality.stabilizer_obstruction(act, nsub)}


def cmd_ep(args) -> dict:
    """approximation-property bound and defect (--witness optional)"""
    bundle, tol = _spec(args)
    if args.witness:
        vals = _matrix_map(args.witness, "f", bundle.group, bundle.ambient_dim)
        w = approx.ep_witness(bundle, vals, tol)
    else:
        w = approx.uniform_witness(bundle, tol)
    rep = approx.ep_defect(bundle, w, tol)
    return {
        "command": "ep", "pass": True,
        "bound": rep["bound"], "defect": rep["defect"],
        "support": list(w.support),
    }


def cmd_report(args) -> dict:
    """combined report: axioms, dimensions, ideals, amenability"""
    bundle, tol = _spec(args)
    axioms, constants, frame_sv = bundles._read_grading(bundle, tol)
    report = {
        "command": "report", "pass": axioms["pass"],
        "group_order": bundle.group.order,
        "ambient_dim": bundle.ambient_dim,
        "fiber_dims": list(bundle.fiber_dims()),
        "axioms": axioms["checks"],
    }
    if not axioms["pass"]:
        report["violations"] = axioms["violations"]
        return report
    dimension = bundle.group.order * bundle.section_dimension()
    report["crossed_dimension"] = report["expected_crossed_dimension"] = dimension
    ideals = duality.graded_ideals(constants, bundle.fiber(0), tol)
    report["ideal_dims"] = [len(i) for i in ideals]
    report["is_g_simple"] = duality.is_g_simple(constants, bundle.fiber(0), tol, ideals)
    report["amenability"] = approx.amenability_report(bundle, frame_sv, tol)
    return report


# name -> handler; a handler's docstring is its --help line, and the values
# stay plain functions so that perfbench/tracer.py can swap in its wrappers
COMMANDS = {
    "verify": cmd_verify,
    "pullback": cmd_pullback,
    "crossed": cmd_crossed,
    "imprimitivity": cmd_imprimitivity,
    "landstad": cmd_landstad,
    "olesen-pedersen": cmd_olesen_pedersen,
    "gsimple": cmd_gsimple,
    "obstruction": cmd_obstruction,
    "ep": cmd_ep,
    "report": cmd_report,
}


# the options each command reads beside its input file and -o; the quotient
# commands check for --group, --normal and --family themselves, after the spec
_TOL = {"--tol": {"type": float, "help": f"numeric tolerance (default {DEFAULT_TOL})"}}
_QUOTIENT = {**_TOL, "--normal": {"help": "comma-separated members of the normal subgroup"},
             "--group": {"help": "group descriptor: cyclic:N, dihedral:N, symmetric:N, table:FILE"}}
OPTIONS = {
    "verify": _TOL, "pullback": _QUOTIENT, "crossed": _TOL, "imprimitivity": _QUOTIENT,
    "landstad": {**_QUOTIENT, "--family": {"help": "family file with a 'u' map"}},
    "olesen-pedersen": _TOL, "gsimple": _TOL,
    "obstruction": {"--normal": {**_QUOTIENT["--normal"], "required": True}},
    "ep": {**_TOL, "--witness": {"help": "witness file with an 'f' map"}}, "report": _TOL}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # every bad argument: one `error:` line, exit 2
        self.exit(2, f"error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser, built on first use; run_command still dispatches through COMMANDS."""
    p = _Parser(prog="fellbundles", description="Verification toolkit for gradings of "
                "matrix algebras by finite groups.")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")
    for name, handler in COMMANDS.items():
        sp = sub.add_parser(name, help=handler.__doc__)
        sp.add_argument("spec", help="input JSON file")
        for option, settings in OPTIONS[name].items():
            sp.add_argument(option, **settings)
        sp.add_argument("-o", "--output", help="output file")
    return p


def _emit(text: str, path: str | None) -> None:
    """Write text to the -o path, or to stdout without one; a path that cannot
    be written is a ParseError."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"-o: {exc}") from exc


def _run(args) -> dict:
    """The command's report, also when a well-formed input fails a mathematical check."""
    try:
        return COMMANDS[args.command](args)
    except ParseError:
        raise
    except FellBundleError as exc:
        return {"command": args.command, "pass": False,
                "error": type(exc).__name__, "detail": str(exc)}


def run_command(argv) -> int:
    try:
        args = _build_parser().parse_args(list(argv))
    except SystemExit as exc:
        return exc.code
    try:
        report = _run(args)
        # pullback's -o is reserved for the bundle spec, so its report always
        # goes to stdout; every other command writes the report to -o if given
        _emit(render_report(report), None if args.command == "pullback" else args.output)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report["pass"] else 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
