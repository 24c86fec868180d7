"""JSON command-line front end.

Bundle specs, multiplier families, witnesses, and actions are read from
JSON files; every command emits a key-sorted JSON report, so repeated runs
produce byte-identical output.  A command exits 0 iff its report passes, 1
if not (the report is still written) and 2 on bad input.  One reader,
`_load_object`, checks schema, kind and fields of all but group-table files.

A bundle spec looks like

    {"schema": "fellbundle/1",
     "group": {"kind": "cyclic", "n": 2},
     "ambient_dim": 2,
     "fibers": {"0": [[[[1,0],[0,0]],[[0,0],[1,0]]]], "1": [...]}}

with matrices as row-major nests of [re, im] pairs; unlisted fibers are
zero-dimensional.  Group descriptors on the command line use colon grammar:
cyclic:N, dihedral:N, symmetric:N, or table:FILE.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import approximation as approx
from . import bundles, duality, groups, imprimitivity, sections
from .errors import FellBundleError, ParseError
from .matrices import op_norm, orthonormalize, unit_element

SCHEMA = "fellbundle/1"
DEFAULT_CLI_TOL = 1e-9


# serialization


def encode_matrix(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def decode_matrix(obj, field: str) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{field}: not a numeric matrix: {exc}") from exc
    if arr.ndim != 3 or arr.shape[-1] != 2:
        raise ParseError(f"{field}: matrices are row-major nests of [re, im] pairs")
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


def _int_tuple(values) -> tuple[int, ...]:
    return tuple(int(x) for x in values)


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


def _element_key(path: str, key: str, g: groups.FiniteGroup, key_name: str, name: str) -> int:
    """The element of g a map key names; errors call it key_name, or name when out of range."""
    try:
        s = int(key)
    except ValueError as exc:
        raise ParseError(f"{path}: {key_name} '{key}' is not an element index") from exc
    if not 0 <= s < g.order:
        raise ParseError(f"{path}: {name} {s} outside a group of order {g.order}")
    return s


def decode_group(obj, field: str = "group") -> groups.FiniteGroup:
    if isinstance(obj, str):
        return group_from_descriptor(obj)[0]
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError(f"{field}: expected a descriptor with a 'kind'")
    kind = obj["kind"]
    try:
        if kind == "cyclic":
            return groups.cyclic(int(obj["n"]))
        if kind == "dihedral":
            return groups.dihedral(int(obj["n"]))
        if kind == "symmetric":
            return groups.symmetric(int(obj["n"]))
        if kind == "table":
            return groups.from_table(obj["table"])
    except KeyError as exc:
        raise ParseError(f"{field}: missing field {exc} for kind '{kind}'") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{field}: {exc}") from exc
    raise ParseError(f"{field}: unknown group kind '{kind}'")


def group_from_descriptor(text: str) -> tuple[groups.FiniteGroup, dict]:
    """Colon grammar for --group; returns the group and a serializable descriptor."""
    kind, sep, rest = text.partition(":")
    if not sep:
        raise ParseError(f"--group: expected kind:value, got '{text}'")
    if kind in ("cyclic", "dihedral", "symmetric"):
        try:
            n = int(rest)
        except ValueError as exc:
            raise ParseError(f"--group: '{rest}' is not an integer") from exc
        desc = {"kind": kind, "n": n}
        return decode_group(desc), desc
    if kind == "table":
        data = _load_json(rest)
        if isinstance(data, dict) and "table" not in data:
            raise ParseError(f"{rest}: expected a 'table' field")
        table = data["table"] if isinstance(data, dict) else data
        g = decode_group({"kind": "table", "table": table})
        return g, {"kind": "table", "table": [list(row) for row in g.table]}
    raise ParseError(f"--group: unknown kind '{kind}'")


def parse_spec(path: str):
    """Read a bundle spec file; returns (group, bundle, options)."""
    data = _load_object(path, None, "group", "ambient_dim")
    g = decode_group(data["group"])
    n = _cast(int, data["ambient_dim"], path, "ambient_dim")
    if n <= 0:
        raise ParseError(f"{path}: ambient_dim must be positive")
    raw = data.get("fibers", {})
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: fibers must map element indices to matrix lists")
    spans: dict[int, list] = {}
    for key, mats in raw.items():
        s = _element_key(path, key, g, "fiber key", "fiber index")
        if not isinstance(mats, list):
            raise ParseError(f"{path}: fibers[{key}]: expected a list of matrices")
        spans[s] = [_decode_square(m, n, f"fibers[{key}][{i}]")
                    for i, m in enumerate(mats)]
    fibers = tuple(orthonormalize(spans.get(s, []), ambient_dim=n)
                   for s in g.elements())
    bundle = bundles.GradedBundle(g, fibers)
    options = {field: _cast(cast, data[field], path, field) for field, cast in
               (("normal_subgroup", _int_tuple), ("tolerance", float)) if field in data}
    return g, bundle, options


def bundle_to_spec(bundle: bundles.GradedBundle, group_desc: dict) -> dict:
    fibers = {str(s): [encode_matrix(b) for b in bundle.fiber(s).basis_list()]
              for s in bundle.group.elements() if bundle.fiber(s).dim}
    return {"schema": SCHEMA, "group": group_desc,
            "ambient_dim": bundle.ambient_dim, "fibers": fibers}


def _matrix_map(path: str, key: str, g: groups.FiniteGroup, n: int) -> dict:
    """Files like {"f": {"0": matrix, ...}} for witnesses and families."""
    data = _load_object(path, None)
    if not isinstance(data.get(key), dict):
        raise ParseError(f"{path}: expected an object with a '{key}' map")
    return {_element_key(path, raw_s, g, "key", "element"): _decode_square(m, n, f"{key}[{raw_s}]")
            for raw_s, m in data[key].items()}


def _normal(args, g: groups.FiniteGroup) -> groups.NormalSubgroup:
    """--normal as a normal subgroup of g."""
    try:
        members = _int_tuple(args.normal.split(","))
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
    g = decode_group(data["group"])
    mats = data["algebra"]
    if not isinstance(mats, list) or not mats:
        raise ParseError(f"{path}: algebra must be a nonempty list of matrices")
    first = decode_matrix(mats[0], "algebra[0]")
    if first.ndim != 2 or first.shape[0] != first.shape[1]:
        raise ParseError(f"{path}: algebra matrices must be square")
    k = first.shape[0]
    algebra = orthonormalize([_decode_square(m, k, f"algebra[{i}]")
                              for i, m in enumerate(mats)])
    members = _cast(_int_tuple, data.get("normal_subgroup", [0]), path, "normal_subgroup")
    try:
        nsub = groups.NormalSubgroup(g, members)
    except FellBundleError as exc:
        raise ParseError(f"{path}: normal_subgroup: {exc}") from exc
    alpha = np.zeros((g.order, algebra.dim, algebra.dim), dtype=complex)
    raw_alpha = data["alpha"]
    if not isinstance(raw_alpha, dict):
        raise ParseError(f"{path}: alpha must map element indices to coordinate matrices")
    for s in g.elements():
        if str(s) not in raw_alpha:
            raise ParseError(f"{path}: alpha is missing element {s}")
        alpha[s] = _decode_square(raw_alpha[str(s)], algebra.dim, f"alpha[{s}]")
    raw_tau = data.get("tau", {})
    if not isinstance(raw_tau, dict):
        raise ParseError(f"{path}: tau must map normal-subgroup elements to matrices")
    tau = {}
    for raw_n, m in raw_tau.items():
        nn = _cast(int, raw_n, path, "tau key")
        if nn not in members:
            raise ParseError(f"{path}: tau[{nn}] is not indexed by the normal subgroup")
        tau[nn] = _decode_square(m, k, f"tau[{raw_n}]")
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
    g = decode_group(data["group"])
    size = _cast(int, data["size"], path, "size")
    raw = data["perm"]
    if isinstance(raw, dict):
        try:
            rows = [raw[str(s)] for s in g.elements()]
        except KeyError as exc:
            raise ParseError(f"{path}: perm is missing element {exc}") from exc
    elif isinstance(raw, list):
        rows = raw
    else:
        raise ParseError(f"{path}: perm must be a list of rows or an element map")
    perm = tuple(_cast(_int_tuple, r, path, f"perm[{s}]") for s, r in enumerate(rows))
    try:
        return duality.GSetAction(g, size, perm)
    except FellBundleError as exc:
        raise ParseError(f"{path}: {exc}") from exc


# commands


def _tol(args, options) -> float:
    """--tol, else the spec's tolerance, else the default; a ParseError naming
    its source unless it is a finite number >= 0."""
    source, tol = (("--tol", args.tol) if args.tol is not None else
                   (f"{args.spec}: tolerance", options.get("tolerance", DEFAULT_CLI_TOL)))
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
    rep = bundles.verify_fell_axioms(pb, max(tol, 1e-8))
    report = {
        "command": "pullback", "pass": rep["pass"],
        "group_order": g.order, "ambient_dim": pb.ambient_dim,
        "fiber_dims": list(pb.fiber_dims()),
        "section_dimension": pb.section_dimension(),
        "axioms": rep["checks"],
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(render_report(bundle_to_spec(pb, desc)))
    return report


def cmd_crossed(args) -> dict:
    """crossed-product dimension law and fiberwise isometry"""
    bundle, tol = _spec(args)
    bundles.require_fell_axioms(bundle, max(tol, 1e-8))
    g = bundle.group
    lam = groups.left_regular(g)
    # read off span{a_s (x) E_{st,t}}: its (s, t) slots are HS-orthogonal, so
    # dim = |G| * sum_s dim A_s, and ||a (x) lambda_s|| = ||a|| * ||lambda_s||
    residual = float(np.concatenate(
        [op_norm(bundle.fiber(s).basis) * abs(op_norm(lam[s]) - 1.0)
         for s in g.elements()]).max(initial=0.0))
    dimension = g.order * bundle.section_dimension()
    return {
        "command": "crossed", "pass": residual <= max(tol, 1e-10),
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
    rep, morita = imprimitivity.bimodule_check(q, d, max(tol, 1e-8))
    report = {"command": "imprimitivity", **rep}
    if rep["pass"]:
        report["morita"] = morita
        report["gamma"] = imprimitivity.gamma_equivariance_report(q, d)["pass"]
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
    _, rep = duality.landstad_reconstruct(d, q, u, max(tol, 1e-8))
    return {
        "command": "landstad", "pass": rep["pass"],
        "coefficient_dim": rep["coefficient_dim"],
        "twist": {str(n): encode_matrix(m) for n, m in rep["twist"].items()},
        "isomorphism": rep["iso"]["pass"],
    }


def cmd_olesen_pedersen(args) -> dict:
    """semidirect vs pull-back comparison for a twisted action"""
    action = parse_action_spec(args.spec)
    tol = max(_tol(args, {}), 1e-8)
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
    tol = max(tol, 1e-8)
    sa = sections.section_algebra(bundle, tol)
    ideals = duality.graded_ideals(sa, tol)
    return {
        "command": "gsimple", "pass": True,
        "section_dimension": sa.total.dim,
        "ideal_dims": [i.dim for i in ideals],
        "ideal_count": len(ideals),
        "is_g_simple": duality.is_g_simple(sa, tol, ideals),
    }


def cmd_obstruction(args) -> dict:
    """stabilizer obstruction for a G-set action spec"""
    act = parse_gset_spec(args.spec)
    if not args.normal:
        raise ParseError("obstruction needs --normal with the subgroup members")
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
    tol = max(tol, 1e-8)
    axioms = bundles.verify_fell_axioms(bundle, tol)
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
    sa = sections.section_algebra(bundle, tol, check=False)
    ideals = duality.graded_ideals(sa, tol)
    report["ideal_dims"] = [i.dim for i in ideals]
    report["is_g_simple"] = duality.is_g_simple(sa, tol, ideals)
    report["amenability"] = approx.amenability_report(sa, tol)
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


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fellbundles",
        description="Verification toolkit for gradings of matrix algebras by finite groups.")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")
    for name, handler in COMMANDS.items():
        sp = sub.add_parser(name, help=handler.__doc__)
        sp.add_argument("spec", help="input JSON file")
        sp.add_argument("--tol", type=float, default=None,
                        help=f"numeric tolerance (default {DEFAULT_CLI_TOL})")
        sp.add_argument("--normal", default=None,
                        help="comma-separated members of the normal subgroup")
        sp.add_argument("--group", default=None,
                        help="group descriptor: cyclic:N, dihedral:N, symmetric:N, table:FILE")
        sp.add_argument("-o", "--output", default=None, help="output file")
        sp.add_argument("--format", choices=["json"], default="json")
        if name == "ep":
            sp.add_argument("--witness", default=None, help="witness file with an 'f' map")
        if name == "landstad":
            sp.add_argument("--family", default=None, help="family file with a 'u' map")
    return p


def _emit(text: str, args) -> None:
    # pullback's -o is reserved for the bundle spec, so its report always
    # goes to stdout; every other command writes the report to -o if given
    if args.output and args.command != "pullback":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run_command(argv) -> int:
    try:
        args = _build_parser().parse_args(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        report = COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FellBundleError as exc:
        # a well-formed input failed a mathematical check
        report = {"command": args.command, "pass": False,
                  "error": type(exc).__name__, "detail": str(exc)}
    _emit(render_report(report), args)
    return 0 if report["pass"] else 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
