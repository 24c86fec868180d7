"""Metamorphic battery: what a bundle's checks report is a property of the
bundle up to isomorphism, so three transformations must leave it unchanged.

- Conjugating every fiber by one seeded Haar unitary U of the ambient,
  A_s -> U A_s U*, is a *-isomorphism of the whole grading.
- Relabelling the group by a permutation pi with pi(0) = 0, the table moved
  to pi(s)pi(t) = pi(st) and fiber s moved to pi(s), is the same grading.
- Rescaling each spanning matrix of a spec file by its own seeded factor in
  [0.25, 8] spans the same fibers, so every CLI report keeps its exit code
  and its non-float fields, and its floats move by at most the tolerance.

Each fixture of the shared battery is checked for the grading-axiom verdict,
the fiber dimensions, the graded-ideal dimensions, the ep defect of the
uniform witness (or its absence, for a non-unital unit fiber), and, for the
bundles over C2 = G/N, the dimensions and Wedderburn block counts of the
imprimitivity bimodule.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fellbundles import approximation as ap
from fellbundles import bundles, cli, duality, groups, imprimitivity, matrices
from fellbundles.errors import NonUnitalUnitFiber

TOL = matrices.DEFAULT_TOL
BATTERY = settings(max_examples=3, deadline=None,
                   suppress_health_check=[HealthCheck.function_scoped_fixture])

BUNDLES = {
    "pauli_bundle": lambda fx: fx("pauli_bundle"),
    "pauli_pullback": lambda fx: fx("pauli_pullback"),
    "trivial_z4": lambda fx: fx("trivial_z4"),
    "trivial_s3": lambda fx: fx("trivial_s3"),
    "twisted_z4": lambda fx: fx("twisted_z4_realized").bundle,
    "swap_semidirect": lambda fx: fx("swap_semidirect_realized").bundle,
    "s3_quotient_bundle": lambda fx: fx("s3_quotient_bundle"),
}
# bundles over C2 with a quotient G/N = C2 to induce along
OVER_C2 = [("pauli_bundle", "q_z4"), ("pauli_bundle", "q_s3"),
           ("swap_semidirect", "q_z4"), ("s3_quotient_bundle", "q_s3")]


def haar_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-distributed U(n): QR of a complex Gaussian with R's phases moved into Q."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def conjugated(bundle: bundles.GradedBundle, u: np.ndarray) -> bundles.GradedBundle:
    """Every fiber moved by a -> u a u*; HS-orthonormal bases stay orthonormal."""
    n = bundle.ambient_dim
    return bundles.GradedBundle(bundle.group, tuple(
        matrices.MatrixSubspace(n, u @ f.basis @ matrices.dagger(u)) for f in bundle.fibers))


def relabelled_group(g: groups.FiniteGroup, pi) -> groups.FiniteGroup:
    """g with element s renamed pi[s]."""
    table = [[0] * g.order for _ in g.elements()]
    for s in g.elements():
        for t in g.elements():
            table[pi[s]][pi[t]] = pi[g.mul(s, t)]
    return groups.from_table(table)


def relabelled(bundle: bundles.GradedBundle, pi) -> bundles.GradedBundle:
    fibers = [None] * bundle.group.order
    for s in bundle.group.elements():
        fibers[pi[s]] = bundle.fiber(s)
    return bundles.GradedBundle(relabelled_group(bundle.group, pi), tuple(fibers))


@st.composite
def relabellings(draw, order: int):
    return (0, *draw(st.permutations(range(1, order))))


def invariants(bundle: bundles.GradedBundle) -> dict:
    axioms, constants, _ = bundles._read_grading(bundle, TOL)
    out = {"pass": axioms["pass"], "fiber_dims": bundle.fiber_dims()}
    out["ideal_dims"] = [len(i) for i in duality.graded_ideals(constants, bundle.fiber(0), TOL)]
    try:
        out["ep_defect"] = ap.ep_defect(bundle, ap.uniform_witness(bundle, TOL), TOL)["defect"]
    except NonUnitalUnitFiber:
        out["ep_defect"] = None
    return out


def assert_same(before: dict, after: dict) -> None:
    for key in ("pass", "fiber_dims", "ideal_dims"):
        assert after[key] == before[key], key
    if before["ep_defect"] is None:
        assert after["ep_defect"] is None
    else:
        assert abs(after["ep_defect"] - before["ep_defect"]) <= TOL


def morita(q: groups.Quotient, d: bundles.GradedBundle) -> dict:
    rep, summary, gamma = imprimitivity.bimodule_check(q, d, TOL)
    assert rep["pass"]
    keys = ("blocksB", "blocksC", "dimB", "dimC")
    return {"gamma": gamma["pass"], **{key: summary[key] for key in keys}}


@pytest.mark.parametrize("name", sorted(BUNDLES))
@BATTERY
@given(seed=st.integers(0, 2**32 - 1))
def test_unitary_conjugation_changes_nothing(request, name, seed):
    bundle = BUNDLES[name](request.getfixturevalue)
    moved = conjugated(bundle, haar_unitary(bundle.ambient_dim, seed))
    assert_same(invariants(bundle), invariants(moved))


@pytest.mark.parametrize("name", sorted(BUNDLES))
@BATTERY
@given(data=st.data())
def test_relabelling_the_group_changes_nothing(request, name, data):
    bundle = BUNDLES[name](request.getfixturevalue)
    pi = data.draw(relabellings(bundle.group.order))
    before, after = invariants(bundle), invariants(relabelled(bundle, pi))
    after["fiber_dims"] = tuple(after["fiber_dims"][pi[s]] for s in bundle.group.elements())
    assert_same(before, after)


@pytest.mark.parametrize("name,quotient", OVER_C2)
@BATTERY
@given(seed=st.integers(0, 2**32 - 1))
def test_unitary_conjugation_keeps_the_morita_data(request, name, quotient, seed):
    d, q = BUNDLES[name](request.getfixturevalue), request.getfixturevalue(quotient)
    assert morita(q, conjugated(d, haar_unitary(d.ambient_dim, seed))) == morita(q, d)


@pytest.mark.parametrize("name,quotient", OVER_C2)
@BATTERY
@given(data=st.data())
def test_relabelling_g_keeps_the_morita_data(request, name, quotient, data):
    # relabel G and N together; any quotient of order 2 has C2's table
    d, q = BUNDLES[name](request.getfixturevalue), request.getfixturevalue(quotient)
    pi = data.draw(relabellings(q.group.order))
    moved = groups.quotient(relabelled_group(q.group, pi), [pi[n] for n in q.subgroup.members])
    assert morita(moved, d) == morita(q, d)


def test_the_relabelling_is_a_group_isomorphism(s3):
    pi = (0, 3, 5, 1, 2, 4)
    h = relabelled_group(s3, pi)
    assert all(h.mul(pi[s], pi[t]) == pi[s3.mul(s, t)] for s in s3.elements() for t in s3.elements())


# spec name -> (bundle from the fixtures, group descriptor, argvs after the spec file);
# the bundles over C2 are also induced to C4 = G, with G/N = C4/{0, 2}
REPORTS = [["verify"], ["crossed"], ["gsimple"], ["ep"], ["report"]]
OVER_C4 = [[command, "--group", "cyclic:4", "--normal", "0,2"]
           for command in ("imprimitivity", "pullback")]
SPECS = {
    "pauli": (lambda fx: fx("pauli_bundle"), {"kind": "cyclic", "n": 2}, REPORTS + OVER_C4),
    "trivial_m2_s3": (lambda fx: bundles.trivial_bundle(fx("s3"), fx("m2_full")),
                      {"kind": "symmetric", "n": 3}, REPORTS),
    "c2": (lambda fx: fx("twisted_z4_realized").bundle, {"kind": "cyclic", "n": 2},
           REPORTS + OVER_C4),
}


def rescaled(spec: dict, seed: int) -> dict:
    """spec with each spanning matrix multiplied by its own factor in [0.25, 8]."""
    rng = np.random.default_rng(seed)
    return {**spec, "fibers": {key: [cli.pack_matrix(cli.decode_matrix(m, key)
                                                     * rng.uniform(0.25, 8.0))
                                     for m in mats]
                               for key, mats in spec["fibers"].items()}}


def cli_outcome(command: str, spec_path, rest) -> tuple[int, object]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run_command([command, str(spec_path), *rest])
    return code, json.loads(out.getvalue())


def assert_same_report(before, after, where: str) -> None:
    """Equal apart from floats, which may move by TOL."""
    if isinstance(before, float):
        assert isinstance(after, float) and (after == before or abs(after - before) <= TOL), where
    elif isinstance(before, dict):
        assert list(after) == list(before), where
        for key in before:
            assert_same_report(before[key], after[key], f"{where}.{key}")
    elif isinstance(before, list):
        assert len(after) == len(before), where
        for i, (b, a) in enumerate(zip(before, after)):
            assert_same_report(b, a, f"{where}[{i}]")
    else:
        assert after == before, where


@pytest.mark.parametrize("name", sorted(SPECS))
@BATTERY
@given(seed=st.integers(0, 2**32 - 1))
def test_rescaling_the_spanning_matrices_changes_no_report(request, tmp_path, name, seed):
    build, group, argvs = SPECS[name]
    spec = cli.bundle_to_spec(build(request.getfixturevalue), group)
    original, moved = tmp_path / "original.json", tmp_path / "rescaled.json"
    original.write_text(json.dumps(spec))
    moved.write_text(json.dumps(rescaled(spec, seed)))
    for command, *rest in argvs:
        code, before = cli_outcome(command, original, rest)
        moved_code, after = cli_outcome(command, moved, rest)
        assert moved_code == code, command
        assert_same_report(before, after, command)
