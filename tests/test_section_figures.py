"""`gsimple` and `report` read the section figures off the sweep's constants.

The graded ideals, G-simplicity, the section dimension and the regular
representation's kernel come from the structure constants and the singular
values of the grading's one sweep. They are held here to the dense
cross-sectional algebra of `models`, exactly, and the work after the sweep to
less memory than one stack of the fiber bases.
"""

from __future__ import annotations

import contextlib
import io
import json
import tracemalloc

import numpy as np
import pytest

import models
from fellbundles import bundles, cli, groups, matrices
from test_cli import run, write_json
from test_metamorphic import conjugated, haar_unitary


def diag_xyy():
    """C^2 in M_3 as diag(x, y, y), graded by Z2 with u = diag(1, -1, -1) odd:
    the orthonormal fibers are not HS-orthogonal, <1/sqrt3, u/sqrt3>_HS = -1/3."""
    unit, u = np.eye(3, dtype=complex), np.diag([1.0, -1.0, -1.0]).astype(complex)
    return bundles.GradedBundle(groups.cyclic(2), tuple(
        matrices.MatrixSubspace(3, (m / np.sqrt(3.0))[None]) for m in (unit, u)))


def trivial_m2(g):
    return lambda fx: bundles.trivial_bundle(g, fx("m2_full"))


CYCLIC2, CYCLIC4 = {"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 4}

# name -> (bundle from the fixtures, group descriptor, the oracle's ideal dims)
CASES = {
    "trivial_m2_s3": (trivial_m2(groups.symmetric(3)), {"kind": "symmetric", "n": 3}, [0, 24]),
    "trivial_m2_d4": (trivial_m2(groups.dihedral(4)), {"kind": "dihedral", "n": 4}, [0, 32]),
    "trivial_m2_z8": (trivial_m2(groups.cyclic(8)), {"kind": "cyclic", "n": 8}, [0, 32]),
    "pauli": (lambda fx: fx("pauli_bundle"), CYCLIC2, [0, 2]),
    "c2_s3_a3": (lambda fx: fx("s3_quotient_bundle"), CYCLIC2, [0, 2]),
    "c2_pulled_to_s3": (lambda fx: bundles.pullback(fx("s3_quotient_bundle"), fx("q_s3")),
                        {"kind": "symmetric", "n": 3}, [0, 6]),
    "haar_diag_z4": (lambda fx: conjugated(bundles.trivial_bundle(groups.cyclic(4),
                                                                  fx("diag2")),
                                           haar_unitary(8, 5)), CYCLIC4, [0, 4, 4, 8]),
    "m2_even_z4": (lambda fx: models.even_part_of_z4(
        bundles.trivial_bundle(groups.cyclic(2), fx("m2_full"))), CYCLIC4, [0, 8]),
    "diag_xyy_z2": (lambda fx: diag_xyy(), CYCLIC2, [0, 2]),
    "haar_diag_xyy_z2": (lambda fx: conjugated(diag_xyy(), haar_unitary(3, 7)), CYCLIC2, [0, 2]),
}
FIGURES = ("ideal_dims", "ideal_count", "is_g_simple", "section_dimension")


@pytest.mark.parametrize("name", sorted(CASES))
def test_gsimple_and_report_match_the_dense_oracle(capsys, tmp_path, request, name):
    build, desc, ideal_dims = CASES[name]
    bundle = build(request.getfixturevalue)
    oracle = models.dense_section_figures(bundle)
    assert oracle["ideal_dims"] == ideal_dims and oracle["regular_rep_kernel_dim"] == 0
    spec = write_json(tmp_path / "spec.json", cli.bundle_to_spec(bundle, desc))
    rc, out, _ = run(capsys, "gsimple", spec)
    assert rc == 0
    assert {key: json.loads(out)[key] for key in FIGURES} == {key: oracle[key] for key in FIGURES}
    rc, out, _ = run(capsys, "report", spec)
    report = json.loads(out)
    assert rc == 0 and report["pass"] is True
    assert report["ideal_dims"] == oracle["ideal_dims"]
    assert report["is_g_simple"] is oracle["is_g_simple"]
    assert report["amenability"]["regular_rep_kernel_dim"] == oracle["regular_rep_kernel_dim"]


def test_the_diag_xyy_fibers_are_not_hs_orthogonal():
    f0, f1 = diag_xyy().fibers
    assert np.vdot(f0.flat, f1.flat) == pytest.approx(-1.0 / 3.0, abs=1e-15)


def test_report_after_the_sweep_peaks_below_one_fiber_stack(tmp_path, m2_full, pauli_bundle):
    # trivial M_2 over D6: the stacked fiber bases, (48, 24 * 24) complex, are 442 KB;
    # a dense section algebra held three such arrays (the stack, its pseudoinverse and
    # an orthonormal basis of the span) and peaked at six
    bundle = bundles.trivial_bundle(groups.dihedral(6), m2_full)
    n = bundle.ambient_dim
    stack_bytes = bundle.section_dimension() * n * n * 16
    spec = write_json(tmp_path / "d6.json", cli.bundle_to_spec(bundle, {"kind": "dihedral",
                                                                        "n": 6}))
    warm = write_json(tmp_path / "pauli.json", cli.bundle_to_spec(pauli_bundle, CYCLIC2))
    sweep = bundles._read_grading

    def then_trace(b, tol):
        out = sweep(b, tol)
        tracemalloc.start()  # the sweep's outputs are held; only later work is traced
        return out

    for path in (warm, spec):  # the first run takes the first-call allocations
        with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(io.StringIO()):
            patch.setattr(bundles, "_read_grading", then_trace)
            try:
                rc = cli.run_command(["report", path])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert rc == 0
    assert peak < stack_bytes
