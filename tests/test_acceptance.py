"""Release acceptance battery: one criterion per test, one line each under -v.

Every test pins the quantitative anchors it is responsible for (dimensions,
block counts, ranks, defects, exit codes) at the tolerances the toolkit
promises, so a regression flips exactly the criterion it breaks.
"""

from __future__ import annotations

import json

import numpy as np
import numpy.testing as npt
import pytest

import models
from conftest import A3, I2, PAULI_X, SQ2, SWAP_SUBGROUP
from fellbundles import approximation as approx
from fellbundles import bundles, cli, duality, groups, matrices
from fellbundles import imprimitivity as imp


@pytest.fixture(scope="module")
def battery(pauli_bundle, trivial_z4, trivial_s3, pauli_pullback,
            twisted_z4_realized, swap_semidirect_realized):
    """The standing example battery used by the axiom, EP and crossed tests."""
    return {
        "pauli_z2": pauli_bundle,
        "trivial_z4": trivial_z4,
        "trivial_s3": trivial_s3,
        "pullback_pauli_z4": pauli_pullback,
        "twisted_semidirect_z4": twisted_z4_realized.bundle,
        "swap_semidirect_z2": swap_semidirect_realized.bundle,
    }


def test_criterion_01_fell_axiom_battery(battery):
    for name, bundle in battery.items():
        report = bundles.verify_fell_axioms(bundle, tol=1e-8)
        assert report["pass"], (name, report["violations"])


def test_criterion_02_imprimitivity_axioms(q_z4, pauli_bundle, q_s3,
                                           s3_quotient_bundle):
    for q, d in ((q_z4, pauli_bundle), (q_s3, s3_quotient_bundle)):
        report = imp.bimodule_check(q, d, tol=1e-8)[0]
        assert report["pass"], report["violations"]
        assert len(report["items"]) == 8
        fullness = report["items"]["vi_fullness"]
        assert fullness["rank_b"] == fullness["dim_b"]
        assert fullness["rank_c"] == fullness["dim_c"]
        assert report["items"]["vii_positivity"]["min_relative_eigenvalue"] >= -1e-8


def _oracle_blocks(mats):
    """Center-solve block count: the nullity of c -> [sum_i c_i m_i, m_j]."""
    span = matrices.orthonormalize(list(mats))
    basis = span.basis_list()
    rows = [np.concatenate([(mi @ mj - mj @ mi).ravel() for mj in basis])
            for mi in basis]
    sv = np.linalg.svd(np.stack(rows), compute_uv=False)
    rank = int(np.sum(sv > 1e-9 * max(1.0, float(sv[0]))))
    return span.dim - rank


def test_criterion_03_morita_anchor(q_z4, pauli_bundle):
    report = imp.bimodule_check(q_z4, pauli_bundle)[1]
    assert report == {"dimB": 16, "dimC": 4, "dimX": 8,
                      "blocksB": 1, "blocksC": 1, "equivalent": True}
    span_b = [models.realize_b(b) for b in models.b_generators(q_z4, pauli_bundle)]
    span_c = [models.realize_c(c) for c in models.c_generators(q_z4, pauli_bundle)]
    assert _oracle_blocks(span_b) == 1
    assert _oracle_blocks(span_c) == 1


def test_criterion_04_gamma_equivariance(q_z4, pauli_bundle, q_s3,
                                         s3_quotient_bundle):
    for q, d in ((q_z4, pauli_bundle), (q_s3, s3_quotient_bundle)):
        report = imp.bimodule_check(q, d, tol=1e-10)[2]
        assert report["pass"], report["checks"]
        assert report["checks"]["linner_equivariance"]["max_residual"] <= 1e-10
        assert report["checks"]["right_action_equivariance"]["max_residual"] <= 1e-10


def _max_residual(iso):
    return max(c.get("max_residual", 0.0) for c in iso["checks"].values())


def test_criterion_05_quotient_pullback_round_trips(pauli_bundle, q_z4,
                                                    s3_quotient_bundle, q_s3):
    for d, q in ((pauli_bundle, q_z4), (s3_quotient_bundle, q_s3)):
        fwd = duality.pullback_quotient_roundtrip(d, q, tol=1e-8)
        assert fwd["pass"], fwd["iso"]["violations"]
        assert _max_residual(fwd["iso"]) <= 1e-8
        assert fwd["fiber_dims"]["original"] == fwd["fiber_dims"]["recovered"]
        p = bundles.pullback(d, q)
        u = bundles.canonical_multiplier_family(p, q)
        back = duality.quotient_pullback_roundtrip(p, u, q, tol=1e-8)
        assert back["pass"], back["iso"]["violations"]
        assert _max_residual(back["iso"]) <= 1e-8


def test_criterion_06_semidirect_pullback_duality(twisted_z4_action,
                                                  scalar_line, z4):
    fwd = duality.olesen_pedersen_forward(twisted_z4_action)
    assert fwd["pass"]
    assert fwd["dim_semidirect"] == fwd["dim_pullback"] == 4
    # untwisted control: same action with the trivial twist
    control = bundles.TwistedAction(
        scalar_line, z4, groups.NormalSubgroup(z4, (0, 2)),
        np.ones((4, 1, 1), dtype=complex),
        {0: np.eye(1, dtype=complex), 2: np.eye(1, dtype=complex)})
    assert duality.olesen_pedersen_forward(control)["pass"]
    # the twist is recovered from the semidirect bundle alone
    real = bundles.concretize(bundles.semidirect_bundle(twisted_z4_action))
    fam = duality.induced_multiplier_family(twisted_z4_action, real)
    tau = duality.extract_twist(twisted_z4_action, real, fam)
    npt.assert_allclose(tau[2], [[-1.0]], atol=1e-12)
    npt.assert_allclose(tau[0], [[1.0]], atol=1e-12)


def test_criterion_07_obstruction_and_g_simplicity(s3):
    act = duality.coset_action(s3, SWAP_SUBGROUP)
    report = duality.stabilizer_obstruction(act, groups.NormalSubgroup(s3, A3))
    assert report["kernel"] == (0,)
    assert report["induced_possible"] is False
    assert "not weakly induced" in report["verdict"]
    action = duality.transformation_system(act)
    inputs = models.sweep_inputs(bundles.concretize(bundles.semidirect_bundle(action)).bundle)
    assert inputs[0].section_dimension() == 18
    assert duality.is_g_simple(*inputs)


def test_criterion_08_approximation_witnesses(battery, pauli_bundle,
                                              pauli_pullback, q_z4):
    for name, bundle in battery.items():
        rep = approx.ep_defect(bundle, approx.uniform_witness(bundle))
        assert abs(rep["bound"] - 1.0) <= 1e-12, name
        assert rep["defect"] <= 1e-12, name
    # constant g over the kernel pulls the exact witness back exactly
    fd = approx.uniform_witness(pauli_bundle)
    h = approx.ep_pullback_witness(fd, {n: 1.0 / SQ2 for n in (0, 2)}, q_z4)
    rep = approx.ep_defect(pauli_pullback, h)
    assert rep["bound"] <= 1.0 + 1e-12
    assert rep["defect"] <= 1e-10
    # the norm estimate bound(h) <= bound(f) * sum |g|^2, randomized
    rng = np.random.default_rng(83)
    fe = pauli_bundle.fiber(0)
    for _ in range(100):
        support = [s for s in range(2) if rng.random() < 0.8] or [0]
        vals = {s: fe.from_coords(rng.normal(size=1) + 1j * rng.normal(size=1))
                for s in support}
        f = approx.ep_witness(pauli_bundle, vals)
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        raw *= rng.uniform(0.1, 1.0) / np.linalg.norm(raw)
        g = {0: complex(raw[0]), 2: complex(raw[1])}
        gsum = sum(abs(v) ** 2 for v in g.values())
        h = approx.ep_pullback_witness(f, g, q_z4)
        assert h.bound <= f.bound * gsum + 1e-10


def test_criterion_09_crossed_product_dimension_law(battery):
    for name, bundle in battery.items():
        cp = models.crossed_product(bundle)
        assert cp.total.dim == bundle.group.order * bundle.section_dimension(), name
        for s in bundle.group.elements():
            for a in bundle.fiber(s).basis_list():
                gap = abs(matrices.op_norm(cp.j_fiber(s, a)) - matrices.op_norm(a))
                assert gap <= 1e-10, name


def test_criterion_10_cli_determinism_and_fault_injection(tmp_path, capsys):
    def mat(m):
        return cli.encode_matrix(np.asarray(m, dtype=complex))

    spec = {"schema": "fellbundle/1", "group": {"kind": "cyclic", "n": 2},
            "ambient_dim": 2, "fibers": {"0": [mat(I2)], "1": [mat(PAULI_X)]}}
    good = tmp_path / "good.json"
    good.write_text(json.dumps(spec))
    outs = []
    for _ in range(2):
        assert cli.run_command(["report", str(good)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] and outs[0] == outs[1]
    # corrupted involution: a mathematical failure, report emitted, exit 1
    spec["fibers"]["1"] = [mat([[0, 1], [0, 0]])]
    bad = tmp_path / "involution.json"
    bad.write_text(json.dumps(spec))
    assert cli.run_command(["verify", str(bad)]) == 1
    assert json.loads(capsys.readouterr().out)["pass"] is False
    # malformed input: exit 2, no report
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"schema": "fellbundle/1", "ambient_dim": 2}))
    assert cli.run_command(["verify", str(missing)]) == 2
    assert capsys.readouterr().out == ""
