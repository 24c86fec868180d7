"""Subspace calculus: orthonormalization, norms, and the block-count machinery.

The Wedderburn expectations are frozen from oracle_center_dimension, a
deliberately plain elementwise implementation kept independent of the
library's einsum/SVD path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import example
from hypothesis import strategies as st

from fellbundles import bundles, groups, matrices, sections
from fellbundles import imprimitivity as imp
from fellbundles.errors import DimensionMismatch, NotAnAlgebra, NotUnital

from conftest import I2, PAULI_X, PAULI_Y, PAULI_Z


def oracle_center_dimension(basis, tol=1e-9):
    """Center dimension by raw linear algebra over stacked commutators."""
    k = len(basis)
    n = basis[0].shape[0]
    rows = []
    for j in range(k):
        for r in range(n):
            for c in range(n):
                row = [(basis[i] @ basis[j] - basis[j] @ basis[i])[r, c] for i in range(k)]
                rows.append(row)
    m = np.array(rows, dtype=complex)
    sv = np.linalg.svd(m, compute_uv=False)
    rank = int(np.sum(sv > tol * max(1.0, float(sv[0]) if len(sv) else 1.0)))
    return k - rank


def group_algebra(g):
    lam = groups.left_regular(g)
    return matrices.orthonormalize([lam[s] for s in g.elements()])


# frozen oracle values: number of simple blocks of small group algebras
GROUP_ALGEBRA_BLOCKS = {"S3": 3, "C4": 4, "D4": 5}


class TestSpans:
    def test_orthonormalize_drops_dependents(self):
        s = matrices.orthonormalize([I2, 2 * I2])
        assert s.dim == 1
        assert s.contains(5j * I2)

    def test_orthonormalize_empty_needs_ambient(self):
        with pytest.raises(DimensionMismatch):
            matrices.orthonormalize([])
        s = matrices.orthonormalize([], ambient_dim=3)
        assert s.dim == 0 and s.ambient_dim == 3

    def test_mixed_shapes_rejected(self):
        with pytest.raises(DimensionMismatch):
            matrices.orthonormalize([I2, np.eye(3)])

    def test_projection_and_membership(self):
        s = matrices.orthonormalize([PAULI_X, PAULI_Y])
        assert s.contains(PAULI_X + 2 * PAULI_Y)
        assert not s.contains(PAULI_Z)
        proj = s.project(PAULI_Z + PAULI_X)
        assert np.allclose(proj, PAULI_X)

    def test_product_span(self):
        e12 = np.array([[0, 1], [0, 0]], dtype=complex)
        e21 = e12.T.copy()
        p = matrices.product_span(matrices.orthonormalize([e12]),
                                  matrices.orthonormalize([e21]))
        assert p.dim == 1
        assert p.contains(np.diag([1.0 + 0j, 0.0]))

    def test_span_scaling_insensitive(self):
        # the drop threshold follows the largest input, not absolute size
        tiny = matrices.orthonormalize([1e-12 * I2, 1e-12 * PAULI_X])
        assert tiny.dim == 2


class TestNorms:
    def test_op_norm_known_value(self):
        m = np.array([[0, 3], [0, 4]], dtype=complex)
        assert abs(matrices.op_norm(m) - 5.0) < 1e-10

    def test_is_psd(self):
        assert matrices.is_psd(np.diag([0.0, 2.0]).astype(complex))
        assert not matrices.is_psd(PAULI_Z)  # eigenvalue -1
        assert not matrices.is_psd(1j * PAULI_X)  # not Hermitian

    def test_hs_inner_conjugates_first_argument(self):
        a = 1j * I2
        assert abs(matrices.hs_inner(a, I2) - (-2j)) < 1e-12


class TestAlgebraStructure:
    def test_unit_of_corner_algebra(self):
        # span{E11} is an algebra whose unit is not the ambient identity
        e11 = np.diag([1.0 + 0j, 0.0])
        s = matrices.orthonormalize([e11])
        u = matrices.unit_element(s)
        assert np.allclose(u, e11)

    def test_unit_missing(self):
        e12 = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(NotUnital):
            matrices.unit_coords(matrices.orthonormalize([e12]))

    def test_not_closed_rejected(self):
        s = matrices.orthonormalize([PAULI_X])  # X*X = I escapes
        with pytest.raises(NotAnAlgebra):
            matrices.multiplication_tensor(s)

    def test_block_counts_match_oracle(self, m2_full, diag2):
        assert matrices.wedderburn_block_count(m2_full) == 1
        assert matrices.wedderburn_block_count(diag2) == 2
        assert oracle_center_dimension(m2_full.basis_list()) == 1
        assert oracle_center_dimension(diag2.basis_list()) == 2

    @pytest.mark.parametrize("name,builder", [
        ("S3", lambda: groups.symmetric(3)),
        ("C4", lambda: groups.cyclic(4)),
        ("D4", lambda: groups.dihedral(4)),
    ])
    def test_group_algebra_blocks(self, name, builder):
        g = builder()
        alg = group_algebra(g)
        expected = GROUP_ALGEBRA_BLOCKS[name]
        assert len(groups.conjugacy_classes(g)) == expected
        assert oracle_center_dimension(alg.basis_list()) == expected
        assert matrices.wedderburn_block_count(alg) == expected

    def test_star_check_precedes_unit_check(self):
        e12 = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(NotAnAlgebra):
            matrices.wedderburn_block_count(matrices.orthonormalize([e12]))

    def test_minimal_central_projections(self, m2_full):
        projs = matrices.minimal_central_projections(m2_full)
        assert len(projs) == 1
        assert np.allclose(projs[0], I2)
        diag3 = matrices.MatrixSubspace(3, np.stack([np.diag([1.0 + 0j, 0, 0]),
                                                     np.diag([0, 1.0 + 0j, 0]),
                                                     np.diag([0, 0, 1.0 + 0j])]))
        projs3 = matrices.minimal_central_projections(diag3)
        assert len(projs3) == 3
        assert np.allclose(sum(projs3), np.eye(3))
        for p in projs3:
            assert np.allclose(p @ p, p)

    def test_group_algebra_projections_resolve_identity(self):
        alg = group_algebra(groups.symmetric(3))
        projs = matrices.minimal_central_projections(alg)
        assert len(projs) == 3
        assert np.allclose(sum(projs), np.eye(6))


complex_entries = st.complex_numbers(min_magnitude=0, max_magnitude=3,
                                     allow_nan=False, allow_infinity=False)


@st.composite
def small_matrices(draw, n=3):
    flat = draw(st.lists(complex_entries, min_size=n * n, max_size=n * n))
    return np.array(flat, dtype=complex).reshape(n, n)


@settings(max_examples=40, deadline=None)
@given(small_matrices())
def test_cstar_identity_holds_in_ambient(m):
    n = matrices.op_norm(m)
    assert abs(matrices.op_norm(m.conj().T @ m) - n * n) <= 1e-9 * max(1.0, n * n)


@settings(max_examples=40, deadline=None)
@given(small_matrices())
def test_gram_of_adjoint_is_psd(m):
    assert matrices.is_psd(m.conj().T @ m, tol=1e-8)


@settings(max_examples=25, deadline=None)
@given(st.lists(small_matrices(), min_size=1, max_size=6))
def test_orthonormalize_spans_inputs(mats):
    s = matrices.orthonormalize(mats, tol=1e-8)
    scale = max(matrices.hs_norm(m) for m in mats)
    for m in mats:
        # inputs are reproduced up to the documented drop threshold
        assert s.residual(m) <= 1e-7 * max(1.0, scale)
    if s.dim:
        gram = s.flat @ s.flat.conj().T
        assert np.allclose(gram, np.eye(s.dim), atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 3), k=st.integers(0, 9), scale=st.floats(0.01, 10.0),
       seed=st.integers(0, 2**16))
@example(n=2, k=0, scale=3.0, seed=0)
def test_decompose_matches_per_matrix_coords_and_residual(n, k, scale, seed):
    # a (2, 3, n, n) stack, one entry of it taken from inside the subspace
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(min(k, n * n), n, n)) + 1j * rng.normal(size=(min(k, n * n), n, n))
    sub = matrices.orthonormalize(list(raw), ambient_dim=n)
    mats = scale * (rng.normal(size=(2, 3, n, n)) + 1j * rng.normal(size=(2, 3, n, n)))
    mats[1, 2] = sub.project(mats[1, 2])
    coords, res = sub.decompose(mats)
    assert coords.shape == (2, 3, sub.dim) and res.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            m = mats[i, j]
            assert np.allclose(coords[i, j], sub.coords(m), rtol=0, atol=1e-12)
            expected = sub.residual(m) / max(1.0, matrices.hs_norm(m))
            assert abs(res[i, j] - expected) <= 1e-12


class TestResidualReport:
    def test_layout_and_pass_rule(self):
        rep = matrices.ResidualReport(0.5, "located", "single", "other", "unfed")
        rep.residuals("located", np.array([[0.1, 0.7], [0.9, 0.2]]), s=1, t=2)
        rep.residuals("single", 0.25)
        rep.entry("other", min_value=-3.0)
        rep.fail("other", -3.0, s=None)
        report = rep.build()
        assert report == {
            "pass": False,
            "checks": {"located": {"pass": False, "max_residual": 0.9},
                       "single": {"pass": True, "max_residual": 0.25},
                       "other": {"pass": False, "min_value": -3.0},
                       "unfed": {"pass": True}},
            "violations": [{"axiom": "located", "s": 1, "t": 2, "residual": 0.7},
                           {"axiom": "located", "s": 1, "t": 2, "residual": 0.9},
                           {"axiom": "other", "s": None, "residual": -3.0}]}
        assert all(type(v["residual"]) is float for v in report["violations"])

    def test_nan_residual_fails(self):
        rep = matrices.ResidualReport(1e-9, "check")
        rep.residuals("check", [0.0, np.nan])
        report = rep.build()
        assert not report["pass"] and not report["checks"]["check"]["pass"]

    def test_item_violations_carry_the_entry(self):
        rep = matrices.ResidualReport(1e-9, "i", "ii", section="items")
        rep.residuals("i", 0.0)
        rep.residuals("ii", 1.0)
        report = rep.build()
        assert set(report) == {"pass", "items", "violations"}
        assert report["violations"] == [{"item": "ii", "detail": report["items"]["ii"]}]
        assert report["violations"][0]["detail"] is report["items"]["ii"]

    def test_require_raises_on_the_first_violation(self):
        rep = matrices.ResidualReport(0.0, "a", "b")
        rep.residuals("b", 2.0)
        rep.residuals("a", 1.0)
        with pytest.raises(NotAnAlgebra, match=r"^pre: \{'axiom': 'b', 'residual': 2\.0\}$"):
            matrices.require(rep.build(), NotAnAlgebra, "pre: ")
        assert matrices.require(matrices.ResidualReport(0.0, "a").build(), NotAnAlgebra) is None


def _pass_and_fail_reports(name, request):
    """One passing and one failing report of the named report function, on test fixtures."""
    fx = request.getfixturevalue
    if name == "verify_fell_axioms":
        bad = bundles.GradedBundle(fx("z2"), (matrices.orthonormalize([I2]),
                                              matrices.orthonormalize([I2 + PAULI_X])))
        return [bundles.verify_fell_axioms(fx("pauli_bundle")), bundles.verify_fell_axioms(bad)]
    if name == "verify_multiplier_family":
        p, q = fx("pauli_pullback"), fx("q_z4")
        fam = bundles.canonical_multiplier_family(p, q)
        bad = bundles.UnitaryMultiplierFamily(p, fam.domain, {0: fam.mat(0), 2: 2.0 * fam.mat(2)})
        return [bundles.verify_multiplier_family(fam), bundles.verify_multiplier_family(bad)]
    if name == "verify_twisted_action":
        t = fx("twisted_z4_action")
        bad = bundles.TwistedAction(t.algebra, t.group, t.subgroup, t.alpha,
                                    {0: t.tau[0], 2: 2.0 * t.tau[0]})
        return [bundles.verify_twisted_action(t), bundles.verify_twisted_action(bad)]
    if name == "verify_abstract_bundle":
        ab = bundles.semidirect_bundle(fx("swap_action"))
        dead = bundles.AbstractBundle(ab.group, ab.dims, ab.prod, ab.invol, np.zeros_like(ab.funct))
        return [bundles.verify_abstract_bundle(ab), bundles.verify_abstract_bundle(dead)]
    if name == "bundle_isomorphism_report":
        b = fx("pauli_bundle")
        return [bundles.bundle_isomorphism_report(b, b, lambda s, m: m),
                bundles.bundle_isomorphism_report(b, b, lambda s, m: 2.0 * m if s == 1 else m)]
    if name == "verify_covariant_pair":
        cp = sections.crossed_product(fx("trivial_z4"))
        p = [cp.j_group(t) for t in cp.group.elements()]
        return [sections.verify_covariant_pair(cp.bundle, cp.j_fiber, p),
                sections.verify_covariant_pair(cp.bundle, cp.j_fiber, [p[0], p[2], p[1], p[3]])]
    q, d = fx("q_z4"), fx("pauli_bundle")
    # a negative tolerance fails every residual of these structurally exact identities
    if name == "verify_imprimitivity":
        return [imp.verify_imprimitivity(q, d), imp.verify_imprimitivity(q, d, tol=-1.0)]
    return [imp.gamma_equivariance_report(q, d), imp.gamma_equivariance_report(q, d, tol=-1.0)]


@pytest.mark.parametrize("name", [
    "verify_fell_axioms", "verify_multiplier_family", "verify_twisted_action",
    "verify_abstract_bundle", "bundle_isomorphism_report", "verify_covariant_pair",
    "verify_imprimitivity", "gamma_equivariance_report"])
def test_every_report_follows_the_pass_rule(name, request):
    passing, failing = _pass_and_fail_reports(name, request)
    assert passing["pass"] and not failing["pass"]
    for report in (passing, failing):
        section, label = ("items", "item") if "items" in report else ("checks", "axiom")
        assert set(report) == {"pass", section, "violations"}
        assert report["pass"] == (not report["violations"])
        failed = {v[label] for v in report["violations"]}
        for check, entry in report[section].items():
            assert entry["pass"] == (check not in failed), check


@pytest.mark.parametrize("shape", [(7, 48, 48), (3, 144, 144), (20, 8, 8), (2, 3, 4, 4),
                                   (5, 1, 1), (0, 6, 6), (4, 0, 0)])
def test_op_norm_of_a_stack_is_the_loop_bit_for_bit(shape):
    rng = np.random.default_rng(sum(shape))
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    norms = matrices.op_norm(stack)
    assert isinstance(norms, np.ndarray) and norms.shape == shape[:-2]
    flat = stack.reshape((int(np.prod(shape[:-2])),) + shape[-2:])
    loop = np.array([matrices.op_norm(m) for m in flat], dtype=float)
    assert norms.ravel().tobytes() == loop.tobytes()
