"""Section algebras, grading projections, and the crossed-product model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fellbundles import bundles, matrices, sections
from fellbundles.errors import (
    AxiomViolation,
    NotAHomomorphism,
    NotInAlgebra,
    ProjectionsNotResolving,
)

import models
from models import FiberMismatch
from conftest import I2, PAULI_X, PAULI_Y


@pytest.fixture(scope="module")
def pauli_sa(pauli_bundle):
    return models.section_algebra(pauli_bundle)


@pytest.fixture(scope="module")
def pullback_sa(pauli_pullback):
    return models.section_algebra(pauli_pullback)


@pytest.fixture(scope="module")
def cp_pauli(pauli_bundle):
    return models.crossed_product(pauli_bundle)


@pytest.fixture(scope="module")
def cp_trivial_z4(trivial_z4):
    return models.crossed_product(trivial_z4)


class TestSectionAlgebra:
    """The dense route, which the tests hold the sweep-read figures to."""

    def test_components_recombine(self, pauli_sa):
        x = 1.5 * I2 + 2j * PAULI_X
        comps = pauli_sa.components(x)
        assert np.allclose(comps[0], 1.5 * I2)
        assert np.allclose(comps[1], 2j * PAULI_X)

    def test_fiber_elements_project_to_themselves(self, swap_semidirect_realized):
        sa = models.section_algebra(swap_semidirect_realized.bundle)
        for s in sa.group.elements():
            for b in sa.bundle.fiber(s).basis_list():
                comps = sa.components(b)
                assert np.allclose(comps[s], b, atol=1e-10)
                for t in sa.group.elements():
                    if t != s:
                        assert np.allclose(comps[t], 0.0, atol=1e-10)

    def test_escape_raises(self, pauli_sa):
        with pytest.raises(NotInAlgebra):
            pauli_sa.components(PAULI_Y)

    def test_unit(self, pauli_sa, twisted_z4_realized):
        assert np.allclose(pauli_sa.unit(), I2)
        sa = models.section_algebra(twisted_z4_realized.bundle)
        assert np.allclose(sa.unit(), twisted_z4_realized.images[0][0], atol=1e-9)

    def test_expectation_properties(self, pullback_sa):
        rng = np.random.default_rng(5)
        total = pullback_sa.total
        fe = pullback_sa.bundle.fiber(0)
        for _ in range(6):
            c = rng.normal(size=total.dim) + 1j * rng.normal(size=total.dim)
            x = total.from_coords(c)
            ex = pullback_sa.expectation(x)
            assert np.allclose(pullback_sa.expectation(ex), ex, atol=1e-9)
            assert models.is_psd(pullback_sa.expectation(matrices.dagger(x) @ x))
            assert matrices.op_norm(ex) <= matrices.op_norm(x) + 1e-9
            a = fe.from_coords(rng.normal(size=fe.dim))
            b = fe.from_coords(rng.normal(size=fe.dim))
            assert np.allclose(pullback_sa.expectation(a @ x @ b), a @ ex @ b,
                               atol=1e-9)

    def test_unverified_grading_rejected(self, z2):
        f = matrices.orthonormalize([I2])
        with pytest.raises(AxiomViolation):
            models.section_algebra(bundles.GradedBundle(z2, (f, f)))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False,
                                       allow_infinity=False),
                    min_size=4, max_size=4))
    def test_decomposition_is_linear_inverse(self, pullback_sa, coeffs):
        stacked = [b for s in pullback_sa.group.elements()
                   for b in pullback_sa.bundle.fiber(s).basis_list()]
        x = sum(c * m for c, m in zip(coeffs, stacked))
        comps = pullback_sa.components(x)
        assert np.allclose(sum(comps), x, atol=1e-8 * max(1.0, max(map(abs, coeffs))))


class TestCrossedProduct:
    def test_dimension_law(self, cp_pauli, cp_trivial_z4, trivial_s3,
                           twisted_z4_realized):
        for cp in (cp_pauli, cp_trivial_z4,
                   models.crossed_product(trivial_s3),
                   models.crossed_product(twisted_z4_realized.bundle)):
            expected = cp.group.order * cp.bundle.section_dimension()
            assert cp.dimension() == expected == cp.total.dim

    def test_pauli_crossed_is_one_full_block(self, cp_pauli):
        # the total span is {[[aI, bX], [cX, dI]]}: closed, *-closed, and
        # noncommutative of dimension 4, hence a single 2x2 block
        assert models.wedderburn_block_count(cp_pauli.total) == 1

    def test_embedding_is_isometric(self, cp_trivial_z4):
        rng = np.random.default_rng(9)
        bundle = cp_trivial_z4.bundle
        for s in bundle.group.elements():
            for b in bundle.fiber(s).basis_list():
                assert matrices.op_norm(cp_trivial_z4.j_fiber(s, b)) == pytest.approx(
                    matrices.op_norm(b), abs=1e-10)
        # full sections: sum over fibers of a_s tensor lambda(s)
        for _ in range(5):
            parts = []
            for s in bundle.group.elements():
                c = rng.normal(size=bundle.fiber(s).dim)
                parts.append(bundle.fiber(s).from_coords(c))
            x = sum(parts)
            jx = sum(cp_trivial_z4.j_fiber(s, p)
                     for s, p in zip(bundle.group.elements(), parts))
            assert matrices.op_norm(jx) == pytest.approx(matrices.op_norm(x),
                                                         abs=1e-10)

    def test_slot_products(self, cp_pauli):
        g = cp_pauli.group
        for s in g.elements():
            for t in g.elements():
                for u in g.elements():
                    for v in g.elements():
                        x = cp_pauli.fiber_at(s, t).basis[0]
                        y = cp_pauli.fiber_at(u, v).basis[0]
                        p = x @ y
                        if t == g.mul(u, v):
                            target = cp_pauli.fiber_at(g.mul(s, u), v)
                            assert target.residual(p) <= 1e-12
                        else:
                            assert np.allclose(p, 0.0, atol=1e-12)

    def test_dual_action_translates_slots(self, cp_trivial_z4):
        g = cp_trivial_z4.group
        for s in g.elements():
            for t in g.elements():
                x = cp_trivial_z4.fiber_at(s, t).basis[0]
                for r in g.elements():
                    moved = cp_trivial_z4.dual_apply(r, x)
                    slot = cp_trivial_z4.fiber_at(s, g.mul(t, g.inv(r)))
                    assert slot.residual(moved) <= 1e-12

    def test_dual_action_is_group_homomorphism(self, cp_trivial_z4):
        g = cp_trivial_z4.group
        rng = np.random.default_rng(3)
        x = cp_trivial_z4.total.from_coords(
            rng.normal(size=cp_trivial_z4.total.dim))
        for r in g.elements():
            for r2 in g.elements():
                once = cp_trivial_z4.dual_apply(r, cp_trivial_z4.dual_apply(r2, x))
                assert np.allclose(once, cp_trivial_z4.dual_apply(g.mul(r, r2), x),
                                   atol=1e-10)

    def test_dual_fixes_embedded_sections(self, cp_pauli):
        for s in cp_pauli.group.elements():
            for b in cp_pauli.bundle.fiber(s).basis_list():
                jx = cp_pauli.j_fiber(s, b)
                for r in cp_pauli.group.elements():
                    assert np.allclose(cp_pauli.dual_apply(r, jx), jx, atol=1e-12)

    def test_dual_average_projects_onto_sections(self, cp_trivial_z4):
        g = cp_trivial_z4.group
        for s in g.elements():
            for t in g.elements():
                x = cp_trivial_z4.fiber_at(s, t).basis[0]
                avg = sum(cp_trivial_z4.dual_apply(r, x) for r in g.elements())
                avg = avg / g.order
                b = cp_trivial_z4.bundle.fiber(s).basis[0]
                assert np.allclose(avg, cp_trivial_z4.j_fiber(s, b) / g.order,
                                   atol=1e-12)

    def test_j_fiber_rejects_wrong_fiber(self, cp_pauli):
        with pytest.raises(FiberMismatch):
            cp_pauli.j_fiber(0, PAULI_X)


class TestCovariantPairs:
    @staticmethod
    def canonical(cp):
        pi = lambda s, m: cp.j_fiber(s, m)
        projections = [cp.j_group(t) for t in cp.group.elements()]
        return pi, projections

    def test_canonical_pair_passes(self, cp_pauli, cp_trivial_z4):
        for cp in (cp_pauli, cp_trivial_z4):
            pi, projections = self.canonical(cp)
            report = sections.verify_covariant_pair(cp.bundle, pi, projections)
            assert report["pass"], report["violations"]

    def test_conjugated_pair_passes(self, cp_pauli):
        rng = np.random.default_rng(17)
        n = cp_pauli.ambient_dim
        w, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        pi = lambda s, m: w @ cp_pauli.j_fiber(s, m) @ matrices.dagger(w)
        projections = [w @ cp_pauli.j_group(t) @ matrices.dagger(w)
                       for t in cp_pauli.group.elements()]
        report = sections.verify_covariant_pair(cp_pauli.bundle, pi, projections)
        assert report["pass"], report["violations"]

    def test_degenerate_representation_rejected(self, cp_pauli):
        _, projections = self.canonical(cp_pauli)
        zero = lambda s, m: np.zeros((cp_pauli.ambient_dim, cp_pauli.ambient_dim),
                                     dtype=complex)
        with pytest.raises(NotAHomomorphism):
            sections.verify_covariant_pair(cp_pauli.bundle, zero, projections)

    def test_scaled_representation_rejected(self, cp_pauli):
        _, projections = self.canonical(cp_pauli)
        pi = lambda s, m: (2.0 if s == 1 else 1.0) * cp_pauli.j_fiber(s, m)
        with pytest.raises(NotAHomomorphism):
            sections.verify_covariant_pair(cp_pauli.bundle, pi, projections)

    def test_non_resolving_projections_rejected(self, cp_pauli):
        pi, projections = self.canonical(cp_pauli)
        broken = [projections[0] / 2.0] + projections[1:]
        with pytest.raises(ProjectionsNotResolving):
            sections.verify_covariant_pair(cp_pauli.bundle, pi, broken)
        with pytest.raises(ProjectionsNotResolving):
            sections.verify_covariant_pair(cp_pauli.bundle, pi, projections[:1])

    def test_broken_covariance_reported(self, cp_trivial_z4):
        pi, projections = self.canonical(cp_trivial_z4)
        # permuting two slots by something other than a right translation
        shuffled = [projections[0], projections[2], projections[1], projections[3]]
        report = sections.verify_covariant_pair(cp_trivial_z4.bundle, pi, shuffled)
        assert not report["pass"]
        assert any(v["axiom"] == "covariance" for v in report["violations"])


class TestCovariantPairTable:
    def test_pi_once_per_basis_element(self, cp_pauli, cp_trivial_z4):
        for cp in (cp_pauli, cp_trivial_z4):
            calls = []

            def pi(s, m, cp=cp):
                calls.append(s)
                return cp.j_fiber(s, m)

            projections = [cp.j_group(t) for t in cp.group.elements()]
            assert sections.verify_covariant_pair(cp.bundle, pi, projections, samples=3)["pass"]
            nonempty = sum(1 for d in cp.bundle.fiber_dims() if d)
            assert len(calls) == cp.bundle.section_dimension() + 3 * nonempty + 1

    @pytest.mark.parametrize("name", ["pauli_bundle", "trivial_z4", "trivial_s3"])
    def test_crossed_structure_matches_the_dense_model(self, name, request):
        # span{a (x) E_{st,t}} graded by s, basis (a, t) in the order a * |G| + t
        b = request.getfixturevalue(name)
        g, k = b.group, b.group.order
        fibers = []
        for s in g.elements():
            mats = []
            for a in b.fiber(s).basis_list():
                for t in g.elements():
                    e = np.zeros((k, k), dtype=complex)
                    e[g.mul(s, t), t] = 1.0
                    mats.append(np.kron(a, e))
            n = b.ambient_dim * k
            fibers.append(matrices.MatrixSubspace(n, np.array(mats).reshape(-1, n, n)))
        dense = bundles.abstract_from_graded(bundles.GradedBundle(g, tuple(fibers)))
        read = sections.crossed_structure(bundles.abstract_from_graded(b))
        assert read.dims == dense.dims
        for key, p in dense.prod.items():
            assert np.abs(read.prod[key] - p).max(initial=0.0) <= 1e-12, key
        for s in g.elements():
            assert np.abs(read.invol[s] - dense.invol[s]).max(initial=0.0) <= 1e-12

    def test_non_grading_raises(self, cp_pauli, z2):
        bad = bundles.GradedBundle(z2, (matrices.orthonormalize([I2]),
                                        matrices.orthonormalize([I2 + PAULI_X])))
        projections = [cp_pauli.j_group(t) for t in cp_pauli.group.elements()]
        with pytest.raises(AxiomViolation):
            sections.verify_covariant_pair(bad, lambda s, m: np.kron(m, np.eye(2)), projections)
