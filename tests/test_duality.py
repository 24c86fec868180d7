"""Reconstruction dualities, twist extraction, graded ideals, obstructions."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fellbundles import bundles, duality, groups, matrices
from fellbundles.errors import (
    AxiomViolation,
    GroupMismatch,
    InvalidAction,
    InvalidMultiplierFamily,
    InvalidTwist,
    MultiplierNotOrderCompatible,
    NonUnitalUnitFiber,
    NotASubgroup,
    TrivialN,
)

import models
from conftest import A3, I2, PAULI_X, PAULI_Y, SWAP_SUBGROUP
from test_metamorphic import conjugated, haar_unitary


def unit_scaled_square_root(fiber, unit):
    """i * v / sqrt(k) where v spans the fiber and v @ v = -k * unit."""
    v = fiber.basis[0]
    kappa = np.trace(v @ v) / np.trace(unit)
    return 1j * v / np.sqrt(-kappa)


def not_principal_inputs(z2, scale=1.0):
    """d over Z2 in M_3 with odd fiber span{X, Y} on the last two coordinates, which
    is no grading (XY is not in span{I}), and u = (I, scale * X) over Z2/{0}."""
    def embed(m):
        out = np.zeros((3, 3), dtype=complex)
        out[0, 0] = 1.0
        out[1:, 1:] = m
        return out

    q = groups.quotient(z2, (0,))
    f0 = matrices.orthonormalize([np.eye(3, dtype=complex)])
    f1 = matrices.orthonormalize([embed(PAULI_X), embed(PAULI_Y)])
    d = bundles.GradedBundle(q.quotient_group, (f0, f1))
    return d, q, bundles.UnitaryMultiplierFamily(
        d, (0, 1), {0: np.eye(3, dtype=complex), 1: scale * embed(PAULI_X)})


def pauli_family_inputs(fx, mats):
    """The Pauli grading over C4 -> C4/{0, 2} with the family u(s) = mats(s)."""
    d, z4 = fx("pauli_bundle"), fx("z4")
    return d, fx("q_z4"), bundles.UnitaryMultiplierFamily(
        d, tuple(z4.elements()), {s: mats(s) for s in z4.elements()})


def nil_inputs(fx):
    """A unit fiber spanned by a nilpotent, over Z2/Z2."""
    nil = matrices.orthonormalize([np.array([[0, 1], [0, 0]], dtype=complex)])
    d = bundles.GradedBundle(groups.cyclic(1), (nil,))
    return d, groups.quotient(fx("z2"), (0, 1)), bundles.UnitaryMultiplierFamily(
        d, (0, 1), {0: I2, 1: I2})


# each input the Landstad guards reject, and the error their order gives; the
# not-a-grading input raised FiberNotPrincipal, and with a broken family the
# family's error, when d was read last
LANDSTAD_CENSUS = {
    "bundle_not_over_the_quotient": (GroupMismatch, lambda fx: (
        fx("trivial_z4"), fx("q_z4"), bundles.UnitaryMultiplierFamily(
            fx("trivial_z4"), (0, 1, 2, 3), {s: np.eye(4, dtype=complex) for s in range(4)}))),
    "family_not_on_all_of_g": (GroupMismatch, lambda fx: (
        fx("pauli_bundle"), fx("q_z4"), bundles.UnitaryMultiplierFamily(
            fx("pauli_bundle"), (0, 2), {0: I2, 2: I2}))),
    "unit_fiber_without_unit": (NonUnitalUnitFiber, nil_inputs),
    "not_a_grading": (AxiomViolation, lambda fx: not_principal_inputs(fx("z2"))),
    "not_a_grading_with_a_broken_family": (
        AxiomViolation, lambda fx: not_principal_inputs(fx("z2"), scale=2.0)),
    "not_unitary_on_one_coset": (InvalidMultiplierFamily, lambda fx: pauli_family_inputs(
        fx, lambda s: 2.0 * PAULI_X if s % 2 else I2)),
    "unitary_but_no_homomorphism": (InvalidMultiplierFamily, lambda fx: pauli_family_inputs(
        fx, lambda s: -PAULI_X if s == 1 else np.linalg.matrix_power(PAULI_X, s))),
    "outside_its_fiber": (MultiplierNotOrderCompatible, lambda fx: pauli_family_inputs(
        fx, lambda s: I2)),
}


class TestLandstad:
    def test_z4_round_trip_recovers_minus_one(self, twisted_z4_action,
                                              twisted_z4_realized, q_z4):
        u = duality.canonical_landstad_family(twisted_z4_action, twisted_z4_realized)
        action, report = duality.landstad_reconstruct(
            twisted_z4_realized.bundle, q_z4, u)
        assert report["pass"]
        unit = matrices.unit_element(twisted_z4_realized.bundle.fiber(0))
        assert matrices.hs_norm(action.tau[2] + unit) <= 1e-8
        assert matrices.hs_norm(action.tau[0] - unit) <= 1e-10

    def test_lambda_family_gives_untwisted_action(self, z4, q_z4, scalar_line):
        d = bundles.trivial_bundle(q_z4.quotient_group, scalar_line)
        lam = groups.left_regular(q_z4.quotient_group)
        u = bundles.UnitaryMultiplierFamily(
            d, tuple(z4.elements()), {s: lam[q_z4.coset_of[s]] for s in z4.elements()})
        action, report = duality.landstad_reconstruct(d, q_z4, u)
        assert report["pass"]
        unit = matrices.unit_element(d.fiber(0))
        assert matrices.hs_norm(action.tau[2] - unit) <= 1e-10

    def test_s3_family_untwists_the_bundle(self, s3, q_s3, s3_quotient_bundle):
        # over an order-2 quotient the sign twist is a coboundary: scaling the
        # odd unitary by i produces a genuine homomorphism on all of S3, and
        # the reconstructed twist over A3 comes out trivial
        d = s3_quotient_bundle
        unit = matrices.unit_element(d.fiber(0))
        w = unit_scaled_square_root(d.fiber(1), unit)
        mats = {s: (unit if q_s3.coset_of[s] == 0 else w) for s in s3.elements()}
        u = bundles.UnitaryMultiplierFamily(d, tuple(s3.elements()), mats)
        action, report = duality.landstad_reconstruct(d, q_s3, u)
        assert report["pass"]
        for n in A3:
            assert matrices.hs_norm(action.tau[n] - unit) <= 1e-10

    def test_trivial_bundle_identity_family(self, z2, scalar_line):
        q = groups.quotient(z2, (0, 1))
        d = bundles.GradedBundle(groups.cyclic(1), (scalar_line,))
        one = np.ones((1, 1), dtype=complex)
        u = bundles.UnitaryMultiplierFamily(d, (0, 1), {0: one, 1: one})
        action, report = duality.landstad_reconstruct(d, q, u)
        assert report["pass"]
        assert np.allclose(action.tau[1], one)

    def test_order_condition_fault(self, s3, q_s3, s3_quotient_bundle):
        d = s3_quotient_bundle
        unit = matrices.unit_element(d.fiber(0))
        u = bundles.UnitaryMultiplierFamily(
            d, tuple(s3.elements()), {s: unit for s in s3.elements()})
        with pytest.raises(MultiplierNotOrderCompatible):
            duality.landstad_reconstruct(d, q_s3, u)

    def test_homomorphism_fault(self, twisted_z4_action, twisted_z4_realized, q_z4):
        u = duality.canonical_landstad_family(twisted_z4_action, twisted_z4_realized)
        mats = dict(u.mats)
        mats[1] = 2.0 * mats[1]
        bad = bundles.UnitaryMultiplierFamily(u.bundle, u.domain, mats)
        with pytest.raises(InvalidMultiplierFamily):
            duality.landstad_reconstruct(twisted_z4_realized.bundle, q_z4, bad)

    def test_fiber_not_principal(self, z2):
        # odd fiber deliberately too big for B * u: no grading, so caught when d is read
        d, q, u = not_principal_inputs(z2)
        with pytest.raises(AxiomViolation):
            duality.landstad_reconstruct(d, q, u)

    def test_domain_and_group_guards(self, trivial_z4, q_z4, z4):
        eye = np.eye(4, dtype=complex)
        with pytest.raises(GroupMismatch):
            duality.landstad_reconstruct(
                trivial_z4, q_z4,
                bundles.UnitaryMultiplierFamily(trivial_z4, tuple(z4.elements()),
                                                {s: eye for s in z4.elements()}))

    def test_non_unital_base(self, z2, scalar_line):
        q = groups.quotient(z2, (0, 1))
        nil = matrices.orthonormalize([np.array([[0, 1], [0, 0]], dtype=complex)])
        d = bundles.GradedBundle(groups.cyclic(1), (nil,))
        u = bundles.UnitaryMultiplierFamily(d, (0, 1), {0: I2, 1: I2})
        with pytest.raises(NonUnitalUnitFiber):
            duality.landstad_reconstruct(d, q, u)

    @pytest.mark.parametrize("case", sorted(LANDSTAD_CENSUS))
    def test_guard_census(self, case, request):
        # the guards in order: d's group, u's domain, d's unit, d's grading axioms,
        # u as a unitary homomorphism, u(s) in its fiber. A grading with a unitary
        # family in its fibers needs no principal-fiber or Ad guard, as a family
        # that is not unitary on a coset fails as a homomorphism
        error, build = LANDSTAD_CENSUS[case]
        with pytest.raises(error):
            duality.landstad_reconstruct(*build(request.getfixturevalue))


@pytest.fixture(scope="module")
def s3_signed_action(s3, diag2):
    """C(S3/A3) with even permutations acting trivially and odd ones swapping."""
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    alpha = np.stack([np.eye(2, dtype=complex) if s in A3 else swap
                      for s in s3.elements()])
    tau = {n: np.eye(2, dtype=complex) for n in A3}
    return bundles.TwistedAction(diag2, s3, groups.NormalSubgroup(s3, A3), alpha, tau)


class TestOlesenPedersen:
    def test_z4_forward(self, twisted_z4_action):
        report = duality.olesen_pedersen_forward(twisted_z4_action)
        assert report["pass"], report["iso"]["violations"]
        assert report["dim_semidirect"] == report["dim_pullback"] == 4

    def test_untwisted_control(self, z4, scalar_line):
        one = np.ones((1, 1), dtype=complex)
        t = bundles.TwistedAction(scalar_line, z4, groups.NormalSubgroup(z4, (0, 2)),
                                  np.ones((4, 1, 1), dtype=complex), {0: one, 2: one})
        assert duality.olesen_pedersen_forward(t)["pass"]

    def test_trivial_subgroup_is_a_reindexing(self, swap_action):
        report = duality.olesen_pedersen_forward(swap_action)
        assert report["pass"]
        assert report["dim_semidirect"] == 4

    def test_s3_signed_action(self, s3_signed_action):
        report = duality.olesen_pedersen_forward(s3_signed_action)
        assert report["pass"], report["iso"]["violations"]
        assert report["dim_semidirect"] == report["dim_pullback"] == 12


class TestExtractTwist:
    def test_round_trip_recovers_minus_one(self, twisted_z4_action):
        t = twisted_z4_action
        real = bundles.concretize(bundles.semidirect_bundle(t))
        u = duality.induced_multiplier_family(t, real)
        tau = duality.extract_twist(t, real, u)
        assert abs(tau[2][0, 0] + 1.0) <= 1e-10
        assert abs(tau[0][0, 0] - 1.0) <= 1e-10

    def test_trivial_subgroup(self, swap_action):
        real = bundles.concretize(bundles.semidirect_bundle(swap_action))
        u = duality.induced_multiplier_family(swap_action, real)
        tau = duality.extract_twist(swap_action, real, u)
        assert set(tau) == {0}
        assert np.allclose(tau[0], matrices.unit_element(swap_action.algebra))

    def test_inner_action_recovers_the_unitaries(self, z4, m2_full):
        # alpha_s = Ad(V^s) with V = diag(1, i); on N = {0,2} the implementing
        # unitaries are I and diag(1,-1), and the extraction returns them
        v = np.diag([1.0 + 0j, 1j])
        powers = [np.linalg.matrix_power(v, s) for s in range(4)]
        alpha = models.action_by_automorphisms(
            m2_full, z4, [lambda m, p=p: p @ m @ matrices.dagger(p) for p in powers])
        v2 = powers[2]
        t = bundles.TwistedAction(m2_full, z4, groups.NormalSubgroup(z4, (0, 2)),
                                  alpha, {0: np.eye(2, dtype=complex), 2: v2})
        real = bundles.concretize(bundles.semidirect_bundle(t))
        u = duality.induced_multiplier_family(t, real)
        tau = duality.extract_twist(t, real, u)
        assert matrices.hs_norm(tau[2] - v2) <= 1e-10

    def test_corrupted_family_rejected(self, twisted_z4_action):
        t = twisted_z4_action
        real = bundles.concretize(bundles.semidirect_bundle(t))
        u = duality.induced_multiplier_family(t, real)
        mats = dict(u.mats)
        mats[2] = 2.0 * mats[2]
        bad = bundles.UnitaryMultiplierFamily(u.bundle, u.domain, mats)
        with pytest.raises(InvalidMultiplierFamily):
            duality.extract_twist(t, real, bad)

    def test_s3_trivial_twist_round_trip(self, s3_signed_action):
        t = s3_signed_action
        real = bundles.concretize(bundles.semidirect_bundle(t))
        u = duality.induced_multiplier_family(t, real)
        tau = duality.extract_twist(t, real, u)
        unit = matrices.unit_element(t.algebra)
        assert all(matrices.hs_norm(tau[n] - unit) <= 1e-10 for n in A3)


class TestCharRoundTrips:
    def test_pullback_then_quotient_pauli(self, pauli_bundle, q_z4):
        report = duality.pullback_quotient_roundtrip(pauli_bundle, q_z4)
        assert report["pass"], report["iso"]["violations"]
        assert report["fiber_dims"]["original"] == report["fiber_dims"]["recovered"]

    def test_pullback_then_quotient_s3(self, s3_quotient_bundle, q_s3):
        report = duality.pullback_quotient_roundtrip(s3_quotient_bundle, q_s3)
        assert report["pass"], report["iso"]["violations"]

    def test_quotient_then_pullback_canonical(self, pauli_pullback, q_z4):
        u = bundles.canonical_multiplier_family(pauli_pullback, q_z4)
        report = duality.quotient_pullback_roundtrip(pauli_pullback, u, q_z4)
        assert report["pass"], report["iso"]["violations"]
        assert report["quotient_fiber_dims"] == [1, 1]

    def test_quotient_then_pullback_semidirect(self, twisted_z4_action, q_z4):
        t = twisted_z4_action
        real = bundles.concretize(bundles.semidirect_bundle(t))
        u = duality.induced_multiplier_family(t, real)
        report = duality.quotient_pullback_roundtrip(real.bundle, u, q_z4)
        assert report["pass"], report["iso"]["violations"]

    def test_quotient_then_pullback_semidirect_cube_roots(self, z6_cube_root_action):
        # N = {0, 2, 4} has elements of order 3, so x U(n^-1) and x U(n) differ
        t = z6_cube_root_action
        real = bundles.concretize(bundles.semidirect_bundle(t))
        u = duality.induced_multiplier_family(t, real)
        q = groups.quotient(t.group, t.subgroup.members)
        report = duality.quotient_pullback_roundtrip(real.bundle, u, q)
        assert report["pass"], report["iso"]["violations"]

    # A4/V4's sections (0, 1, 2) are no subgroup: c_1 c_1 is not c_2, and the adjoint
    # at c_k^-1 is realigned by n_part(c_k^-1), not by c_k^-1 c_{k^-1}^-1

    def test_pullback_then_quotient_a4_over_klein(self, z3_bundle, q_a4):
        report = duality.pullback_quotient_roundtrip(z3_bundle, q_a4)
        assert report["pass"], report["iso"]["violations"]
        assert report["fiber_dims"]["original"] == report["fiber_dims"]["recovered"]

    def test_quotient_then_pullback_canonical_a4_over_klein(self, z3_bundle, q_a4):
        p = bundles.pullback(z3_bundle, q_a4)
        u = bundles.canonical_multiplier_family(p, q_a4)
        report = duality.quotient_pullback_roundtrip(p, u, q_a4)
        assert report["pass"], report["iso"]["violations"]
        assert report["quotient_fiber_dims"] == [1, 1, 1]

    @pytest.mark.parametrize("case", ["pauli", "s3", "a4", "twisted_z4_action",
                                      "z6_cube_root_action"])
    def test_collapse_matches_the_dense_reference(self, case, request):
        a, u, q = collapse_inputs(case, request)
        quo = bundles.quotient_bundle(a, u, q)
        prod, invol, escape = reference_quotient_bundle(a, u, q)
        assert escape <= 1e-12
        assert quo.dims == tuple(len(c) for c in invol)
        for key, ref in prod.items():
            np.testing.assert_allclose(quo.prod[key], ref, rtol=0, atol=1e-12)
        for got, ref in zip(quo.invol, invol, strict=True):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


@pytest.fixture(scope="module")
def z6_cube_root_action(scalar_line):
    """Z6 acting trivially on C, twisted over {0, 2, 4} by the cube roots of unity."""
    z6, w = groups.cyclic(6), np.exp(2j * np.pi / 3)
    tau = {n: np.full((1, 1), w ** (n // 2)) for n in (0, 2, 4)}
    return bundles.TwistedAction(scalar_line, z6, groups.NormalSubgroup(z6, (0, 2, 4)),
                                 np.ones((6, 1, 1), dtype=complex), tau)


def collapse_inputs(case, request):
    """The bundle, family and quotient that a round trip above collapses: the
    pull-back with its canonical family in both directions, or the semidirect
    bundle of an action fixture with its induced family."""
    fixture = request.getfixturevalue
    if case.endswith("_action"):
        t = fixture(case)
        real = bundles.concretize(bundles.semidirect_bundle(t))
        q = groups.quotient(t.group, t.subgroup.members)
        return real.bundle, duality.induced_multiplier_family(t, real), q
    d, q = {"pauli": ("pauli_bundle", "q_z4"), "s3": ("s3_quotient_bundle", "q_s3"),
            "a4": ("z3_bundle", "q_a4")}[case]
    p, q = bundles.pullback(fixture(d), fixture(q)), fixture(q)
    return p, bundles.canonical_multiplier_family(p, q), q


def reference_quotient_bundle(a, u, q):
    """quotient_bundle's products and adjoints on the dense route: each product
    x y of section fibers formed as x (y U(n)*) and each adjoint as x* U(n)*,
    with n = q.n_part of the element they sit at, and decomposed in the section
    fiber; with the largest residual of those decompositions."""
    g, qg, c = a.group, q.quotient_group, q.section
    prod, invol, escape = {}, [], 0.0
    for k in qg.elements():
        fk = a.fiber(c[k])
        for l in qg.elements():
            n = q.n_part(g.mul(c[k], c[l]))
            prod[(k, l)], res = matrices.product_coords(
                fk.basis, a.fiber(c[l]).basis @ matrices.dagger(u.mat(n)), a.fiber(c[qg.mul(k, l)]))
            escape = max(escape, res.max(initial=0.0))
        n = q.n_part(g.inv(c[k]))
        coords, res = a.fiber(c[qg.inv(k)]).decompose(
            matrices.dagger(fk.basis) @ matrices.dagger(u.mat(n)))
        invol.append(coords)
        escape = max(escape, res.max(initial=0.0))
    return prod, invol, escape


class TestGradedIdeals:
    def test_group_algebra_of_z2_is_simple(self, z2, scalar_line):
        inputs = models.sweep_inputs(bundles.trivial_bundle(z2, scalar_line))
        ideals = duality.graded_ideals(*inputs)
        assert [len(i) for i in ideals] == [0, 2]
        assert duality.is_g_simple(*inputs)

    def test_single_block_total(self, m2_full):
        inputs = models.sweep_inputs(bundles.GradedBundle(groups.cyclic(1), (m2_full,)))
        assert [len(i) for i in duality.graded_ideals(*inputs)] == [0, 4]
        assert duality.is_g_simple(*inputs)

    def test_direct_sum_has_factor_ideals(self, z2, diag2):
        inputs = models.sweep_inputs(bundles.trivial_bundle(z2, diag2))
        ideals = duality.graded_ideals(*inputs)
        assert [len(i) for i in ideals] == [0, 2, 2, 4]
        assert not duality.is_g_simple(*inputs)

    def test_ungraded_sum_is_not_simple(self, z2, diag2):
        empty = matrices.MatrixSubspace(2, np.zeros((0, 2, 2), dtype=complex))
        inputs = models.sweep_inputs(bundles.GradedBundle(z2, (diag2, empty)))
        assert len(duality.graded_ideals(*inputs)) == 4
        assert not duality.is_g_simple(*inputs)

    def test_ideals_closed_under_meet_and_join(self, z2, diag2):
        bundle = bundles.trivial_bundle(z2, diag2)
        ideals = [models.ideal_subspace(bundle, rows)
                  for rows in duality.graded_ideals(*models.sweep_inputs(bundle))]
        for a in ideals:
            for b in ideals:
                join = models.span_union([a, b], ambient_dim=a.ambient_dim)
                assert any(models.subspace_equal(join, c) for c in ideals)
                meet_dim = a.dim + b.dim - join.dim
                assert any(c.dim == meet_dim for c in ideals)

    def test_peak_memory_is_below_half_a_commutator_stack(self, pauli_bundle, m2_full):
        # trivial M_2 over D6: one dense stack of the commutators of A_e's basis with
        # every fiber basis element, (4, 48, 24, 24) complex, is 1.77 MB; reading
        # Z(A) ∩ A_e and each pA off the sweep's constants holds no such block
        bundle = bundles.trivial_bundle(groups.dihedral(6), m2_full)
        inputs = models.sweep_inputs(bundle)
        n = bundle.ambient_dim
        stack_bytes = bundle.fiber(0).dim * bundle.section_dimension() * n * n * 16
        duality.graded_ideals(*models.sweep_inputs(pauli_bundle))  # first-call allocations
        tracemalloc.start()
        try:
            ideals = duality.graded_ideals(*inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [len(i) for i in ideals] == [0, 48]
        assert peak < stack_bytes / 2


def sweep_graded_ideals(sa, tol=1e-8):
    """The dense route: all 2^blocks sums of minimal central summands of the whole
    section algebra, kept when every fiber component of every element stays inside."""
    total = sa.total
    projs = matrices.minimal_central_projections(total, tol)
    found = []
    for mask in range(1 << len(projs)):
        p = sum((projs[i] for i in range(len(projs)) if mask >> i & 1),
                np.zeros((total.ambient_dim, total.ambient_dim), dtype=complex))
        ideal = matrices.orthonormalize([p @ m for m in total.basis_list()],
                                        ambient_dim=total.ambient_dim, tol=tol)
        if all(matrices.hs_norm(comp) <= tol or ideal.contains(comp, tol)
               for m in ideal.basis_list() for comp in sa.components(m, tol)):
            found.append(ideal)
    return sorted(found, key=lambda i: i.dim)


def center_meets_unit_fiber(sa):
    """dim of Z(A) ∩ A_e from the centre and the unit fiber: dim Z + dim A_e - dim(Z + A_e)."""
    z, fe = matrices.center_subspace(sa.total), sa.bundle.fiber(0)
    return z.dim + fe.dim - models.span_union([z, fe]).dim


IDEAL_CASES = [("pauli_bundle", 2), ("pauli_pullback", 2), ("trivial_z4", 2), ("trivial_s3", 2),
               ("twisted_z4_realized", 2), ("swap_semidirect_realized", 2),
               ("s3_quotient_bundle", 2), ("diag_z4", 4), ("diag_s3", 4), ("haar_diag_z4", 4),
               ("m2_even_z4", 2)]


@pytest.fixture()
def graded(request, diag2, m2_full):
    """A conftest bundle, or one built here: diag(C^2) over Z4 or S3, that over Z4
    moved by a Haar unitary, and M_2 over Z2 placed in Z4 at {0, 2} with zero
    fibers at 1 and 3."""
    name = request.param
    if name.startswith("diag_"):
        bundle = bundles.trivial_bundle(groups.cyclic(4) if name == "diag_z4"
                                        else groups.symmetric(3), diag2)
    elif name == "haar_diag_z4":
        bundle = conjugated(bundles.trivial_bundle(groups.cyclic(4), diag2), haar_unitary(8, 5))
    elif name == "m2_even_z4":
        bundle = models.even_part_of_z4(bundles.trivial_bundle(groups.cyclic(2), m2_full))
    else:
        bundle = request.getfixturevalue(name)
    return getattr(bundle, "bundle", bundle)


class TestGradedIdealsAgainstTheSweep:
    """graded_ideals builds pA for the projections of Z(A) ∩ A_e; the sweep tries
    every central summand of A and tests its grading."""

    @pytest.mark.parametrize("graded, count", IDEAL_CASES, indirect=["graded"])
    def test_same_ideals_as_the_sweep(self, graded, count):
        section, inputs = models.section_algebra(graded), models.sweep_inputs(graded)
        ideals = [models.ideal_subspace(graded, rows) for rows in duality.graded_ideals(*inputs)]
        swept = sweep_graded_ideals(section)
        assert [i.dim for i in ideals] == [i.dim for i in swept]
        assert all(any(models.subspace_equal(a, b) for b in swept) for a in ideals)
        assert len(ideals) == count == 2 ** center_meets_unit_fiber(section)
        assert ideals[0].dim == 0 and ideals[-1].dim == section.total.dim
        rows = duality.graded_ideals(*inputs)
        assert (duality.is_g_simple(*inputs, ideals=rows) == duality.is_g_simple(*inputs)
                == (count == 2))


class TestUnitFiberCenterAgainstTheDenseRoute:
    """Z(A) ∩ A_e from the sweep's (e, t) and (t, e) products in A_t's coordinates
    against the null space of the dense commutator stack: the fiber bases are
    HS-orthonormal and a verified grading keeps each commutator in its fiber, so the
    two maps have the same Gram, hence the same singular values and null space."""

    @pytest.mark.parametrize("graded", [name for name, _ in IDEAL_CASES], indirect=True)
    def test_same_center_as_the_dense_route(self, graded):
        sv, center = duality._unit_fiber_center(*models.sweep_inputs(graded),
                                                 matrices.DEFAULT_TOL)
        dense_sv, dense = models.dense_unit_fiber_center(models.section_algebra(graded))
        assert center.dim == dense.dim > 0
        assert sv.shape == dense_sv.shape
        assert np.abs(sv - dense_sv).max() <= 1e-12 * max(1.0, dense_sv[0])
        assert models.subspace_equal(center, dense)


class TestTransformationSystems:
    def test_coset_action_shape(self, s3):
        act = duality.coset_action(s3, SWAP_SUBGROUP)
        assert act.size == 3
        assert act.orbits() == [(0, 1, 2)]
        assert duality.invariant_ideal_count(act) == 2

    def test_translation_action_is_free(self, s3):
        act = models.translation_action(s3)
        assert act.size == 6
        assert all(act.stabilizer(x) == (0,) for x in range(6))

    def test_coset_action_needs_a_subgroup(self, s3):
        with pytest.raises(NotASubgroup):
            duality.coset_action(s3, (0, 3))

    def test_invalid_permutation_tables(self, z2):
        with pytest.raises(InvalidAction):
            duality.GSetAction(z2, 2, ((1, 0), (0, 1)))  # identity must fix
        with pytest.raises(InvalidAction):
            duality.GSetAction(z2, 2, ((0, 1), (0, 0)))

    def test_s3_crossed_product_is_g_simple(self, s3):
        # transitive action on three cosets: no invariant ideals downstairs,
        # and the dual grading upstairs has only the trivial graded ideals
        act = duality.coset_action(s3, SWAP_SUBGROUP)
        sa = models.crossed_section_algebra(duality.transformation_system(act))
        assert sa.total.dim == 18
        assert duality.is_g_simple(*models.sweep_inputs(sa.bundle))
        # the two central blocks match the group algebra of the order-2 stabilizer
        assert len(matrices.minimal_central_projections(sa.total)) == 2

    def test_stabilizer_obstruction_s3(self, s3):
        act = duality.coset_action(s3, SWAP_SUBGROUP)
        report = duality.stabilizer_obstruction(act, groups.NormalSubgroup(s3, A3))
        assert report["kernel"] == (0,)
        assert report["kernel_trivial"]
        assert not report["induced_possible"]
        assert sorted(len(s) for s in report["stabilizers"]) == [2, 2, 2]
        assert len(set(report["stabilizers"])) == 3

    def test_trivial_action_has_no_obstruction(self, z4):
        act = models.trivial_gset_action(z4, 3)
        report = duality.stabilizer_obstruction(act, groups.NormalSubgroup(z4, (0, 2)))
        assert report["kernel"] == (0, 1, 2, 3)
        assert report["induced_possible"]

    def test_trivial_subgroup_rejected(self, s3):
        act = models.translation_action(s3)
        with pytest.raises(TrivialN):
            duality.stabilizer_obstruction(act, groups.NormalSubgroup(s3, (0,)))

    @settings(max_examples=20, deadline=None)
    @given(gens=st.sets(st.integers(min_value=0, max_value=5), max_size=2))
    def test_coset_action_kernel_is_normal(self, gens):
        g = groups.symmetric(3)
        members = models.subgroup_closure(g, gens)
        act = duality.coset_action(g, members)
        assert g.order % act.size == 0
        stabs = [set(act.stabilizer(x)) for x in range(act.size)]
        kernel = tuple(sorted(set.intersection(*stabs)))
        groups.NormalSubgroup(g, kernel)  # must not raise


class TestOlesenPedersenInvalidActions:
    """An invalid action or twist fails with the error the action check raises."""

    @staticmethod
    def expected_error(t):
        with pytest.raises((InvalidAction, InvalidTwist)) as exc:
            bundles.require_twisted_action(t, 1e-8)
        return exc.type, str(exc.value)

    def test_broken_twist(self, twisted_z4_action):
        t = twisted_z4_action
        bad = bundles.TwistedAction(t.algebra, t.group, t.subgroup, t.alpha,
                                    {0: t.tau[0], 2: 2.0 * t.tau[2]})
        kind, message = self.expected_error(bad)
        assert kind is InvalidTwist
        with pytest.raises(InvalidTwist, match=re.escape(message)):
            duality.olesen_pedersen_forward(bad)

    def test_broken_action(self, twisted_z4_action):
        t = twisted_z4_action
        alpha = t.alpha.copy()
        alpha[1] = 2.0 * alpha[1]
        bad = bundles.TwistedAction(t.algebra, t.group, t.subgroup, alpha, t.tau)
        kind, message = self.expected_error(bad)
        assert kind is InvalidAction
        with pytest.raises(InvalidAction, match=re.escape(message)):
            duality.olesen_pedersen_forward(bad)

    def test_semidirect_bundle_is_returned(self, swap_action):
        report = duality.olesen_pedersen_forward(swap_action)
        real = bundles.concretize(bundles.semidirect_bundle(swap_action))
        assert report["semidirect"].bundle.fiber_dims() == real.bundle.fiber_dims()
        for s in swap_action.group.elements():
            assert np.allclose(np.stack(report["semidirect"].images[s]),
                               np.stack(real.images[s]), rtol=0, atol=1e-12)


# The forward check as first written: the pull-back and every image dense, as
# a (x) lambda(s) in M_{n|G|}. It stays here as the second route to the verdict
# that `olesen_pedersen_forward` now reaches on the small factor (PulledBack).


def forward_images(t, tol=1e-8):
    """The semidirect bundle, its realization, the twisted semidirect grading,
    the quotient, and the small factors of the forward map's images."""
    tw_real = bundles.concretize(bundles.twisted_semidirect_bundle(t, tol), tol)
    q = groups.quotient(t.group, t.subgroup)
    semi = bundles.semidirect_bundle(t, tol)
    images = []
    for s in t.group.elements():
        c, coeffs = bundles.twisted_normal_form(t, q, np.eye(t.algebra.dim), s)
        images.append(duality._image(tw_real, c, coeffs))
    return semi, bundles.concretize(semi, tol), tw_real.bundle, q, images


def dense_images(q, images):
    lam = groups.left_regular(q.group)
    return [np.kron(y, lam[s]) for s, y in enumerate(images)]


def reference_olesen_pedersen_forward(t, tol=1e-8):
    semi, semi_real, tw, q, images = forward_images(t, tol)
    pb = bundles.pullback(tw, q)
    iso = bundles.realization_isomorphism_report(semi, semi_real, pb, dense_images(q, images), tol)
    dim_semi, dim_pb = semi_real.bundle.section_dimension(), pb.section_dimension()
    return {"pass": iso["pass"] and dim_semi == dim_pb == t.group.order * t.algebra.dim,
            "iso": iso, "dim_semidirect": dim_semi, "dim_pullback": dim_pb}


def ladder_action(g, normal):
    """G acting on G/N by translation, with tau = 1 on N (the benchmark's systems)."""
    act = duality.transformation_system(duality.coset_action(g, normal))
    unit = matrices.unit_element(act.algebra)
    return bundles.TwistedAction(act.algebra, g, groups.NormalSubgroup(g, normal), act.alpha,
                                 {m: unit for m in normal})


LADDER = {"s3.free": (groups.symmetric, 3, (0,)), "d4.center": (groups.dihedral, 4, (0, 2)),
          "s3.a3": (groups.symmetric, 3, A3)}


@pytest.fixture(scope="module")
def a4_klein_action(q_a4):
    """A4 acting on A4/V4 by translation with tau = 1, over the sections (0, 1, 2)."""
    return ladder_action(q_a4.group, q_a4.subgroup.members)


def named_action(name, request):
    """A ladder system by its rung name, or an action fixture."""
    if name in LADDER:
        make, n, normal = LADDER[name]
        return ladder_action(make(n), normal)
    return request.getfixturevalue(name)


def failing_checks(report):
    return [name for name, c in report["checks"].items() if not c["pass"]]


def assert_routes_agree(new, ref, into_tol=1e-14, tol=1e-12):
    """Same verdict and failing checks; each max residual within tol of the
    reference's (relative once it exceeds 1), into_fibers within into_tol."""
    assert new["pass"] == ref["pass"]
    assert failing_checks(new) == failing_checks(ref)
    assert [(v["axiom"], v.get("s")) for v in new["violations"]] == [
        (v["axiom"], v.get("s")) for v in ref["violations"]]
    for name, c in ref["checks"].items():
        if "max_residual" in c:
            bound = into_tol if name == "into_fibers" else tol
            got = new["checks"][name]["max_residual"]
            assert abs(got - c["max_residual"]) <= bound * max(1.0, abs(c["max_residual"])), name


class TestForwardOnTheSmallFactor:
    @pytest.fixture(params=["twisted_z4_action", "swap_action", "s3_signed_action",
                            "a4_klein_action", *LADDER])
    def action(self, request):
        return named_action(request.param, request)

    def test_same_report_as_the_dense_forward(self, action):
        new, ref = duality.olesen_pedersen_forward(action), reference_olesen_pedersen_forward(action)
        assert new["pass"] and ref["pass"]
        assert new["dim_semidirect"] == ref["dim_semidirect"]
        assert new["dim_pullback"] == ref["dim_pullback"]
        assert_routes_agree(new["iso"], ref["iso"])

    @pytest.mark.parametrize("name", ["s3_signed_action", "d4.center"])
    def test_doubled_images_fail_the_same_checks(self, name, request):
        # hs residuals of the dense images are sqrt|G| times those of the small
        # factors, so the two routes agree only if the factor is applied
        semi, semi_real, tw, q, images = forward_images(named_action(name, request))
        doubled = [2.0 * y for y in images]
        new = bundles.realization_isomorphism_report(semi, semi_real, bundles.PulledBack(tw, q),
                                                     doubled)
        ref = bundles.realization_isomorphism_report(semi, semi_real, bundles.pullback(tw, q),
                                                     dense_images(q, doubled))
        assert failing_checks(ref) == ["multiplicative", "isometric"]
        assert_routes_agree(new, ref)
        for v, w in zip(new["violations"], ref["violations"]):
            assert abs(v["residual"] - w["residual"]) <= 1e-12 * abs(w["residual"])

    def test_the_factor_is_the_square_root_of_the_order(self, s3_signed_action):
        semi, semi_real, tw, q, images = forward_images(s3_signed_action)
        doubled = [2.0 * y for y in images]
        new = bundles.realization_isomorphism_report(semi, semi_real, bundles.PulledBack(tw, q),
                                                     doubled)
        # the small factors alone: their coordinates in tw's fibers, read off tw's
        # structure constants through the fiber map, with a dense grading's identity frames
        tgt = bundles.abstract_from_graded(tw)
        coords = [tw.fiber(c).decompose(y)[0] for y, c in zip(doubled, q.coset_of)]
        small = bundles._coordinate_residuals(semi, coords, tgt, q.coset_of,
                                              [np.eye(d) for d in tgt.dims])
        for name, res in zip(("multiplicative", "star"), small):
            assert new["checks"][name]["max_residual"] == pytest.approx(
                np.sqrt(6) * res, rel=1e-15, abs=0)


class TestQuotientPullbackOnTheSmallFactor:
    """quotient_pullback_roundtrip's map against the same map into the dense pull-back,
    `linear` probes included."""

    @staticmethod
    def both_routes(a, u, q, scale=1.0):
        quo = bundles.quotient_bundle(a, u, q)
        real = bundles.concretize(quo)
        lam = groups.left_regular(q.group)

        def small(s, mat):
            c = q.coset_of[s]
            coords = a.fiber(q.section[c]).coords(mat @ matrices.dagger(u.mat(q.n_part(s))))
            return scale * duality._image(real, c, coords)

        def dense(s, mat):
            return np.kron(small(s, mat), lam[s])

        return (bundles.bundle_isomorphism_report(a, bundles.PulledBack(real.bundle, q), small),
                bundles.bundle_isomorphism_report(a, bundles.pullback(real.bundle, q), dense))

    @pytest.mark.parametrize("scale", [1.0, 2.0])
    def test_canonical_family(self, pauli_pullback, q_z4, scale):
        fam = bundles.canonical_multiplier_family(pauli_pullback, q_z4)
        new, ref = self.both_routes(pauli_pullback, fam, q_z4, scale)
        assert new["pass"] == (scale == 1.0)
        assert_routes_agree(new, ref)

    def test_roundtrip_report_matches(self, pauli_pullback, q_z4):
        fam = bundles.canonical_multiplier_family(pauli_pullback, q_z4)
        _, ref = self.both_routes(pauli_pullback, fam, q_z4)
        report = duality.quotient_pullback_roundtrip(pauli_pullback, fam, q_z4)
        assert report["pass"]
        assert_routes_agree(report["iso"], ref)
