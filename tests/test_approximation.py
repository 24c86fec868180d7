"""Witness bounds and defects, averaging against the crossed model, pull-backs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fellbundles import approximation as ap
from fellbundles import bundles, groups, matrices
from fellbundles.errors import (
    GNormExceeded,
    GroupMismatch,
    NonUnitalUnitFiber,
    NotInAlgebra,
    ShapeMismatch,
    ValueOutsideUnitFiber,
)

import models
from conftest import A3, I2, PAULI_X, PAULI_Y, SQ2


@pytest.fixture()
def zero_bundle(z2):
    """Every fiber zero, so the unit fiber has no unit."""
    zero = matrices.orthonormalize([], ambient_dim=2)
    return bundles.GradedBundle(z2, (zero, zero))


def random_witness(bundle, rng, scale=1.0):
    fe = bundle.fiber(0)
    vals = {}
    for s in bundle.group.elements():
        c = rng.standard_normal(fe.dim) + 1j * rng.standard_normal(fe.dim)
        vals[s] = scale * fe.from_coords(c)
    return ap.ep_witness(bundle, vals)


def random_section(bundle, rng):
    out = np.zeros((bundle.ambient_dim, bundle.ambient_dim), dtype=complex)
    for s in bundle.group.elements():
        f = bundle.fiber(s)
        c = rng.standard_normal(f.dim) + 1j * rng.standard_normal(f.dim)
        out = out + f.from_coords(c)
    return out


class TestWitnessConstruction:
    def test_uniform_bound_is_one(self, pauli_bundle, trivial_z4, s3_quotient_bundle):
        for b in (pauli_bundle, trivial_z4, s3_quotient_bundle):
            w = ap.uniform_witness(b)
            assert w.support == tuple(b.group.elements())
            assert w.bound == pytest.approx(1.0, abs=1e-12)

    def test_explicit_pauli_witness(self, pauli_bundle):
        w = ap.ep_witness(pauli_bundle, {0: I2 / SQ2, 1: I2 / SQ2})
        assert w.bound == pytest.approx(1.0, abs=1e-12)
        rep = ap.ep_defect(pauli_bundle, w)
        assert rep["defect"] <= 1e-12

    def test_zero_values_are_dropped(self, pauli_bundle):
        w = ap.ep_witness(pauli_bundle, {0: I2, 1: np.zeros((2, 2))})
        assert w.support == (0,)
        assert matrices.hs_norm(w.value(1)) == 0.0

    def test_empty_witness(self, pauli_bundle):
        w = ap.ep_witness(pauli_bundle, {})
        assert w.bound == 0.0
        assert w.support == ()

    def test_value_outside_unit_fiber(self, pauli_bundle):
        with pytest.raises(ValueOutsideUnitFiber):
            ap.ep_witness(pauli_bundle, {0: PAULI_X})

    def test_bad_index_and_shape(self, pauli_bundle):
        with pytest.raises(GroupMismatch):
            ap.ep_witness(pauli_bundle, {5: I2})
        with pytest.raises(ShapeMismatch):
            ap.ep_witness(pauli_bundle, {0: np.eye(3)})

    def test_gram_scaling(self, pauli_bundle):
        w = ap.ep_witness(pauli_bundle, {0: 2.0 * I2, 1: 1j * I2})
        assert w.bound == pytest.approx(5.0, abs=1e-12)
        assert np.allclose(w.gram(), 5.0 * I2)


class TestDefect:
    def test_uniform_witness_is_exact_everywhere(
            self, pauli_bundle, trivial_z4, trivial_s3, twisted_z4_realized,
            swap_semidirect_realized, s3_quotient_bundle, pauli_pullback):
        battery = (pauli_bundle, trivial_z4, trivial_s3,
                   twisted_z4_realized.bundle, swap_semidirect_realized.bundle,
                   s3_quotient_bundle, pauli_pullback)
        for b in battery:
            rep = ap.ep_defect(b, ap.uniform_witness(b))
            assert rep["bound"] == pytest.approx(1.0, abs=1e-10)
            assert rep["defect"] <= 1e-10

    def test_point_witness_defect_is_one_on_matrix_units(self, z2, diag2):
        # f = delta_e: averaging kills every a_t with t != e outright; the
        # off-diagonal basis elements have operator norm one, so the defect is 1
        off = matrices.orthonormalize(
            [np.array([[0, 1], [0, 0]]), np.array([[0, 0], [1, 0]])])
        b = bundles.GradedBundle(z2, (diag2, off))
        rep = ap.ep_defect(b, models.point_witness(b))
        assert rep["bound"] == pytest.approx(1.0, abs=1e-12)
        assert rep["defect"] == pytest.approx(1.0, abs=1e-12)

    def test_point_witness_defect_on_regular_realization(self, trivial_z4):
        # same witness, but the fibers here are normalized translation
        # matrices with operator norm 1/2, which scales the defect with them
        rep = ap.ep_defect(trivial_z4, models.point_witness(trivial_z4))
        assert rep["bound"] == pytest.approx(1.0, abs=1e-12)
        assert rep["defect"] == pytest.approx(0.5, abs=1e-12)

    def test_point_witness_defect_on_pauli(self, pauli_bundle):
        # the X fiber basis element X / sqrt(2) has operator norm 1 / sqrt(2)
        rep = ap.ep_defect(pauli_bundle, models.point_witness(pauli_bundle))
        assert rep["defect"] == pytest.approx(1 / SQ2, abs=1e-12)

    def test_witness_over_other_bundle_rejected(self, pauli_bundle, trivial_z4, z2, diag2):
        w = ap.uniform_witness(pauli_bundle)
        with pytest.raises(GroupMismatch):
            ap.ep_defect(trivial_z4, w)
        # same group and ambient size, different grading
        off = matrices.orthonormalize(
            [np.array([[0, 1], [0, 0]]), np.array([[0, 0], [1, 0]])])
        other = bundles.GradedBundle(z2, (diag2, off))
        with pytest.raises(GroupMismatch):
            ap.ep_defect(other, w)


class TestAveraging:
    def test_matches_compression_in_crossed_model(
            self, pauli_bundle, swap_semidirect_realized):
        rng = np.random.default_rng(41)
        for bundle in (pauli_bundle, swap_semidirect_realized.bundle):
            g, n, go = bundle.group, bundle.ambient_dim, bundle.group.order
            w = random_witness(bundle, rng, scale=0.7)
            cp = models.crossed_product(bundle)
            v = np.zeros((n * go, n), dtype=complex)
            for u in g.elements():
                v[u::go, :] = w.value(u)
            for t in g.elements():
                for a in bundle.fiber(t).basis_list():
                    oracle = matrices.dagger(v) @ cp.j_fiber(t, a) @ v
                    got = ap.averaging_map(bundle, w, a)
                    assert np.allclose(got, oracle, atol=1e-10)

    def test_norm_bound(self, pauli_bundle, twisted_z4_realized, s3_quotient_bundle):
        rng = np.random.default_rng(43)
        for bundle in (pauli_bundle, twisted_z4_realized.bundle, s3_quotient_bundle):
            for _ in range(15):
                w = random_witness(bundle, rng, scale=rng.uniform(0.2, 2.0))
                a = random_section(bundle, rng)
                out = ap.averaging_map(bundle, w, a)
                assert matrices.op_norm(out) <= w.bound * matrices.op_norm(a) + 1e-10

    def test_zero_defect_means_identity(self, swap_semidirect_realized):
        bundle = swap_semidirect_realized.bundle
        w = ap.uniform_witness(bundle)
        rng = np.random.default_rng(47)
        for _ in range(5):
            a = random_section(bundle, rng)
            assert np.allclose(ap.averaging_map(bundle, w, a), a, atol=1e-10)

    def test_zero_witness_kills_everything(self, pauli_bundle):
        w = ap.ep_witness(pauli_bundle, {})
        out = ap.averaging_map(pauli_bundle, w, I2 + PAULI_X)
        assert matrices.hs_norm(out) == 0.0

    def test_not_in_algebra(self, pauli_bundle):
        with pytest.raises(NotInAlgebra):
            ap.averaging_map(pauli_bundle, ap.uniform_witness(pauli_bundle), PAULI_Y)

    def test_subgroup_supported_section(self, swap_semidirect_realized):
        # sections supported on a subgroup are plain sections with zero
        # components elsewhere; the same entry point handles them
        bundle = swap_semidirect_realized.bundle
        rng = np.random.default_rng(53)
        w = random_witness(bundle, rng)
        a = bundle.fiber(0).from_coords(rng.standard_normal(bundle.fiber(0).dim))
        got = ap.averaging_map(bundle, w, a)
        expect = sum(matrices.dagger(w.value(s)) @ a @ w.value(s)
                     for s in bundle.group.elements())
        assert np.allclose(got, expect, atol=1e-12)

    def test_defect_on_restriction(self, swap_semidirect_realized):
        sub = bundles.restrict(swap_semidirect_realized.bundle, (0,))
        rep = ap.ep_defect(sub, ap.uniform_witness(sub))
        assert rep["defect"] <= 1e-12

    def test_point_witness_bound_is_tight(self, pauli_bundle):
        # rank-one averaging u* a u attains the bound on the unit section
        w = models.point_witness(pauli_bundle)
        out = ap.averaging_map(pauli_bundle, w, I2)
        assert matrices.op_norm(out) == pytest.approx(
            w.bound * matrices.op_norm(I2), abs=1e-12)


class TestMatrixCoefficient:
    def test_uniform_vector_is_constant_one(self, z4):
        gv = {0: 1 / SQ2, 2: 1 / SQ2}
        assert ap.matrix_coefficient(z4, gv, 0) == pytest.approx(1.0)
        assert ap.matrix_coefficient(z4, gv, 2) == pytest.approx(1.0)

    def test_point_vector(self, z4):
        gv = {0: 1.0}
        assert ap.matrix_coefficient(z4, gv, 0) == pytest.approx(1.0)
        assert ap.matrix_coefficient(z4, gv, 2) == pytest.approx(0.0)

    def test_orthogonal_phases_cancel(self, z4):
        gv = {0: 0.6, 2: 0.8j}
        assert ap.matrix_coefficient(z4, gv, 0) == pytest.approx(1.0)
        assert abs(ap.matrix_coefficient(z4, gv, 2)) <= 1e-15

    @settings(max_examples=40, deadline=None)
    @given(re0=st.floats(-1, 1), im0=st.floats(-1, 1),
           re2=st.floats(-1, 1), im2=st.floats(-1, 1))
    def test_cauchy_schwarz(self, z4, re0, im0, re2, im2):
        gv = {0: re0 + 1j * im0, 2: re2 + 1j * im2}
        peak = ap.matrix_coefficient(z4, gv, 0)
        assert abs(peak.imag) <= 1e-12
        for n in (0, 2):
            assert abs(ap.matrix_coefficient(z4, gv, n)) <= peak.real + 1e-12


class TestPullbackWitness:
    def test_uniform_data_pulls_back_exactly(self, pauli_bundle, q_z4):
        fd = ap.uniform_witness(pauli_bundle)
        h = ap.ep_pullback_witness(fd, {0: 1 / SQ2, 2: 1 / SQ2}, q_z4)
        rep = ap.ep_defect(h.bundle, h)
        assert rep["defect"] <= 1e-10
        assert rep["bound"] <= 1.0 + 1e-12
        assert rep["bound"] == pytest.approx(1.0, abs=1e-10)

    def test_uniform_data_pulls_back_exactly_s3(self, s3_quotient_bundle, q_s3):
        fd = ap.uniform_witness(s3_quotient_bundle)
        g3 = 1 / np.sqrt(3)
        h = ap.ep_pullback_witness(fd, {n: g3 for n in A3}, q_s3)
        rep = ap.ep_defect(h.bundle, h)
        assert rep["defect"] <= 1e-10
        assert rep["bound"] <= 1.0 + 1e-12

    def test_point_vector_supports_on_section_image(self, pauli_bundle, q_z4):
        fd = ap.uniform_witness(pauli_bundle)
        h = ap.ep_pullback_witness(fd, {0: 1.0}, q_z4)
        assert h.support == q_z4.section
        assert h.bound == pytest.approx(fd.bound, abs=1e-12)
        assert ap.ep_defect(h.bundle, h)["defect"] > 0.3

    def test_trivial_kernel_reindexes(self, z4, trivial_z4):
        q1 = groups.quotient(z4, (0,))
        assert q1.quotient_group.table == z4.table
        rng = np.random.default_rng(59)
        fd = random_witness(trivial_z4, rng)
        h = ap.ep_pullback_witness(fd, {0: 1.0}, q1)
        assert h.support == fd.support
        assert h.bound == pytest.approx(fd.bound, abs=1e-12)
        for s in z4.elements():
            assert np.allclose(h.value(s), np.kron(fd.value(s), np.eye(4)))
        # the scale-free per-fiber defect is identical on both sides; the
        # reported defect shrinks by the basis renormalization 1/sqrt|G|
        lam = groups.left_regular(z4)
        for t in z4.elements():
            d = trivial_z4.fiber(t).basis[0]
            num_d = matrices.op_norm(
                sum(matrices.dagger(fd.value(z4.mul(t, s))) @ d @ fd.value(s)
                    for s in z4.elements()) - d) / matrices.op_norm(d)
            a = np.kron(d, lam[t])
            num_h = matrices.op_norm(
                sum(matrices.dagger(h.value(z4.mul(t, s))) @ a @ h.value(s)
                    for s in z4.elements()) - a) / matrices.op_norm(a)
            assert num_h == pytest.approx(num_d, abs=1e-10)
        d_fd = ap.ep_defect(trivial_z4, fd)["defect"]
        d_h = ap.ep_defect(h.bundle, h)["defect"]
        assert d_h == pytest.approx(d_fd / 2.0, abs=1e-10)

    def test_gnorm_guard(self, pauli_bundle, q_z4):
        fd = ap.uniform_witness(pauli_bundle)
        with pytest.raises(GNormExceeded):
            ap.ep_pullback_witness(fd, {0: 1.2}, q_z4)
        # boundary case passes
        ap.ep_pullback_witness(fd, {0: 0.6, 2: 0.8}, q_z4)

    def test_group_guards(self, pauli_bundle, trivial_z4, q_z4):
        with pytest.raises(GroupMismatch):
            ap.ep_pullback_witness(ap.uniform_witness(trivial_z4), {0: 1.0}, q_z4)
        with pytest.raises(GroupMismatch):
            ap.ep_pullback_witness(ap.uniform_witness(pauli_bundle), {1: 1.0}, q_z4)

    def test_bound_inequality_randomized(self, pauli_bundle, q_z4):
        rng = np.random.default_rng(61)
        for _ in range(25):
            fd = random_witness(pauli_bundle, rng, scale=rng.uniform(0.3, 1.5))
            raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            raw = raw * rng.uniform(0.1, 1.0) / np.linalg.norm(raw)
            gv = {0: raw[0], 2: raw[1]}
            gsum = sum(abs(v) ** 2 for v in gv.values())
            h = ap.ep_pullback_witness(fd, gv, q_z4)
            assert h.bound <= fd.bound * gsum + 1e-10

    def test_estimate_chain(self, pauli_bundle, s3_quotient_bundle, q_z4, q_s3):
        # the pulled-back averaging error splits into the quotient-level error
        # plus a term controlled by how far the coefficient function of g sits
        # from the constant 1; both inequalities are checked term by term
        rng = np.random.default_rng(67)
        cases = [
            (pauli_bundle, q_z4, {0: 0.6, 2: 0.48j}),
            (s3_quotient_bundle, q_s3, {0: 0.7, 3: 0.3j, 4: -0.25}),
        ]
        for dband, q, gv in cases:
            qg, g = q.quotient_group, q.group
            fd = random_witness(dband, rng, scale=0.8)
            h = ap.ep_pullback_witness(fd, gv, q)
            lam = groups.left_regular(g)
            for t in g.elements():
                k = q.coset_of[t]
                for _ in range(3):
                    c = rng.standard_normal(dband.fiber(k).dim) \
                        + 1j * rng.standard_normal(dband.fiber(k).dim)
                    d = dband.fiber(k).from_coords(c)
                    x = np.kron(d, lam[t])
                    acc = -x.astype(complex)
                    for s in g.elements():
                        acc = acc + matrices.dagger(h.value(g.mul(t, s))) @ x @ h.value(s)
                    lhs = matrices.op_norm(acc)

                    dterm = -d.astype(complex)
                    mid = np.zeros_like(d)
                    c_t, eps = 0.0, 0.0
                    for kn in qg.elements():
                        fl = fd.value(qg.mul(k, kn))
                        fr = fd.value(kn)
                        dterm = dterm + matrices.dagger(fl) @ d @ fr
                        mc = ap.matrix_coefficient(
                            g, gv, q.n_part(g.mul(t, q.section[kn])))
                        mid = mid + matrices.dagger(fl) @ d @ fr * (1.0 - mc)
                        c_t += matrices.op_norm(fl) * matrices.op_norm(fr)
                        eps = max(eps, abs(1.0 - mc))
                    assert lhs <= matrices.op_norm(dterm) + matrices.op_norm(mid) + 1e-10
                    assert matrices.op_norm(mid) <= matrices.op_norm(d) * c_t * eps + 1e-10
                    assert lhs <= (matrices.op_norm(dterm)
                                   + matrices.op_norm(d) * c_t * eps + 1e-10)


def dense_regular_kernel(bundle, tol=matrices.DEFAULT_TOL):
    """The dense route: the rank of the images sum_h a_h tensor lambda(h), and their
    singular values."""
    sa = models.section_algebra(bundle, tol, check=False)
    lam = groups.left_regular(bundle.group)
    rows = [sum(np.kron(c, lam[h]) for h, c in enumerate(sa.components(b, max(tol, 1e-8))))
            .ravel() for b in sa.total.basis_list()]
    sv = np.linalg.svd(np.stack(rows), compute_uv=False)
    return sa.total.dim - int(np.sum(sv > max(tol, 1e-10) * max(1.0, float(sv[0])))), sv


def frame_sv(bundle, tol=matrices.DEFAULT_TOL):
    """The singular values of the stacked fiber bases, from the grading's sweep."""
    return bundles._read_grading(bundle, tol)[2]


class TestRegularKernelAgainstTheKron:
    @pytest.mark.parametrize("name", ["pauli_bundle", "pauli_pullback", "trivial_z4",
                                      "trivial_s3", "twisted_z4_realized",
                                      "swap_semidirect_realized", "s3_quotient_bundle"])
    def test_same_kernel_and_singular_values(self, name, request):
        bundle = request.getfixturevalue(name)
        bundle = getattr(bundle, "bundle", bundle)
        kernel, sv = dense_regular_kernel(bundle)
        order = bundle.group.order
        assert ap.regular_representation_kernel(frame_sv(bundle), order) == kernel == 0
        # the HS identity: the map's singular values are sqrt|G| over those of the
        # stacked fiber bases, the inverses of the section basis's fiber coordinates
        scaled = np.sqrt(order) / frame_sv(bundle)[::-1]
        np.testing.assert_allclose(scaled, sv, rtol=0, atol=1e-12)


class TestReports:
    def test_regular_representation_faithful(
            self, pauli_bundle, twisted_z4_realized, s3_quotient_bundle):
        for b in (pauli_bundle, twisted_z4_realized.bundle, s3_quotient_bundle):
            assert ap.regular_representation_kernel(frame_sv(b), b.group.order) == 0

    @pytest.mark.parametrize("name", ["pauli_bundle", "pauli_pullback", "trivial_z4",
                                      "trivial_s3", "twisted_z4_realized",
                                      "swap_semidirect_realized", "s3_quotient_bundle",
                                      "zero_bundle"])
    def test_report_finds_uniform_witness(self, name, request):
        bundle = request.getfixturevalue(name)
        bundle = getattr(bundle, "bundle", bundle)
        rep = ap.amenability_report(bundle, frame_sv(bundle))
        assert rep["regular_rep_kernel_dim"] == 0
        assert rep["ep_exact_witness_found"] is True
        assert rep["witness_defect"] <= 1e-10
        if bundle.fiber(0).dim:
            assert rep["witness_bound"] == pytest.approx(1.0)
        else:  # the empty witness
            assert rep["witness_bound"] == rep["witness_defect"] == 0.0

    def test_report_survives_nonunital_unit_fiber(self):
        # a nilpotent unit fiber fails the axioms; the report names the error
        nil = matrices.orthonormalize([np.array([[0, 1], [0, 0]], dtype=complex)])
        b = bundles.GradedBundle(groups.cyclic(1), (nil,))
        with pytest.raises(NonUnitalUnitFiber):
            ap.amenability_report(b, frame_sv(b))


class TestSweepPassedIn:
    """The report command hands the sweep's singular values on instead of the bundle's
    section algebra: the same kernel as the dense route, and the uniform witness's
    figures as `ep_defect` reads them."""

    @pytest.mark.parametrize("name", ["pauli_bundle", "trivial_s3", "s3_quotient_bundle"])
    def test_same_kernel_and_report(self, name, request):
        bundle = request.getfixturevalue(name)
        sa = models.section_algebra(bundle, 1e-8, check=False)
        kern = ap.regular_representation_kernel(frame_sv(bundle), bundle.group.order)
        assert kern == models.dense_regular_kernel(sa) == 0
        rep = ap.ep_defect(bundle, ap.uniform_witness(bundle))
        assert ap.amenability_report(bundle, frame_sv(bundle)) == {
            "regular_rep_kernel_dim": 0, "ep_exact_witness_found": True,
            "witness_bound": rep["bound"], "witness_defect": rep["defect"]}
