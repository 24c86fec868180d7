"""The bimodule generator formulas, the eight axioms, and Morita reports."""

import contextlib
import io
import json

import numpy as np
import pytest

from fellbundles import bundles, cli, groups, imprimitivity as imp, matrices
from fellbundles.errors import (
    AxiomViolation,
    GroupMismatch,
    NonUnitalUnitFiber,
)

import models
from models import FiberMismatch
from conftest import A3, I2, PAULI_X, SQ2

X_HAT = PAULI_X / SQ2
I_HAT = I2 / SQ2


def oracle_block_count(mats):
    """Independent Wedderburn count: span dim minus rank of the commutator map."""
    k = len(mats)
    cols = []
    for bj in mats:
        cols.append(np.stack([(bi @ bj - bj @ bi).ravel() for bi in mats], axis=1))
    m = np.concatenate(cols)
    sv = np.linalg.svd(m, compute_uv=False)
    rank = int(np.sum(sv > 1e-9 * max(1.0, float(sv[0]))))
    return k - rank


def run_imprimitivity(tmp_path, d, group, normal):
    """The `imprimitivity` command's report on d, a bundle over the quotient by normal."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(cli.bundle_to_spec(d, {"kind": "cyclic", "n": d.group.order})))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli.run_command(["imprimitivity", str(spec), "--group", group,
                         "--normal", ",".join(map(str, normal))])
    return json.loads(out.getvalue())


@pytest.fixture(scope="module")
def pauli_setup(q_z4, pauli_bundle):
    return q_z4, pauli_bundle


@pytest.fixture(scope="module")
def s3_setup(q_s3, s3_quotient_bundle):
    return q_s3, s3_quotient_bundle


class TestGeneratorFormulas:
    def test_right_action_matching(self, pauli_setup):
        q, d = pauli_setup
        x = models.module_element(q, d, {(1, 1): X_HAT})
        c = models.algebra_element_c(q, d, {(1, 1): X_HAT})
        out = models.right_action(x, c)
        assert set(out.coeffs) == {(0, 1)}
        assert np.allclose(out.coeffs[(0, 1)], I2 / 2)

    def test_right_action_condition_fails(self, pauli_setup):
        q, d = pauli_setup
        x = models.module_element(q, d, {(1, 1): X_HAT})
        c = models.algebra_element_c(q, d, {(1, 0): X_HAT})
        assert models.right_action(x, c).coeffs == {}

    def test_left_action_matching(self, pauli_setup):
        q, d = pauli_setup
        b = models.algebra_element_b(q, d, {(1, 2): X_HAT})
        x = models.module_element(q, d, {(0, 2): I_HAT})
        out = models.left_action(b, x)
        assert set(out.coeffs) == {(1, 3)}
        assert np.allclose(out.coeffs[(1, 3)], PAULI_X / 2)

    def test_left_action_needs_position_match(self, pauli_setup):
        q, d = pauli_setup
        b = models.algebra_element_b(q, d, {(1, 2): X_HAT})
        x = models.module_element(q, d, {(0, 1): I_HAT})
        assert models.left_action(b, x).coeffs == {}

    def test_rinner(self, pauli_setup):
        q, d = pauli_setup
        x = models.module_element(q, d, {(1, 3): X_HAT})
        y = models.module_element(q, d, {(0, 3): I_HAT})
        out = models.rinner(x, y)
        assert set(out.coeffs) == {(1, 1)}
        assert np.allclose(out.coeffs[(1, 1)], PAULI_X / 2)

    def test_linner(self, pauli_setup):
        q, d = pauli_setup
        x = models.module_element(q, d, {(1, 2): X_HAT})
        y = models.module_element(q, d, {(0, 1): I_HAT})
        out = models.linner(x, y)
        assert set(out.coeffs) == {(1, 1)}
        assert np.allclose(out.coeffs[(1, 1)], PAULI_X / 2)
        miss = models.module_element(q, d, {(1, 1): X_HAT})
        assert models.linner(x, miss).coeffs == {}

    def test_gamma_identity_and_action(self, pauli_setup):
        q, d = pauli_setup
        x = models.module_element(q, d, {(1, 2): X_HAT})
        assert models._distance(models.gamma(0, x), x) == 0.0
        moved = models.gamma(3, x)
        assert set(moved.coeffs) == {(1, q.group.mul(2, q.group.inv(3)))}

    def test_fiber_membership_enforced(self, pauli_setup):
        q, d = pauli_setup
        with pytest.raises(FiberMismatch):
            models.module_element(q, d, {(0, 1): X_HAT})
        with pytest.raises(FiberMismatch):
            models.algebra_element_b(q, d, {(2, 0): X_HAT})  # coset of 2 is 0
        with pytest.raises(FiberMismatch):
            models.algebra_element_c(q, d, {(1, 0): I_HAT})

    def test_keys_outside_the_slot_table_rejected(self, pauli_setup):
        # the values lie in the right fibers; only the keys are out of range
        q, d = pauli_setup
        with pytest.raises(FiberMismatch):
            models.module_element(q, d, {(1, 99): X_HAT})
        with pytest.raises(FiberMismatch):
            models.algebra_element_c(q, d, {(1, 2): X_HAT})
        x = models.module_element(q, d, {(1, 1): X_HAT})
        c = models.algebra_element_c(q, d, {(1, 1): X_HAT})
        with pytest.raises(FiberMismatch):
            x.plus(c)

    def test_quotient_data_mismatch(self, pauli_setup, s3_setup):
        q, d = pauli_setup
        q2, d2 = s3_setup
        x = models.module_element(q, d, {(1, 1): X_HAT})
        y = models.module_element(q2, d2, {(0, 0): d2.fiber(0).basis[0]})
        with pytest.raises(GroupMismatch):
            models.rinner(x, y)


class TestGeneratorCounts:
    def test_generator_counts_match_dimension_formulas(self, pauli_setup, s3_setup):
        for q, d in (pauli_setup, s3_setup):
            dims = models.dimensions(q, d)
            assert len(models.x_generators(q, d)) == dims["dimX"]
            assert len(models.b_generators(q, d)) == dims["dimB"]
            assert len(models.c_generators(q, d)) == dims["dimC"]


class TestUnits:
    def test_unit_supports(self, pauli_setup):
        q, d = pauli_setup
        unit_b, unit_c = models.unit_elements(q, d)
        assert len(unit_b.coeffs) == q.group.order
        assert len(unit_c.coeffs) == q.quotient_group.order

    def test_units_act_as_identities(self, pauli_setup):
        q, d = pauli_setup
        unit_b, unit_c = models.unit_elements(q, d)
        for x in models.x_generators(q, d):
            assert models._distance(models.left_action(unit_b, x), x) <= 1e-12
            assert models._distance(models.right_action(x, unit_c), x) <= 1e-12
        for b in models.b_generators(q, d):
            assert models._distance(models.b_mul(unit_b, b), b) <= 1e-12
            assert models._distance(models.b_mul(b, unit_b), b) <= 1e-12
        for c in models.c_generators(q, d):
            assert models._distance(models.c_mul(unit_c, c), c) <= 1e-12
            assert models._distance(models.c_mul(c, unit_c), c) <= 1e-12

    def test_non_unital_base_rejected(self, z4):
        nilpotent = matrices.orthonormalize(
            [np.array([[0, 1], [0, 0]], dtype=complex)])
        q1 = groups.quotient(z4, (0, 1, 2, 3))
        bad = bundles.GradedBundle(groups.cyclic(1), (nilpotent,))
        with pytest.raises(NonUnitalUnitFiber):
            models.unit_elements(q1, bad)


class TestRealizations:
    def test_realize_b_is_a_star_homomorphism(self, pauli_setup):
        q, d = pauli_setup
        rng = np.random.default_rng(31)
        for _ in range(4):
            b1 = models._random_b(q, d, rng)
            b2 = models._random_b(q, d, rng)
            assert np.allclose(models.realize_b(models.b_mul(b1, b2)),
                               models.realize_b(b1) @ models.realize_b(b2), atol=1e-10)
            assert np.allclose(models.realize_b(models.b_star(b1)),
                               matrices.dagger(models.realize_b(b1)), atol=1e-12)

    def test_realize_c_is_a_star_homomorphism(self, pauli_setup):
        q, d = pauli_setup
        rng = np.random.default_rng(37)
        for _ in range(4):
            c1 = models._random_c(q, d, rng)
            c2 = models._random_c(q, d, rng)
            assert np.allclose(models.realize_c(models.c_mul(c1, c2)),
                               models.realize_c(c1) @ models.realize_c(c2), atol=1e-10)
            assert np.allclose(models.realize_c(models.c_star(c1)),
                               matrices.dagger(models.realize_c(c1)), atol=1e-12)

    def test_realizations_are_faithful(self, pauli_setup):
        q, d = pauli_setup
        dims = models.dimensions(q, d)
        span_b = matrices.orthonormalize(
            [models.realize_b(b) for b in models.b_generators(q, d)])
        span_c = matrices.orthonormalize(
            [models.realize_c(c) for c in models.c_generators(q, d)])
        assert span_b.dim == dims["dimB"]
        assert span_c.dim == dims["dimC"]

    def test_b_realization_spans_pullback_crossed_product(self, pauli_setup):
        # B0 is the crossed product of the pulled-back bundle
        q, d = pauli_setup
        cp = models.crossed_product(bundles.pullback(d, q))
        span_b = matrices.orthonormalize(
            [models.realize_b(b) for b in models.b_generators(q, d)])
        assert models.subspace_equal(span_b, cp.total, tol=1e-9)


class TestVerification:
    def test_pauli_example_passes(self, pauli_setup):
        q, d = pauli_setup
        report = imp.bimodule_check(q, d, tol=1e-8)[0]
        assert report["pass"], report["violations"]
        assert len(report["items"]) == 8
        assert report["items"]["vii_positivity"]["min_relative_eigenvalue"] >= -1e-8

    def test_s3_example_passes(self, s3_setup):
        q, d = s3_setup
        report = imp.bimodule_check(q, d, tol=1e-8)[0]
        assert report["pass"], report["violations"]

    def test_fullness_ranks_are_exact(self, pauli_setup):
        q, d = pauli_setup
        item = imp.bimodule_check(q, d)[0]["items"]["vi_fullness"]
        assert item["rank_b"] == item["dim_b"] == 16
        assert item["rank_c"] == item["dim_c"] == 4

    def test_a_wrong_right_action_fails_the_items_it_enters(self, pauli_setup, monkeypatch):
        # bilinear but wrong: the true right action followed by the translation gamma_1
        q, d = pauli_setup
        true_right = imp.right_action
        monkeypatch.setattr(imp, "right_action", lambda x, c: imp.gamma(1, true_right(x, c)))
        report = imp.bimodule_check(q, d)[0]
        assert not report["pass"]
        failed = {name for name, item in report["items"].items() if not item["pass"]}
        assert failed == {"i_bimodule", "ii_action_compatibility", "v_inner_product_link",
                          "viii_boundedness"}
        assert {v["item"] for v in report["violations"]} == failed

    def test_corrupted_base_bundle_is_caught_at_construction(self, q_z4):
        # a base whose odd fiber is not adjoint-symmetric: the inner products
        # then step outside their declared fibers and membership fails
        e12 = matrices.orthonormalize([np.array([[0, 1], [0, 0]], dtype=complex)])
        line = matrices.orthonormalize([I2])
        bad = bundles.GradedBundle(q_z4.quotient_group, (line, e12))
        x = models.module_element(q_z4, bad, {(1, 1): bad.fiber(1).basis[0]})
        out = models.rinner(x, x)
        with pytest.raises(FiberMismatch):
            models.algebra_element_c(q_z4, bad, dict(out.coeffs))

    def test_corrupted_base_bundle_fails_the_axiom_check(self, q_z4):
        # the same base: the coordinate tables are only faithful on a Fell
        # bundle, so D's grading axioms are checked before any item
        e12 = matrices.orthonormalize([np.array([[0, 1], [0, 0]], dtype=complex)])
        bad = bundles.GradedBundle(q_z4.quotient_group, (matrices.orthonormalize([I2]), e12))
        with pytest.raises(AxiomViolation, match="^grading axiom failed: "):
            imp.bimodule_check(q_z4, bad)

    def test_gamma_equivariance(self, pauli_setup, s3_setup):
        for q, d in (pauli_setup, s3_setup):
            report = imp.bimodule_check(q, d, tol=1e-10)[2]
            assert report["pass"], report["checks"]


class TestMorita:
    def test_pauli_anchor(self, pauli_setup):
        q, d = pauli_setup
        report = imp.bimodule_check(q, d)[1]
        assert report == {"dimB": 16, "dimC": 4, "dimX": 8,
                          "blocksB": 1, "blocksC": 1, "equivalent": True}

    def test_anchor_against_independent_oracle(self, pauli_setup):
        q, d = pauli_setup
        span_b = [models.realize_b(b) for b in models.b_generators(q, d)]
        span_c = [models.realize_c(c) for c in models.c_generators(q, d)]
        assert oracle_block_count(span_b) == 1
        assert oracle_block_count(span_c) == 1
        assert models.dimensions(q, d) == {"dimX": 8, "dimB": 16, "dimC": 4}

    def test_s3_blocks_match(self, s3_setup):
        q, d = s3_setup
        report = imp.bimodule_check(q, d)[1]
        assert report["equivalent"]
        assert report["blocksB"] == report["blocksC"]
        assert report["dimX"] == 12 and report["dimB"] == 36 and report["dimC"] == 4

    def test_full_quotient_toy_case(self, z2, scalar_line):
        # G = Z2, N = G: the quotient group is trivial and C0 is one copy of C
        q = groups.quotient(z2, (0, 1))
        d = bundles.GradedBundle(groups.cyclic(1), (scalar_line,))
        report = imp.bimodule_check(q, d)[1]
        assert report == {"dimB": 4, "dimC": 1, "dimX": 2,
                          "blocksB": 1, "blocksC": 1, "equivalent": True}

    def test_trivial_subgroup_gives_equal_sides(self, z4, trivial_z4):
        q = groups.quotient(z4, (0,))
        report = imp.bimodule_check(q, trivial_z4)[1]
        assert report["dimB"] == report["dimC"] == 16
        assert report["blocksB"] == report["blocksC"]

    def test_dimension_cross_check(self, pauli_setup, s3_setup):
        # dim B0 recomputed through the pull-back bundle
        for q, d in (pauli_setup, s3_setup):
            pulled = q.group.order * bundles.PulledBack(d, q).section_dimension()
            assert pulled == models.dimensions(q, d)["dimB"]


class TestArgumentChecks:
    def test_formulas_reject_arguments_of_the_wrong_kind(self, pauli_setup):
        q, d = pauli_setup
        x = models.x_generators(q, d)[1]
        b = models.b_generators(q, d)[0]
        c = models.c_generators(q, d)[0]
        with pytest.raises(FiberMismatch):
            models.left_action(x, b)
        with pytest.raises(FiberMismatch):
            models.right_action(c, x)
        with pytest.raises(FiberMismatch):
            models.b_mul(b, x)
        with pytest.raises(FiberMismatch):
            models.c_mul(c, b)
        with pytest.raises(FiberMismatch):
            models.rinner(x, b)
        with pytest.raises(FiberMismatch):
            models.linner(c, x)
        with pytest.raises(FiberMismatch):
            models.gamma(1, b)
        with pytest.raises(FiberMismatch):
            models.b_star(x)
        with pytest.raises(FiberMismatch):
            models.c_star(b)
        with pytest.raises(FiberMismatch):
            models.dual_b(1, c)
        with pytest.raises(FiberMismatch):
            models.inflated_dual_c(1, x)

    def test_elements_over_different_base_bundles_rejected(self, pauli_setup):
        # the 4x4 amplification of the Pauli bundle, over the same quotient
        q, d = pauli_setup
        big = bundles.GradedBundle(d.group, tuple(
            matrices.MatrixSubspace(4, np.stack([np.kron(m, I2) / SQ2 for m in f.basis]))
            for f in d.fibers))
        b = models.algebra_element_b(q, d, {(0, 1): I_HAT})
        x = models.module_element(q, big, {(1, 1): np.kron(PAULI_X, I2) / 2})
        with pytest.raises(GroupMismatch):
            models.left_action(b, x)


@pytest.fixture(scope="module")
def morita_cases(q_z4, q_s3, q_a4, pauli_bundle, s3_quotient_bundle, z3_bundle, z2, diag2,
                 m2_full):
    return {"pauli": (q_z4, pauli_bundle), "s3": (q_s3, s3_quotient_bundle),
            "diag": (q_z4, bundles.trivial_bundle(z2, diag2)),
            "m2": (q_z4, bundles.trivial_bundle(z2, m2_full)),
            # sections (0, 1, 2) that are no subgroup; the element loops of
            # positivity and boundedness take about 30 s here, gamma's under 1 s
            "a4": (q_a4, z3_bundle)}


class TestMoritaFromStructureConstants:
    """The block counts read off the b_mul and c_mul tables against the dense routes:
    the commutator oracle on the realized spans of B0 and C0, and the Wedderburn
    count of the ambient crossed product of D."""

    @pytest.mark.parametrize("case, blocks", [("pauli", 1), ("s3", 1), ("diag", 2), ("m2", 1)])
    def test_counts_match_the_dense_routes(self, morita_cases, case, blocks):
        q, d = morita_cases[case]
        report = imp.bimodule_check(q, d)[1]
        dense_b = oracle_block_count([models.realize_b(b) for b in models.b_generators(q, d)])
        dense_c = oracle_block_count([models.realize_c(c) for c in models.c_generators(q, d)])
        crossed_c = models.wedderburn_block_count(models.crossed_product(d).total)
        assert (report["blocksB"], report["blocksC"]) == (dense_b, dense_c) == (blocks, blocks)
        assert crossed_c == blocks
        assert report["equivalent"] is True

    def test_one_check_feeds_both_reports(self, morita_cases, tmp_path, monkeypatch):
        # the command's items, morita and gamma are the three outputs of one check
        _, d = morita_cases["s3"]
        calls, real = [], imp.bimodule_check
        monkeypatch.setattr(imp, "bimodule_check",
                            lambda *args: calls.append(real(*args)) or calls[-1])
        report = run_imprimitivity(tmp_path, d, "symmetric:3", A3)
        assert len(calls) == 1
        items, morita, gamma = calls[0]
        assert report == {"command": "imprimitivity", **items, "morita": morita,
                          "gamma": gamma["pass"]}

    def test_failing_items_raise_before_any_count(self, pauli_setup, tmp_path, monkeypatch):
        # failing items leave the block counts and gamma out of the command's report
        _, d = pauli_setup
        true_right = imp.right_action
        monkeypatch.setattr(imp, "right_action", lambda x, c: imp.gamma(1, true_right(x, c)))
        report = run_imprimitivity(tmp_path, d, "cyclic:4", (0, 2))
        assert report["pass"] is False
        assert "morita" not in report and "gamma" not in report

    def test_zero_base_bundle_has_no_unit(self, q_z4):
        empty = matrices.MatrixSubspace(2, np.zeros((0, 2, 2), dtype=complex))
        zero = bundles.GradedBundle(q_z4.quotient_group, (empty, empty))
        with pytest.raises(NonUnitalUnitFiber):
            imp.bimodule_check(q_z4, zero)


# the element-loop routes that items (vii), (viii) and the gamma report took
# before they were read off tables: each identity is evaluated
# formula by formula on Elements and realized densely, lambda(s) included


def reference_realize_b(b):
    g = b.q.group
    lam = groups.left_regular(g)
    n, m = g.order, b.d.ambient_dim
    out = np.zeros((m * n * n, m * n * n), dtype=complex)
    for (s, t), mat in b.coeffs.items():
        e = np.zeros((n, n), dtype=complex)
        e[g.mul(s, t), t] = 1.0
        out += np.kron(np.kron(mat, lam[s]), e)
    return out


def reference_positivity_and_boundedness(q, d, tol=1e-8, samples=4):
    """Items (vii) and (viii) of `bimodule_check`, on the same random x."""
    rng = np.random.default_rng(29)
    for _ in range(samples):  # the draws of item (i)
        models._random_b(q, d, rng), models._random_x(q, d, rng), models._random_c(q, d, rng)
    for _ in range(samples):  # the draws of item (iv): x1, x2, y, then z1 and z2
        for _ in range(3):
            models._random_x(q, d, rng)
        rng.normal(size=4)
    xs, bs, cs = models.x_generators(q, d), models.b_generators(q, d), models.c_generators(q, d)

    min_eig, pos_ok = 0.0, True
    for x in xs + [models._random_x(q, d, rng) for _ in range(samples)]:
        for mat in (models.realize_c(models.rinner(x, x)), reference_realize_b(models.linner(x, x))):
            mat = (mat + matrices.dagger(mat)) / 2
            w = np.linalg.eigvalsh(mat)
            min_eig = min(min_eig, float(w[0]) / max(1.0, float(np.abs(w).max())))
            pos_ok = pos_ok and models.is_psd(mat, tol)

    res_viii = 0.0
    for b1 in bs:
        nb = matrices.op_norm(reference_realize_b(b1))
        for x in xs:
            bx = models.left_action(b1, x)
            gap = nb * nb * models.realize_c(models.rinner(x, x)) - models.realize_c(models.rinner(bx, bx))
            res_viii = max(res_viii, -float(np.linalg.eigvalsh((gap + matrices.dagger(gap)) / 2)[0]))
    for c1 in cs:
        nc = matrices.op_norm(models.realize_c(c1))
        for x in xs:
            xc = models.right_action(x, c1)
            gap = (nc * nc * reference_realize_b(models.linner(x, x))
                   - reference_realize_b(models.linner(xc, xc)))
            res_viii = max(res_viii, -float(np.linalg.eigvalsh((gap + matrices.dagger(gap)) / 2)[0]))
    return {"vii_positivity": {"pass": pos_ok, "min_relative_eigenvalue": min_eig},
            "viii_boundedness": {"pass": res_viii <= tol, "max_defect": res_viii}}


def reference_gamma_equivariance(q, d, tol=1e-10):
    """The gamma report of `bimodule_check`, group_action on every generator."""
    xs, cs, g = models.x_generators(q, d), models.c_generators(q, d), q.group
    res = dict.fromkeys(["linner_equivariance", "right_action_equivariance", "group_action"], 0.0)
    for r in g.elements():
        for x in xs:
            for y in xs:
                res["linner_equivariance"] = max(res["linner_equivariance"], models._distance(
                    models.linner(models.gamma(r, x), models.gamma(r, y)), models.dual_b(r, models.linner(x, y))))
            for c in cs:
                res["right_action_equivariance"] = max(
                    res["right_action_equivariance"],
                    models._distance(models.gamma(r, models.right_action(x, c)),
                                     models.right_action(models.gamma(r, x), models.inflated_dual_c(r, c))))
            for r2 in g.elements():
                res["group_action"] = max(res["group_action"], models._distance(
                    models.gamma(r, models.gamma(r2, x)), models.gamma(g.mul(r, r2), x)))
    return {name: {"pass": value <= tol, "max_residual": value} for name, value in res.items()}


def assert_same_items(items, reference):
    for name, ref in reference.items():
        assert items[name]["pass"] == ref["pass"], name
        for key, value in ref.items():
            if key != "pass":
                assert abs(items[name][key] - value) <= 1e-12, (name, key)


MORITA_CASES = ["pauli", "s3", "diag", "m2"]


class TestTablesAgainstTheElementLoops:
    """Items (vii), (viii) and the gamma report, read off the slot tables on the
    lambda-free realization, against the element loops on realize_b and realize_c."""

    @pytest.mark.parametrize("case", MORITA_CASES)
    def test_positivity_and_boundedness(self, morita_cases, case):
        q, d = morita_cases[case]
        assert_same_items(imp.bimodule_check(q, d)[0]["items"],
                          reference_positivity_and_boundedness(q, d))

    def test_without_random_samples(self, pauli_setup):
        q, d = pauli_setup
        assert_same_items(imp.bimodule_check(q, d, samples=0)[0]["items"],
                          reference_positivity_and_boundedness(q, d, samples=0))

    def test_positivity_reads_the_same_random_elements(self, pauli_setup, monkeypatch):
        # default_rng(29) is drawn in the same order, so each random x of the check,
        # those of (vii) last, is the one models._random_x draws
        q, d = pauli_setup
        ours, theirs = [], []
        true_random, true_random_x = imp._random, models._random_x

        def recording(rng, dims, width):
            coords = true_random(rng, dims, width)
            if len(dims) == len(models._slots(q, "x")):
                ours.append(coords)
            return coords

        def recording_x(*args):
            x = true_random_x(*args)
            theirs.append(x)
            return x

        monkeypatch.setattr(imp, "_random", recording)
        monkeypatch.setattr(models, "_random_x", recording_x)
        imp.bimodule_check(q, d)
        reference_positivity_and_boundedness(q, d)
        assert len(ours) == len(theirs) == 5 * 4
        for coords, x in zip(ours, theirs):
            for (key, f), c in zip(models._slots(q, "x"), coords):
                assert np.array_equal(d.fiber(f).from_coords(c[:d.fiber(f).dim]), x.coeffs[key])

    @pytest.mark.parametrize("case", [*MORITA_CASES, "a4"])
    def test_gamma_equivariance(self, morita_cases, case):
        q, d = morita_cases[case]
        report = imp.bimodule_check(q, d)[2]
        assert report["pass"]
        assert_same_items(report["checks"], reference_gamma_equivariance(q, d))

    def test_a_wrong_right_action_fails_boundedness_on_both_routes(self, pauli_setup,
                                                                   monkeypatch):
        q, d = pauli_setup
        # the same wrong action on both routes: the slot map and the Element formula
        true_right, true_element_right = imp.right_action, models.right_action
        monkeypatch.setattr(imp, "right_action", lambda x, c: imp.gamma(1, true_right(x, c)))
        monkeypatch.setattr(models, "right_action",
                            lambda x, c: models.gamma(1, true_element_right(x, c)))
        reference = reference_positivity_and_boundedness(q, d)
        assert not reference["viii_boundedness"]["pass"]
        items, _, gamma = imp.bimodule_check(q, d)
        assert_same_items(items["items"], reference)
        assert_same_items(gamma["checks"], reference_gamma_equivariance(q, d))

    def test_a_gamma_that_is_no_action_fails_on_both_routes(self, pauli_setup, monkeypatch):
        # gamma'_r = gamma_min(r, 1): gamma'_1 gamma'_1 = gamma_2, not gamma'_2
        q, d = pauli_setup
        true_gamma, true_element_gamma = imp.gamma, models.gamma
        monkeypatch.setattr(imp, "gamma", lambda r, x: true_gamma(min(r, 1), x))
        monkeypatch.setattr(models, "gamma", lambda r, x: true_element_gamma(min(r, 1), x))
        report = imp.bimodule_check(q, d)[2]
        reference = reference_gamma_equivariance(q, d)
        assert not report["checks"]["group_action"]["pass"]
        assert not reference["group_action"]["pass"]
        assert_same_items(report["checks"], reference)

    @pytest.mark.parametrize("case", ["pauli", "s3"])
    def test_a_dual_translation_ignoring_r_fails_on_both_routes(self, morita_cases, case,
                                                               monkeypatch):
        q, d = morita_cases[case]
        monkeypatch.setattr(imp, "dual_b", lambda r, b: b)
        monkeypatch.setattr(models, "dual_b", lambda r, b: b)
        report = imp.bimodule_check(q, d)[2]
        reference = reference_gamma_equivariance(q, d)
        assert not report["checks"]["linner_equivariance"]["pass"]
        assert not reference["linner_equivariance"]["pass"]
        assert {v["axiom"] for v in report["violations"]} == {"linner_equivariance"}
        assert_same_items(report["checks"], reference)


class TestLambdaFreeRealization:
    """B0 as d (x) E_{st,t} on C^m (x) l^2(G), the realization the checks read."""

    @staticmethod
    def realize(q, d, b):
        return imp._realize(q.group, b.coeffs, d.ambient_dim)

    @pytest.mark.parametrize("case", MORITA_CASES)
    def test_is_a_star_homomorphism(self, morita_cases, case):
        q, d = morita_cases[case]
        rng = np.random.default_rng(41)
        for _ in range(3):
            b1, b2 = models._random_b(q, d, rng), models._random_b(q, d, rng)
            r1, r2 = self.realize(q, d, b1), self.realize(q, d, b2)
            assert np.abs(self.realize(q, d, models.b_mul(b1, b2)) - r1 @ r2).max() <= 1e-12
            assert np.abs(self.realize(q, d, models.b_star(b1)) - matrices.dagger(r1)).max() <= 1e-12

    @pytest.mark.parametrize("case", MORITA_CASES)
    def test_is_faithful(self, morita_cases, case):
        q, d = morita_cases[case]
        span = matrices.orthonormalize([self.realize(q, d, b) for b in models.b_generators(q, d)])
        assert span.dim == models.dimensions(q, d)["dimB"]

    @pytest.mark.parametrize("case", MORITA_CASES)
    def test_realize_b_has_its_spectrum_taken_g_times(self, morita_cases, case):
        q, d = morita_cases[case]
        rng = np.random.default_rng(43)
        xs = models.x_generators(q, d)[:3] + [models._random_x(q, d, rng) for _ in range(3)]
        for x in xs:
            inner = models.linner(x, x)
            small, dense = self.realize(q, d, inner), models.realize_b(inner)
            w_small = np.linalg.eigvalsh((small + matrices.dagger(small)) / 2)
            w_dense = np.linalg.eigvalsh((dense + matrices.dagger(dense)) / 2)
            scale = max(1.0, float(np.abs(w_dense).max()))
            assert np.abs(np.repeat(w_small, q.group.order) - w_dense).max() <= 1e-12 * scale

    @pytest.mark.parametrize("case", MORITA_CASES)
    def test_realize_b_is_the_kron_loop_bit_for_bit(self, morita_cases, case):
        q, d = morita_cases[case]
        rng = np.random.default_rng(47)
        for b in models.b_generators(q, d)[:4] + [models._random_b(q, d, rng)]:
            assert np.array_equal(models.realize_b(b), reference_realize_b(b))


# the slot tables of `bimodule_check` against the Element model they replaced


FORMULAS = {"b_mul": "bbb", "c_mul": "ccc", "left_action": "bxx", "right_action": "xcx",
            "linner": "xxb", "rinner": "xxc"}


def live_coordinates(q, d, kind):
    """Which padded coordinates (slot, i) of `kind` are coordinates of a fiber."""
    k = max(f.dim for f in d.fibers)
    return np.array([i < d.fiber(f).dim for _, f in models._slots(q, kind) for i in range(k)])


def densified(t, live_a, live_b, live_out):
    """A slot table as the dense table of `models._table`: (|a|, |b|, dim)."""
    k = t.blocks.shape[-1]
    out = np.zeros((len(t.fa), k, len(t.fb), k, t.size, k), dtype=complex)
    out[t.a, :, t.b, :, t.out] = t.blocks
    return out.reshape(len(live_a), len(live_b), len(live_out))[np.ix_(live_a, live_b, live_out)]


def densified_map(target, blocks, live):
    """A map of slots with a block per slot as the coordinate matrix of the moved generators."""
    n, k = len(target), blocks.shape[-1]
    out = np.zeros((n, k, n, k), dtype=complex)
    out[np.arange(n), :, target] = blocks
    return out.reshape(len(live), len(live))[np.ix_(live, live)]


@pytest.fixture(scope="module")
def slot_cases(morita_cases, m2_full):
    """The Morita cases, and M2 over Z6/{0, 3} = Z3 with each fiber in its own random
    basis: there l^-1 differs from l, and no two fibers share structure constants."""
    rng = np.random.default_rng(53)
    z3 = bundles.trivial_bundle(groups.cyclic(3), m2_full)
    fibers = []
    for f in z3.fibers:
        mix = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        fibers.append(matrices.MatrixSubspace(f.ambient_dim, np.tensordot(mix, f.basis, (1, 0))))
    return {**morita_cases, "m2_z3": (groups.quotient(groups.cyclic(6), (0, 3)),
                                      bundles.GradedBundle(groups.cyclic(3), tuple(fibers)))}


SLOT_CASES = MORITA_CASES + ["m2_z3"]


def built_tables(q, d, monkeypatch):
    """The six slot tables one `bimodule_check` builds, by formula name."""
    tables, real = {}, imp._slot_table
    monkeypatch.setattr(imp, "_slot_table",
                        lambda f, *args: tables.setdefault(f.__name__, real(f, *args)))
    imp.bimodule_check(q, d)
    return tables


class TestSlotTablesAgainstTheElementModel:

    @pytest.mark.parametrize("case", SLOT_CASES)
    def test_each_table_is_the_dense_formula_table(self, slot_cases, case, monkeypatch):
        q, d = slot_cases[case]
        tables = built_tables(q, d, monkeypatch)
        assert set(tables) == set(FORMULAS)
        gens = {"x": models.x_generators(q, d), "b": models.b_generators(q, d),
                "c": models.c_generators(q, d)}
        for name, (ka, kb, ko) in FORMULAS.items():
            slot = densified(tables[name], *(live_coordinates(q, d, kind) for kind in (ka, kb, ko)))
            dense = models._table(getattr(models, name), gens[ka], gens[kb])
            assert slot.shape == dense.shape and np.abs(slot - dense).max() <= 1e-12, name

    @pytest.mark.parametrize("case", SLOT_CASES)
    def test_adjoints_and_translations_are_the_dense_maps(self, slot_cases, case):
        q, d = slot_cases[case]
        g = imp._groups(q)
        _, invol, _, _ = imp._padded(d, g, matrices.DEFAULT_TOL)
        k = invol.shape[-1]
        for kind, star, element_star in (("b", imp.b_star, models.b_star),
                                         ("c", imp.c_star, models.c_star)):
            slots, live = imp._all_slots(g, kind), live_coordinates(q, d, kind)
            gens = models._generators(kind, q, d)
            slot = densified_map(star(slots).index, invol[slots.fiber], live)
            assert np.abs(slot - models._coords([element_star(e) for e in gens])).max() <= 1e-12
        for kind, move, element_move in (("x", imp.gamma, models.gamma),
                                         ("b", imp.dual_b, models.dual_b),
                                         ("c", imp.inflated_dual_c, models.inflated_dual_c)):
            slots, live = imp._all_slots(g, kind), live_coordinates(q, d, kind)
            gens = models._generators(kind, q, d)
            for r in q.group.elements():
                slot = densified_map(move(r, slots).index,
                                     np.broadcast_to(np.eye(k), (len(slots.first), k, k)), live)
                dense = models._coords([element_move(r, e) for e in gens])
                assert np.abs(slot - dense).max() <= 1e-12, (kind, r)

    def test_the_generic_case_passes(self, slot_cases):
        # M2 tensor C*(Z3) crossed by the dual coaction is one matrix block
        q, d = slot_cases["m2_z3"]
        items, morita, gamma = imp.bimodule_check(q, d)
        assert items["pass"] and gamma["pass"]
        assert morita["blocksB"] == morita["blocksC"] == 1

    def test_a_base_failing_its_axioms_raises_before_any_table(self, q_z4, monkeypatch):
        e12 = matrices.orthonormalize([np.array([[0, 1], [0, 0]], dtype=complex)])
        bad = bundles.GradedBundle(q_z4.quotient_group, (matrices.orthonormalize([I2]), e12))
        built = []
        monkeypatch.setattr(imp, "_slot_table", lambda *args: built.append(args))
        with pytest.raises(AxiomViolation, match="^grading axiom failed: "):
            imp.bimodule_check(q_z4, bad)
        assert built == []
