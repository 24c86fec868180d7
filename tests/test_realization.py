"""The block realization and the multiplier-family checker against their dense
loops.

`reference_concretize` is the left regular representation as first written:
every image assembled block by block in M_d and every fiber orthonormalized.
`reference_verify_multiplier_family` is the family check as first written: one
dense product per basis element and subgroup element. `bundles.concretize`
keeps the blocks and `bundles.verify_multiplier_family` reads the family off
coordinates, on a dense grading or on a Realization; both must reach the same
verdicts as these references.
"""

import numpy as np
import pytest

from fellbundles import bundles, cli, duality, groups, matrices
from fellbundles.errors import DegenerateFunctional
from fellbundles.matrices import DEFAULT_TOL, ResidualReport, dagger, hs_norm, op_norm

import models
from conftest import PAULI_X, PAULI_Y, PAULI_Z
from test_cli import transformation_system_spec
from test_duality import LADDER, ladder_action, s3_signed_action  # noqa: F401


def reference_concretize(b, tol=DEFAULT_TOL):
    """(images, bundle): images[s] stacks the dense R(x_a), bundle orthonormalizes them."""
    g, dims = b.group, b.dims
    offs = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    d = int(offs[-1])
    roots, root_invs = [], []
    for s in g.elements():
        gram = bundles._gram_block(b, s)
        gram = (gram + dagger(gram)) / 2
        if gram.shape[0] == 0:
            roots.append(gram)
            root_invs.append(gram)
            continue
        w, v = np.linalg.eigh(gram)
        if w[0] <= tol * max(1.0, float(w[-1])):
            raise DegenerateFunctional(f"Gram block at element {s} has eigenvalue {w[0]:.3g}")
        roots.append((v * np.sqrt(w)) @ dagger(v))
        root_invs.append((v / np.sqrt(w)) @ dagger(v))
    images = []
    for s in g.elements():
        fiber_imgs = []
        for a in range(dims[s]):
            m = np.zeros((d, d), dtype=complex)
            for t in g.elements():
                if dims[t] == 0:
                    continue
                st = g.mul(s, t)
                m[offs[st]:offs[st + 1], offs[t]:offs[t + 1]] = (
                    roots[st] @ b.prod[(s, t)][a].T @ root_invs[t])
            fiber_imgs.append(m)
        images.append(np.array(fiber_imgs, dtype=complex).reshape(dims[s], d, d))
    fibers = []
    for s in g.elements():
        fibers.append(matrices.orthonormalize(list(images[s]), ambient_dim=d, tol=tol))
        if fibers[-1].dim != dims[s]:
            raise DegenerateFunctional(
                f"fiber {s} collapsed from {dims[s]} to {fibers[-1].dim} dimensions")
    return images, bundles.GradedBundle(g, tuple(fibers))


def reference_verify_multiplier_family(u, tol=DEFAULT_TOL):
    """The per-element loops, on a dense grading."""
    bundle, g = u.bundle, u.bundle.group
    dom = groups.NormalSubgroup(g, u.domain).members
    rep = ResidualReport(tol, "homomorphism", "unit_acts_trivially", "order_compatibility",
                         "covariance")
    hom_res = max(bundles._hom_residual(g, dom, u.mat),
                  *(hs_norm(dagger(u.mat(n)) - u.mat(g.inv(n))) for n in dom))
    rep.residuals("homomorphism", hom_res)
    unit_res = 0.0
    ue = u.mat(0)
    for s in g.elements():
        for a in bundle.fiber(s).basis_list():
            unit_res = max(unit_res, hs_norm(ue @ a - a), hs_norm(a @ ue - a))
    rep.residuals("unit_acts_trivially", unit_res)
    order_res = 0.0
    for n in dom:
        for t in g.elements():
            ft = bundle.fiber(t).basis
            order_res = max(order_res,
                            float(bundle.fiber(g.mul(n, t)).decompose(u.mat(n) @ ft)[1].max(
                                initial=0.0)),
                            float(bundle.fiber(g.mul(t, n)).decompose(ft @ u.mat(n))[1].max(
                                initial=0.0)))
    rep.residuals("order_compatibility", order_res)
    cov_res = 0.0
    for s in g.elements():
        for n in dom:
            un_conj = u.mat(g.conjugate(s, n))
            for a in bundle.fiber(s).basis_list():
                cov_res = max(cov_res, hs_norm(a @ u.mat(n) - un_conj @ a))
    rep.residuals("covariance", cov_res)
    return rep.build()


ACTIONS = ["twisted_z4_action", "swap_action", "s3_signed_action", "inner_z4_action", *LADDER,
           "z3.all"]


@pytest.fixture(scope="module")
def inner_z4_action(z4, m2_full):
    """alpha_s = Ad(V^s), V = diag(1, i), twisted over {0, 2} by I and V^2."""
    powers = [np.linalg.matrix_power(np.diag([1.0 + 0j, 1j]), s) for s in range(4)]
    alpha = models.action_by_automorphisms(
        m2_full, z4, [lambda m, p=p: p @ m @ dagger(p) for p in powers])
    return bundles.TwistedAction(m2_full, z4, groups.NormalSubgroup(z4, (0, 2)), alpha,
                                 {0: np.eye(2, dtype=complex), 2: powers[2]})


def z3_corners():
    """diag, E12 and E21 graded by Z3: the blocks of R(E12) have norms 1, 0 and 1."""
    unit = np.eye(2, dtype=complex)
    return bundles.GradedBundle(groups.cyclic(3), tuple(
        matrices.orthonormalize(list(m)) for m in
        ([unit[:, [0]] @ unit[[0]], unit[:, [1]] @ unit[[1]]], [unit[:, [0]] @ unit[[1]]],
         [unit[:, [1]] @ unit[[0]]])))


# Z3 on a point with N = Z3: abelian, so a complex character of N keeps the family valid
SYSTEMS = {**LADDER, "z3.all": (groups.cyclic, 3, (0, 1, 2))}


def z2_point_and_block():
    """C + M_2 inside M_3, graded by Z2 (diagonal / off-diagonal of the M_2 block):
    the Gram of R on the unit fiber is diag(1, 2, 2), on the other fiber 2 I."""
    e = np.eye(3, dtype=complex)
    unit = [e[:, [i]] @ e[[j]] for i, j in ((0, 0), (1, 1), (2, 2))]
    return bundles.GradedBundle(groups.cyclic(2), (
        matrices.orthonormalize(unit), matrices.orthonormalize([e[:, [1]] @ e[[2]],
                                                                e[:, [2]] @ e[[1]]])))


def action(name, request):
    if name in SYSTEMS:
        make, n, normal = SYSTEMS[name]
        return ladder_action(make(n), normal)
    return request.getfixturevalue(name)


ABSTRACT = {
    "twisted_z4": lambda fx: fx("twisted_z4_bundle"),
    "abstract_pauli": lambda fx: bundles.abstract_from_graded(fx("pauli_bundle")),
    "abstract_pauli_pullback": lambda fx: bundles.abstract_from_graded(fx("pauli_pullback")),
    "abstract_trivial_s3": lambda fx: bundles.abstract_from_graded(fx("trivial_s3")),
    "abstract_z3_corners": lambda fx: bundles.abstract_from_graded(z3_corners()),
    "abstract_z2_point_and_block": lambda fx: bundles.abstract_from_graded(z2_point_and_block()),
    "quotient_pauli_pullback": lambda fx: bundles.quotient_bundle(
        fx("pauli_pullback"), bundles.canonical_multiplier_family(fx("pauli_pullback"),
                                                                  fx("q_z4")), fx("q_z4")),
    **{f"semidirect_{name}": lambda fx, name=name: bundles.semidirect_bundle(fx(name))
       for name in ACTIONS},
    **{f"twisted_{name}": lambda fx, name=name: bundles.twisted_semidirect_bundle(fx(name))
       for name in ACTIONS},
}


@pytest.fixture(params=sorted(ABSTRACT))
def abstract(request):
    return ABSTRACT[request.param](lambda name: action(name, request))


class TestBlockRealization:
    def test_views_agree_with_the_dense_loop(self, abstract):
        real = bundles.concretize(abstract)
        ref_images, ref_bundle = reference_concretize(abstract)
        assert ref_bundle.fiber_dims() == abstract.dims
        assert real.section_dimension() == ref_bundle.section_dimension()
        assert len(real.images) == abstract.group.order
        for s in abstract.group.elements():
            assert np.allclose(real.images[s], ref_images[s], rtol=0, atol=1e-12)
            assert np.allclose(real.bundle.fiber(s).basis, ref_bundle.fiber(s).basis,
                               rtol=0, atol=1e-12)
            assert np.allclose(real.op_norms(s), op_norm(ref_images[s]), rtol=0, atol=1e-12)
            flat = ref_images[s].reshape(abstract.dims[s], -1)
            assert np.allclose(real.gram(s), flat.conj() @ flat.T, rtol=0, atol=1e-12)

    def test_the_views_are_built_on_first_use(self, twisted_z4_bundle):
        real = bundles.concretize(twisted_z4_bundle)
        assert "bundle" not in vars(real) and real._images == {}
        first = real.fiber_images(1)
        assert set(real._images) == {1} and real.fiber_images(1) is first
        assert real.images[1] is first and set(real._images) == {0, 1}
        assert real.bundle is real.bundle and "bundle" in vars(real)

    def test_a_family_matrix_is_read_back_in_coordinates(self, twisted_z4_bundle):
        real = bundles.concretize(twisted_z4_bundle)
        c = np.array([0.5 - 2j])
        coords, res = real.coords_in(1, np.tensordot(c, real.images[1], axes=(0, 0)))
        assert np.allclose(coords, c, rtol=0, atol=1e-12) and res <= 1e-15


def collapsing_line_pair():
    """C^2 over the trivial group, with funct weights (1, lam) and the basis
    x_0, x_1 = (1, +-1/sqrt(lam))/sqrt(2): the Gram funct(x_a* x_b) is the
    identity, yet R(x_0) and R(x_1) are nearly parallel (condition 1/sqrt(lam))."""
    lam = 1e-6
    x = np.array([[1.0, 1.0 / np.sqrt(lam)], [1.0, -1.0 / np.sqrt(lam)]]) / np.sqrt(2)
    prod = np.linalg.solve(x.T, (x[:, None, :] * x[None, :, :]).reshape(4, 2).T).T
    funct = x @ np.array([1.0, lam])
    return bundles.AbstractBundle(groups.cyclic(1), (2,), {(0, 0): prod.reshape(2, 2, 2) + 0j},
                                  (np.eye(2, dtype=complex),), funct + 0j)


@pytest.mark.parametrize("case", ["dead_functional", "collapsed_fiber"])
def test_the_same_degenerate_functional_is_raised(case, pauli_bundle):
    if case == "dead_functional":
        ab = bundles.abstract_from_graded(pauli_bundle)
        bad, tol = bundles.AbstractBundle(ab.group, ab.dims, ab.prod, ab.invol,
                                          np.zeros_like(ab.funct)), DEFAULT_TOL
    else:
        bad, tol = collapsing_line_pair(), 1e-2
    with pytest.raises(DegenerateFunctional) as ref:
        reference_concretize(bad, tol)
    with pytest.raises(DegenerateFunctional) as new:
        bundles.concretize(bad, tol)
    assert str(new.value) == str(ref.value)
    if case == "collapsed_fiber":
        assert str(new.value) == "fiber 0 collapsed from 2 to 1 dimensions"
        bundles.concretize(bad, 1e-4)  # above the cut the two directions survive


# every family the suite checks: on a grading, or induced on a realization


def failing(report):
    return sorted(name for name, c in report["checks"].items() if not c["pass"])


def assert_same_verdict(new, ref, residuals=True):
    """Same pass and failing checks; on an orthonormal basis a passing check
    also keeps its residual."""
    assert new["pass"] == ref["pass"]
    assert failing(new) == failing(ref)
    if residuals:
        for name, c in ref["checks"].items():
            if c["pass"]:
                assert abs(new["checks"][name]["max_residual"] - c["max_residual"]) <= 1e-12


def graded_families(fx):
    p, q = fx("pauli_pullback"), fx("q_z4")
    canon = bundles.canonical_multiplier_family(p, q)
    eye = np.eye(8, dtype=complex)
    triv = bundles.canonical_multiplier_family(fx("trivial_z4"), q)
    return {
        "canonical": canon,
        "doubled": bundles.UnitaryMultiplierFamily(p, canon.domain,
                                                   {0: canon.mat(0), 2: 2.0 * canon.mat(2)}),
        "identity": bundles.UnitaryMultiplierFamily(p, canon.domain, {0: eye, 2: eye}),
        "trivial_z4": triv,
        "sign_twisted": bundles.UnitaryMultiplierFamily(triv.bundle, triv.domain,
                                                        {0: triv.mat(0), 2: -triv.mat(2)}),
    }


@pytest.mark.parametrize("name", ["canonical", "doubled", "identity", "trivial_z4",
                                  "sign_twisted"])
def test_graded_families_match_the_loops(name, request):
    fam = graded_families(request.getfixturevalue)[name]
    assert_same_verdict(bundles.verify_multiplier_family(fam),
                        reference_verify_multiplier_family(fam))


def character(g, dom):
    """A faithful character of the cyclic group dom: r^k -> exp(2 pi i k / |dom|)."""
    for r in dom:
        powers = [0]
        while len(powers) < len(dom) and g.mul(powers[-1], r) != 0:
            powers.append(g.mul(powers[-1], r))
        if len(powers) == len(dom):
            return {p: np.exp(2j * np.pi * k / len(dom)) for k, p in enumerate(powers)}
    raise AssertionError("not cyclic")


def induced(name, request, variant="plain"):
    """The induced family of a system, as is, with its last element doubled, or
    times a character of N (complex over A3, so its coordinates are complex)."""
    t = action(name, request)
    real = bundles.concretize(bundles.semidirect_bundle(t))
    fam = duality.induced_multiplier_family(t, real)
    mats = dict(fam.mats)
    if variant == "doubled":
        n = max(fam.domain)
        mats[n] = 2.0 * mats[n]
    elif variant == "phased":
        chi = character(t.group, fam.domain)
        mats = {n: chi[n] * m for n, m in mats.items()}
    return real, mats, fam.domain


def images_reference(real, mats, dom):
    """The residuals a Realization host reports, from dense products of its images:
    each gap over |R(x_a)|_HS, and the distance of U(n) from fiber n's span."""
    g = real.group
    unit = cov = order = 0.0
    for s in g.elements():
        for x in real.images[s]:
            nx = hs_norm(x)
            unit = max(unit, hs_norm(mats[0] @ x - x) / nx, hs_norm(x @ mats[0] - x) / nx)
            for n in dom:
                cov = max(cov, hs_norm(x @ mats[n] - mats[g.conjugate(s, n)] @ x) / nx)
    for n in dom:
        order = max(order, float(real.bundle.fiber(n).decompose(mats[n])[1]))
    return {"unit_acts_trivially": unit, "order_compatibility": order, "covariance": cov}


@pytest.mark.parametrize("variant", ["plain", "doubled", "phased"])
@pytest.mark.parametrize("name", ACTIONS)
def test_induced_families_match_the_loops_on_both_hosts(name, variant, request):
    real, mats, dom = induced(name, request, variant)
    on_real = bundles.UnitaryMultiplierFamily(real, dom, mats)
    on_bundle = bundles.UnitaryMultiplierFamily(real.bundle, dom, mats)
    ref = reference_verify_multiplier_family(on_bundle)
    if variant != "phased" or name == "z3.all":
        assert ref["pass"] == (variant != "doubled")
    assert_same_verdict(bundles.verify_multiplier_family(on_bundle), ref)
    new = bundles.verify_multiplier_family(on_real)
    assert_same_verdict(new, ref, residuals=False)
    for check, value in images_reference(real, mats, dom).items():
        got = new["checks"][check]["max_residual"]
        assert abs(got - value) <= 1e-12 * max(1.0, value), check


@pytest.mark.parametrize("make", [z3_corners, z2_point_and_block])
def test_residuals_on_an_inhomogeneous_realization(make):
    # U(n) = the sum of fiber n's images: not a family, but its gaps, such as
    # [R(E11), R(E12)] = R(E12), are nonzero, and the fibers' Grams differ
    real = bundles.concretize(bundles.abstract_from_graded(make()))
    dom = tuple(real.group.elements())
    mats = {n: real.images[n].sum(axis=0) for n in dom}
    new = bundles.verify_multiplier_family(bundles.UnitaryMultiplierFamily(real, dom, mats))
    ref = images_reference(real, mats, dom)
    assert ref["covariance"] > 0.1 and ref["unit_acts_trivially"] <= 1e-12
    for check, value in ref.items():
        got = new["checks"][check]["max_residual"]
        assert abs(got - value) <= 1e-12 * max(1.0, value), check


def test_covariance_gaps_are_read_through_each_fibers_frame():
    # Pauli's grading of M2 by Z2 x Z2 (I, X, Z, Y), realized with the basis element
    # of fiber 2 doubled, so the Grams of fibers 2 and 3 differ by 4; a gap of
    # a U(n) in A_sn is measured in fiber sn's frame against a in fiber s's.
    # X anticommutes with Z and Y: n -> X^n fails covariance by |2 aX| / |a| = 2
    g = models.direct_product(groups.cyclic(2), groups.cyclic(2))
    fibers = [matrices.MatrixSubspace(2, m[None] / np.sqrt(2))
              for m in (np.eye(2), PAULI_X, PAULI_Z, PAULI_Y)]
    b = bundles.abstract_from_graded(bundles.GradedBundle(g, tuple(fibers)))
    w = (1.0, 1.0, 2.0, 1.0)
    prod = {(s, t): p * w[s] * w[t] / w[g.mul(s, t)] for (s, t), p in b.prod.items()}
    invol = tuple(v * w[s] / w[g.inv(s)] for s, v in enumerate(b.invol))
    real = bundles.concretize(bundles.AbstractBundle(g, b.dims, prod, invol, b.funct))
    assert abs(real.gram(2)[0, 0] - 4 * real.gram(3)[0, 0]) <= 1e-12
    mats = {n: np.sqrt(2) * real.fiber_images(n)[0] for n in (0, 1)}
    for host in (real, real.bundle):
        fam = bundles.UnitaryMultiplierFamily(host, (0, 1), mats)
        report = bundles.verify_multiplier_family(fam)
        assert failing(report) == ["covariance"]
        assert abs(report["checks"]["covariance"]["max_residual"] - 2.0) <= 1e-12


def test_a_phased_family_can_fail_covariance_alone(request):
    # conjugation by an odd permutation swaps the 3-cycles, which the character tells apart
    real, mats, dom = induced("s3.a3", request, "phased")
    for host in (real, real.bundle):
        report = bundles.verify_multiplier_family(bundles.UnitaryMultiplierFamily(host, dom, mats))
        assert failing(report) == ["covariance"]


@pytest.mark.parametrize("name", ["twisted_z4_action", "s3_signed_action", "d4.center"])
def test_a_family_element_off_its_fiber_fails_on_both_hosts(name, request):
    real, mats, dom = induced(name, request)
    n = max(dom)
    # X: a unit direction HS-orthogonal to the images of fiber n
    images = real.images[n].reshape(len(real.images[n]), -1)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(images.shape[1]) + 1j * rng.standard_normal(images.shape[1])
    q, _ = np.linalg.qr(images.T)
    x = x - q @ (q.conj().T @ x)
    x = (x / np.linalg.norm(x)).reshape(mats[n].shape)
    assert np.abs(images.conj() @ x.ravel()).max() <= 1e-12
    moved = {**mats, n: mats[n] + 1e-6 * x}
    for host in (real, real.bundle):
        report = bundles.verify_multiplier_family(bundles.UnitaryMultiplierFamily(host, dom, moved))
        assert "order_compatibility" in failing(report), host
        if host is real:  # there it is the distance of U(n) from fiber n's span
            got = report["checks"]["order_compatibility"]["max_residual"]
            expected = images_reference(real, moved, dom)["order_compatibility"]
            assert abs(got - expected) <= 1e-12 * expected


def test_olesen_pedersen_builds_dense_images_only_over_n(tmp_path, monkeypatch, capsys):
    # D4 on D4/{0,2}: the semidirect realization (over D4, order 8) never builds
    # its dense grading, and builds dense images only for the fibers in N
    spec = transformation_system_spec(tmp_path / "ts_d4.json", "dihedral", 4, (0, 2))
    made = []
    build = duality.concretize

    def recorded(b, tol=DEFAULT_TOL):
        made.append(build(b, tol))
        return made[-1]

    monkeypatch.setattr(duality, "concretize", recorded)
    assert cli.run_command(["olesen-pedersen", spec]) == 0
    capsys.readouterr()
    semi = [r for r in made if r.group.order == 8]
    assert len(semi) == 1 and len(made) == 2
    assert "bundle" not in vars(semi[0])
    assert set(semi[0]._images) == {0, 2}
