"""Fell bundles over finite groups as gradings of a matrix algebra.

A GradedBundle assigns a subspace of one ambient M_n(C) to every group
element; the Fell axioms (product closure, adjoint symmetry, independence,
unit-fiber algebra, C*-identity) are machine-checked by verify_fell_axioms.

An AbstractBundle carries the same data as structure constants plus a
faithful positive functional on the unit fiber; concretize() turns it back
into matrices through the left regular representation. The constructions in
between (trivial, pullback, twisted semidirect, quotient by a multiplier
family) are the substance of the toolkit; the semidirect bundle of an action
is its twisted semidirect bundle over N = {e}.

A map between gradings (a bundle isomorphism, or a realization matched with
prescribed images) is evaluated once per basis element of its source, plus
random combinations that witness its linearity. `homomorphism_residuals`
then compares the images of products and adjoints, read off the source's
structure constants, with the products and adjoints of the images. A map
into a pull-back lands in a PulledBack, whose elements a stand for
a (x) lambda(s): it is checked on the small factor a, and `pullback` builds
the dense grading only when asked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AxiomViolation,
    DegenerateFunctional,
    GroupMismatch,
    InvalidAction,
    InvalidMultiplierFamily,
    InvalidTwist,
    NonUnitalUnitFiber,
    NotAnAlgebra,
    NotASubgroup,
    NotNormal,
    NotUnital,
    ShapeMismatch,
)
from .groups import FiniteGroup, NormalSubgroup, Quotient, cyclic, left_regular, quotient
from .matrices import (
    DEFAULT_TOL,
    MatrixSubspace,
    ResidualReport,
    dagger,
    hs_norm,
    is_star_closed,
    multiplication_tensor,
    op_norm,
    orthonormalize,
    product_coords,
    require,
    unit_element,
)


@dataclass(frozen=True)
class GradedBundle:
    """A grading of M_n(C) indexed by the elements of a finite group."""

    group: FiniteGroup
    fibers: tuple[MatrixSubspace, ...]

    def __post_init__(self) -> None:
        if len(self.fibers) != self.group.order:
            raise ShapeMismatch(
                f"{len(self.fibers)} fibers for a group of order {self.group.order}"
            )
        dims = {f.ambient_dim for f in self.fibers}
        if len(dims) != 1:
            raise ShapeMismatch(f"fibers live in different ambients: {sorted(dims)}")

    @property
    def ambient_dim(self) -> int:
        return self.fibers[0].ambient_dim

    def fiber(self, s: int) -> MatrixSubspace:
        return self.fibers[s]

    def section_dimension(self) -> int:
        return sum(f.dim for f in self.fibers)

    def fiber_dims(self) -> tuple[int, ...]:
        return tuple(f.dim for f in self.fibers)

    @property
    def hs_factor(self) -> float:
        """HS norm of the element a fiber matrix stands for, over the matrix's own:
        1, as a grading's matrices are its elements (a PulledBack's is sqrt|G|)."""
        return 1.0


@dataclass(frozen=True)
class PulledBack:
    """The pull-back of a bundle over G/N along G -> G/N, kept on its small factor.

    Its fiber over s is base.fiber(sN), and an element a of it stands for
    a (x) lambda(s) in M_{n|G|}. The lambda identities hold exactly there:
    (a (x) lambda_s)(b (x) lambda_t) = ab (x) lambda_st,
    (a (x) lambda_s)* = a* (x) lambda_{s^-1}, |a (x) lambda_s|_op = |a|_op and
    |a (x) lambda_s|_HS = sqrt|G| |a|_HS. So a map into the pull-back is
    checked on its small images, with HS residuals scaled by hs_factor.
    dense() builds the grading itself.
    """

    base: GradedBundle
    q: Quotient

    def __post_init__(self) -> None:
        if self.base.group.table != self.q.quotient_group.table:
            raise GroupMismatch("bundle is not graded by the quotient group of q")

    @property
    def group(self) -> FiniteGroup:
        return self.q.group

    @property
    def ambient_dim(self) -> int:
        return self.base.ambient_dim

    @property
    def hs_factor(self) -> float:
        return float(np.sqrt(self.group.order))

    def fiber(self, s: int) -> MatrixSubspace:
        return self.base.fiber(self.q.coset_of[s])

    def fiber_dims(self) -> tuple[int, ...]:
        return tuple(self.fiber(s).dim for s in self.group.elements())

    def section_dimension(self) -> int:
        return sum(self.fiber_dims())

    def dense(self) -> GradedBundle:
        """fiber(s) = base.fiber(sN) (x) lambda(s) / sqrt|G| in M_{n|G|}, an
        orthonormal basis in the base's index order, so generator maps between
        the base and the pull-back are index-aligned."""
        g = self.group
        lam = left_regular(g)
        n = self.ambient_dim * g.order
        scale = 1.0 / self.hs_factor
        return GradedBundle(g, tuple(MatrixSubspace(n, np.kron(self.fiber(s).basis, lam[s]) * scale)
                                     for s in g.elements()))


def same_bundle(a: GradedBundle, b: GradedBundle) -> bool:
    """One object, or the same group table and identical fiber bases."""
    if a is b:
        return True
    if a.group.table != b.group.table or a.ambient_dim != b.ambient_dim:
        return False
    return all(np.array_equal(fa.basis, fb.basis) for fa, fb in zip(a.fibers, b.fibers))


def unit_fiber_unit(bundle: GradedBundle, tol: float) -> np.ndarray:
    """The unit of fiber(e); NonUnitalUnitFiber if it has none."""
    try:
        return unit_element(bundle.fiber(0), tol)
    except NotUnital as exc:
        raise NonUnitalUnitFiber(str(exc)) from exc


def _worst(res: np.ndarray) -> float:
    """Largest of a stack of residuals, 0.0 for an empty stack."""
    return float(res.max(initial=0.0))


def _hom_residual(g: FiniteGroup, members, m) -> float:
    """max |m(x) m(y) - m(xy)|_HS over x, y in members, a subgroup of g."""
    return max((hs_norm(m(x) @ m(y) - m(g.mul(x, y))) for x in members for y in members),
               default=0.0)


def _fiber_sweep(bundle: GradedBundle) -> tuple[dict, list]:
    """(coords, residuals) of each fiber product A_s A_t in A_st, keyed (s, t) row-major,
    and of each adjoint A_s* in A_{s^-1}, listed by s; no product stack is kept."""
    g, f = bundle.group, bundle.fiber
    prods = {(s, t): product_coords(f(s).basis, f(t).basis, f(g.mul(s, t)))
             for s in g.elements() for t in g.elements()}
    return prods, [f(g.inv(s)).decompose(dagger(f(s).basis)) for s in g.elements()]


def verify_fell_axioms(bundle: GradedBundle, tol: float = 1e-8) -> dict:
    """Check the five grading axiom families and report residuals.

    Returns {"pass": bool, "checks": {...}, "violations": [...]}; a violation
    records the axiom, the group indices involved, and the residual.
    """
    g = bundle.group
    rep = ResidualReport(tol, "product_closure", "adjoint_symmetry", "independent_grading",
                         "unit_fiber_algebra", "cstar_identity")
    prods, adjoints = _fiber_sweep(bundle)
    for (s, t), (_, res) in prods.items():
        rep.residuals("product_closure", res, s=s, t=t)
    for s, (_, res) in enumerate(adjoints):
        fs, fsi = bundle.fiber(s), bundle.fiber(g.inv(s))
        if fs.dim != fsi.dim:
            rep.fail("adjoint_symmetry", float(abs(fs.dim - fsi.dim)), s=s, t=None)
        rep.residuals("adjoint_symmetry", res, s=s, t=None)

    flats = [f.flat for f in bundle.fibers if f.dim]
    min_sv = float(np.linalg.svd(np.concatenate(flats), compute_uv=False)[-1]) if flats else 1.0
    rep.entry("independent_grading", min_singular_value=min_sv)
    if min_sv <= tol:
        rep.fail("independent_grading", min_sv, s=None, t=None)

    # fiber(e) is a *-algebra: its (e, e) products and adjoints stay in it
    rep.residuals("unit_fiber_algebra", max(_worst(prods[(0, 0)][1]), _worst(adjoints[0][1])),
                  s=0, t=0)

    for s in g.elements():
        basis = bundle.fiber(s).basis
        na = op_norm(basis)
        rep.residuals("cstar_identity", np.abs(op_norm(dagger(basis) @ basis) - na * na)
                      / np.maximum(1.0, na * na), s=s, t=None)
    return rep.build()


def require_fell_axioms(bundle: GradedBundle, tol: float = 1e-8) -> None:
    require(verify_fell_axioms(bundle, tol), AxiomViolation, "grading axiom failed: ")


# basic constructions


def trivial_bundle(g: FiniteGroup, coeff: MatrixSubspace, tol: float = DEFAULT_TOL) -> GradedBundle:
    """Constant-fiber bundle: fiber(s) = coeff tensor lambda(s) / sqrt|G| in
    M_{n|G|}, the pull-back of coeff along G -> G/G.

    coeff must be a unital *-subalgebra of its ambient (NotAnAlgebra/NotUnital
    otherwise); its unit need not be the ambient identity.
    """
    multiplication_tensor(coeff, tol)
    unit_element(coeff, tol)
    if not is_star_closed(coeff, tol):
        raise NotAnAlgebra("coefficient algebra is not adjoint-closed")
    q = quotient(g, g.elements())
    return pullback(GradedBundle(q.quotient_group, (coeff,)), q)


def pullback(d: GradedBundle, q: Quotient) -> GradedBundle:
    """Pull a bundle over G/N back to G: the dense grading of PulledBack(d, q)."""
    return PulledBack(d, q).dense()


def restrict(bundle: GradedBundle, members) -> GradedBundle:
    """Restrict the grading to a subgroup; fibers follow sorted(members)."""
    g = bundle.group
    mem = tuple(sorted(set(int(m) for m in members)))
    if 0 not in mem or any(g.mul(a, b) not in mem for a in mem for b in mem):
        raise NotASubgroup(f"{mem} is not closed in {g.name}")
    index = {h: i for i, h in enumerate(mem)}
    table = tuple(tuple(index[g.mul(a, b)] for b in mem) for a in mem)
    sub = FiniteGroup(table, name=f"{g.name}|{mem}")
    return GradedBundle(sub, tuple(bundle.fiber(h) for h in mem))


# unitary multiplier families


@dataclass(frozen=True)
class UnitaryMultiplierFamily:
    """Unitaries U(n), n in a normal subgroup, normalizing the grading."""

    bundle: GradedBundle
    domain: tuple[int, ...]
    mats: dict

    def mat(self, n: int) -> np.ndarray:
        return self.mats[n]


def canonical_multiplier_family(p: GradedBundle, q: Quotient) -> UnitaryMultiplierFamily:
    """U(n) = (unit of fiber(e)) * (1 tensor lambda(n)) on a pulled-back bundle."""
    if p.group.table != q.group.table:
        raise GroupMismatch("bundle group differs from the quotient's parent group")
    g = q.group
    if p.ambient_dim % g.order:
        raise ShapeMismatch("ambient dimension is not a multiple of |G|")
    u_e = unit_fiber_unit(p, DEFAULT_TOL)
    lam = left_regular(g)
    eye = np.eye(p.ambient_dim // g.order)
    mats = {n: u_e @ np.kron(eye, lam[n]) for n in q.subgroup.members}
    return UnitaryMultiplierFamily(p, q.subgroup.members, mats)


def verify_multiplier_family(u: UnitaryMultiplierFamily, tol: float = DEFAULT_TOL) -> dict:
    """Check the multiplier-family axioms against the bundle's grading.

    Homomorphism and adjoint identities make each U(n) unitary on the support
    of the bundle; U(e) must act as the identity on every fiber. The two-sided
    module axiom R(a)b = a L(b) is matrix associativity here, so it needs no
    separate check.
    """
    bundle, g = u.bundle, u.bundle.group
    dom = set(u.domain)
    rep = ResidualReport(tol, "homomorphism", "unit_acts_trivially", "order_compatibility",
                         "covariance")

    if not dom or any(g.mul(a, b) not in dom for a in dom for b in dom):
        raise NotASubgroup("multiplier domain is not a subgroup")
    for s in g.elements():
        if any(g.conjugate(s, n) not in dom for n in dom):
            raise NotNormal(f"conjugation by {s} leaves the multiplier domain")

    hom_res = max(_hom_residual(g, dom, u.mat),
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
                            _worst(bundle.fiber(g.mul(n, t)).decompose(u.mat(n) @ ft)[1]),
                            _worst(bundle.fiber(g.mul(t, n)).decompose(ft @ u.mat(n))[1]))
    rep.residuals("order_compatibility", order_res)

    cov_res = 0.0
    for s in g.elements():
        for n in dom:
            un_conj = u.mat(g.conjugate(s, n))
            for a in bundle.fiber(s).basis_list():
                cov_res = max(cov_res, hs_norm(a @ u.mat(n) - un_conj @ a))
    rep.residuals("covariance", cov_res)
    return rep.build()


# twisted actions


@dataclass(frozen=True)
class TwistedAction:
    """An action of G on a matrix *-algebra with a twist over a normal subgroup.

    alpha[s] is the coordinate matrix of the automorphism in the algebra's
    basis; tau maps subgroup members to unitaries (relative to the algebra's
    own unit) inside the algebra.
    """

    algebra: MatrixSubspace
    group: FiniteGroup
    subgroup: NormalSubgroup
    alpha: np.ndarray
    tau: dict

    def apply(self, s, mats: np.ndarray) -> np.ndarray:
        """alpha_s of a matrix, or of each matrix in a stack (p, n, n); for a list
        of elements s, one such result per element, stacked on a new first axis."""
        coords = self.algebra.decompose(mats)[0]
        return self.algebra.from_coords(coords @ self.alpha[s].swapaxes(-1, -2))


def plain_action(algebra: MatrixSubspace, g: FiniteGroup, alpha: np.ndarray) -> TwistedAction:
    """An untwisted action: trivial subgroup, twist = the algebra's unit."""
    return TwistedAction(algebra, g, NormalSubgroup(g, (0,)), np.asarray(alpha, dtype=complex),
                         {0: unit_element(algebra)})


def action_by_automorphisms(algebra: MatrixSubspace, g: FiniteGroup, maps) -> np.ndarray:
    """Coordinate matrices for automorphisms given as callables on matrices."""
    k = algebra.dim
    alpha = np.zeros((g.order, k, k), dtype=complex)
    for s in g.elements():
        images = np.reshape([maps[s](b) for b in algebra.basis], algebra.basis.shape)
        alpha[s] = algebra.decompose(images)[0].T
    return alpha


def verify_twisted_action(t: TwistedAction, tol: float = DEFAULT_TOL) -> dict:
    """Residual report for the action and twist identities."""
    alg, g, n = t.algebra, t.group, t.subgroup
    unit = unit_element(alg, tol)
    rep = ResidualReport(tol, "action", "twist")

    # every alpha_s, moved[i, s] = alpha_s(b_i), as a map of the algebra over the
    # trivial group; tol = inf reads its structure constants unchecked, since a
    # product or adjoint outside the algebra shows as a residual at s = e
    src = abstract_from_graded(GradedBundle(cyclic(1), (alg,)), np.inf)
    act_res = 0.0
    for s in g.elements():
        sv = np.linalg.svd(t.alpha[s], compute_uv=False)
        if sv.size and sv[-1] <= tol:
            act_res = max(act_res, 1.0)
    moved = t.apply(list(g.elements()), alg.basis).swapaxes(0, 1)
    act_res = max(act_res, *homomorphism_residuals(src, [moved]),
                  _hom_residual(g, g.elements(), t.alpha.__getitem__),
                  float(np.linalg.norm(t.alpha[0] - np.eye(alg.dim))))
    rep.residuals("action", act_res)

    twist_res = _hom_residual(g, n.members, t.tau.__getitem__)
    for x in n.members:
        tx = t.tau[x]
        twist_res = max(twist_res, float(alg.decompose(tx)[1]),
                        hs_norm(dagger(tx) @ tx - unit),
                        hs_norm(tx @ dagger(tx) - unit))
        for s in g.elements():
            twist_res = max(twist_res, hs_norm(t.apply(s, tx) - t.tau[g.conjugate(s, x)]))
        inner = t.apply(x, alg.basis) - tx @ alg.basis @ dagger(tx)
        twist_res = max(twist_res, _worst(np.linalg.norm(inner, axis=(-2, -1))))
    rep.residuals("twist", twist_res)
    return rep.build()


def require_twisted_action(t: TwistedAction, tol: float = DEFAULT_TOL) -> None:
    report = verify_twisted_action(t, tol)
    for v in report["violations"]:
        if v["axiom"] == "action":
            raise InvalidAction(f"action residual {v['residual']:.3g}")
    if not report["pass"]:
        raise InvalidTwist(f"twist residual {report['violations'][0]['residual']:.3g}")


# abstract bundles (structure constants + involution + functional)


@dataclass(frozen=True)
class AbstractBundle:
    """Fibers as coordinate spaces with product/involution structure constants.

    prod[(s, t)] has shape (dim_s, dim_t, dim_st); invol[s] maps conjugated
    fiber-s coordinates to fiber-s^-1 coordinates; funct is a faithful
    positive functional on fiber(e) coordinates.
    """

    group: FiniteGroup
    dims: tuple[int, ...]
    prod: dict
    invol: tuple
    funct: np.ndarray

    def section_dimension(self) -> int:
        return sum(self.dims)


def verify_abstract_bundle(b: AbstractBundle, tol: float = DEFAULT_TOL) -> dict:
    """Associativity, involution coherence, and Gram positivity report."""
    g = b.group
    rep = ResidualReport(tol, "associativity", "involution", "gram_positive_definite")

    assoc = 0.0
    for s in g.elements():
        for t in g.elements():
            st = g.mul(s, t)
            for u in g.elements():
                tu, stu = g.mul(t, u), g.mul(st, u)
                lhs = np.einsum("abm,mcd->abcd", b.prod[(s, t)], b.prod[(st, u)])
                rhs = np.einsum("bcm,amd->abcd", b.prod[(t, u)], b.prod[(s, tu)])
                assoc = max(assoc, float(np.linalg.norm(lhs - rhs)))
    rep.residuals("associativity", assoc)

    inv_res = 0.0
    for s in g.elements():
        si = g.inv(s)
        back = np.conj(b.invol[s]) @ b.invol[si]
        inv_res = max(inv_res, float(np.linalg.norm(back - np.eye(b.dims[s]))))
        for t in g.elements():
            st, ti = g.mul(s, t), g.inv(t)
            lhs = np.einsum("abm,mc->abc", b.prod[(s, t)], b.invol[st]).conj()
            rhs = np.einsum("bq,ap,qpc->abc", b.invol[t].conj(), b.invol[s].conj(),
                            b.prod[(ti, si)])
            inv_res = max(inv_res, float(np.linalg.norm(lhs - rhs)))
    rep.residuals("involution", inv_res)

    gram_min = np.inf
    for s in g.elements():
        gram = _gram_block(b, s)
        if gram.shape[0]:
            w = np.linalg.eigvalsh((gram + dagger(gram)) / 2)
            gram_min = min(gram_min, float(w[0]))
    rep.entry("gram_positive_definite",
              min_eigenvalue=None if np.isinf(gram_min) else float(gram_min))
    if not (np.isinf(gram_min) or gram_min > 0):
        rep.fail("gram_positive_definite", float(gram_min))
    return rep.build()


def _gram_block(b: AbstractBundle, s: int) -> np.ndarray:
    """Gram_s[a, c] = funct((e_a)* e_c), the fiber-s block of the inner product."""
    si = b.group.inv(s)
    return np.einsum("ap,pbc,c->ab", b.invol[s], b.prod[(si, s)], b.funct)


def semidirect_bundle(t: TwistedAction, tol: float = DEFAULT_TOL) -> AbstractBundle:
    """Product (b, s)(c, t) = (b alpha_s(c), st), adjoint (b, s)* = (alpha_{s^-1}(b)*, s^-1).

    The twist of t is ignored; only the action enters. Coefficients live in
    t.algebra and the functional is the ambient trace on the e-fiber. This is
    the twisted semidirect bundle of the plain action (N = {e}), graded by
    G/{e}, which has G's table.
    """
    return twisted_semidirect_bundle(plain_action(t.algebra, t.group, t.alpha), tol)


def twisted_semidirect_bundle(t: TwistedAction, tol: float = DEFAULT_TOL) -> AbstractBundle:
    """Collapse a twisted action to a bundle over G/N.

    Fibers are copies of the coefficient algebra indexed by cosets; products
    are computed at the minimal-representative section and realigned with the
    twist, via the orbit identity [b, ns] = [b tau(n), s].
    """
    require_twisted_action(t, tol)
    q = quotient(t.group, t.subgroup)
    alg, g, qg = t.algebra, t.group, q.quotient_group
    k = alg.dim
    moved = t.apply(list(q.section), alg.basis)
    prod = {}
    for a in qg.elements():
        # b alpha_ca(c) at ca cb, realigned to its coset's section, for every cb
        right = np.concatenate([twisted_normal_form(t, q, moved[a], g.mul(q.section[a], cb))[1]
                                for cb in q.section])
        coords = product_coords(alg.basis, right, alg)[0].reshape(k, qg.order, k, k)
        prod.update({(a, b): coords[:, b] for b in qg.elements()})
    inverses = [g.inv(c) for c in q.section]
    adjoints = [twisted_normal_form(t, q, dagger(m), s)[1]
                for m, s in zip(t.apply(inverses, alg.basis), inverses)]
    funct = np.array([np.trace(m) for m in alg.basis_list()], dtype=complex)
    return AbstractBundle(qg, (k,) * qg.order, prod,
                          tuple(alg.decompose(np.stack(adjoints))[0]), funct)


def twisted_normal_form(t: TwistedAction, q: Quotient, coeff: np.ndarray,
                        s: int) -> tuple[int, np.ndarray]:
    """Normal form of the class [coeff, s] (of each class, for a stack of
    coeffs): the representative at section(sN).

    q is the quotient of t.group by t.subgroup.
    """
    k = q.coset_of[s]
    n = t.group.mul(s, t.group.inv(q.section[k]))
    return k, coeff @ t.tau[n]


@dataclass(frozen=True)
class Realization:
    """A concretized abstract bundle plus the images of the abstract bases."""

    bundle: GradedBundle
    images: tuple  # images[s][a] = matrix image of abstract basis a of fiber s


def concretize(b: AbstractBundle, tol: float = DEFAULT_TOL) -> Realization:
    """Left regular representation on the section space.

    The inner product is funct((x)* y); its Gram matrix must be positive
    definite (DegenerateFunctional otherwise), which also makes the
    representation faithful and fiberwise isometric for the unique C*-norm.
    """
    g = b.group
    dims = b.dims
    offs = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    d = int(offs[-1])
    roots, root_invs = [], []
    for s in g.elements():
        gram = _gram_block(b, s)
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
                block = roots[st] @ b.prod[(s, t)][a].T @ root_invs[t]
                m[offs[st]:offs[st + 1], offs[t]:offs[t + 1]] = block
            fiber_imgs.append(m)
        images.append(tuple(fiber_imgs))
    fibers = []
    for s in g.elements():
        fibers.append(orthonormalize(list(images[s]), ambient_dim=d, tol=tol))
        if fibers[-1].dim != dims[s]:
            raise DegenerateFunctional(
                f"fiber {s} collapsed from {dims[s]} to {fibers[-1].dim} dimensions")
    return Realization(GradedBundle(g, tuple(fibers)), tuple(images))


def abstract_from_graded(bundle: GradedBundle, tol: float = DEFAULT_TOL) -> AbstractBundle:
    """Read structure constants off a concrete grading; functional = trace."""
    g = bundle.group
    prods, adjoints = _fiber_sweep(bundle)
    limit = max(tol, 1e-8)
    for s in g.elements():
        for t in g.elements():
            if np.any(prods[(s, t)][1] > limit):
                raise AxiomViolation(f"product escapes fiber ({s},{t})")
        if np.any(adjoints[s][1] > limit):
            raise AxiomViolation(f"adjoint escapes fiber {s}")
    funct = np.array([np.trace(m) for m in bundle.fiber(0).basis_list()], dtype=complex)
    return AbstractBundle(g, bundle.fiber_dims(), {st: c for st, (c, _) in prods.items()},
                          tuple(c for c, _ in adjoints), funct)


def quotient_bundle(a: GradedBundle, u: UnitaryMultiplierFamily,
                    q: Quotient | None = None, tol: float = DEFAULT_TOL) -> AbstractBundle:
    """Collapse a bundle over G along a multiplier family over normal N.

    The coset-k fiber is represented on A_{section(k)}; products of
    representatives are realigned by U(m)* with m = c(st)^-1 c(s) c(t).
    """
    g = a.group
    if u.bundle.group.table != g.table or u.bundle.ambient_dim != a.ambient_dim:
        raise GroupMismatch("multiplier family was built for a different bundle")
    fam = u if u.bundle is a else UnitaryMultiplierFamily(a, u.domain, u.mats)
    require(verify_multiplier_family(fam, max(tol, 1e-8)), InvalidMultiplierFamily)
    if q is None:
        q = quotient(g, NormalSubgroup(g, u.domain))
    if tuple(sorted(u.domain)) != q.subgroup.members:
        raise GroupMismatch("multiplier domain differs from the quotient subgroup")
    qg = q.quotient_group
    dims = tuple(a.fiber(q.section[k]).dim for k in qg.elements())
    prod = {}
    invol = []
    for k in qg.elements():
        ck = q.section[k]
        fk = a.fiber(ck)
        for l in qg.elements():
            cl = q.section[l]
            kl = qg.mul(k, l)
            m = g.mul(g.inv(q.section[kl]), g.mul(ck, cl))
            coords, res = product_coords(fk.basis, a.fiber(cl).basis @ dagger(u.mat(m)),
                                         a.fiber(q.section[kl]))
            if np.any(res > max(tol, 1e-8)):
                raise InvalidMultiplierFamily(
                    f"realigned product escapes the section fiber ({k},{l})")
            prod[(k, l)] = coords
        kbar = qg.inv(k)
        m = g.mul(g.inv(ck), g.inv(q.section[kbar]))
        coords, res = a.fiber(q.section[kbar]).decompose(dagger(fk.basis) @ dagger(u.mat(m)))
        if np.any(res > max(tol, 1e-8)):
            raise InvalidMultiplierFamily(f"realigned adjoint escapes fiber {k}")
        invol.append(coords)
    funct = np.array([np.trace(m) for m in a.fiber(q.section[0]).basis_list()], dtype=complex)
    return AbstractBundle(qg, dims, prod, tuple(invol), funct)


# maps between gradings, evaluated once per basis element


def homomorphism_residuals(src: AbstractBundle, y) -> tuple[float, float]:
    """Worst multiplicative and adjoint residuals of the linear map sending
    basis element i of src's fiber s to y[s][i] (y[s] a stack (dim_s, n, n), or
    (dim_s, m, n, n) for m maps at once):
    |sum_c prod[(s,t)][i,j,c] y[st][c] - y[s][i] y[t][j]| and
    |sum_c invol[s][i,c] y[s^-1][c] - y[s][i]*|; the products for all j, and the
    adjoints for all i, as one stack."""
    g = src.group
    mult, star = 0.0, 0.0
    for s in g.elements():
        for t in g.elements():
            p, yst = src.prod[(s, t)], y[g.mul(s, t)]
            for i in range(src.dims[s]):
                gap = np.tensordot(p[i], yst, axes=(1, 0)) - y[s][i] @ y[t]
                mult = max(mult, _worst(np.linalg.norm(gap, axis=(-2, -1))))
        adj = np.tensordot(src.invol[s], y[g.inv(s)], axes=(1, 0))
        star = max(star, _worst(np.linalg.norm(adj - dagger(y[s]), axis=(-2, -1))))
    return float(mult), float(star)


def map_table(a: GradedBundle, phi, n: int, samples: int, seed: int, tol: float):
    """a's structure constants (AxiomViolation unless a is a grading), phi(s, .) on
    each fiber's basis, stacked (dim_s, n, n), and `samples` linearity probes per
    nonempty fiber: (x, phi(s, x), the same random combination of the images)."""
    src = abstract_from_graded(a, tol)
    rng = np.random.default_rng(seed)
    images, probes = [], []
    for s in a.group.elements():
        fa = a.fiber(s)
        ys = np.array([phi(s, m) for m in fa.basis_list()], dtype=complex).reshape(-1, n, n)
        images.append(ys)
        for _ in range(samples if fa.dim else 0):
            c = rng.normal(size=fa.dim) + 1j * rng.normal(size=fa.dim)
            x = fa.from_coords(c)
            probes.append((x, phi(s, x), np.tensordot(c, ys, axes=(0, 0))))
    return src, images, probes


def _isomorphism_report(src: AbstractBundle, sources, images, b: GradedBundle | PulledBack,
                        tol: float, probes=()) -> dict:
    """Report on sources[s][i] -> images[s][i], linear, with src the sources'
    structure constants; the probes give `linear` and more isometry samples.

    An image in b stands for an element whose HS norm is b.hs_factor times its
    own (a (x) lambda(s) in a PulledBack, the image itself in a grading), so the
    HS figures are scaled to that element's; operator norms need no factor."""
    f = b.hs_factor
    rep = ResidualReport(tol, "into_fibers", "bijective", "linear", "multiplicative", "star",
                         "isometric")
    into = 0.0
    for s in src.group.elements():
        fb = b.fiber(s)
        if src.dims[s] != fb.dim:
            rep.fail("bijective", float(abs(src.dims[s] - fb.dim)), s=s)
        elif fb.dim:
            coords, res = fb.decompose(images[s])
            # decompose's |a - Pa| / max(1, |a|), rescaled to the element m that a
            # stands for: |m - Pm| = f |a - Pa| and |m| = f |a|
            norms = np.linalg.norm(images[s], axis=(-2, -1))
            into = max(into, _worst(res * (f * np.maximum(1.0, norms) / np.maximum(1.0, f * norms))))
            sv = f * np.linalg.svd(coords, compute_uv=False)
            if sv[-1] <= tol * max(1.0, sv[0]):
                rep.fail("bijective", float(sv[-1]), s=s)
    rep.residuals("into_fibers", into, s=None)
    mult, star = homomorphism_residuals(src, images)
    pairs = [(x, y) for xs, ys in zip(sources, images) for x, y in zip(xs, ys)]
    pairs += [(x, y) for x, y, _ in probes]
    nx = np.array([op_norm(x) for x, _ in pairs])
    ny = np.array([op_norm(y) for _, y in pairs])
    norm = np.abs(ny - nx) / np.maximum(1.0, nx)
    lin = [f * hs_norm(y - via_basis) / max(1.0, f * hs_norm(y)) for _, y, via_basis in probes]
    for name, res in [("multiplicative", f * mult), ("star", f * star),
                      ("isometric", _worst(norm)), ("linear", _worst(np.array(lin)))]:
        rep.residuals(name, res, s=None)
    return rep.build()


def bundle_isomorphism_report(a: GradedBundle, b: GradedBundle | PulledBack, phi,
                              tol: float = DEFAULT_TOL, samples: int = 4) -> dict:
    """Residuals for phi: A -> B as a fiberwise linear, multiplicative,
    adjoint-preserving, isometric bijection. phi(s, mat) -> mat.

    phi is called once per basis element of A and on `samples` random
    combinations per nonempty fiber (the `linear` check); the rest reads that
    table and A's structure constants, so A must be a grading (AxiomViolation
    otherwise). Ambients may differ; only the group must match. Into a
    PulledBack, phi(s, x) is the small factor a of the image a (x) lambda(s).
    """
    if a.group.table != b.group.table:
        raise GroupMismatch("isomorphism between bundles over different groups")
    src, images, probes = map_table(a, phi, b.ambient_dim, samples, 11, tol)
    return _isomorphism_report(src, [f.basis for f in a.fibers], images, b, tol, probes)


def verify_bundle_isomorphism(a: GradedBundle, b: GradedBundle, phi,
                              tol: float = DEFAULT_TOL) -> bool:
    return bundle_isomorphism_report(a, b, phi, tol)["pass"]


def realization_isomorphism_report(abstract: AbstractBundle, real: Realization,
                                   target: GradedBundle | PulledBack, images_in_target,
                                   tol: float = DEFAULT_TOL) -> dict:
    """Compare a concretized abstract bundle with prescribed images in a target.

    images_in_target[s][a] (a list, or a stack per fiber) is where the
    abstract basis element a of fiber s should land inside target (its small
    factor, for a PulledBack); the map real.images[s][a] -> images_in_target[s][a]
    is checked as a bundle isomorphism. It is linear by construction: `linear`
    reads 0.0.
    """
    if abstract.group.table != target.group.table:
        raise GroupMismatch("isomorphism between bundles over different groups")
    n = target.ambient_dim
    images = [np.asarray(m, dtype=complex).reshape(-1, n, n) for m in images_in_target]
    return _isomorphism_report(abstract, real.images, images, target, tol)
