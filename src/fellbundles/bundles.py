"""Fell bundles over finite groups as gradings of a matrix algebra.

A GradedBundle assigns a subspace of one ambient M_n(C) to every group
element; the Fell axioms (product closure, adjoint symmetry, independence,
unit-fiber algebra, C*-identity) are machine-checked by verify_fell_axioms.
One sweep reads a dense grading, `_read_grading`: verify_fell_axioms reports on
it, and abstract_from_graded, the one guard on a dense grading, returns its
structure constants only when all five families pass at precondition_tol
(AxiomViolation with the first violation otherwise).

An AbstractBundle carries the same data as structure constants plus a
faithful positive functional on the unit fiber; concretize() turns it back
into matrices through the left regular representation R. R(x) is
block-monomial on the section space, so a Realization keeps its blocks: the
dense images and the dense grading are views built only when a caller asks,
and operator norms, HS Grams and the rank of each fiber are read off the
blocks. The constructions in between (trivial, pullback, twisted semidirect,
quotient by a multiplier family) are the substance of the toolkit; the
semidirect bundle of an action is its twisted semidirect bundle over N = {e}.
The last two are one collapse along G -> G/N, `_collapse`, which reads fiber kN
at the section c_k and moves x at s = section(sN) n to x tau(n) for an action
(`twisted_normal_form`), or to x U(n^-1) for a family, at section(sN).
A TwistedAction is held in coordinates on its algebra's orthonormal basis b_i:
M (b_i b_j), star (b_i*) and R_n (x -> x tau(n)) are read once per action, and the
bundle and the alpha identities contract them; the tau identities read tau(x) as given.

A unitary multiplier family is hosted on a dense grading or on a
Realization. Either host yields the coordinates of U(n) a and a U(n) in
their fibers and the residual of that step; the one checker reads the unit
and covariance axioms off those coordinates, as gaps relative to the HS norm
of the basis element a.

A map between bundles (a bundle isomorphism, or a realization matched with
prescribed images) is evaluated once per basis element of its source, plus
random combinations that witness its linearity. Its target is read as an
AbstractBundle, a fiber map (q.coset_of into a PulledBack, whose elements a
stand for a (x) lambda(s), so `pullback` builds the dense grading only when
asked) and an HS frame per fiber: a Realization's abstract bundle and the
Cholesky roots of its Grams, with images as coordinates and no dense image
formed, or a dense grading's abstract_from_graded and identity frames, with
images as matrices decomposed in their fibers. One kernel,
`_coordinate_residuals`, then compares the images of products and adjoints,
read off the source's structure constants, with the products and adjoints of
the images, read off the target's. So a dense target, like the source, must
pass the grading axioms at precondition_tol (AxiomViolation otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    NotUnital,
    ShapeMismatch,
)
from .groups import (
    FiniteGroup,
    NormalSubgroup,
    Quotient,
    left_regular,
    quotient,
    subgroup_members,
)
from .matrices import (
    DEFAULT_TOL,
    MatrixSubspace,
    ResidualReport,
    _row_norms,
    dagger,
    hs_norm,
    is_star_closed,
    multiplication_tensor,
    op_norm,
    orthonormalize,
    precondition_tol,
    product_coords,
    project_rows,
    require,
    span_rank,
    unit_coords,
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

    The base is a dense grading or a Realization. Over a Realization a map's
    small factors are coordinates in the base's abstract fibers, so the
    base's dense grading is built only if a caller asks for fiber(s) or dense().
    """

    base: GradedBundle | Realization
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
        dims = self.base.fiber_dims()
        return tuple(dims[c] for c in self.q.coset_of)

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
    """The unit of fiber(e), a precondition; NonUnitalUnitFiber if it has none."""
    try:
        return unit_element(bundle.fiber(0), precondition_tol(tol))
    except NotUnital as exc:
        raise NonUnitalUnitFiber(str(exc)) from exc


def _worst(res: np.ndarray) -> float:
    """Largest of a stack of residuals, 0.0 for an empty stack."""
    return float(res.max(initial=0.0))


def _hom_residual(g: FiniteGroup, members, m) -> float:
    """max |m(x) m(y) - m(xy)|_HS over x, y in members, a subgroup of g: one stack of
    gaps per x, each gap's norm summed as hs_norm sums it."""
    ys = np.stack([m(y) for y in members])
    gaps = (m(x) @ ys - np.stack([m(g.mul(x, y)) for y in members]) for x in members)
    return max(_worst(_row_norms(gap.reshape(len(ys), -1))) for gap in gaps)


def verify_fell_axioms(bundle: GradedBundle, tol: float = DEFAULT_TOL) -> dict:
    """Check the five grading axiom families and report residuals.

    Returns {"pass": bool, "checks": {...}, "violations": [...]}; a violation
    records the axiom, the group indices involved, and the residual.
    """
    return _read_grading(bundle, tol)[0]


def abstract_from_graded(bundle: GradedBundle, tol: float = DEFAULT_TOL) -> AbstractBundle:
    """Read structure constants off a grading; functional = trace. The one guard on a
    dense grading: AxiomViolation with the first violation of verify_fell_axioms'
    report at precondition_tol(tol), from the same sweep."""
    report, constants, _ = _read_grading(bundle, precondition_tol(tol))
    require(report, AxiomViolation, "grading axiom failed: ")
    return constants


def _read_grading(bundle: GradedBundle, tol: float) -> tuple[dict, AbstractBundle, np.ndarray]:
    """verify_fell_axioms' report, the AbstractBundle and the singular values of the
    stacked fiber bases of one sweep, which decomposes each fiber product A_s A_t in
    A_st and each adjoint A_s* in A_{s^-1}; independence is the least singular value.
    Violations follow the checks: products (s, t) row-major, adjoints by s, then the rest."""
    g, f = bundle.group, bundle.fiber
    prods = {(s, t): product_coords(f(s).basis, f(t).basis, f(g.mul(s, t)))
             for s in g.elements() for t in g.elements()}
    adjoints = [f(g.inv(s)).decompose(dagger(f(s).basis)) for s in g.elements()]
    rep = ResidualReport(tol, "product_closure", "adjoint_symmetry", "independent_grading",
                         "unit_fiber_algebra", "cstar_identity")
    for (s, t), (_, res) in prods.items():
        rep.residuals("product_closure", res, s=s, t=t)
    for s, (_, res) in enumerate(adjoints):
        fs, fsi = f(s), f(g.inv(s))
        if fs.dim != fsi.dim:
            rep.fail("adjoint_symmetry", float(abs(fs.dim - fsi.dim)), s=s, t=None)
        rep.residuals("adjoint_symmetry", res, s=s, t=None)

    stack = np.concatenate([fib.flat for fib in bundle.fibers])
    frame_sv = np.linalg.svd(stack, compute_uv=False)
    if len(stack) > stack.shape[1]:  # dependent rows, but numpy returns no zero for the excess
        min_sv = 0.0
    else:
        min_sv = float(frame_sv[-1]) if len(stack) else 1.0
    rep.entry("independent_grading", min_singular_value=min_sv)
    if min_sv <= tol:
        rep.fail("independent_grading", min_sv, s=None, t=None)

    # fiber(e) is a *-algebra: its (e, e) products and adjoints stay in it
    rep.residuals("unit_fiber_algebra", max(_worst(prods[(0, 0)][1]), _worst(adjoints[0][1])),
                  s=0, t=0)

    for s in g.elements():
        basis = f(s).basis
        na = op_norm(basis)
        rep.residuals("cstar_identity", np.abs(op_norm(dagger(basis) @ basis) - na * na)
                      / np.maximum(1.0, na * na), s=s, t=None)
    funct = np.array([np.trace(m) for m in f(0).basis_list()], dtype=complex)
    return rep.build(), AbstractBundle(g, bundle.fiber_dims(),
                                       {st: c for st, (c, _) in prods.items()},
                                       tuple(c for c, _ in adjoints), funct), frame_sv


# basic constructions


def trivial_bundle(g: FiniteGroup, coeff: MatrixSubspace, tol: float = DEFAULT_TOL) -> GradedBundle:
    """Constant-fiber bundle: fiber(s) = coeff tensor lambda(s) / sqrt|G| in
    M_{n|G|}, the pull-back of coeff along G -> G/G.

    coeff must be a unital *-subalgebra of its ambient (NotAnAlgebra/NotUnital
    otherwise); its unit need not be the ambient identity.
    """
    unit_element(coeff, tol)  # NotAnAlgebra unless closed under products
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
    mem = subgroup_members(g, members)
    index = {h: i for i, h in enumerate(mem)}
    table = tuple(tuple(index[g.mul(a, b)] for b in mem) for a in mem)
    sub = FiniteGroup(table, name=f"{g.name}|{mem}")
    return GradedBundle(sub, tuple(bundle.fiber(h) for h in mem))


# unitary multiplier families


@dataclass(frozen=True)
class UnitaryMultiplierFamily:
    """Unitaries U(n), n in a normal subgroup, normalizing the grading.

    The family is hosted on a dense grading or on a Realization; the matrices
    live in the host's ambient either way."""

    bundle: GradedBundle | Realization
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


def _family_on_grading(bundle: GradedBundle, u: UnitaryMultiplierFamily, dom) -> tuple:
    """U(n) A_t and A_t U(n), formed once per fiber stack and decomposed in A_nt and A_tn."""
    g = bundle.group
    left, right, order = {}, {}, 0.0
    for n in dom:
        for t in g.elements():
            ft = bundle.fiber(t).basis
            left[n, t], lres = bundle.fiber(g.mul(n, t)).decompose(u.mat(n) @ ft)
            right[n, t], rres = bundle.fiber(g.mul(t, n)).decompose(ft @ u.mat(n))
            order = max(order, _worst(lres), _worst(rres))
    return left, right, order, [np.eye(f.dim) for f in bundle.fibers]


def _family_on_realization(real: Realization, u: UnitaryMultiplierFamily, dom) -> tuple:
    """U(n) = R(c_n) by least squares on fiber n's images; then U(n) R(x) = R(c_n x) and
    R(x) U(n) = R(x c_n) come from the structure constants, with no dense product."""
    g, prod = real.group, real.abstract.prod
    left, right, order = {}, {}, 0.0
    for n in dom:
        c, res = real.coords_in(n, u.mat(n))
        order = max(order, res)
        for t in g.elements():
            left[n, t] = np.tensordot(c, prod[(n, t)], axes=(0, 0))
            right[n, t] = np.tensordot(prod[(t, n)], c, axes=(1, 0))
    return left, right, order, [real.frame(s) for s in g.elements()]


def _relative_gaps(gaps: np.ndarray, frame: np.ndarray, span_frame: np.ndarray) -> np.ndarray:
    """HS norm of each row of gaps (coordinates on a basis with HS frame `frame`),
    over the HS norm of the basis element it belongs to (span_frame's row norm)."""
    return np.linalg.norm(gaps @ frame, axis=-1) / np.linalg.norm(span_frame, axis=-1)


def verify_multiplier_family(u: UnitaryMultiplierFamily, tol: float = DEFAULT_TOL) -> dict:
    """Check the multiplier-family axioms against the bundle's grading.

    Homomorphism and adjoint identities make each U(n) unitary on the support
    of the bundle; they are checked on the dense matrices. The other three are
    read off the coordinates L[n, t] of U(n) a and R[n, t] of a U(n), for the
    basis a of A_t, in A_nt and A_tn: `order_compatibility` is the residual of
    those coordinates, `unit_acts_trivially` compares L[e, t] and R[e, t] with
    the identity, and `covariance` compares a U(n) with U(sns^-1) a, both in
    A_sn, as R[n, s] against L[sns^-1, s]. Each gap of these two is an HS norm
    divided by that of its basis element a. The two-sided module axiom
    R(a)b = a L(b) is matrix associativity here, so it needs no separate check.

    On a GradedBundle the coordinates come from decomposing the products
    U(n) A_t and A_t U(n), on an orthonormal basis. On a Realization R they come
    from the structure constants, once U(n) is written as R(c_n) by least
    squares on fiber n's images; that residual is `order_compatibility`. It is
    equivalent to order compatibility because R(1_e) = I: U(n) maps A_t into
    A_nt for every t iff it lies in A_n, as U(n) = U(n) R(1_e) and A_n A_t lies
    in A_nt. The HS frames of the gaps are the Realization's (`Realization.frame`).
    """
    return _family_check(u, tol)[0]


def _family_check(u: UnitaryMultiplierFamily, tol: float) -> tuple[dict, dict]:
    """verify_multiplier_family's report, and the coordinates R[n, t] of a U(n) for
    the basis a of A_t, in A_tn (abstract coordinates on a Realization host)."""
    host, g = u.bundle, u.bundle.group
    dom = NormalSubgroup(g, u.domain).members
    rep = ResidualReport(tol, "homomorphism", "unit_acts_trivially", "order_compatibility",
                         "covariance")

    hom_res = max(_hom_residual(g, dom, u.mat),
                  *(hs_norm(dagger(u.mat(n)) - u.mat(g.inv(n))) for n in dom))
    rep.residuals("homomorphism", hom_res)

    on = _family_on_realization if isinstance(host, Realization) else _family_on_grading
    left, right, order, frames = on(host, u, dom)
    unit_res = 0.0
    for t in g.elements():
        eye = np.eye(len(frames[t]))
        for gaps in (left[0, t] - eye, right[0, t] - eye):
            unit_res = max(unit_res, _worst(_relative_gaps(gaps, frames[t], frames[t])))
    rep.residuals("unit_acts_trivially", unit_res)
    rep.residuals("order_compatibility", order)

    cov_res = 0.0
    for s in g.elements():
        for n in dom:
            gaps = right[n, s] - left[g.conjugate(s, n), s]
            cov_res = max(cov_res, _worst(_relative_gaps(gaps, frames[g.mul(s, n)], frames[s])))
    rep.residuals("covariance", cov_res)
    return rep.build(), right


# twisted actions


@dataclass(frozen=True)
class TwistedAction:
    """An action of G on a matrix *-algebra with a twist over a normal subgroup.

    alpha[s] is the coordinate matrix of alpha_s on the algebra's orthonormal
    basis b_i (column j holds alpha_s(b_j)); tau maps subgroup members to
    unitaries (relative to the algebra's own unit) inside the algebra.
    `structure` holds M, star and R_n (and the residuals of M), read once per action.
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

    @cached_property
    def structure(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
        """(M, escape, star, R): M[i, j] holds the coordinates of b_i b_j and
        escape[i, j] its relative residual off the span, star[i] the coordinates
        of b_i*, and R[n] (n in N) is the matrix of x -> x tau(n) on coordinate rows."""
        alg = self.algebra
        mult, escape = product_coords(alg.basis, alg.basis, alg)
        return (mult, escape, alg.decompose(dagger(alg.basis))[0],
                {n: np.tensordot(mult, alg.coords(m), axes=(1, 0)) for n, m in self.tau.items()})


def plain_action(algebra: MatrixSubspace, g: FiniteGroup, alpha: np.ndarray) -> TwistedAction:
    """An untwisted action: trivial subgroup, twist = the algebra's unit."""
    return TwistedAction(algebra, g, NormalSubgroup(g, (0,)), np.asarray(alpha, dtype=complex),
                         {0: unit_element(algebra)})


def verify_twisted_action(t: TwistedAction, tol: float = DEFAULT_TOL) -> dict:
    """Residual report for the action and twist identities. alpha_s, read in coordinates:
    invertible, multiplicative, *-preserving (a part of b_i* off the algebra counts),
    alpha_s alpha_u = alpha_su, alpha_e = 1 (Frobenius norms). tau, read on its matrices
    so that a part off the algebra counts: in the algebra, unitary and multiplicative on
    N, alpha_s(tau(x)) = tau(sxs^-1), alpha_x = Ad tau(x). NotAnAlgebra/NotUnital at tol."""
    alg, g, a, (mult, escape, star, _) = t.algebra, t.group, t.alpha, t.structure
    unit = alg.from_coords(unit_coords(alg, multiplication_tensor(alg, tol, (mult, escape)), tol))
    rep = ResidualReport(tol, "action", "twist")

    def worst(gaps, axis=(-2, -1)) -> float:
        return _worst(np.linalg.norm(gaps, axis=axis))

    # one alpha_s at a time, so that no stack outgrows M
    off = (dagger(alg.basis) - alg.from_coords(star)).reshape(alg.dim, -1)  # b_i* off the span
    act_res = float(np.linalg.norm(a[0] - np.eye(alg.dim)))
    for s in g.elements():
        m, adj = a[s], a[s].T.conj()  # column j of m holds the coordinates of alpha_s(b_j)
        act_res = max(act_res, float(np.linalg.svd(m, compute_uv=False)[-1] <= tol),
                      worst(np.tensordot(mult, m, axes=(2, 1))
                            - np.tensordot(m, np.tensordot(m, mult, axes=(0, 1)), axes=(0, 1)), -1),
                      worst(np.hstack([star @ m.T - adj @ star, adj @ off]), -1),
                      worst(m @ a - a[list(g.table[s])]))
    rep.residuals("action", act_res)

    tau, members = t.tau, t.subgroup.members
    twist_res = _worst(alg.decompose(np.stack([tau[x] for x in members]))[1])
    for x in members:
        tx = tau[x]
        twist_res = max(twist_res, hs_norm(dagger(tx) @ tx - unit), hs_norm(tx @ dagger(tx) - unit),
                        worst(np.stack([tx @ tau[y] - tau[g.mul(x, y)] for y in members])),
                        worst(alg.from_coords(a @ alg.coords(tx))
                              - np.stack([tau[g.conjugate(s, x)] for s in g.elements()])),
                        worst(alg.from_coords(a[x].T) - tx @ alg.basis @ dagger(tx)))
    rep.residuals("twist", twist_res)
    return rep.build()


def require_twisted_action(t: TwistedAction, tol: float = DEFAULT_TOL) -> None:
    report = verify_twisted_action(t, precondition_tol(tol))
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
    """Collapse a twisted action, once checked, to a bundle over G/N: fibers are
    copies of the coefficient algebra indexed by cosets, and products are read at
    the section and realigned by the orbit identity [b, ns] = [b tau(n), s]."""
    require_twisted_action(t, tol)
    return _twisted_semidirect(t)


def _twisted_semidirect(t: TwistedAction) -> AbstractBundle:
    """twisted_semidirect_bundle of an action its caller has already checked."""
    q = quotient(t.group, t.subgroup)
    mult, _, star, _ = t.structure
    # b_i alpha_ck(b_j) at c_k c_l, for every l
    moved = [np.einsum("ipl,pj->ijl", mult, t.alpha[c]) for c in q.section]
    funct = np.array([np.trace(m) for m in t.algebra.basis_list()], dtype=complex)
    return _collapse(q, funct, lambda k, l: moved[k],
                     lambda k: star @ t.alpha[t.group.inv(q.section[k])].T,
                     lambda coords, s: twisted_normal_form(t, q, coords, s)[1])


def _collapse(q: Quotient, funct: np.ndarray, prod, adjoint, realign) -> AbstractBundle:
    """The bundle over G/N with fiber kN at c_k: prod(k, l) gives the coordinates of the
    products of the fibers at c_k and c_l, adjoint(k) of the adjoints of fiber c_k, and
    realign(coords, s) moves coordinates at s = section(sN) n to section(sN)."""
    g, qg, c = q.group, q.quotient_group, q.section
    prods = {(k, l): realign(prod(k, l), g.mul(c[k], c[l]))
             for k in qg.elements() for l in qg.elements()}
    invol = tuple(realign(adjoint(k), g.inv(c[k])) for k in qg.elements())
    return AbstractBundle(qg, tuple(len(v) for v in invol), prods, invol, funct)


def twisted_normal_form(t: TwistedAction, q: Quotient, coeff: np.ndarray,
                        s: int) -> tuple[int, np.ndarray]:
    """Normal form of the class [x, s], x given by coordinate rows coeff (..., dim):
    sN and the coordinates of x tau(n) at section(sN), where s = n section(sN)
    and q is the quotient of t.group by t.subgroup."""
    k = q.coset_of[s]
    n = t.group.mul(s, t.group.inv(q.section[k]))
    return k, coeff @ t.structure[3][n]


@dataclass(frozen=True)
class Realization:
    """The left regular representation R of an abstract bundle, kept by blocks.

    R acts on the section space, the direct sum of the fibers A_t made
    orthonormal by the Gram root of the functional's inner product. For x in
    A_s it maps A_t into A_st, so R(x) is block-monomial: its one block in
    block column t is B_{s,t}(x) = root[st] prod[(s,t)](x)^T root^-1[t], at block
    row st. blocks[(s, t)] stacks B_{s,t}(x_a) over the basis x_a of A_s,
    shape (dim_s, dim_st, dim_t). The dense matrices are derived views, built
    only when asked and then kept: fiber_images(s) per fiber, images for every
    fiber, and bundle, their orthonormalized spans (fiber(s) is one of them).
    Norms and Grams are read off the blocks: |R(x)|_op = max_t |B_{s,t}(x)|_op
    and tr(R(x)* R(y)) = sum_t tr(B_{s,t}(x)* B_{s,t}(y)). So a map into it, or
    into a PulledBack of it, is checked on abstract coordinates and these
    blocks, with no dense image.
    """

    abstract: AbstractBundle
    blocks: dict
    tol: float
    _images: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def group(self) -> FiniteGroup:
        return self.abstract.group

    @property
    def ambient_dim(self) -> int:
        return self.abstract.section_dimension()

    def fiber_dims(self) -> tuple[int, ...]:
        """The ranks of the fibers' images, which concretize checked are their dims."""
        return self.abstract.dims

    def section_dimension(self) -> int:
        return sum(self.fiber_dims())

    def fiber(self, s: int) -> MatrixSubspace:
        """Fiber s of the dense grading, which the first call builds."""
        return self.bundle.fiber(s)

    def fiber_images(self, s: int) -> np.ndarray:
        """The dense images R(x_a) of fiber s's basis, stacked (dim_s, d, d); built once."""
        if s not in self._images:
            g, offs = self.group, np.cumsum((0,) + self.abstract.dims)
            d = int(offs[-1])
            m = np.zeros((self.abstract.dims[s], d, d), dtype=complex)
            for t in g.elements():
                st = g.mul(s, t)
                m[:, offs[st]:offs[st + 1], offs[t]:offs[t + 1]] = self.blocks[(s, t)]
            self._images[s] = m
        return self._images[s]

    @property
    def images(self) -> tuple[np.ndarray, ...]:
        """images[s][a] = R(x_a) for the basis x_a of fiber s, every fiber built."""
        return tuple(self.fiber_images(s) for s in self.group.elements())

    @cached_property
    def bundle(self) -> GradedBundle:
        """The dense grading: each fiber the orthonormalized span of its images."""
        return GradedBundle(self.group, tuple(
            orthonormalize(list(self.fiber_images(s)), ambient_dim=self.ambient_dim, tol=self.tol)
            for s in self.group.elements()))

    def op_norms(self, s: int, coords: np.ndarray | None = None) -> np.ndarray:
        """|R(x)|_op for each row of coords, the coordinates of an x in fiber s
        (the basis of fiber s by default): the largest of its blocks' norms.
        Zero-padding the blocks to one size keeps their norms, so one call
        reads them all."""
        g, d = self.group, max(self.abstract.dims)
        stack = np.zeros((self.abstract.dims[s], g.order, d, d), dtype=complex)
        for t in g.elements():
            b = self.blocks[(s, t)]
            stack[:, t, :b.shape[1], :b.shape[2]] = b
        if coords is not None:
            stack = np.tensordot(coords, stack, axes=(-1, 0))
        return op_norm(stack).max(axis=1)

    def gram(self, s: int) -> np.ndarray:
        """gram[a, b] = tr(R(x_a)* R(x_b)) on fiber s's basis."""
        rows = _block_rows(self.blocks, self.group, s)
        return rows.conj() @ rows.T

    def frame(self, s: int) -> np.ndarray:
        """The HS frame of fiber s: the Cholesky root L of gram(s)^T, so coordinates
        c have |R(c)|_HS = |c L|, and row a of L has the HS norm of R(x_a)."""
        return np.linalg.cholesky(self.gram(s).T)

    def coords_in(self, s: int, mat: np.ndarray) -> tuple[np.ndarray, float]:
        """Abstract coordinates c of a matrix in fiber s, by least squares against
        its images, and the relative residual |mat - R(c)|_HS / max(1, |mat|_HS)."""
        stack = self.fiber_images(s).reshape(self.abstract.dims[s], -1).T
        flat = np.asarray(mat, dtype=complex).ravel()
        c, *_ = np.linalg.lstsq(stack, flat, rcond=None)
        return c, hs_norm(stack @ c - flat) / max(1.0, hs_norm(flat))


def _block_rows(blocks: dict, g: FiniteGroup, s: int) -> np.ndarray:
    """Row a is R(x_a) for the basis of fiber s, its blocks flattened and joined
    over t: a dense row of R(x_a) with its zeros dropped and its entries reordered."""
    stacks = [blocks[(s, t)] for t in g.elements()]
    return np.concatenate([b.reshape(b.shape[0], b.shape[1] * b.shape[2]) for b in stacks], axis=1)


def concretize(b: AbstractBundle, tol: float = DEFAULT_TOL) -> Realization:
    """Left regular representation on the section space, kept by blocks.

    The inner product is funct((x)* y); its Gram matrix must be positive
    definite (DegenerateFunctional otherwise), which also makes the
    representation faithful and fiberwise isometric for the unique C*-norm.
    A fiber whose images span fewer dimensions than the fiber has also raises
    DegenerateFunctional; that rank is read off the blocks (`span_rank` of the
    rows of `_block_rows`), with the same singular values and cut as
    `orthonormalize` of the dense images.
    """
    g = b.group
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
    blocks = {(s, t): roots[g.mul(s, t)] @ b.prod[(s, t)].swapaxes(1, 2) @ root_invs[t]
              for s in g.elements() for t in g.elements()}
    ranks = tuple(span_rank(_block_rows(blocks, g, s), tol) for s in g.elements())
    for s in g.elements():
        if ranks[s] != b.dims[s]:
            raise DegenerateFunctional(
                f"fiber {s} collapsed from {b.dims[s]} to {ranks[s]} dimensions")
    return Realization(b, blocks, tol)


def quotient_bundle(a: GradedBundle, u: UnitaryMultiplierFamily,
                    q: Quotient | None = None, tol: float = DEFAULT_TOL) -> AbstractBundle:
    """Collapse a bundle over G along a multiplier family over normal N: `_collapse` of
    a's structure constants (AxiomViolation unless a is a grading), realigned by the
    coordinates of a U(m) that the family check returns."""
    return _collapse_by_family(a, u, q, tol)[0]


def _collapse_by_family(a: GradedBundle, u: UnitaryMultiplierFamily, q: Quotient | None,
                        tol: float) -> tuple[AbstractBundle, AbstractBundle, list, Quotient]:
    """quotient_bundle, with a's structure constants, the quotient, and moves[s]: the
    matrix taking coordinates at s = section(sN) n to their class at section(sN), the
    coordinates of a U(n^-1) for the basis a of A_s."""
    g = a.group
    if u.bundle.group.table != g.table or u.bundle.ambient_dim != a.ambient_dim:
        raise GroupMismatch("multiplier family was built for a different bundle")
    fam = u if u.bundle is a else UnitaryMultiplierFamily(a, u.domain, u.mats)
    report, right = _family_check(fam, precondition_tol(tol))
    require(report, InvalidMultiplierFamily)
    if q is None:
        q = quotient(g, u.domain)
    if q.group.table != g.table or tuple(sorted(u.domain)) != q.subgroup.members:
        raise GroupMismatch("the quotient is not of the bundle's group by the multiplier domain")
    src, c = abstract_from_graded(a, tol), q.section
    moves = [right[g.inv(q.n_part(s)), s] for s in g.elements()]
    quo = _collapse(q, src.funct, lambda k, l: src.prod[(c[k], c[l])],
                    lambda k: src.invol[c[k]], lambda coords, s: coords @ moves[s])
    return quo, src, moves, q


# maps between gradings, evaluated once per basis element


def homomorphism_residuals(src: AbstractBundle, y) -> tuple[float, float]:
    """Worst multiplicative and adjoint residuals of the linear map into M_n sending
    basis element i of src's fiber s to y[s][i] (y[s] a stack (dim_s, n, n)):
    |sum_c prod[(s,t)][i,j,c] y[st][c] - y[s][i] y[t][j]| and
    |sum_c invol[s][i,c] y[s^-1][c] - y[s][i]*|. The products y[s][i] y[t][j]
    of every j are one matmul."""
    g = src.group
    # cols[t] lays every y[t][j] side by side: (n, dim_t n)
    cols = [v.transpose(1, 0, 2).reshape(v.shape[1], v.shape[0] * v.shape[2]) for v in y]
    mult, star = 0.0, 0.0
    for s in g.elements():
        for t in g.elements():
            p, yst, (dt, d, _) = src.prod[(s, t)], y[g.mul(s, t)], y[t].shape
            for i in range(src.dims[s]):
                prods = (y[s][i] @ cols[t]).reshape(d, dt, d).transpose(1, 0, 2)
                gap = np.tensordot(p[i], yst, axes=(-1, 0)) - prods
                mult = max(mult, _worst(np.linalg.norm(gap, axis=(-2, -1))))
        gap = np.tensordot(src.invol[s], y[g.inv(s)], axes=(-1, 0)) - dagger(y[s])
        star = max(star, _worst(np.linalg.norm(gap, axis=(-2, -1))))
    return float(mult), float(star)


def _coordinate_residuals(src: AbstractBundle, y, tgt: AbstractBundle, fiber_of,
                          frames) -> tuple[float, float]:
    """Worst multiplicative and adjoint residuals of the linear map sending basis
    element i of src's fiber s to the element of tgt's fiber fiber_of[s] with
    coordinates y[s][i]: the images' products and adjoints come from tgt's prod
    and invol, and a gap g in fiber c has HS norm |g frames[c]|."""
    g = src.group
    mult, star = 0.0, 0.0
    for s in g.elements():
        cs, ys = fiber_of[s], y[s]
        for t in g.elements():
            st, pt = g.mul(s, t), tgt.prod[(cs, fiber_of[t])]
            # [i, j] is y[s][i] y[t][j]: sum_ab y[s][i, a] y[t][j, b] pt[a, b]
            flat = pt.reshape(pt.shape[0], pt.shape[1] * pt.shape[2])
            prods = y[t] @ (ys @ flat).reshape(len(ys), *pt.shape[1:])
            gap = src.prod[(s, t)] @ y[st] - prods
            mult = max(mult, _worst(np.linalg.norm(gap @ frames[fiber_of[st]], axis=-1)))
        si = g.inv(s)
        gap = src.invol[s] @ y[si] - ys.conj() @ tgt.invol[cs]
        star = max(star, _worst(np.linalg.norm(gap @ frames[fiber_of[si]], axis=-1)))
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


def _isomorphism_report(src: AbstractBundle, source_norms, images,
                        b: GradedBundle | PulledBack | Realization, tol: float, probes=()) -> dict:
    """Report on the map sending source i of fiber s to images[s][i], linear, with
    src the sources' structure constants and source_norms[s] their operator
    norms; the probes give `linear` and more isometry samples.

    b is read as an AbstractBundle, a fiber map and HS frames, as the module
    docstring says. Over a Realization images[s] holds coordinates, operator norms
    come from its blocks and `into_fibers` is 0.0; over a dense grading images[s]
    is a stack of matrices, `into_fibers` is their residual off their fibers and
    operator norms are their own. An image a in a PulledBack stands for
    a (x) lambda(s), so HS figures are scaled by its hs_factor; operator norms
    need no factor."""
    g = src.group
    base, fiber_of, f = ((b.base, b.q.coset_of, b.hs_factor) if isinstance(b, PulledBack)
                         else (b, tuple(g.elements()), 1.0))
    rep = ResidualReport(tol, "into_fibers", "bijective", "linear", "multiplicative", "star",
                         "isometric")
    if isinstance(base, Realization):
        tgt, frames = base.abstract, [base.frame(c) for c in base.group.elements()]
        coords = [np.asarray(y, dtype=complex).reshape(src.dims[s], tgt.dims[c])
                  for s, (y, c) in enumerate(zip(images, fiber_of))]
        norms = [base.op_norms(c, y) for y, c in zip(coords, fiber_of)]
        gaps = [np.zeros(0)] * g.order
    else:
        tgt, n = abstract_from_graded(base, tol), base.ambient_dim
        frames = [np.eye(d) for d in tgt.dims]
        dense = [np.asarray(y, dtype=complex).reshape(-1, n, n) for y in images]
        coords, gaps = [], []
        for y, c in zip(dense, fiber_of):
            cs, gap, size = project_rows(base.fiber(c).flat, y.reshape(len(y), n * n))
            coords.append(cs)
            # relative as in decompose, for the element m an image a stands for:
            # |m - Pm| = f |a - Pa| and |m| = f |a|
            gaps.append(f * gap / np.maximum(1.0, f * size))
        norms = [op_norm(y) for y in dense]
    mult, star = _coordinate_residuals(src, coords, tgt, fiber_of, frames)
    into = 0.0
    for s in g.elements():
        c = fiber_of[s]
        if src.dims[s] != tgt.dims[c]:
            rep.fail("bijective", float(abs(src.dims[s] - tgt.dims[c])), s=s)
            continue
        if not src.dims[s]:
            continue
        into = max(into, _worst(gaps[s]))
        sv = f * np.linalg.svd(coords[s] @ frames[c], compute_uv=False)
        if sv[-1] <= tol * max(1.0, sv[0]):
            rep.fail("bijective", float(sv[-1]), s=s)
    rep.residuals("into_fibers", into, s=None)
    # one stack per fiber, not of all pairs, so no stack outgrows a fiber's basis
    xs, ys = [x for x, _, _ in probes], [y for _, y, _ in probes]
    op_norms = [*zip(source_norms, norms), (op_norm(np.asarray(xs)), op_norm(np.asarray(ys)))]
    norm = max(_worst(np.abs(ny - nx) / np.maximum(1.0, nx)) for nx, ny in op_norms)
    lin = [f * hs_norm(y - via_basis) / max(1.0, f * hs_norm(y)) for _, y, via_basis in probes]
    for name, res in [("multiplicative", f * mult), ("star", f * star),
                      ("isometric", norm), ("linear", _worst(np.array(lin)))]:
        rep.residuals(name, res, s=None)
    return rep.build()


def bundle_isomorphism_report(a: GradedBundle, b: GradedBundle | PulledBack, phi,
                              tol: float = DEFAULT_TOL, samples: int = 4) -> dict:
    """Residuals for phi: A -> B as a fiberwise linear, multiplicative,
    adjoint-preserving, isometric bijection. phi(s, mat) -> mat.

    phi is called once per basis element of A and on `samples` random
    combinations per nonempty fiber (the `linear` check); the rest reads that
    table and the structure constants of A and B, so both must be gradings
    (AxiomViolation otherwise), B perhaps pulled back. Ambients may differ; only
    the group must match. Into a PulledBack, phi(s, x) is a for the image a (x) lambda(s).
    """
    if a.group.table != b.group.table:
        raise GroupMismatch("isomorphism between bundles over different groups")
    src, images, probes = map_table(a, phi, b.ambient_dim, samples, 11, tol)
    return _isomorphism_report(src, [op_norm(f.basis) for f in a.fibers], images, b, tol, probes)


def realization_isomorphism_report(abstract: AbstractBundle, real: Realization,
                                   target: GradedBundle | PulledBack | Realization,
                                   images_in_target, tol: float = DEFAULT_TOL) -> dict:
    """Compare a concretized abstract bundle with prescribed images in a target.

    images_in_target[s][a] (a list, or a stack per fiber) is where the
    abstract basis element a of fiber s should land inside target. For a
    Realization target, or a PulledBack of one, it is the image's coordinates
    in the target's abstract fiber (over sN, for a PulledBack); for a dense
    target it is a matrix (the small factor, for a PulledBack). The map
    real.images[s][a] -> images_in_target[s][a] is checked as a bundle
    isomorphism on structure constants, with the source norms read off real's
    blocks. It is linear by construction: `linear` reads 0.0.
    """
    if abstract.group.table != target.group.table:
        raise GroupMismatch("isomorphism between bundles over different groups")
    norms = [real.op_norms(s) for s in abstract.group.elements()]
    return _isomorphism_report(abstract, norms, images_in_target, target, tol)
