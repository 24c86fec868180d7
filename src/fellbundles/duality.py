"""Landstad-type reconstruction, the pull-back characterization, and
induction obstructions.

Three dualities live here, all stated as verified bundle isomorphisms:
reconstructing a twisted action from a bundle over G/N equipped with a
compatible unitary family; the equivalence between the semidirect bundle of a
twisted action and the pull-back of its collapsed (twisted semidirect) bundle,
together with twist extraction from a multiplier family; and the pull-back /
quotient round trips. The last sections handle graded ideals and G-simplicity of
the cross-sectional algebra, read off the structure constants of the grading's
one sweep, and transformation systems with the stabilizer obstruction to
realizing a grading as a pull-back.

Every map is checked into a realization, its images given as coordinates in
the target's abstract fibers, on structure constants: no dense image or grading
of the target is formed. Olesen-Pedersen maps the realized semidirect bundle
into `PulledBack(tw_real, q)`, by the classes [b_i, s], the rows of R_n
(x -> x tau(n), s = n section(sN)); the twist is then read off the induced
family's abstract coordinates. Landstad and the round trips map a dense
grading, read once, into a realization or a PulledBack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundles import (
    AbstractBundle,
    GradedBundle,
    PulledBack,
    Realization,
    TwistedAction,
    UnitaryMultiplierFamily,
    _collapse_by_family,
    _family_check,
    _hom_residual,
    _isomorphism_report,
    _twisted_semidirect,
    abstract_from_graded,
    canonical_multiplier_family,
    concretize,
    plain_action,
    pullback,
    quotient_bundle,
    realization_isomorphism_report,
    require_twisted_action,
    twisted_normal_form,
    twisted_semidirect_bundle,
    unit_fiber_unit,
)
from .errors import (
    AxiomViolation,
    GroupMismatch,
    InvalidAction,
    InvalidMultiplierFamily,
    MultiplierNotOrderCompatible,
    ShapeMismatch,
    TrivialN,
)
from .groups import (
    FiniteGroup,
    NormalSubgroup,
    Quotient,
    left_cosets,
    quotient,
)
from .matrices import (
    DEFAULT_TOL,
    MatrixSubspace,
    dagger,
    hs_norm,
    minimal_central_projections,
    numerical_rank,
    op_norm,
    precondition_tol,
    require,
    unit_coords,
)


def _image(real: Realization, k: int, coords: np.ndarray) -> np.ndarray:
    """Concrete image of the abstract fiber-k element with the given coords
    (a stack of images for a stack of coords (..., dim_k))."""
    return np.tensordot(np.asarray(coords, dtype=complex), real.fiber_images(k), axes=(-1, 0))


# reconstruction of a twisted action from a bundle over G/N


def landstad_reconstruct(d: GradedBundle, q: Quotient, u: UnitaryMultiplierFamily,
                         tol: float = DEFAULT_TOL) -> tuple[TwistedAction, dict]:
    """Recover (B, G, N, alpha, tau) from a bundle over G/N and a unitary family.

    u assigns to every s in G a unitary multiplier of d lying in the fiber over
    sN. Then B is the unit fiber, alpha_s = Ad u(s), and tau = u restricted to
    N; the map a -> [a u(c_k)*, c_k] from d's fiber over k onto the twisted
    semidirect bundle's, the inverse of [b, s] -> b u(s), is verified as a
    bundle isomorphism in that bundle's coordinates and its report returned
    alongside. d is read first, as a grading (AxiomViolation otherwise), and
    the guards on u run at precondition_tol(tol); tol itself is the report's.
    A grading needs no more guards: for a in A_sN, a = (a u(s)*) u(s) with
    a u(s)* in A_sN A_(sN)^-1, inside B, so each fiber is B u(s); and
    u(s) B u(s)* lies in B, so Ad u(s) preserves B.
    """
    g, qg = q.group, q.quotient_group
    if d.group.table != qg.table:
        raise GroupMismatch("bundle is not graded by the quotient group")
    if tuple(sorted(u.domain)) != tuple(g.elements()):
        raise GroupMismatch("the family must be defined on all of G")
    b_fib, cut = d.fiber(0), precondition_tol(tol)
    unit = unit_fiber_unit(d, DEFAULT_TOL)
    src = abstract_from_graded(d, tol)

    hom_res = max(hs_norm(u.mat(0) - unit), _hom_residual(g, g.elements(), u.mat),
                  *(hs_norm(dagger(u.mat(s)) - u.mat(g.inv(s))) for s in g.elements()))
    if hom_res > cut:
        raise InvalidMultiplierFamily(
            f"family is not a unitary homomorphism (residual {hom_res:.3g})")
    for s in g.elements():
        if not d.fiber(q.coset_of[s]).contains(u.mat(s), cut):
            raise MultiplierNotOrderCompatible(
                f"u({s}) does not lie in the fiber over its coset")

    alpha = np.stack([b_fib.decompose(u.mat(s) @ b_fib.basis @ dagger(u.mat(s)))[0].T
                      for s in g.elements()])
    tau = {n: u.mat(n) for n in q.subgroup.members}
    action = TwistedAction(b_fib, g, q.subgroup, alpha, tau)
    real = concretize(twisted_semidirect_bundle(action, tol), tol)  # requires the twisted action
    images = [b_fib.decompose(d.fiber(k).basis @ dagger(u.mat(c)))[0]
              for k, c in enumerate(q.section)]
    iso = _isomorphism_report(src, [op_norm(f.basis) for f in d.fibers], images, real, tol)
    require(iso, AxiomViolation, "reconstruction map failed: ")
    report = {"pass": True, "iso": iso, "coefficient_dim": b_fib.dim,
              "twist": {n: tau[n] for n in q.subgroup.members}}
    return action, report


def canonical_landstad_family(t: TwistedAction, real: Realization) -> UnitaryMultiplierFamily:
    """u(s) = image of the class [1, s] in a concretized twisted semidirect bundle."""
    g = t.group
    q = quotient(g, t.subgroup)
    unit = unit_coords(t.algebra, t.structure[0])
    mats = {s: _image(real, *twisted_normal_form(t, q, unit, s)) for s in g.elements()}
    return UnitaryMultiplierFamily(real.bundle, tuple(g.elements()), mats)


# the semidirect bundle as a pull-back of the twisted semidirect bundle


def olesen_pedersen_forward(t: TwistedAction, tol: float = DEFAULT_TOL) -> dict:
    """Verify (b, s) -> ([b, s], s) against the pulled-back collapsed bundle.

    The untwisted semidirect bundle of the action is isomorphic to the
    pull-back along G -> G/N of the twisted semidirect bundle; both section
    algebras have dimension |G| * dim B. The pull-back is a PulledBack of the
    twisted realization itself, so no a (x) lambda(s) is formed, and the
    images are the classes [b_i, s] as coordinates in its fiber over sN: the
    map is checked on the two bundles' structure constants, and neither
    realization builds a dense image or grading here. The concretized
    semidirect bundle is returned under "semidirect", and dim_semidirect is the
    rank its blocks were checked to have.
    """
    # checks the whole twisted action first, so an invalid one raises here
    tw = twisted_semidirect_bundle(t, tol)
    tw_real = concretize(tw, tol)
    g = t.group
    q = quotient(g, t.subgroup)
    if t.subgroup.is_trivial():  # G/{e} is G and tau(e) = 1: the two bundles agree
        semi, semi_real = tw, tw_real
    else:  # the twisted check above covered the action, so semidirect_bundle's is skipped
        semi = _twisted_semidirect(plain_action(t.algebra, g, t.alpha))
        semi_real = concretize(semi, tol)
    pb = PulledBack(tw_real, q)
    # one stack per fiber: the classes [b_i, s] of the basis of B, in coordinates
    # on the basis of fiber sN, the small factors of [b_i, s] (x) lambda(s)
    images = [twisted_normal_form(t, q, np.eye(t.algebra.dim), s)[1] for s in g.elements()]
    iso = realization_isomorphism_report(semi, semi_real, pb, images, tol)
    dim_semi = semi_real.section_dimension()
    dim_pb = pb.section_dimension()
    return {
        "pass": iso["pass"] and dim_semi == dim_pb == g.order * t.algebra.dim,
        "iso": iso,
        "dim_semidirect": dim_semi,
        "dim_pullback": dim_pb,
        "semidirect": semi_real,
    }


def induced_multiplier_family(t: TwistedAction, real: Realization) -> UnitaryMultiplierFamily:
    """The family u(n) = image of (tau(n^-1), n) on a concretized semidirect bundle.

    These are the unitaries witnessing that the semidirect bundle of a twisted
    action is a pull-back: u is a homomorphism on N, u(n) has order n, and
    a_s u(n) = u(s n s^-1) a_s. The family is hosted on the Realization itself,
    so checking it builds the dense images of the fibers in N only.
    """
    g = t.group
    mats = {}
    for n in t.subgroup.members:
        mats[n] = _image(real, n, t.algebra.coords(t.tau[g.inv(n)]))
    return UnitaryMultiplierFamily(real, t.subgroup.members, mats)


def extract_twist(t: TwistedAction, real: Realization, u: UnitaryMultiplierFamily,
                  tol: float = DEFAULT_TOL) -> dict:
    """tau(n) = (1, n) u(n^-1), pulled back to coefficients of the algebra.

    t supplies the action (any twist it carries is ignored), real is the
    concretized semidirect bundle of t, and u is a multiplier family over a
    normal subgroup of G living on real or on real.bundle; it is checked on
    real. That check writes a u(m) in abstract coordinates for the basis a of
    each fiber, so (1, n) u(n^-1) is the unit's coordinates in fiber n
    contracted with those of fiber n: no dense product is formed. The
    extracted family is checked to satisfy the full twisted-action identities
    before returning.
    """
    fam = u if u.bundle is real else UnitaryMultiplierFamily(real, u.domain, u.mats)
    report, right = _family_check(fam, precondition_tol(tol))
    require(report, InvalidMultiplierFamily)
    g, alg = t.group, t.algebra
    unit_c = unit_coords(alg, t.structure[0])
    tau = {n: alg.from_coords(unit_c @ right[g.inv(n), n]) for n in sorted(u.domain)}
    action = TwistedAction(alg, g, NormalSubgroup(g, u.domain), t.alpha, tau)
    require_twisted_action(action, tol)
    return tau


# pull-back / quotient round trips


def pullback_quotient_roundtrip(d: GradedBundle, q: Quotient, tol: float = DEFAULT_TOL) -> dict:
    """Pull d back along G -> G/N, collapse by the canonical family, compare.

    The orbit of the generator (d_i, s) meets the section fiber at d_i tensor
    lambda(c(sN)) / sqrt|G|, so on Hilbert-Schmidt bases the map from d onto
    the collapse's realization is sqrt|G| times the identity in coordinates.
    """
    p = pullback(d, q)
    u = canonical_multiplier_family(p, q)
    real = concretize(quotient_bundle(p, u, q, tol), tol)
    images = [np.sqrt(q.group.order) * np.eye(k) for k in d.fiber_dims()]
    iso = _isomorphism_report(abstract_from_graded(d, tol), [op_norm(f.basis) for f in d.fibers],
                              images, real, tol)
    return {"pass": iso["pass"], "iso": iso,
            "fiber_dims": {"original": list(d.fiber_dims()),
                           "recovered": list(real.fiber_dims())}}


def quotient_pullback_roundtrip(a: GradedBundle, u: UnitaryMultiplierFamily,
                                q: Quotient | None = None, tol: float = DEFAULT_TOL) -> dict:
    """Collapse a along u, concretize, pull back, and compare with a itself.

    The comparison map sends a_s to (class of a_s u(n_s)*, s) where n_s moves s
    to the coset section: its coordinates are the realignment the collapse
    applied, so it is exactly multiplicative. It lands in a PulledBack of the
    collapse's realization, and the one family check and the one read of a are
    the collapse's.
    """
    quo, src, moves, q = _collapse_by_family(a, u, q, tol)
    real = concretize(quo, tol)
    iso = _isomorphism_report(src, [op_norm(f.basis) for f in a.fibers], moves,
                              PulledBack(real, q), tol)
    return {"pass": iso["pass"], "iso": iso,
            "quotient_fiber_dims": list(real.fiber_dims())}


# graded ideals and G-simplicity


def _unit_fiber_center(src: AbstractBundle, fe: MatrixSubspace,
                       cut: float) -> tuple[np.ndarray, MatrixSubspace]:
    """The singular values of z -> (z b - b z) on A_e, b over the fibers, and Z(A) ∩ A_e,
    from the sweep's (e, t) and (t, e) products; fe is A_e, in the basis of src."""
    comm = np.concatenate([(src.prod[(0, t)] - np.swapaxes(src.prod[(t, 0)], 0, 1)).reshape(
        fe.dim, k * k).T for t, k in enumerate(src.dims)])
    _, sv, vh = np.linalg.svd(comm, full_matrices=False)
    return sv, MatrixSubspace(fe.ambient_dim, fe.from_coords(vh[numerical_rank(sv, cut):].conj()))


def graded_ideals(src: AbstractBundle, fe: MatrixSubspace,
                  tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """All grading-invariant two-sided ideals of the section algebra A = ⊕ A_s, by
    dimension, as rows of coordinates on the concatenated fiber bases.

    Ideals of a finite-dimensional C*-algebra are pA for central projections p.
    A graded pA has unit p, and the unit of a graded unital algebra has degree
    e; conversely pA is graded when p lies in A_e. So the graded ideals are pA
    for the projections p of Z(A) ∩ A_e: 2^k of them for its k minimal
    projections, each a direct sum of theirs. Everything is read off the
    structure constants `src` of a verified grading, and fe is its unit fiber A_e,
    dense only for `minimal_central_projections`. Z(A) ∩ A_e comes from the (e, t)
    and (t, e) products. As p lies in A_e, pA = ⊕_t pA_t, and pA_t is the row
    space of sum_i p_i prod[(e, t)][i], the map a -> pa on A_t's coordinates.

    These rank, unit and spectral cuts construct the ideals rather than check
    a residual, so they run at precondition_tol(tol): at tol = 0 an exact rank
    cut would keep no null space, and no unit or eigenvalue grouping would hold.
    """
    cut, offsets, minimal = precondition_tol(tol), np.cumsum((0, *src.dims)), []
    for p in minimal_central_projections(_unit_fiber_center(src, fe, cut)[1], cut):
        coords, blocks = fe.coords(p), []
        for t, k in enumerate(src.dims):
            _, sv, vh = np.linalg.svd(np.tensordot(coords, src.prod[(0, t)], axes=1))
            rows = np.zeros((numerical_rank(sv, cut), offsets[-1]), dtype=complex)
            rows[:, offsets[t]:offsets[t] + k] = vh[:len(rows)]
            blocks.append(rows)
        minimal.append(np.concatenate(blocks))
    ideals = [np.concatenate([np.zeros((0, offsets[-1]))]
                             + [c for i, c in enumerate(minimal) if mask >> i & 1])
              for mask in range(1 << len(minimal))]
    return sorted(ideals, key=len)


def is_g_simple(src: AbstractBundle, fe: MatrixSubspace, tol: float = DEFAULT_TOL,
                ideals: list | None = None) -> bool:
    """True when the only graded ideals (`ideals`, if already computed) are 0 and A."""
    ideals = graded_ideals(src, fe, tol) if ideals is None else ideals
    return len(ideals) == 2 and len(ideals[0]) == 0 and len(ideals[-1]) == src.section_dimension()


# transformation systems and the stabilizer obstruction


@dataclass(frozen=True)
class GSetAction:
    """A left action of G on {0, ..., size-1}; perm[s][x] is s.x."""

    group: FiniteGroup
    size: int
    perm: tuple

    def __post_init__(self) -> None:
        g = self.group
        perm = tuple(tuple(int(x) for x in row) for row in self.perm)
        if len(perm) != g.order or any(len(row) != self.size for row in perm):
            raise ShapeMismatch("permutation table must be |G| rows of the set size")
        ident = tuple(range(self.size))
        for row in perm:
            if tuple(sorted(row)) != ident:
                raise InvalidAction("rows must be permutations of the set")
        if perm[0] != ident:
            raise InvalidAction("the identity must act trivially")
        for s in g.elements():
            for t in g.elements():
                st = g.mul(s, t)
                if any(perm[st][x] != perm[s][perm[t][x]] for x in range(self.size)):
                    raise InvalidAction(f"perm is not a homomorphism at ({s},{t})")
        object.__setattr__(self, "perm", perm)

    def stabilizer(self, x: int) -> tuple[int, ...]:
        return tuple(s for s in self.group.elements() if self.perm[s][x] == x)

    def orbits(self) -> list[tuple[int, ...]]:
        seen = [False] * self.size
        out = []
        for x in range(self.size):
            if seen[x]:
                continue
            orb = sorted({self.perm[s][x] for s in self.group.elements()})
            for y in orb:
                seen[y] = True
            out.append(tuple(orb))
        return out


def coset_action(g: FiniteGroup, members) -> GSetAction:
    """Left translation of G on the left cosets of a subgroup (not nec. normal)."""
    coset_of, section = left_cosets(g, members)
    perm = tuple(tuple(coset_of[g.mul(t, c)] for c in section) for t in g.elements())
    return GSetAction(g, len(section), perm)


def transformation_system(act: GSetAction) -> TwistedAction:
    """Functions on the G-set as diagonal matrices, permuted by the action."""
    n = act.size
    basis = np.zeros((n, n, n), dtype=complex)
    for x in range(n):
        basis[x, x, x] = 1.0
    algebra = MatrixSubspace(n, basis)
    alpha = np.zeros((act.group.order, n, n), dtype=complex)
    for s in act.group.elements():
        for x in range(n):
            alpha[s, act.perm[s][x], x] = 1.0
    return plain_action(algebra, act.group, alpha)


def invariant_ideal_count(act: GSetAction) -> int:
    """Number of action-invariant ideals of the function algebra (0 and all included).

    Ideals of the diagonal algebra are supported on subsets of the set, and an
    invariant ideal is a union of orbits.
    """
    return 2 ** len(act.orbits())


def stabilizer_obstruction(act: GSetAction, n: NormalSubgroup) -> dict:
    """Can the dual grading of the transformation system come from G/N?

    A twist over N would implement the restricted action by inner unitaries,
    forcing N to stabilize every point. induced_possible reports whether N
    sits inside the kernel of the action; a trivial kernel rules out every
    nontrivial quotient at once.
    """
    if act.group.table != n.group.table:
        raise GroupMismatch("action and subgroup live on different groups")
    if n.is_trivial():
        raise TrivialN("the obstruction concerns nontrivial subgroups")
    stabs = [set(act.stabilizer(x)) for x in range(act.size)]
    kernel = sorted(set.intersection(*stabs)) if stabs else list(act.group.elements())
    possible = set(n.members) <= set(kernel)
    return {
        "kernel": tuple(kernel),
        "kernel_trivial": tuple(kernel) == (0,),
        "induced_possible": possible,
        "stabilizers": [tuple(sorted(s)) for s in stabs],
        "verdict": ("compatible with weak induction from the quotient" if possible
                    else "not weakly induced from the quotient"),
    }
