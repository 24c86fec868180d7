"""Dense reference models that only the tests compare the library against.

No command runs these: the group enumerators, brute-force matrix-algebra
predicates, the crossed product on C^n tensor l^2(G), the Element model of
the imprimitivity bimodule (X0, B0 and C0 as coefficient dicts, with every
formula evaluated pair by pair) and its dense realizations, the dense route
of the bundle isomorphism report, the dense cross-sectional algebra (its
component maps, Z(A) ∩ A_e, graded ideals and regular-representation kernel,
which the commands read off the sweep's constants), and a few small input
builders.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from operator import matmul

import numpy as np

from fellbundles.approximation import EPWitness, ep_witness
from fellbundles.bundles import (GradedBundle, PulledBack, TwistedAction, _worst,
                                 abstract_from_graded, concretize, homomorphism_residuals,
                                 same_bundle, semidirect_bundle, unit_fiber_unit)
from fellbundles.duality import GSetAction, coset_action
from fellbundles.errors import FellBundleError, GroupMismatch, NotAnAlgebra, NotInAlgebra
from fellbundles.groups import (FiniteGroup, NormalSubgroup, Quotient, cyclic, dihedral, from_table,
                               left_regular, quotient)
from fellbundles.imprimitivity import _check_base
from fellbundles.matrices import (DEFAULT_TOL, MatrixSubspace, ResidualReport, _commutator_map,
                                  dagger, hs_norm, is_star_closed, minimal_central_projections,
                                  multiplication_tensor, numerical_rank, op_norm, orthonormalize,
                                  precondition_tol, project_rows, unit_coords, unit_element)
from fellbundles.sections import slot_realization, slot_realization as _realize


class FiberMismatch(FellBundleError):
    """A key is not a slot of its space, or a coefficient is outside its key's fiber."""


# groups


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """G x H with (a, b) encoded as a*|H| + b."""
    m = h.order
    table = tuple(
        tuple(
            g.mul(x // m, y // m) * m + h.mul(x % m, y % m)
            for y in range(g.order * m)
        )
        for x in range(g.order * m)
    )
    return FiniteGroup(table, name=f"{g.name}x{h.name}")


def symmetric_permutations(n: int) -> list[tuple[int, ...]]:
    """The point images behind each element index of symmetric(n)."""
    return list(itertools.permutations(range(n)))


# A4 over its Klein four-group V4, as point maps of {0, 1, 2, 3} composed a after b,
# with sigma = (0 1 2) and v = (0 1)(2 3). The elements are ordered e, sigma,
# sigma^2 v, the rest of V4, then the other two cosets, so V4 is KLEIN and the
# coset sections are (0, 1, 2): no subgroup, as sigma sigma = sigma^2 is not sigma^2 v.
KLEIN = (0, 3, 4, 5)


def alternating4() -> FiniteGroup:
    def compose(a, b):
        return tuple(a[i] for i in b)

    e, sigma = (0, 1, 2, 3), (1, 2, 0, 3)
    klein = [e, (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
    sigma2 = compose(sigma, sigma)
    cosets = [klein, [compose(sigma, v) for v in klein], [compose(sigma2, v) for v in klein]]
    first = [e, sigma, cosets[2][1]]
    perms = first + [p for coset in cosets for p in coset if p not in first]
    index = {p: i for i, p in enumerate(perms)}
    return from_table([[index[compose(a, b)] for b in perms] for a in perms])


def subgroup_closure(g: FiniteGroup, generators) -> tuple[int, ...]:
    """Smallest subgroup containing the generators."""
    mem = {0} | set(generators)
    frontier = list(mem)
    while frontier:
        a = frontier.pop()
        for b in list(mem):
            for c in (g.mul(a, b), g.mul(b, a), g.inv(a)):
                if c not in mem:
                    mem.add(c)
                    frontier.append(c)
    return tuple(sorted(mem))


def conjugacy_classes(g: FiniteGroup) -> list[tuple[int, ...]]:
    """Conjugacy classes, each sorted, ordered by smallest member."""
    seen = [False] * g.order
    classes = []
    for x in g.elements():
        if seen[x]:
            continue
        orbit = {g.conjugate(s, x) for s in g.elements()}
        for y in orbit:
            seen[y] = True
        classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda c: c[0])
    return classes


def normal_subgroups(g: FiniteGroup) -> list[NormalSubgroup]:
    """All normal subgroups, smallest order first.

    A normal subgroup is a union of conjugacy classes containing {e} that is
    closed under the product, so it suffices to scan class subsets.
    """
    classes = conjugacy_classes(g)
    rest = [c for c in classes if c != (0,)]
    found = []
    for mask in range(1 << len(rest)):
        mem = {0}
        for i, cls in enumerate(rest):
            if mask >> i & 1:
                mem.update(cls)
        if all(g.mul(a, b) in mem for a in mem for b in mem):
            found.append(tuple(sorted(mem)))
    found.sort(key=lambda m: (len(m), m))
    return [NormalSubgroup(g, m) for m in found]


def right_regular(g: FiniteGroup) -> np.ndarray:
    """Permutation matrices rho[r] with rho[r] e_h = e_{h r^-1}.

    Commutes with the left representation and satisfies rho[r] rho[t] = rho[rt].
    """
    n = g.order
    rho = np.zeros((n, n, n), dtype=complex)
    for r in g.elements():
        for h in g.elements():
            rho[r, g.mul(h, g.inv(r)), h] = 1.0
    return rho


# matrices


def is_psd(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Hermitian within tol and spectrum above -tol * op_norm(m)."""
    m = np.asarray(m, dtype=complex)
    if op_norm(m - dagger(m)) > tol:
        return False
    herm = (m + dagger(m)) / 2
    w = np.linalg.eigvalsh(herm)
    return bool(w[0] >= -tol * max(op_norm(m), 1.0))


def subspace_leq(s: MatrixSubspace, t: MatrixSubspace, tol: float = DEFAULT_TOL) -> bool:
    return bool(np.all(t.decompose(s.basis)[1] <= tol))


def subspace_equal(s: MatrixSubspace, t: MatrixSubspace, tol: float = DEFAULT_TOL) -> bool:
    return s.dim == t.dim and subspace_leq(s, t, tol) and subspace_leq(t, s, tol)


def center_dimension(mult: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """dim of the centre {z : zb = bz for all b} of the algebra whose structure
    constants are mult[i, j, :] = coords(b_i @ b_j)."""
    if mult.shape[0] == 0:
        return 0
    sv = np.linalg.svd(_commutator_map(mult), compute_uv=False)
    return mult.shape[0] - numerical_rank(sv, tol)


def wedderburn_block_count(a: MatrixSubspace, tol: float = DEFAULT_TOL) -> int:
    """Number of simple summands of a unital *-closed matrix algebra.

    Equals the center dimension. Raises NotAnAlgebra if the subspace is not
    closed under products/adjoints and NotUnital if it has no unit.
    """
    if not is_star_closed(a, tol):
        raise NotAnAlgebra("not closed under adjoints")
    mult = multiplication_tensor(a, tol)
    unit_coords(a, mult, tol)
    return center_dimension(mult, tol)


# bundles


def action_by_automorphisms(algebra: MatrixSubspace, g: FiniteGroup, maps) -> np.ndarray:
    """Coordinate matrices for automorphisms given as callables on matrices."""
    k = algebra.dim
    alpha = np.zeros((g.order, k, k), dtype=complex)
    for s in g.elements():
        images = np.reshape([maps[s](b) for b in algebra.basis], algebra.basis.shape)
        alpha[s] = algebra.decompose(images)[0].T
    return alpha


def dense_isomorphism_report(src, real, b, images_in_target, tol: float = DEFAULT_TOL) -> dict:
    """`realization_isomorphism_report` into a grading b, or a PulledBack of one, on
    its dense route: `homomorphism_residuals` on the images as matrices, with the
    HS figures scaled by a PulledBack's hs_factor."""
    n, dims, g = b.ambient_dim, b.fiber_dims(), src.group
    f = b.hs_factor if isinstance(b, PulledBack) else 1.0
    images = [np.asarray(m, dtype=complex).reshape(-1, n, n) for m in images_in_target]
    rep = ResidualReport(tol, "into_fibers", "bijective", "linear", "multiplicative", "star",
                         "isometric")
    mult, star = homomorphism_residuals(src, images)
    norms = [op_norm(y) for y in images]
    into = 0.0
    for s in g.elements():
        if src.dims[s] != dims[s]:
            rep.fail("bijective", float(abs(src.dims[s] - dims[s])), s=s)
            continue
        if not dims[s]:
            continue
        coords, gap, size = project_rows(b.fiber(s).flat, images[s].reshape(len(images[s]), -1))
        # relative as in decompose, for the element m an image a stands for:
        # |m - Pm| = f |a - Pa| and |m| = f |a|
        into = max(into, _worst(f * gap / np.maximum(1.0, f * size)))
        sv = f * np.linalg.svd(coords, compute_uv=False)
        if sv[-1] <= tol * max(1.0, sv[0]):
            rep.fail("bijective", float(sv[-1]), s=s)
    rep.residuals("into_fibers", into, s=None)
    norm = max(_worst(np.abs(ny - nx) / np.maximum(1.0, nx))
               for nx, ny in zip((real.op_norms(s) for s in g.elements()), norms))
    for name, res in [("multiplicative", f * mult), ("star", f * star),
                      ("isometric", norm), ("linear", 0.0)]:
        rep.residuals(name, res, s=None)
    return rep.build()


# sections


def span_union(subspaces, ambient_dim: int | None = None,
               tol: float = DEFAULT_TOL) -> MatrixSubspace:
    """The HS-orthonormal span of several subspaces."""
    subspaces = list(subspaces)
    if subspaces:
        ambient_dim = subspaces[-1].ambient_dim
    return orthonormalize(np.concatenate([s.basis for s in subspaces]) if subspaces else [],
                          ambient_dim=ambient_dim, tol=tol)


@dataclass(frozen=True)
class SectionAlgebra:
    """The dense route: total span of a grading together with its component maps.

    The fibers form a direct (not necessarily HS-orthogonal) sum, so
    components are recovered with a pseudoinverse prepared once against the
    stacked fiber bases.
    """

    bundle: GradedBundle
    total: MatrixSubspace
    stack: np.ndarray
    solver: np.ndarray
    offsets: tuple[int, ...]

    @property
    def group(self):
        return self.bundle.group

    def components(self, mat, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
        """The unique fiberwise decomposition of mat; NotInAlgebra if it escapes."""
        vec = np.asarray(mat, dtype=complex).ravel()
        c = self.solver @ vec
        rebuilt = self.stack.T @ c
        if np.linalg.norm(rebuilt - vec) > tol * max(1.0, float(np.linalg.norm(vec))):
            raise NotInAlgebra("matrix is not a section of the grading")
        return [self.bundle.fiber(s).from_coords(c[self.offsets[s]:self.offsets[s + 1]])
                for s in self.group.elements()]

    def expectation(self, mat, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Conditional expectation onto the unit fiber: the e-component."""
        return self.components(mat, tol)[0]

    def unit(self, tol: float = DEFAULT_TOL) -> np.ndarray:
        return unit_element(self.total, tol)


def section_algebra(bundle: GradedBundle, tol: float = DEFAULT_TOL,
                    check: bool = True) -> SectionAlgebra:
    """The cross-sectional *-algebra of a grading, verified first unless check is False."""
    if check:
        abstract_from_graded(bundle, tol)
    stack = np.concatenate([f.flat for f in bundle.fibers])
    offsets = tuple(np.concatenate([[0], np.cumsum(bundle.fiber_dims())]).astype(int))
    total = span_union(bundle.fibers, ambient_dim=bundle.ambient_dim, tol=tol)
    return SectionAlgebra(bundle, total, stack, np.linalg.pinv(stack.T), offsets)


def crossed_section_algebra(t: TwistedAction, tol: float = DEFAULT_TOL) -> SectionAlgebra:
    """Section algebra of the concretized semidirect bundle of an action."""
    return section_algebra(concretize(semidirect_bundle(t, tol), tol).bundle, tol)


def dense_unit_fiber_center(sa: SectionAlgebra,
                            tol: float = DEFAULT_TOL) -> tuple[np.ndarray, MatrixSubspace]:
    """Z(A) ∩ A_e on the dense route, with the singular values it is cut at: the null
    space, in A_e's coordinates, of one stack of the commutators e_i b - b e_i with
    every fiber basis element b, shape (dim A_e, dim A, n, n), formed as matrices."""
    fe, n = sa.bundle.fiber(0), sa.bundle.ambient_dim
    others = sa.stack.reshape(-1, n, n)
    comm = fe.basis[:, None] @ others[None] - others[None] @ fe.basis[:, None]
    _, sv, vh = np.linalg.svd(comm.reshape(fe.dim, others.size).T, full_matrices=False)
    null = vh[numerical_rank(sv, precondition_tol(tol)):].conj()
    return sv, MatrixSubspace(n, fe.from_coords(null))


def dense_graded_ideals(sa: SectionAlgebra, tol: float = DEFAULT_TOL) -> list[MatrixSubspace]:
    """The graded ideals pA, for the projections p of the dense Z(A) ∩ A_e, each
    the span of p·(basis of A), sorted by dimension."""
    cut, total, minimal = precondition_tol(tol), sa.total, []
    for p in minimal_central_projections(dense_unit_fiber_center(sa, tol)[1], cut):
        gram = np.conjugate(p @ total.basis).reshape(total.dim, -1) @ total.flat.T
        _, sv, vh = np.linalg.svd(gram)
        minimal.append(vh[:numerical_rank(sv, cut)].conj())  # pA in A's coordinates
    ideals = [MatrixSubspace(total.ambient_dim, total.from_coords(np.concatenate(
        [np.zeros((0, total.dim))] + [c for i, c in enumerate(minimal) if mask >> i & 1])))
        for mask in range(1 << len(minimal))]
    return sorted(ideals, key=lambda i: i.dim)


def dense_regular_kernel(sa: SectionAlgebra, tol: float = DEFAULT_TOL) -> int:
    """dim ker of sections -> sections tensor lambda: sqrt|G| times the singular values
    of the fiber coordinates of the components of A's orthonormal basis."""
    flat = sa.total.flat
    coeffs = flat @ sa.solver.T
    miss = np.linalg.norm(coeffs @ sa.stack - flat, axis=1)
    if np.any(miss > precondition_tol(tol) * np.maximum(1.0, np.linalg.norm(flat, axis=1))):
        raise NotInAlgebra("matrix is not a section of the grading")
    sv = np.sqrt(sa.group.order) * np.linalg.svd(coeffs, compute_uv=False)
    return sa.total.dim - numerical_rank(sv, tol)


def dense_section_figures(bundle: GradedBundle, tol: float = DEFAULT_TOL) -> dict:
    """gsimple's and report's section figures on the dense route."""
    sa = section_algebra(bundle, tol)
    ideals = dense_graded_ideals(sa, tol)
    dims = [i.dim for i in ideals]
    return {"ideal_dims": dims, "ideal_count": len(ideals),
            "is_g_simple": len(dims) == 2 and dims[0] == 0 and dims[-1] == sa.total.dim,
            "section_dimension": sa.total.dim,
            "regular_rep_kernel_dim": dense_regular_kernel(sa, tol)}


def sweep_inputs(bundle: GradedBundle, tol: float = DEFAULT_TOL) -> tuple:
    """(constants, A_e): what `duality.graded_ideals` and `is_g_simple` read, from the
    grading's one sweep, which must pass its axioms."""
    return abstract_from_graded(bundle, tol), bundle.fiber(0)


def ideal_subspace(bundle: GradedBundle, rows: np.ndarray) -> MatrixSubspace:
    """A graded ideal given as rows of coordinates on the concatenated fiber bases,
    as a subspace of the ambient matrices."""
    stack = np.concatenate([f.flat for f in bundle.fibers])
    n = bundle.ambient_dim
    return orthonormalize((rows @ stack).reshape(-1, n, n), ambient_dim=n)


@dataclass(frozen=True)
class CrossedProductAlgebra:
    """span{a tensor E_{st,t} : a in A_s} inside M_n tensor M_|G|.

    j_fiber embeds sections (a_s acts as a_s tensor lambda(s)), j_group gives
    the resolving diagonal projections, and conjugation by 1 tensor rho(r)
    is the dual translation action, moving the (s, t) slot to (s, t r^-1).
    """

    bundle: GradedBundle
    total: MatrixSubspace
    lam: np.ndarray
    rho: np.ndarray

    @property
    def group(self):
        return self.bundle.group

    @property
    def ambient_dim(self) -> int:
        return self.bundle.ambient_dim * self.group.order

    def dimension(self) -> int:
        return self.group.order * self.bundle.section_dimension()

    def j_fiber(self, s: int, mat, tol: float = DEFAULT_TOL) -> np.ndarray:
        mat = np.asarray(mat, dtype=complex)
        if not self.bundle.fiber(s).contains(mat, precondition_tol(tol)):
            raise FiberMismatch(f"matrix does not lie in fiber {s}")
        return np.kron(mat, self.lam[s])

    def j_group(self, t: int) -> np.ndarray:
        n, g = self.bundle.ambient_dim, self.group.order
        e_tt = np.zeros((g, g), dtype=complex)
        e_tt[t, t] = 1.0
        return np.kron(np.eye(n), e_tt)

    def fiber_at(self, s: int, t: int) -> MatrixSubspace:
        n = self.ambient_dim
        basis = [slot_realization(self.group, {(s, t): b}, self.bundle.ambient_dim)
                 for b in self.bundle.fiber(s).basis_list()]
        return MatrixSubspace(n, np.array(basis, dtype=complex).reshape(-1, n, n))

    def dual_unitary(self, r: int) -> np.ndarray:
        return np.kron(np.eye(self.bundle.ambient_dim), self.rho[r])

    def dual_apply(self, r: int, mat) -> np.ndarray:
        u = self.dual_unitary(r)
        return u @ np.asarray(mat, dtype=complex) @ dagger(u)


def crossed_product(bundle: GradedBundle, tol: float = DEFAULT_TOL) -> CrossedProductAlgebra:
    """The bundle's dense crossed product on C^n tensor l^2(G): the reference
    model that tests hold the commands' bundle-read crossed-product fields to."""
    abstract_from_graded(bundle, tol)
    g = bundle.group
    big = bundle.ambient_dim * g.order
    mats = [slot_realization(g, {(s, t): b}, bundle.ambient_dim)
            for s in g.elements() for t in g.elements() for b in bundle.fiber(s).basis_list()]
    # distinct (s, t) slots use HS-orthogonal matrix units, so the stack is
    # orthonormal as it stands
    total = MatrixSubspace(big, np.array(mats, dtype=complex).reshape(-1, big, big))
    return CrossedProductAlgebra(bundle, total, left_regular(g), right_regular(g))


# imprimitivity: the Element model of X0, B0 and C0, the tests' dense oracle


@dataclass(frozen=True, eq=False)
class Element:
    """Finitely supported map from the slot keys of `kind` to matrices in their fibers."""

    q: Quotient
    d: GradedBundle
    kind: str
    coeffs: dict

    def plus(self, other: "Element") -> "Element":
        _same_setup(self, other)
        if other.kind != self.kind:
            raise FiberMismatch(f"cannot add a {other.kind} element to a {self.kind} element")
        out = {k: np.array(m) for k, m in self.coeffs.items()}
        for key, m in other.coeffs.items():
            out[key] = out.get(key, 0.0) + m
        return Element(self.q, self.d, self.kind, out)

    def scaled(self, z: complex) -> "Element":
        return Element(self.q, self.d, self.kind, {k: z * m for k, m in self.coeffs.items()})


def _same_setup(a, b) -> None:
    if a.q.group.table != b.q.group.table or a.q.subgroup.members != b.q.subgroup.members:
        raise GroupMismatch("elements built over different quotient data")
    if not same_bundle(a.d, b.d):
        raise GroupMismatch("elements built over different base bundles")


def _slots(q: Quotient, kind: str) -> list[tuple[tuple[int, int], int]]:
    """The keys of `kind` in coordinate order, each with the fiber of D it takes values in."""
    g, qg = q.group.elements(), q.quotient_group.elements()
    if kind == "x":
        return [((k, t), k) for k in qg for t in g]
    if kind == "b":
        return [((s, t), q.coset_of[s]) for s in g for t in g]
    return [((k, l), k) for k in qg for l in qg]


def dimensions(q: Quotient, d: GradedBundle) -> dict:
    section = d.section_dimension()
    g, qn = q.group.order, q.quotient_group.order
    dim_b = g * sum(d.fiber(q.coset_of[s]).dim for s in q.group.elements())
    return {"dimX": g * section, "dimB": dim_b, "dimC": qn * section}


# the kernels behind every formula


def _pair(kinds: str, a: Element, b: Element, product, rule) -> Element:
    """Sum product(ma, mb) into slot rule(*ka, *kb) over all coefficient pairs.

    kinds names the kinds of a, b and the result, e.g. "bxx" for b acting on x.
    rule returns None for pairs whose positions do not match.
    """
    if a.kind != kinds[0] or b.kind != kinds[1]:
        raise FiberMismatch(f"expected {kinds[:2]} elements, got {a.kind}{b.kind}")
    _same_setup(a, b)
    out: dict = {}
    for ka, ma in a.coeffs.items():
        for kb, mb in b.coeffs.items():
            key = rule(*ka, *kb)
            if key is not None:
                out[key] = out.get(key, 0.0) + product(ma, mb)
    return Element(a.q, a.d, kinds[2], out)


def _relabel(kind: str, e: Element, rule, adjoint: bool = False) -> Element:
    """Move each coefficient of a `kind` element to slot rule(*key), taking its adjoint if asked.

    Every rule used here is a bijection of the slots, so nothing collides.
    """
    if e.kind != kind:
        raise FiberMismatch(f"expected a {kind} element, got a {e.kind} element")
    return Element(e.q, e.d, e.kind, {rule(*key): dagger(m) if adjoint else m
                                      for key, m in e.coeffs.items()})


# algebra operations


def b_mul(a: Element, b: Element) -> Element:
    g = a.q.group
    return _pair("bbb", a, b, matmul,
                 lambda s, t, u, v: (g.mul(s, u), v) if t == g.mul(u, v) else None)


def b_star(a: Element) -> Element:
    g = a.q.group
    return _relabel("b", a, lambda s, t: (g.inv(s), g.mul(s, t)), adjoint=True)


def c_mul(a: Element, b: Element) -> Element:
    qg = a.q.quotient_group
    return _pair("ccc", a, b, matmul,
                 lambda k, l, u, v: (qg.mul(k, u), v) if l == qg.mul(u, v) else None)


def c_star(a: Element) -> Element:
    qg = a.q.quotient_group
    return _relabel("c", a, lambda k, l: (qg.inv(k), qg.mul(k, l)), adjoint=True)


# the four generator formulas


def right_action(x: Element, c: Element) -> Element:
    """(d_sN, t) . (d_uN, vN) = (d_sN d_uN, t) when s^-1 t N = uvN."""
    q, qg = x.q, x.q.quotient_group

    def rule(k, t, u, v):
        return (qg.mul(k, u), t) if qg.mul(qg.inv(k), q.coset_of[t]) == qg.mul(u, v) else None

    return _pair("xcx", x, c, matmul, rule)


def left_action(b: Element, x: Element) -> Element:
    """(d_qN, q, r) . (d_sN, t) = (d_qN d_sN, qt) when r = t."""
    q, g, qg = b.q, b.q.group, b.q.quotient_group

    def rule(s, t, k, r):
        return (qg.mul(q.coset_of[s], k), g.mul(s, r)) if t == r else None

    return _pair("bxx", b, x, matmul, rule)


def rinner(x: Element, y: Element) -> Element:
    """<(d_sN, t), (d_uN, v)>_C = (d_sN* d_uN, u^-1 vN) when t = v.

    Conjugate-linear in x, linear in y.
    """
    q, qg = x.q, x.q.quotient_group

    def rule(xk, xt, yk, yt):
        if xt != yt:
            return None
        return qg.mul(qg.inv(xk), yk), qg.mul(qg.inv(yk), q.coset_of[yt])

    return _pair("xxc", x, y, lambda dx, dy: dagger(dx) @ dy, rule)


def linner(x: Element, y: Element) -> Element:
    """<(d_sN, t), (d_uN, v)>_B = (d_sN d_uN*, tv^-1, v) when su^-1 N = tv^-1 N.

    Linear in x, conjugate-linear in y.
    """
    q, g, qg = x.q, x.q.group, x.q.quotient_group

    def rule(xk, xt, yk, yt):
        w = g.mul(xt, g.inv(yt))
        return (w, yt) if qg.mul(xk, qg.inv(yk)) == q.coset_of[w] else None

    return _pair("xxb", x, y, lambda dx, dy: dx @ dagger(dy), rule)


# translations


def gamma(r: int, x: Element) -> Element:
    """gamma_r(d, t) = (d, t r^-1)."""
    g = x.q.group
    return _relabel("x", x, lambda k, t: (k, g.mul(t, g.inv(r))))


def dual_b(r: int, b: Element) -> Element:
    """(d, s, t) -> (d, s, t r^-1): the dual translation on B0."""
    g = b.q.group
    return _relabel("b", b, lambda s, t: (s, g.mul(t, g.inv(r))))


def inflated_dual_c(r: int, c: Element) -> Element:
    """(d, kN, lN) -> (d, kN, l r^-1 N): the inflated dual translation."""
    q, qg = c.q, c.q.quotient_group
    rbar = q.coset_of[r]
    return _relabel("c", c, lambda k, l: (k, qg.mul(l, qg.inv(rbar))))


# units, generators, random draws, coordinates


def _generators(kind: str, q: Quotient, d: GradedBundle) -> list[Element]:
    _check_base(q, d)
    return [Element(q, d, kind, {key: m})
            for key, fiber in _slots(q, kind)
            for m in d.fiber(fiber).basis_list()]


x_generators = partial(_generators, "x")
b_generators = partial(_generators, "b")
c_generators = partial(_generators, "c")


def _random(kind: str, q: Quotient, d: GradedBundle, rng) -> Element:
    coeffs = {}
    for key, fiber in _slots(q, kind):
        fk = d.fiber(fiber)
        c = rng.normal(size=fk.dim) + 1j * rng.normal(size=fk.dim)
        coeffs[key] = fk.from_coords(c)
    return Element(q, d, kind, coeffs)


_random_x = partial(_random, "x")
_random_b = partial(_random, "b")
_random_c = partial(_random, "c")


def _coords(es: list[Element]) -> np.ndarray:
    """Coordinates of same-kind elements in the fiber bases, one row each, slot after
    slot in slot-table order."""
    place, start = {}, 0
    for key, f in _slots(es[0].q, es[0].kind):
        fiber = es[0].d.fiber(f)
        place[key] = (start, fiber)
        start += fiber.dim
    out = np.zeros((len(es), start), dtype=complex)
    for row, e in zip(out, es):
        for key, m in e.coeffs.items():
            i, fiber = place[key]
            row[i:i + fiber.dim] = fiber.coords(m)
    return out


def _table(f, left: list[Element], right: list[Element]) -> np.ndarray:
    """Coordinates of f(a, b) for every pair of generators: shape (|left|, |right|, dim)."""
    return _coords([f(a, b) for a in left for b in right]).reshape(len(left), len(right), -1)


def _distance(a, b) -> float:
    """The largest HS norm, slot by slot, of the difference of two elements."""
    keys = set(a.coeffs) | set(b.coeffs)
    return max((hs_norm(a.coeffs.get(k, 0.0) - b.coeffs.get(k, 0.0)) for k in keys), default=0.0)


def _element(kind: str, q: Quotient, d: GradedBundle, coeffs: dict,
             tol: float = DEFAULT_TOL) -> Element:
    _check_base(q, d)
    fiber_of = dict(_slots(q, kind))
    for key, m in coeffs.items():
        if key not in fiber_of:
            raise FiberMismatch(f"{key} is not a slot of a {kind} element over this quotient")
        if not d.fiber(fiber_of[key]).contains(m, precondition_tol(tol)):
            raise FiberMismatch(f"coefficient at {key} is not in fiber {fiber_of[key]}")
    return Element(q, d, kind, {k: np.asarray(m, dtype=complex) for k, m in coeffs.items()})


module_element = partial(_element, "x")
algebra_element_b = partial(_element, "b")
algebra_element_c = partial(_element, "c")


def unit_elements(q: Quotient, d: GradedBundle,
                  tol: float = DEFAULT_TOL) -> tuple[Element, Element]:
    """Exact identities of B0 and C0: unit-fiber units summed over a transversal."""
    _check_base(q, d)
    u = unit_fiber_unit(d, tol)
    unit_b = Element(q, d, "b", {(0, t): np.array(u) for t in q.group.elements()})
    unit_c = Element(q, d, "c", {(0, l): np.array(u) for l in q.quotient_group.elements()})
    return unit_b, unit_c


def realize_b(b: Element) -> np.ndarray:
    """(d, s, t) -> d tensor lambda(s) tensor E_{st,t}: `_realize` on d tensor lambda(s).

    The tests' dense model, of size m|G|^2, in the crossed product of the
    pull-back. The unitary delta_r (x) delta_w -> delta_{w^-1 r} (x) delta_w
    conjugates lambda(s) tensor E_{st,t} to 1 tensor E_{st,t}, so this is the
    lambda-free realization taken |G| times: same spectra, same norms.
    """
    g = b.q.group
    lam = left_regular(g)
    return _realize(g, {(s, t): np.kron(m, lam[s]) for (s, t), m in b.coeffs.items()},
                    b.d.ambient_dim * g.order)


def realize_c(c: Element) -> np.ndarray:
    """(d, kN, lN) -> d tensor E_{klN,lN}: `_realize` over G/N."""
    return _realize(c.q.quotient_group, c.coeffs, c.d.ambient_dim)


# duality


def translation_action(g: FiniteGroup) -> GSetAction:
    """G acting on itself by left translation; always free."""
    return coset_action(g, (0,))


def trivial_gset_action(g: FiniteGroup, size: int) -> GSetAction:
    return GSetAction(g, size, tuple(tuple(range(size)) for _ in g.elements()))


def even_part_of_z4(bundle: GradedBundle) -> GradedBundle:
    """A bundle over Z2 placed in Z4 at {0, 2}, with zero fibers at 1 and 3."""
    empty = MatrixSubspace(bundle.ambient_dim, np.zeros((0,) + bundle.fiber(0).basis.shape[1:]))
    return GradedBundle(cyclic(4), (bundle.fiber(0), empty, bundle.fiber(1), empty))


# approximation


def point_witness(bundle: GradedBundle, s: int = 0, tol: float = DEFAULT_TOL) -> EPWitness:
    """f = delta_s . 1_e, the witness supported at a single group element."""
    return ep_witness(bundle, {int(s): unit_fiber_unit(bundle, tol)}, tol)


# gradings that are no direct sum


def dependent_gradings() -> dict:
    """name -> (bundle, group descriptor) for gradings with more fiber vectors than
    their ambient has dimensions, so their fibers are dependent while every other
    axiom holds: the line C1 over Z2 and over Z3 in M_1, and the Pauli grading of
    M_2 over D4/Z(D4) lifted to D4 with no lambda factor (8 one-dimensional fibers)."""
    line = MatrixSubspace(1, np.ones((1, 1, 1), dtype=complex))
    paulis = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                       [[1, 0], [0, -1]]], dtype=complex) / np.sqrt(2)
    q = quotient(dihedral(4), (0, 2))
    return {"line_z2": (GradedBundle(cyclic(2), (line,) * 2), {"kind": "cyclic", "n": 2}),
            "line_z3": (GradedBundle(cyclic(3), (line,) * 3), {"kind": "cyclic", "n": 3}),
            "pauli_d4": (GradedBundle(q.group, tuple(MatrixSubspace(2, paulis[c][None])
                                                     for c in q.coset_of)),
                         {"kind": "dihedral", "n": 4})}
