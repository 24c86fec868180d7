"""Cross-sectional algebras and the ambient crossed-product model.

The total span of a grading is a *-subalgebra of the ambient matrix algebra;
its fiber components give the grading projections and the conditional
expectation onto the unit fiber. The crossed product realizes the bundle on
C^n tensor l^2(G) as the span of a_s tensor E_{st,t}, carrying the dual
translation action and the canonical covariant pair. verify_covariant_pair
evaluates pi once per basis element and reads its homomorphism and
integrated-form residuals off the structure constants of the bundle and of
the crossed product (`crossed_structure`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundles import (
    AbstractBundle,
    GradedBundle,
    homomorphism_residuals,
    map_table,
    require_fell_axioms,
)
from .errors import (
    FiberMismatch,
    NotAHomomorphism,
    NotInAlgebra,
    ProjectionsNotResolving,
)
from .groups import FiniteGroup, left_regular, right_regular
from .matrices import (
    DEFAULT_TOL,
    MatrixSubspace,
    ResidualReport,
    dagger,
    hs_norm,
    precondition_tol,
    span_union,
    unit_element,
)


@dataclass(frozen=True)
class SectionAlgebra:
    """Total span of a grading together with its component maps.

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
        out = []
        for s in self.group.elements():
            piece = c[self.offsets[s]:self.offsets[s + 1]]
            out.append(self.bundle.fiber(s).from_coords(piece))
        return out

    def grading_projection(self, s: int, mat, tol: float = DEFAULT_TOL) -> np.ndarray:
        return self.components(mat, tol)[s]

    def expectation(self, mat, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Conditional expectation onto the unit fiber: the e-component."""
        return self.grading_projection(0, mat, tol)

    def unit(self, tol: float = DEFAULT_TOL) -> np.ndarray:
        return unit_element(self.total, tol)


def section_algebra(bundle: GradedBundle, tol: float = DEFAULT_TOL,
                    check: bool = True) -> SectionAlgebra:
    """The cross-sectional *-algebra of a verified grading."""
    if check:
        require_fell_axioms(bundle, tol)
    n = bundle.ambient_dim
    stack = np.concatenate([f.flat for f in bundle.fibers])
    solver = np.linalg.pinv(stack.T)
    offsets = tuple(np.concatenate([[0], np.cumsum(bundle.fiber_dims())]).astype(int))
    total = span_union(bundle.fibers, ambient_dim=n, tol=tol)
    return SectionAlgebra(bundle, total, stack, solver, offsets)


# the ambient crossed-product model


def slot_realization(g: FiniteGroup, coeffs: dict, size: int) -> np.ndarray:
    """The sum of a tensor E_{kl,l} over the slots (k, l) of g holding size x size a:
    a_s tensor E_{st,t} in the crossed product, and B0 and C0 in `imprimitivity`.

    A faithful *-homomorphism: (k, l) -> (kl, l) is a bijection, so distinct
    slots go to HS-orthogonal matrix units; E_{st,t} E_{uv,v} = delta_{t,uv}
    E_{st,v} and (a tensor E_{st,t})* = a* tensor E_{t,st}.
    """
    n = g.order
    out = np.zeros((size, n, size, n), dtype=complex)
    for (k, l), a in coeffs.items():
        out[:, g.mul(k, l), :, l] += a
    return out.reshape(size * n, size * n)


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
    require_fell_axioms(bundle, tol)
    g = bundle.group
    big = bundle.ambient_dim * g.order
    mats = [slot_realization(g, {(s, t): b}, bundle.ambient_dim)
            for s in g.elements() for t in g.elements() for b in bundle.fiber(s).basis_list()]
    # distinct (s, t) slots use HS-orthogonal matrix units, so the stack is
    # orthonormal as it stands
    total = MatrixSubspace(big, np.array(mats, dtype=complex).reshape(-1, big, big))
    return CrossedProductAlgebra(bundle, total, left_regular(g), right_regular(g))


def crossed_structure(src: AbstractBundle) -> AbstractBundle:
    """Structure constants of span{a (x) E_{st,t} : a in A_s}, graded by s, with
    basis element (a, t) of fiber s at index a * |G| + t:
    (a (x) E_{st,t})(b (x) E_{uv,v}) = delta_{t,uv} ab (x) E_{suv,v} and
    (a (x) E_{st,t})* = a* (x) E_{t,st}, where delta_{t,uv} = lam[u][t, v]."""
    g, dims, k = src.group, src.dims, src.group.order
    lam, eye = left_regular(g), np.eye(k)
    prod = {(s, u): np.einsum("abc,tv,vw->atbvcw", src.prod[(s, u)], lam[u], eye).reshape(
                dims[s] * k, dims[u] * k, dims[g.mul(s, u)] * k)
            for s in g.elements() for u in g.elements()}
    invol = tuple(np.einsum("ac,wt->atcw", src.invol[s], lam[s]).reshape(
        dims[s] * k, dims[g.inv(s)] * k) for s in g.elements())
    return AbstractBundle(g, tuple(d * k for d in dims), prod, invol, np.repeat(src.funct, k))


def verify_covariant_pair(bundle: GradedBundle, pi, projections,
                          tol: float = DEFAULT_TOL, samples: int = 3) -> dict:
    """Check (pi, p) as a covariant pair for the grading.

    pi(s, mat) must be fiberwise linear, multiplicative across fibers,
    adjoint-preserving, and unital on the section unit; the p_t must be
    mutually orthogonal projections resolving the identity
    (ProjectionsNotResolving / NotAHomomorphism otherwise). The covariance
    relation pi(a_s) p_t = p_{st} pi(a_s) and its integrated form are
    reported as residuals.

    pi is called once per basis element, plus `samples` random combinations
    per nonempty fiber and once on the unit; all residuals read that table.
    The bundle must be a grading (AxiomViolation otherwise).
    """
    g = bundle.group
    p = np.array(projections, dtype=complex)
    if len(p) != g.order:
        raise ProjectionsNotResolving(f"{len(p)} projections for a group of order {g.order}")
    hdim = p[0].shape[0]
    eye = np.eye(hdim)

    # sum_t p_t = 1, p_t* = p_t and p_t p_u = delta_{t,u} p_t
    gaps = (p.sum(axis=0) - eye, p - dagger(p),
            p[:, None] @ p[None] - np.eye(g.order)[..., None, None] * p)
    proj_res = max(float(np.linalg.norm(x, axis=(-2, -1)).max()) for x in gaps)
    if proj_res > tol:
        raise ProjectionsNotResolving(
            f"projection family residual {proj_res:.3g}")

    src, images, probes = map_table(bundle, pi, hdim, samples, 23, tol)
    hom_res = max(*homomorphism_residuals(src, images),
                  *(hs_norm(y - via_basis) for _, y, via_basis in probes))
    unit_res = float(hs_norm(pi(0, unit_element(bundle.fiber(0))) - eye))
    if hom_res > tol or unit_res > tol:
        raise NotAHomomorphism(
            f"representation residual {max(hom_res, unit_res):.3g}")

    # integrated[s][a * |G| + t] = pi(a) p_t for basis element a of fiber s
    integrated = [(y[:, None] @ p[None]).reshape(-1, hdim, hdim) for y in images]
    cov_res = 0.0
    for s in g.elements():
        moved = p[[g.mul(s, t) for t in g.elements()]]
        gap = integrated[s].reshape(-1, g.order, hdim, hdim) - moved[None] @ images[s][:, None]
        cov_res = max(cov_res, float(np.linalg.norm(gap, axis=(-2, -1)).max(initial=0.0)))
    int_res = max(homomorphism_residuals(crossed_structure(src), integrated))

    rep = ResidualReport(tol, "projections_resolve", "homomorphism", "covariance",
                         "integrated_form")
    rep.residuals("projections_resolve", proj_res)
    rep.residuals("homomorphism", max(hom_res, unit_res))
    rep.residuals("covariance", cov_res)
    rep.residuals("integrated_form", int_res)
    return rep.build()
