"""Cross-sectional algebras and the ambient crossed-product model.

The total span of a grading is a *-subalgebra of the ambient matrix algebra;
its fiber components give the grading projections and the conditional
expectation onto the unit fiber. The crossed product realizes the bundle on
C^n tensor l^2(G) as the span of a_s tensor E_{st,t}, carrying the dual
translation action and the canonical covariant pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundles import GradedBundle, require_fell_axioms
from .errors import (
    FiberMismatch,
    NotAHomomorphism,
    NotInAlgebra,
    ProjectionsNotResolving,
)
from .groups import left_regular, right_regular
from .matrices import (
    DEFAULT_TOL,
    MatrixSubspace,
    ResidualReport,
    dagger,
    hs_norm,
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
        require_fell_axioms(bundle, max(tol, 1e-8))
    n = bundle.ambient_dim
    stack = np.concatenate([f.flat for f in bundle.fibers])
    solver = np.linalg.pinv(stack.T)
    offsets = tuple(np.concatenate([[0], np.cumsum(bundle.fiber_dims())]).astype(int))
    total = span_union(bundle.fibers, ambient_dim=n, tol=tol)
    return SectionAlgebra(bundle, total, stack, solver, offsets)


# the ambient crossed-product model


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
        if not self.bundle.fiber(s).contains(mat, max(tol, 1e-8)):
            raise FiberMismatch(f"matrix does not lie in fiber {s}")
        return np.kron(mat, self.lam[s])

    def j_group(self, t: int) -> np.ndarray:
        n, g = self.bundle.ambient_dim, self.group.order
        e_tt = np.zeros((g, g), dtype=complex)
        e_tt[t, t] = 1.0
        return np.kron(np.eye(n), e_tt)

    def fiber_at(self, s: int, t: int) -> MatrixSubspace:
        g = self.group
        st = g.mul(s, t)
        e_unit = np.zeros((g.order, g.order), dtype=complex)
        e_unit[st, t] = 1.0
        basis = [np.kron(b, e_unit) for b in self.bundle.fiber(s).basis_list()]
        n = self.ambient_dim
        return MatrixSubspace(n, np.array(basis, dtype=complex).reshape(-1, n, n))

    def dual_unitary(self, r: int) -> np.ndarray:
        return np.kron(np.eye(self.bundle.ambient_dim), self.rho[r])

    def dual_apply(self, r: int, mat) -> np.ndarray:
        u = self.dual_unitary(r)
        return u @ np.asarray(mat, dtype=complex) @ dagger(u)


def crossed_product(bundle: GradedBundle, tol: float = DEFAULT_TOL) -> CrossedProductAlgebra:
    """The bundle's dense crossed product on C^n tensor l^2(G): the reference
    model that tests hold the commands' bundle-read crossed-product fields to."""
    require_fell_axioms(bundle, max(tol, 1e-8))
    g = bundle.group
    lam = left_regular(g)
    rho = right_regular(g)
    big = bundle.ambient_dim * g.order
    mats = []
    for s in g.elements():
        for t in g.elements():
            st = g.mul(s, t)
            e_unit = np.zeros((g.order, g.order), dtype=complex)
            e_unit[st, t] = 1.0
            for b in bundle.fiber(s).basis_list():
                mats.append(np.kron(b, e_unit))
    # distinct (s, t) slots use HS-orthogonal matrix units, so the stack is
    # orthonormal as it stands
    total = MatrixSubspace(big, np.array(mats, dtype=complex).reshape(-1, big, big))
    return CrossedProductAlgebra(bundle, total, lam, rho)


def verify_covariant_pair(bundle: GradedBundle, pi, projections,
                          tol: float = DEFAULT_TOL, samples: int = 3) -> dict:
    """Check (pi, p) as a covariant pair for the grading.

    pi(s, mat) must be fiberwise linear, multiplicative across fibers,
    adjoint-preserving, and unital on the section unit; the p_t must be
    mutually orthogonal projections resolving the identity
    (ProjectionsNotResolving / NotAHomomorphism otherwise). The covariance
    relation pi(a_s) p_t = p_{st} pi(a_s) and its integrated form are
    reported as residuals.
    """
    g = bundle.group
    projections = [np.asarray(p, dtype=complex) for p in projections]
    if len(projections) != g.order:
        raise ProjectionsNotResolving(
            f"{len(projections)} projections for a group of order {g.order}")
    hdim = projections[0].shape[0]
    eye = np.eye(hdim)

    proj_res = float(hs_norm(sum(projections) - eye))
    for t, p in enumerate(projections):
        proj_res = max(proj_res, hs_norm(p - dagger(p)), hs_norm(p @ p - p))
        for u in range(t + 1, g.order):
            proj_res = max(proj_res, hs_norm(p @ projections[u]))
    if proj_res > tol:
        raise ProjectionsNotResolving(
            f"projection family residual {proj_res:.3g}")

    rng = np.random.default_rng(23)
    hom_res = 0.0
    for s in g.elements():
        fs = bundle.fiber(s)
        for a in fs.basis_list():
            hom_res = max(hom_res, hs_norm(pi(g.inv(s), dagger(a)) - dagger(pi(s, a))))
            for t in g.elements():
                for b in bundle.fiber(t).basis_list():
                    hom_res = max(hom_res,
                                  hs_norm(pi(g.mul(s, t), a @ b) - pi(s, a) @ pi(t, b)))
        imgs = [pi(s, a) for a in fs.basis_list()]
        for _ in range(samples if fs.dim else 0):
            c = rng.normal(size=fs.dim) + 1j * rng.normal(size=fs.dim)
            lin = pi(s, fs.from_coords(c))
            hom_res = max(hom_res,
                          hs_norm(lin - np.tensordot(c, np.stack(imgs), axes=(0, 0))))
    unit_res = float(hs_norm(pi(0, unit_element(bundle.fiber(0))) - eye))
    if hom_res > tol or unit_res > tol:
        raise NotAHomomorphism(
            f"representation residual {max(hom_res, unit_res):.3g}")

    cov_res = 0.0
    for s in g.elements():
        for a in bundle.fiber(s).basis_list():
            img = pi(s, a)
            for t in g.elements():
                cov_res = max(cov_res, hs_norm(
                    img @ projections[t] - projections[g.mul(s, t)] @ img))

    # integrated form Lambda(s, t, a) = pi(a) p_t: a *-homomorphism of the
    # ambient crossed product when covariance holds
    int_res = 0.0
    for s in g.elements():
        for a in bundle.fiber(s).basis_list():
            lam_sa = pi(s, a)
            for t in g.elements():
                x = lam_sa @ projections[t]
                int_res = max(int_res, hs_norm(
                    dagger(x) - pi(g.inv(s), dagger(a)) @ projections[g.mul(s, t)]))
                for u in g.elements():
                    for b in bundle.fiber(u).basis_list():
                        for v in g.elements():
                            y = pi(u, b) @ projections[v]
                            expected = (pi(g.mul(s, u), a @ b) @ projections[v]
                                        if t == g.mul(u, v) else 0.0)
                            int_res = max(int_res, hs_norm(x @ y - expected))

    rep = ResidualReport(tol, "projections_resolve", "homomorphism", "covariance",
                         "integrated_form")
    rep.residuals("projections_resolve", proj_res)
    rep.residuals("homomorphism", max(hom_res, unit_res))
    rep.residuals("covariance", cov_res)
    rep.residuals("integrated_form", int_res)
    return rep.build()
