"""The crossed product on structure constants, and covariant pairs.

The crossed product is the span of a_s tensor E_{st,t}: `crossed_structure`
holds its structure constants and `slot_realization` realizes its slots.
verify_covariant_pair evaluates pi once per basis element and reads its
homomorphism and integrated-form residuals off the structure constants of
the bundle and of the crossed product. The cross-sectional algebra A = ⊕ A_s
is never built densely: its dimension, graded ideals and regular-representation
kernel are read off the constants of the grading's one sweep
(`duality.graded_ideals`, `approximation.regular_representation_kernel`).
"""

from __future__ import annotations

import numpy as np

from .bundles import AbstractBundle, GradedBundle, homomorphism_residuals, map_table
from .errors import NotAHomomorphism, ProjectionsNotResolving
from .groups import FiniteGroup, left_regular
from .matrices import DEFAULT_TOL, ResidualReport, dagger, hs_norm, unit_element


# the crossed product


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
