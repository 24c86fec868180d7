"""Approximation-property witnesses: norm bounds, defects, and pull-backs.

A witness is a finitely supported function f from the group into the unit
fiber.  Averaging a_t against f, a_t -> sum_s f(ts)* a_t f(s), is a
completely positive map whose norm is controlled by ||sum_s f(s)* f(s)||;
the witness is exact when this averaging leaves every fiber pointwise
fixed.  Witnesses pull back along quotient maps after multiplication by an
ell^2 function on the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundles import GradedBundle, pullback, same_bundle, unit_fiber_unit
from .errors import (
    AxiomViolation,
    GNormExceeded,
    GroupMismatch,
    NonUnitalUnitFiber,
    NotInAlgebra,
    ShapeMismatch,
    ValueOutsideUnitFiber,
)
from .groups import FiniteGroup, Quotient
from .matrices import _ZERO_CUT, DEFAULT_TOL, dagger, hs_norm, numerical_rank, op_norm
from .sections import SectionAlgebra, section_algebra


@dataclass(frozen=True)
class EPWitness:
    """A finitely supported map s -> fiber(e), with its norm bound frozen in."""

    bundle: GradedBundle
    values: dict  # s -> (n, n) array inside fiber(e); missing keys mean zero
    bound: float  # operator norm of sum_s f(s)* f(s)

    def value(self, s: int) -> np.ndarray:
        got = self.values.get(int(s))
        if got is not None:
            return got
        n = self.bundle.ambient_dim
        return np.zeros((n, n), dtype=complex)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.values))

    def gram(self) -> np.ndarray:
        return _gram(self.values, self.bundle.ambient_dim)


def _gram(values: dict, n: int) -> np.ndarray:
    """sum_s f(s)* f(s), summed in the order of the values."""
    return sum((dagger(m) @ m for m in values.values()), np.zeros((n, n), dtype=complex))


def ep_witness(bundle: GradedBundle, values, tol: float = DEFAULT_TOL) -> EPWitness:
    """Validate the values against fiber(e) and cache the Cauchy-Schwarz bound."""
    fe = bundle.fiber(0)
    n = bundle.ambient_dim
    kept: dict[int, np.ndarray] = {}
    for s, raw in values.items():
        s = int(s)
        if not 0 <= s < bundle.group.order:
            raise GroupMismatch(f"witness index {s} is not an element of {bundle.group.name}")
        m = np.asarray(raw, dtype=complex)
        if m.shape != (n, n):
            raise ShapeMismatch(f"witness value at {s} has shape {m.shape}, ambient is {n}")
        if hs_norm(m) <= _ZERO_CUT:
            continue
        if not fe.contains(m, max(tol, 1e-8)):
            raise ValueOutsideUnitFiber(f"witness value at {s} escapes the unit fiber")
        kept[s] = m
    return EPWitness(bundle, kept, op_norm(_gram(kept, n)))


def uniform_witness(bundle: GradedBundle, tol: float = DEFAULT_TOL) -> EPWitness:
    """f(s) = 1_e / sqrt(|G|) on all of G; exact, with bound 1 up to rounding.

    The unit 1_e comes from the least-squares solve in matrices.unit_coords,
    so the bound is 1 up to rounding in that solve; the tests hold it within
    1e-12 of 1.
    """
    u = unit_fiber_unit(bundle, tol)
    scale = 1.0 / np.sqrt(bundle.group.order)
    return ep_witness(bundle, {s: scale * u for s in bundle.group.elements()}, tol)


def point_witness(bundle: GradedBundle, s: int = 0, tol: float = DEFAULT_TOL) -> EPWitness:
    """f = delta_s . 1_e, the witness supported at a single group element."""
    return ep_witness(bundle, {int(s): unit_fiber_unit(bundle, tol)}, tol)


def ep_defect(bundle: GradedBundle, w: EPWitness, tol: float = DEFAULT_TOL) -> dict:
    """How far the witness averaging is from the identity, fiber by fiber.

    defect = max over an orthonormal basis {a} of each fiber of
    ||sum_s f(ts)* a f(s) - a|| / max(1, ||a||), operator norms throughout.
    A defect of zero certifies the approximation property on the nose.
    """
    if not same_bundle(w.bundle, bundle):
        raise GroupMismatch("witness was built over a different bundle")
    g = bundle.group
    worst = 0.0
    for t in g.elements():
        basis = bundle.fiber(t).basis
        acc = -basis.astype(complex)
        for s, fs in w.values.items():
            acc = acc + dagger(w.value(g.mul(t, s))) @ basis @ fs
        defect = op_norm(acc) / np.maximum(1.0, op_norm(basis))
        worst = max(worst, float(defect.max(initial=0.0)))
    return {"bound": w.bound, "defect": worst}


def averaging_map(bundle: GradedBundle, w: EPWitness, a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Apply sum_s f(.s)* (.) f(s) componentwise to a section of the bundle.

    a must decompose along the grading (NotInAlgebra otherwise); sections
    supported on a subgroup are simply sections with zero components
    elsewhere, so restricted elements need no separate entry point.
    """
    if not same_bundle(w.bundle, bundle):
        raise GroupMismatch("witness was built over a different bundle")
    sa = section_algebra(bundle, tol, check=False)
    comps = sa.components(a, max(tol, 1e-8))
    g = bundle.group
    out = np.zeros((bundle.ambient_dim, bundle.ambient_dim), dtype=complex)
    for h, ah in enumerate(comps):
        if hs_norm(ah) <= _ZERO_CUT:
            continue
        for s, fs in w.values.items():
            out = out + dagger(w.value(g.mul(h, s))) @ ah @ fs
    return out


def matrix_coefficient(g: FiniteGroup, gvals: dict, n: int) -> complex:
    """sum_m conj(g(nm)) g(m), the positive-type function an ell^2 vector defines."""
    total = 0.0 + 0.0j
    for m, gm in gvals.items():
        shifted = gvals.get(g.mul(int(n), int(m)))
        if shifted is not None:
            total += np.conj(complex(shifted)) * complex(gm)
    return complex(total)


def ep_pullback_witness(fd: EPWitness, gvals: dict, q: Quotient,
                        tol: float = DEFAULT_TOL) -> EPWitness:
    """Combine a witness over G/N with an ell^2 function on N.

    h(s) = f(sN) g(n_s) placed in the unit fiber of the pull-back, where
    s = c(sN) n_s splits s through the chosen section.  Requires
    sum |g|^2 <= 1 (GNormExceeded), which keeps bound(h) <= bound(f).
    """
    if fd.bundle.group.table != q.quotient_group.table:
        raise GroupMismatch("witness must live over the quotient group of q")
    members = set(q.subgroup.members)
    for m in gvals:
        if int(m) not in members:
            raise GroupMismatch(f"g({m}) is set but {m} is not in the kernel subgroup")
    gsum = sum(abs(complex(v)) ** 2 for v in gvals.values())
    if gsum > 1.0 + 1e-12:
        raise GNormExceeded(f"sum |g|^2 = {gsum:.6g} exceeds 1")
    pb = pullback(fd.bundle, q)
    eye = np.eye(q.group.order)
    hvals: dict[int, np.ndarray] = {}
    for s in q.group.elements():
        dv = fd.values.get(q.coset_of[s])
        if dv is None:
            continue
        gv = complex(gvals.get(q.n_part(s), 0.0))
        if abs(gv) <= _ZERO_CUT:
            continue
        hvals[s] = np.kron(gv * dv, eye)
    return ep_witness(pb, hvals, tol)


def _sections(bundle: GradedBundle | SectionAlgebra, tol: float) -> SectionAlgebra:
    """The bundle's section algebra, unless it is one already built."""
    if isinstance(bundle, SectionAlgebra):
        return bundle
    return section_algebra(bundle, tol, check=False)


def regular_representation_kernel(bundle: GradedBundle | SectionAlgebra,
                                  tol: float = DEFAULT_TOL) -> int:
    """dim ker of sections -> sections tensor lambda; zero iff the grading is faithful.

    As <a tensor lambda(s), b tensor lambda(t)>_HS = |G| delta_{s,t} <a, b>_HS, the
    map's singular values are sqrt|G| times those of C, the fiber coordinates of
    the components of the section basis (NotInAlgebra if they do not rebuild it).
    The bundle's section algebra may be passed in its place if already built.
    """
    sa = _sections(bundle, tol)
    flat = sa.total.flat
    coeffs = flat @ sa.solver.T
    miss = np.linalg.norm(coeffs @ sa.stack - flat, axis=1)
    if np.any(miss > max(tol, 1e-8) * np.maximum(1.0, np.linalg.norm(flat, axis=1))):
        raise NotInAlgebra("matrix is not a section of the grading")
    sv = np.sqrt(sa.group.order) * np.linalg.svd(coeffs, compute_uv=False)
    return sa.total.dim - numerical_rank(sv, max(tol, 1e-10))


def least_squares_witness(bundle: GradedBundle, iters: int = 25,
                          tol: float = DEFAULT_TOL) -> EPWitness:
    """Search for an exact witness supported on all of G by alternating least squares.

    The fixed-point equations sum_s f(ts)* a f(s) = a are bilinear in f, so
    the starred copy is frozen while the other is solved for, then the roles
    swap.  Returns the best witness seen; the caller judges its defect.
    """
    g, fe = bundle.group, bundle.fiber(0)
    if fe.dim == 0:
        return ep_witness(bundle, {}, tol)
    basis = fe.basis_list()
    n = bundle.ambient_dim

    p = fe.project(np.eye(n))
    if hs_norm(p) <= _ZERO_CUT:
        p = basis[0]
    coords = np.tile(fe.coords(p / (hs_norm(p) * np.sqrt(g.order))), (g.order, 1))

    targets = [(t, a) for t in g.elements() for a in bundle.fiber(t).basis_list()]

    def witness_of(x):
        return ep_witness(bundle, {s: fe.from_coords(x[s]) for s in g.elements()}, tol)

    best = witness_of(coords)
    best_defect = ep_defect(bundle, best, tol)["defect"]
    for _ in range(iters):
        frozen = [fe.from_coords(coords[s]) for s in g.elements()]
        cols = np.zeros((len(targets) * n * n, g.order * fe.dim), dtype=complex)
        rhs = np.zeros(len(targets) * n * n, dtype=complex)
        for row, (t, a) in enumerate(targets):
            rhs[row * n * n:(row + 1) * n * n] = a.ravel()
            for s in g.elements():
                left = dagger(frozen[g.mul(t, s)]) @ a
                for j, bj in enumerate(basis):
                    cols[row * n * n:(row + 1) * n * n, s * fe.dim + j] = (left @ bj).ravel()
        sol, *_ = np.linalg.lstsq(cols, rhs, rcond=None)
        # plain alternation oscillates around balanced fixed points, so the
        # update is damped halfway toward the previous iterate
        coords = (coords + sol.reshape(g.order, fe.dim)) / 2.0
        cand = witness_of(coords)
        d = ep_defect(bundle, cand, tol)["defect"]
        if d < best_defect:
            best, best_defect = cand, d
        if best_defect <= max(tol, 1e-10):
            break
    return best


def amenability_report(bundle: GradedBundle | SectionAlgebra, tol: float = 1e-8) -> dict:
    """Faithfulness of the regular representation plus an exact-witness search.

    The kernel dimension is always zero here: fibers are honest subspaces of
    one matrix algebra, so the section map is injective and tensoring with
    the regular representation stays injective.  It is recomputed and
    checked rather than assumed. The bundle's section algebra may be passed
    in its place if already built.
    """
    sa = _sections(bundle, tol)
    kern = regular_representation_kernel(sa, tol)
    bundle = sa.bundle
    if kern:
        raise AxiomViolation(
            f"regular representation has a {kern}-dimensional kernel; "
            "the grading cannot be a direct sum")
    try:
        w = uniform_witness(bundle, tol)
    except NonUnitalUnitFiber:
        w = least_squares_witness(bundle, tol=tol)
    rep = ep_defect(bundle, w, tol)
    return {
        "regular_rep_kernel_dim": kern,
        "ep_exact_witness_found": bool(rep["defect"] <= max(tol, 1e-8)),
        "witness_bound": rep["bound"],
        "witness_defect": rep["defect"],
    }
