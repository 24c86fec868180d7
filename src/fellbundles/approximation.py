"""Approximation-property witnesses: norm bounds, defects, and pull-backs.

A witness is a finitely supported function f from the group into the unit
fiber.  Averaging a_t against f, a_t -> sum_s f(ts)* a_t f(s), is a
completely positive map whose norm is controlled by ||sum_s f(s)* f(s)||;
the witness is exact when this averaging leaves every fiber pointwise
fixed.  Over a finite group the uniform witness f = 1_e / sqrt|G| is exact
on every Fell bundle: for a in A_t with p the unit of A_e, aa* and a*a lie
in A_e, so (pa - a)(pa - a)* = 0 = (ap - a)*(ap - a) and the average is
pap = a.  Witnesses pull back along quotient maps after multiplication by
an ell^2 function on the kernel.  The regular representation's kernel is read
off the singular values of the stacked fiber bases that the grading's sweep
computes, so no section algebra or tensor product is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundles import GradedBundle, pullback, same_bundle, unit_fiber_unit
from .errors import (
    AxiomViolation,
    GNormExceeded,
    GroupMismatch,
    NotInAlgebra,
    ShapeMismatch,
    ValueOutsideUnitFiber,
)
from .groups import FiniteGroup, Quotient
from .matrices import _ZERO_CUT, DEFAULT_TOL, dagger, hs_norm, numerical_rank, op_norm, precondition_tol


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
        if not fe.contains(m, precondition_tol(tol)):
            raise ValueOutsideUnitFiber(f"witness value at {s} escapes the unit fiber")
        kept[s] = m
    return EPWitness(bundle, kept, op_norm(_gram(kept, n)))


def uniform_witness(bundle: GradedBundle, tol: float = DEFAULT_TOL) -> EPWitness:
    """f(s) = 1_e / sqrt(|G|) on all of G; exact, with bound 1 up to the rounding
    of the least-squares solve for 1_e in matrices.unit_coords. When fiber(e),
    and so every fiber, is zero, its unit is 0 and the witness is empty."""
    if bundle.fiber(0).dim == 0:
        return ep_witness(bundle, {}, tol)
    u = unit_fiber_unit(bundle, tol)
    scale = 1.0 / np.sqrt(bundle.group.order)
    return ep_witness(bundle, {s: scale * u for s in bundle.group.elements()}, tol)


def _average(w: EPWitness, t: int, x: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """acc + sum_s f(ts)* x f(s), x in fiber t or a stack of such, in witness order."""
    g = w.bundle.group
    for s, fs in w.values.items():
        acc = acc + dagger(w.value(g.mul(t, s))) @ x @ fs
    return acc


def ep_defect(bundle: GradedBundle, w: EPWitness, tol: float = DEFAULT_TOL) -> dict:
    """How far the witness averaging is from the identity, fiber by fiber.

    defect = max over an orthonormal basis {a} of each fiber of
    ||sum_s f(ts)* a f(s) - a|| / max(1, ||a||), operator norms throughout.
    A defect of zero certifies the approximation property on the nose.
    """
    if not same_bundle(w.bundle, bundle):
        raise GroupMismatch("witness was built over a different bundle")
    worst = 0.0
    for t in bundle.group.elements():
        basis = bundle.fiber(t).basis
        acc = _average(w, t, basis, -basis.astype(complex))
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
    out = np.zeros((bundle.ambient_dim, bundle.ambient_dim), dtype=complex)
    for h, ah in enumerate(_components(bundle, a, precondition_tol(tol))):
        if hs_norm(ah) > _ZERO_CUT:
            out = _average(w, h, ah, out)
    return out


def _components(bundle: GradedBundle, mat, tol: float) -> list[np.ndarray]:
    """The unique fiberwise decomposition of mat, by a pseudoinverse of the stacked fiber
    bases (the fibers form a direct, not necessarily HS-orthogonal, sum); NotInAlgebra
    if it does not rebuild mat."""
    stack = np.concatenate([f.flat for f in bundle.fibers])
    vec = np.asarray(mat, dtype=complex).ravel()
    c = np.linalg.pinv(stack.T) @ vec
    if np.linalg.norm(stack.T @ c - vec) > tol * max(1.0, float(np.linalg.norm(vec))):
        raise NotInAlgebra("matrix is not a section of the grading")
    offsets = np.cumsum((0, *bundle.fiber_dims()))
    return [f.from_coords(c[offsets[s]:offsets[s + 1]]) for s, f in enumerate(bundle.fibers)]


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
    if gsum > 1.0 + tol:
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


def regular_representation_kernel(frame_sv: np.ndarray, order: int,
                                  tol: float = DEFAULT_TOL) -> int:
    """dim ker of sections -> sections tensor lambda; zero iff the grading is faithful.

    Read off the sweep of the grading (`bundles._read_grading`): frame_sv are the
    singular values sigma of the stacked fiber bases of a group of the given order.
    An orthonormal basis of the span A keeps the sigma above tol, orthonormalize's
    cut for unit rows, and its fiber coordinates have singular values 1/sigma there. As
    <a tensor lambda(s), b tensor lambda(t)>_HS = |G| delta_{s,t} <a, b>_HS, the
    map's singular values are sqrt|G| / sigma, and no tensor product is formed.
    """
    kept = np.asarray(frame_sv, dtype=float)
    kept = kept[kept > tol]
    return len(kept) - numerical_rank(np.sqrt(order) / kept[::-1], tol)


def amenability_report(bundle: GradedBundle, frame_sv: np.ndarray,
                       tol: float = DEFAULT_TOL) -> dict:
    """Faithfulness of the regular representation plus the uniform witness's defect.

    The kernel dimension is always zero here: fibers are honest subspaces of
    one matrix algebra, so the section map is injective and tensoring with
    the regular representation stays injective.  It is recomputed and
    checked rather than assumed, from the singular values frame_sv that the
    grading's sweep read. The witness is `uniform_witness`, exact by the
    module docstring; a unit fiber without a unit raises NonUnitalUnitFiber.
    """
    kern = regular_representation_kernel(frame_sv, bundle.group.order, tol)
    if kern:
        raise AxiomViolation(
            f"regular representation has a {kern}-dimensional kernel; "
            "the grading cannot be a direct sum")
    rep = ep_defect(bundle, uniform_witness(bundle, tol), tol)
    return {
        "regular_rep_kernel_dim": kern,
        "ep_exact_witness_found": bool(rep["defect"] <= tol),
        "witness_bound": rep["bound"],
        "witness_defect": rep["defect"],
    }
