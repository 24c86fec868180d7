"""Subspace calculus on complex matrices.

A MatrixSubspace is a linear subspace of M_n(C) carried by a Hilbert-Schmidt
orthonormal basis, so membership, projection, and span arithmetic reduce to
flat numpy linear algebra. The algebra helpers (multiplication tensor, unit,
center) power the Wedderburn block count used all over the test surface.

One kernel reads structure constants and closure residuals off the matrix
models: `MatrixSubspace.decompose` takes a stack (..., n, n) to its
coordinates (..., dim) and the relative residuals |m - Pm| / max(1, |m|),
and `product_coords(left, right, target)` decomposes every product
left[i] @ right[j] in target. That relative residual is the one closure rule:
a matrix lies in a subspace within tol when its residual is at most tol.

Every check in the package reports through `ResidualReport`, so this module
also decides whether a residual passes. A report is {"pass", "checks",
"violations"} ("items" for the bimodule axioms); each check entry holds
"pass" and its figures, e.g. "max_residual". A residual fails when it is not
within tol, and each failure is a violation with its location. A check
passes iff no violation carries its name; the report passes iff it has no
violations. `require` raises a named error from the first violation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotAnAlgebra, NotUnital

DEFAULT_TOL = 1e-9
# the size at or below which a coefficient or a norm counts as an exact zero
_ZERO_CUT = 1e-14


class ResidualReport:
    """Builder of the one report layout {"pass", "checks" | "items", "violations"}.

    The checks are named up front and listed in that order. A check passes
    iff no violation is recorded under its name; the report passes iff none
    is recorded at all. A residual fails when it is not within tol.
    """

    def __init__(self, tol: float, *names: str, section: str = "checks"):
        self.tol, self.section = tol, section
        self.fields: dict[str, dict] = {name: {} for name in names}
        self.failed: list[tuple[str, dict, float | None]] = []

    def exceeds(self, r):
        """The residual rule, elementwise: not r <= tol, so a NaN fails too."""
        return ~(np.asarray(r) <= self.tol)

    def fail(self, name: str, residual: float | None = None, **where) -> None:
        """Record a violation of check `name` at `where` (group indices, say)."""
        self.failed.append((name, where, residual))

    def residuals(self, name: str, values, **where) -> None:
        """Fold values into the check's max_residual; each one over tol fails at `where`."""
        values = np.asarray(values, dtype=float).ravel()
        entry = self.fields[name]
        entry["max_residual"] = float(values.max(initial=entry.get("max_residual", 0.0)))
        for r in values[self.exceeds(values)]:  # in order: row-major for a stack
            self.fail(name, float(r), **where)

    def entry(self, name: str, **fields) -> None:
        """The fields of a check that is not a max-residual check."""
        self.fields[name].update(fields)

    def build(self) -> dict:
        """Check reports list each violation with its location and residual; item
        reports (the bimodule axioms) list each failing item with its entry as detail."""
        failed = {name for name, _, _ in self.failed}
        checks = {name: {"pass": name not in failed, **fields}
                  for name, fields in self.fields.items()}
        if self.section == "items":
            violations = [{"item": name, "detail": checks[name]} for name, _, _ in self.failed]
        else:
            violations = [{"axiom": name, **where, "residual": r} for name, where, r in self.failed]
        return {"pass": not self.failed, self.section: checks, "violations": violations}


def require(report: dict, error: type[Exception], prefix: str = "") -> None:
    """Raise error(prefix + the first violation) unless the report passes."""
    if not report["pass"]:
        raise error(f"{prefix}{report['violations'][0]}")


def dagger(m: np.ndarray) -> np.ndarray:
    """Adjoint of a matrix, or of each matrix in a stack (..., n, n)."""
    return m.conj().swapaxes(-1, -2)


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """trace(a* b); conjugate-linear in the first argument."""
    return complex(np.vdot(a, b))


def hs_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def op_norm(m: np.ndarray):
    """Largest singular value, via the Hermitian spectrum of m* m: a float for
    one matrix, an array of one norm per matrix for a stack (..., n, n)."""
    m = np.asarray(m, dtype=complex)
    lead = m.shape[:-2]
    if m.size == 0:
        return np.zeros(lead) if lead else 0.0
    norms = np.sqrt(np.maximum(np.linalg.eigvalsh(dagger(m) @ m)[..., -1], 0.0))
    return norms if lead else float(norms)


def is_psd(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Hermitian within tol and spectrum above -tol * op_norm(m)."""
    m = np.asarray(m, dtype=complex)
    if op_norm(m - dagger(m)) > tol:
        return False
    herm = (m + dagger(m)) / 2
    w = np.linalg.eigvalsh(herm)
    return bool(w[0] >= -tol * max(op_norm(m), 1.0))


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """hs_norm of each row, summed as hs_norm sums: real and imaginary dot products."""
    re, im = rows.real[:, None, :], rows.imag[:, None, :]
    return np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0])


@dataclass(frozen=True)
class MatrixSubspace:
    """A subspace of M_n(C) with an HS-orthonormal basis, stacked (k, n, n)."""

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self) -> None:
        b = np.asarray(self.basis, dtype=complex)
        if b.ndim != 3 or b.shape[1:] != (self.ambient_dim, self.ambient_dim):
            raise DimensionMismatch(
                f"basis stack {b.shape} does not match ambient dim {self.ambient_dim}"
            )
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def flat(self) -> np.ndarray:
        return self.basis.reshape(self.dim, self.ambient_dim * self.ambient_dim)

    def coords(self, m: np.ndarray) -> np.ndarray:
        return self.flat.conj() @ np.asarray(m, dtype=complex).ravel()

    def from_coords(self, c) -> np.ndarray:
        """The matrix with coordinates c, or a stack for coordinates (..., dim)."""
        return np.tensordot(np.asarray(c, dtype=complex), self.basis, axes=(-1, 0))

    def project(self, m: np.ndarray) -> np.ndarray:
        return self.from_coords(self.coords(m))

    def residual(self, m: np.ndarray) -> float:
        return hs_norm(np.asarray(m, dtype=complex) - self.project(m))

    def decompose(self, mats) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates (..., dim) and relative residuals (...) of a stack (..., n, n).

        For a single matrix the sums run as in coords, project and hs_norm,
        so a one-matrix stack gives residual(m) / max(1, |m|) to the bit.
        """
        mats = np.asarray(mats, dtype=complex)
        lead = mats.shape[:-2]
        flat = mats.reshape(-1, self.ambient_dim * self.ambient_dim)
        coords = flat @ self.flat.conj().T
        res = _row_norms(flat - np.dot(coords, self.flat)) / np.maximum(1.0, _row_norms(flat))
        return coords.reshape(*lead, self.dim), res.reshape(lead)

    def contains(self, m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        return bool(self.decompose(m)[1] <= tol)

    def basis_list(self) -> list[np.ndarray]:
        return [self.basis[i] for i in range(self.dim)]


def orthonormalize(mats, ambient_dim: int | None = None, tol: float = DEFAULT_TOL) -> MatrixSubspace:
    """HS-orthonormal basis of span(mats); near-dependent directions are dropped.

    The cut is at tol times the largest input norm, so scaling the whole input
    does not change which directions survive.
    """
    mats = [np.asarray(m, dtype=complex) for m in mats]
    if ambient_dim is None:
        if not mats:
            raise DimensionMismatch("empty input needs an explicit ambient_dim")
        ambient_dim = mats[0].shape[0]
    for m in mats:
        if m.shape != (ambient_dim, ambient_dim):
            raise DimensionMismatch(f"matrix shape {m.shape} in ambient dim {ambient_dim}")
        if not np.all(np.isfinite(m)):
            raise DimensionMismatch("non-finite entries")
    stack = np.array(mats, dtype=complex).reshape(-1, ambient_dim * ambient_dim)
    scale = np.linalg.norm(stack, axis=1).max(initial=0.0)
    _, sv, vh = np.linalg.svd(stack, full_matrices=False)
    keep = sv > tol * scale
    return MatrixSubspace(ambient_dim, vh[keep].reshape(-1, ambient_dim, ambient_dim))


def product_span(s: MatrixSubspace, t: MatrixSubspace, tol: float = DEFAULT_TOL) -> MatrixSubspace:
    """Span of all pairwise products of basis elements."""
    if s.ambient_dim != t.ambient_dim:
        raise DimensionMismatch("product of subspaces in different ambients")
    prods = np.einsum("aij,bjk->abik", s.basis, t.basis).reshape(-1, s.ambient_dim, s.ambient_dim)
    return orthonormalize(list(prods), ambient_dim=s.ambient_dim, tol=tol)


def span_union(subspaces, ambient_dim: int | None = None, tol: float = DEFAULT_TOL) -> MatrixSubspace:
    mats: list[np.ndarray] = []
    for s in subspaces:
        mats.extend(s.basis_list())
        ambient_dim = s.ambient_dim
    return orthonormalize(mats, ambient_dim=ambient_dim, tol=tol)


def product_coords(left, right, target: MatrixSubspace) -> tuple[np.ndarray, np.ndarray]:
    """target.decompose of every product left[i] @ right[j]: shapes (i, j, dim) and (i, j)."""
    left, right = np.asarray(left, dtype=complex), np.asarray(right, dtype=complex)
    return target.decompose(left[:, None] @ right[None, :])


def subspace_leq(s: MatrixSubspace, t: MatrixSubspace, tol: float = DEFAULT_TOL) -> bool:
    return bool(np.all(t.decompose(s.basis)[1] <= tol))


def subspace_equal(s: MatrixSubspace, t: MatrixSubspace, tol: float = DEFAULT_TOL) -> bool:
    return s.dim == t.dim and subspace_leq(s, t, tol) and subspace_leq(t, s, tol)


# algebra structure on a subspace

def multiplication_tensor(a: MatrixSubspace, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Structure constants m[i, j, :] = coords(b_i @ b_j); NotAnAlgebra if open."""
    coords, res = product_coords(a.basis, a.basis, a)
    if np.any(res > tol):
        i, j = np.unravel_index(np.argmax(res), res.shape)
        raise NotAnAlgebra(f"basis product {(int(i), int(j))} escapes the span")
    return coords


def is_star_closed(a: MatrixSubspace, tol: float = DEFAULT_TOL) -> bool:
    return bool(np.all(a.decompose(dagger(a.basis))[1] <= tol))


def unit_coords(a: MatrixSubspace, mult: np.ndarray | None = None, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Coordinates of the two-sided unit of the algebra; NotUnital if none."""
    k = a.dim
    if k == 0:
        raise NotUnital("the zero algebra has no unit")
    m = multiplication_tensor(a, tol) if mult is None else mult
    # unit x: sum_i x_i m[i, j, :] = e_j and sum_i x_i m[j, i, :] = e_j for all j
    left = np.swapaxes(m, 0, 1).reshape(k, k * k).T  # rows (j, c), cols i
    right = m.reshape(k, k * k).T
    target = np.eye(k, dtype=complex).ravel()
    system = np.vstack([left, right])
    rhs = np.concatenate([target, target])
    x, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    if np.linalg.norm(system @ x - rhs) > tol * max(1.0, np.linalg.norm(rhs)) * 10:
        raise NotUnital("no two-sided unit solves the linear system")
    return x


def unit_element(a: MatrixSubspace, tol: float = DEFAULT_TOL) -> np.ndarray:
    return a.from_coords(unit_coords(a, tol=tol))


def numerical_rank(sv: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """How many singular values exceed tol times the largest one (times 1 if that is below 1)."""
    return int(np.sum(sv > tol * max(float(sv[0]) if sv.size else 0.0, 1.0)))


def _commutator_map(mult: np.ndarray) -> np.ndarray:
    """z -> (z b_j - b_j z)_j on coordinates: rows (j, c), columns i, entries m[i, j, c] - m[j, i, c]."""
    k = mult.shape[0]
    return (np.swapaxes(mult, 0, 1) - mult).reshape(k, k * k).T


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


def center_subspace(a: MatrixSubspace, tol: float = DEFAULT_TOL) -> MatrixSubspace:
    _, sv, vh = np.linalg.svd(_commutator_map(multiplication_tensor(a, tol)), full_matrices=False)
    null = vh[numerical_rank(sv, tol):].conj()  # rows span the nullspace in coordinate space
    return orthonormalize(a.from_coords(null), ambient_dim=a.ambient_dim, tol=tol)


def minimal_central_projections(a: MatrixSubspace, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """The minimal central projections of a unital *-closed matrix algebra.

    Diagonalizes a generic Hermitian central element and groups its spectral
    projections; retries with fresh randomness if a collision degenerates.
    """
    mult = multiplication_tensor(a, tol)
    unit = a.from_coords(unit_coords(a, mult, tol))
    z_space = center_subspace(a, tol)
    rng = np.random.default_rng(7)
    for _ in range(8):
        c = rng.normal(size=z_space.dim) + 1j * rng.normal(size=z_space.dim)
        z = z_space.from_coords(c)
        z = (z + dagger(z)) / 2
        # spectral projections of z within the support of the algebra
        w, v = np.linalg.eigh(z)
        groups: list[list[int]] = []
        for i, lam in enumerate(w):
            if groups and abs(lam - w[groups[-1][-1]]) < 1e-7 * max(1.0, abs(w).max()):
                groups[-1].append(i)
            else:
                groups.append([i])
        projs = []
        for idx in groups:
            p = sum(np.outer(v[:, i], v[:, i].conj()) for i in idx)
            p = unit @ p @ unit  # discard the part outside the support
            if hs_norm(p) > tol * 10:
                projs.append(p)
        ok = (
            len(projs) == z_space.dim
            and all(hs_norm(p @ p - p) <= 1e-7 * max(1.0, hs_norm(p)) for p in projs)
            and all(a.contains(p, 1e-7) for p in projs)
        )
        if ok:
            projs.sort(key=lambda p: (round(hs_norm(p) ** 2), np.argmax(np.abs(np.diag(p)) > 1e-7)))
            return projs
    raise NotAnAlgebra("could not resolve minimal central projections")
