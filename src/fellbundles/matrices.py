"""Subspace calculus on complex matrices.

A MatrixSubspace is a linear subspace of M_n(C) carried by a Hilbert-Schmidt
orthonormal basis, so membership, projection, and span arithmetic reduce to
flat numpy linear algebra. The algebra helpers (multiplication tensor, unit,
center) give the bimodule check its block counts and the graded ideals their
central projections.

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

Tolerance policy: a run has one tol, DEFAULT_TOL unless given, and every
check of the run receives it unchanged, for its residuals and its rank, unit
and spectral cuts. A precondition, a check that raises to guard a construction,
runs at `precondition_tol(tol)` = max(tol, DEFAULT_TOL), never tighter. So do
the cuts that construct an object instead of checking one, such as the rank,
unit and eigenvalue-grouping cuts of `duality.graded_ideals`: at tol = 0 a
rank cut would keep no null space, and no unit or grouping would hold.
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


def precondition_tol(tol: float) -> float:
    """The tolerance of a check that raises to guard a construction."""
    return max(tol, DEFAULT_TOL)


def require(report: dict, error: type[Exception], prefix: str = "") -> None:
    """Raise error(prefix + the first violation) unless the report passes."""
    if not report["pass"]:
        raise error(f"{prefix}{report['violations'][0]}")


def dagger(m: np.ndarray) -> np.ndarray:
    """Adjoint of a matrix, or of each matrix in a stack (..., n, n)."""
    return m.conj().swapaxes(-1, -2)


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
        coords, gap, size = project_rows(self.flat, mats.reshape(-1, self.ambient_dim ** 2))
        return coords.reshape(*lead, self.dim), (gap / np.maximum(1.0, size)).reshape(lead)

    def contains(self, m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        return bool(self.decompose(m)[1] <= tol)

    def basis_list(self) -> list[np.ndarray]:
        return [self.basis[i] for i in range(self.dim)]


def orthonormalize(mats, ambient_dim: int | None = None, tol: float = DEFAULT_TOL) -> MatrixSubspace:
    """HS-orthonormal basis of span(mats); near-dependent directions are dropped.

    The cut is at tol times the largest input norm, so scaling the whole input
    does not change which directions survive. A complex stack (k, n, n) is read
    in place: besides it, only the SVD's copy and its vh are held.
    """
    try:
        stack = np.asarray(mats, dtype=complex)
    except ValueError as exc:  # a list of matrices of several shapes
        raise DimensionMismatch(f"matrices of different shapes: {exc}") from exc
    if ambient_dim is None:
        if not len(stack):
            raise DimensionMismatch("empty input needs an explicit ambient_dim")
        ambient_dim = stack.shape[1]
    if len(stack) and stack.shape[1:] != (ambient_dim, ambient_dim):
        raise DimensionMismatch(f"matrix shape {stack.shape[1:]} in ambient dim {ambient_dim}")
    if not np.all(np.isfinite(stack)):
        raise DimensionMismatch("non-finite entries")
    flat = stack.reshape(-1, ambient_dim * ambient_dim)
    cut = _span_cut(flat, tol)
    _, sv, vh = np.linalg.svd(flat, full_matrices=False)
    basis = vh[:int(np.sum(sv > cut))]  # sv is sorted, so the kept rows are a prefix
    return MatrixSubspace(ambient_dim, basis.reshape(-1, ambient_dim, ambient_dim))


def project_rows(basis: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For flat rows (k, m) and HS-orthonormal basis rows (dim, m): the coordinates
    (k, dim), the HS norm of each row's part off the span, and each row's HS norm.
    The part off the span is formed in place of its projection, so besides rows only
    one array of their size is held."""
    coords = rows @ basis.conj().T
    off = np.dot(coords, basis)
    return coords, _row_norms(np.subtract(rows, off, out=off)), _row_norms(rows)


def _span_cut(rows: np.ndarray, tol: float) -> float:
    """The singular value at or below which a direction of span(rows) is dropped:
    tol times the largest row norm."""
    return tol * np.linalg.norm(rows, axis=1).max(initial=0.0)


def span_rank(rows: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """dim span of the flat rows (k, m), by orthonormalize's cut. Rearranging or
    zero-padding the columns keeps the singular values, so it keeps the rank."""
    rows = np.asarray(rows, dtype=complex)
    if rows.size == 0:
        return 0
    return int(np.sum(np.linalg.svd(rows, compute_uv=False) > _span_cut(rows, tol)))


def product_coords(left, right, target: MatrixSubspace) -> tuple[np.ndarray, np.ndarray]:
    """target.decompose of every product left[i] @ right[j]: shapes (i, j, dim) and (i, j)."""
    left, right = np.asarray(left, dtype=complex), np.asarray(right, dtype=complex)
    return target.decompose(left[:, None] @ right[None, :])


# algebra structure on a subspace

def multiplication_tensor(a: MatrixSubspace, tol: float = DEFAULT_TOL, products=None) -> np.ndarray:
    """Structure constants m[i, j, :] = coords(b_i @ b_j); NotAnAlgebra if open.
    products is product_coords(a.basis, a.basis, a), when the caller holds it."""
    coords, res = product_coords(a.basis, a.basis, a) if products is None else products
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
    if np.linalg.norm(system @ x - rhs) > tol * max(1.0, np.linalg.norm(rhs)):
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
            if groups and abs(lam - w[groups[-1][-1]]) < tol * max(1.0, abs(w).max()):
                groups[-1].append(i)
            else:
                groups.append([i])
        projs = []
        for idx in groups:
            p = sum(np.outer(v[:, i], v[:, i].conj()) for i in idx)
            p = unit @ p @ unit  # discard the part outside the support
            if hs_norm(p) > tol:
                projs.append(p)
        if len(projs) == z_space.dim and all(hs_norm(p @ p - p) <= tol * max(1.0, hs_norm(p))
                                             and a.contains(p, tol) for p in projs):
            projs.sort(key=lambda p: (round(hs_norm(p) ** 2), np.argmax(np.abs(np.diag(p)) > tol)))
            return projs
    raise NotAnAlgebra("could not resolve minimal central projections")
