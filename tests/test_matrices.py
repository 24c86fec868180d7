"""Subspace calculus: orthonormalization, norms, and the block-count machinery.

The Wedderburn expectations are frozen from oracle_center_dimension, a
deliberately plain elementwise implementation kept independent of the
library's einsum/SVD path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import example
from hypothesis import strategies as st

from fellbundles import groups, matrices
from fellbundles.errors import DimensionMismatch, NotAnAlgebra, NotUnital

from conftest import I2, PAULI_X, PAULI_Y, PAULI_Z


def oracle_center_dimension(basis, tol=1e-9):
    """Center dimension by raw linear algebra over stacked commutators."""
    k = len(basis)
    n = basis[0].shape[0]
    rows = []
    for j in range(k):
        for r in range(n):
            for c in range(n):
                row = [(basis[i] @ basis[j] - basis[j] @ basis[i])[r, c] for i in range(k)]
                rows.append(row)
    m = np.array(rows, dtype=complex)
    sv = np.linalg.svd(m, compute_uv=False)
    rank = int(np.sum(sv > tol * max(1.0, float(sv[0]) if len(sv) else 1.0)))
    return k - rank


def group_algebra(g):
    lam = groups.left_regular(g)
    return matrices.orthonormalize([lam[s] for s in g.elements()])


# frozen oracle values: number of simple blocks of small group algebras
GROUP_ALGEBRA_BLOCKS = {"S3": 3, "C4": 4, "D4": 5}


class TestSpans:
    def test_orthonormalize_drops_dependents(self):
        s = matrices.orthonormalize([I2, 2 * I2])
        assert s.dim == 1
        assert s.contains(5j * I2)

    def test_orthonormalize_empty_needs_ambient(self):
        with pytest.raises(DimensionMismatch):
            matrices.orthonormalize([])
        s = matrices.orthonormalize([], ambient_dim=3)
        assert s.dim == 0 and s.ambient_dim == 3

    def test_mixed_shapes_rejected(self):
        with pytest.raises(DimensionMismatch):
            matrices.orthonormalize([I2, np.eye(3)])

    def test_projection_and_membership(self):
        s = matrices.orthonormalize([PAULI_X, PAULI_Y])
        assert s.contains(PAULI_X + 2 * PAULI_Y)
        assert not s.contains(PAULI_Z)
        proj = s.project(PAULI_Z + PAULI_X)
        assert np.allclose(proj, PAULI_X)

    def test_product_span(self):
        e12 = np.array([[0, 1], [0, 0]], dtype=complex)
        e21 = e12.T.copy()
        p = matrices.product_span(matrices.orthonormalize([e12]),
                                  matrices.orthonormalize([e21]))
        assert p.dim == 1
        assert p.contains(np.diag([1.0 + 0j, 0.0]))

    def test_span_scaling_insensitive(self):
        # the drop threshold follows the largest input, not absolute size
        tiny = matrices.orthonormalize([1e-12 * I2, 1e-12 * PAULI_X])
        assert tiny.dim == 2


class TestNorms:
    def test_op_norm_known_value(self):
        m = np.array([[0, 3], [0, 4]], dtype=complex)
        assert abs(matrices.op_norm(m) - 5.0) < 1e-10

    def test_is_psd(self):
        assert matrices.is_psd(np.diag([0.0, 2.0]).astype(complex))
        assert not matrices.is_psd(PAULI_Z)  # eigenvalue -1
        assert not matrices.is_psd(1j * PAULI_X)  # not Hermitian

    def test_hs_inner_conjugates_first_argument(self):
        a = 1j * I2
        assert abs(matrices.hs_inner(a, I2) - (-2j)) < 1e-12


class TestAlgebraStructure:
    def test_unit_of_corner_algebra(self):
        # span{E11} is an algebra whose unit is not the ambient identity
        e11 = np.diag([1.0 + 0j, 0.0])
        s = matrices.orthonormalize([e11])
        u = matrices.unit_element(s)
        assert np.allclose(u, e11)

    def test_unit_missing(self):
        e12 = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(NotUnital):
            matrices.unit_coords(matrices.orthonormalize([e12]))

    def test_not_closed_rejected(self):
        s = matrices.orthonormalize([PAULI_X])  # X*X = I escapes
        with pytest.raises(NotAnAlgebra):
            matrices.multiplication_tensor(s)

    def test_block_counts_match_oracle(self, m2_full, diag2):
        assert matrices.wedderburn_block_count(m2_full) == 1
        assert matrices.wedderburn_block_count(diag2) == 2
        assert oracle_center_dimension(m2_full.basis_list()) == 1
        assert oracle_center_dimension(diag2.basis_list()) == 2

    @pytest.mark.parametrize("name,builder", [
        ("S3", lambda: groups.symmetric(3)),
        ("C4", lambda: groups.cyclic(4)),
        ("D4", lambda: groups.dihedral(4)),
    ])
    def test_group_algebra_blocks(self, name, builder):
        g = builder()
        alg = group_algebra(g)
        expected = GROUP_ALGEBRA_BLOCKS[name]
        assert len(groups.conjugacy_classes(g)) == expected
        assert oracle_center_dimension(alg.basis_list()) == expected
        assert matrices.wedderburn_block_count(alg) == expected

    def test_star_check_precedes_unit_check(self):
        e12 = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(NotAnAlgebra):
            matrices.wedderburn_block_count(matrices.orthonormalize([e12]))

    def test_minimal_central_projections(self, m2_full):
        projs = matrices.minimal_central_projections(m2_full)
        assert len(projs) == 1
        assert np.allclose(projs[0], I2)
        diag3 = matrices.MatrixSubspace(3, np.stack([np.diag([1.0 + 0j, 0, 0]),
                                                     np.diag([0, 1.0 + 0j, 0]),
                                                     np.diag([0, 0, 1.0 + 0j])]))
        projs3 = matrices.minimal_central_projections(diag3)
        assert len(projs3) == 3
        assert np.allclose(sum(projs3), np.eye(3))
        for p in projs3:
            assert np.allclose(p @ p, p)

    def test_group_algebra_projections_resolve_identity(self):
        alg = group_algebra(groups.symmetric(3))
        projs = matrices.minimal_central_projections(alg)
        assert len(projs) == 3
        assert np.allclose(sum(projs), np.eye(6))


complex_entries = st.complex_numbers(min_magnitude=0, max_magnitude=3,
                                     allow_nan=False, allow_infinity=False)


@st.composite
def small_matrices(draw, n=3):
    flat = draw(st.lists(complex_entries, min_size=n * n, max_size=n * n))
    return np.array(flat, dtype=complex).reshape(n, n)


@settings(max_examples=40, deadline=None)
@given(small_matrices())
def test_cstar_identity_holds_in_ambient(m):
    n = matrices.op_norm(m)
    assert abs(matrices.op_norm(m.conj().T @ m) - n * n) <= 1e-9 * max(1.0, n * n)


@settings(max_examples=40, deadline=None)
@given(small_matrices())
def test_gram_of_adjoint_is_psd(m):
    assert matrices.is_psd(m.conj().T @ m, tol=1e-8)


@settings(max_examples=25, deadline=None)
@given(st.lists(small_matrices(), min_size=1, max_size=6))
def test_orthonormalize_spans_inputs(mats):
    s = matrices.orthonormalize(mats, tol=1e-8)
    scale = max(matrices.hs_norm(m) for m in mats)
    for m in mats:
        # inputs are reproduced up to the documented drop threshold
        assert s.residual(m) <= 1e-7 * max(1.0, scale)
    if s.dim:
        gram = s.flat @ s.flat.conj().T
        assert np.allclose(gram, np.eye(s.dim), atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 3), k=st.integers(0, 9), scale=st.floats(0.01, 10.0),
       seed=st.integers(0, 2**16))
@example(n=2, k=0, scale=3.0, seed=0)
def test_decompose_matches_per_matrix_coords_and_residual(n, k, scale, seed):
    # a (2, 3, n, n) stack, one entry of it taken from inside the subspace
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(min(k, n * n), n, n)) + 1j * rng.normal(size=(min(k, n * n), n, n))
    sub = matrices.orthonormalize(list(raw), ambient_dim=n)
    mats = scale * (rng.normal(size=(2, 3, n, n)) + 1j * rng.normal(size=(2, 3, n, n)))
    mats[1, 2] = sub.project(mats[1, 2])
    coords, res = sub.decompose(mats)
    assert coords.shape == (2, 3, sub.dim) and res.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            m = mats[i, j]
            assert np.allclose(coords[i, j], sub.coords(m), rtol=0, atol=1e-12)
            expected = sub.residual(m) / max(1.0, matrices.hs_norm(m))
            assert abs(res[i, j] - expected) <= 1e-12
