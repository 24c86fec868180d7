"""Shared example battery: the small bundles every layer is exercised on."""

from __future__ import annotations

import numpy as np
import pytest

from fellbundles import bundles, groups, matrices

import models

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# even permutations of three points under the lexicographic enumeration of S3;
# test_groups re-derives this from permutation parity
A3 = (0, 3, 4)
# a transposition subgroup of S3 (the permutation swapping the first two points)
SWAP_SUBGROUP = (0, 2)

SQ2 = np.sqrt(2.0)


@pytest.fixture(scope="session")
def z2():
    return groups.cyclic(2)


@pytest.fixture(scope="session")
def z4():
    return groups.cyclic(4)


@pytest.fixture(scope="session")
def s3():
    return groups.symmetric(3)


@pytest.fixture(scope="session")
def q_z4(z4):
    return groups.quotient(z4, (0, 2))


@pytest.fixture(scope="session")
def q_s3(s3):
    return groups.quotient(s3, A3)


@pytest.fixture(scope="session")
def q_a4():
    """A4 over V4 with the coset sections (0, 1, 2), which are not a subgroup."""
    return groups.quotient(models.alternating4(), models.KLEIN)


@pytest.fixture(scope="session")
def scalar_line():
    """C sitting inside M_1."""
    return matrices.MatrixSubspace(1, np.ones((1, 1, 1), dtype=complex))


@pytest.fixture(scope="session")
def diag2():
    return matrices.MatrixSubspace(
        2, np.stack([np.diag([1.0 + 0j, 0.0]), np.diag([0.0, 1.0 + 0j])]))


@pytest.fixture(scope="session")
def m2_full():
    basis = [np.zeros((2, 2), dtype=complex) for _ in range(4)]
    for k, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        basis[k][i, j] = 1.0
    return matrices.MatrixSubspace(2, np.stack(basis))


@pytest.fixture(scope="session")
def pauli_bundle(z2):
    """fiber(0) = span I, fiber(1) = span X, inside M_2."""
    f0 = matrices.MatrixSubspace(2, (I2 / SQ2)[None, :, :])
    f1 = matrices.MatrixSubspace(2, (PAULI_X / SQ2)[None, :, :])
    return bundles.GradedBundle(z2, (f0, f1))


@pytest.fixture(scope="session")
def pauli_pullback(pauli_bundle, q_z4):
    return bundles.pullback(pauli_bundle, q_z4)


@pytest.fixture(scope="session")
def trivial_z4(z4, scalar_line):
    return bundles.trivial_bundle(z4, scalar_line)


@pytest.fixture(scope="session")
def trivial_s3(s3, scalar_line):
    return bundles.trivial_bundle(s3, scalar_line)


@pytest.fixture(scope="session")
def z3_bundle(scalar_line):
    """C*(Z3) graded by Z3 inside M_3, the quotient group of q_a4."""
    return bundles.trivial_bundle(groups.cyclic(3), scalar_line)


@pytest.fixture(scope="session")
def twisted_z4_action(z4, scalar_line):
    """Trivial action of Z4 on C, twist over {0, 2} sending 2 to -1."""
    alpha = np.ones((4, 1, 1), dtype=complex)
    tau = {0: np.ones((1, 1), dtype=complex), 2: -np.ones((1, 1), dtype=complex)}
    return bundles.TwistedAction(scalar_line, z4, groups.NormalSubgroup(z4, (0, 2)), alpha, tau)


@pytest.fixture(scope="session")
def twisted_z4_bundle(twisted_z4_action):
    return bundles.twisted_semidirect_bundle(twisted_z4_action)


@pytest.fixture(scope="session")
def twisted_z4_realized(twisted_z4_bundle):
    return bundles.concretize(twisted_z4_bundle)


@pytest.fixture(scope="session")
def swap_action(z2, diag2):
    """Z2 swapping the two diagonal coordinates of C^2."""
    alpha = np.stack([np.eye(2, dtype=complex),
                      np.array([[0, 1], [1, 0]], dtype=complex)])
    return bundles.plain_action(diag2, z2, alpha)


@pytest.fixture(scope="session")
def swap_semidirect_realized(swap_action):
    return bundles.concretize(bundles.semidirect_bundle(swap_action))


@pytest.fixture(scope="session")
def s3_quotient_bundle(twisted_z4_realized, q_s3):
    """A bundle graded by the order-2 quotient of S3 (table matches C2)."""
    bundle = twisted_z4_realized.bundle
    assert bundle.group.table == q_s3.quotient_group.table
    return bundles.GradedBundle(q_s3.quotient_group, bundle.fibers)
