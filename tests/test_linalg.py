import numpy as np
import pytest
import scipy.sparse as sp

from igamotor.errors import FactorizationError, SingularSystemError
from igamotor.linalg import complex_lu_solve, factorize


def random_spd(n, rng):
    A = rng.standard_normal((n, n))
    return sp.csc_matrix(A @ A.T + n * np.eye(n))


def test_factorize_identity():
    F = factorize(sp.identity(5, format="csc"))
    b = np.arange(5.0)
    np.testing.assert_array_equal(F.solve(b), b)


def test_factorize_small_hand_solve():
    F = factorize(sp.csc_matrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
    np.testing.assert_allclose(F.solve(np.array([1.0, 1.0])), [1 / 3, 1 / 3], atol=1e-15)


def test_factorize_rejects_indefinite_and_singular():
    with pytest.raises(FactorizationError):
        factorize(sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 1.0]])))
    with pytest.raises(FactorizationError):
        factorize(sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]])))
    with pytest.raises(FactorizationError):
        factorize(sp.csc_matrix(np.array([[1.0, 0.0], [0.7, 1.0]])))


def test_machine_stiffness_residual(coarse_cfg, coarse_blocks, rng):
    F = factorize(coarse_blocks.K_rt)
    b = rng.standard_normal(F.n)
    x = F.solve(b)
    assert np.linalg.norm(coarse_blocks.K_rt @ x - b) / np.linalg.norm(b) < 1e-10


def test_solve_multi_contracts(rng):
    K = random_spd(40, rng)
    F = factorize(K)
    assert np.array_equal(F.solve(np.zeros((40, 3))), np.zeros((40, 3)))
    X = F.solve(K.toarray())
    np.testing.assert_allclose(X, np.eye(40), atol=1e-10)
    bz = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    np.testing.assert_array_equal(F.solve(bz), F.solve(bz.real) + 1j * F.solve(bz.imag))
    with pytest.raises(ValueError):
        F.solve(np.zeros((17, 2)))


def test_factorization_reuse_matches_fresh_solves(rng):
    K = random_spd(30, rng)
    F = factorize(K)
    for _ in range(100):
        b = rng.standard_normal(30)
        x_reused = F.solve(b)
        x_fresh = factorize(K).solve(b)
        assert np.abs(x_reused - x_fresh).max() < 1e-12 * max(1.0, np.abs(x_fresh).max())


def test_determinism_bitwise(rng):
    K = random_spd(25, rng)
    b = rng.standard_normal(25)
    x1 = factorize(K).solve(b)
    x2 = factorize(K.copy()).solve(b.copy())
    assert np.array_equal(x1, x2)


def test_complex_lu_examples(rng):
    np.testing.assert_array_equal(complex_lu_solve(np.eye(3), np.array([1, 2j, 3.0])),
                                  np.array([1, 2j, 3.0]))
    x = complex_lu_solve(np.diag([2j, -1.0]), np.array([2j, 3.0]))
    np.testing.assert_allclose(x, [1.0, -3.0], atol=1e-15)
    A = rng.standard_normal((36, 36)) + 1j * rng.standard_normal((36, 36)) + 6 * np.eye(36)
    b = rng.standard_normal(36) + 1j * rng.standard_normal(36)
    x = complex_lu_solve(A, b)
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-12
    with pytest.raises(SingularSystemError):
        complex_lu_solve(np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex),
                         np.array([1.0, 2.0], dtype=complex))


def test_complex_lu_stack_matches_per_matrix_solves(rng):
    A = rng.standard_normal((5, 12, 12)) + 1j * rng.standard_normal((5, 12, 12)) \
        + 4 * np.eye(12)
    b = rng.standard_normal((5, 12)) + 1j * rng.standard_normal((5, 12))
    x = complex_lu_solve(A, b)
    assert x.shape == (5, 12)
    for i in range(5):
        np.testing.assert_array_equal(x[i], complex_lu_solve(A[i], b[i]))


def test_complex_lu_stack_rejects_one_singular_matrix(rng):
    A = rng.standard_normal((4, 6, 6)) + 1j * rng.standard_normal((4, 6, 6)) + 3 * np.eye(6)
    b = rng.standard_normal((4, 6)) + 0j
    complex_lu_solve(A, b)
    A[2] = np.outer(A[2, 0], np.ones(6))    # rank one
    with pytest.raises(SingularSystemError):
        complex_lu_solve(A, b)
