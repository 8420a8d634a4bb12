import numpy as np
import pytest
import scipy.sparse as sp

from igamotor.errors import FactorizationError, SingularSystemError
from igamotor.linalg import factorize, spd_stack_solve


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
    with pytest.raises(ValueError):    # a cast would drop the imaginary part
        F.solve(rng.standard_normal(40) + 1j * rng.standard_normal(40))
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


def test_spd_stack_solve_examples(rng):
    np.testing.assert_array_equal(spd_stack_solve(np.eye(3), np.array([1, 2, 3.0])),
                                  np.array([1, 2, 3.0]))
    x = spd_stack_solve(np.diag([2.0, 4.0]), np.array([2.0, 3.0]))
    np.testing.assert_allclose(x, [1.0, 0.75], atol=1e-15)
    A = random_spd(36, rng).toarray()
    b = rng.standard_normal(36)
    x = spd_stack_solve(A, b)
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-12
    with pytest.raises(SingularSystemError):
        spd_stack_solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        spd_stack_solve(np.eye(2), np.array([1.0, 2j]))
    with pytest.raises(ValueError):
        spd_stack_solve(np.eye(2) + 0j, np.array([1.0, 2.0]))


def test_spd_stack_solve_matches_per_matrix_solves(rng):
    A = np.stack([random_spd(12, rng).toarray() for _ in range(5)])
    b = rng.standard_normal((5, 12))
    x = spd_stack_solve(A, b)
    assert x.shape == (5, 12)
    for i in range(5):
        np.testing.assert_array_equal(x[i], spd_stack_solve(A[i], b[i]))


@pytest.mark.parametrize("kind", ["singular", "indefinite"])
def test_spd_stack_solve_rejects_one_bad_matrix(rng, kind):
    A = np.stack([random_spd(6, rng).toarray() for _ in range(4)])
    b = rng.standard_normal((4, 6))
    spd_stack_solve(A, b)
    v = rng.standard_normal(6)
    A[2] = np.outer(v, v) if kind == "singular" else np.diag([1.0, 2, 3, -1e-3, 5, 6])
    with pytest.raises(SingularSystemError):
        spd_stack_solve(A, b)
