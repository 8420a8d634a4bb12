import numpy as np
import pytest
import scipy.sparse as sp

from conftest import machine_stiffness
from igamotor import linalg
from igamotor.assembly import assemble_vector_metric
from igamotor.design import DesignSpace
from igamotor.errors import FactorizationError, SingularSystemError
from igamotor.geometry import MachineConfig
from igamotor.linalg import DENSE_MAX_N, factorize, spd_stack_solve
from igamotor.optim import MachineSolver


def random_spd(n, rng):
    A = rng.standard_normal((n, n))
    return sp.csc_matrix(A @ A.T + n * np.eye(n))


def random_hpd(n, rng):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return sp.csc_matrix(A @ A.conj().T + n * np.eye(n))


# the largest order factored densely and the smallest factored by SuperLU:
# the contract tests run at both
SIZES = (DENSE_MAX_N, DENSE_MAX_N + 1)


def embed(M, n):
    """M (m, m) on the leading block of an (n, n) CSC matrix, the identity
    on the rest: M's verdict and pivots at order n."""
    M = np.asarray(M)
    return sp.block_diag([sp.csc_matrix(M), sp.identity(n - M.shape[0], dtype=M.dtype)],
                         format="csc")


@pytest.mark.parametrize("n, backend", [(2, "_cholesky"), (DENSE_MAX_N, "_cholesky"),
                                        (DENSE_MAX_N + 1, "_superlu")])
def test_backend_is_chosen_by_size(monkeypatch, rng, n, backend):
    called = []
    for name in ("_cholesky", "_superlu"):
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name,
                            lambda K, real=real, name=name: called.append(name) or real(K))
    for K in (random_spd(n, rng), random_hpd(n, rng)):
        factorize(K)
    assert called == [backend, backend]


def test_factorize_identity():
    for n in SIZES:
        F = factorize(sp.identity(n, format="csc"))
        b = np.arange(float(n))
        np.testing.assert_array_equal(F.solve(b), b)


def test_factorize_small_hand_solve():
    for n in SIZES:
        F = factorize(embed([[2.0, 1.0], [1.0, 2.0]], n))
        b = np.zeros(n)
        b[:2] = 1.0
        x = F.solve(b)
        np.testing.assert_allclose(x[:2], [1 / 3, 1 / 3], atol=1e-15)
        assert not x[2:].any()


@pytest.mark.parametrize("n", SIZES)
def test_factorize_rejects_non_square(n):
    with pytest.raises(FactorizationError, match="not square"):
        factorize(sp.csc_matrix((n, n + 1)))


def test_factorize_rejects_indefinite_and_singular():
    for n in SIZES:
        with pytest.raises(FactorizationError, match="nonpositive pivot"):
            factorize(embed([[1.0, 2.0], [2.0, 1.0]], n))
        # singular, eigenvalues 0 and 2: an exactly zero pivot, which the
        # dense back end reports as nonpositive and SuperLU as a failed factor
        with pytest.raises(FactorizationError):
            factorize(embed([[1.0, 1.0], [1.0, 1.0]], n))
        with pytest.raises(FactorizationError):         # a NaN pivot
            factorize(embed([[1.0, 0.0], [0.0, np.nan]], n))
        with pytest.raises(FactorizationError, match="not symmetric"):
            factorize(embed([[1.0, 0.0], [0.7, 1.0]], n))


def test_factorize_hermitian_matches_dense_solve(rng):
    for n in SIZES:
        K = random_hpd(n, rng)
        F = factorize(K)
        dense = K.toarray()
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for rhs in (b, b.real, np.column_stack([b, b.conj()])):
            x = F.solve(rhs)
            assert x.dtype == np.complex128
            ref = np.linalg.solve(dense, rhs)
            assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


def test_factorize_rejects_complex_symmetric_and_indefinite_hermitian(rng):
    for n in SIZES:
        S = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        S = S + S.T + 12 * np.eye(6)                    # S = S^T, S != S^H
        with pytest.raises(FactorizationError, match="not symmetric"):
            factorize(embed(S, n))
        # eigenvalues -1 and 3: Hermitian, indefinite
        with pytest.raises(FactorizationError, match="nonpositive pivot"):
            factorize(embed(np.array([[1.0, 2j], [-2j, 1.0]]), n))
        with pytest.raises(FactorizationError):         # singular, as above
            factorize(embed(np.array([[1.0, 1j], [-1j, 1.0]]), n))


def test_real_factor_refuses_complex_rhs_and_complex_factor_takes_both(rng):
    for n in SIZES:
        real = factorize(random_spd(n, rng))
        with pytest.raises(ValueError):    # a cast would drop the imaginary part
            real.solve(np.ones(n) + 1j)
        assert real.solve(np.ones(n)).dtype == np.float64
        hermitian = factorize(random_hpd(n, rng))
        b = rng.standard_normal(n)
        np.testing.assert_array_equal(hermitian.solve(b), hermitian.solve(b + 0j))


@pytest.mark.parametrize("n", SIZES)
def test_solutions_are_fortran_order_of_the_factor_dtype(rng, n):
    # coupling._solve_columns slices X off the solution of [G j]: X keeps
    # the layout of a solve of G alone only if solutions are Fortran order
    for K, dtype in ((random_spd(n, rng), np.float64), (random_hpd(n, rng), np.complex128)):
        F = factorize(K)
        assert np.dtype(F.dtype) == dtype
        x = F.solve(rng.standard_normal((n, 4)))
        assert x.dtype == dtype and x.flags.f_contiguous
        assert F.solve(rng.standard_normal(n)).shape == (n,)


def test_machine_stiffness_residual(coarse_cfg, coarse_stiffness, rng):
    K_rt = coarse_stiffness[1]
    F = factorize(K_rt)
    b = rng.standard_normal(F.n)
    x = F.solve(b)
    assert np.linalg.norm(K_rt @ x - b) / np.linalg.norm(b) < 1e-10


def test_solve_multi_contracts(rng):
    for n in SIZES:
        K = random_spd(n, rng)
        F = factorize(K)
        assert np.array_equal(F.solve(np.zeros((n, 3))), np.zeros((n, 3)))
        X = F.solve(K.toarray())
        np.testing.assert_allclose(X, np.eye(n), atol=1e-10)
        with pytest.raises(ValueError):    # a cast would drop the imaginary part
            F.solve(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        with pytest.raises(ValueError):
            F.solve(np.zeros((17, 2)))


def test_factorization_reuse_matches_fresh_solves(rng):
    for n in SIZES:
        K = random_spd(n, rng)
        F = factorize(K)
        for _ in range(100):
            b = rng.standard_normal(n)
            x_reused = F.solve(b)
            x_fresh = factorize(K).solve(b)
            assert np.abs(x_reused - x_fresh).max() < 1e-12 * max(1.0, np.abs(x_fresh).max())


def test_determinism_bitwise(rng):
    for n in SIZES:
        K = random_spd(n, rng)
        b = rng.standard_normal(n)
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


def test_spd_stack_solve_column_blocks_match_per_column_solves(rng):
    # k columns per matrix: each column solves as its own right-hand side,
    # to rounding (the LU's triangular solves may block the columns); one
    # column per matrix is the vector form, bit for bit
    A = np.stack([random_spd(12, rng).toarray() for _ in range(5)])
    b = rng.standard_normal((5, 12, 3))
    x = spd_stack_solve(A, b)
    assert x.shape == (5, 12, 3)
    for i in range(5):
        for j in range(3):
            single = spd_stack_solve(A[i], b[i, :, j])
            np.testing.assert_allclose(x[i, :, j], single, rtol=0,
                                       atol=1e-14 * np.abs(single).max())
    np.testing.assert_array_equal(spd_stack_solve(A, b[..., :1])[..., 0],
                                  spd_stack_solve(A, b[..., 0]))
    np.testing.assert_array_equal(spd_stack_solve(A[0], b[0]).shape, (12, 3))
    for bad in (b[..., None], b[0, 0], b[:4]):
        with pytest.raises(ValueError):
            spd_stack_solve(A, bad)


@pytest.mark.parametrize("kind", ["singular", "indefinite"])
def test_spd_stack_solve_rejects_one_bad_matrix(rng, kind):
    A = np.stack([random_spd(6, rng).toarray() for _ in range(4)])
    b = rng.standard_normal((4, 6))
    spd_stack_solve(A, b)
    v = rng.standard_normal(6)
    A[2] = np.outer(v, v) if kind == "singular" else np.diag([1.0, 2, 3, -1e-3, 5, 6])
    with pytest.raises(SingularSystemError):
        spd_stack_solve(A, b)


def _sparse_difference_rejects(K):
    """The symmetry test as the sparse difference K - K^H (K - K^T for a
    real K): True when it rejects K."""
    K = K.tocsc()
    probe = (K - K.conj().T).tocoo()
    scale = max(1.0, float(np.max(np.abs(K.data))) if K.nnz else 1.0)
    return bool(probe.nnz and float(np.max(np.abs(probe.data))) > 1e-12 * scale)


def _rejects_as_asymmetric(K):
    try:
        factorize(K)
    except FactorizationError as exc:
        return "not symmetric" in str(exc)
    return False


def test_symmetry_check_decides_as_the_sparse_difference():
    for n in (8, *SIZES):
        _check_symmetry_decides_as_the_sparse_difference(n)


def _check_symmetry_decides_as_the_sparse_difference(n):
    sym = sp.diags([-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1],
                   format="lil")
    sym[0, 5] = sym[5, 0] = 0.5
    cases = {"symmetric": (sym.tocsr(), False)}
    below = sym.copy()
    below[2, 3] += 1e-13                            # same pattern, within 1e-12
    cases["asymmetric within tolerance"] = (below.tocsr(), False)
    beyond = sym.copy()
    beyond[2, 3] += 1e-9                            # same pattern, beyond 1e-12
    cases["asymmetric beyond tolerance"] = (beyond.tocsr(), True)
    coo = sym.tocoo()

    def with_entry_1_6(value):                      # no (6, 1) entry
        return sp.csr_matrix((np.append(coo.data, value),
                              (np.append(coo.row, 1), np.append(coo.col, 6))), shape=(n, n))

    cases["structurally asymmetric"] = (with_entry_1_6(1e-3), True)
    zero = with_entry_1_6(0.0)                      # a stored zero: values symmetric
    assert zero.nnz == sym.nnz + 1
    cases["structurally asymmetric, numerically symmetric"] = (zero, False)
    # complex: Hermitian K = K^H, so an imaginary part must be antisymmetric
    herm = sym.astype(complex)
    herm[0, 5], herm[5, 0] = 0.5 + 0.25j, 0.5 - 0.25j
    cases["Hermitian"] = (herm.tocsr(), False)
    symmetric = herm.copy()
    symmetric[5, 0] = 0.5 + 0.25j                   # K = K^T, not K^H
    cases["complex symmetric, not Hermitian"] = (symmetric.tocsr(), True)
    below = herm.copy()
    below[2, 3] += 1e-13j                           # same pattern, within 1e-12
    cases["non-Hermitian within tolerance"] = (below.tocsr(), False)
    beyond = herm.copy()
    beyond[2, 3] += 1e-9j                           # same pattern, beyond 1e-12
    cases["non-Hermitian beyond tolerance"] = (beyond.tocsr(), True)
    diagonal = herm.copy()
    diagonal[4, 4] += 1e-9j                         # a non-real diagonal entry
    cases["non-real diagonal"] = (diagonal.tocsr(), True)
    hcoo = herm.tocoo()

    def with_complex_entry_1_6(value):              # no (6, 1) entry
        return sp.csr_matrix((np.append(hcoo.data, value),
                              (np.append(hcoo.row, 1), np.append(hcoo.col, 6))), shape=(n, n))

    cases["complex, structurally asymmetric"] = (with_complex_entry_1_6(1e-3j), True)
    cases["complex, structurally asymmetric, numerically Hermitian"] = (
        with_complex_entry_1_6(0j), False)
    for name, (K, rejects) in cases.items():
        for form in (K, K.tocsc()):
            assert _sparse_difference_rejects(form) == rejects, name
            assert _rejects_as_asymmetric(form) == rejects, name


@pytest.mark.parametrize("refinement", [0, 1, 2])
def test_backends_agree_on_the_demo_matrices(refinement, rng):
    # the demo's stator and rotor stiffness with their right-hand sides
    # [G j], and its deformation metric with a complex one, each solved by
    # both back ends whatever its order: every column agrees to 1e-12 of its
    # largest entry (measured at most 5.2e-14, condition numbers up to 1.1e5,
    # at 1 and 2 BLAS threads), and a zero column is zero in both
    solver = MachineSolver(MachineConfig(refinement=refinement, n_harmonics=12, n_angles=12,
                                         harmonics_multiple_of_poles=True))
    K_st, K_rt = machine_stiffness(solver)
    H = assemble_vector_metric(solver.rotor0, solver.dm_rt,
                               DesignSpace(solver.rotor0, solver.dm_rt).mask)
    g = rng.standard_normal(H.shape[0]) + 1j * rng.standard_normal(H.shape[0])
    st = solver._st_pre
    for K, b in ((K_st, np.column_stack([st.G, st.j])),
                 (K_rt, np.column_stack([solver._G_rt, solver._j_rt])), (H, g[:, None])):
        dense, sparse = linalg._cholesky(K).solve(b), linalg._superlu(K).solve(b)
        assert dense.dtype == sparse.dtype and dense.shape == sparse.shape
        scale = np.abs(sparse).max(axis=0)
        assert (np.abs(dense - sparse).max(axis=0) <= 1e-12 * scale).all()
