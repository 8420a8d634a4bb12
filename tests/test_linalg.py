import gc
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import lapack

from conftest import machine_sides
from igamotor import linalg
from igamotor.assembly import assemble_stiffness, assemble_vector_metric, build_reluctivity_map
from igamotor.coupling import precompute_side
from igamotor.design import DesignSpace
from igamotor.errors import FactorizationError, SingularSystemError
from igamotor.geometry import MachineConfig, build_demo_machine, build_dof_map
from igamotor.linalg import DENSE_MAX_N, factorize, spd_stack_solve
from igamotor.optim import MachineSolver, stator_modes
from oracles import lower_band, pbtrs_side


def random_spd(n, rng):
    A = rng.standard_normal((n, n))
    return sp.csc_matrix(A @ A.T + n * np.eye(n))


def random_hpd(n, rng):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return sp.csc_matrix(A @ A.conj().T + n * np.eye(n))


# the largest order factored densely and the smallest factored in its band:
# the contract tests run at both
SIZES = (DENSE_MAX_N, DENSE_MAX_N + 1)


def embed(M, n):
    """M (m, m) on the leading block of an (n, n) CSC matrix, the identity
    on the rest: M's verdict and pivots at order n."""
    M = np.asarray(M)
    return sp.block_diag([sp.csc_matrix(M), sp.identity(n - M.shape[0], dtype=M.dtype)],
                         format="csc")


@pytest.mark.parametrize("n, backend", [(2, "_cholesky"), (DENSE_MAX_N, "_cholesky"),
                                        (DENSE_MAX_N + 1, "_banded")])
def test_backend_is_chosen_by_size(monkeypatch, rng, n, backend):
    called = []
    for name in ("_cholesky", "_banded"):
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
        # singular, eigenvalues 0 and 2: an exactly zero pivot
        with pytest.raises(FactorizationError):
            factorize(embed([[1.0, 1.0], [1.0, 1.0]], n))
        with pytest.raises(FactorizationError):         # a NaN pivot
            factorize(embed([[1.0, 0.0], [0.0, np.nan]], n))
        with pytest.raises(FactorizationError, match="not symmetric"):
            factorize(embed([[1.0, 0.0], [0.7, 1.0]], n))


@pytest.mark.parametrize("n", [5, 200])       # below and above DENSE_MAX_N
@pytest.mark.parametrize("entries", [{(1, 1): np.inf}, {(1, 3): np.inf, (3, 1): np.inf},
                                     {(2, 2): np.nan}],
                         ids=["inf-diagonal", "inf-symmetric-pair", "nan"])
def test_factorize_refuses_non_finite_entries(n, entries):
    # both back ends give one verdict, before either sees the matrix: the
    # infinite diagonal's inf - inf in the Hermitian test is NaN
    K = sp.lil_matrix(4.0 * sp.identity(n))
    for (i, j), value in entries.items():
        K[i, j] = value
    for form in (K.tocsr(), K.tocsc(), K):
        with pytest.raises(FactorizationError, match="non-finite"):
            factorize(form)


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
    # coupling.precompute_side slices X off the solution of [G j]: X keeps
    # the layout of a solve of G alone only if solutions are Fortran order
    for K, dtype in ((random_spd(n, rng), np.float64), (random_hpd(n, rng), np.complex128)):
        F = factorize(K)
        assert np.dtype(F.dtype) == dtype
        x = F.solve(rng.standard_normal((n, 4)))
        assert x.dtype == dtype and x.flags.f_contiguous
        assert F.solve(rng.standard_normal(n)).shape == (n,)


def test_machine_stiffness_residual(coarse_cfg, coarse_sides, rng):
    K_rt = coarse_sides[1][0]
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
        for wrong in (np.zeros((17, 2)), np.float64(1.0)):    # a 0-d one has no length
            with pytest.raises(ValueError):
                F.solve(wrong)


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
    # largest entry (measured at most 9.3e-14, condition numbers up to 1.1e5,
    # at 1 and 2 BLAS threads), and a zero column is zero in both
    solver = MachineSolver(MachineConfig(refinement=refinement, n_harmonics=12, n_angles=12,
                                         harmonics_multiple_of_poles=True))
    (K_st, G_st, j_st), (K_rt, G_rt, j_rt) = machine_sides(solver)
    H = assemble_vector_metric(solver.rotor0, solver.dm_rt,
                               DesignSpace(solver.rotor0, solver.dm_rt).mask)
    g = rng.standard_normal(H.shape[0]) + 1j * rng.standard_normal(H.shape[0])
    for K, b in ((K_st, np.column_stack([G_st, j_st])), (K_rt, np.column_stack([G_rt, j_rt])),
                 (H, g[:, None])):
        dense, sparse = linalg._cholesky(K).solve(b), linalg._banded(K).solve(b)
        assert dense.dtype == sparse.dtype and dense.shape == sparse.shape
        scale = np.abs(sparse).max(axis=0)
        assert (np.abs(dense - sparse).max(axis=0) <= 1e-12 * scale).all()


def _half_bandwidth(K):
    coo = K.tocoo()
    return int(np.abs(coo.row - coo.col).max())


def _pitch_operators(refinement):
    """The pole pitch's free stator and rotor stiffness and the rotor's
    deformation metric on its design mask, with each side's angle count."""
    cfg = MachineConfig(refinement=refinement, n_harmonics=4, n_angles=12)
    out = []
    for model in build_demo_machine(cfg):            # stator, then rotor
        dm = build_dof_map(model)
        n_angles = model.meta["n_sectors"] * (model.patches[0].n_v - 1)
        out.append((assemble_stiffness(model, dm, build_reluctivity_map(model, cfg)), n_angles))
    out.append((assemble_vector_metric(model, dm, DesignSpace(model, dm).mask), n_angles))
    return out


@pytest.mark.parametrize("refinement", [0, 1, 2, 3, 4])
def test_pitch_operators_are_narrow_banded(refinement):
    # in the band order a row couples rows at most p = 2 radial levels of
    # n_a angles and 2p folded angles away: kd <= 2 n_a + 4 (measured 106,
    # 208 and 106 at refinement 4, the stiffness on the bound)
    for K, n_angles in _pitch_operators(refinement):
        assert _half_bandwidth(K) <= 2 * n_angles + 4


def test_banded_solve_matches_dense_solve():
    # the refinement-2 stiffness of either side and the complex metric,
    # all above DENSE_MAX_N: the band's solve is np.linalg.solve's to 1e-12
    # of the largest entry
    rng = np.random.default_rng(7)
    for K, _ in _pitch_operators(2):
        assert K.shape[0] > DENSE_MAX_N
        b = rng.standard_normal((K.shape[0], 3)).astype(K.dtype)
        if np.iscomplexobj(b):
            b += 1j * rng.standard_normal(b.shape)
        x = factorize(K).solve(b)
        ref = np.linalg.solve(K.toarray(), b)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


def test_banded_factor_holds_its_band_alone():
    # the refinement-4 rotor stiffness (2,601 rows, kd 106): the
    # factorization holds the (kd + 1, n) band and nothing else of that
    # size, no copy of the factor read for its pivots.  The pattern's kept
    # layout, built by the first call, is three int32 arrays of one entry
    # per lower entry, about half the stored entries: their positions,
    # band places and mirrors (6.26 bytes per stored entry measured)
    K = _pitch_operators(4)[1][0]
    band = (_half_bandwidth(K) + 1) * K.shape[0] * K.data.itemsize
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        F = factorize(K)
        del F
        layout = tracemalloc.get_traced_memory()[0] - before
        F = factorize(K)
        held = tracemalloc.get_traced_memory()[0] - before - layout
    finally:
        tracemalloc.stop()
    assert band <= held < 1.1 * band
    assert 0 < layout < 6.5 * K.nnz
    b = np.ones(K.shape[0])
    assert np.linalg.norm(K @ F.solve(b) - b) < 1e-10 * np.linalg.norm(b)


def test_banded_factor_reads_the_lower_band_of_k(monkeypatch):
    # the band handed to pbtrf is K's lower band, ab[i - j, j] = K[i, j],
    # bit for bit, for the refinement-2 rotor stiffness and metric and the
    # refinement-3 stator modes (486 rows, the complex one e^{i pi/3})
    matrices = [K for K, _ in _pitch_operators(2)[1:]]
    solver = MachineSolver(MachineConfig(refinement=3, n_harmonics=12, n_angles=12,
                                         harmonics_multiple_of_poles=True))
    matrices += stator_modes(solver.stator, solver.dm_st, solver.cfg).matrices
    bands = []

    class Lapack:
        def __getattr__(self, name):
            routine = getattr(lapack, name)
            if not name.endswith("pbtrf"):
                return routine
            return lambda ab, **kw: bands.append(ab.copy(order="F")) or routine(ab, **kw)

    monkeypatch.setattr(linalg, "lapack", Lapack())
    for K in matrices:
        assert K.shape[0] > DENSE_MAX_N
        factorize(K)
        assert np.array_equal(bands.pop(), lower_band(K))


def _counting_layouts(monkeypatch):
    """The calls of linalg._band_layout from here on, one entry each."""
    calls = []
    build = linalg._band_layout
    monkeypatch.setattr(linalg, "_band_layout",
                        lambda *args: calls.append(1) or build(*args))
    return calls


def _on_pattern(K, data):
    """A CSR matrix of ``data`` on K's own index arrays."""
    return sp.csr_matrix((data, K.indices, K.indptr), shape=K.shape)


@pytest.fixture(scope="module")
def solver_r2():
    # the rotor stiffness (225 rows) and the metric (174) are banded here
    return MachineSolver(MachineConfig(refinement=2, n_harmonics=12, n_angles=12,
                                       harmonics_multiple_of_poles=True))


def test_band_layout_is_built_once_per_read_only_pattern(monkeypatch, solver_r2):
    # two rotor precomputations and a matrix of other data on the same
    # pattern read one layout; the metric's pattern builds its own
    calls = _counting_layouts(monkeypatch)
    K = assemble_stiffness(solver_r2.rotor0, solver_r2.dm_rt, solver_r2.relmap_rt)
    assert not K.indices.flags.writeable and not K.indptr.flags.writeable
    solver_r2.precompute(solver_r2.rotor0)
    solver_r2.precompute(solver_r2.rotor0)
    factorize(K)
    factorize(_on_pattern(K, 2.0 * K.data))
    assert len(calls) == 1
    mask = DesignSpace(solver_r2.rotor0, solver_r2.dm_rt).mask
    for _ in range(2):
        factorize(assemble_vector_metric(solver_r2.rotor0, solver_r2.dm_rt, mask))
    assert len(calls) == 2


def test_band_layout_is_freed_with_its_dof_map():
    solver = MachineSolver(MachineConfig(refinement=2, n_harmonics=12, n_angles=12,
                                         harmonics_multiple_of_poles=True))
    K = assemble_stiffness(solver.rotor0, solver.dm_rt, solver.relmap_rt)
    F = factorize(K)
    key = id(K.indices.base)
    layout = weakref.ref(linalg._layouts[key][2][1])
    dofmap = weakref.ref(solver.dm_rt)
    del solver, K, F
    gc.collect()
    assert dofmap() is None
    assert layout() is None
    assert key not in linalg._layouts


def test_band_layout_is_not_kept_for_a_writeable_pattern(monkeypatch, solver_r2):
    calls = _counting_layouts(monkeypatch)
    K = assemble_stiffness(solver_r2.rotor0, solver_r2.dm_rt, solver_r2.relmap_rt).copy()
    assert K.indices.flags.writeable
    kept = len(linalg._layouts)
    factorize(K)
    factorize(K)
    assert len(calls) == 2
    assert len(linalg._layouts) == kept


def test_kept_band_layout_still_checks_every_matrix(monkeypatch, solver_r2):
    # matrices on a kept pattern are tested as they come: an entry off
    # symmetry, a NaN and a negated (indefinite) K are refused
    K = assemble_stiffness(solver_r2.rotor0, solver_r2.dm_rt, solver_r2.relmap_rt)
    factorize(K)
    calls = _counting_layouts(monkeypatch)
    row = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
    off = np.flatnonzero(row != K.indices)[0]
    asymmetric = K.data.copy()
    asymmetric[off] *= 1.001
    nan = K.data.copy()
    nan[off] = np.nan
    for data, message in ((asymmetric, "not symmetric"), (nan, "non-finite"),
                          (-K.data, "nonpositive pivot")):
        with pytest.raises(FactorizationError, match=message):
            factorize(_on_pattern(K, data))
    assert calls == []


def test_kept_band_layout_gives_the_bits_of_a_fresh_one(monkeypatch, solver_r2):
    # the rotor stiffness and the complex metric: the factor on the kept
    # layout is the factor on one built from a writeable copy, bit for bit
    factors = []

    class Lapack:
        def __getattr__(self, name):
            routine = getattr(lapack, name)
            if not name.endswith("pbtrf"):
                return routine
            return lambda ab, **kw: (lambda out: factors.append(out[0].copy()) or out)(
                routine(ab, **kw))

    mask = DesignSpace(solver_r2.rotor0, solver_r2.dm_rt).mask
    matrices = [assemble_stiffness(solver_r2.rotor0, solver_r2.dm_rt, solver_r2.relmap_rt),
                assemble_vector_metric(solver_r2.rotor0, solver_r2.dm_rt, mask)]
    for K in matrices:
        factorize(K)                           # the layout is kept from here on
    monkeypatch.setattr(linalg, "lapack", Lapack())
    for K in matrices:
        factorize(K)
        factorize(K.copy())
        kept, fresh = factors[-2:]
        assert kept.dtype == K.dtype
        assert np.array_equal(kept.view(np.uint8), fresh.view(np.uint8))


def _band_factor(K):
    factor, info = (lapack.zpbtrf if np.iscomplexobj(K.data) else lapack.dpbtrf)(
        lower_band(K), lower=1)
    assert info == 0
    return factor


def test_band_solve_gives_the_bits_of_pbtrs(rng):
    # real and complex factors (the refinement-2 rotor stiffness and
    # metric); columns that start in row 0, below it, in the last row and
    # nowhere (all zero), two starting in one row, and a 1-D b
    for K, _ in _pitch_operators(2)[1:]:
        factor = _band_factor(K)
        pbtrs = lapack.zpbtrs if factor.dtype == complex else lapack.dpbtrs
        n = K.shape[0]
        b = rng.standard_normal((n, 7)).astype(K.dtype)
        if factor.dtype == complex:
            b += 1j * rng.standard_normal(b.shape)
        for col, start in enumerate([0, 40, n, 40, n - 1, 7, 200]):
            b[:start, col] = 0.0
        for rhs in (b, b[:, 1], b[:, 3:5], b[:, 2], np.zeros(n, dtype=K.dtype)):
            rhs = np.ascontiguousarray(rhs)
            x = linalg._band_solve(factor, rhs)
            ref = pbtrs(factor, rhs, lower=1)[0]
            assert x.shape == rhs.shape and x.dtype == ref.dtype
            assert x.flags.f_contiguous
            assert np.array_equal(x, ref)


def test_rotor_precompute_gives_the_bits_of_pbtrs(solver_r2):
    # X, y, H and g of the refinement-2 rotor: G's columns start in the
    # band order's last rows, j's further up
    K = assemble_stiffness(solver_r2.rotor0, solver_r2.dm_rt, solver_r2.relmap_rt)
    side = precompute_side(factorize(K), solver_r2._G_rt, solver_r2._j_rt)
    for got, ref in zip((side.X, side.y, side.H, side.g),
                        pbtrs_side(K, solver_r2._G_rt, solver_r2._j_rt)):
        assert np.array_equal(got, ref)


def test_import_loads_no_sparse_solver():
    # every igamotor module imported in a fresh process: scipy.sparse.linalg
    # (and SuperLU with it) stays unloaded
    code = ("import pkgutil, sys, igamotor\n"
            "for mod in pkgutil.iter_modules(igamotor.__path__):\n"
            "    __import__('igamotor.' + mod.name)\n"
            "assert 'igamotor.cli' in sys.modules and 'scipy.sparse' in sys.modules\n"
            "sys.exit('scipy.sparse.linalg' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(linalg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
