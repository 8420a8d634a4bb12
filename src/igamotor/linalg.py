"""Linear algebra contracts: sparse SPD factorization with multi-RHS solves,
and dense SPD solves and matrix-vector products over stacks.

The sparse factorization wraps SuperLU in symmetric mode with a
fill-reducing ordering; one factorization is amortized over the many
harmonic right-hand sides and rotor angles of the coupling precomputation.
Everything is real: complex input is rejected rather than cast.  The
interface systems of all rotor angles come as one (n_angles, n_h, n_h)
stack and are solved by numpy's stacked gufuncs, which give every matrix
the bits of its own single solve.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import FactorizationError, SingularSystemError


def _real(a) -> np.ndarray:
    a = np.asarray(a)
    if np.iscomplexobj(a):
        raise ValueError("complex input: every operator and right-hand side is real")
    return a


class SpdFactorization:
    """Reusable factorization of a sparse symmetric positive definite matrix."""

    def __init__(self, lu: spla.SuperLU, n: int):
        self._lu = lu
        self.n = n

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve for one real right-hand side or a block of columns."""
        b = _real(b)
        if b.shape[0] != self.n:
            raise ValueError("right-hand side length %d != %d" % (b.shape[0], self.n))
        return self._lu.solve(np.ascontiguousarray(b, dtype=float))


def factorize(K: sp.spmatrix) -> SpdFactorization:
    """Factorize a sparse SPD matrix for repeated solves.

    The matrix must be symmetric to 1e-12 of its largest entry.  With
    diagonal pivoting preferred, a symmetric matrix factors with the signs
    of its eigenvalue inertia on the U diagonal, so indefiniteness shows up
    as a nonpositive pivot.
    """
    K = K.tocsc()
    n = K.shape[0]
    if K.shape[0] != K.shape[1]:
        raise FactorizationError("matrix is not square: %r" % (K.shape,))
    probe = (K - K.T).tocoo()
    scale = max(1.0, float(np.max(np.abs(K.data))) if K.nnz else 1.0)
    if probe.nnz and float(np.max(np.abs(probe.data))) > 1e-12 * scale:
        raise FactorizationError("matrix is not symmetric")
    try:
        lu = spla.splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise FactorizationError("sparse factorization failed: %s" % exc) from exc
    pivots = lu.U.diagonal()
    if np.any(pivots <= 0.0):
        raise FactorizationError("nonpositive pivot: matrix is not positive definite")
    return SpdFactorization(lu, n)


def real_lu(S: sp.spmatrix):
    """Plain sparse LU (general real matrix), for saddle-point oracles."""
    try:
        return spla.splu(S.tocsc())
    except RuntimeError as exc:
        raise SingularSystemError("sparse LU failed: %s" % exc) from exc


def spd_stack_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a dense SPD system, or a stack (..., n, n) of them with one
    right-hand side (..., n) each.

    Cholesky is the guard: raises SingularSystemError when any matrix is not
    positive definite or its smallest squared Cholesky pivot falls below
    1e-14 times its norm.
    """
    A, b = _real(A), _real(b)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError("matrix must be square")
    if b.shape[:A.ndim - 1] != A.shape[:-1]:
        raise ValueError("dimension mismatch")
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("interface system not positive definite") from exc
    pivots = np.diagonal(L, axis1=-2, axis2=-1) ** 2
    if not np.all(pivots.min(axis=-1) >= 1e-14 * np.linalg.norm(A, axis=(-2, -1))):
        raise SingularSystemError("interface system numerically singular")
    return np.linalg.solve(A, b[..., None])[..., 0]


# perfbench/tracer.py looks the traced interface solve up under this name
complex_lu_solve = spd_stack_solve


def matvec(X: np.ndarray, v: np.ndarray) -> np.ndarray:
    """X @ v for one vector v or each row of a stack v (..., n): one
    matrix-vector product per row, so rows keep the single-vector bits."""
    return np.matmul(X, v[..., None])[..., 0]
