"""Linear algebra contracts: sparse SPD factorization with multi-RHS solves,
and dense complex LU solves and matrix-vector products over stacks.

The sparse factorization wraps SuperLU in symmetric mode with a
fill-reducing ordering; one factorization is amortized over the many
harmonic right-hand sides and rotor angles of the coupling precomputation.
Complex right-hand sides are solved as two real solves, so the sparse
operator itself stays real.  The interface systems of all rotor angles come
as one (n_angles, n_h, n_h) stack, factored matrix by matrix, so a stacked
solve carries the bits of one solve per angle.
"""
from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import FactorizationError, SingularSystemError


class SpdFactorization:
    """Reusable factorization of a sparse symmetric positive definite matrix."""

    def __init__(self, lu: spla.SuperLU, n: int):
        self._lu = lu
        self.n = n

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve for one right-hand side or a block of columns; complex
        right-hand sides become two real solves."""
        b = np.asarray(b)
        if b.shape[0] != self.n:
            raise ValueError("right-hand side length %d != %d" % (b.shape[0], self.n))
        if np.iscomplexobj(b):
            return self._lu.solve(np.ascontiguousarray(b.real)) \
                + 1j * self._lu.solve(np.ascontiguousarray(b.imag))
        return self._lu.solve(np.ascontiguousarray(b, dtype=float))


def factorize(K: sp.spmatrix, check_symmetry: bool = True) -> SpdFactorization:
    """Factorize a sparse SPD matrix for repeated solves.

    With diagonal pivoting preferred, a symmetric matrix factors with the
    signs of its eigenvalue inertia on the U diagonal, so indefiniteness
    shows up as a nonpositive pivot.
    """
    K = K.tocsc()
    n = K.shape[0]
    if K.shape[0] != K.shape[1]:
        raise FactorizationError("matrix is not square: %r" % (K.shape,))
    if check_symmetry:
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


def complex_lu_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a dense complex system, or a stack (..., n, n) of them with one
    right-hand side (..., n) each, by partially pivoted LU per matrix.

    Raises SingularSystemError when the smallest pivot of any matrix falls
    below 1e-14 times its norm.
    """
    A = np.asarray(A, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError("matrix must be square")
    if b.shape[:A.ndim - 1] != A.shape[:-1]:
        raise ValueError("dimension mismatch")
    x = np.empty_like(b)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        for i in np.ndindex(A.shape[:-2]):
            lu, piv = sla.lu_factor(A[i], check_finite=False)
            if not np.all(np.isfinite(lu)) \
                    or np.min(np.abs(np.diag(lu))) < 1e-14 * np.linalg.norm(A[i]):
                raise SingularSystemError("interface system numerically singular")
            x[i] = sla.lu_solve((lu, piv), b[i], check_finite=False)
    return x


def matvec(X: np.ndarray, v: np.ndarray) -> np.ndarray:
    """X @ v for one vector v or each row of a stack v (..., n): one
    matrix-vector product per row, so rows keep the single-vector bits."""
    return np.matmul(X, v[..., None])[..., 0]
