"""Linear algebra contracts: sparse positive definite factorization with
multi-RHS solves, dense SPD solves over stacks, and products of one matrix
with stacked rows.

The sparse factorization wraps SuperLU in symmetric mode with a
fill-reducing ordering; one factorization is amortized over the many
harmonic right-hand sides and rotor angles of the coupling precomputation.
It takes a real symmetric matrix (the stiffness matrices) or a complex
Hermitian one (the deformation metric of the pole pitch, whose closure
turns the complex displacement x + iy by a phase); a complex right-hand
side is solved only by a complex factor, never cast to real.  The dense
interface systems are real, and complex input to them is rejected rather
than cast.  The interface systems of the rotor angles come as (n, n_h,
n_h) stacks, one matrix per class of angles and a block of classes at a
time, each with one right-hand side or a block of columns, one per angle
of its class.  They are solved by numpy's stacked gufuncs, which give
every matrix the bits of its own single solve with the same columns.
matvec applies one matrix, such as X_st or a flux row, to a vector or to
each row of a stack.
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
    """Reusable factorization of a sparse real symmetric or complex
    Hermitian positive definite matrix."""

    def __init__(self, lu: spla.SuperLU, n: int, dtype):
        self._lu = lu
        self.n = n
        self.dtype = dtype

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve for one right-hand side or a block of columns: real for a
        real factor, real or complex for a complex one."""
        b = np.asarray(b)
        if np.iscomplexobj(b) and self.dtype != complex:
            raise ValueError("complex right-hand side for a real factorization")
        if b.shape[0] != self.n:
            raise ValueError("right-hand side length %d != %d" % (b.shape[0], self.n))
        return self._lu.solve(np.ascontiguousarray(b, dtype=self.dtype))


def factorize(K: sp.spmatrix) -> SpdFactorization:
    """Factorize a sparse real SPD or complex HPD matrix for repeated solves.

    The matrix must be Hermitian to 1e-12 of its largest entry:
    max |K - K^H| <= 1e-12 max(1, max |K|) (K^H = K^T for a real K).  When
    the canonical CSR and CSC forms have equal index arrays (a symmetric
    pattern), the CSC data is K^T on the CSR pattern, so K - K^H is
    csr.data - conj(csc.data): the same differences the sparse K - K^H
    forms, which drops only exact zeros, so the test accepts and rejects
    exactly as that sparse difference does.  Any other matrix goes through
    the sparse difference.  With diagonal pivoting preferred, a Hermitian
    matrix factors with the signs of its eigenvalue inertia on the real
    parts of the U diagonal, so indefiniteness shows up as a nonpositive
    pivot.
    """
    csr = K.tocsr()
    K = K.tocsc()
    n = K.shape[0]
    dtype = complex if np.iscomplexobj(K.data) else float
    if K.shape[0] != K.shape[1]:
        raise FactorizationError("matrix is not square: %r" % (K.shape,))
    if (csr.has_canonical_format and K.has_canonical_format
            and np.array_equal(csr.indptr, K.indptr) and np.array_equal(csr.indices, K.indices)):
        asym = csr.data - K.data.conj()
    else:
        asym = (K - K.conj().T).tocoo().data
    scale = max(1.0, float(np.max(np.abs(K.data))) if K.nnz else 1.0)
    if asym.size and float(np.max(np.abs(asym))) > 1e-12 * scale:
        raise FactorizationError("matrix is not symmetric")
    del csr, asym                    # the factorization's peak need not hold them
    try:
        lu = spla.splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise FactorizationError("sparse factorization failed: %s" % exc) from exc
    del K                            # nor the CSC copy while U is formed for its diagonal
    pivots = lu.U.diagonal().real
    if np.any(pivots <= 0.0):
        raise FactorizationError("nonpositive pivot: matrix is not positive definite")
    return SpdFactorization(lu, n, dtype)


def real_lu(S: sp.spmatrix):
    """Plain sparse LU (general real matrix), for saddle-point oracles."""
    try:
        return spla.splu(S.tocsc())
    except RuntimeError as exc:
        raise SingularSystemError("sparse LU failed: %s" % exc) from exc


def spd_stack_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a dense SPD system, or a stack (..., n, n) of them, for one
    right-hand side (..., n) or a block of k columns (..., n, k) per matrix.

    Cholesky is the guard: raises SingularSystemError when any matrix is not
    positive definite or its smallest squared Cholesky pivot falls below
    1e-14 times its norm.
    """
    A, b = _real(A), _real(b)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError("matrix must be square")
    if b.ndim not in (A.ndim - 1, A.ndim) or b.shape[:A.ndim - 1] != A.shape[:-1]:
        raise ValueError("dimension mismatch")
    # the Frobenius norms (as np.linalg.norm forms them) before the factor,
    # and the factor freed once its pivots are read: one stack-sized
    # temporary at a time
    norm = np.sqrt(np.add.reduce(A * A, axis=(-2, -1)))
    try:
        pivots = np.diagonal(np.linalg.cholesky(A), axis1=-2, axis2=-1) ** 2
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("interface system not positive definite") from exc
    if not np.all(pivots.min(axis=-1) >= 1e-14 * norm):
        raise SingularSystemError("interface system numerically singular")
    if b.ndim == A.ndim:
        return np.linalg.solve(A, b)
    return np.linalg.solve(A, b[..., None])[..., 0]


# perfbench/tracer.py, its last caller, traces the interface solve under
# this name; ROADMAP item 2's code change removes the alias
complex_lu_solve = spd_stack_solve


def matvec(X: np.ndarray, v: np.ndarray) -> np.ndarray:
    """X @ v for one vector v or each row of a stack v (..., n): one
    matrix-vector product per row, so rows keep the single-vector bits."""
    return np.matmul(X, v[..., None])[..., 0]
