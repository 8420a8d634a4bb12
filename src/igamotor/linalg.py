"""Linear algebra contracts: positive definite factorization of a sparse
matrix with multi-RHS solves, dense SPD solves over stacks, and products of
one matrix with stacked rows.

:func:`factorize` takes a real symmetric matrix (the stiffness matrices) or
a complex Hermitian one (the deformation metric of the pole pitch, whose
closure turns the complex displacement x + iy by a phase); a complex
right-hand side is solved only by a complex factor, never cast to real.
One factorization is amortized over the many harmonic right-hand sides and
rotor angles of the coupling precomputation.  The order n alone chooses
the back end, and both accept and reject the same matrices:

* n <= ``DENSE_MAX_N``: one dense LAPACK Cholesky (``potrf``, solved by
  ``potrs``).  At these orders SuperLU's numeric work is the smaller part
  of its call, beside the sparse format conversions, the pattern check and
  the copy of the factor read for its pivots.
* n > ``DENSE_MAX_N``: SuperLU in symmetric mode with a fill-reducing
  ordering.

Factor plus solve of the demo's matrices (median ms, 2-core VM, one BLAS
thread; the stiffness with its 7 columns [G j], the metric with one complex
column):

    refinement   rotor stiffness      stator stiffness     metric (complex)
                 n     dense  SuperLU n     dense  SuperLU n     dense  SuperLU
    0            36    0.05   0.16    72    0.08   0.26    21    0.05   0.14
    1            81    0.10   0.31    162   0.26   0.60    56    0.08   0.18
    2            225   0.48   0.70    450   4.12   2.36    174   0.66   0.58
    3            729   7.75   2.44    1458  51.7   4.46    602   12.3   2.36

On leading blocks of the refinement-3 matrices the dense factor is the
faster up to about n = 325 for the real stiffness, but only up to about
n = 170 for the complex metric (0.84 of SuperLU's time at n = 150, 1.01 at
175), whose Cholesky costs four real ones; ``DENSE_MAX_N`` = 150 keeps the
complex matrices on the faster side too.

The dense interface systems are real, and complex input to them is
rejected rather than cast.  The interface systems of the rotor angles come
as (n, n_h, n_h) stacks, one matrix per class of angles and a block of
classes at a time, each with one right-hand side or a block of columns, one
per angle of its class.  They are solved by numpy's stacked gufuncs, which
give every matrix the bits of its own single solve with the same columns.
matvec applies one matrix, such as X_st or a flux row, to a vector or to
each row of a stack.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import FactorizationError, SingularSystemError


def _real(a) -> np.ndarray:
    a = np.asarray(a)
    if np.iscomplexobj(a):
        raise ValueError("complex input: every operator and right-hand side is real")
    return a


# factorize's dense bound, the complex metric's measured crossover rounded
# down (module docstring)
DENSE_MAX_N = 150


class SpdFactorization:
    """Reusable factorization of a real symmetric or complex Hermitian
    positive definite matrix: ``solve_fn``, its back end's solve of a
    contiguous right-hand side of the factor's dtype, returns Fortran
    order."""

    def __init__(self, solve_fn, n: int, dtype):
        self._solve = solve_fn
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
        return self._solve(np.ascontiguousarray(b, dtype=self.dtype))


def factorize(K: sp.spmatrix) -> SpdFactorization:
    """Factorize a sparse real SPD or complex HPD matrix for repeated solves:
    densely (:func:`_cholesky`) up to ``DENSE_MAX_N`` rows, by SuperLU
    (:func:`_superlu`) above.  Both back ends accept and reject the same
    matrices: the matrix must be square, Hermitian to 1e-12 of its largest
    entry, max |K - K^H| <= 1e-12 max(1, max |K|) (K^H = K^T for a real K),
    and give only positive pivots.  A stored entry that is not finite is
    refused before either back end sees it: the Hermitian test's inf - inf
    is NaN, which passes its comparison.  A dense factorization holds its
    one (n, n) factor; a SuperLU one also holds the L and U copies its
    pivot check reads."""
    if K.shape[0] != K.shape[1]:
        raise FactorizationError("matrix is not square: %r" % (K.shape,))
    stored = K.data if K.format in ("csr", "csc", "coo") else K.tocsr().data
    if not np.isfinite(stored).all():
        raise FactorizationError("matrix has a non-finite entry")
    return _cholesky(K) if K.shape[0] <= DENSE_MAX_N else _superlu(K)


def _check_hermitian(asym: np.ndarray, scale: float):
    """FactorizationError when an entry of K - K^H, ``asym``, exceeds 1e-12
    max(1, ``scale``), scale the largest |K|."""
    if asym.size and float(np.max(np.abs(asym))) > 1e-12 * max(1.0, scale):
        raise FactorizationError("matrix is not symmetric")


def _cholesky(K: sp.spmatrix) -> SpdFactorization:
    """One dense LAPACK Cholesky (``potrf``, real or complex by the dtype)
    of a square K, solved by ``potrs``.  The dense K - K^H holds every
    difference the sparse one stores, and zeros where it stores none, so
    the Hermitian test decides as the sparse difference does.  A leading
    minor that is not positive stops ``potrf`` (info > 0); it, or a pivot
    that is not finite, is reported as the sparse path reports a
    nonpositive pivot.  The factor is the one (n, n) array; no other copy
    is kept."""
    dtype = complex if np.iscomplexobj(K.data) else float
    # toarray(order="F") of a CSR matrix converts it to CSC first; the copy
    # of the C-order array into Fortran order costs a tenth of that at n = 36
    A = np.asfortranarray(K.toarray(), dtype=dtype)
    _check_hermitian(A - A.conj().T, float(np.abs(A).max(initial=0.0)))
    potrf, potrs = ((lapack.zpotrf, lapack.zpotrs) if dtype is complex
                    else (lapack.dpotrf, lapack.dpotrs))
    factor, info = potrf(A, lower=True, clean=False, overwrite_a=True)
    # a NaN pivot passes potrf's test (SuperLU refuses it as singular)
    if info > 0 or not np.isfinite(np.diagonal(factor)).all():
        raise FactorizationError("nonpositive pivot: matrix is not positive definite")
    return SpdFactorization(lambda b: potrs(factor, b, lower=True)[0], K.shape[0], dtype)


def _superlu(K: sp.spmatrix) -> SpdFactorization:
    """SuperLU in symmetric mode with a fill-reducing ordering of a square K.

    When the canonical CSR and CSC forms have equal index arrays (a
    symmetric pattern), the CSC data is K^T on the CSR pattern, so K - K^H
    is csr.data - conj(csc.data): the same differences the sparse K - K^H
    forms, which drops only exact zeros, so the test accepts and rejects
    exactly as that sparse difference does.  Any other matrix goes through
    the sparse difference.  With diagonal pivoting preferred, a Hermitian
    matrix factors with the signs of its eigenvalue inertia on the real
    parts of the U diagonal, so indefiniteness shows up as a nonpositive
    pivot.  SuperLU exposes that diagonal only through ``lu.U``, whose
    first read builds both L and U as CSC copies of the factor, kept on
    the SuperLU object (and so held by the factorization) for its lifetime.
    """
    csr = K.tocsr()
    K = K.tocsc()
    n = K.shape[0]
    dtype = complex if np.iscomplexobj(K.data) else float
    if (csr.has_canonical_format and K.has_canonical_format
            and np.array_equal(csr.indptr, K.indptr) and np.array_equal(csr.indices, K.indices)):
        asym = csr.data - K.data.conj()
    else:
        asym = (K - K.conj().T).tocoo().data
    _check_hermitian(asym, float(np.max(np.abs(K.data))) if K.nnz else 1.0)
    del csr, asym                    # the factorization's peak need not hold them
    try:
        lu = spla.splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise FactorizationError("sparse factorization failed: %s" % exc) from exc
    del K                            # nor the CSC copy while L and U are copied out
    pivots = lu.U.diagonal().real
    if np.any(pivots <= 0.0):
        raise FactorizationError("nonpositive pivot: matrix is not positive definite")
    return SpdFactorization(lu.solve, n, dtype)


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
