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
  ``potrs``).  At these orders the banded path's sparse conversions and
  pattern check cost more than the dense factor saves.
* n > ``DENSE_MAX_N``: LAPACK banded Cholesky (``pbtrf``, solved by
  ``pbtrs``) on the band read from K's pattern.  The operators come
  restricted to a dof map's band order, ring by ring, where the band is
  about p radial levels of the side's angles wide
  (:class:`igamotor.geometry.DofMap`).

Factor plus solve of the demo's matrices (median ms, 2-core VM, one BLAS
thread; the stiffness with its columns [G j], 7 at refinements 0-2 with 12
harmonics and 13 at 3-4 with the benchmark's 24, the metric with one
complex column; kd the half-bandwidth; the refinement-4 stator's dense
array alone would be 216 MB, and was not timed):

    refinement   rotor stiffness          stator stiffness         metric (complex)
                 n     kd   dense  band   n     kd   dense  band   n     kd   dense  band
    0            36    16   0.03   0.08   72    28   0.05   0.14   21    8    0.02   0.07
    1            81    22   0.06   0.11   162   40   0.18   0.20   56    22   0.06   0.10
    2            225   34   0.82   0.24   450   64   4.01   0.52   174   34   0.48   0.22
    3            729   58   9.95   1.22   1458  112  49.1   2.53   602   58   10.1   1.06
    4            2601  106  283    5.09   5202  208  -      17.2   2226  106  404    5.74

On leading blocks of the refinement-3 matrices the dense factor is the
faster up to about n = 195 for the real stiffness (0.91 of the banded
time at n = 175, 1.09 at 200), but only up to about n = 125 for the
complex metric (0.83 at n = 100, 1.01 at 125, 1.32 at 150), whose
Cholesky costs four real ones.  ``DENSE_MAX_N`` = 150 lies between the
two: a complex matrix of 126-150 rows factors up to a third slower than
in its band, a real one of 151-195 rows about a tenth slower than
densely.  Every bound from 81 to 161 sends each matrix of the table to
the same back end.

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
from scipy.linalg import lapack

from .errors import FactorizationError, SingularSystemError


def _real(a) -> np.ndarray:
    a = np.asarray(a)
    if np.iscomplexobj(a):
        raise ValueError("complex input: every operator and right-hand side is real")
    return a


# factorize's dense bound, between the measured crossovers of the complex
# metric and the real stiffness (module docstring)
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
    densely (:func:`_cholesky`) up to ``DENSE_MAX_N`` rows, in its band
    (:func:`_banded`) above.  Both back ends accept and reject the same
    matrices: the matrix must be square, Hermitian to 1e-12 of its largest
    entry, max |K - K^H| <= 1e-12 max(1, max |K|) (K^H = K^T for a real K),
    and give only positive, finite pivots.  A stored entry that is not
    finite is refused before either back end sees it: the Hermitian test's
    inf - inf is NaN, which passes its comparison.  A factorization holds
    its one factor array, (n, n) dense or (kd + 1, n) banded."""
    if K.shape[0] != K.shape[1]:
        raise FactorizationError("matrix is not square: %r" % (K.shape,))
    stored = K.data if K.format in ("csr", "csc", "coo") else K.tocsr().data
    if not np.isfinite(stored).all():
        raise FactorizationError("matrix has a non-finite entry")
    return _cholesky(K) if K.shape[0] <= DENSE_MAX_N else _banded(K)


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
    that is not finite, is reported as a nonpositive pivot, as the banded
    path reports it.  The factor is the one (n, n) array; no other copy
    is kept."""
    dtype = complex if np.iscomplexobj(K.data) else float
    # toarray(order="F") of a CSR matrix converts it to CSC first; the copy
    # of the C-order array into Fortran order costs a tenth of that at n = 36
    A = np.asfortranarray(K.toarray(), dtype=dtype)
    _check_hermitian(A - A.conj().T, float(np.abs(A).max(initial=0.0)))
    potrf, potrs = ((lapack.zpotrf, lapack.zpotrs) if dtype is complex
                    else (lapack.dpotrf, lapack.dpotrs))
    factor, info = potrf(A, lower=True, clean=False, overwrite_a=True)
    # a NaN pivot may pass potrf's test
    if info > 0 or not np.isfinite(np.diagonal(factor)).all():
        raise FactorizationError("nonpositive pivot: matrix is not positive definite")
    return SpdFactorization(lambda b: potrs(factor, b, lower=True)[0], K.shape[0], dtype)


def _banded(K: sp.spmatrix) -> SpdFactorization:
    """LAPACK banded Cholesky (``pbtrf``, real or complex by the dtype) of
    a square K, solved by ``pbtrs``.  The half-bandwidth kd is the largest
    row - column of a stored entry of the lower triangle, which the factor
    reads alone (as ``potrf`` does); the (kd + 1, n) band is the one array
    the factorization holds.  Operators restricted to a dof map's free
    globals come in its band order, where kd is about p radial levels of
    the side's angles (:class:`igamotor.geometry.DofMap`).

    Duplicate entries are summed first.  The canonical CSR and CSC forms
    then have equal index arrays when the pattern is symmetric, and the
    CSC data is K^T on the CSR pattern, so K - K^H is csr.data -
    conj(csc.data): the same differences the sparse K - K^H forms, which
    drops only exact zeros, so the test accepts and rejects exactly as
    that sparse difference does.  Any other matrix goes through the sparse
    difference.  A leading minor that is not positive stops ``pbtrf``
    (info > 0); it, or a pivot that is not finite, is reported as the
    dense path reports it."""
    csr = K.tocsr()
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()
    csc = csr.tocsc()
    n = csr.shape[0]
    dtype = complex if np.iscomplexobj(csr.data) else float
    if (csc.has_canonical_format and np.array_equal(csr.indptr, csc.indptr)
            and np.array_equal(csr.indices, csc.indices)):
        asym = csr.data - csc.data.conj()
    else:
        asym = (csr - csr.conj().T).tocoo().data
    _check_hermitian(asym, float(np.max(np.abs(csr.data))) if csr.nnz else 1.0)
    del csc, asym                    # the band need not coexist with them
    rows = np.repeat(np.arange(n), np.diff(csr.indptr))
    offset = rows - csr.indices      # row - column of each stored entry
    lower = offset >= 0
    offset, cols, data = offset[lower], csr.indices[lower], csr.data[lower]
    ab = np.zeros((int(offset.max(initial=0)) + 1, n), dtype=dtype, order="F")
    ab[offset, cols] = data          # LAPACK's lower band: ab[i - j, j] = K[i, j]
    del rows, offset, lower, cols, data
    pbtrf, pbtrs = ((lapack.zpbtrf, lapack.zpbtrs) if dtype is complex
                    else (lapack.dpbtrf, lapack.dpbtrs))
    factor, info = pbtrf(ab, lower=1, overwrite_ab=1)
    if info > 0 or not np.isfinite(factor[0]).all():
        raise FactorizationError("nonpositive pivot: matrix is not positive definite")
    return SpdFactorization(lambda b: pbtrs(factor, b, lower=1)[0], n, dtype)


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
