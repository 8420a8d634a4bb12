"""Linear algebra contracts: positive definite factorization of a sparse
matrix with multi-RHS solves, dense SPD solves over stacks, and products of
one matrix with stacked rows.

:func:`factorize` takes a real symmetric matrix (the stiffness matrices) or
a complex Hermitian one (the deformation metric of the pole pitch, whose
closure turns the complex displacement x + iy by a phase, and the stator's
complex Bloch modes, whose closure takes the mode's phase); a complex
right-hand side is solved only by a complex factor, never cast to real.
One factorization is amortized over the many harmonic right-hand sides and
rotor angles of the coupling precomputation.  The order n alone chooses
the back end, and both accept and reject the same matrices:

* n <= ``DENSE_MAX_N``: one dense LAPACK Cholesky (``potrf``, solved by
  ``potrs``).  At these orders the banded path's sparse conversions and
  pattern check cost more than the dense factor saves.
* n > ``DENSE_MAX_N``: LAPACK banded Cholesky (``pbtrf``) on the band
  read from K's pattern, solved by band triangular solves (``tbtrs``).
  The operators come restricted to a dof map's band order, ring by ring,
  where the band is about p radial levels of the side's angles wide
  (:class:`igamotor.geometry.DofMap`).

A pattern's band layout (:func:`_band_layout`: the half-bandwidth, and
the lower entries' band places and the positions of their mirrors, which
the Hermitian test reads) depends on the pattern alone.  It is kept for
a pattern whose index arrays are read-only, as an assembled operator's
are: the matrices a dof map's plan assembles on one restriction share
them (:meth:`igamotor.assembly.AssemblyPlan.scatter`), so each design
step's rotor stiffness and metric, and the stator's second slot-pitch
mode, read the layout the first matrix built.  A weak reference to the
pattern's indices frees the layout with them, and so with the dof map; a
writeable pattern, which may change, gets a layout for the call alone.
Every call still checks its own entries: finite, Hermitian and with
positive pivots.

In the band order a right-hand side may start with zero rows: the
rotor's coupling moments G_rt are nonzero on the interface ring alone,
the last, and its magnet load j_rt from row 849 of 2,601 at refinement 4
(G_rt's 12 columns from row 2,550).  The forward solve of each column
starts at its first nonzero row, and the backward solve runs whole
(:func:`_band_solve`), with the bits of ``pbtrs``.

Factor plus solve of the demo's matrices (median ms, 2-core VM, one BLAS
thread; the stiffness and the stator's modes with their columns [G j], 7
at refinements 0-2 with 12 harmonics and 13 at 3-4 with the benchmark's
24, the metric with one complex column; ref the refinement, kd the
half-bandwidth).  The band column reads a kept layout, as every matrix
after the first on a pattern does; the first builds it, 0.7 ms for the
refinement-4 rotor's pattern and 1.0 ms for the metric's.  The stator
is solved as the Bloch modes of its first slot pitch
(:class:`BlochModes`), a real one (omega = -1) and a complex one (omega
= e^{i pi/3}) on the pole pitch, each of a third of the pitch's rows and
band; the pitch's own stiffness (5,202 rows, kd 208 at refinement 4,
17.2 ms in its band) is no longer factored:

    ref  rotor stiffness        stator mode -1         mode e^{i pi/3}        metric (complex)
         n     kd   dense band  n     kd   dense band  n     kd   dense band  n     kd   dense band
    0    36    16   0.04  0.08  24    11   0.03  0.07  24    11   0.03  0.07  21    8    0.03  0.05
    1    81    22   0.07  0.10  54    16   0.05  0.08  54    16   0.08  0.09  56    22   0.07  0.08
    2    225   34   1.06  0.21  150   24   0.21  0.15  150   24   1.07  0.20  174   34   1.35  0.20
    3    729   58   14.6  1.05  486   40   3.32  0.62  486   40   15.0  1.02  602   58   20.3  1.13
    4    2601  106  332   5.09  1734  72   108   2.92  1734  72   250   5.80  2226  106  466   7.12

Measured before the layout was kept, the same run read 7.19, 3.52, 6.31
and 7.93 ms in the band at refinement 4 (this VM's speed drifts: the
previous table read 5.29, 2.88, 5.18 and 9.69).

On leading blocks of the refinement-3 matrices the dense factor was the
faster up to about n = 195 for the real stiffness (0.91 of the banded
time at n = 175, 1.09 at 200), but only up to about n = 125 for the
complex metric (0.83 at n = 100, 1.01 at 125, 1.32 at 150), whose
Cholesky costs four real ones; these crossovers were measured before
the layout was kept.  ``DENSE_MAX_N`` = 150 lies between the two: a
complex matrix of 126-150 rows factors up to a third slower than in its
band, a real one of 151-195 rows about a tenth slower than densely.  The
complex slot-pitch mode at refinement 2, 150 rows with a band narrower
than those blocks', is the one matrix of the table on the slow side:
1.07 ms dense against 0.20 ms in its band.  Every bound from 150 to 173
sends each matrix of the table to the same back end; one from 81 to 149
would send the two refinement-2 modes to their band.

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

import weakref

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
        if b.shape[:1] != (self.n,):
            raise ValueError("right-hand side shape %s, not %d rows" % (b.shape, self.n))
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


def _check_hermitian(largest: float, scale: float):
    """FactorizationError when ``largest``, the largest |entry| of K - K^H,
    exceeds 1e-12 max(1, ``scale``), scale the largest |K|."""
    if largest > 1e-12 * max(1.0, scale):
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
    _check_hermitian(float(np.abs(A - A.conj().T).max(initial=0.0)),
                     float(np.abs(A).max(initial=0.0)))
    potrf, potrs = ((lapack.zpotrf, lapack.zpotrs) if dtype is complex
                    else (lapack.dpotrf, lapack.dpotrs))
    factor, info = potrf(A, lower=True, clean=False, overwrite_a=True)
    # a NaN pivot may pass potrf's test
    if info > 0 or not np.isfinite(np.diagonal(factor)).all():
        raise FactorizationError("nonpositive pivot: matrix is not positive definite")
    return SpdFactorization(lambda b: potrs(factor, b, lower=True)[0], K.shape[0], dtype)


# the kept band layouts, one per read-only pattern: the id of the array
# that owns its indices -> (weak reference to that array, weak reference to
# the array that owns its indptr, layout); an entry is dropped when its
# indices array is freed, so a layout lives as long as its dof map's pattern
_layouts = {}


def _read_only_owner(a: np.ndarray):
    """The read-only array that owns all of the index array ``a``'s memory
    (``a`` itself or the base it views whole), or None: a kept layout's key.
    scipy hands a CSR matrix a fresh view of its indices, so the key is
    the owner, not the view."""
    owner = a if a.base is None else a.base
    if (type(owner) is np.ndarray and not owner.flags.writeable
            and owner.dtype == a.dtype and owner.size == a.size
            and owner.__array_interface__["data"][0] == a.__array_interface__["data"][0]):
        return owner
    return None


def _band_layout(indptr: np.ndarray, indices: np.ndarray):
    """(kd, lower, places, mirror) of the canonical CSR pattern (``indptr``,
    ``indices``) of an n x n matrix: the half-bandwidth kd, the largest
    row - column of a stored entry of the lower triangle; the positions
    ``lower`` of those entries among the stored ones; ``places``, where
    each goes in the flat Fortran (kd + 1, n) band, LAPACK's lower band
    ab[i - j, j] = K[i, j] at j kd + i; and ``mirror``, the position of the
    entry (j, i) of each of them, or None when the pattern is not
    symmetric.  The index arrays are int32 where their values fit."""
    n = indptr.size - 1
    rows = np.repeat(np.arange(n), np.diff(indptr))
    offset = rows - indices                      # row - column of each stored entry
    kd = int(offset.max(initial=0))
    small = np.int32 if max(indices.size, (kd + 1) * n) <= np.iinfo(np.int32).max else np.intp
    lower = np.flatnonzero(offset >= 0).astype(small)
    del offset
    places = (np.multiply(indices, kd, dtype=np.intp) + rows).take(lower).astype(small)
    del rows
    # the stored entries' positions in column-major order, by scipy's CSR to
    # CSC conversion; a symmetric pattern is its own CSC pattern, so the
    # k-th of them is the entry (j, i) of the k-th stored entry (i, j)
    order = sp.csr_matrix((np.arange(indices.size, dtype=small), indices, indptr),
                          shape=(n, n)).tocsc()
    symmetric = (np.array_equal(order.indptr, indptr)
                 and np.array_equal(order.indices, indices))
    return kd, lower, places, order.data.take(lower) if symmetric else None


def _layout(csr: sp.csr_matrix):
    """:func:`_band_layout` of the canonical ``csr``'s pattern: kept in
    ``_layouts`` while the pattern's read-only indices live, built for this
    call alone when either index array is writeable (it might change)."""
    owners = _read_only_owner(csr.indices), _read_only_owner(csr.indptr)
    if owners[0] is None or owners[1] is None:
        return _band_layout(csr.indptr, csr.indices)
    key = id(owners[0])
    kept = _layouts.get(key)
    if kept is not None and kept[0]() is owners[0] and kept[1]() is owners[1]:
        return kept[2]
    layout = _band_layout(csr.indptr, csr.indices)
    # the callback holds the dict's pop: it may run as the interpreter ends
    _layouts[key] = (weakref.ref(owners[0], lambda _, pop=_layouts.pop, key=key: pop(key, None)),
                     weakref.ref(owners[1]), layout)
    return layout


def _banded(K: sp.spmatrix) -> SpdFactorization:
    """LAPACK banded Cholesky (``pbtrf``, real or complex by the dtype) of
    a square K, solved by :func:`_band_solve`.  The half-bandwidth kd is
    the largest row - column of a stored entry of the lower triangle, which
    the factor reads alone (as ``potrf`` does); the (kd + 1, n) band is the
    one array the factorization holds.  Operators restricted to a dof map's
    free globals come in its band order, where kd is about p radial levels
    of the side's angles (:class:`igamotor.geometry.DofMap`).

    Duplicate entries are summed first.  The pattern's layout
    (:func:`_layout`) then gives the lower entries, their band places and,
    for a symmetric pattern, their mirrors: K - K^H at a lower entry (i,
    j) is K[i, j] - conj(K[j, i]), and at (j, i) minus its conjugate, of
    the same magnitude bit for bit, so the lower entries' differences
    hold the largest |entry| of the sparse K - K^H, which drops only exact
    zeros; the test accepts and rejects exactly as that sparse difference
    does.  Any other pattern goes through the sparse difference.  A
    leading minor that is not positive stops ``pbtrf`` (info > 0); it, or
    a pivot that is not finite, is reported as the dense path reports
    it."""
    csr = K.tocsr()
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()
    n, data = csr.shape[0], csr.data
    dtype = complex if np.iscomplexobj(data) else float
    kd, lower, places, mirror = _layout(csr)
    values = data.take(lower)
    if mirror is not None:
        mirrored = data.take(mirror)
        asym = values - (mirrored.conj() if dtype is complex else mirrored)
        del mirrored
    else:
        asym = (csr - csr.conj().T).tocoo().data
    _check_hermitian(float(np.abs(asym).max(initial=0.0)),
                     float(np.abs(data).max(initial=0.0)) if csr.nnz else 1.0)
    del asym                         # the band need not coexist with it
    ab = np.zeros((kd + 1, n), dtype=dtype, order="F")
    # a fancy assignment reads int32 places at half its speed on intp ones;
    # an intp copy first costs less than the difference
    ab.reshape(-1, order="F")[places.astype(np.intp)] = values
    del values
    pbtrf = lapack.zpbtrf if dtype is complex else lapack.dpbtrf
    factor, info = pbtrf(ab, lower=1, overwrite_ab=1)
    if info > 0 or not np.isfinite(factor[0]).all():
        raise FactorizationError("nonpositive pivot: matrix is not positive definite")
    return SpdFactorization(lambda b: _band_solve(factor, b), n, dtype)


def _band_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x of L L^H x = b for the lower band ``factor`` of L and a contiguous
    b of its dtype, one column or a block, in Fortran order: the bits of
    ``pbtrs``, with less work for a b whose columns start with zero rows.
    ``pbtrs`` solves each column by a forward and a backward band
    triangular solve (``tbsv``).  The forward solve of a column whose
    first nonzero row is s leaves the rows above s zero, and adds only
    zero products below them, so it runs from s alone, on L's trailing
    block L[s:, s:] (the band's columns s on): one ``tbtrs`` per group of
    columns that start in the same row (row 0 for a zero column).  The
    backward solve L^H x = y then runs whole, one ``tbtrs`` over every
    column."""
    tbtrs, trans = (lapack.ztbtrs, "C") if factor.dtype == complex else (lapack.dtbtrs, "T")
    y = np.array(b.reshape(factor.shape[1], -1), order="F")
    starts = (y != 0).argmax(axis=0)
    for start in np.unique(starts):
        cols = np.flatnonzero(starts == start)
        y[start:, cols] = tbtrs(factor[:, start:], y[start:, cols], uplo="L", overwrite_b=1)[0]
    return tbtrs(factor, y, uplo="L", trans=trans, overwrite_b=1)[0].reshape(b.shape)


def bloch_phases(n_images: int, sign: int) -> list:
    """The closure phases of the Bloch modes of a model made of ``n_images``
    turned images of one sector and closed with the field sign ``sign``:
    the roots omega = e^{i pi t / n} of omega^n = sign with 0 <= t <= n,
    t of the parity of [sign < 0], one of each complex-conjugate pair.
    The real roots +-1 are floats, the others complex."""
    phases = []
    for t in range(int(sign < 0), n_images + 1, 2):
        if t in (0, n_images):
            phases.append(1.0 if t == 0 else -1.0)
        else:
            angle = np.pi * t / n_images
            phases.append(complex(np.cos(angle), np.sin(angle)))
    return phases


class BlochModes:
    """A real symmetric positive definite system K u = b on a model made of
    N turned images of one sector, closed with a field sign sigma, held as
    its Bloch modes: ``matrices``, the sector's Hermitian positive definite
    K_omega, one per closure phase omega of ``phases``
    (:func:`bloch_phases`), and ``images`` (n, N), the position in u of the
    image in period k of each of the sector's n dofs.

    K couples period k to its neighbours alone, and the image past the
    last period is sigma times the first, so the transform u_omega =
    sum_k omega^-k u_k over the N roots of omega^N = sigma turns K u = b
    into the N sector systems K_omega u_omega = b_omega, and u_k = (1/N)
    sum_omega omega^k u_omega.  For real b the conjugate root gives the
    conjugate mode, so of each pair one is solved and taken as 2 Re."""

    def __init__(self, matrices: list, phases: list, images: np.ndarray):
        self.matrices, self.phases, self.images = matrices, phases, images

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve for one real right-hand side or a block of columns, in
        Fortran order as :meth:`SpdFactorization.solve` returns it: each
        mode is factored (:func:`factorize`), solved and dropped in turn."""
        b = _real(b)
        if b.shape[:1] != (self.images.size,):
            raise ValueError("right-hand side shape %s, not %d rows" % (b.shape, self.images.size))
        n_images = self.images.shape[1]
        cols = b.reshape(b.shape[0], -1)
        parts = cols[self.images]                    # (n, N, m): the images of each dof
        values = np.zeros((n_images,) + parts.shape[::2])        # (N, n, m): u at image k
        for matrix, phase in zip(self.matrices, self.phases):
            powers = np.power(phase, np.arange(n_images))             # omega^k
            u = factorize(matrix).solve(np.matmul(powers.conj(), parts))
            weight = (1.0 if isinstance(phase, float) else 2.0) / n_images
            values += np.multiply.outer(weight * powers, u).real
        out = np.empty(cols.shape, order="F")
        out[self.images.T.reshape(-1)] = values.reshape(cols.shape)
        return out.reshape(b.shape, order="F")


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
