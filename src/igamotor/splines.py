"""B-spline and NURBS kernels: basis evaluation, first derivatives, surface
patches and knot insertion.

The rational basis and its derivatives (the quotient rule) are formed in
one place, :func:`rational_basis`, for any leading axes: point evaluation
and the batched quadrature tables of :mod:`igamotor.assembly` share it.

All parameter domains are normalized to [0, 1]; knot vectors given on another
range are rescaled on construction.  Indexing is 0-based throughout.  The
right endpoint evaluates in the last nonempty span (clamped convention).

References:
    L. Piegl, W. Tiller, The NURBS Book, 2nd ed., Springer, 1997.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import GeometryError


@dataclass(frozen=True)
class KnotVector:
    """Open (clamped) knot vector with degree.

    Parameters
    ----------
    knots : array_like
        Nondecreasing knot sequence; rescaled to [0, 1] on construction.
    degree : int
        Polynomial degree p >= 0.

    Notes
    -----
    With ``m + 1`` knots the basis dimension is ``n = m - p``.  The vector
    must be clamped (end knots of multiplicity p + 1) and interior knots may
    not exceed multiplicity p.
    """

    knots: np.ndarray
    degree: int

    def __post_init__(self):
        k = np.asarray(self.knots, dtype=float)
        p = int(self.degree)
        if p < 0:
            raise ValueError("degree must be nonnegative")
        if k.ndim != 1 or k.size < 2 * (p + 1):
            raise ValueError("knot vector too short for degree %d" % p)
        if np.any(np.diff(k) < 0):
            raise ValueError("knots must be nondecreasing")
        lo, hi = k[0], k[-1]
        if not hi > lo:
            raise ValueError("knot vector has zero range")
        if lo != 0.0 or hi != 1.0:
            k = (k - lo) / (hi - lo)
        if np.any(k[:p + 1] != 0.0) or np.any(k[-(p + 1):] != 1.0):
            raise ValueError("knot vector must be clamped with multiplicity p + 1")
        interior = k[p + 1:len(k) - p - 1]
        if interior.size:
            vals, counts = np.unique(interior, return_counts=True)
            if np.any(counts > p):
                raise ValueError("interior knot multiplicity exceeds degree")
            if np.any(vals <= 0.0) or np.any(vals >= 1.0):
                raise ValueError("interior knots must lie strictly inside (0, 1)")
        k.setflags(write=False)
        object.__setattr__(self, "knots", k)
        object.__setattr__(self, "degree", p)

    @property
    def n(self) -> int:
        """Basis dimension."""
        return self.knots.size - self.degree - 1

    def breakpoints(self) -> np.ndarray:
        """Distinct knot values (element boundaries)."""
        return np.unique(self.knots)


def find_span(kv: KnotVector, x: float) -> int:
    """Index i of the knot span with knots[i] <= x < knots[i+1].

    For x == 1 the last nonempty span (index n - 1) is returned.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError("parameter %r outside [0, 1]" % (x,))
    n, p = kv.n, kv.degree
    if x >= 1.0:
        return n - 1
    span = int(np.searchsorted(kv.knots, x, side="right")) - 1
    return min(max(span, p), n - 1)


def bspline_basis(kv: KnotVector, x: float):
    """Nonzero B-spline basis functions and first derivatives at x.

    Returns
    -------
    span : int
        Knot span index; the returned values belong to global basis
        functions span - p .. span.
    values : ndarray, shape (p + 1,)
        Basis values; nonnegative, summing to one.
    derivs : ndarray, shape (p + 1,)
        First derivatives; summing to zero.
    """
    span = find_span(kv, x)
    U, p = kv.knots, kv.degree
    values = np.ones(1)
    lower = values
    left = np.empty(p + 1)
    right = np.empty(p + 1)
    N = np.zeros(p + 1)
    N[0] = 1.0
    for j in range(1, p + 1):
        left[j] = x - U[span + 1 - j]
        right[j] = U[span + j] - x
        saved = 0.0
        for r in range(j):
            tmp = N[r] / (right[r + 1] + left[j - r])
            N[r] = saved + right[r + 1] * tmp
            saved = left[j - r] * tmp
        N[j] = saved
        if j == p - 1:
            lower = N[:p].copy()
    derivs = np.zeros(p + 1)
    if p > 0:
        for r in range(p + 1):
            j = span - p + r
            a = lower[r - 1] / (U[j + p] - U[j]) if r >= 1 else 0.0
            b = lower[r] / (U[j + p + 1] - U[j + 1]) if r <= p - 1 else 0.0
            derivs[r] = p * (a - b)
    return span, N[:p + 1], derivs


def rational_basis(w, N, *dN):
    """Rational basis R = w N / W and its derivatives w (dN W - N dW) / W^2,
    with W = sum w N, over the last axis (the local functions) of N and of
    each derivative table in dN; w broadcasts against them, so any leading
    axes (elements, points) evaluate at once.  Returns (R, *dR)."""
    wN = w * N
    W = wN.sum(axis=-1, keepdims=True)
    return (wN / W,) + tuple(
        w * (d * W - N * (w * d).sum(axis=-1, keepdims=True)) / (W * W) for d in dN)


def nurbs_basis(kv: KnotVector, weights, x: float):
    """Rational basis functions and first derivatives at x.

    ``weights`` must hold one positive weight per basis function.
    Identical to :func:`bspline_basis` whenever all weights are equal.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (kv.n,):
        raise ValueError("expected %d weights, got shape %r" % (kv.n, w.shape))
    if np.any(w <= 0.0):
        raise ValueError("weights must be positive")
    span, N, dN = bspline_basis(kv, x)
    R, dR = rational_basis(w[span - kv.degree:span + 1], N, dN)
    return span, R, dR


def eval_curve(kv: KnotVector, weights, points, x: float):
    """Point and first derivative of a NURBS curve at parameter x.

    ``points`` has shape (n, d) for any spatial dimension d.
    """
    P = np.asarray(points, dtype=float)
    span, R, dR = nurbs_basis(kv, weights, x)
    Pl = P[span - kv.degree:span + 1]
    return R @ Pl, dR @ Pl


@dataclass(frozen=True)
class NurbsPatch:
    """Tensor-product NURBS surface patch in the plane.

    ``points`` has shape (n_u, n_v, 2) in meters, ``weights`` shape
    (n_u, n_v) with positive entries.  The mapping F: [0,1]^2 -> R^2 is
    expected to be regular (positive Jacobian determinant); this is checked
    by mesh validity routines, not the constructor.
    """

    knots_u: KnotVector
    knots_v: KnotVector
    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        nu, nv = self.knots_u.n, self.knots_v.n
        if P.shape != (nu, nv, 2):
            raise ValueError("control net shape %r does not match basis (%d, %d)"
                             % (P.shape, nu, nv))
        if w.shape != (nu, nv):
            raise ValueError("weight grid shape %r does not match basis" % (w.shape,))
        if np.any(w <= 0.0):
            raise ValueError("weights must be positive")
        P.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", P)
        object.__setattr__(self, "weights", w)

    @property
    def n_u(self) -> int:
        return self.knots_u.n

    @property
    def n_v(self) -> int:
        return self.knots_v.n


def patch_basis(patch: NurbsPatch, xi: float, eta: float):
    """Nonzero rational basis at (xi, eta): the two slices of the control
    grid (points, weights, dof map) it belongs to, and R, R_xi, R_eta
    flattened in row-major order of that (p_u + 1, p_v + 1) block."""
    su, Bu, dBu = bspline_basis(patch.knots_u, xi)
    sv, Bv, dBv = bspline_basis(patch.knots_v, eta)
    local = (slice(su - patch.knots_u.degree, su + 1),
             slice(sv - patch.knots_v.degree, sv + 1))
    R, R_xi, R_eta = rational_basis(patch.weights[local].reshape(-1),
                                    np.outer(Bu, Bv).reshape(-1),
                                    np.outer(dBu, Bv).reshape(-1),
                                    np.outer(Bu, dBv).reshape(-1))
    return local, R, R_xi, R_eta


def eval_patch(patch: NurbsPatch, xi: float, eta: float):
    """Map a parameter point through the patch.

    Returns
    -------
    point : ndarray, shape (2,)
        F(xi, eta).
    jac : ndarray, shape (2, 2)
        Columns are dF/dxi and dF/deta.
    """
    local, R, R_xi, R_eta = patch_basis(patch, xi, eta)
    P = patch.points[local].reshape(-1, 2)
    return R @ P, np.stack([R_xi @ P, R_eta @ P], axis=1)


def _insert_one_u(knots: np.ndarray, p: int, Pw: np.ndarray, x: float):
    """Boehm insertion of a single knot into the u direction.

    ``Pw`` is the homogeneous control grid, shape (n_u, n_v, 3).
    """
    n = knots.size - p - 1
    if x >= 1.0:
        span = n - 1
    else:
        span = min(max(int(np.searchsorted(knots, x, side="right")) - 1, p), n - 1)
    nu, nv, _ = Pw.shape
    Q = np.empty((nu + 1, nv, 3))
    Q[:span - p + 1] = Pw[:span - p + 1]
    Q[span + 1:] = Pw[span:]
    for i in range(span - p + 1, span + 1):
        a = (x - knots[i]) / (knots[i + p] - knots[i])
        Q[i] = a * Pw[i] + (1.0 - a) * Pw[i - 1]
    new_knots = np.insert(knots, span + 1, x)
    return new_knots, Q


def insert_knots(patch: NurbsPatch, new_knots_u=(), new_knots_v=()) -> NurbsPatch:
    """Insert knots without changing the mapped geometry.

    New knots must lie strictly inside (0, 1) and resulting interior
    multiplicities may not exceed the degree.
    """
    for kv, new in ((patch.knots_u, new_knots_u), (patch.knots_v, new_knots_v)):
        combined = list(kv.knots) + [float(x) for x in new]
        for x in new:
            x = float(x)
            if not 0.0 < x < 1.0:
                raise ValueError("inserted knot %r not strictly inside (0, 1)" % (x,))
            if combined.count(x) > kv.degree:
                raise ValueError("knot %r would exceed multiplicity %d" % (x, kv.degree))
    Pw = np.concatenate([patch.points * patch.weights[..., None],
                         patch.weights[..., None]], axis=2)
    ku = patch.knots_u.knots.copy()
    for x in sorted(new_knots_u):
        ku, Pw = _insert_one_u(ku, patch.knots_u.degree, Pw, float(x))
    kv = patch.knots_v.knots.copy()
    if len(new_knots_v):
        Pw = Pw.transpose(1, 0, 2)
        for x in sorted(new_knots_v):
            kv, Pw = _insert_one_u(kv, patch.knots_v.degree, Pw, float(x))
        Pw = Pw.transpose(1, 0, 2)
    w = Pw[..., 2]
    pts = Pw[..., :2] / w[..., None]
    return NurbsPatch(KnotVector(ku, patch.knots_u.degree),
                      KnotVector(kv, patch.knots_v.degree), pts, w)


def scale_patch(patch: NurbsPatch, factor: float) -> NurbsPatch:
    """Uniformly scaled copy (weights and knots unchanged)."""
    return replace(patch, points=patch.points * factor)


def make_arc_patch(r_inner: float, r_outer: float, theta0: float, theta1: float,
                   ) -> NurbsPatch:
    """Exact annular sector patch: u radial, v angular, degree 2 in both.

    The angular direction is the standard quadratic rational arc (span at
    most 90 degrees), so every constant-u line lies exactly on a circle.
    Orientation gives det(J) > 0 for theta1 > theta0.
    """
    sweep = theta1 - theta0
    if not 0.0 < sweep <= np.pi / 2 + 1e-12:
        raise GeometryError("arc sweep %.6f rad outside (0, pi/2]" % sweep)
    if not 0.0 < r_inner < r_outer:
        raise GeometryError("radii must satisfy 0 < r_inner < r_outer")
    half = 0.5 * sweep
    w_mid = np.cos(half)
    mid = 0.5 * (theta0 + theta1)
    unit = np.array([
        [np.cos(theta0), np.sin(theta0)],
        [np.cos(mid) / w_mid, np.sin(mid) / w_mid],
        [np.cos(theta1), np.sin(theta1)],
    ])
    radii = np.array([r_inner, 0.5 * (r_inner + r_outer), r_outer])
    points = radii[:, None, None] * unit[None, :, :]
    weights = np.broadcast_to(np.array([1.0, w_mid, 1.0]), (3, 3)).copy()
    kv = KnotVector(np.array([0, 0, 0, 1, 1, 1], dtype=float), 2)
    return NurbsPatch(kv, kv, points, weights)
