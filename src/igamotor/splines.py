"""B-spline and NURBS kernels: basis evaluation, first derivatives, surface
patches and knot insertion.

The B-spline basis is evaluated by one Cox-de Boor pass,
:func:`bspline_basis_table`, on arrays of points, a scalar being the 0-d
case; the rational basis and its derivatives (the quotient rule) by one
:func:`rational_basis` for any leading axes.  Point evaluation
(:func:`patch_basis`, :func:`eval_patch`) and the quadrature tables of
:mod:`igamotor.assembly` share both, and one span rule.

All parameter domains are normalized to [0, 1]; knot vectors given on another
range are rescaled on construction.  Indexing is 0-based throughout.  The
right endpoint evaluates in the last nonempty span (clamped convention).

References:
    L. Piegl, W. Tiller, The NURBS Book, 2nd ed., Springer, 1997.
"""
from __future__ import annotations

from dataclasses import dataclass

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


def _span(knots: np.ndarray, p: int, x):
    """Index i of the knot span with knots[i] <= x < knots[i + 1], clamped
    to the nonempty spans p .. n - 1, for a scalar or an array x; x >= 1
    evaluates in the last nonempty span n - 1."""
    n = knots.size - p - 1
    inside = np.minimum(np.maximum(np.searchsorted(knots, x, side="right") - 1, p), n - 1)
    return np.where(x >= 1.0, n - 1, inside)


def bspline_basis_table(kv: KnotVector, x):
    """Nonzero B-spline basis functions and first derivatives at every point
    of the array ``x`` in one Cox-de Boor pass (The NURBS Book, A2.2 and
    A2.3): (span, values, derivs), span with the shape of x, values and
    derivs with one more axis of p + 1.  Every point gets the same
    operations in the same order, so an entry does not depend on the
    other points of x."""
    x = np.asarray(x, dtype=float)
    if not ((x >= 0.0) & (x <= 1.0)).all():
        raise ValueError("parameter outside [0, 1]")
    U, p = kv.knots, kv.degree
    # the recursion keeps one entry per local function, an array of the
    # shape of x; [()] turns a 0-d x and its span into numbers
    shape, span = x.shape, _span(U, p, x)[()]
    x = x[()]
    left, right = [0.0] * (p + 1), [0.0] * (p + 1)
    N = [1.0] + [0.0] * p
    lower = N[:1]
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
            lower = N[:p]
    values, derivs = np.empty(shape + (p + 1,)), np.zeros(shape + (p + 1,))
    for r in range(p + 1):
        values[..., r] = N[r]
    if p > 0:
        for r in range(p + 1):
            j = span - p + r
            a = lower[r - 1] / (U[j + p] - U[j]) if r >= 1 else 0.0
            b = lower[r] / (U[j + p + 1] - U[j + 1]) if r <= p - 1 else 0.0
            derivs[..., r] = p * (a - b)
    return span, values, derivs


def rational_basis(w, N, *dN):
    """Rational basis R = w N / W and its derivatives w (dN W - N dW) / W^2,
    with W = sum w N, over the last axis (the local functions) of N and of
    each derivative table in dN; w broadcasts against them, so any leading
    axes (elements, points) evaluate at once.  Returns (R, *dR)."""
    wN = w * N
    W = wN.sum(axis=-1, keepdims=True)
    return (wN / W,) + tuple(
        w * (d * W - N * (w * d).sum(axis=-1, keepdims=True)) / (W * W) for d in dN)


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

    def with_points(self, points) -> "NurbsPatch":
        """The patch on the same knots and weights, shared objects that are
        not checked again, with new control points of the same shape."""
        P = np.asarray(points, dtype=float)
        if P.shape != self.points.shape:
            raise ValueError("control net shape %r does not match %r"
                             % (P.shape, self.points.shape))
        P.setflags(write=False)
        moved = object.__new__(NurbsPatch)
        for name, value in (("knots_u", self.knots_u), ("knots_v", self.knots_v),
                            ("points", P), ("weights", self.weights)):
            object.__setattr__(moved, name, value)
        return moved

    @property
    def n_u(self) -> int:
        return self.knots_u.n

    @property
    def n_v(self) -> int:
        return self.knots_v.n


def patch_basis(patch: NurbsPatch, xi, eta):
    """Nonzero rational basis at the parameter points (xi, eta), two arrays
    of one shape S (scalars are the 0-d case): the flat indices
    ``row * n_v + col`` of each point's (p_u + 1, p_v + 1) block of the
    control grid, in row-major order of that block, shape S + (L,), which
    ``take`` reads from the flattened points, weights and dof map; and R,
    R_xi, R_eta in the same order, shape S + (L,)."""
    su, Bu, dBu = bspline_basis_table(patch.knots_u, xi)
    sv, Bv, dBv = bspline_basis_table(patch.knots_v, eta)
    rows = (su[..., None] + np.arange(-patch.knots_u.degree, 1))[..., :, None]
    cols = (sv[..., None] + np.arange(-patch.knots_v.degree, 1))[..., None, :]
    shape = su.shape + (-1,)
    local = (rows * patch.n_v + cols).reshape(shape)
    R, R_xi, R_eta = rational_basis(patch.weights.reshape(-1).take(local),
                                    (Bu[..., :, None] * Bv[..., None, :]).reshape(shape),
                                    (dBu[..., :, None] * Bv[..., None, :]).reshape(shape),
                                    (Bu[..., :, None] * dBv[..., None, :]).reshape(shape))
    return local, R, R_xi, R_eta


def eval_patch(patch: NurbsPatch, xi, eta):
    """(F(xi, eta), Jacobian) at parameter points xi, eta of one shape S,
    scalars the 0-d case: shapes S + (2,) and S + (2, 2), the Jacobian's
    columns dF/dxi and dF/deta."""
    local, R, R_xi, R_eta = patch_basis(patch, xi, eta)
    P = patch.points.reshape(-1, 2).take(local, axis=0)
    point, d_xi, d_eta = (np.matmul(r[..., None, :], P)[..., 0, :] for r in (R, R_xi, R_eta))
    return point, np.stack([d_xi, d_eta], axis=-1)


def _insert_one_u(knots: np.ndarray, p: int, Pw: np.ndarray, x: float):
    """Boehm insertion of a single knot into the u direction.

    ``Pw`` is the homogeneous control grid, shape (n_u, ...): the u index
    first, any further axes (v, patches, coordinates) carried along.
    """
    span = int(_span(knots, p, x))
    Q = np.empty((Pw.shape[0] + 1,) + Pw.shape[1:])
    Q[:span - p + 1] = Pw[:span - p + 1]
    Q[span + 1:] = Pw[span:]
    for i in range(span - p + 1, span + 1):
        a = (x - knots[i]) / (knots[i + p] - knots[i])
        Q[i] = a * Pw[i] + (1.0 - a) * Pw[i - 1]
    new_knots = np.insert(knots, span + 1, x)
    return new_knots, Q


def insert_knots_stack(patches, new_knots_u=(), new_knots_v=()) -> list:
    """:func:`insert_knots` on patches that share their knots and degrees,
    as one (n_u, n_v, G, 3) stack of homogeneous control nets.

    Every entry is computed by the same Boehm arithmetic as for one patch,
    so each refined patch is bitwise the one-patch result.  The refined
    patches share one pair of knot vectors.
    """
    patches = list(patches)
    ref = patches[0]
    for patch in patches[1:]:
        for a, b in ((patch.knots_u, ref.knots_u), (patch.knots_v, ref.knots_v)):
            if a.degree != b.degree or not np.array_equal(a.knots, b.knots):
                raise ValueError("stacked knot insertion needs patches on the same knots")
    for kv, new in ((ref.knots_u, new_knots_u), (ref.knots_v, new_knots_v)):
        combined = list(kv.knots) + [float(x) for x in new]
        for x in new:
            x = float(x)
            if not 0.0 < x < 1.0:
                raise ValueError("inserted knot %r not strictly inside (0, 1)" % (x,))
            if combined.count(x) > kv.degree:
                raise ValueError("knot %r would exceed multiplicity %d" % (x, kv.degree))
    P = np.stack([patch.points for patch in patches], axis=2)     # (n_u, n_v, G, 2)
    w = np.stack([patch.weights for patch in patches], axis=2)    # (n_u, n_v, G)
    Pw = np.concatenate([P * w[..., None], w[..., None]], axis=3)
    ku = ref.knots_u.knots.copy()
    for x in sorted(new_knots_u):
        ku, Pw = _insert_one_u(ku, ref.knots_u.degree, Pw, float(x))
    kv = ref.knots_v.knots.copy()
    if len(new_knots_v):
        Pw = Pw.transpose(1, 0, 2, 3)
        for x in sorted(new_knots_v):
            kv, Pw = _insert_one_u(kv, ref.knots_v.degree, Pw, float(x))
        Pw = Pw.transpose(1, 0, 2, 3)
    # one contiguous net per patch, laid out as the one-patch grid
    Pw = np.ascontiguousarray(Pw.transpose(2, 0, 1, 3))            # (G, n_u, n_v, 3)
    w = Pw[..., 2]
    pts = Pw[..., :2] / w[..., None]
    knots_u = KnotVector(ku, ref.knots_u.degree)
    knots_v = KnotVector(kv, ref.knots_v.degree)
    return [NurbsPatch(knots_u, knots_v, pts[g], w[g]) for g in range(len(patches))]


def insert_knots(patch: NurbsPatch, new_knots_u=(), new_knots_v=()) -> NurbsPatch:
    """Insert knots without changing the mapped geometry.

    New knots must lie strictly inside (0, 1) and resulting interior
    multiplicities may not exceed the degree.
    """
    return insert_knots_stack([patch], new_knots_u, new_knots_v)[0]


# widest sector one quadratic rational arc spans (90 degrees, rounding allowed)
MAX_ARC_SWEEP = np.pi / 2 + 1e-12
# the one-element quadratic knot vector of every arc patch (immutable, shared)
_ARC_KNOTS = KnotVector(np.array([0, 0, 0, 1, 1, 1], dtype=float), 2)


def make_arc_patch(r_inner: float, r_outer: float, theta0: float, theta1: float,
                   ) -> NurbsPatch:
    """Exact annular sector patch: u radial, v angular, degree 2 in both.

    The angular direction is the standard quadratic rational arc (span at
    most 90 degrees), so every constant-u line lies exactly on a circle.
    Orientation gives det(J) > 0 for theta1 > theta0.
    """
    sweep = theta1 - theta0
    if not 0.0 < sweep <= MAX_ARC_SWEEP:
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
    return NurbsPatch(_ARC_KNOTS, _ARC_KNOTS, points, weights)
