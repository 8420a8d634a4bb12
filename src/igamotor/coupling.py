"""Harmonic stator-rotor coupling: the coupled saddle-point system, its
angle-independent precomputation, the small interface problem at every
rotor angle, field reconstruction, and rotation sweeps.

The coupled system in (u_st, u_rt, lambda) enforces continuity of the
vector potential across the air-gap circle weakly against real harmonics
carried in the rotor frame: a column of order l >= 0 tests against
cos(l theta), a column of order l < 0 against sin(|l| theta).  Rotation by
alpha enters only through the real orthogonal matrix R(alpha), one 2x2
rotation block per order pair, which the solves apply by its phases and
never form: (R v)_k = cos(l_k a) v_k - sin(l_k a) v_p(k), with p(k) the
column of order -l_k, and R^T = R(-a).  With the trace moment matrices G_st
(negative sign convention) and G_rt, the system reads

    [ K_st        0      -G_st R(a) ] [u_st]   [j_st]
    [ 0           K_rt   -G_rt      ] [u_rt] = [j_rt]
    [ -(G_st R)^T  -G_rt^T   0      ] [lam ]   [ 0  ]

which is symmetric.  Eliminating the interior unknowns gives the interface
problem

    K_int(a) lam = f_int(a),
    K_int = H_rt + R^T H_st R,          H_* = G_*^T K_*^-1 G_*,
    f_int = -(R^T g_st + g_rt),         g_* = G_*^T K_*^-1 j_*,

with K_int symmetric positive definite, and the interior fields are
reconstructed as u_st = y_st + X_st R lam, u_rt = y_rt + X_rt lam with
X_* = K_*^-1 G_*, y_* = K_*^-1 j_*.  Only the n_harmonics-dimensional
system depends on the angle, so the angle is an array axis: given an array
of angles, solve_interface and reconstruct_state return one row per angle.
The stator repeats every slot pitch tau (SweepPlan.period), so
R(tau)^T H_st R(tau) = H_st and
K_int(a + k tau) = K_int(a): solve_interface and rotation_sweep group the
angles into classes a whole number of periods apart, and form,
Cholesky-guard and solve one K_int per class, at its first angle, with one
column per angle of the class (a full-period sweep of n angles has
n / gcd(n, 6) classes: 20 at 120).  They do not build the whole
(n_angles, n_h, n_h) stack: classes of equal size are taken in blocks of
about 128 KiB of K_int, and each block takes its phases once, for K_int,
the right-hand sides and the flux linkage.  Each class gets the operations
of its own solve, so the rows do not depend on the blocking, and an angle
that shares its class with no other keeps the bits of its single-angle
solve.  reconstruct_state forms each interior field when it is first read.

Of each block, the classes and phases, the matrices R^T H_st R and the
rotated default loads R^T g_st do not depend on the rotor.  They belong to
the stator side of the coupling, one SweepPlan per machine
(optim.MachineSolver): the stator's products, the orders with their
partner columns, the period and the machine's own angle array.  The plan
forms its blocks over that array when they are first read, so a machine
that never sweeps it (one solve at one angle) forms none; a sweep,
interface solve or adjoint handed that very array reads them and does only
H_rt + R^T H_st R, the right-hand sides, the stacked solve and the flux
product per block, with the operations of the block-by-block path, so
every row keeps its bits.  Any other array (an offset sweep, a single
angle) is solved block by block as before, and the plan costs it one
identity test.  The blocks hold n_classes n_h^2 + 3 n_angles n_h doubles:
57,600 bytes for 120 angles and 12 coupled orders, 11,796,480 bytes for
MAX_ANGLES = 4,096 angles and 24 coupled orders (2,048 classes).

The sides are modelled over one pole pitch, closed antiperiodically: a
harmonic of order l lives on that model when it is antiperiodic over the
pitch, and closure_orders keeps those of the configured set, the odd
multiples of p.  Each side's blocks are then 1/(2p) of the full
machine's, so lambda is the full machine's; the winding vector, and with
it the flux linkage and the adjoint load, counts all 2p copies.

CouplingPrecomp, one rotor's coupled system, is the machine's SweepPlan
and the rotor's products.  A side keeps only X, y, H and g: its K is
solved once for the stacked columns [G j] and dropped with its
factorization, since the per-angle stage reads only the products.  The
rotor's K is factored whole.  The stator's never is: the stator is N equal
slot pitches, so its K is block-circulant over them (up to the closure
sign) and is solved as N Bloch modes on the first slot pitch
(linalg.BlochModes, optim.stator_modes): [G_st j_st] is projected onto
each mode, each mode matrix of a third of the pitch's rows and band is
factored, solved and dropped in turn, and the mode solutions are summed
back into X_st and y_st in the pitch's numbering, so H_st, g_st and every
product downstream keep their form.  The stator's G and j are dropped once
the plan is built; the rotor's stay with MachineSolver, which solves with
them for every rotor geometry.
The primary correctness oracle, agreement with the full saddle system
solved directly, lives with the tests (tests/oracles.py), as do the
dense R(alpha) it forms and the residual of an angle solution in the
coupled system.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fourier import SweepResult
from .linalg import matvec, spd_stack_solve


def harmonic_orders(n_harmonics: int, multiples_of: int = 1) -> np.ndarray:
    """Default harmonic order set, closed under negation so that every l > 0
    has its cos and sin column: odd n takes all integers in [-(n-1)/2,
    (n-1)/2]; even n takes +-{1..n/2} (the zero-order moment of the interface
    field vanishes for balanced sources by Ampere's law).  Optionally scaled
    to multiples of the pole-pair count."""
    half = n_harmonics // 2
    if n_harmonics % 2:
        base = np.arange(-half, half + 1)
    else:
        base = np.concatenate([np.arange(-half, 0), np.arange(1, half + 1)])
    return base * int(multiples_of)


def closure_orders(orders, copies: int, closure_sign: int) -> np.ndarray:
    """The orders l of ``orders`` whose harmonics follow the closure of a
    model that is one of ``copies`` sectors of its side with field sign
    ``closure_sign``: h(theta + 2 pi / copies) = closure_sign h(theta), so
    2 l / copies is an integer, odd across an antiperiodic closure (on the
    pole pitch, the odd multiples of pole_pairs) and even across a periodic
    one.  The other orders carry no field of such a model."""
    orders = np.asarray(orders, dtype=int)
    turns, rest = np.divmod(2 * orders, copies)
    return orders[(rest == 0) & (turns % 2 == int(closure_sign < 0))]


def _partner_columns(orders) -> np.ndarray:
    """Column p(k) of order -l_k of each column k; checks the orders first."""
    column = {l: k for k, l in enumerate(np.asarray(orders, dtype=int).tolist())}
    if len(column) != len(orders) or any(-l not in column for l in column):
        raise ValueError("harmonic orders must be distinct and closed under negation")
    return np.array([column[-l] for l in column], dtype=np.intp)


def _phases(orders, partner, alpha):
    """cos(l alpha) and sin(l alpha), one row per angle: the entries of R.
    They are taken once per |l|, at the columns of l >= 0, and copied to
    the partner columns p(k) of order -l with the sign of l: cos and sin
    are even and odd bit for bit."""
    orders = np.asarray(orders)
    half = np.flatnonzero(orders >= 0)
    phase = orders[half] * np.asarray(alpha, dtype=float)[..., None]
    c, s = np.cos(phase), np.sin(phase)
    cos = np.empty(phase.shape[:-1] + (partner.size,))
    sin = np.empty_like(cos)
    cos[..., half] = c
    cos[..., partner[half]] = c
    sin[..., partner[half]] = -s     # an l = 0 column is its own partner:
    sin[..., half] = s               # its -0 is overwritten by sin 0 = 0
    return cos, sin


def _rotate(v, cos, sin, partner, axis=-1):
    """R(alpha) v along ``axis`` of v, the phases lying along that axis:
    (R v)_k = cos(l_k a) v_k - sin(l_k a) v_p(k).  R^T = R(-a) takes -sin."""
    out = np.take(v, partner, axis=axis) * -sin
    out += cos * v
    return out


def _congruence(H, cos, sin, partner):
    """R^T H R per row of phases: R^T on the rows of H, then on the columns."""
    HR = _rotate(H, cos[..., None, :], -sin[..., None, :], partner)
    return _rotate(HR, cos[..., None], -sin[..., None], partner, axis=-2)


# --------------------------------------------------------------------------
# precomputation and the interface problem

@dataclass
class SidePrecomp:
    """Angle-independent data of one side: the products of one solve with K
    of its moment and source blocks G and j, but neither K, its
    factorization, G nor j, which no angle stage reads."""

    X: np.ndarray          # K^-1 G
    y: np.ndarray          # K^-1 j
    H: np.ndarray          # G^T K^-1 G
    g: np.ndarray          # G^T K^-1 j


def precompute_side(system, G: np.ndarray, j: np.ndarray) -> SidePrecomp:
    """One side's products from ``system``, whose ``solve`` applies K^-1 to
    a block of columns: the factorization of its stiffness K
    (:func:`igamotor.linalg.factorize`) or the
    :class:`igamotor.linalg.BlochModes` of K, its moments G and its load j.
    One solve of the stacked columns [G j]; the solve returns Fortran
    order, so X, a column slice, keeps the layout of a solve of G alone,
    and every product with it its bits."""
    Xy = system.solve(np.column_stack([G, j]))
    X, y = Xy[:, :-1], Xy[:, -1]
    return SidePrecomp(X, y, G.T @ X, G.T @ y)


@dataclass
class CouplingPrecomp:
    """One rotor's coupled system: the machine's stator side ``plan``, the
    one source of the stator products, the orders, their partner columns
    and the period, and the rotor's products ``rt``."""

    plan: SweepPlan = field(repr=False)
    rt: SidePrecomp


@dataclass
class AngleSolution:
    """Interface coefficients at one angle, or one row per angle.  The
    interior fields u_st = y_st + X_st R lam and u_rt = y_rt + X_rt lam are
    formed on first access, so a caller that reads only u_rt never forms
    the stator field."""

    pre: CouplingPrecomp = field(repr=False)
    alpha: float | np.ndarray
    lam: np.ndarray

    @cached_property
    def u_st(self) -> np.ndarray:
        plan = self.pre.plan
        Rlam = _rotate(self.lam, *_phases(plan.orders, plan.partner, self.alpha), plan.partner)
        return plan.st.y + matvec(plan.st.X, Rlam)

    @cached_property
    def u_rt(self) -> np.ndarray:
        return self.pre.rt.y + matvec(self.pre.rt.X, self.lam)


# bytes of a block's stack of interface matrices, about four of which are
# live while it is formed: a sweep's working set stays in cache
_STACK_BYTES = 1 << 17

# two angles share an interface matrix when their difference is within this
# many radians of a whole number of stator periods: about a thousand ulps of
# an angle near 2 pi, while sweep angles 2 pi k / (p n) + offset one period
# apart miss it by about 1e-15
_PERIOD_TOL = 1e-12


def _block_classes(n_harmonics: int) -> int:
    """Classes per block C: 28 at 24 harmonics, 113 at 12."""
    return max(1, _STACK_BYTES // (8 * n_harmonics * n_harmonics))


def _angle_classes(angles: np.ndarray, period: float) -> np.ndarray:
    """Class number of each angle: sorted by residue modulo ``period`` (a
    residue within _PERIOD_TOL below the period counts from 0), angles whose
    residues lie within _PERIOD_TOL of their neighbour's share a class;
    classes are numbered in the order of their residues."""
    r = np.mod(angles, period)
    r[period - r <= _PERIOD_TOL] -= period
    order = np.argsort(r, kind="stable")
    rs = r[order]
    starts = np.zeros(angles.size, dtype=np.intp)     # 1 where a new class begins
    np.greater(rs[1:] - rs[:-1], _PERIOD_TOL, out=starts[1:])
    classes = np.empty_like(starts)
    classes[order] = starts.cumsum()
    return classes


def _class_blocks(classes: np.ndarray, per: int) -> list:
    """Angle indices (C, k) of each block: C classes of k angles each, a
    class's angles in the order given and its first one in column 0.
    Classes are grouped by size and taken ``per`` at a time, so every class
    is solved with its own k columns whatever the block size."""
    sizes = np.bincount(classes)
    members = np.argsort(classes, kind="stable")
    first = np.cumsum(sizes) - sizes
    blocks = []
    for k in sorted(set(sizes.tolist())):
        same, cols = first[sizes == k], np.arange(k)
        blocks += [members[same[start:start + per, None] + cols]
                   for start in range(0, same.size, per)]
    return blocks


class SweepPlan:
    """The stator side of the coupling, one per machine and shared by every
    rotor's precomputation: the stator's products ``st``, the harmonic
    orders (checked here) with the partner column of order -l of each, the
    stator's rotation period, R(period)^T H_st R(period) = H_st, so angles a
    whole number of periods apart share one interface matrix, and the
    machine's own ``angles``, a read-only view whose flag cannot be set
    back, so the plan never goes stale."""

    def __init__(self, st: SidePrecomp, orders, period: float, angles):
        own = np.array(angles, dtype=float)
        if own.ndim != 1:
            raise ValueError("a sweep plan takes a 1-D angle array")
        own.setflags(write=False)
        self.angles = own[:]
        self.st, self.orders, self.period = st, np.asarray(orders), float(period)
        self.partner = _partner_columns(self.orders)

    def stator_blocks(self, angles: np.ndarray, g_st=None):
        """The stator side of the interface solve over the 1-D ``angles``,
        one (rows, cos, sin, C, Rg) per block of classes: the rows' angle
        indices, class by class, their phases, C = R^T H_st R at each
        class's first angle, and R^T g_st per row (None without ``g_st``)."""
        per = _block_classes(self.orders.size)
        for block in _class_blocks(_angle_classes(angles, self.period), per):
            k = block.shape[1]
            rows = block.reshape(-1)                          # class by class
            cos, sin = _phases(self.orders, self.partner, angles[rows])
            C = _congruence(self.st.H, cos[::k], sin[::k], self.partner)
            Rg = None if g_st is None else _rotate(g_st, cos, -sin, self.partner)
            yield rows, cos, sin, C, Rg

    @cached_property
    def blocks(self) -> list:
        """:meth:`stator_blocks` over the plan's own angles and g_st, formed
        on first read and kept."""
        return list(self.stator_blocks(self.angles, self.st.g))


def _interface_blocks(pre: CouplingPrecomp, angles: np.ndarray, g_st, g_rt):
    """Solve the interface problem over the 1-D ``angles``, one K_int per
    class of angles a whole number of stator periods apart, formed at the
    class's first angle, yielding (rows, cos, sin, lam) per block of
    classes.  The stator side of each block is read from ``pre.plan.blocks``
    when ``angles`` is the plan's own array (an identity test, so any other
    sweep misses at no cost), and formed block by block otherwise.  The
    phases of the rows' angles serve K_int, the right-hand sides
    -(R^T g_st + g_rt), one column per angle (g_* shared or one row per
    angle), and the caller's products with lam.  Each class gets the
    operations of its own solve, so the rows do not depend on the blocking
    or on the plan, and angles in classes of their own keep the bits of
    their single-angle solves."""
    plan = pre.plan
    blocks = plan.blocks if angles is plan.angles else plan.stator_blocks(angles)
    for rows, cos, sin, C, Rg in blocks:
        K_int = pre.rt.H + C
        if Rg is None or g_st is not plan.st.g:
            gs = g_st[rows] if np.ndim(g_st) > 1 else g_st
            Rg = _rotate(gs, cos, -sin, plan.partner)
        gr = g_rt[rows] if np.ndim(g_rt) > 1 else g_rt
        f = -(Rg + gr).reshape(C.shape[0], -1, plan.orders.size)
        lam = spd_stack_solve(K_int, np.swapaxes(f, -1, -2))
        del K_int, f                 # not held while the next block is formed
        yield rows, cos, sin, np.swapaxes(lam, -1, -2).reshape(rows.size, -1)


def solve_interface(pre: CouplingPrecomp, alpha,
                    g_st: np.ndarray | None = None,
                    g_rt: np.ndarray | None = None) -> np.ndarray:
    """Interface coefficients at one angle, or one row per angle of a 1-D
    array, for the default or a caller supplied reduced right-hand side
    g_* = G_*^T K_*^-1 b_*, shared by all angles or given per angle (one
    row each)."""
    angles = np.asarray(alpha, dtype=float)
    flat = angles if angles.ndim == 1 else angles.reshape(-1)    # a plan's array stays itself
    orders = pre.plan.orders
    lambdas = np.empty((angles.size, orders.size))
    for rows, _, _, lam in _interface_blocks(pre, flat, pre.plan.st.g if g_st is None else g_st,
                                             pre.rt.g if g_rt is None else g_rt):
        lambdas[rows] = lam
    return lambdas.reshape(angles.shape + orders.shape)


def reconstruct_state(pre: CouplingPrecomp, alpha, lam: np.ndarray) -> AngleSolution:
    """Interior fields u_st = y_st + X_st R lam, u_rt = y_rt + X_rt lam from
    interface coefficients, at one angle or one row per angle; each field is
    formed when it is first read."""
    return AngleSolution(pre, alpha, lam)


def solve_at_angle(pre: CouplingPrecomp, alpha: float) -> AngleSolution:
    """Solve the interface problem at one angle and reconstruct both fields."""
    return reconstruct_state(pre, alpha, solve_interface(pre, alpha))


def sweep_angles(pole_pairs: int, n_angles: int) -> np.ndarray:
    """Uniform mechanical angles covering one electrical period."""
    return 2.0 * np.pi * np.arange(n_angles) / (pole_pairs * n_angles)


def rotation_sweep(pre: CouplingPrecomp, angles: np.ndarray,
                   winding_vector: np.ndarray, flux_scale: float) -> SweepResult:
    """Solve the interface problem at every angle of a 1-D array (one
    electrical period), block by block, and take the flux linkage
    flux_scale * chi^T u_st of the winding vector chi at each.

    Only the flux linkage samples and the interface coefficients are kept;
    interior fields are reconstructed on demand from the stored
    coefficients (reconstruct_state).
    """
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 1:
        raise ValueError("a rotation sweep takes a 1-D angle array")
    plan = pre.plan
    lambdas = np.empty(angles.shape + plan.orders.shape)
    psi = np.zeros(angles.size)
    chi_X = winding_vector @ plan.st.X    # row vector of length n_harmonics
    for rows, cos, sin, lam in _interface_blocks(pre, angles, plan.st.g, pre.rt.g):
        lambdas[rows] = lam
        psi[rows] = matvec(chi_X, _rotate(lam, cos, sin, plan.partner))
    psi = flux_scale * (float(winding_vector @ plan.st.y) + psi)
    return SweepResult(angles=angles, psi=psi, lambdas=lambdas)
