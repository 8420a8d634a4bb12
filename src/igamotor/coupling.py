"""Harmonic stator-rotor coupling: the coupled saddle-point system, its
angle-independent precomputation, the small interface problem at every
rotor angle, field reconstruction, and rotation sweeps.

The coupled system in (u_st, u_rt, lambda) enforces continuity of the
vector potential across the air-gap circle weakly against real harmonics
carried in the rotor frame: a column of order l >= 0 tests against
cos(l theta), a column of order l < 0 against sin(|l| theta).  Rotation by
alpha enters only through the real orthogonal matrix R(alpha), one 2x2
rotation block per order pair.  With the trace moment matrices G_st
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
X_* = K_*^-1 G_*, y_* = K_*^-1 j_*.  Only the n_harmonics-dimensional system
depends on the angle, so the angle is an array axis: given an array of
angles, rotation_matrix, solve_interface and reconstruct_state return one
row per angle.  Agreement with the directly assembled full system is the
primary correctness oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import StabilityError
from .fourier import SweepResult
from .linalg import SpdFactorization, factorize, matvec, real_lu, spd_stack_solve


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


def rotation_matrix(orders, alpha) -> np.ndarray:
    """Real orthogonal R(alpha) taking rotor-frame harmonic moments to the
    stator frame: (n_h, n_h) for one angle, (n, n_h, n_h) for n angles.

    For l > 0 with cos column c and sin column s, R[c,c] = R[s,s] = cos l a
    and R[s,c] = -R[c,s] = sin l a; an l = 0 column is left fixed.
    """
    column = {l: k for k, l in enumerate(np.asarray(orders, dtype=int).tolist())}
    if len(column) != len(orders) or any(-l not in column for l in column):
        raise ValueError("harmonic orders must be distinct and closed under negation")
    orders = np.array(list(column))
    partner = [column[-l] for l in column]
    phase = orders * np.asarray(alpha, dtype=float)[..., None]
    cols = np.arange(orders.size)
    R = np.zeros(phase.shape + (orders.size,))
    R[..., partner, cols] = np.sin(phase)   # an l = 0 column is its own partner:
    R[..., cols, cols] = np.cos(phase)      # its 0 is overwritten by cos 0 = 1
    return R


@dataclass
class CouplingBlocks:
    """Assembled blocks of the coupled system for one machine state."""

    K_st: sp.spmatrix
    K_rt: sp.spmatrix
    G_st: np.ndarray
    G_rt: np.ndarray
    j_st: np.ndarray
    j_rt: np.ndarray
    orders: np.ndarray


@dataclass
class FullSaddleSolution:
    """Direct solution of the coupled block system (verification oracle)."""

    alpha: float
    u_st: np.ndarray
    u_rt: np.ndarray
    lam: np.ndarray
    matrix: sp.spmatrix
    block_residuals: np.ndarray


def build_full_matrix(blocks: CouplingBlocks, alpha: float) -> sp.csr_matrix:
    """Symmetric block matrix of the coupled system at one angle."""
    Gst_r = blocks.G_st @ rotation_matrix(blocks.orders, alpha)
    return sp.bmat([
        [blocks.K_st, None, sp.csr_matrix(-Gst_r)],
        [None, blocks.K_rt, sp.csr_matrix(-blocks.G_rt)],
        [sp.csr_matrix(-Gst_r.T), sp.csr_matrix(-blocks.G_rt.T), None],
    ], format="csr")


def assemble_full_saddle(blocks: CouplingBlocks, alpha: float) -> FullSaddleSolution:
    """Assemble and solve the full coupled system at one angle directly; the
    result is the oracle against which the interface elimination is
    validated."""
    n_st = blocks.j_st.size
    n_rt = blocks.j_rt.size
    M = build_full_matrix(blocks, alpha)
    b = np.concatenate([blocks.j_st, blocks.j_rt, np.zeros(blocks.orders.size)])
    try:
        z = real_lu(M).solve(b)
    except Exception as exc:
        raise StabilityError("full saddle system singular (harmonic count too rich "
                             "for the trace spaces?): %s" % exc) from exc
    resid = M @ z - b
    scale = max(float(np.linalg.norm(b)), 1e-300)
    cuts = [n_st, n_st + n_rt]
    block_res = np.array([np.linalg.norm(part) / scale for part in np.split(resid, cuts)])
    u_st, u_rt, lam = np.split(z, cuts)
    return FullSaddleSolution(alpha, u_st, u_rt, lam, M, block_res)


# --------------------------------------------------------------------------
# precomputation and the interface problem

@dataclass
class SidePrecomp:
    """Angle-independent data of one side."""

    K: sp.spmatrix
    factor: SpdFactorization
    G: np.ndarray
    j: np.ndarray
    X: np.ndarray          # K^-1 G
    y: np.ndarray          # K^-1 j
    H: np.ndarray          # G^T K^-1 G
    g: np.ndarray          # G^T K^-1 j


def precompute_side(K: sp.spmatrix, G: np.ndarray, j: np.ndarray) -> SidePrecomp:
    factor = factorize(K)
    X = factor.solve(G)
    y = factor.solve(j)
    return SidePrecomp(K, factor, G, j, X, y, G.T @ X, G.T @ y)


@dataclass
class CouplingPrecomp:
    """Factorized blocks and products reused by every angle solve."""

    st: SidePrecomp
    rt: SidePrecomp
    orders: np.ndarray

    def verify(self, tol: float = 1e-12) -> float:
        """Max relative deviation of stored products from recomputation."""
        worst = 0.0
        for side in (self.st, self.rt):
            X2 = side.factor.solve(side.G)
            H2 = side.G.T @ X2
            scale = max(float(np.abs(side.H).max()), 1e-300)
            worst = max(worst, float(np.abs(H2 - side.H).max()) / scale)
            yscale = max(float(np.abs(side.y).max()), 1e-300)
            worst = max(worst, float(np.abs(side.factor.solve(side.j) - side.y).max()) / yscale)
        if worst > tol:
            raise StabilityError("precomputed products drift by %.3e" % worst)
        return worst


def precompute_from_blocks(blocks: CouplingBlocks) -> CouplingPrecomp:
    """Factor both stiffness blocks and precompute every angle-independent
    product of the interface elimination."""
    st = precompute_side(blocks.K_st, blocks.G_st, np.asarray(blocks.j_st, dtype=float))
    rt = precompute_side(blocks.K_rt, blocks.G_rt, np.asarray(blocks.j_rt, dtype=float))
    return CouplingPrecomp(st, rt, np.asarray(blocks.orders, dtype=int))


@dataclass
class AngleSolution:
    """Interface coefficients and fields at one angle, or one row per angle."""

    alpha: float | np.ndarray
    lam: np.ndarray
    u_st: np.ndarray
    u_rt: np.ndarray


def solve_interface(pre: CouplingPrecomp, alpha,
                    g_st: np.ndarray | None = None,
                    g_rt: np.ndarray | None = None) -> np.ndarray:
    """Interface coefficients at one angle (or one row per angle) for the
    default or a caller supplied reduced right-hand side g_* = G_*^T K_*^-1 b_*."""
    R = rotation_matrix(pre.orders, alpha)
    Rt = np.swapaxes(R, -1, -2)
    K_int = pre.rt.H + Rt @ pre.st.H @ R
    gs = pre.st.g if g_st is None else g_st
    gr = pre.rt.g if g_rt is None else g_rt
    return spd_stack_solve(K_int, -(matvec(Rt, gs) + gr))


def reconstruct_state(pre: CouplingPrecomp, alpha, lam: np.ndarray) -> AngleSolution:
    """Interior fields u_st = y_st + X_st R lam, u_rt = y_rt + X_rt lam from
    interface coefficients, at one angle or one row per angle."""
    R = rotation_matrix(pre.orders, alpha)
    return AngleSolution(alpha, lam, pre.st.y + matvec(pre.st.X, matvec(R, lam)),
                         pre.rt.y + matvec(pre.rt.X, lam))


def solve_at_angle(pre: CouplingPrecomp, alpha: float) -> AngleSolution:
    """Solve the interface problem at one angle and reconstruct both fields."""
    return reconstruct_state(pre, alpha, solve_interface(pre, alpha))


def sweep_angles(pole_pairs: int, n_angles: int) -> np.ndarray:
    """Uniform mechanical angles covering one electrical period."""
    return 2.0 * np.pi * np.arange(n_angles) / (pole_pairs * n_angles)


def rotation_sweep(pre: CouplingPrecomp, angles: np.ndarray,
                   winding_vector: np.ndarray | None = None,
                   flux_scale: float = 1.0) -> SweepResult:
    """Solve the interface problem at every angle of one electrical period.

    Only the flux linkage samples and the interface coefficients are kept;
    interior fields are reconstructed on demand from the stored
    coefficients (reconstruct_state).
    """
    angles = np.asarray(angles, dtype=float)
    lambdas = solve_interface(pre, angles)
    psi = np.zeros(angles.size)
    if winding_vector is not None:
        chi_X = winding_vector @ pre.st.X    # row vector of length n_harmonics
        rotated = matvec(rotation_matrix(pre.orders, angles), lambdas)
        psi = flux_scale * (float(winding_vector @ pre.st.y) + matvec(chi_X, rotated))
    return SweepResult(angles=angles, psi=psi, lambdas=lambdas)


def full_residual(pre: CouplingPrecomp, sol: AngleSolution) -> float:
    """Relative residual of an angle solution in the full coupled system
    (checks the elimination algebra without assembling the block matrix)."""
    Gst_r = pre.st.G @ rotation_matrix(pre.orders, sol.alpha)
    res_st = pre.st.K @ sol.u_st - Gst_r @ sol.lam - pre.st.j
    res_rt = pre.rt.K @ sol.u_rt - pre.rt.G @ sol.lam - pre.rt.j
    res_if = -Gst_r.T @ sol.u_st - pre.rt.G.T @ sol.u_rt
    num = np.sqrt(np.linalg.norm(res_st) ** 2 + np.linalg.norm(res_rt) ** 2
                  + np.linalg.norm(res_if) ** 2)
    scale = max(np.linalg.norm(pre.st.j), np.linalg.norm(pre.rt.j),
                float(np.abs(pre.st.K.data).max()) * np.linalg.norm(sol.u_st),
                1e-300)
    return float(num / scale)
