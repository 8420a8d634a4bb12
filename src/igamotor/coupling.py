"""Harmonic stator-rotor coupling: the coupled saddle-point system, its
angle-independent precomputation, the small interface problem solved per
rotor angle, field reconstruction, and rotation sweeps.

The coupled system in (u_st, u_rt, lambda) enforces continuity of the
vector potential across the air-gap circle weakly against the harmonics
e^{-i l theta} carried in the rotor frame; rotation by alpha enters only
through the diagonal phase matrix R(alpha).  With the trace moment matrices
G_st (negative sign convention) and G_rt, the system reads

    [ K_st        0      -G_st R(a) ] [u_st]   [j_st]
    [ 0           K_rt   -G_rt      ] [u_rt] = [j_rt]
    [ -(G_st R)^H  -G_rt^H   0      ] [lam ]   [ 0  ]

which is Hermitian.  Eliminating the interior unknowns gives the interface
problem

    K_int(a) lam = f_int(a),
    K_int = R^H G_st^H K_st^-1 G_st R + G_rt^H K_rt^-1 G_rt,
    f_int = -R^H G_st^H K_st^-1 j_st - G_rt^H K_rt^-1 j_rt,

and the interior fields are reconstructed as u_st = y_st + X_st R lam,
u_rt = y_rt + X_rt lam with X_* = K_*^-1 G_*, y_* = K_*^-1 j_*.  Only the
n_harmonics-dimensional complex system depends on the angle; agreement with
the directly assembled full system is the primary correctness oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import StabilityError
from .fourier import SweepResult
from .linalg import SpdFactorization, complex_lu_solve, factorize, real_lu

REALNESS_TOL = 1e-9


def harmonic_orders(n_harmonics: int, multiples_of: int = 1) -> np.ndarray:
    """Default harmonic order set, closed under negation so real sources give
    real fields: odd n takes all integers in [-(n-1)/2, (n-1)/2]; even n takes
    +-{1..n/2} (the zero-order moment of the interface field vanishes for
    balanced sources by Ampere's law).  Optionally scaled to multiples of the
    pole-pair count."""
    half = n_harmonics // 2
    if n_harmonics % 2:
        base = np.arange(-half, half + 1)
    else:
        base = np.concatenate([np.arange(-half, 0), np.arange(1, half + 1)])
    return base * int(multiples_of)


def rotation_phases(orders: np.ndarray, alpha: float) -> np.ndarray:
    return np.exp(1j * np.asarray(orders) * alpha)


def rotation_matrix(orders, alpha: float) -> np.ndarray:
    """Diagonal rotation matrix with entries e^{i l_k alpha}."""
    return np.diag(rotation_phases(np.asarray(orders), alpha))


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
    matrix: sp.spmatrix        # real-split square system actually solved
    block_residuals: np.ndarray
    im_rel: float


def build_full_matrix(blocks: CouplingBlocks, alpha: float) -> sp.csr_matrix:
    """Complex block matrix of the coupled system at one angle."""
    r = rotation_phases(blocks.orders, alpha)
    Gst_r = blocks.G_st * r[None, :]
    M = sp.bmat([
        [blocks.K_st.astype(complex), None, sp.csr_matrix(-Gst_r)],
        [None, blocks.K_rt.astype(complex), sp.csr_matrix(-blocks.G_rt)],
        [sp.csr_matrix(-Gst_r.conj().T), sp.csr_matrix(-blocks.G_rt.conj().T), None],
    ], format="csr")
    return M


def real_split(M: sp.spmatrix) -> sp.csr_matrix:
    """[[Re, -Im], [Im, Re]] real form of a complex sparse matrix."""
    Mr, Mi = M.real.tocsr(), M.imag.tocsr()
    return sp.bmat([[Mr, -Mi], [Mi, Mr]], format="csr")


def assemble_full_saddle(blocks: CouplingBlocks, alpha: float) -> FullSaddleSolution:
    """Assemble and solve the full coupled system at one angle.

    The complex system is solved through its real split; the result is the
    oracle against which the interface elimination is validated.
    """
    n_st = blocks.j_st.size
    n_rt = blocks.j_rt.size
    n_h = blocks.orders.size
    M = build_full_matrix(blocks, alpha)
    S = real_split(M)
    b = np.concatenate([blocks.j_st, blocks.j_rt, np.zeros(n_h)])
    rhs = np.concatenate([b, np.zeros_like(b)])
    try:
        z = real_lu(S).solve(rhs)
    except Exception as exc:
        raise StabilityError("full saddle system singular (harmonic count too rich "
                             "for the trace spaces?): %s" % exc) from exc
    zc = z[:b.size] + 1j * z[b.size:]
    resid = M @ zc - b
    scale = max(float(np.linalg.norm(b)), 1e-300)
    cuts = np.cumsum([0, n_st, n_rt, n_h])
    block_res = np.array([np.linalg.norm(resid[cuts[i]:cuts[i + 1]]) / scale
                          for i in range(3)])
    u_st_c = zc[:n_st]
    u_rt_c = zc[n_st:n_st + n_rt]
    lam = zc[n_st + n_rt:]
    return FullSaddleSolution(alpha, u_st_c.real.copy(), u_rt_c.real.copy(), lam,
                              S, block_res, _realness(u_st_c, u_rt_c))


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
    H: np.ndarray          # G^H K^-1 G
    g: np.ndarray          # G^H K^-1 j


def precompute_side(K: sp.spmatrix, G: np.ndarray, j: np.ndarray) -> SidePrecomp:
    factor = factorize(K)
    X = factor.solve(G)
    y = factor.solve(j)
    return SidePrecomp(K, factor, G, j, X, y, G.conj().T @ X, G.conj().T @ y)


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
            H2 = side.G.conj().T @ X2
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
    """One rotor position: interface coefficients and reconstructed fields."""

    alpha: float
    lam: np.ndarray
    u_st: np.ndarray
    u_rt: np.ndarray
    im_rel: float


def solve_interface(pre: CouplingPrecomp, alpha: float,
                    g_st: np.ndarray | None = None,
                    g_rt: np.ndarray | None = None) -> np.ndarray:
    """Interface coefficients at one angle for the default or a caller
    supplied reduced right-hand side (g_* = G_*^H K_*^-1 b_*)."""
    r = rotation_phases(pre.orders, alpha)
    K_int = pre.rt.H + np.conj(r)[:, None] * pre.st.H * r[None, :]
    gs = pre.st.g if g_st is None else g_st
    gr = pre.rt.g if g_rt is None else g_rt
    f_int = -(np.conj(r) * gs + gr)
    return complex_lu_solve(K_int, f_int)


def _realness(u_st_c: np.ndarray, u_rt_c: np.ndarray) -> float:
    scale = max(float(np.abs(u_st_c.real).max(initial=0.0)),
                float(np.abs(u_rt_c.real).max(initial=0.0)), 1e-300)
    return max(float(np.abs(u_st_c.imag).max(initial=0.0)),
               float(np.abs(u_rt_c.imag).max(initial=0.0))) / scale


def _fields(pre: CouplingPrecomp, alpha: float, lam: np.ndarray,
            y_st: np.ndarray | None, y_rt: np.ndarray | None,
            check_real: bool) -> AngleSolution:
    """Interior fields u_* = y_* + X_* R lam from interface coefficients."""
    r = rotation_phases(pre.orders, alpha)
    ys = pre.st.y if y_st is None else y_st
    yr = pre.rt.y if y_rt is None else y_rt
    u_st_c = ys + pre.st.X @ (r * lam)
    u_rt_c = yr + pre.rt.X @ lam
    im_rel = _realness(u_st_c, u_rt_c)
    if check_real and im_rel > REALNESS_TOL:
        raise StabilityError("reconstructed fields have imaginary residue %.3e" % im_rel)
    return AngleSolution(alpha, lam, u_st_c.real.copy(), u_rt_c.real.copy(), im_rel)


def solve_at_angle(pre: CouplingPrecomp, alpha: float,
                   y_st: np.ndarray | None = None,
                   y_rt: np.ndarray | None = None,
                   g_st: np.ndarray | None = None,
                   g_rt: np.ndarray | None = None,
                   check_real: bool = True) -> AngleSolution:
    """Solve the interface problem at one angle and reconstruct both fields.

    Passing y_*/g_* solves the same coupled operator for a different
    right-hand side b_* (y_* = K_*^-1 b_*, g_* = G_*^H y_*); the adjoint
    sweep uses this with the THD sensitivity load.
    """
    lam = solve_interface(pre, alpha, g_st, g_rt)
    return _fields(pre, alpha, lam, y_st, y_rt, check_real)


def sweep_angles(pole_pairs: int, n_angles: int) -> np.ndarray:
    """Uniform mechanical angles covering one electrical period."""
    return 2.0 * np.pi * np.arange(n_angles) / (pole_pairs * n_angles)


def rotation_sweep(pre: CouplingPrecomp, angles: np.ndarray,
                   winding_vector: np.ndarray | None = None,
                   flux_scale: float = 1.0) -> SweepResult:
    """Solve the interface problem at every angle of one electrical period.

    Only the flux linkage sample and the interface coefficients are kept per
    angle; interior fields are reconstructed on demand from the stored
    coefficients (reconstruct_state).
    """
    angles = np.asarray(angles, dtype=float)
    n = angles.size
    lambdas = np.zeros((n, pre.orders.size), dtype=complex)
    psi = np.zeros(n)
    psi_im = np.zeros(n)

    chi_y = chi_X = None
    if winding_vector is not None:
        chi_y = float(winding_vector @ pre.st.y)
        chi_X = winding_vector @ pre.st.X    # row vector of length n_harmonics

    for j in range(n):
        lam = solve_interface(pre, angles[j])
        lambdas[j] = lam
        if winding_vector is not None:
            r = rotation_phases(pre.orders, angles[j])
            val = chi_y + chi_X @ (r * lam)
            psi[j] = flux_scale * val.real
            psi_im[j] = flux_scale * val.imag
    if winding_vector is not None and np.abs(psi).max() > 0.0:
        if np.abs(psi_im).max() / np.abs(psi).max() > REALNESS_TOL:
            raise StabilityError("flux linkage has imaginary residue %.3e"
                                 % (np.abs(psi_im).max() / np.abs(psi).max()))
    return SweepResult(angles=angles, psi=psi, lambdas=lambdas)


def full_residual(pre: CouplingPrecomp, sol: AngleSolution) -> float:
    """Relative residual of an angle solution in the full coupled system
    (checks the elimination algebra without assembling the block matrix)."""
    r = rotation_phases(pre.orders, sol.alpha)
    res_st = pre.st.K @ sol.u_st - (pre.st.G * r[None, :]) @ sol.lam - pre.st.j
    res_rt = pre.rt.K @ sol.u_rt - pre.rt.G @ sol.lam - pre.rt.j
    res_if = -(np.conj(r)[:, None] * pre.st.G.conj().T) @ sol.u_st \
        - pre.rt.G.conj().T @ sol.u_rt
    num = np.sqrt(np.linalg.norm(res_st) ** 2 + np.linalg.norm(res_rt) ** 2
                  + np.linalg.norm(res_if) ** 2)
    scale = max(np.linalg.norm(pre.st.j), np.linalg.norm(pre.rt.j),
                float(np.abs(pre.st.K.data).max()) * np.linalg.norm(sol.u_st),
                1e-300)
    return float(num / scale)


def reconstruct_state(pre: CouplingPrecomp, alpha: float, lam: np.ndarray,
                      check_real: bool = True) -> AngleSolution:
    """Interior fields from interface coefficients stored by a sweep."""
    return _fields(pre, alpha, lam, None, None, check_real)
