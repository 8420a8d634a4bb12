"""Adjoint states of the THD objective and assembly of the shape gradient.

The objective THD(Psi_1 .. Psi_N) sees each rotor position only through the
flux linkage sample, so the adjoint load at angle i is the winding vector
scaled by the THD sample sensitivity.  The coupled operator is symmetric,
so the adjoint solves reuse the forward interface elimination unchanged:
one extra stator solve for the winding direction and one interface solve
over the array of angles.  Only the rotor
block of the adjoint state enters the gradient, so only it is reconstructed.

The gradient over design directions W (geometry-space basis fields, two
components per free control point) integrates, per rotor angle,

    nu (div W I - DW - DW^T) grad u . grad p        over deforming patches.

The design space holds no control point of a magnet patch, so W vanishes
on the magnets and the magnetization source contributes no shape term.

The sum over angles is taken first, per element, as C_e = U_e P_e^T over
the element's forward and adjoint coefficients; T = A^T C_e A at each Gauss
point (A the local basis gradients) is then the angle-summed grad u grad p^T,
and the element contribution is A (nu w (tr T I - T - T^T)), all as batched
matrix products.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import build_patch_tables
from .coupling import CouplingPrecomp, solve_interface
from .design import DesignSpace
from .errors import DegenerateSignalError
from .fourier import DerivativeDftMatrices
from .geometry import DofMap, MachineConfig, MultipatchModel
from .linalg import matvec


def thd_sample_sensitivities(emf_a: np.ndarray, emf_b: np.ndarray, index_set,
                             mats: DerivativeDftMatrices) -> np.ndarray:
    """d THD / d Psi_i for every sample i, by the quotient rule through the
    sample-to-spectrum matrices."""
    idx = np.array([k for k in index_set if k != 1], dtype=int)
    if 1 not in tuple(index_set):
        raise ValueError("index set must contain the fundamental")
    D = emf_a[1] ** 2 + emf_b[1] ** 2
    if D <= 0.0:
        raise DegenerateSignalError("zero fundamental: THD not differentiable")
    N = float((emf_a[idx] ** 2 + emf_b[idx] ** 2).sum()) if idx.size else 0.0
    rest = emf_a[idx] @ mats.M_a[idx] + emf_b[idx] @ mats.M_b[idx]
    fund = emf_a[1] * mats.M_a[1] + emf_b[1] * mats.M_b[1]
    out = -np.sqrt(N) / D ** 1.5 * fund
    if N > 0.0:
        out += rest / np.sqrt(N * D)
    return out


@dataclass
class AdjointSet:
    """Adjoint interface coefficients and rotor fields, one row per angle."""

    lambdas: np.ndarray
    rotor: np.ndarray

    def rotor_fields(self):
        return self.rotor


def solve_adjoints(pre: CouplingPrecomp, winding_vector: np.ndarray,
                   sensitivities: np.ndarray, angles: np.ndarray,
                   flux_scale: float) -> AdjointSet:
    """Solve the coupled system for the adjoint load -s_i * flux_scale * chi
    (stator block) at every rotor angle.

    The operator is symmetric, so the forward elimination applies verbatim;
    only the reduced right-hand side changes, and it is a per-angle multiple
    of one precomputable stator solve.  The rotor block carries no load, so
    its adjoint field is X_rt lam.
    """
    coef = -np.asarray(sensitivities, dtype=float) * flux_scale
    y_chi = pre.st.factor.solve(np.asarray(winding_vector, dtype=float))
    lambdas = solve_interface(pre, angles, g_st=coef[:, None] * (pre.st.G.T @ y_chi),
                              g_rt=0)
    return AdjointSet(lambdas, matvec(pre.rt.X, lambdas))


def assemble_shape_gradient(model: MultipatchModel, dofmap: DofMap,
                            design: DesignSpace,
                            u_rt_list, p_rt_list,
                            reluctivity_by_tag: dict,
                            cfg: MachineConfig | None = None) -> np.ndarray:
    """Gradient entries g_m = dJ(direction W_m) over the free design dofs.

    u_rt_list/p_rt_list hold the per-angle forward and adjoint rotor
    coefficient vectors (free dofs).  Integrals are restricted to patches
    where the design basis has support; entries for dofs without support in
    deforming patches are exactly zero.  ``cfg`` is ignored; it stays for
    callers that pass it positionally.
    """
    U = dofmap.expand(np.transpose(u_rt_list))     # (n_global, NL)
    P = dofmap.expand(np.transpose(p_rt_list))
    n_pts = design.n_points
    targets, contribs = [], []
    for pid in design.patch_ids:
        tab = build_patch_tables(model.patches[pid])
        gd = dofmap.patch_maps[pid].reshape(-1)[tab.dofs]          # (E, L)
        di = design.index[gd]
        valid = di >= 0
        if not valid.any():
            continue
        n_el, n_q, n_loc = tab.val.shape
        # A[e] = [grad at point 0 | grad at point 1 | ...]: (L, 2Q)
        A = tab.grad.transpose(0, 2, 1, 3).reshape(n_el, n_loc, 2 * n_q)
        C = U[gd] @ P[gd].transpose(0, 2, 1)                        # (E, L, L), angles summed
        CA = (C @ A).reshape(n_el, n_loc, n_q, 2).transpose(0, 2, 1, 3)
        T = tab.grad.transpose(0, 1, 3, 2) @ CA                     # (E, Q, 2, 2)
        trT = T[..., 0, 0] + T[..., 1, 1]
        M = -(T + T.transpose(0, 1, 3, 2))
        M[..., 0, 0] += trT
        M[..., 1, 1] += trT
        nu = reluctivity_by_tag[model.tags[pid]]
        M *= (nu * tab.wdet)[..., None, None]                       # nu w (tr T I - T - T^T)
        contrib = A @ M.reshape(n_el, 2 * n_q, 2)                   # (E, L, 2)
        targets.append(di[valid])
        contribs.append(contrib[valid])
    if not targets:
        return np.zeros(design.n_dofs)
    targets = np.concatenate(targets)
    contribs = np.concatenate(contribs)
    return np.concatenate([np.bincount(targets, weights=contribs[:, c], minlength=n_pts)
                           for c in (0, 1)])
