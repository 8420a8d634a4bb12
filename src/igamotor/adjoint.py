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

    nu (div W I - DW - DW^T) grad u . grad p        over deforming patches
    (div W I - DW^T) grad p . (-M2, M1)             over magnet patches,

the latter written as printed even though it vanishes identically under the
default mask (deformation fields are zero on magnets).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import build_patch_tables, magnetization_perp
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
                            reluctivity_by_tag,
                            cfg: MachineConfig | None = None,
                            n_gauss: int | None = None) -> np.ndarray:
    """Gradient entries g_m = dJ(direction W_m) over the free design dofs.

    u_rt_list/p_rt_list hold the per-angle forward and adjoint rotor
    coefficient vectors (free dofs).  Integrals are restricted to patches
    where the design basis has support; entries for dofs without support in
    deforming patches are exactly zero.  When cfg is given the magnet-region
    term is integrated as well (it contributes only for masks that move
    magnet control points).
    """
    lookup = reluctivity_by_tag.__getitem__ if isinstance(reluctivity_by_tag, dict) \
        else reluctivity_by_tag
    U = dofmap.expand(np.transpose(u_rt_list))     # (n_global, NL)
    P = dofmap.expand(np.transpose(p_rt_list))
    g = np.zeros(design.n_dofs)
    n_pts = design.n_points
    magnet_pids = [pid for pid, tag in enumerate(model.tags)
                   if tag.kind == "magnet" and cfg is not None
                   and design.mask[dofmap.patch_maps[pid].reshape(-1)].any()]
    for pid in list(design.patch_ids) + magnet_pids:
        tag = model.tags[pid]
        tab = build_patch_tables(model.patches[pid], n_gauss)
        gd = dofmap.patch_maps[pid].reshape(-1)[tab.dofs]          # (E, L)
        di = design.index[gd]
        if not (di >= 0).any():
            continue
        gu = np.einsum("eqlc,eln->eqcn", tab.grad, U[gd])
        gp = np.einsum("eqlc,eln->eqcn", tab.grad, P[gd])
        T = np.einsum("eqcn,eqdn->eqcd", gu, gp)                    # sum over angles
        trT = T[..., 0, 0] + T[..., 1, 1]
        Tsym = T + T.swapaxes(-1, -2)
        nu_w = lookup(tag) * tab.wdet
        contrib = np.zeros(gd.shape + (2,))                         # (E, L, 2)
        for c in (0, 1):
            contrib[..., c] = np.einsum("eql,eq->el", tab.grad[..., c], nu_w * trT) \
                - np.einsum("eqld,eqd->el", tab.grad, nu_w[..., None] * Tsym[..., :, c])
        if tag.kind == "magnet":
            mperp = magnetization_perp(tag, cfg, tab.xy)            # (E, Q, 2)
            gp_sum = gp.sum(axis=3)                                 # (E, Q, 2)
            dot_pm = np.einsum("eqc,eqc->eq", gp_sum, mperp)
            for c in (0, 1):
                contrib[..., c] += np.einsum("eql,eq->el", tab.grad[..., c],
                                             tab.wdet * dot_pm) \
                    - np.einsum("eqld,eqd->el", tab.grad,
                                (tab.wdet * gp_sum[..., c])[..., None] * mperp)
        valid = di >= 0
        np.add.at(g, di[valid], contrib[..., 0][valid])
        np.add.at(g, n_pts + di[valid], contrib[..., 1][valid])
    return g
