"""Adjoint states of the THD objective and assembly of the shape gradient.

The objective THD(Psi_1 .. Psi_N) sees each rotor position only through the
flux linkage sample, so the adjoint load at angle i is the winding vector
scaled by the THD sample sensitivity.  The sensitivities are the THD's
derivatives with respect to the EMF coefficients, carried back to the
samples by the transpose of the spectrum map: one inverse real FFT, with
no sample-to-spectrum matrix formed.  The coupled operator is symmetric,
so the adjoint solves reuse the forward interface elimination unchanged,
and the reduced adjoint load G_st^T K_st^-1 chi = X_st^T chi is the flux
row the forward sweep already forms: the adjoint is one interface solve
over the array of angles, with no stator solve.  Only the rotor block of
the adjoint state enters the gradient, and it enters through its interface
coefficients alone.

The gradient over design directions W (geometry-space basis fields, two
components per free control point) integrates, per rotor angle,

    nu (div W I - DW - DW^T) grad u . grad p        over deforming patches.

The design space holds no control point of a magnet patch, so W vanishes
on the magnets and the magnetization source contributes no shape term.

Each side's interior field is u = y + X lam (the interface elimination), so
every adjoint rotor field X_rt mu_a lies in the n_h columns of X_rt.  The
sum over angles is therefore taken in that basis: Z = U^T Lam (n_free x
n_h) from the forward free-dof rows U and the adjoint coefficients Lam, one
matrix product, and per element C_e = Z_e X_e^T, a rank-n_h product of the
element's rows of Z and X_rt.  No adjoint field and no per-element stack of
angles is formed.  T = A^T C_e A at each Gauss point (A the local basis
gradients) is then the angle-summed grad u grad p^T, and the element
contribution is A (nu w (tr T I - T - T^T)), all as batched matrix
products.  The gradients and weights are the rotor geometry that the dof
map's assembly plan keeps for the stiffness and the metric.  On a closed
model C_e takes each coefficient with its field sign, and a closure copy's
contribution is turned back to its global point's frame, since the copy
moves by the point's turned displacement.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import _element_signs, _scatter_add
from .coupling import CouplingPrecomp, solve_interface
from .design import DesignSpace
from .fourier import DerivativeDft, _thd_terms
from .geometry import DofMap, MachineConfig, MultipatchModel


def thd_sample_sensitivities(emf_a: np.ndarray, emf_b: np.ndarray, index_set,
                             dft: DerivativeDft) -> np.ndarray:
    """d THD / d Psi_i for every sample i: the quotient rule's derivatives
    of sqrt(N / D) with respect to the EMF coefficients, carried back to
    the samples by one transposed derivative DFT."""
    idx, N, D = _thd_terms(emf_a, emf_b, index_set)
    spectrum = np.stack([emf_a, emf_b])
    c = np.zeros_like(spectrum)                  # d THD / d(A_k, B_k)
    if N > 0.0:
        c[:, idx] = spectrum[:, idx] / np.sqrt(N * D)
    c[:, 1] = -np.sqrt(N) / D ** 1.5 * spectrum[:, 1]
    return dft.transpose(*c)


@dataclass
class AdjointSet:
    """Adjoint interface coefficients Lam (n_angles x n_h), one row per
    angle, and the rotor's X_rt (n_free x n_h).  The adjoint rotor field at
    angle a is X_rt mu_a; :func:`assemble_shape_gradient` takes the set and
    sums its angles in the columns of X_rt, so no field is formed."""

    lambdas: np.ndarray
    X_rt: np.ndarray

    def rotor_fields(self):
        """The set itself, under the name ``perfbench/workloads.py`` calls
        for the gradient's adjoint argument; ROADMAP item 11 removes it."""
        return self


def solve_adjoints(pre: CouplingPrecomp, winding_vector: np.ndarray,
                   sensitivities: np.ndarray, angles: np.ndarray,
                   flux_scale: float) -> AdjointSet:
    """Solve the coupled system for the adjoint load -s_i * flux_scale * chi
    (stator block) at every rotor angle.

    The operator is symmetric, so the forward elimination applies verbatim;
    only the reduced right-hand side changes, and it is a per-angle multiple
    of G_st^T K_st^-1 chi = X_st^T chi (K_st is symmetric): the row chi^T X_st
    that maps the interface coefficients to the flux linkage in
    :func:`igamotor.coupling.rotation_sweep`, so no stator solve is needed
    and the adjoint is the exact transpose of the computed flux map.  The
    rotor block carries no load, so its adjoint field is X_rt lam.
    """
    coef = -np.asarray(sensitivities, dtype=float) * flux_scale
    chi_X = np.asarray(winding_vector, dtype=float) @ pre.plan.st.X
    lambdas = solve_interface(pre, angles, g_st=coef[:, None] * chi_X, g_rt=0)
    return AdjointSet(lambdas, pre.rt.X)


def _element_rows(V: np.ndarray, free: np.ndarray) -> np.ndarray:
    """(..., n_h) rows of V (n_free, n_h) at the element dofs ``free``
    (free numbers, -1 on an eliminated dof, whose row is 0)."""
    out = V.take(free, axis=0)
    out[free < 0] = 0.0
    return out


def assemble_shape_gradient(model: MultipatchModel, dofmap: DofMap,
                            design: DesignSpace,
                            u_rt_list, adjoints: AdjointSet,
                            reluctivity_by_tag: dict,
                            cfg: MachineConfig | None = None) -> np.ndarray:
    """Gradient entries g_m = dJ(direction W_m) over the free design dofs.

    u_rt_list holds the per-angle forward rotor coefficient vectors (free
    dofs), one row per angle, and ``adjoints`` the adjoint coefficients of
    the same angles with the rotor's X_rt.  The angles are summed once, in
    Z = U^T Lam, and each element's C_e = Z_e X_e^T has rank n_h.
    Integrals are restricted to patches where the design basis has support;
    entries for dofs without support in deforming patches are exactly zero.
    The element gradients and weights come from the plan's element tables,
    so on the optimizer's rotor they are read, not rebuilt.  ``cfg`` is
    ignored: ``perfbench/workloads.py``, its last caller, passes it
    positionally; ROADMAP item 2's code change removes it.  ValueError when
    U does not hold one free-dof row per adjoint angle.
    """
    U = np.asarray(u_rt_list, dtype=float)          # (NL, n_free)
    lambdas = adjoints.lambdas                      # (NL, n_h)
    if U.shape != (lambdas.shape[0], dofmap.n_free):
        raise ValueError("forward rows %s do not match %d adjoint angles of %d free dofs"
                         % (U.shape, lambdas.shape[0], dofmap.n_free))
    Z = U.T @ lambdas                               # (n_free, n_h)
    X = adjoints.X_rt
    targets, contribs = {}, {}
    for ids, space, wdet, grad, _ in dofmap.plan.element_tables(model, design.patch_ids):
        n_batch, n_el, n_loc, n_q = grad.shape[:4]
        gd = np.stack([dofmap.patch_maps[pid].reshape(-1) for pid in ids])[:, space[0]]
        free = dofmap.free_index[gd]                                # (G, E, L)
        A = grad.reshape(n_batch, n_el, n_loc, 2 * n_q)            # (L, 2Q) per element
        C = _element_rows(Z, free) @ _element_rows(X, free).transpose(0, 1, 3, 2)
        sg = _element_signs(dofmap, ids, space[0])
        if sg is not None:
            C *= sg[..., :, None] * sg[..., None, :]
        CA = (C @ A).reshape(n_batch, n_el, n_loc, n_q, 2).transpose(0, 1, 3, 2, 4)
        T = grad.transpose(0, 1, 3, 4, 2) @ CA                     # (G, E, Q, 2, 2)
        trT = T[..., 0, 0] + T[..., 1, 1]
        M = -(T + T.transpose(0, 1, 2, 4, 3))
        M[..., 0, 0] += trT
        M[..., 1, 1] += trT
        nu = np.array([reluctivity_by_tag[model.tags[pid]] for pid in ids])
        M *= (nu[:, None, None] * wdet)[..., None, None]            # nu w (tr T I - T - T^T)
        contrib = A @ M.reshape(n_batch, n_el, 2 * n_q, 2)          # (G, E, L, 2)
        for pid, di, c in zip(ids, design.index[gd], contrib):
            if pid in dofmap.plan.copy_patches:     # an empty turn-back costs 4 numpy calls
                turned = dofmap.patch_copies[pid].reshape(-1)[space[0]]
                c[turned] = c[turned] @ dofmap.turn          # T^T c, per row
            valid = di >= 0
            targets[pid], contribs[pid] = di[valid], c[valid]
    targets = np.concatenate([targets[pid] for pid in design.patch_ids])
    contribs = np.concatenate([contribs[pid] for pid in design.patch_ids])
    return _scatter_add(targets, contribs, design.n_points).T.reshape(-1)
