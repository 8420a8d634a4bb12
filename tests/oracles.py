"""Test-only oracles of the library, none of which the pipeline runs: the
full stator-rotor saddle system solved directly (acceptance 1), its dense
rotation R(alpha), the stator's products by one direct factorization of
the stiffness of the whole stator model (the pipeline solves its Bloch
modes), one side's products by LAPACK's own banded solve ``pbtrs``, a
recomputation of the precomputed products, the residual of an
angle solution in the coupled system, and the quadrature helpers of the
manufactured-solution and area checks, on a Gauss rule of their own (the
library's patch integrals take p + 1 points per direction)."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from igamotor.assembly import (PatchTables, _batch_tables, _scatter_add, _space_tables,
                               assemble_coupling, assemble_rhs, assemble_stiffness,
                               build_reluctivity_map, coupling_gauss_count)
from igamotor.coupling import _partner_columns, _phases, _rotate, harmonic_orders, precompute_side
from igamotor.linalg import factorize


class OracleStabilityError(Exception):
    """An oracle's full saddle system is singular, or the stored products
    drift from their recomputation."""


def rotation_matrix(orders, alpha) -> np.ndarray:
    """Real orthogonal R(alpha) taking rotor-frame harmonic moments to the
    stator frame: (n_h, n_h) for one angle, (n, n_h, n_h) for n angles.

    For l > 0 with cos column c and sin column s, R[c,c] = R[s,s] = cos l a
    and R[s,c] = -R[c,s] = sin l a; an l = 0 column is left fixed.
    """
    partner = _partner_columns(orders)
    cols = np.arange(partner.size)
    cos, sin = _phases(np.asarray(orders), partner, alpha)
    R = np.zeros(np.shape(alpha) + (cols.size, cols.size))
    R[..., partner, cols] = sin    # an l = 0 column is its own partner:
    R[..., cols, cols] = cos       # its 0 is overwritten by cos 0 = 1
    return R


def stator_blocks(solver) -> tuple:
    """(K, G, j) of ``solver``'s stator model: the stiffness assembled on
    the whole model (the pitch, or the ring), which the solver never forms,
    and the coupling moments and load it assembles, bit for bit (the
    interface rule of the configured orders)."""
    cfg = solver.cfg
    configured = harmonic_orders(cfg.n_harmonics,
                                 cfg.pole_pairs if cfg.harmonics_multiple_of_poles else 1)
    degree = max(patch.knots_u.degree for patch in solver.stator.patches)
    G = assemble_coupling(solver.stator, solver.dm_st, solver.orders,
                          coupling_gauss_count(degree, configured))
    j = assemble_rhs(solver.stator, solver.dm_st, cfg)
    K = assemble_stiffness(solver.stator, solver.dm_st, build_reluctivity_map(solver.stator, cfg))
    return K, G, j


def stator_direct_products(solver):
    """The stator's X, y, H and g of ``solver`` by one factorization of the
    whole model's stiffness: the direct solve the Bloch modes replace."""
    K, G, j = stator_blocks(solver)
    return precompute_side(factorize(K), G, j)


def lower_band(K) -> np.ndarray:
    """LAPACK's lower band of K, ab[i - j, j] = K[i, j] for the (kd + 1, n)
    Fortran array, kd the largest row - column of a stored entry, read from
    K's dense diagonals."""
    A, coo = K.toarray(), K.tocoo()
    kd = int(np.abs(coo.row - coo.col).max(initial=0))
    ab = np.zeros((kd + 1, K.shape[0]), dtype=K.dtype, order="F")
    for d in range(kd + 1):
        ab[d, :K.shape[0] - d] = np.diagonal(A, -d)
    return ab


def pbtrs_side(K, G, j):
    """X, y, H and g of :func:`igamotor.coupling.precompute_side` for the
    real K, its band (:func:`lower_band`) factored by ``dpbtrf`` and [G j]
    solved by ``dpbtrs``, a forward and a backward band solve of every
    column in full."""
    factor, info = lapack.dpbtrf(lower_band(K), lower=1)
    assert info == 0
    Xy = lapack.dpbtrs(factor, np.column_stack([G, j]), lower=1)[0]
    X, y = Xy[:, :-1], Xy[:, -1]
    return X, y, G.T @ X, G.T @ y


@dataclass
class FullSaddleSolution:
    """Direct solution of the coupled block system."""

    alpha: float
    u_st: np.ndarray
    u_rt: np.ndarray
    lam: np.ndarray
    matrix: sp.spmatrix
    block_residuals: np.ndarray


def build_full_matrix(pre, st: tuple, rt: tuple, alpha: float) -> sp.csr_matrix:
    """Symmetric block matrix of the coupled system at one angle, from K and
    G of the stator's and the rotor's (K, G, j) and the orders of ``pre``."""
    (K_st, G_st, _), (K_rt, G_rt, _) = st, rt
    Gst_r = G_st @ rotation_matrix(pre.plan.orders, alpha)
    return sp.bmat([
        [K_st, None, sp.csr_matrix(-Gst_r)],
        [None, K_rt, sp.csr_matrix(-G_rt)],
        [sp.csr_matrix(-Gst_r.T), sp.csr_matrix(-G_rt.T), None],
    ], format="csr")


def assemble_full_saddle(pre, st: tuple, rt: tuple, alpha: float) -> FullSaddleSolution:
    """Assemble and solve the full coupled system of the stator's and the
    rotor's (K, G, j) at one angle by a sparse LU of the saddle matrix,
    independent of the products in ``pre``: the oracle against which the
    interface elimination is validated."""
    j_st, j_rt = st[2], rt[2]
    M = build_full_matrix(pre, st, rt, alpha)
    b = np.concatenate([j_st, j_rt, np.zeros(pre.plan.orders.size)])
    try:
        z = spla.splu(M.tocsc()).solve(b)
    except RuntimeError as exc:
        raise OracleStabilityError("full saddle system singular (harmonic count too "
                                   "rich for the trace spaces?): %s" % exc) from exc
    resid = M @ z - b
    scale = max(float(np.linalg.norm(b)), 1e-300)
    cuts = [j_st.size, j_st.size + j_rt.size]
    block_res = np.array([np.linalg.norm(part) / scale for part in np.split(resid, cuts)])
    u_st, u_rt, lam = np.split(z, cuts)
    return FullSaddleSolution(alpha, u_st, u_rt, lam, M, block_res)


def full_residual(pre, st: tuple, rt: tuple, sol) -> float:
    """Relative residual of an angle solution in the full coupled system of
    the stator's and the rotor's (K, G, j) (checks the elimination algebra
    without the block matrix).  R(alpha) acts by its phases: G_st R lam is
    G_st (R lam), and (G_st R)^T u_st is R^T (G_st^T u_st)."""
    (K_st, G_st, j_st), (K_rt, G_rt, j_rt) = st, rt
    plan = pre.plan
    cos, sin = _phases(plan.orders, plan.partner, sol.alpha)
    res_st = K_st @ sol.u_st - G_st @ _rotate(sol.lam, cos, sin, plan.partner) - j_st
    res_rt = K_rt @ sol.u_rt - G_rt @ sol.lam - j_rt
    res_if = -_rotate(G_st.T @ sol.u_st, cos, -sin, plan.partner) - G_rt.T @ sol.u_rt
    num = np.sqrt(np.linalg.norm(res_st) ** 2 + np.linalg.norm(res_rt) ** 2
                  + np.linalg.norm(res_if) ** 2)
    scale = max(np.linalg.norm(j_st), np.linalg.norm(j_rt),
                float(np.abs(K_st.data).max()) * np.linalg.norm(sol.u_st),
                1e-300)
    return float(num / scale)


def dense_full_residual(pre, st: tuple, rt: tuple, sol) -> float:
    """:func:`full_residual` with G_st R(alpha) formed densely."""
    (K_st, G_st, j_st), (K_rt, G_rt, j_rt) = st, rt
    Gst_r = G_st @ rotation_matrix(pre.plan.orders, sol.alpha)
    res_st = K_st @ sol.u_st - Gst_r @ sol.lam - j_st
    res_rt = K_rt @ sol.u_rt - G_rt @ sol.lam - j_rt
    res_if = -Gst_r.T @ sol.u_st - G_rt.T @ sol.u_rt
    num = np.sqrt(np.linalg.norm(res_st) ** 2 + np.linalg.norm(res_rt) ** 2
                  + np.linalg.norm(res_if) ** 2)
    scale = max(np.linalg.norm(j_st), np.linalg.norm(j_rt),
                float(np.abs(K_st.data).max()) * np.linalg.norm(sol.u_st),
                1e-300)
    return float(num / scale)


def verify_products(pre, st: tuple, rt: tuple, tol: float = 1e-12) -> float:
    """Max relative deviation of the stored products X, y, H and g of
    ``pre`` from their recomputation with fresh factorizations, from the
    stator's and the rotor's (K, G, j); OracleStabilityError above ``tol``."""
    worst = 0.0
    for side, (K, G, j) in ((pre.plan.st, st), (pre.rt, rt)):
        fresh = precompute_side(factorize(K), G, j)
        for name in ("X", "y", "H", "g"):
            old, new = getattr(side, name), getattr(fresh, name)
            scale = max(float(np.abs(old).max()), 1e-300)
            worst = max(worst, float(np.abs(new - old).max()) / scale)
    if worst > tol:
        raise OracleStabilityError("precomputed products drift by %.3e" % worst)
    return worst


def patch_tables(patch, n_gauss: int) -> PatchTables:
    """The tables of ``assembly.build_patch_tables`` on an ``n_gauss``-point
    Gauss rule per direction: the one-patch batch of the same space and
    batch tables."""
    space = _space_tables(patch, n_gauss, {})
    P = patch.points.reshape(-1, 2).take(space[0], axis=0)[None]
    detj, grad, wdet, xy = _batch_tables(space, P)
    return PatchTables(space[0], space[1], np.ascontiguousarray(grad[0].transpose(0, 2, 1, 3)),
                       detj[0], wdet[0], xy[0])


def patch_area(patch, n_gauss: int) -> float:
    return float(patch_tables(patch, n_gauss).wdet.sum())


def _patch_functions(dofmap, pid: int, tables: PatchTables):
    """Global dofs and field signs (E, L) of the element functions of patch
    ``pid`` on ``tables``."""
    return (dofmap.patch_maps[pid].reshape(-1)[tables.dofs],
            dofmap.patch_signs(pid).reshape(-1)[tables.dofs])


def assemble_load(model, dofmap, f, n_gauss: int) -> np.ndarray:
    """Free-dof load vector of a scalar source f(x, y) (manufactured cases),
    patch by patch, each function taken with its field sign and every sum
    in patch/element/local order by one ``_scatter_add``."""
    index, values = [], []
    for pid, patch in enumerate(model.patches):
        tab = patch_tables(patch, n_gauss)
        gd, sg = _patch_functions(dofmap, pid, tab)
        index.append(gd.reshape(-1))
        values.append((np.einsum("eq,eql,eq->el", f(tab.xy[..., 0], tab.xy[..., 1]),
                                 tab.val, tab.wdet) * sg).reshape(-1))
    return _scatter_add(np.concatenate(index), np.concatenate(values),
                        dofmap.n_global)[dofmap.free_globals]


def l2_error(model, dofmap, u_free: np.ndarray, exact, n_gauss: int):
    """(absolute, relative) L2 distance between a coefficient field and an
    exact solution; the per-patch integrals are summed in patch order."""
    u_global = dofmap.expand(u_free)
    err2 = ref2 = 0.0
    for pid, patch in enumerate(model.patches):
        tab = patch_tables(patch, n_gauss)
        gd, sg = _patch_functions(dofmap, pid, tab)
        uh = np.einsum("eql,el->eq", tab.val, u_global[gd] * sg)
        ux = exact(tab.xy[..., 0], tab.xy[..., 1])
        err2 += float(((uh - ux) ** 2 * tab.wdet).sum())
        ref2 += float((ux ** 2 * tab.wdet).sum())
    return np.sqrt(err2), np.sqrt(err2 / ref2) if ref2 > 0 else np.inf
