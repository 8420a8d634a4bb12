"""Quadrature and Galerkin assembly on multipatch NURBS models.

Per-patch tables of basis values, physical gradients and weighted Jacobian
determinants are built per geometry and reused by stiffness, source,
winding, coupling and metric assembly.  The rational basis values and
parametric derivatives at the Gauss points depend on the knots, degrees and
weights only, never on the control points; a shape update moves control
points alone, so these parts are cached per (knots, degrees, weights, Gauss
count) and every shape the optimizer tries rebuilds only the Jacobian.
Element contributions are merged in a fixed patch/element order, so
assembled operators are bit-reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError, ConfigError, GeometryError
from .geometry import DofMap, MachineConfig, MultipatchModel, RegionTag, edge_discretization, edge_nodes
from .splines import KnotVector, NurbsPatch, bspline_basis, nurbs_basis

MU0 = 4e-7 * np.pi


@dataclass(frozen=True)
class GaussRule:
    """1D Gauss-Legendre rule on [0, 1]; exact for degree <= 2 n - 1."""

    points: np.ndarray
    weights: np.ndarray


def gauss_rule(n: int) -> GaussRule:
    x, w = np.polynomial.legendre.leggauss(n)
    return GaussRule(0.5 * (x + 1.0), 0.5 * w)


# --------------------------------------------------------------------------
# cached 1D basis tables

_TABLE_CACHE: dict = {}


def _basis_table_1d(kv: KnotVector, n_gauss: int):
    """Per-element Gauss data: parameters, scaled weights, basis values and
    derivatives of the n nonzero functions, and the first nonzero index."""
    key = (kv.knots.tobytes(), kv.degree, n_gauss)
    hit = _TABLE_CACHE.get(key)
    if hit is not None:
        return hit
    rule = gauss_rule(n_gauss)
    brk = kv.breakpoints()
    n_el = brk.size - 1
    p = kv.degree
    params = np.empty((n_el, n_gauss))
    weights = np.empty((n_el, n_gauss))
    vals = np.empty((n_el, n_gauss, p + 1))
    ders = np.empty((n_el, n_gauss, p + 1))
    first = np.empty(n_el, dtype=int)
    for e in range(n_el):
        a, b = brk[e], brk[e + 1]
        params[e] = a + (b - a) * rule.points
        weights[e] = (b - a) * rule.weights
        for q in range(n_gauss):
            span, N, dN = bspline_basis(kv, params[e, q])
            vals[e, q] = N
            ders[e, q] = dN
        first[e] = span - p
    for arr in (params, weights, vals, ders, first):
        arr.setflags(write=False)
    table = (params, weights, vals, ders, first)
    _TABLE_CACHE[key] = table
    return table


@dataclass
class PatchTables:
    """Tensorized quadrature data for one patch.

    Shapes: E elements, Q points per element, L = (p_u+1)(p_v+1) local
    functions.  ``grad`` holds physical gradients; ``wdet`` the quadrature
    weight times det(J).  ``dofs`` and ``val`` depend on the knots and
    weights only: they are shared, read-only arrays from the space cache
    (as are the quadrature weights behind ``wdet``).
    """

    dofs: np.ndarray      # (E, L) patch-local dof indices
    val: np.ndarray       # (E, Q, L)
    grad: np.ndarray      # (E, Q, L, 2)
    detj: np.ndarray      # (E, Q)
    wdet: np.ndarray      # (E, Q)
    xy: np.ndarray        # (E, Q, 2)


_SPACE_CACHE: dict = {}


def _space_tables(patch: NurbsPatch, n_gauss: int):
    """Shape-invariant quadrature data of a patch: local dof indices (E, L),
    rational basis values R and parametric derivatives Rx, Ry (E, Q, L) and
    tensor quadrature weights w2 (E, Q).  Cached on the knots, degrees,
    weights and Gauss count; the arrays are shared and read-only."""
    ku, kv = patch.knots_u, patch.knots_v
    key = (ku.knots.tobytes(), ku.degree, kv.knots.tobytes(), kv.degree,
           patch.weights.tobytes(), patch.weights.shape, n_gauss)
    hit = _SPACE_CACHE.get(key)
    if hit is not None:
        return hit
    pu, pv = ku.degree, kv.degree
    xu, wu, vu, du, fu = _basis_table_1d(ku, n_gauss)
    xv, wv, vv, dv, fv = _basis_table_1d(kv, n_gauss)
    n_eu, n_ev = xu.shape[0], xv.shape[0]
    lu, lv = pu + 1, pv + 1
    n_loc = lu * lv

    iu = (fu[:, None] + np.arange(lu)[None, :])            # (Eu, lu)
    jv = (fv[:, None] + np.arange(lv)[None, :])            # (Ev, lv)
    dofs = (iu[:, None, :, None] * patch.n_v + jv[None, :, None, :])
    dofs = dofs.reshape(n_eu * n_ev, n_loc)

    B = np.einsum("uqa,vrb->uvqrab", vu, vv)
    Bx = np.einsum("uqa,vrb->uvqrab", du, vv)
    By = np.einsum("uqa,vrb->uvqrab", vu, dv)
    Q = n_gauss * n_gauss
    E = n_eu * n_ev
    B = B.reshape(E, Q, n_loc)
    Bx = Bx.reshape(E, Q, n_loc)
    By = By.reshape(E, Q, n_loc)
    w2 = np.einsum("uq,vr->uvqr", wu, wv).reshape(E, Q)

    wl = patch.weights.reshape(-1)[dofs]                   # (E, L)
    W = np.einsum("eql,el->eq", B, wl)
    Wx = np.einsum("eql,el->eq", Bx, wl)
    Wy = np.einsum("eql,el->eq", By, wl)
    R = B * wl[:, None, :] / W[..., None]
    Rx = wl[:, None, :] * (Bx * W[..., None] - B * Wx[..., None]) / (W * W)[..., None]
    Ry = wl[:, None, :] * (By * W[..., None] - B * Wy[..., None]) / (W * W)[..., None]
    for arr in (dofs, R, Rx, Ry, w2):
        arr.setflags(write=False)
    space = (dofs, R, Rx, Ry, w2)
    _SPACE_CACHE[key] = space
    return space


def _jacobian(patch: NurbsPatch, n_gauss: int | None):
    """Per-geometry part: (space tables, local control points, the two
    Jacobian columns, det J) at the Gauss points."""
    if n_gauss is None:
        n_gauss = max(patch.knots_u.degree, patch.knots_v.degree) + 1
    space = _space_tables(patch, n_gauss)
    dofs, _, Rx, Ry, _ = space
    P = patch.points.reshape(-1, 2)[dofs]                  # (E, L, 2)
    j_xi = np.einsum("eql,elc->eqc", Rx, P)
    j_eta = np.einsum("eql,elc->eqc", Ry, P)
    detj = j_xi[..., 0] * j_eta[..., 1] - j_xi[..., 1] * j_eta[..., 0]
    return space, P, j_xi, j_eta, detj


def build_patch_tables(patch: NurbsPatch, n_gauss: int | None = None,
                       require_regular: bool = True) -> PatchTables:
    (dofs, R, Rx, Ry, w2), P, j_xi, j_eta, detj = _jacobian(patch, n_gauss)
    if require_regular and np.any(detj <= 0.0):
        raise AssemblyError("singular or inverted Jacobian at a quadrature point "
                            "(min det J = %.3e)" % float(detj.min()))
    xy = np.einsum("eql,elc->eqc", R, P)
    grad = np.empty(R.shape + (2,))
    grad[..., 0] = (j_eta[..., 1, None] * Rx - j_xi[..., 1, None] * Ry) / detj[..., None]
    grad[..., 1] = (-j_eta[..., 0, None] * Rx + j_xi[..., 0, None] * Ry) / detj[..., None]
    return PatchTables(dofs, R, grad, detj, w2 * detj, xy)


def patch_min_detj(patch: NurbsPatch, n_gauss: int | None = None) -> float:
    """Minimum det J over the Gauss points; builds no gradients."""
    return float(_jacobian(patch, n_gauss)[-1].min())


def patch_area(patch: NurbsPatch, n_gauss: int | None = None) -> float:
    tables = build_patch_tables(patch, n_gauss, require_regular=False)
    return float(tables.wdet.sum())


# --------------------------------------------------------------------------
# materials and sources

def reluctivity(tag: RegionTag, cfg: MachineConfig) -> float:
    """Piecewise constant reluctivity 1 / (mu0 mu_r) per region kind."""
    if tag.kind in ("rotor_iron", "stator_iron"):
        return 1.0 / (MU0 * cfg.mu_r_iron)
    if tag.kind == "magnet":
        return 1.0 / (MU0 * cfg.mu_r_magnet)
    return 1.0 / MU0


def build_reluctivity_map(model: MultipatchModel, cfg: MachineConfig) -> dict:
    return {tag: reluctivity(tag, cfg) for tag in set(model.tags)}


def phase_current(cfg: MachineConfig, phase: int, t: float) -> float:
    """Balanced three-phase current at electrical angle t."""
    return cfg.current_amplitude * np.cos(t - 2.0 * np.pi * (phase - 1) / 3.0)


def magnetization_perp(tag: RegionTag, cfg: MachineConfig, xy: np.ndarray) -> np.ndarray:
    """(-M2, M1) samples for a radially magnetized magnet patch.

    |M| = remanence / mu0; the rotated vector is azimuthal.
    """
    r = np.linalg.norm(xy, axis=-1)
    scale = tag.sign * cfg.remanence / MU0
    out = np.empty_like(xy)
    out[..., 0] = -xy[..., 1] / r * scale
    out[..., 1] = xy[..., 0] / r * scale
    return out


# --------------------------------------------------------------------------
# global assembly

def _h1_matrix(model: MultipatchModel, dofmap: DofMap, coeff_of_tag,
               mass: float = 0.0, n_gauss: int | None = None) -> sp.csr_matrix:
    """Sum over patches of coeff * grad-grad (plus optional mass term) on the
    glued global numbering (no boundary elimination)."""
    rows, cols, data = [], [], []
    for pid, (patch, tag) in enumerate(zip(model.patches, model.tags)):
        coeff = coeff_of_tag(tag)
        if coeff == 0.0:
            continue
        tab = build_patch_tables(patch, n_gauss)
        gd = dofmap.patch_maps[pid].reshape(-1)[tab.dofs]  # (E, L)
        ke = coeff * np.einsum("eqlc,eq,eqmc->elm", tab.grad, tab.wdet, tab.grad)
        if mass:
            ke += mass * np.einsum("eql,eq,eqm->elm", tab.val, tab.wdet, tab.val)
        n_loc = gd.shape[1]
        rows.append(np.repeat(gd, n_loc, axis=1).reshape(-1))
        cols.append(np.tile(gd, (1, n_loc)).reshape(-1))
        data.append(ke.reshape(-1))
    if not rows:
        raise AssemblyError("no patch contributes to the operator")
    # rebinding frees the per-patch pieces before the CSR conversion
    data, rows, cols = np.concatenate(data), np.concatenate(rows), np.concatenate(cols)
    return sp.coo_matrix((data, (rows, cols)), shape=(dofmap.n_global, dofmap.n_global)).tocsr()


def _restrict(mat: sp.csr_matrix, dofmap: DofMap) -> sp.csr_matrix:
    free = dofmap.free_globals
    return mat[free][:, free].tocsr()


def assemble_stiffness(model: MultipatchModel, dofmap: DofMap,
                       reluctivity_by_tag, n_gauss: int | None = None) -> sp.csr_matrix:
    """Free-dof stiffness matrix of -div(nu grad u); symmetric positive
    definite after Dirichlet row/column elimination."""
    if isinstance(reluctivity_by_tag, dict):
        lookup = reluctivity_by_tag.__getitem__
    else:
        lookup = reluctivity_by_tag
    for tag in set(model.tags):
        if lookup(tag) <= 0.0:
            raise AssemblyError("reluctivity must be positive for tag %r" % (tag,))
    return _restrict(_h1_matrix(model, dofmap, lookup, n_gauss=n_gauss), dofmap)


def assemble_winding_vector(model: MultipatchModel, dofmap: DofMap,
                            cfg: MachineConfig, phase: int,
                            n_gauss: int | None = None) -> np.ndarray:
    """Vector of integrals of the phase winding function against the basis.

    The winding function is +-n_turns / A_slot on the slots of the phase
    (sign per slot) and zero elsewhere, so chi^T u integrates the turn
    density against u and the flux linkage is pole_pairs * l_z * chi^T u.
    """
    vec = np.zeros(dofmap.n_global)
    for pid, (patch, tag) in enumerate(zip(model.patches, model.tags)):
        if tag.kind != "coil" or tag.phase != phase:
            continue
        tab = build_patch_tables(patch, n_gauss)
        area = float(tab.wdet.sum())
        density = tag.sign * cfg.n_turns / area
        contrib = density * np.einsum("eql,eq->el", tab.val, tab.wdet)
        np.add.at(vec, dofmap.patch_maps[pid].reshape(-1)[tab.dofs].reshape(-1),
                  contrib.reshape(-1))
    return vec[dofmap.free_globals]


def assemble_rhs(model: MultipatchModel, dofmap: DofMap, cfg: MachineConfig,
                 t: float = 0.0, n_gauss: int | None = None) -> np.ndarray:
    """Source vector: coil currents on the stator side, permanent magnets on
    the rotor side (assembled once, in the rotor frame)."""
    vec = np.zeros(dofmap.n_global)
    if model.side == "stator":
        free = np.zeros(dofmap.n_free)
        for phase in (1, 2, 3):
            current = phase_current(cfg, phase, t)
            if current != 0.0:
                free += current * assemble_winding_vector(model, dofmap, cfg, phase, n_gauss)
        return free
    for pid, (patch, tag) in enumerate(zip(model.patches, model.tags)):
        if tag.kind != "magnet":
            continue
        tab = build_patch_tables(patch, n_gauss)
        mperp = magnetization_perp(tag, cfg, tab.xy)
        contrib = np.einsum("eqc,eqlc,eq->el", mperp, tab.grad, tab.wdet)
        np.add.at(vec, dofmap.patch_maps[pid].reshape(-1)[tab.dofs].reshape(-1),
                  contrib.reshape(-1))
    return vec[dofmap.free_globals]


def assemble_load(model: MultipatchModel, dofmap: DofMap, f,
                  n_gauss: int | None = None) -> np.ndarray:
    """Free-dof load vector of a scalar source f(x, y) (manufactured cases)."""
    vec = np.zeros(dofmap.n_global)
    for pid, patch in enumerate(model.patches):
        tab = build_patch_tables(patch, n_gauss)
        fvals = f(tab.xy[..., 0], tab.xy[..., 1])
        contrib = np.einsum("eq,eql,eq->el", fvals, tab.val, tab.wdet)
        np.add.at(vec, dofmap.patch_maps[pid].reshape(-1)[tab.dofs].reshape(-1),
                  contrib.reshape(-1))
    return vec[dofmap.free_globals]


def l2_error(model: MultipatchModel, dofmap: DofMap, u_free: np.ndarray,
             exact, n_gauss: int | None = None):
    """(absolute, relative) L2 distance between a coefficient field and an
    exact solution."""
    u_global = dofmap.expand(u_free)
    err2 = 0.0
    ref2 = 0.0
    for pid, patch in enumerate(model.patches):
        tab = build_patch_tables(patch, n_gauss)
        coeffs = u_global[dofmap.patch_maps[pid].reshape(-1)[tab.dofs]]
        uh = np.einsum("eql,el->eq", tab.val, coeffs)
        ux = exact(tab.xy[..., 0], tab.xy[..., 1])
        err2 += float(((uh - ux) ** 2 * tab.wdet).sum())
        ref2 += float((ux ** 2 * tab.wdet).sum())
    return np.sqrt(err2), np.sqrt(err2 / ref2) if ref2 > 0 else np.inf


def coupling_gauss_count(degree: int, orders) -> int:
    """Interface rule: enough points for the basis and the cos/sin(l theta)
    oscillation on one element."""
    max_order = int(np.max(np.abs(orders))) if len(orders) else 0
    return max(degree + 1, max_order // 2 + 2 + (max_order % 2))


def assemble_coupling(model: MultipatchModel, dofmap: DofMap, orders,
                      r_interface: float | None = None,
                      n_gauss: int | None = None) -> np.ndarray:
    """Dense real moments of interface traces against the real harmonics.

    Column k holds -(stator) or +(rotor) integrals of w_i h_k(theta) R dtheta
    over the interface circle, with h_k = cos(l_k theta) for l_k >= 0 and
    h_k = sin(|l_k| theta) for l_k < 0.  Rows of dofs without interface
    support are exactly zero.
    """
    orders = np.asarray(orders, dtype=int)
    if model.side not in ("stator", "rotor"):
        raise GeometryError("coupling assembly needs a stator or rotor model")
    sign = -1.0 if model.side == "stator" else 1.0
    radius = float(r_interface if r_interface is not None else model.r_interface)
    if n_gauss is None:
        n_gauss = coupling_gauss_count(max(p.knots_u.degree for p in model.patches), orders)
    rule = gauss_rule(n_gauss)
    G = np.zeros((dofmap.n_global, orders.size))
    for pid, edge in model.interface_edges:
        patch = model.patches[pid]
        kv, w_edge, p_edge = edge_discretization(patch, edge)
        nodes = edge_nodes(patch.n_u, patch.n_v, edge)
        gmap = dofmap.patch_maps[pid]
        edge_globals = np.array([gmap[i, j] for i, j in nodes])
        brk = kv.breakpoints()
        p = kv.degree
        for e in range(brk.size - 1):
            a, b = brk[e], brk[e + 1]
            for q in range(rule.points.size):
                s = a + (b - a) * rule.points[q]
                wq = (b - a) * rule.weights[q]
                span, R, dR = nurbs_basis(kv, w_edge, s)
                point = R @ p_edge[span - p:span + 1]
                tangent = dR @ p_edge[span - p:span + 1]
                r = np.hypot(point[0], point[1])
                if abs(r - radius) > 1e-10 * max(1.0, radius):
                    raise GeometryError(
                        "interface edge leaves the coupling circle by %.3e" % abs(r - radius))
                theta = np.arctan2(point[1], point[0])
                dtheta = (point[0] * tangent[1] - point[1] * tangent[0]) / (r * r)
                harmonics = np.where(orders >= 0, np.cos(orders * theta),
                                     np.sin(-orders * theta))
                local = edge_globals[span - p:span + 1]
                G[local, :] += sign * radius * dtheta * wq * np.outer(R, harmonics)
    return G[dofmap.free_globals]


def assemble_vector_metric(model: MultipatchModel, dofmap: DofMap,
                           design_mask: np.ndarray,
                           n_gauss: int | None = None) -> sp.csr_matrix:
    """H1-type metric for planar deformation fields restricted to masked dofs.

    The bilinear form integrates the Frobenius product of the Jacobians plus
    the pointwise product of the fields; with componentwise scalar fields it
    block-decouples into two identical scalar H1 matrices.
    """
    idx = np.flatnonzero(np.asarray(design_mask, dtype=bool))
    if idx.size == 0:
        raise ConfigError("design mask selects no degrees of freedom")
    H = _h1_matrix(model, dofmap, lambda tag: 1.0, mass=1.0, n_gauss=n_gauss)
    Hm = H[idx][:, idx].tocsr()
    return sp.block_diag([Hm, Hm], format="csr")


# --------------------------------------------------------------------------
# point evaluation

def eval_field(model: MultipatchModel, dofmap: DofMap, u_global: np.ndarray,
               pid: int, xi: float, eta: float):
    """(point, value, physical gradient) of a coefficient field on a patch."""
    patch = model.patches[pid]
    su, Bu, dBu = bspline_basis(patch.knots_u, xi)
    sv, Bv, dBv = bspline_basis(patch.knots_v, eta)
    pu, pv = patch.knots_u.degree, patch.knots_v.degree
    sl_u = slice(su - pu, su + 1)
    sl_v = slice(sv - pv, sv + 1)
    wl = patch.weights[sl_u, sl_v]
    Pl = patch.points[sl_u, sl_v]
    cl = u_global[dofmap.patch_maps[pid][sl_u, sl_v]]

    Bw = np.outer(Bu, Bv) * wl
    Bw_u = np.outer(dBu, Bv) * wl
    Bw_v = np.outer(Bu, dBv) * wl
    W, W_u, W_v = Bw.sum(), Bw_u.sum(), Bw_v.sum()
    R = Bw / W
    R_u = (Bw_u * W - Bw * W_u) / (W * W)
    R_v = (Bw_v * W - Bw * W_v) / (W * W)

    point = np.tensordot(R, Pl, axes=([0, 1], [0, 1]))
    jac = np.stack([np.tensordot(R_u, Pl, axes=([0, 1], [0, 1])),
                    np.tensordot(R_v, Pl, axes=([0, 1], [0, 1]))], axis=1)
    value = float((R * cl).sum())
    grad_ref = np.array([(R_u * cl).sum(), (R_v * cl).sum()])
    grad = np.linalg.solve(jac.T, grad_ref)
    return point, value, grad
