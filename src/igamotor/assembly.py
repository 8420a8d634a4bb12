"""Quadrature and Galerkin assembly on multipatch NURBS models.

Per-patch tables of basis values, physical gradients and weighted Jacobian
determinants are built per geometry and reused by stiffness, source,
winding, coupling and metric assembly.  The rational basis values and
parametric derivatives at the Gauss points depend on the knots, degrees and
weights only, never on the control points; a shape update moves control
points alone, so these parts are cached per (knots, degrees, weights, Gauss
count) and every shape the optimizer tries rebuilds only the Jacobian.
They come from :func:`igamotor.splines.rational_basis` on whole tables.

The element kernels are batched matrix products over the elements of a
patch (``np.matmul``, so BLAS does the contractions).  The sparsity pattern
of a global matrix depends on the element dof tables alone, so its CSR
index arrays and the CSR slot of every element-matrix entry are cached per
(dof tables, n_global); a new shape only sums its element entries into the
CSR data with ``np.bincount``.  Coupling moments are evaluated on all
interface elements and Gauss points at once from the cached 1D tables.
Element contributions are merged in a fixed patch/element order, so
assembled operators are bit-reproducible.  :func:`eval_field` evaluates
a field on the basis of :func:`igamotor.splines.patch_basis`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError, ConfigError, GeometryError
from .geometry import DofMap, MachineConfig, MultipatchModel, RegionTag, edge_discretization, edge_nodes
from .splines import KnotVector, NurbsPatch, bspline_basis, patch_basis, rational_basis

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
    R, Rx, Ry = rational_basis(wl[:, None, :], B, Bx, By)
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
    P = patch.points.reshape(-1, 2).take(dofs, axis=0)     # (E, L, 2)
    j_xi = Rx @ P                                          # (E, Q, 2)
    j_eta = Ry @ P
    detj = j_xi[..., 0] * j_eta[..., 1] - j_xi[..., 1] * j_eta[..., 0]
    return space, P, j_xi, j_eta, detj


def build_patch_tables(patch: NurbsPatch, n_gauss: int | None = None,
                       require_regular: bool = True) -> PatchTables:
    (dofs, R, Rx, Ry, w2), P, j_xi, j_eta, detj = _jacobian(patch, n_gauss)
    if require_regular and np.any(detj <= 0.0):
        raise AssemblyError("singular or inverted Jacobian at a quadrature point "
                            "(min det J = %.3e)" % float(detj.min()))
    xy = R @ P
    # physical gradient J^-T (d/dxi, d/deta), with the (E, Q) factors divided first
    grad = np.empty(R.shape + (2,))
    np.subtract((j_eta[..., 1] / detj)[..., None] * Rx,
                (j_xi[..., 1] / detj)[..., None] * Ry, out=grad[..., 0])
    np.subtract((j_xi[..., 0] / detj)[..., None] * Ry,
                (j_eta[..., 0] / detj)[..., None] * Rx, out=grad[..., 1])
    return PatchTables(dofs, R, grad, detj, w2 * detj, xy)


def patch_min_detj(patch: NurbsPatch) -> float:
    """Minimum det J over the Gauss points; builds no gradients."""
    return float(_jacobian(patch, None)[-1].min())


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

_SCATTER_CACHE: dict = {}


def _csr_scatter(element_dofs, n_global: int):
    """Sparsity pattern of a matrix assembled from element matrices on the
    (E, L) global dof tables ``element_dofs``: canonical CSR ``indptr`` and
    ``indices``, and ``slots``, the CSR data position of every element-matrix
    entry in table/element/row/column order.  The pattern does not change
    with the shape, so it is cached on the tables and n_global; the arrays
    are shared and read-only."""
    key = (n_global, tuple(gd.shape for gd in element_dofs),
           b"".join(gd.tobytes() for gd in element_dofs))
    hit = _SCATTER_CACHE.get(key)
    if hit is not None:
        return hit
    # entry (l, m) of element e is the pair row * n_global + col
    entries = np.concatenate([(gd[:, :, None] * n_global + gd[:, None, :]).reshape(-1)
                              for gd in element_dofs])
    # sorted unique pairs: row-major order, no duplicates
    pairs, slots = np.unique(entries, return_inverse=True)
    index_type = np.int32 if max(entries.size, n_global) < np.iinfo(np.int32).max else np.int64
    del entries
    indptr = np.zeros(n_global + 1, dtype=index_type)
    np.cumsum(np.bincount(pairs // n_global, minlength=n_global), out=indptr[1:])
    scatter = (indptr, (pairs % n_global).astype(index_type),
               slots.reshape(-1).astype(index_type))
    for arr in scatter:
        arr.setflags(write=False)
    _SCATTER_CACHE[key] = scatter
    return scatter


def _h1_matrix(model: MultipatchModel, dofmap: DofMap, coeffs,
               mass: float = 0.0) -> sp.csr_matrix:
    """Sum over patches of coeffs[pid] * grad-grad (plus optional mass term)
    on the glued global numbering (no boundary elimination); patches with a
    zero coefficient are skipped.

    Element matrices are batched products over the E elements of a patch:
    grad-grad is (E, L, 2Q) @ (E, 2Q, L) with the columns of the left factor
    the (point, component) pairs, the mass term (E, L, Q) @ (E, Q, L).
    Their entries are summed into the CSR data by ``np.bincount`` over the
    cached scatter, in patch/element order."""
    element_dofs, blocks = [], []
    for pid, (patch, coeff) in enumerate(zip(model.patches, coeffs)):
        if coeff == 0.0:
            continue
        tab = build_patch_tables(patch)
        n_el, n_q, n_loc = tab.val.shape
        A = tab.grad.transpose(0, 2, 1, 3).reshape(n_el, n_loc, 2 * n_q)
        Aw = A * np.repeat(tab.wdet, 2, axis=1)[:, None, :]
        ke = coeff * (A @ Aw.transpose(0, 2, 1))
        if mass:
            ke += mass * (tab.val.transpose(0, 2, 1) @ (tab.val * tab.wdet[..., None]))
        element_dofs.append(dofmap.patch_maps[pid].reshape(-1)[tab.dofs])  # (E, L)
        blocks.append(ke.reshape(-1))
    if not blocks:
        raise AssemblyError("no patch contributes to the operator")
    indptr, indices, slots = _csr_scatter(element_dofs, dofmap.n_global)
    # rebinding frees the per-patch blocks before bincount copies the slots
    blocks = np.concatenate(blocks)
    data = np.bincount(slots, weights=blocks, minlength=indices.size)
    # the matrix gets its own index arrays: callers may modify it in place
    return sp.csr_matrix((data, indices.copy(), indptr.copy()),
                         shape=(dofmap.n_global, dofmap.n_global))


def _restrict(mat: sp.csr_matrix, dofmap: DofMap) -> sp.csr_matrix:
    free = dofmap.free_globals
    return mat[free][:, free].tocsr()


def assemble_stiffness(model: MultipatchModel, dofmap: DofMap,
                       reluctivity_by_tag: dict) -> sp.csr_matrix:
    """Free-dof stiffness matrix of -div(nu grad u); symmetric positive
    definite after Dirichlet row/column elimination."""
    for tag in set(model.tags):
        if reluctivity_by_tag[tag] <= 0.0:
            raise AssemblyError("reluctivity must be positive for tag %r" % (tag,))
    coeffs = [reluctivity_by_tag[tag] for tag in model.tags]
    return _restrict(_h1_matrix(model, dofmap, coeffs), dofmap)


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
    radius = float(model.r_interface)
    if n_gauss is None:
        n_gauss = coupling_gauss_count(max(p.knots_u.degree for p in model.patches), orders)
    G = np.zeros((dofmap.n_global, orders.size))
    for pid, edge in model.interface_edges:
        patch = model.patches[pid]
        kv, w_edge, p_edge = edge_discretization(patch, edge)
        if np.any(w_edge <= 0.0):
            raise ValueError("weights must be positive")
        gmap = dofmap.patch_maps[pid]
        edge_globals = np.array([gmap[i, j] for i, j in edge_nodes(patch.n_u, patch.n_v, edge)])
        # every element x Gauss point at once: (Ne, Q) parameters, (Ne, Q, p+1) basis
        _, wq, N, dN, first = _basis_table_1d(kv, n_gauss)
        local = first[:, None] + np.arange(kv.degree + 1)      # (Ne, p+1)
        R, dR = rational_basis(w_edge[local][:, None, :], N, dN)
        point = R @ p_edge[local]                               # (Ne, Q, 2)
        tangent = dR @ p_edge[local]
        r = np.hypot(point[..., 0], point[..., 1])
        off = np.abs(r - radius).max()
        if off > 1e-10 * max(1.0, radius):
            raise GeometryError("interface edge leaves the coupling circle by %.3e" % off)
        theta = np.arctan2(point[..., 1], point[..., 0])
        dtheta = (point[..., 0] * tangent[..., 1] - point[..., 1] * tangent[..., 0]) / (r * r)
        angle = theta[..., None] * np.abs(orders)
        harmonics = np.where(orders >= 0, np.cos(angle), np.sin(angle))  # (Ne, Q, n_h)
        weighted = R * (sign * radius * dtheta * wq)[..., None]
        moments = weighted.transpose(0, 2, 1) @ harmonics      # (Ne, p+1, n_h)
        np.add.at(G, edge_globals[local].reshape(-1), moments.reshape(-1, orders.size))
    return G[dofmap.free_globals]


def assemble_vector_metric(model: MultipatchModel, dofmap: DofMap,
                           design_mask: np.ndarray) -> sp.csr_matrix:
    """H1-type metric for planar deformation fields restricted to masked dofs.

    The bilinear form integrates the Frobenius product of the Jacobians plus
    the pointwise product of the fields; with componentwise scalar fields it
    block-decouples into two identical scalar H1 matrices.  Only patches
    holding a masked dof are integrated: the others add nothing to the
    masked rows and columns.
    """
    mask = np.asarray(design_mask, dtype=bool)
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise ConfigError("design mask selects no degrees of freedom")
    coeffs = [float(mask[gmap.reshape(-1)].any()) for gmap in dofmap.patch_maps]
    H = _h1_matrix(model, dofmap, coeffs, mass=1.0)
    Hm = H[idx][:, idx].tocsr()
    return sp.block_diag([Hm, Hm], format="csr")


# --------------------------------------------------------------------------
# point evaluation

def eval_field(model: MultipatchModel, dofmap: DofMap, u_global: np.ndarray,
               pid: int, xi: float, eta: float):
    """(point, value, physical gradient) of a coefficient field on a patch,
    from one basis evaluation; the gradient is J^-T (du/dxi, du/deta)."""
    patch = model.patches[pid]
    local, R, R_xi, R_eta = patch_basis(patch, xi, eta)
    P = patch.points[local].reshape(-1, 2)
    c = u_global[dofmap.patch_maps[pid][local].reshape(-1)]
    dR = np.stack([R_xi, R_eta])                           # (2, L)
    return R @ P, float(R @ c), np.linalg.solve(dR @ P, dR @ c)
