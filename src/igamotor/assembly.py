"""Quadrature and Galerkin assembly on multipatch NURBS models.

Every integral reaches the mesh by one route: plan -> batches -> tables ->
one scatter per quantity.

* Plan: what depends on the dof map alone is owned by its
  :class:`AssemblyPlan` (``DofMap.plan``) and freed with it: the basis
  tables, the batches of each patch list and the CSR scatters of the
  rotor's operators.  It serves models on the dof map's own knots and
  weights objects, which ``DesignSpace.displace`` shares between rotors;
  other models are grouped and scattered afresh.
* Batches: patches whose knots, degrees, weights and Gauss count have
  equal values share one space table, the rational basis values and
  parametric derivatives at the Gauss points, which do not depend on the
  control points (the demo rotor pitch's 9 patches share 2, the stator's
  18 share 1).  Patches on one space are stacked into batches of at most 256
  elements, one refinement-4 patch, and at least one patch.
* Tables: det J, weight x det J, physical gradients (laid out
  (G, E, L, Q, 2), so the (L, 2Q) element operand is a view) and Gauss
  points of a (G, E, Q, L) batch come from ``np.matmul`` stacks: G
  patches, E elements, Q points, L local functions.  Each entry is
  computed as for a single patch, so batching changes no bit;
  :func:`build_patch_tables` is the one-patch case.  The plan keeps the
  :class:`RotorGeometry` of the last rotor it saw, read by the stiffness,
  the metric, the shape gradient and the mesh check; the next rotor
  replaces it.  The stator's tables are built for the one call.
* One scatter per quantity: element contributions are summed in
  patch/element/local order by one ``np.bincount``, the operators into
  the CSR data through the plan's slots, the vectors and the coupling
  moments (every interface element of every edge evaluated in one pass)
  into the global numbering by :func:`_scatter_add`, which adds each
  entry's terms in the order of a sequential ``np.add.at``.  So assembled
  quantities are bit-reproducible, and a restricted operator is bitwise
  the unrestricted one with its eliminated rows and columns removed and
  the kept ones in the dof map's band order (:class:`DofMap`): the free
  stiffness and the metric come narrow-banded in their own row order.
* Closure: on a model glued to itself after a turn (the pole pitch), a
  function at a closure copy enters with the closure's field sign: the
  vectors, the coupling moments and the field evaluation take it per
  function, and an operator entry between a copy and a function that is
  none takes it once (:func:`_h1_blocks` marks those entries).  The
  deformation metric takes the turn there, as a phase on the complex
  displacement x + iy (:func:`assemble_vector_metric`).

:func:`eval_field` evaluates a field at arrays of points on the basis of
:func:`igamotor.splines.patch_basis`, one evaluation per patch.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError, ConfigError, GeometryError
from .geometry import DofMap, MachineConfig, MultipatchModel, RegionTag, _edge_index, edge_discretization
from .splines import (KnotVector, NurbsPatch, bspline_basis_table, patch_basis,
                      rational_basis)

MU0 = 4e-7 * np.pi


@dataclass(frozen=True)
class GaussRule:
    """1D Gauss-Legendre rule on [0, 1]; exact for degree <= 2 n - 1."""

    points: np.ndarray
    weights: np.ndarray


@functools.lru_cache(maxsize=16)
def gauss_rule(n: int) -> GaussRule:
    """The n-point rule, formed once per count and shared read-only (the
    assembly uses a few counts; at most 16 are kept)."""
    x, w = np.polynomial.legendre.leggauss(n)
    rule = GaussRule(0.5 * (x + 1.0), 0.5 * w)
    rule.points.setflags(write=False)
    rule.weights.setflags(write=False)
    return rule


# --------------------------------------------------------------------------
# cached 1D basis tables

def _basis_table_1d(kv: KnotVector, n_gauss: int, tables: dict):
    """Per-element Gauss data: parameters, scaled weights, basis values and
    derivatives of the n nonzero functions, and the first nonzero index.
    Kept in ``tables`` under the values of the knots, degree and Gauss
    count; the arrays are shared and read-only."""
    key = (kv.knots.tobytes(), kv.degree, n_gauss)
    hit = tables.get(key)
    if hit is not None:
        return hit
    rule = gauss_rule(n_gauss)
    brk = kv.breakpoints()
    a, b = brk[:-1, None], brk[1:, None]
    params = a + (b - a) * rule.points
    weights = (b - a) * rule.weights
    span, vals, ders = bspline_basis_table(kv, params)
    first = span[:, -1] - kv.degree
    for arr in (params, weights, vals, ders, first):
        arr.setflags(write=False)
    table = tables[key] = (params, weights, vals, ders, first)
    return table


@dataclass
class PatchTables:
    """The batch tables of one patch (:func:`build_patch_tables`).

    Shapes: E elements, Q points per element, L = (p_u+1)(p_v+1) local
    functions.  ``grad`` holds physical gradients; ``wdet`` the quadrature
    weight times det(J).  ``dofs`` and ``val`` depend on the knots and
    weights only: they are the read-only arrays of the space table.
    """

    dofs: np.ndarray      # (E, L) patch-local dof indices
    val: np.ndarray       # (E, Q, L)
    grad: np.ndarray      # (E, Q, L, 2)
    detj: np.ndarray      # (E, Q)
    wdet: np.ndarray      # (E, Q)
    xy: np.ndarray        # (E, Q, 2)


def _space_tables(patch: NurbsPatch, n_gauss: int, tables: dict):
    """Shape-invariant quadrature data of a patch: local dof indices (E, L),
    rational basis values R and parametric derivatives Rx, Ry (E, Q, L) and
    tensor quadrature weights w2 (E, Q).  Kept in ``tables``, next to the
    1D tables (whose keys are shorter), under the values of the knots,
    degrees, weights and Gauss count; the arrays are shared and read-only."""
    ku, kv = patch.knots_u, patch.knots_v
    key = (ku.knots.tobytes(), ku.degree, kv.knots.tobytes(), kv.degree,
           patch.weights.tobytes(), patch.weights.shape, n_gauss)
    hit = tables.get(key)
    if hit is not None:
        return hit
    pu, pv = ku.degree, kv.degree
    xu, wu, vu, du, fu = _basis_table_1d(ku, n_gauss, tables)
    xv, wv, vv, dv, fv = _basis_table_1d(kv, n_gauss, tables)
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
    space = tables[key] = (dofs, R, Rx, Ry, w2)
    return space


def _check_gauss(patch: NurbsPatch) -> int:
    """Gauss points per direction of the mesh check: degree + 1."""
    return max(patch.knots_u.degree, patch.knots_v.degree) + 1


# at most this many elements per batch: one refinement-4 patch (16 x 16)
_BATCH_ELEMENTS = 256


def _group(patches, tables: dict, n_gauss: int | None = None):
    """Group ``patches`` by their shared space tables (kept in ``tables``;
    mesh-check Gauss count when ``n_gauss`` is None) in chunks of at most
    ``_BATCH_ELEMENTS`` elements, and at least one patch: [(ids, space)],
    ids the chunk's positions in ``patches``, increasing.  Groups come in
    order of first appearance and chunks in patch order."""
    groups = {}
    for i, patch in enumerate(patches):
        space = _space_tables(patch, _check_gauss(patch) if n_gauss is None else n_gauss, tables)
        groups.setdefault(id(space), (space, []))[1].append(i)
    chunks = []
    for space, ids in groups.values():
        step = max(1, _BATCH_ELEMENTS // space[0].shape[0])
        chunks.extend((ids[k:k + step], space) for k in range(0, len(ids), step))
    return chunks


def _patch_batches(patches, plan, n_gauss: int | None = None):
    """Yields (ids, space, P) for each chunk of :func:`_group`, taken from
    ``plan`` (an :class:`AssemblyPlan`, or None for a one-off grouping):
    P the chunk's (G, E, L, 2) local control points."""
    chunks = _group(patches, {}, n_gauss) if plan is None else plan.groups(patches, n_gauss)
    for ids, space in chunks:
        P = np.stack([patches[i].points.reshape(-1, 2) for i in ids]).take(space[0], axis=1)
        yield ids, space, P


def _jacobian(space, P):
    """The two Jacobian columns (G, E, Q, 2) and det J (G, E, Q) at the
    Gauss points of a stack of patches on one space, P (G, E, L, 2)."""
    _, _, Rx, Ry, _ = space
    j_xi = Rx @ P
    j_eta = Ry @ P
    detj = j_xi[..., 0] * j_eta[..., 1] - j_xi[..., 1] * j_eta[..., 0]
    return j_xi, j_eta, detj


def _check_regular(detj):
    """AssemblyError when det J <= 0 at a Gauss point of ``detj``."""
    if np.any(detj <= 0.0):
        raise AssemblyError("singular or inverted Jacobian at a quadrature point "
                            "(min det J = %.3e)" % float(detj.min()))


def _gradients(space, j_xi, j_eta, detj, wdet, grad):
    """Write weight x det J (G, E, Q) and the physical gradients
    (G, E, L, Q, 2) of a stack of patches on one space, from its
    :func:`_jacobian`, to ``wdet`` and ``grad``.  The gradients are laid out
    so that the (L, 2Q) element operand of the kernels is a view."""
    _, R, Rx, Ry, w2 = space
    # physical gradient J^-T (d/dxi, d/deta), with the (G, E, Q) factors divided first
    np.subtract((j_eta[..., 1] / detj)[..., None] * Rx,
                (j_xi[..., 1] / detj)[..., None] * Ry, out=np.swapaxes(grad[..., 0], 2, 3))
    np.subtract((j_xi[..., 0] / detj)[..., None] * Ry,
                (j_eta[..., 0] / detj)[..., None] * Rx, out=np.swapaxes(grad[..., 1], 2, 3))
    np.multiply(w2, detj, out=wdet)


def _table_shapes(detj, space):
    """Shapes of weight x det J, physical gradients and grad-grad blocks of
    a batch with det J ``detj`` (G, E, Q) on ``space``."""
    n_batch, n_el, n_q = detj.shape
    n_loc = space[1].shape[-1]
    return detj.shape, (n_batch, n_el, n_loc, n_q, 2), (n_batch, n_el, n_loc, n_loc)


def _batch_tables(space, P, require_regular: bool = True):
    """(det J, physical gradients, weight x det J, Gauss points) of a stack
    of patches on one space: (G, E, Q), (G, E, L, Q, 2), (G, E, Q),
    (G, E, Q, 2).  Every entry is computed as for a single patch, so it is
    bitwise the same in any batch."""
    j_xi, j_eta, detj = _jacobian(space, P)
    if require_regular:
        _check_regular(detj)
    wdet, grad = (np.empty(shape) for shape in _table_shapes(detj, space)[:2])
    _gradients(space, j_xi, j_eta, detj, wdet, grad)
    return detj, grad, wdet, space[1] @ P


def build_patch_tables(patch: NurbsPatch, n_gauss: int | None = None,
                       require_regular: bool = True) -> PatchTables:
    """Tables of one patch: the one-patch batch of :func:`_patch_batches`
    (mesh-check Gauss count by default), gradients as (E, Q, L, 2)."""
    (_, space, P), = _patch_batches([patch], None, n_gauss)
    detj, grad, wdet, xy = _batch_tables(space, P, require_regular)
    return PatchTables(space[0], space[1], np.ascontiguousarray(grad[0].transpose(0, 2, 1, 3)),
                       detj[0], wdet[0], xy[0])


def min_detj(patches, plan) -> float:
    """Minimum det J over the mesh-check Gauss points of all ``patches``,
    from the Jacobians of :func:`_patch_batches` on ``plan``; builds no
    gradients."""
    return min((float(_jacobian(space, P)[-1].min())
                for _, space, P in _patch_batches(patches, plan)), default=np.inf)


def detj_quadratic(patches, disps, plan):
    """det J at the Gauss points of each patch with its control points moved
    to ``points - delta * disp`` (``disps``: one (n_u, n_v, 2) array per
    patch), as the exact quadratic a - delta b + delta^2 c: the map is
    linear in the control points.  Patches are batched on ``plan``.

    Returns flat (a, b, c, margin) over all those points, in the batch
    order of :func:`_patch_batches`.  ``margin`` is 1e-12 times the
    magnitude sum |Rx|(|P| + |D|) x |Ry|(|P| + |D|) of the cross products,
    which bounds, with a wide safety factor, the rounding error of both the
    direct det J of a moved patch and of the polynomial, for 0 <= delta <= 1.
    """
    out = []
    for ids, (dofs, _, Rx, Ry, _), P in _patch_batches(patches, plan):
        D = np.stack([disps[i].reshape(-1, 2) for i in ids]).take(dofs, axis=1)
        j_xi, j_eta, k_xi, k_eta = Rx @ P, Ry @ P, Rx @ D, Ry @ D
        a = j_xi[..., 0] * j_eta[..., 1] - j_xi[..., 1] * j_eta[..., 0]
        b = (j_xi[..., 0] * k_eta[..., 1] + k_xi[..., 0] * j_eta[..., 1]
             - j_xi[..., 1] * k_eta[..., 0] - k_xi[..., 1] * j_eta[..., 0])
        c = k_xi[..., 0] * k_eta[..., 1] - k_xi[..., 1] * k_eta[..., 0]
        size = np.abs(P) + np.abs(D)
        m_xi, m_eta = np.abs(Rx) @ size, np.abs(Ry) @ size
        margin = 1e-12 * (m_xi[..., 0] * m_eta[..., 1] + m_xi[..., 1] * m_eta[..., 0])
        out.append((a, b, c, margin))
    return tuple(np.concatenate([x[i].reshape(-1) for x in out]) for i in range(4))


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


def magnetization_perp(sign, cfg: MachineConfig, xy: np.ndarray) -> np.ndarray:
    """(-M2, M1) samples at the points ``xy`` (..., 2) of radially
    magnetized magnets with the polarity ``sign`` (+-1, or an array of them
    that broadcasts against ``xy[..., 0]``).

    |M| = remanence / mu0; the rotated vector is azimuthal.
    """
    r = np.linalg.norm(xy, axis=-1)
    scale = sign * cfg.remanence / MU0
    out = np.empty_like(xy)
    out[..., 0] = -xy[..., 1] / r * scale
    out[..., 1] = xy[..., 0] / r * scale
    return out


# --------------------------------------------------------------------------
# global assembly

def _csr_scatter(groups, maps, n_global: int, kept):
    """Sparsity pattern of a matrix assembled from the element matrices of
    patches in the chunks ``groups`` ([(ids, space)] as from :func:`_group`),
    patch i with the global numbers ``maps[i]`` of its flat control points,
    on the rows and columns of the globals ``kept`` in that order (all
    globals in their own order when None): canonical CSR ``indptr`` and
    ``indices`` (int32 unless the sizes need int64), and ``slots`` (intp,
    the index type ``np.bincount`` reads without a copy), the CSR data
    position of every element-matrix entry in patch/element/row/column
    order.  An entry in a dropped row or column gets slot
    ``indices.size``, one past the data.

    The patches of a space share one dof table, so its distinct local
    (row, col) pairs are found once, and only the distinct pairs of each
    patch are ordered globally.  They come in per-patch runs that are
    nearly sorted already (a patch numbers most of its points in its own
    order), so they are ordered by a stable sort, which merges such runs,
    not by the quicksort of ``np.unique``; equal pairs then share a slot.
    Each transient is freed once it has been read."""
    if kept is None:
        index, n = None, n_global
    else:
        index = np.full(n_global, -1, dtype=np.intp)
        index[kept] = np.arange(kept.size)
        n = kept.size
    dropped = n * n                        # sorts after every kept pair
    n_entries = sum(len(ids) * space[0].shape[0] * space[0].shape[1] ** 2 for ids, space in groups)
    index_type = np.int32 if max(n_entries, n) < np.iinfo(np.int32).max else np.int64
    local = {}
    # where[i]: the start of patch i's codes and its entries' positions among them
    codes, where, size = [], [None] * len(maps), 0
    for ids, space in groups:
        dofs = space[0]
        if id(dofs) not in local:
            n_loc = maps[ids[0]].size
            pairs, inverse = np.unique((dofs[:, :, None] * n_loc + dofs[:, None, :]).reshape(-1),
                                       return_inverse=True)
            local[id(dofs)] = (pairs // n_loc, pairs % n_loc,
                               inverse.reshape(-1).astype(index_type))
        rows, cols, inverse = local[id(dofs)]
        numbers = np.stack([maps[i] for i in ids])
        if index is not None:
            numbers = index[numbers]
        row, col = numbers[:, rows], numbers[:, cols]
        code = row * n + col               # the pair (row, col)
        if index is not None:
            code[(row < 0) | (col < 0)] = dropped
        codes.append(code.reshape(-1))
        for k, i in enumerate(ids):
            where[i] = (size + k * rows.size, inverse)
        size += code.size
    codes = np.concatenate(codes)
    # sorted unique pairs (row-major order, no duplicates) and the slot of each code
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    new = np.empty(codes.size, dtype=bool)
    new[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=new[1:])
    pairs = codes[new]
    del codes
    inverse = np.empty(order.size, dtype=index_type)
    inverse[order] = np.cumsum(new, dtype=index_type) - 1
    del order, new
    if pairs.size and pairs[-1] == dropped:
        pairs = pairs[:-1]
    slots = np.concatenate([inverse[start + positions] for start, positions in where],
                           dtype=np.intp)
    del inverse
    row = pairs // n
    indptr = np.zeros(n + 1, dtype=index_type)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    row *= n
    pairs -= row                           # the column of each pair
    del row
    return indptr, pairs.astype(index_type), slots


def _element_tables(jacobians, arrays=None):
    """Yields (ids, space, wdet, grad, Ge) for each batch of ``jacobians``
    [(ids, space, j_xi, j_eta, det J)]: :func:`_gradients` and Ge (G, E, L, L),
    the grad-grad element blocks, the sum over Gauss points of w det J
    grad R_a . grad R_b.  ``arrays`` yields the (wdet, grad, Ge) arrays to
    fill per batch; new ones by default.  AssemblyError at the first batch
    with det J <= 0."""
    for ids, space, j_xi, j_eta, detj in jacobians:
        _check_regular(detj)
        if arrays is None:
            wdet, grad, Ge = (np.empty(shape) for shape in _table_shapes(detj, space))
        else:
            wdet, grad, Ge = next(arrays)
        _gradients(space, j_xi, j_eta, detj, wdet, grad)
        n_batch, n_el, n_loc, n_q = grad.shape[:4]
        # A[g, e] = [grad at point 0 | grad at point 1 | ...]: (L, 2Q), a view
        A = grad.reshape(n_batch, n_el, n_loc, 2 * n_q)
        Aw = A * np.repeat(wdet, 2, axis=-1)[..., None, :]
        np.matmul(A, Aw.transpose(0, 1, 3, 2), out=Ge)
        yield ids, space, wdet, grad, Ge


class RotorGeometry:
    """The quadrature geometry of one rotor, built once and read by every
    operator on it: det J per batch of :func:`_patch_batches` at
    construction (what the mesh check reads), then, on the first call of
    :meth:`tables`, weight x det J, the physical gradients and the
    grad-grad element blocks Ge of every patch (:func:`_element_tables`).
    It holds its patches, so the identity key of :meth:`AssemblyPlan.geometry`
    stays valid while it lives."""

    def __init__(self, patches, plan):
        self.patches = tuple(patches)
        self._jacobians = [(ids, space) + _jacobian(space, P)
                           for ids, space, P in _patch_batches(self.patches, plan)]
        self.min_detj = min((float(jac[-1].min()) for jac in self._jacobians), default=np.inf)
        self._tables = None

    def tables(self):
        """[(ids, space, wdet, grad, Ge)] per batch, ids the patch positions.

        All of them are views of one block, allocated once per rotor: a
        block that large is mapped and unmapped whole, so replacing the
        rotor every design step leaves no long-lived arrays scattered among
        the step's temporaries in the heap."""
        if self._tables is None:
            shapes = [shape for jac in self._jacobians for shape in _table_shapes(jac[-1], jac[1])]
            sizes = [int(np.prod(shape)) for shape in shapes]
            starts = np.cumsum([0] + sizes)
            block = np.empty(starts[-1])
            views = [block[a:b].reshape(shape) for a, b, shape in zip(starts, starts[1:], shapes)]
            arrays = zip(views[0::3], views[1::3], views[2::3])   # (wdet, grad, Ge) per batch
            self._tables = list(_element_tables(self._jacobians, arrays))
            self._jacobians = None
        return self._tables


class AssemblyPlan:
    """The assembly data of one dof map (``DofMap.plan``), freed with it:
    ``tables``, the space and 1D tables of every patch assembled through
    it, keyed by value (:func:`_space_tables`); the batches of each list of
    the dof map's own patches (a shape update moves control points only,
    so every rotor has the same batches and sparsity patterns); a rotor's
    CSR scatters per restriction; the closure crosses of each patch
    (:meth:`closure_cross`, int8); and the :class:`RotorGeometry` of the
    last rotor, keyed by the identity of its patch objects, so the next
    rotor frees a rejected trial's.  Patches on other knots or weights
    objects are grouped and scattered afresh, and a stator, assembled once
    per machine, keeps neither a geometry nor a scatter.
    """

    def __init__(self, dofmap: DofMap):
        self._maps = dofmap.patch_maps
        self._n_global = dofmap.n_global
        self._band_order = dofmap.band_order
        # id of the weights -> (dof map patch id, knots_u, knots_v, weights)
        self._bases = {id(w): (pid, ku, kv, w)
                       for pid, (ku, kv, w) in enumerate(dofmap.patch_bases)}
        self._copies = dofmap.patch_copies
        self.tables = {}
        self._groups = {}
        self._scatters = {}
        self._crosses = {}
        self._geometry = None

    def _pids(self, patches):
        """The dof map's patch ids of ``patches``, or None when a patch is
        not on the dof map's own knots and weights objects."""
        pids = []
        for patch in patches:
            base = self._bases.get(id(patch.weights))
            if base is None or base[1] is not patch.knots_u or base[2] is not patch.knots_v:
                return None
            pids.append(base[0])
        return tuple(pids)

    def groups(self, patches, n_gauss: int | None = None):
        """:func:`_group` of ``patches``, kept for the dof map's own patches."""
        pids = self._pids(patches)
        if pids is None:
            return _group(patches, self.tables, n_gauss)
        hit = self._groups.get((pids, n_gauss))
        if hit is None:
            hit = self._groups[pids, n_gauss] = _group(patches, self.tables, n_gauss)
        return hit

    def scatter(self, model: MultipatchModel, pids, keep):
        """:func:`_csr_scatter` of the patches ``pids`` of ``model``,
        restricted to the globals of the bool mask ``keep`` in the dof
        map's band order (unrestricted, in global order, when None); the
        arrays are read-only, and kept for a rotor on the dof map's own
        patches (a stator is assembled once)."""
        patches = [model.patches[pid] for pid in pids]
        cached = model.side == "rotor" and self._pids(patches) == tuple(pids)
        key = (tuple(pids), None if keep is None else keep.tobytes())
        hit = self._scatters.get(key) if cached else None
        if hit is not None:
            return hit
        kept = None if keep is None else self._band_order[keep[self._band_order]]
        scatter = _csr_scatter(self.groups(patches), [self._maps[pid].reshape(-1) for pid in pids],
                               self._n_global, kept)
        # read-only views; the sums read the slots through their base (:func:`_sum_into`)
        scatter = tuple(arr.view() for arr in scatter)
        for arr in scatter:
            arr.setflags(write=False)
        if cached:
            self._scatters[key] = scatter
        return scatter

    def closure_cross(self, pid: int, dofs):
        """Per element-matrix entry of patch ``pid``, whose element functions
        are ``dofs`` (E, L), t_row - t_col of the closure-copy flags t of
        its two functions (E L L, int8, read-only); None when the patch
        holds no closure copy.  Kept: it depends on the dof map and the
        patch's dof table alone."""
        flags = self._copies[pid]
        if flags is None:
            return None
        key = (pid, id(dofs))           # dof tables live in ``tables`` with the plan
        hit = self._crosses.get(key)
        if hit is None:
            t = flags.reshape(-1)[dofs].astype(np.int8)                   # (E, L)
            hit = self._crosses[key] = (t[:, :, None] - t[:, None, :]).reshape(-1)
            hit.setflags(write=False)
        return hit

    def geometry(self, model: MultipatchModel) -> RotorGeometry | None:
        """The kept :class:`RotorGeometry` of a rotor ``model``, built when
        its patches are not those of the kept one (which it replaces);
        None for a model of another side."""
        if model.side != "rotor":
            return None
        kept = self._geometry
        if kept is None or len(kept.patches) != len(model.patches) or any(
                a is not b for a, b in zip(kept.patches, model.patches)):
            self._geometry = None       # free the old rotor's arrays first
            kept = self._geometry = RotorGeometry(model.patches, self)
        return kept

    def element_tables(self, model: MultipatchModel, pids):
        """Yields (pids, space, wdet, grad, Ge) for batches covering the
        patches ``pids`` of ``model`` (:func:`_element_tables`, with model
        patch ids): read from a rotor's kept geometry, built batch by batch
        for any other model."""
        geometry = self.geometry(model)
        if geometry is None:
            patches = [model.patches[pid] for pid in pids]
            jacobians = ((ids, space) + _jacobian(space, P)
                         for ids, space, P in _patch_batches(patches, self))
            for ids, *tables in _element_tables(jacobians):
                yield [pids[i] for i in ids], *tables
            return
        wanted = set(pids)
        for ids, space, wdet, grad, Ge in geometry.tables():
            take = [k for k, pid in enumerate(ids) if pid in wanted]
            if len(take) == len(ids):
                yield ids, space, wdet, grad, Ge
            elif take:
                yield [ids[k] for k in take], space, wdet[take], grad[take], Ge[take]

    def min_detj(self, model: MultipatchModel) -> float:
        """:func:`min_detj` of all patches of ``model``, read from a rotor's
        kept geometry."""
        geometry = self.geometry(model)
        return min_detj(model.patches, self) if geometry is None else geometry.min_detj


def _h1_blocks(model: MultipatchModel, dofmap: DofMap, pids, coeffs, mass: float):
    """The element matrices coeffs[pid] * grad-grad (plus mass times the
    mass matrix) of the patches ``pids``, from
    :meth:`AssemblyPlan.element_tables`, flat in patch/element/row/column
    order, and [(span, cross)] for each of them that holds a closure copy:
    its slice of the flat array and :meth:`AssemblyPlan.closure_cross`."""
    plan = dofmap.plan
    # each patch's element blocks go straight to their place in patch order,
    # not into per-batch arrays joined at the end (a second 9 MB at refinement 4)
    geometry = plan.geometry(model)
    if geometry is None:
        groups = [([pids[i] for i in ids], space)
                  for ids, space in plan.groups([model.patches[pid] for pid in pids])]
    else:
        groups = [(ids, space) for ids, space, *_ in geometry.tables()]
    sizes = {pid: space[0].size * space[0].shape[1] for ids, space in groups for pid in ids}
    starts = dict(zip(pids, np.cumsum([0] + [sizes[pid] for pid in pids])))
    blocks = np.empty(sum(sizes[pid] for pid in pids))
    closure = []
    for ids, space, wdet, _, Ge in plan.element_tables(model, pids):
        ke = np.array([coeffs[pid] for pid in ids])[:, None, None, None] * Ge
        if mass:
            val = space[1]
            ke += mass * (val.transpose(0, 2, 1) @ (val * wdet[..., None]))
        for pid, block in zip(ids, ke.reshape(len(ids), -1)):
            span = slice(starts[pid], starts[pid] + block.size)
            blocks[span] = block
            cross = plan.closure_cross(pid, space[0])
            if cross is not None:
                closure.append((span, cross))
    return blocks, closure


def _sum_into(slots, weights, size: int) -> np.ndarray:
    """``np.bincount`` of ``weights`` over the intp ``slots``, ``size``
    bins.  A plan's slots are a read-only view (:meth:`AssemblyPlan.scatter`),
    and ``np.bincount`` copies a read-only or non-intp index array whole
    before it sums, so they are read through their writeable base."""
    if not slots.flags.writeable:
        slots = slots.base
    return np.bincount(slots, weights, minlength=size)


def _csr(scatter, weights) -> sp.csr_matrix:
    """The CSR matrix of the entries ``weights`` summed by one
    ``np.bincount`` over the slots of ``scatter`` (:func:`_csr_scatter`),
    those of dropped dofs into the slot past the data."""
    indptr, indices, slots = scatter
    n = indptr.size - 1
    data = _sum_into(slots, weights, indices.size + 1)[:indices.size]
    # the matrix gets its own index arrays: callers may modify it in place
    return sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(n, n))


def _h1_matrix(model: MultipatchModel, dofmap: DofMap, coeffs,
               keep, mass: float = 0.0) -> sp.csr_matrix:
    """Sum over patches of coeffs[pid] * grad-grad (plus optional mass term)
    on the dofs of the bool mask ``keep`` in the dof map's band order (all,
    in global order with no boundary elimination, when None); patches with
    a zero coefficient are skipped.
    An entry between a closure copy and a function that is none is taken
    with the closure's field sign.  The element entries are summed into the
    CSR data by one ``np.bincount`` over the plan's scatter in
    patch/element order, so every kept entry is the sum of the same terms
    in the same order as in the unrestricted matrix."""
    pids = [pid for pid, coeff in enumerate(coeffs) if coeff != 0.0]
    if not pids:
        raise AssemblyError("no patch contributes to the operator")
    # the scatter first, so its transients are freed before the blocks exist
    scatter = dofmap.plan.scatter(model, pids, keep)
    blocks, closure = _h1_blocks(model, dofmap, pids, coeffs, mass)
    if dofmap.closure_sign != 1.0:
        for span, cross in closure:
            blocks[span][cross != 0] *= dofmap.closure_sign
    return _csr(scatter, blocks)


def assemble_stiffness(model: MultipatchModel, dofmap: DofMap,
                       reluctivity_by_tag: dict) -> sp.csr_matrix:
    """Free-dof stiffness matrix of -div(nu grad u); symmetric positive
    definite after Dirichlet row/column elimination."""
    for tag in set(model.tags):
        if reluctivity_by_tag[tag] <= 0.0:
            raise AssemblyError("reluctivity must be positive for tag %r" % (tag,))
    coeffs = [reluctivity_by_tag[tag] for tag in model.tags]
    return _h1_matrix(model, dofmap, coeffs, keep=~dofmap.dirichlet)


def _element_signs(dofmap: DofMap, pids, dofs):
    """(G, E, L) field signs of the element functions ``dofs`` (E, L) of
    the patches ``pids`` (:meth:`DofMap.patch_signs`), or None when all are
    1."""
    signs = [dofmap.patch_signs(pid) for pid in pids]
    if all(sign is None for sign in signs):
        return None
    return np.stack([np.ones(dofmap.patch_maps[pid].size) if sign is None else sign.reshape(-1)
                     for pid, sign in zip(pids, signs)]).take(dofs, axis=1)


def _quadrature(model: MultipatchModel, dofmap: DofMap, pids, n_gauss):
    """Yields (pids, gd, sg, R, grad, wdet, xy) per batch of the patches
    ``pids`` of ``model`` on the dof map's plan (:func:`_patch_batches`):
    gd (G, E, L) the element functions' global dofs, sg their
    :func:`_element_signs`, R (E, Q, L) their values and
    :func:`_batch_tables`.  AssemblyError where det J <= 0."""
    patches = [model.patches[pid] for pid in pids]
    for ids, space, P in _patch_batches(patches, dofmap.plan, n_gauss):
        _, grad, wdet, xy = _batch_tables(space, P)
        batch = [pids[i] for i in ids]
        gd = np.stack([dofmap.patch_maps[pid].reshape(-1) for pid in batch]).take(space[0], axis=1)
        yield batch, gd, _element_signs(dofmap, batch, space[0]), space[1], grad, wdet, xy


def _scatter_add(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """(n, ...) sums of the rows of ``values`` (N, ...) at the rows
    ``index`` (N,).  One ``np.bincount`` over every (row, column) adds each
    sum's terms in the given order, as a sequential ``np.add.at`` does, so
    with its bits."""
    n_col = int(np.prod(values.shape[1:]))
    flat = (index[:, None] * n_col + np.arange(n_col)).reshape(-1)
    total = np.bincount(flat, weights=values.reshape(-1), minlength=n * n_col)
    return total.reshape((n,) + values.shape[1:])


def _assemble_vector(model: MultipatchModel, dofmap: DofMap, pids, n_gauss, kernel) -> np.ndarray:
    """Free-dof vector of the element contributions
    ``kernel(sign, R, grad, wdet, xy)`` (G, E, L) of every batch of
    :func:`_quadrature`, ``sign`` (G, 1, 1) the patches' region signs,
    each taken with its function's field sign and summed in
    patch/element/local order by one :func:`_scatter_add`."""
    parts = {}                  # pid -> (global dofs, contributions)
    for ids, gd, sg, *tables in _quadrature(model, dofmap, pids, n_gauss):
        sign = np.array([model.tags[pid].sign for pid in ids])[:, None, None]
        values = kernel(sign, *tables)
        parts.update(zip(ids, zip(gd, values if sg is None else values * sg)))
    if not parts:
        return np.zeros(dofmap.n_free)
    index, values = (np.concatenate([parts[pid][k].reshape(-1) for pid in sorted(parts)])
                     for k in (0, 1))
    return _scatter_add(index, values, dofmap.n_global)[dofmap.free_globals]


def assemble_winding_vector(model: MultipatchModel, dofmap: DofMap,
                            cfg: MachineConfig, phase: int,
                            n_gauss: int | None = None) -> np.ndarray:
    """Vector of integrals of the phase winding function against the basis,
    over the whole machine.

    The winding function is +-n_turns / A_slot on the slots of the phase
    (sign per slot) and zero elsewhere, so chi^T u integrates the turn
    density against u and the flux linkage is pole_pairs * l_z * chi^T u.
    On a model that is one of ``copies`` sectors every copy adds the same
    integral (the winding and the field change sign together), so chi is
    ``copies`` times the model's own.
    """
    def kernel(sign, R, grad, wdet, xy):
        area = wdet.reshape(sign.size, -1).sum(axis=1)[:, None, None]
        return (model.copies * sign) * cfg.n_turns / area * np.einsum("eql,geq->gel", R, wdet)

    pids = [pid for pid, tag in enumerate(model.tags)
            if tag.kind == "coil" and tag.phase == phase]
    return _assemble_vector(model, dofmap, pids, n_gauss, kernel)


def assemble_rhs(model: MultipatchModel, dofmap: DofMap, cfg: MachineConfig,
                 t: float = 0.0, n_gauss: int | None = None) -> np.ndarray:
    """Source vector: coil currents on the stator side, permanent magnets on
    the rotor side (assembled once, in the rotor frame)."""
    if model.side == "stator":
        free = np.zeros(dofmap.n_free)
        for phase in (1, 2, 3):
            current = phase_current(cfg, phase, t)
            if current != 0.0:
                free += current * assemble_winding_vector(model, dofmap, cfg, phase, n_gauss)
        return free

    def kernel(sign, R, grad, wdet, xy):
        mperp = magnetization_perp(sign, cfg, xy)
        # (G, E, Q, L, 2), contiguous: einsum's summation order follows the layout
        grad = np.ascontiguousarray(grad.transpose(0, 1, 3, 2, 4))
        return np.einsum("geqc,geqlc,geq->gel", mperp, grad, wdet)

    pids = [pid for pid, tag in enumerate(model.tags) if tag.kind == "magnet"]
    return _assemble_vector(model, dofmap, pids, n_gauss, kernel)


def coupling_gauss_count(degree: int, orders) -> int:
    """Interface rule: enough points for the basis and the cos/sin(l theta)
    oscillation on one element."""
    max_order = int(np.max(np.abs(orders))) if len(orders) else 0
    return max(degree + 1, max_order // 2 + 2 + (max_order % 2))


def assemble_coupling(model: MultipatchModel, dofmap: DofMap, orders,
                      n_gauss: int | None = None) -> np.ndarray:
    """Dense real moments of interface traces against the real harmonics.

    Column k holds -(stator) or +(rotor) integrals of w_i h_k(theta) R dtheta
    over the model's interface arc, with h_k = cos(l_k theta) for l_k >= 0
    and h_k = sin(|l_k| theta) for l_k < 0, each function taken with its
    field sign.  Rows of dofs without interface support are exactly zero.
    The elements of every interface edge (edges of one degree) are stacked
    and evaluated at once, then scattered in edge/element/local order.
    """
    orders = np.asarray(orders, dtype=int)
    if model.side not in ("stator", "rotor"):
        raise GeometryError("coupling assembly needs a stator or rotor model")
    if not model.interface_edges:
        return np.zeros((dofmap.n_free, orders.size))
    sign = -1.0 if model.side == "stator" else 1.0
    radius = float(model.r_interface)
    if n_gauss is None:
        n_gauss = coupling_gauss_count(max(p.knots_u.degree for p in model.patches), orders)
    edges = []
    for pid, edge in model.interface_edges:
        kv, w_edge, p_edge = edge_discretization(model.patches[pid], edge)
        edge_globals = dofmap.patch_maps[pid][_edge_index(edge)]
        signs = dofmap.patch_signs(pid)
        edge_signs = np.ones(edge_globals.size) if signs is None else signs[_edge_index(edge)]
        # (Ne, Q) weights and (Ne, Q, p+1) basis of the edge's elements
        _, wq, N, dN, first = _basis_table_1d(kv, n_gauss, dofmap.plan.tables)
        local = first[:, None] + np.arange(kv.degree + 1)      # (Ne, p+1)
        edges.append((edge_globals[local], edge_signs[local], w_edge[local], p_edge[local],
                      wq, N, dN))
    index, field_sign, w, ctrl, wq, N, dN = (np.concatenate(arrays) for arrays in zip(*edges))
    if np.any(w <= 0.0):
        raise ValueError("weights must be positive")
    R, dR = rational_basis(w[:, None, :], N, dN)
    point = R @ ctrl                                            # (Ne, Q, 2)
    tangent = dR @ ctrl
    r = np.hypot(point[..., 0], point[..., 1])
    off = np.abs(r - radius).max()
    if off > 1e-10 * max(1.0, radius):
        raise GeometryError("interface edge leaves the coupling circle by %.3e" % off)
    theta = np.arctan2(point[..., 1], point[..., 0])
    dtheta = (point[..., 0] * tangent[..., 1] - point[..., 1] * tangent[..., 0]) / (r * r)
    angle = theta[..., None] * np.abs(orders)
    harmonics = np.where(orders >= 0, np.cos(angle), np.sin(angle))  # (Ne, Q, n_h)
    weighted = R * (sign * radius * dtheta * wq)[..., None]
    moments = weighted.transpose(0, 2, 1) @ harmonics          # (Ne, p+1, n_h)
    moments *= field_sign[..., None]
    G = _scatter_add(index.reshape(-1), moments.reshape(-1, orders.size), dofmap.n_global)
    return G[dofmap.free_globals]


def assemble_vector_metric(model: MultipatchModel, dofmap: DofMap,
                           design_mask: np.ndarray) -> sp.csr_matrix:
    """H1-type metric for planar deformation fields of the masked dofs, over
    the whole machine: the Hermitian (n, n) matrix (complex128) of the
    complex displacement x + iy, n the masked count, its rows in the dof
    map's band order (:attr:`igamotor.design.DesignSpace.free`).

    The bilinear form integrates the Frobenius product of the Jacobians plus
    the pointwise product of the fields, ``copies`` times over the model.
    A closure copy moves by its global point's displacement turned by the
    model's turn T, which multiplies x + iy by e^{i phi}, so the element
    entry h of two functions enters times e^{-i cross phi}, cross = t_row -
    t_col of their closure-copy flags: the real part carries cos phi on the
    entries between a closure copy and a non-copy, the imaginary part
    -cross sin phi.  This is [[A, B], [-B, A]] on the stacked real [x; y]
    written as A - iB.  Without a turn (or a closure copy in the metric) the
    imaginary part is 0.  Only patches holding a masked dof are integrated:
    the others add nothing to the masked rows and columns.
    """
    mask = np.asarray(design_mask, dtype=bool)
    if not mask.any():
        raise ConfigError("design mask selects no degrees of freedom")
    copies = float(model.copies)
    coeffs = [copies * float(mask[gmap.reshape(-1)].any()) for gmap in dofmap.patch_maps]
    pids = [pid for pid, coeff in enumerate(coeffs) if coeff != 0.0]
    indptr, indices, slots = dofmap.plan.scatter(model, pids, mask)
    blocks, closure = _h1_blocks(model, dofmap, pids, coeffs, copies)
    data = np.zeros(indices.size + 1, dtype=complex)
    if dofmap.turn is not None and closure:
        cos, sin = dofmap.turn[0, 0], dofmap.turn[1, 0]
        # -sin(phi (t_row - t_col)) h on the entries of the closure patches
        data.imag = _sum_into(np.concatenate([slots[span] for span, _ in closure]),
                              np.concatenate([blocks[span] * (cross * -sin)
                                              for span, cross in closure]), data.size)
        for span, cross in closure:
            blocks[span][cross != 0] *= cos
    data.real = _sum_into(slots, blocks, data.size)
    n = indptr.size - 1
    return sp.csr_matrix((data[:-1], indices.copy(), indptr.copy()), shape=(n, n))


# --------------------------------------------------------------------------
# point evaluation

def eval_field(model: MultipatchModel, dofmap: DofMap, u_global: np.ndarray,
               pid, xi, eta):
    """(point, value, physical gradient) of a coefficient field at the
    parameter points (xi, eta) of patches ``pid``, arrays of one shape S
    (scalars the 0-d case), as shapes S + (2,), S and S + (2,): one basis
    evaluation per patch, each coefficient taken with its field sign, and
    the gradient J^-T (du/dxi, du/deta) by one stacked 2 x 2 solve."""
    shape = np.broadcast(pid, xi, eta).shape
    pid, xi, eta = (np.broadcast_to(a, shape).reshape(-1) for a in (pid, xi, eta))
    point, value, grad = np.empty((pid.size, 2)), np.empty(pid.size), np.empty((pid.size, 2))
    for p in np.unique(pid):
        at = np.flatnonzero(pid == p)
        patch = model.patches[p]
        local, R, R_xi, R_eta = patch_basis(patch, xi[at], eta[at])
        P = patch.points.reshape(-1, 2).take(local, axis=0)
        c = u_global.take(dofmap.patch_maps[p].reshape(-1).take(local))
        signs = dofmap.patch_signs(p)
        if signs is not None:
            c = c * signs.reshape(-1).take(local)
        dR = np.stack([R_xi, R_eta], axis=-2)                # (n, 2, L)
        point[at] = np.matmul(R[:, None, :], P)[:, 0, :]
        value[at] = np.matmul(R[:, None, :], c[:, :, None])[:, 0, 0]
        grad[at] = np.linalg.solve(dR @ P, dR @ c[:, :, None])[:, :, 0]
    return point.reshape(shape + (2,)), value.reshape(shape)[()], grad.reshape(shape + (2,))
