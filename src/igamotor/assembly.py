"""Quadrature and Galerkin assembly on multipatch NURBS models.

Per-patch tables of basis values, physical gradients and weighted Jacobian
determinants are built per geometry and reused by stiffness, source,
winding, coupling and metric assembly.  The rational basis values and
parametric derivatives at the Gauss points depend on the knots, degrees and
weights only, never on the control points; a shape update moves control
points alone, so every shape the optimizer tries rebuilds only the
Jacobian.  These space tables, and the 1D tables they are built from, come
from :func:`igamotor.splines.rational_basis` on whole tables.

Space tables are shared between patches whose knots, degrees, weights and
Gauss count have equal values (the demo stator's 108 patches share one).
They and the 1D tables live in a dict keyed by those values, owned by the
:class:`AssemblyPlan` of the dof map they serve (``plan.tables``), so they
are freed with the machine; callers without a dof map fill a dict of
their own for the one call.

The element kernels are batched matrix products (``np.matmul``, so BLAS
does the contractions) over a (G, E, Q, L) stack: G patches that share one
cached space, E elements each, Q Gauss points, L local functions.  The
demo rotor's 54 patches share 3 spaces and the stator's 108 share 1, so
at refinement 0, where a patch is one element, the stiffness, metric,
shape gradient and mesh check run a few batches, not one Python pass per
patch.  A batch holds at most 256 elements (and at least one patch): that
is one refinement-4 patch, so fine meshes keep one-patch batches, while
whole-group stacks would hold every patch's transients at once.  Each
entry is computed as for a single patch and element blocks are summed in
patch order, so batching changes no bit; :func:`build_patch_tables` is the
one-patch case of the same kernel.  Physical gradients are laid out
(G, E, L, Q, 2), so the (L, 2Q) element operand of the kernels is a view.

A rotor's geometry is built once per shape: the :class:`RotorGeometry`
that the plan keeps for the last rotor it saw (keyed by the identity of
its patch objects) holds det J, weight x det J, the physical gradients and
the grad-grad element blocks Ge of every patch.  The stiffness reads nu Ge,
the metric Ge plus its mass term, the shape gradient the gradients and
weights, and the mesh check det J, so one design step builds each rotor
patch's tables once instead of once per operator.  The next rotor replaces
it, which frees a rejected trial's arrays.  Other models, the stator
among them, are assembled once per machine: their tables are built batch
by batch for the one call and never kept.

What depends on the dof map alone is owned by its :class:`AssemblyPlan`
(``DofMap.plan``), built on first use and freed with the dof map, so with
the machine that holds it.  The plan keeps the grouping of a patch list
into batches, and the sparsity pattern of the rotor's operators directly
in their restricted numbering (free dofs for the stiffness, masked dofs
for the metric): CSR index arrays and the CSR slot of every
element-matrix entry, with the entries of eliminated rows and columns sent
one past the data.  A new shape only sums its element entries into the
CSR data with ``np.bincount``.  The plan serves the models whose patches
carry the dof map's own knots and weights objects, which
``DesignSpace.displace`` shares between rotors; other models are grouped
and scattered afresh.  Coupling moments are evaluated on all interface
elements and Gauss points at once from the 1D tables.  Element
contributions are merged in a fixed patch/element order, so assembled
operators are bit-reproducible, and a restricted operator is bitwise the
unrestricted one with its eliminated rows and columns removed.
:func:`eval_field` evaluates a field on the basis of
:func:`igamotor.splines.patch_basis`.
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
    table = tables[key] = (params, weights, vals, ders, first)
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


def _group(patches, tables: dict):
    """Group ``patches`` by their shared space tables (mesh-check Gauss
    count, kept in ``tables``) in chunks of at most ``_BATCH_ELEMENTS``
    elements, and at least one patch: [(ids, space)], ids the chunk's
    positions in ``patches``, increasing.  Groups come in order of first appearance and chunks in
    patch order."""
    groups = {}
    for i, patch in enumerate(patches):
        space = _space_tables(patch, _check_gauss(patch), tables)
        groups.setdefault(id(space), (space, []))[1].append(i)
    chunks = []
    for space, ids in groups.values():
        step = max(1, _BATCH_ELEMENTS // space[0].shape[0])
        chunks.extend((ids[k:k + step], space) for k in range(0, len(ids), step))
    return chunks


def _patch_batches(patches, plan):
    """Yields (ids, space, P) for each chunk of :func:`_group`, taken from
    ``plan`` (an :class:`AssemblyPlan`, or None for a one-off grouping):
    P the chunk's (G, E, L, 2) local control points."""
    for ids, space in (_group(patches, {}) if plan is None else plan.groups(patches)):
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
    """(det J, physical gradients, weight x det J) of a stack of patches on
    one space: (G, E, Q), (G, E, L, Q, 2), (G, E, Q).  Every entry is
    computed as for a single patch, so it is bitwise the same in any batch."""
    j_xi, j_eta, detj = _jacobian(space, P)
    if require_regular:
        _check_regular(detj)
    wdet, grad, _ = _table_shapes(detj, space)
    wdet, grad = np.empty(wdet), np.empty(grad)
    _gradients(space, j_xi, j_eta, detj, wdet, grad)
    return detj, grad, wdet


def _tables_on(space, patch: NurbsPatch, require_regular: bool = True) -> PatchTables:
    """Tables of one patch on its space: the one-patch stack of
    :func:`_batch_tables`, gradients as (E, Q, L, 2)."""
    dofs, R = space[:2]
    P = patch.points.reshape(-1, 2).take(dofs, axis=0)[None]   # (1, E, L, 2)
    detj, grad, wdet = _batch_tables(space, P, require_regular)
    return PatchTables(dofs, R, np.ascontiguousarray(grad[0].transpose(0, 2, 1, 3)),
                       detj[0], wdet[0], (R @ P)[0])


def build_patch_tables(patch: NurbsPatch, n_gauss: int | None = None,
                       require_regular: bool = True) -> PatchTables:
    """Tables of one patch (mesh-check Gauss count by default)."""
    space = _space_tables(patch, _check_gauss(patch) if n_gauss is None else n_gauss, {})
    return _tables_on(space, patch, require_regular)


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

def _csr_scatter(groups, maps, n_global: int, keep):
    """Sparsity pattern of a matrix assembled from the element matrices of
    patches in the chunks ``groups`` ([(ids, space)] as from :func:`_group`),
    patch i with the global numbers ``maps[i]`` of its flat control points,
    on the rows and columns of the bool mask ``keep`` (all when None) in
    their increasing order: canonical CSR ``indptr`` and ``indices``, and
    ``slots``, the CSR data position of every element-matrix entry in
    patch/element/row/column order.  An entry in a dropped row or column
    gets slot ``indices.size``, one past the data.

    The patches of a space share one dof table, so its distinct local
    (row, col) pairs are found once, and only the distinct pairs of each
    patch are ordered globally.  They come in per-patch runs that are
    nearly sorted already (a patch numbers most of its points in its own
    order), so they are ordered by a stable sort, which merges such runs,
    not by the quicksort of ``np.unique``; equal pairs then share a slot."""
    if keep is None:
        index, n = None, n_global
    else:
        index = np.cumsum(keep) - 1
        n = int(index[-1]) + 1
        index[~keep] = -1
    dropped = n * n                        # sorts after every kept pair
    n_entries = sum(len(ids) * space[0].shape[0] * space[0].shape[1] ** 2 for ids, space in groups)
    index_type = np.int32 if max(n_entries, n) < np.iinfo(np.int32).max else np.int64
    local = {}
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
            where[i] = size + k * rows.size + inverse
        size += code.size
    codes = np.concatenate(codes)
    where = np.concatenate(where)
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
    if pairs.size and pairs[-1] == dropped:
        pairs = pairs[:-1]
    slots = inverse[where]
    row = pairs // n
    indptr = np.zeros(n + 1, dtype=index_type)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    return indptr, (pairs - row * n).astype(index_type), slots


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
    """The assembly data of one dof map (``DofMap.plan``): space and 1D
    basis tables, patch batches and CSR scatters, which do not depend on
    the shape, and the :class:`RotorGeometry` of the last rotor assembled.

    A shape update moves control points only, so every model whose patches
    are on the dof map's own knots and weights objects (the ones it was
    built from, which ``DesignSpace.displace`` shares between rotors) has
    the same grouping of patches into batches on shared spaces and the same
    sparsity pattern.  The plan keeps the groupings per patch list, and
    the scatters of a rotor per restriction, and is freed with the dof
    map.  Patches on other knots or weights objects are grouped and
    scattered afresh on every call.  ``tables`` keeps the space and 1D
    tables of every patch assembled through the plan, keyed by value
    (:func:`_space_tables`).

    The plan keeps the geometry of one rotor at a time, keyed by the
    identity of its patch objects: a design step reads it in the stiffness,
    the shape gradient, the metric and the mesh check, and the next rotor
    replaces it, so a rejected trial's geometry is freed.  A model of
    another side (the stator, assembled once per machine) keeps neither a
    geometry nor a scatter: its tables are built batch by batch for the
    one call.
    """

    def __init__(self, dofmap: DofMap):
        self._maps = dofmap.patch_maps
        self._n_global = dofmap.n_global
        # id of the weights -> (dof map patch id, knots_u, knots_v, weights)
        self._bases = {id(w): (pid, ku, kv, w)
                       for pid, (ku, kv, w) in enumerate(dofmap.patch_bases)}
        self.tables = {}
        self._groups = {}
        self._scatters = {}
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

    def groups(self, patches):
        """:func:`_group` of ``patches``, kept for the dof map's own patches."""
        key = self._pids(patches)
        if key is None:
            return _group(patches, self.tables)
        hit = self._groups.get(key)
        if hit is None:
            hit = self._groups[key] = _group(patches, self.tables)
        return hit

    def scatter(self, model: MultipatchModel, pids, keep):
        """:func:`_csr_scatter` of the patches ``pids`` of ``model``,
        restricted to ``keep``; the arrays are read-only, and kept for a
        rotor on the dof map's own patches (a stator is assembled once)."""
        patches = [model.patches[pid] for pid in pids]
        cached = model.side == "rotor" and self._pids(patches) == tuple(pids)
        key = (tuple(pids), None if keep is None else keep.tobytes())
        hit = self._scatters.get(key) if cached else None
        if hit is not None:
            return hit
        scatter = _csr_scatter(self.groups(patches), [self._maps[pid].reshape(-1) for pid in pids],
                               self._n_global, keep)
        for arr in scatter:
            arr.setflags(write=False)
        if cached:
            self._scatters[key] = scatter
        return scatter

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


def _h1_matrix(model: MultipatchModel, dofmap: DofMap, coeffs,
               keep, mass: float = 0.0) -> sp.csr_matrix:
    """Sum over patches of coeffs[pid] * grad-grad (plus optional mass term)
    on the dofs of the bool mask ``keep``, or on the whole glued global
    numbering (no boundary elimination) when ``keep`` is None; patches with
    a zero coefficient are skipped.

    The grad-grad blocks Ge come from the plan's :meth:`AssemblyPlan.
    element_tables`, the mass term is the batched product (E, L, Q) @
    (G, E, Q, L).  The element entries are summed into the CSR data by
    ``np.bincount`` over the plan's scatter, in patch/element order; the
    entries of dropped dofs fall into the slot past the data.  So every
    kept entry is the sum of the same terms in the same order as in the
    unrestricted matrix."""
    pids = [pid for pid, coeff in enumerate(coeffs) if coeff != 0.0]
    if not pids:
        raise AssemblyError("no patch contributes to the operator")
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
    for ids, space, wdet, _, Ge in plan.element_tables(model, pids):
        ke = np.array([coeffs[pid] for pid in ids])[:, None, None, None] * Ge
        if mass:
            val = space[1]
            ke += mass * (val.transpose(0, 2, 1) @ (val * wdet[..., None]))
        for pid, block in zip(ids, ke.reshape(len(ids), -1)):
            blocks[starts[pid]:starts[pid] + block.size] = block
    indptr, indices, slots = plan.scatter(model, pids, keep)
    n = indptr.size - 1
    data = np.bincount(slots, weights=blocks, minlength=indices.size + 1)[:indices.size]
    # the matrix gets its own index arrays: callers may modify it in place
    return sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(n, n))


def assemble_stiffness(model: MultipatchModel, dofmap: DofMap,
                       reluctivity_by_tag: dict) -> sp.csr_matrix:
    """Free-dof stiffness matrix of -div(nu grad u); symmetric positive
    definite after Dirichlet row/column elimination."""
    for tag in set(model.tags):
        if reluctivity_by_tag[tag] <= 0.0:
            raise AssemblyError("reluctivity must be positive for tag %r" % (tag,))
    coeffs = [reluctivity_by_tag[tag] for tag in model.tags]
    return _h1_matrix(model, dofmap, coeffs, keep=~dofmap.dirichlet)


def _tables_by_patch(model: MultipatchModel, dofmap: DofMap, pids, n_gauss):
    """(pid, :func:`build_patch_tables`) for each pid, on the spaces kept
    by the dof map's plan."""
    for pid in pids:
        patch = model.patches[pid]
        n = _check_gauss(patch) if n_gauss is None else n_gauss
        yield pid, _tables_on(_space_tables(patch, n, dofmap.plan.tables), patch)


def assemble_winding_vector(model: MultipatchModel, dofmap: DofMap,
                            cfg: MachineConfig, phase: int,
                            n_gauss: int | None = None) -> np.ndarray:
    """Vector of integrals of the phase winding function against the basis.

    The winding function is +-n_turns / A_slot on the slots of the phase
    (sign per slot) and zero elsewhere, so chi^T u integrates the turn
    density against u and the flux linkage is pole_pairs * l_z * chi^T u.
    """
    vec = np.zeros(dofmap.n_global)
    pids = [pid for pid, tag in enumerate(model.tags)
            if tag.kind == "coil" and tag.phase == phase]
    for pid, tab in _tables_by_patch(model, dofmap, pids, n_gauss):
        tag = model.tags[pid]
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
    pids = [pid for pid, tag in enumerate(model.tags) if tag.kind == "magnet"]
    for pid, tab in _tables_by_patch(model, dofmap, pids, n_gauss):
        mperp = magnetization_perp(model.tags[pid], cfg, tab.xy)
        contrib = np.einsum("eqc,eqlc,eq->el", mperp, tab.grad, tab.wdet)
        np.add.at(vec, dofmap.patch_maps[pid].reshape(-1)[tab.dofs].reshape(-1),
                  contrib.reshape(-1))
    return vec[dofmap.free_globals]


def assemble_load(model: MultipatchModel, dofmap: DofMap, f,
                  n_gauss: int | None = None) -> np.ndarray:
    """Free-dof load vector of a scalar source f(x, y) (manufactured cases)."""
    vec = np.zeros(dofmap.n_global)
    for pid, tab in _tables_by_patch(model, dofmap, range(len(model.patches)), n_gauss):
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
    for pid, tab in _tables_by_patch(model, dofmap, range(len(model.patches)), n_gauss):
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
        _, wq, N, dN, first = _basis_table_1d(kv, n_gauss, dofmap.plan.tables)
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
    the pointwise product of the fields.  Componentwise, it acts on the x
    and y fields alike, so the returned (n_masked, n_masked) matrix is the
    scalar block of the componentwise metric.  Only patches holding a
    masked dof are integrated: the others add nothing to the masked rows
    and columns.
    """
    mask = np.asarray(design_mask, dtype=bool)
    if not mask.any():
        raise ConfigError("design mask selects no degrees of freedom")
    coeffs = [float(mask[gmap.reshape(-1)].any()) for gmap in dofmap.patch_maps]
    return _h1_matrix(model, dofmap, coeffs, mass=1.0, keep=mask)


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
