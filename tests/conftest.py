import numpy as np
import pytest

from igamotor.assembly import assemble_stiffness, assemble_winding_vector
from igamotor.coupling import CouplingPrecomp, SweepPlan, precompute_side
from igamotor.geometry import MachineConfig, _edge_index, build_demo_machine, build_dof_map
from igamotor.linalg import factorize, matvec
from igamotor.optim import MachineSolver
from igamotor.splines import (NurbsPatch, bspline_basis_table, insert_knots, make_arc_patch,
                              rational_basis)

from oracles import stator_blocks


def coarse_config(**overrides):
    base = dict(refinement=0, n_harmonics=12, n_angles=12)
    base.update(overrides)
    return MachineConfig(**base)


def edge_nodes(n_u: int, n_v: int, edge: str):
    """Grid indices (i, j) along an edge of an (n_u, n_v) control grid, in
    canonical running order."""
    rows, cols = np.indices((n_u, n_v))
    index = _edge_index(edge)
    return list(zip(rows[index].tolist(), cols[index].tolist()))


def scalar_bspline_basis(kv, x):
    """(span, values, derivs) of the nonzero B-spline basis at the scalar x
    by the textbook Cox-de Boor recursion, one point at a time (The NURBS
    Book, A2.1-A2.3): the oracle of ``splines.bspline_basis_table``, with a
    span search of its own."""
    U, p, n = kv.knots, kv.degree, kv.n
    if x >= 1.0:
        span = n - 1
    else:
        span = min(max(int(np.searchsorted(U, x, side="right")) - 1, p), n - 1)
    lower = np.ones(1)
    left = np.empty(p + 1)
    right = np.empty(p + 1)
    N = np.zeros(p + 1)
    N[0] = 1.0
    for j in range(1, p + 1):
        left[j] = x - U[span + 1 - j]
        right[j] = U[span + j] - x
        saved = 0.0
        for r in range(j):
            tmp = N[r] / (right[r + 1] + left[j - r])
            N[r] = saved + right[r + 1] * tmp
            saved = left[j - r] * tmp
        N[j] = saved
        if j == p - 1:
            lower = N[:p].copy()
    derivs = np.zeros(p + 1)
    if p > 0:
        for r in range(p + 1):
            j = span - p + r
            a = lower[r - 1] / (U[j + p] - U[j]) if r >= 1 else 0.0
            b = lower[r] / (U[j + p + 1] - U[j + 1]) if r <= p - 1 else 0.0
            derivs[r] = p * (a - b)
    return span, N, derivs


def curve_points(kv, weights, points, x):
    """Points (S + (d,)) of the NURBS curve of knots ``kv``, ``weights``
    (n,) and control ``points`` (n, d) at the parameters x of shape S (a
    scalar the 0-d case), by the array kernels: the basis table and the
    rational basis."""
    span, N, _ = bspline_basis_table(kv, x)
    local = np.asarray(span)[..., None] + np.arange(-kv.degree, 1)
    R, = rational_basis(np.asarray(weights)[local], N)
    return np.matmul(R[..., None, :], np.asarray(points)[local])[..., 0, :]


def homogeneous_eval(patch, ctrl, xi, eta):
    """Value S / A and Jacobian columns (S_u A - S A_u) / A^2 of the rational
    map with control data ``ctrl`` (n_u, n_v, d), where S = sum w B ctrl and
    A = sum w B: the homogeneous-coordinate form, an evaluation path that
    shares nothing with ``splines.rational_basis`` or the basis table."""
    su, Bu, dBu = scalar_bspline_basis(patch.knots_u, xi)
    sv, Bv, dBv = scalar_bspline_basis(patch.knots_v, eta)
    pu, pv = patch.knots_u.degree, patch.knots_v.degree
    wl = patch.weights[su - pu:su + 1, sv - pv:sv + 1]
    Cl = ctrl[su - pu:su + 1, sv - pv:sv + 1, :]
    Bw = np.outer(Bu, Bv) * wl
    Bw_u = np.outer(dBu, Bv) * wl
    Bw_v = np.outer(Bu, dBv) * wl
    A, A_u, A_v = Bw.sum(), Bw_u.sum(), Bw_v.sum()
    S = np.tensordot(Bw, Cl, axes=([0, 1], [0, 1]))
    S_u = np.tensordot(Bw_u, Cl, axes=([0, 1], [0, 1]))
    S_v = np.tensordot(Bw_v, Cl, axes=([0, 1], [0, 1]))
    jac = np.stack([(S_u * A - S * A_u) / (A * A), (S_v * A - S * A_v) / (A * A)], axis=1)
    return S / A, jac


# The per-point evaluation chain that ``cli._field_grid``, the batched
# ``geometry.locate_polar`` and ``assembly.eval_field`` replaced: one
# scalar call chain per sample, kept as their bitwise oracle.

def scalar_patch_basis(patch, xi, eta):
    """(local slices, R, R_xi, R_eta) of the patch at one parameter point."""
    su, Bu, dBu = scalar_bspline_basis(patch.knots_u, xi)
    sv, Bv, dBv = scalar_bspline_basis(patch.knots_v, eta)
    local = (slice(su - patch.knots_u.degree, su + 1),
             slice(sv - patch.knots_v.degree, sv + 1))
    R, R_xi, R_eta = rational_basis(patch.weights[local].reshape(-1),
                                    np.outer(Bu, Bv).reshape(-1),
                                    np.outer(dBu, Bv).reshape(-1),
                                    np.outer(Bu, dBv).reshape(-1))
    return local, R, R_xi, R_eta


def scalar_eval_patch(patch, xi, eta):
    local, R, R_xi, R_eta = scalar_patch_basis(patch, xi, eta)
    P = patch.points[local].reshape(-1, 2)
    return R @ P, np.stack([R_xi @ P, R_eta @ P], axis=1)


def scalar_eval_field(model, dofmap, u_global, pid, xi, eta):
    patch = model.patches[pid]
    local, R, R_xi, R_eta = scalar_patch_basis(patch, xi, eta)
    P = patch.points[local].reshape(-1, 2)
    c = (u_global[dofmap.patch_maps[pid][local].reshape(-1)]
         * dofmap.patch_signs(pid)[local].reshape(-1))
    dR = np.stack([R_xi, R_eta])
    return R @ P, float(R @ c), np.linalg.solve(dR @ P, dR @ c)


def scalar_locate_polar(model, r, theta):
    radii = model.meta["ring_radii"]
    bounds = model.meta["sector_bounds"]
    assert radii[0] <= r <= radii[-1]
    theta = float(theta) % (2 * np.pi)
    ring = max(min(int(np.searchsorted(radii, r, side="right")) - 1, len(radii) - 2), 0)
    sector = next(s for s, (a, b) in enumerate(bounds) if a - 1e-12 <= theta <= b + 1e-12)
    patch_id = ring * model.meta["n_sectors"] + sector
    xi = min(max((r - radii[ring]) / (radii[ring + 1] - radii[ring]), 0.0), 1.0)
    a, b = bounds[sector]
    eta = min(max((theta - a) / (b - a), 0.0), 1.0)
    patch = model.patches[patch_id]
    for _ in range(30):
        point, jac = scalar_eval_patch(patch, xi, eta)
        ang = np.arctan2(point[1], point[0]) % (2 * np.pi)
        diff = (ang - theta + np.pi) % (2 * np.pi) - np.pi
        if abs(diff) < 1e-13:
            break
        r2 = point @ point
        dth_deta = (point[0] * jac[1, 1] - point[1] * jac[0, 1]) / r2
        eta = min(max(eta - diff / dth_deta, 0.0), 1.0)
    return patch_id, float(xi), float(eta)


def _scalar_turned(angle, v):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])


def _scalar_sample(model, dofmap, u_global, r, theta):
    arc = 2 * np.pi / model.copies
    k = min(int(theta // arc), model.copies - 1)
    pid, xi, eta = scalar_locate_polar(model, r, theta - k * arc)
    point, u, grad = scalar_eval_field(model, dofmap, u_global, pid, xi, eta)
    if k:
        sign = model.closure_sign ** k
        point, u, grad = (_scalar_turned(k * arc, point), sign * u,
                          sign * _scalar_turned(k * arc, grad))
    return point, u, grad


def scalar_field_rows(mc, stator_side, rotor_side, alpha, n_r, n_t):
    """Rows (x, y, u, Bx, By) of ``cli._field_grid``, one sample at a time."""
    rows = []
    for i in range(n_r):
        r = mc.r_shaft + (i + 0.5) * (mc.r_outer - mc.r_shaft) / n_r
        for j in range(n_t):
            th = (j + 0.5) * 2.0 * np.pi / n_t
            if r < mc.r_interface:
                point, u, grad = _scalar_sample(*rotor_side, r, (th - alpha) % (2 * np.pi))
                point, grad = _scalar_turned(alpha, point), _scalar_turned(alpha, grad)
            else:
                point, u, grad = _scalar_sample(*stator_side, r, th)
            rows.append((point[0], point[1], u, grad[1], -grad[0]))
    return np.array(rows)


def machine_sides(solver):
    """(K, G, j) of ``solver``'s stator and of its initial rotor, from the
    calls ``MachineSolver`` makes, so the blocks it solved with, bit for
    bit: the stator's assembled again (the solver drops G and j once its
    sweep plan is built, and solves its stiffness by Bloch modes, never
    assembled on the model; :func:`oracles.stator_blocks`), and the
    rotor's G and j the solver keeps."""
    K_rt = assemble_stiffness(solver.rotor0, solver.dm_rt, solver.relmap_rt)
    return stator_blocks(solver), (K_rt, solver._G_rt, solver._j_rt)


def adjoint_rotor_fields(adj):
    """The adjoint rotor fields X_rt lam of an ``AdjointSet``, one row per
    angle: the library sums the gradient's angles in the columns of X_rt
    and forms no field."""
    return matvec(adj.X_rt, adj.lambdas)


def field_signs(dm, pid):
    """Field sign of every control point of patch ``pid`` of the dof map
    ``dm``, flat: the closure sign at a closure copy, 1 elsewhere."""
    return np.where(dm.patch_copies[pid].reshape(-1), dm.closure_sign, 1.0)


def zero_sources(st, rt):
    """Each side's (K, G, j) with its load j set to zero."""
    return [(K, G, np.zeros_like(j)) for K, G, j in (st, rt)]


def zero_source_precompute(pre, st, rt):
    """The coupled system of ``pre`` and the sides st, rt, each (K, G, j),
    with both loads j_st, j_rt set to zero."""
    plan = pre.plan
    st0, rt0 = (precompute_side(factorize(K), G, j) for K, G, j in zero_sources(st, rt))
    return CouplingPrecomp(SweepPlan(st0, plan.orders, plan.period, plan.angles), rt0)


def weighted_arc_patch():
    """A refined magnet-ring arc patch with random weights in [0.5, 2]."""
    patch = insert_knots(make_arc_patch(0.045, 0.05, 0.2, 0.8), [0.3, 0.6], [0.5])
    weights = patch.weights * np.random.default_rng(4).uniform(0.5, 2.0, patch.weights.shape)
    return NurbsPatch(patch.knots_u, patch.knots_v, patch.points, weights)


@pytest.fixture(scope="session")
def coarse_cfg():
    return coarse_config()


@pytest.fixture(scope="session")
def coarse_machine(coarse_cfg):
    return build_demo_machine(coarse_cfg)


@pytest.fixture(scope="session")
def coarse_dofmaps(coarse_machine):
    stator, rotor = coarse_machine
    return build_dof_map(stator), build_dof_map(rotor)


@pytest.fixture(scope="session")
def coarse_solver(coarse_cfg):
    return MachineSolver(coarse_cfg)


@pytest.fixture(scope="session")
def coarse_pre(coarse_solver):
    return coarse_solver.precompute(coarse_solver.rotor0)


@pytest.fixture(scope="session")
def coarse_sides(coarse_solver):
    """(K, G, j) of the coarse machine's stator and rotor: the blocks
    ``coarse_pre`` was computed from."""
    return machine_sides(coarse_solver)


@pytest.fixture(scope="session")
def coarse_winding(coarse_cfg, coarse_machine, coarse_dofmaps):
    stator, _ = coarse_machine
    dm_st, _ = coarse_dofmaps
    return assemble_winding_vector(stator, dm_st, coarse_cfg, phase=1)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
