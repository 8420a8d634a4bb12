import numpy as np
import pytest

from igamotor.adjoint import (
    AdjointSet,
    assemble_shape_gradient,
    solve_adjoints,
    thd_sample_sensitivities,
)
from igamotor.coupling import (
    build_full_matrix,
    precompute_from_blocks,
    reconstruct_state,
    rotation_matrix,
    solve_interface,
    sweep_angles,
)
from igamotor.design import DesignSpace
from igamotor.errors import DegenerateSignalError
from igamotor.fourier import build_derivative_dft, emf_spectrum, thd
from igamotor.geometry import build_demo_machine, build_dof_map, edge_nodes
from igamotor.linalg import matvec
from igamotor.optim import MachineSolver

from conftest import coarse_config


@pytest.fixture(scope="module")
def solver():
    return MachineSolver(coarse_config(harmonics_multiple_of_poles=True))


@pytest.fixture(scope="module")
def forward(solver):
    sweep, pre = solver.evaluate(solver.rotor0)
    return sweep, pre


@pytest.fixture(scope="module")
def mats(solver):
    return build_derivative_dft(solver.cfg.n_angles)


# ---------------------------------------------------------------- design mask

def test_design_mask_excludes_fixed_regions(solver):
    rotor, dm = solver.rotor0, solver.dm_rt
    design = DesignSpace(rotor, dm)
    for pid, tag in enumerate(rotor.tags):
        if tag.kind == "magnet":
            assert not design.mask[dm.patch_maps[pid].reshape(-1)].any()
    for pid, edge in rotor.interface_edges:
        patch = rotor.patches[pid]
        for i, j in edge_nodes(patch.n_u, patch.n_v, edge):
            assert not design.mask[dm.patch_maps[pid][i, j]]
    assert not design.mask[dm.dirichlet].any()
    assert design.n_points > 0 and design.n_dofs == 2 * design.n_points


def test_design_displace_moves_only_masked(solver):
    rotor, dm = solver.rotor0, solver.dm_rt
    design = DesignSpace(rotor, dm)
    rng = np.random.default_rng(0)
    w = rng.standard_normal(design.n_dofs)
    moved = design.displace(rotor, w, 1e-4)
    for pid, tag in enumerate(rotor.tags):
        if tag.kind == "magnet":
            assert moved.patches[pid] is rotor.patches[pid]  # bit-identical object
    free_set = set(design.free.tolist())
    for pid in design.patch_ids:
        gmap = dm.patch_maps[pid]
        delta = moved.patches[pid].points - rotor.patches[pid].points
        for i in range(gmap.shape[0]):
            for j in range(gmap.shape[1]):
                if gmap[i, j] not in free_set:
                    assert np.array_equal(delta[i, j], [0.0, 0.0])
    # interface row untouched inside moving patches
    for pid, edge in rotor.interface_edges:
        patch = rotor.patches[pid]
        for i, j in edge_nodes(patch.n_u, patch.n_v, edge):
            assert np.array_equal(moved.patches[pid].points[i, j], patch.points[i, j])


# ---------------------------------------------------------------- sensitivities

def test_sensitivity_matches_finite_difference(forward, solver, mats):
    sweep, _ = forward
    s = thd_sample_sensitivities(sweep.emf_a, sweep.emf_b, sweep.index_set, mats)
    h = 1e-6 * np.abs(sweep.psi).max()

    def objective(psi):
        A, B = emf_spectrum(psi)
        return thd(A, B, sweep.index_set)

    for i in (0, 3, 7, 11):
        plus, minus = sweep.psi.copy(), sweep.psi.copy()
        plus[i] += h
        minus[i] -= h
        fd = (objective(plus) - objective(minus)) / (2 * h)
        assert abs(s[i] - fd) / abs(fd) < 1e-6


def test_sensitivity_pure_fundamental_and_scaling(mats, solver):
    n = solver.cfg.n_angles
    A = np.zeros(n // 2)
    B = np.zeros(n // 2)
    A[1] = 2.0
    idx = tuple(range(1, n // 2))
    s = thd_sample_sensitivities(A, B, idx, mats)
    assert np.array_equal(s, np.zeros(n))  # non-fundamental sum vanishes
    with pytest.raises(DegenerateSignalError):
        thd_sample_sensitivities(np.zeros(n // 2), np.zeros(n // 2), idx, mats)
    rng = np.random.default_rng(1)
    psi = rng.standard_normal(n)
    A1, B1 = emf_spectrum(psi)
    c = 3.7
    s1 = thd_sample_sensitivities(A1, B1, idx, mats)
    s2 = thd_sample_sensitivities(c * A1, c * B1, idx, mats)
    np.testing.assert_allclose(s2, s1 / c, rtol=1e-12)


# ---------------------------------------------------------------- adjoints

def _stator_adjoint(pre, solver, s, angles, adj):
    """Stator adjoint fields coef_i K_st^-1 chi + X_st R(alpha_i) lam_i with
    coef_i = -s_i * flux_scale, one row per angle."""
    coef = -np.asarray(s) * solver.flux_scale
    y_chi = pre.st.factor.solve(solver.winding)
    R = rotation_matrix(pre.orders, angles)
    return coef[:, None] * y_chi + matvec(pre.st.X, matvec(R, adj.lambdas))


def test_adjoints_zero_sensitivities_give_zero(forward, solver):
    _, pre = forward
    angles = solver.angles[:4]
    adj = solve_adjoints(pre, solver.winding, np.zeros(4), angles, solver.flux_scale)
    u_st = _stator_adjoint(pre, solver, np.zeros(4), angles, adj)
    assert np.array_equal(u_st, np.zeros_like(u_st))
    assert np.array_equal(adj.rotor, np.zeros_like(adj.rotor))


def test_adjoint_solves_transposed_system(forward, solver, mats, coarse_blocks):
    import dataclasses
    sweep, pre = forward
    blocks = dataclasses.replace(coarse_blocks, G_st=pre.st.G, G_rt=pre.rt.G,
                                 orders=pre.orders)
    s = thd_sample_sensitivities(sweep.emf_a, sweep.emf_b, sweep.index_set, mats)
    adj = solve_adjoints(pre, solver.winding, s, solver.angles, solver.flux_scale)
    u_st = _stator_adjoint(pre, solver, s, solver.angles, adj)
    for i in (0, 5):
        alpha = solver.angles[i]
        M = build_full_matrix(blocks, alpha)
        asym = (M - M.T).tocoo()
        scale = np.abs(M.data).max()
        assert asym.nnz == 0 or np.abs(asym.data).max() < 1e-12 * scale
        q = np.concatenate([u_st[i], adj.rotor[i], adj.lambdas[i]])
        c = np.concatenate([-s[i] * solver.flux_scale * solver.winding,
                            np.zeros(pre.rt.y.size + pre.orders.size)])
        resid = np.linalg.norm(M @ q - c) / np.linalg.norm(c)
        assert resid < 1e-9


def test_adjoint_duality_identity(forward, solver, mats, rng):
    sweep, pre = forward
    s = thd_sample_sensitivities(sweep.emf_a, sweep.emf_b, sweep.index_set, mats)
    adj = solve_adjoints(pre, solver.winding, s, solver.angles, solver.flux_scale)
    delta_j = rng.standard_normal(pre.rt.y.size)
    y_pert = pre.rt.factor.solve(delta_j)
    g_pert = pre.rt.G.T @ y_pert
    # the stator field of the rotor load delta_j alone (no stator load)
    lam_pert = solve_interface(pre, solver.angles, g_st=np.zeros(pre.orders.size),
                               g_rt=g_pert)
    du_st = matvec(pre.st.X, matvec(rotation_matrix(pre.orders, solver.angles), lam_pert))
    lhs = rhs = 0.0
    for i in range(solver.angles.size):
        lhs += s[i] * solver.flux_scale * float(solver.winding @ du_st[i])
        rhs += -float(adj.rotor[i] @ delta_j)
    assert abs(lhs - rhs) / max(abs(rhs), 1e-300) < 1e-8


# ---------------------------------------------------------------- gradient

def _gradient(solver, sweep, pre, mats, design):
    s = thd_sample_sensitivities(sweep.emf_a, sweep.emf_b, sweep.index_set, mats)
    adj = solve_adjoints(pre, solver.winding, s, solver.angles, solver.flux_scale)
    u_rt = [reconstruct_state(pre, a, lam).u_rt
            for a, lam in zip(solver.angles, sweep.lambdas)]
    return assemble_shape_gradient(solver.rotor0, solver.dm_rt, design, u_rt,
                                   adj.rotor_fields(), solver.relmap_rt, solver.cfg)


def test_gradient_matches_end_to_end_finite_difference(forward, solver, mats):
    sweep, pre = forward
    design = DesignSpace(solver.rotor0, solver.dm_rt)
    g = _gradient(solver, sweep, pre, mats, design)
    rng = np.random.default_rng(9)
    r_gap = solver.cfg.r_interface
    for m in rng.choice(design.n_dofs, size=3, replace=False):
        w = np.zeros(design.n_dofs)
        w[m] = 1.0
        best = np.inf
        for h in (1e-5 * r_gap, 1e-6 * r_gap):
            plus = solver.evaluate(design.displace(solver.rotor0, w, -h))[0].thd
            minus = solver.evaluate(design.displace(solver.rotor0, w, h))[0].thd
            fd = (plus - minus) / (2 * h)
            best = min(best, abs(fd - g[m]) / max(abs(fd), 1e-300))
        assert best < 1e-4


def test_gradient_linearity_in_direction(forward, solver, mats, rng):
    sweep, pre = forward
    design = DesignSpace(solver.rotor0, solver.dm_rt)
    g = _gradient(solver, sweep, pre, mats, design)
    w1 = rng.standard_normal(design.n_dofs)
    w2 = rng.standard_normal(design.n_dofs)
    a, b = 2.5, -1.25
    lhs = g @ (a * w1 + b * w2)
    rhs = a * (g @ w1) + b * (g @ w2)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


def test_gradient_zero_outside_deforming_patches(forward, solver, mats):
    sweep, pre = forward
    design = DesignSpace(solver.rotor0, solver.dm_rt)
    air_only = tuple(pid for pid in design.patch_ids
                     if solver.rotor0.tags[pid].kind == "rotor_air")
    design.patch_ids = air_only  # restrict the deforming support
    g = _gradient(solver, sweep, pre, mats, design)
    in_air = np.zeros(solver.dm_rt.n_global, dtype=bool)
    for pid in air_only:
        in_air[solver.dm_rt.patch_maps[pid].reshape(-1)] = True
    iron_only = ~in_air[design.free]
    assert np.array_equal(g[:design.n_points][iron_only], np.zeros(iron_only.sum()))
    assert np.array_equal(g[design.n_points:][iron_only], np.zeros(iron_only.sum()))


def test_gradient_zero_for_zero_sources(solver, coarse_blocks):
    import dataclasses
    blocks0 = dataclasses.replace(coarse_blocks, G_st=solver._st_pre.G,
                                  G_rt=solver._G_rt, orders=solver.orders,
                                  j_st=np.zeros_like(coarse_blocks.j_st),
                                  j_rt=np.zeros_like(coarse_blocks.j_rt))
    pre0 = precompute_from_blocks(blocks0)
    design = DesignSpace(solver.rotor0, solver.dm_rt)
    n = solver.cfg.n_angles
    zeros = np.zeros(n)
    adj = solve_adjoints(pre0, solver.winding, zeros, solver.angles, solver.flux_scale)
    u_rt = [reconstruct_state(pre0, a, lam).u_rt
            for a, lam in zip(solver.angles, np.zeros((n, solver.orders.size)))]
    g = assemble_shape_gradient(solver.rotor0, solver.dm_rt, design, u_rt,
                                adj.rotor_fields(), solver.relmap_rt, solver.cfg)
    assert np.array_equal(g, np.zeros_like(g))


@pytest.mark.parametrize("refinement", [0, 1, 2])
def test_design_mask_holds_no_magnet_control_point(refinement):
    # the shape gradient has no magnetization term: it relies on this
    rotor = build_demo_machine(coarse_config(refinement=refinement, n_harmonics=4))[1]
    dm = build_dof_map(rotor)
    design = DesignSpace(rotor, dm)
    magnets = [pid for pid, tag in enumerate(rotor.tags) if tag.kind == "magnet"]
    assert magnets and not set(magnets) & set(design.patch_ids)
    for pid in magnets:
        assert not design.mask[dm.patch_maps[pid].reshape(-1)].any()


def _shape_gradient_oracle(model, dofmap, design, u_rt_list, p_rt_list, relmap):
    """The gradient as per-angle einsum contractions: physical gradients of
    every forward and adjoint field, then T = sum over angles of gu gp^T."""
    from igamotor.assembly import build_patch_tables

    U = dofmap.expand(np.transpose(u_rt_list))
    P = dofmap.expand(np.transpose(p_rt_list))
    g = np.zeros(design.n_dofs)
    n_pts = design.n_points
    for pid in design.patch_ids:
        tag = model.tags[pid]
        tab = build_patch_tables(model.patches[pid])
        gd = dofmap.patch_maps[pid].reshape(-1)[tab.dofs]
        di = design.index[gd]
        gu = np.einsum("eqlc,eln->eqcn", tab.grad, U[gd])
        gp = np.einsum("eqlc,eln->eqcn", tab.grad, P[gd])
        T = np.einsum("eqcn,eqdn->eqcd", gu, gp)
        trT = T[..., 0, 0] + T[..., 1, 1]
        Tsym = T + T.swapaxes(-1, -2)
        nu_w = relmap[tag] * tab.wdet
        contrib = np.zeros(gd.shape + (2,))
        for c in (0, 1):
            contrib[..., c] = np.einsum("eql,eq->el", tab.grad[..., c], nu_w * trT) \
                - np.einsum("eqld,eqd->el", tab.grad, nu_w[..., None] * Tsym[..., :, c])
        valid = di >= 0
        np.add.at(g, di[valid], contrib[..., 0][valid])
        np.add.at(g, n_pts + di[valid], contrib[..., 1][valid])
    return g


def test_gradient_matches_per_angle_einsum_oracle(forward, solver, mats):
    sweep, pre = forward
    rng = np.random.default_rng(11)
    rotor0 = solver.rotor0
    space = DesignSpace(rotor0, solver.dm_rt)
    moved = space.displace(rotor0, 1e-5 * rng.standard_normal(space.n_dofs), 1.0)
    s = thd_sample_sensitivities(sweep.emf_a, sweep.emf_b, sweep.index_set, mats)
    adj = solve_adjoints(pre, solver.winding, s, solver.angles, solver.flux_scale)
    u_rt = pre.rt.y + matvec(pre.rt.X, sweep.lambdas)
    for rotor in (rotor0, moved):
        design = DesignSpace(rotor, solver.dm_rt)
        args = (rotor, solver.dm_rt, design, u_rt, adj.rotor, solver.relmap_rt)
        produced = assemble_shape_gradient(*args)
        expected = _shape_gradient_oracle(*args)
        assert np.abs(expected).max() > 0.0
        assert np.abs(produced - expected).max() < 1e-13 * np.abs(expected).max()
