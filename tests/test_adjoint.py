import tracemalloc

import numpy as np
import pytest

from igamotor.adjoint import (
    AdjointSet,
    assemble_shape_gradient,
    solve_adjoints,
    thd_sample_sensitivities,
)
from igamotor.assembly import build_reluctivity_map
from igamotor.coupling import reconstruct_state, solve_interface, sweep_angles
from igamotor.design import DEFORM_KINDS, DesignSpace
from igamotor.errors import DegenerateSignalError
from igamotor.fourier import build_derivative_dft, emf_spectrum, thd
from igamotor.geometry import build_demo_machine, build_dof_map
from igamotor.linalg import SpdFactorization, factorize, matvec
from igamotor.optim import MachineSolver

from conftest import (
    adjoint_rotor_fields,
    coarse_config,
    edge_nodes,
    field_signs,
    machine_sides,
    zero_source_precompute,
)
from oracles import build_full_matrix, rotation_matrix


@pytest.fixture(scope="module")
def solver():
    return MachineSolver(coarse_config(harmonics_multiple_of_poles=True))


@pytest.fixture(scope="module")
def forward(solver):
    sweep, pre = solver.evaluate(solver.rotor0)
    return sweep, pre


@pytest.fixture(scope="module")
def sides(solver):
    """(K, G, j) of the forward machine's stator and rotor: the
    precomputation keeps none of them."""
    return machine_sides(solver)


@pytest.fixture(scope="module")
def dft(solver):
    return build_derivative_dft(solver.cfg.n_angles)


# ---------------------------------------------------------------- design mask

def test_design_mask_excludes_fixed_regions(solver):
    rotor, dm = solver.rotor0, solver.dm_rt
    design = DesignSpace(rotor, dm)
    # the mask built point by point, each interface edge's (i, j) written
    # out, gives the same mask at refinements 0-2, and the free list and
    # index follow it in the band order of the dof map's free globals
    for refinement in range(3):
        model = build_demo_machine(coarse_config(refinement=refinement))[1]
        model_dm = build_dof_map(model)
        space = DesignSpace(model, model_dm)
        mask = ~model_dm.dirichlet
        for pid, tag in enumerate(model.tags):
            if tag.kind not in DEFORM_KINDS:
                mask[model_dm.patch_maps[pid].reshape(-1)] = False
        for pid, edge in model.interface_edges:
            n_u, n_v = model.patches[pid].n_u, model.patches[pid].n_v
            nodes = {"u0": [(0, j) for j in range(n_v)], "u1": [(n_u - 1, j) for j in range(n_v)],
                     "v0": [(i, 0) for i in range(n_u)], "v1": [(i, n_v - 1) for i in range(n_u)]}
            assert edge_nodes(n_u, n_v, edge) == nodes[edge]
            for i, j in nodes[edge]:
                mask[model_dm.patch_maps[pid][i, j]] = False
        assert mask.tobytes() == space.mask.tobytes()
        free = np.array([g for g in model_dm.free_globals if mask[g]])
        index = np.full(model_dm.n_global, -1, dtype=int)
        index[free] = np.arange(free.size)
        assert free.tobytes() == space.free.tobytes() and index.tobytes() == space.index.tobytes()
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

def test_sensitivity_matches_finite_difference(forward, solver, dft):
    sweep, _ = forward
    s = thd_sample_sensitivities(sweep.emf_a, sweep.emf_b, sweep.index_set, dft)
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


def test_sensitivity_pure_fundamental_and_scaling(dft, solver):
    n = solver.cfg.n_angles
    A = np.zeros(n // 2)
    B = np.zeros(n // 2)
    A[1] = 2.0
    idx = tuple(range(1, n // 2))
    s = thd_sample_sensitivities(A, B, idx, dft)
    assert np.array_equal(s, np.zeros(n))  # non-fundamental sum vanishes
    with pytest.raises(DegenerateSignalError):
        thd_sample_sensitivities(np.zeros(n // 2), np.zeros(n // 2), idx, dft)
    rng = np.random.default_rng(1)
    psi = rng.standard_normal(n)
    A1, B1 = emf_spectrum(psi)
    c = 3.7
    s1 = thd_sample_sensitivities(A1, B1, idx, dft)
    s2 = thd_sample_sensitivities(c * A1, c * B1, idx, dft)
    np.testing.assert_allclose(s2, s1 / c, rtol=1e-12)


# ---------------------------------------------------------------- adjoints

def _stator_adjoint(pre, K_st, solver, s, angles, adj):
    """Stator adjoint fields coef_i K_st^-1 chi + X_st R(alpha_i) lam_i with
    coef_i = -s_i * flux_scale, one row per angle."""
    coef = -np.asarray(s) * solver.flux_scale
    y_chi = factorize(K_st).solve(solver.winding)
    R = rotation_matrix(pre.plan.orders, angles)
    return coef[:, None] * y_chi + matvec(pre.plan.st.X, matvec(R, adj.lambdas))


def test_adjoints_zero_sensitivities_give_zero(forward, solver, sides):
    _, pre = forward
    angles = solver.angles[:4]
    adj = solve_adjoints(pre, solver.winding, np.zeros(4), angles, solver.flux_scale)
    u_st = _stator_adjoint(pre, sides[0][0], solver, np.zeros(4), angles, adj)
    assert np.array_equal(u_st, np.zeros_like(u_st))
    rotor = adjoint_rotor_fields(adj)
    assert np.array_equal(rotor, np.zeros_like(rotor))


def test_adjoint_solves_transposed_system(forward, solver, sides, dft):
    sweep, pre = forward
    s = thd_sample_sensitivities(sweep.emf_a, sweep.emf_b, sweep.index_set, dft)
    adj = solve_adjoints(pre, solver.winding, s, solver.angles, solver.flux_scale)
    u_st = _stator_adjoint(pre, sides[0][0], solver, s, solver.angles, adj)
    rotor = adjoint_rotor_fields(adj)
    for i in (0, 5):
        alpha = solver.angles[i]
        M = build_full_matrix(pre, *sides, alpha)
        asym = (M - M.T).tocoo()
        scale = np.abs(M.data).max()
        assert asym.nnz == 0 or np.abs(asym.data).max() < 1e-12 * scale
        q = np.concatenate([u_st[i], rotor[i], adj.lambdas[i]])
        c = np.concatenate([-s[i] * solver.flux_scale * solver.winding,
                            np.zeros(pre.rt.y.size + pre.plan.orders.size)])
        resid = np.linalg.norm(M @ q - c) / np.linalg.norm(c)
        assert resid < 1e-9


def test_solve_adjoints_needs_no_stator_solve(forward, solver, sides, dft, monkeypatch):
    # G_st^T K_st^-1 chi = X_st^T chi: the old form with its stator solve,
    # then the adjoint with every sparse solve raising
    sweep, pre = forward
    s = thd_sample_sensitivities(sweep.emf_a, sweep.emf_b, sweep.index_set, dft)
    coef = -s * solver.flux_scale
    K_st, G_st, _ = sides[0]
    g_st = coef[:, None] * (G_st.T @ factorize(K_st).solve(solver.winding))
    lambdas = solve_interface(pre, solver.angles, g_st=g_st, g_rt=0)
    rotor = matvec(pre.rt.X, lambdas)

    def no_solve(self, b):
        raise AssertionError("sparse solve in the adjoint")

    monkeypatch.setattr(SpdFactorization, "solve", no_solve)
    adj = solve_adjoints(pre, solver.winding, s, solver.angles, solver.flux_scale)
    for new, old in ((adj.lambdas, lambdas), (adjoint_rotor_fields(adj), rotor)):
        assert np.abs(new - old).max() <= 1e-12 * np.abs(old).max()


def test_adjoint_duality_identity(forward, solver, sides, dft, rng):
    sweep, pre = forward
    s = thd_sample_sensitivities(sweep.emf_a, sweep.emf_b, sweep.index_set, dft)
    adj = solve_adjoints(pre, solver.winding, s, solver.angles, solver.flux_scale)
    delta_j = rng.standard_normal(pre.rt.y.size)
    K_rt, G_rt, _ = sides[1]
    g_pert = G_rt.T @ factorize(K_rt).solve(delta_j)
    # the stator field of the rotor load delta_j alone (no stator load)
    lam_pert = solve_interface(pre, solver.angles, g_st=np.zeros(pre.plan.orders.size),
                               g_rt=g_pert)
    R = rotation_matrix(pre.plan.orders, solver.angles)
    du_st = matvec(pre.plan.st.X, matvec(R, lam_pert))
    rotor = adjoint_rotor_fields(adj)
    lhs = rhs = 0.0
    for i in range(solver.angles.size):
        lhs += s[i] * solver.flux_scale * float(solver.winding @ du_st[i])
        rhs += -float(rotor[i] @ delta_j)
    assert abs(lhs - rhs) / max(abs(rhs), 1e-300) < 1e-8


# ---------------------------------------------------------------- gradient

def _gradient(solver, sweep, pre, dft, design):
    s = thd_sample_sensitivities(sweep.emf_a, sweep.emf_b, sweep.index_set, dft)
    adj = solve_adjoints(pre, solver.winding, s, solver.angles, solver.flux_scale)
    u_rt = [reconstruct_state(pre, a, lam).u_rt
            for a, lam in zip(solver.angles, sweep.lambdas)]
    return assemble_shape_gradient(solver.rotor0, solver.dm_rt, design, u_rt,
                                   adj, solver.relmap_rt)


def test_gradient_matches_end_to_end_finite_difference(forward, solver, dft):
    sweep, pre = forward
    design = DesignSpace(solver.rotor0, solver.dm_rt)
    g = _gradient(solver, sweep, pre, dft, design)
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


def test_gradient_linearity_in_direction(forward, solver, dft, rng):
    sweep, pre = forward
    design = DesignSpace(solver.rotor0, solver.dm_rt)
    g = _gradient(solver, sweep, pre, dft, design)
    w1 = rng.standard_normal(design.n_dofs)
    w2 = rng.standard_normal(design.n_dofs)
    a, b = 2.5, -1.25
    lhs = g @ (a * w1 + b * w2)
    rhs = a * (g @ w1) + b * (g @ w2)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


def test_gradient_zero_outside_deforming_patches(forward, solver, dft):
    sweep, pre = forward
    design = DesignSpace(solver.rotor0, solver.dm_rt)
    air_only = tuple(pid for pid in design.patch_ids
                     if solver.rotor0.tags[pid].kind == "rotor_air")
    design.patch_ids = air_only  # restrict the deforming support
    g = _gradient(solver, sweep, pre, dft, design)
    in_air = np.zeros(solver.dm_rt.n_global, dtype=bool)
    for pid in air_only:
        in_air[solver.dm_rt.patch_maps[pid].reshape(-1)] = True
    iron_only = ~in_air[design.free]
    assert np.array_equal(g[:design.n_points][iron_only], np.zeros(iron_only.sum()))
    assert np.array_equal(g[design.n_points:][iron_only], np.zeros(iron_only.sum()))


def test_gradient_zero_for_zero_sources(forward, solver, sides):
    pre0 = zero_source_precompute(forward[1], *sides)
    design = DesignSpace(solver.rotor0, solver.dm_rt)
    n = solver.cfg.n_angles
    zeros = np.zeros(n)
    adj = solve_adjoints(pre0, solver.winding, zeros, solver.angles, solver.flux_scale)
    u_rt = [reconstruct_state(pre0, a, lam).u_rt
            for a, lam in zip(solver.angles, np.zeros((n, solver.orders.size)))]
    g = assemble_shape_gradient(solver.rotor0, solver.dm_rt, design, u_rt,
                                adj, solver.relmap_rt)
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


def _turn_back(dofmap, pid, dofs, contrib):
    """Turn the (E, L, 2) contributions of the closure copies among the
    element functions ``dofs`` back by the dof map's turn, in place: a copy
    moves by its global point's displacement turned."""
    turned = dofmap.patch_copies[pid].reshape(-1)[dofs]
    contrib[turned] = contrib[turned] @ dofmap.turn


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
        sg = field_signs(dofmap, pid)[tab.dofs][..., None]
        gu = np.einsum("eqlc,eln->eqcn", tab.grad, U[gd] * sg)
        gp = np.einsum("eqlc,eln->eqcn", tab.grad, P[gd] * sg)
        T = np.einsum("eqcn,eqdn->eqcd", gu, gp)
        trT = T[..., 0, 0] + T[..., 1, 1]
        Tsym = T + T.swapaxes(-1, -2)
        nu_w = relmap[tag] * tab.wdet
        contrib = np.zeros(gd.shape + (2,))
        for c in (0, 1):
            contrib[..., c] = np.einsum("eql,eq->el", tab.grad[..., c], nu_w * trT) \
                - np.einsum("eqld,eqd->el", tab.grad, nu_w[..., None] * Tsym[..., :, c])
        _turn_back(dofmap, pid, tab.dofs, contrib)
        valid = di >= 0
        np.add.at(g, di[valid], contrib[..., 0][valid])
        np.add.at(g, n_pts + di[valid], contrib[..., 1][valid])
    return g


def _check_against_einsum_oracle(solver, sweep, pre, dft, bound):
    """The gradient of the initial and of a slightly moved rotor against
    :func:`_shape_gradient_oracle` over the dense adjoint fields, within
    ``bound`` of the largest entry."""
    rng = np.random.default_rng(11)
    rotor0 = solver.rotor0
    space = DesignSpace(rotor0, solver.dm_rt)
    moved = space.displace(rotor0, 1e-5 * rng.standard_normal(space.n_dofs), 1.0)
    s = thd_sample_sensitivities(sweep.emf_a, sweep.emf_b, sweep.index_set, dft)
    adj = solve_adjoints(pre, solver.winding, s, solver.angles, solver.flux_scale)
    u_rt = pre.rt.y + matvec(pre.rt.X, sweep.lambdas)
    for rotor in (rotor0, moved):
        design = DesignSpace(rotor, solver.dm_rt)
        produced = assemble_shape_gradient(rotor, solver.dm_rt, design, u_rt, adj,
                                           solver.relmap_rt)
        expected = _shape_gradient_oracle(rotor, solver.dm_rt, design, u_rt,
                                          adjoint_rotor_fields(adj), solver.relmap_rt)
        assert np.abs(expected).max() > 0.0
        assert np.abs(produced - expected).max() < bound * np.abs(expected).max()


def test_gradient_matches_per_angle_einsum_oracle(forward, solver, dft):
    _check_against_einsum_oracle(solver, *forward, dft, 1e-13)


# about 3x the largest gaps measured: 3.2e-14 at refinement 1 and 1.0e-13
# at refinement 2
@pytest.mark.parametrize("refinement, bound", [(1, 1e-13), (2, 3e-13)])
def test_gradient_matches_per_angle_einsum_oracle_refined(refinement, bound):
    solver = MachineSolver(coarse_config(refinement=refinement,
                                         harmonics_multiple_of_poles=True))
    sweep, pre = solver.evaluate(solver.rotor0)
    _check_against_einsum_oracle(solver, sweep, pre,
                                 build_derivative_dft(solver.cfg.n_angles), bound)


def _shape_gradient_per_patch_oracle(model, dofmap, design, u_rt_list, adjoints, relmap):
    """The per-patch form of ``assemble_shape_gradient``: one
    ``build_patch_tables`` and one stack of rank-n_h element products
    Z_e X_e^T per design patch, summed by ``np.bincount`` in patch order.
    Batching patches must not change a bit."""
    from igamotor.assembly import build_patch_tables

    Z = dofmap.expand(np.asarray(u_rt_list).T @ adjoints.lambdas)
    X = dofmap.expand(adjoints.X_rt)
    targets, contribs = [], []
    for pid in design.patch_ids:
        tab = build_patch_tables(model.patches[pid])
        gd = dofmap.patch_maps[pid].reshape(-1)[tab.dofs]
        di = design.index[gd]
        valid = di >= 0
        if not valid.any():
            continue
        n_el, n_q, n_loc = tab.val.shape
        A = tab.grad.transpose(0, 2, 1, 3).reshape(n_el, n_loc, 2 * n_q)
        sg = field_signs(dofmap, pid)[tab.dofs]
        C = (Z[gd] @ X[gd].transpose(0, 2, 1)) * (sg[:, :, None] * sg[:, None, :])
        CA = (C @ A).reshape(n_el, n_loc, n_q, 2).transpose(0, 2, 1, 3)
        T = tab.grad.transpose(0, 1, 3, 2) @ CA
        trT = T[..., 0, 0] + T[..., 1, 1]
        M = -(T + T.transpose(0, 1, 3, 2))
        M[..., 0, 0] += trT
        M[..., 1, 1] += trT
        M *= (relmap[model.tags[pid]] * tab.wdet)[..., None, None]
        contrib = A @ M.reshape(n_el, 2 * n_q, 2)
        _turn_back(dofmap, pid, tab.dofs, contrib)
        targets.append(di[valid])
        contribs.append(contrib[valid])
    targets, contribs = np.concatenate(targets), np.concatenate(contribs)
    return np.concatenate([np.bincount(targets, weights=contribs[:, c],
                                       minlength=design.n_points) for c in (0, 1)])


def _demo_rotor(refinement):
    """(rotor, dof map, reluctivity map, design space) of the demo rotor."""
    cfg = coarse_config(refinement=refinement)
    _, rotor = build_demo_machine(cfg)
    dm = build_dof_map(rotor)
    return rotor, dm, build_reluctivity_map(rotor, cfg), DesignSpace(rotor, dm)


def _random_adjoints(rng, n_angles, n_free, n_h=6):
    """An ``AdjointSet`` of random coefficients and a random Fortran-order
    X_rt, the layout of the rotor's precompute."""
    return AdjointSet(rng.standard_normal((n_angles, n_h)),
                      np.asfortranarray(rng.standard_normal((n_free, n_h))))


@pytest.mark.parametrize("refinement", [0, 2])
def test_gradient_equals_per_patch_loop_bitwise(refinement):
    rotor, dm, relmap, space = _demo_rotor(refinement)
    rng = np.random.default_rng(12)
    moved = space.displace(rotor, 1e-5 * rng.standard_normal(space.n_dofs), 1.0)
    u_rt = rng.standard_normal((5, dm.n_free))
    adjoints = _random_adjoints(rng, 5, dm.n_free)
    for model in (rotor, moved):
        args = (model, dm, DesignSpace(model, dm), u_rt, adjoints, relmap)
        assert np.array_equal(assemble_shape_gradient(*args),
                              _shape_gradient_per_patch_oracle(*args))


def test_harness_form_equals_stacked_call_bitwise(forward, solver, dft):
    # the benchmark passes one reconstructed row per angle, the adjoint set
    # through ``rotor_fields()`` and the config; the optimizer the stacked
    # rows and the set
    sweep, pre = forward
    design = DesignSpace(solver.rotor0, solver.dm_rt)
    s = thd_sample_sensitivities(sweep.emf_a, sweep.emf_b, sweep.index_set, dft)
    adj = solve_adjoints(pre, solver.winding, s, solver.angles, solver.flux_scale)
    stacked = assemble_shape_gradient(solver.rotor0, solver.dm_rt, design,
                                      reconstruct_state(pre, sweep.angles, sweep.lambdas).u_rt,
                                      adj, solver.relmap_rt)
    u_rt = [reconstruct_state(pre, a, lam).u_rt for a, lam in zip(sweep.angles, sweep.lambdas)]
    harness = assemble_shape_gradient(solver.rotor0, solver.dm_rt, design, u_rt,
                                      adj.rotor_fields(), solver.relmap_rt, solver.cfg)
    assert np.abs(stacked).max() > 0.0
    assert np.array_equal(harness, stacked)


def test_gradient_peak_memory_does_not_grow_with_angles():
    # the angles are summed into Z = U^T Lam before any element gather, so
    # doubling them adds nothing to the gradient's own allocations
    rotor, dm, relmap, design = _demo_rotor(1)
    rng = np.random.default_rng(13)
    peaks = []
    for n_angles in (240, 240, 480):       # the first call warms the plan
        u_rt = rng.standard_normal((n_angles, dm.n_free))
        adjoints = _random_adjoints(rng, n_angles, dm.n_free)
        tracemalloc.start()
        try:
            assemble_shape_gradient(rotor, dm, design, u_rt, adjoints, relmap)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[2] <= peaks[1] * 1.05, peaks


def test_gradient_refuses_mismatched_forward_rows():
    rotor, dm, relmap, design = _demo_rotor(0)
    rng = np.random.default_rng(14)
    adjoints = _random_adjoints(rng, 5, dm.n_free)
    for shape in ((4, dm.n_free), (6, dm.n_free), (5, dm.n_free + 1), (5, dm.n_free - 1)):
        with pytest.raises(ValueError):
            assemble_shape_gradient(rotor, dm, design, rng.standard_normal(shape),
                                    adjoints, relmap)
