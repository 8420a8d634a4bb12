import functools
import gc
import json
import types
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import Phase, given, settings, strategies as st

from igamotor import optim
from igamotor.assembly import assemble_vector_metric, detj_quadratic
from igamotor.cli import main
from igamotor.design import DesignSpace
from igamotor.errors import ConfigError, DegenerateSignalError
from igamotor.geometry import (
    MachineConfig,
    MultipatchModel,
    build_demo_machine,
    build_dof_map,
    check_mesh_validity,
)
from igamotor.linalg import DENSE_MAX_N, BlochModes, SpdFactorization, factorize
from igamotor.optim import (
    LineSearchResult,
    MachineSolver,
    OptimizerConfig,
    descent_field,
    detj_screen,
    line_search,
    run_optimization,
    stator_modes,
)

from conftest import coarse_config, edge_nodes, machine_sides
from oracles import OracleStabilityError, verify_products


def opt_cfg(**kw):
    return OptimizerConfig(**kw)


def test_descent_field_identities(coarse_machine, coarse_dofmaps, rng):
    _, rotor = coarse_machine
    _, dm_rt = coarse_dofmaps
    design = DesignSpace(rotor, dm_rt)
    n = design.n_dofs
    eye = sp.identity(design.n_points, dtype=complex, format="csc")   # a Hermitian metric
    assert np.array_equal(descent_field(np.zeros(n), eye), np.zeros(n))
    g = rng.standard_normal(n)
    np.testing.assert_allclose(descent_field(g, eye), g, atol=1e-14)
    H = assemble_vector_metric(rotor, dm_rt, design.mask)
    W = descent_field(g, H)
    m = design.n_points
    HW = H @ (W[:m] + 1j * W[m:])
    BW = np.concatenate([HW.real, HW.imag])      # the real form's product
    assert g @ W > 0.0
    assert abs(g @ W - W @ BW) < 1e-8 * abs(g @ W)
    # the pitch's metric couples x and y at the closure; W solves it whole
    assert abs(H.imag).max() > 0.0
    assert np.abs(BW - g).max() < 1e-10 * np.abs(g).max()


def test_descent_field_matches_block_diagonal_metric(coarse_cfg, rng):
    # the full ring has no turned closure: its metric is the real scalar H,
    # and the complex solve matches the solves of the x and y halves with H
    _, rotor = build_demo_machine(coarse_cfg, 2 * coarse_cfg.pole_pairs)
    dm_rt = build_dof_map(rotor)
    design = DesignSpace(rotor, dm_rt)
    M = assemble_vector_metric(rotor, dm_rt, design.mask)
    n = design.n_points
    assert M.shape == (n, n) and not M.imag.data.any()
    H = M.real
    g = rng.standard_normal(design.n_dofs)
    ref = np.concatenate([factorize(H).solve(g[:n]), factorize(H).solve(g[n:])])
    W = descent_field(g, M)
    assert np.abs(W - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("refinement", [0, 1, 2])
def test_descent_field_matches_real_form_solve_on_the_pitch(refinement, rng):
    # the Hermitian solve equals the solve of the real (2 n, 2 n) form
    # [[A, B], [-B, A]] of H = A - iB on the stacked [x; y]
    _, rotor = build_demo_machine(coarse_config(refinement=refinement))
    dm_rt = build_dof_map(rotor)
    design = DesignSpace(rotor, dm_rt)
    H = assemble_vector_metric(rotor, dm_rt, design.mask)
    A, B = H.real, -H.imag
    assert B.count_nonzero() > 0
    g = rng.standard_normal(design.n_dofs)
    ref = factorize(sp.bmat([[A, B], [-B, A]], format="csr")).solve(g)
    W = descent_field(g, H)
    assert np.abs(W - ref).max() <= 1e-13 * np.abs(ref).max()


def test_descent_field_rejects_mismatched_gradient(coarse_machine, coarse_dofmaps):
    _, rotor = coarse_machine
    _, dm_rt = coarse_dofmaps
    design = DesignSpace(rotor, dm_rt)
    H = assemble_vector_metric(rotor, dm_rt, design.mask)
    for n in (design.n_points, design.n_dofs - 1, design.n_dofs + 2):
        with pytest.raises(ValueError):
            descent_field(np.ones(n), H)


class QuadraticEvaluator:
    """Stand-in machine solver: J = ||points - target||^2 over moved dofs."""

    def __init__(self, design, model, target):
        self.design = design
        self.model0 = model
        self.target = target

    def current(self, model):
        pts = []
        for pid in self.design.patch_ids:
            pts.append(model.patches[pid].points.reshape(-1, 2))
        return np.concatenate(pts)

    def evaluate(self, model):
        value = float(((self.current(model) - self.target) ** 2).sum())

        class Sweep:
            thd = value
        return Sweep(), None


def _single_patch_design():
    from igamotor.geometry import MultipatchModel, RegionTag
    from igamotor.splines import KnotVector, NurbsPatch
    kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
    grev = np.array([0.0, 0.5, 1.0])
    pts = np.stack(np.meshgrid(grev, grev, indexing="ij"), axis=-1)
    model = MultipatchModel([NurbsPatch(kv, kv, pts, np.ones((3, 3)))],
                            [RegionTag("rotor_air")])
    dm = build_dof_map(model)
    return model, dm, DesignSpace(model, dm)


def _toy_hand_analysis():
    model, dm, design = _single_patch_design()
    pts0 = model.patches[0].points.reshape(-1, 2)
    target = pts0 + np.array([0.05, -0.02])   # optimum: rigid shift
    ev = QuadraticEvaluator(design, model, target)
    # steepest descent in coefficient space: W = grad J = 2 (P - P*)
    diff = pts0 - target
    W = np.concatenate([2 * diff[design.free, 0], 2 * diff[design.free, 1]])
    return ev, design, model, ev.evaluate(model)[0].thd, W, 0.0, opt_cfg()


def _toy_folding():
    model, dm, design = _single_patch_design()
    _, min_det0 = check_mesh_validity(model, 0.0)
    pts0 = model.patches[0].points.reshape(-1, 2)
    target = pts0 + np.array([0.8, 0.0])      # delta=1 folds the patch
    ev = QuadraticEvaluator(design, model, target)
    diff = pts0 - target
    W = np.concatenate([2 * diff[design.free, 0], 2 * diff[design.free, 1]])
    return ev, design, model, ev.evaluate(model)[0].thd, W, 1e-3 * min_det0, opt_cfg()


def _toy_below_floor():
    model, dm, design = _single_patch_design()
    ev = QuadraticEvaluator(design, model, model.patches[0].points.reshape(-1, 2))
    # already optimal: no decrease possible
    return (ev, design, model, ev.evaluate(model)[0].thd, np.ones(design.n_dofs), 0.0,
            opt_cfg(delta_floor=2.0 ** -6))


def test_line_search_quadratic_toy_matches_hand_analysis():
    ev, design, model, J0, W, eps, opt = _toy_hand_analysis()
    result = line_search(ev, design, model, J0, W, eps_jacobian=eps, opt=opt)
    # J((1 - 2 d) ** 2 scaling): d = 1 overshoots to J0 (no decrease), d = 1/2 exact
    assert result is not None and result.delta == 0.5
    assert result.objective < 1e-25
    # halving W doubles the accepted step onto the same geometry
    result2 = line_search(ev, design, model, J0, 0.5 * W, eps_jacobian=eps, opt=opt)
    assert result2.delta == 2 * result.delta
    assert result2.objective == result.objective
    for a, b in zip(result.rotor.patches, result2.rotor.patches):
        assert np.array_equal(a.points, b.points)


def test_line_search_halves_until_mesh_valid():
    ev, design, model, J0, W, eps, opt = _toy_folding()
    result = line_search(ev, design, model, J0, W, eps_jacobian=eps, opt=opt)
    assert result is not None and result.delta < 1.0
    ok, min_det = check_mesh_validity(result.rotor, eps)
    assert ok and min_det > eps


def test_line_search_rejection_below_floor():
    ev, design, model, J0, W, eps, opt = _toy_below_floor()
    assert line_search(ev, design, model, J0, W, eps_jacobian=eps, opt=opt) is None


# ---------------------------------------------------------------- det J screen

def unscreened_line_search(solver, design, rotor, objective, W, eps_jacobian, opt):
    """Oracle: the plain halving loop, which displaces, checks and (when
    valid) evaluates every step of the ladder."""
    delta = 1.0
    while delta >= opt.delta_floor:
        trial = design.displace(rotor, W, delta)
        ok, min_detj = check_mesh_validity(trial, eps_jacobian)
        if ok:
            sweep, pre = solver.evaluate(trial)
            if sweep.thd < objective:
                return LineSearchResult(delta, trial, sweep.thd, sweep, pre, min_detj)
        delta *= 0.5
    return None


def assert_same_step(result, oracle):
    if oracle is None:
        assert result is None
        return
    assert result.delta == oracle.delta
    assert result.objective == oracle.objective
    assert result.min_detj == oracle.min_detj
    for a, b in zip(result.rotor.patches, oracle.rotor.patches, strict=True):
        assert np.array_equal(a.points, b.points)


@pytest.mark.parametrize("case", [_toy_hand_analysis, _toy_folding, _toy_below_floor])
def test_screened_line_search_equals_unscreened_on_toys(case):
    args = case()
    assert_same_step(line_search(*args), unscreened_line_search(*args))


ACCEPTANCE_CFG = MachineConfig(refinement=0, n_harmonics=12, n_angles=60,
                               harmonics_multiple_of_poles=True)


def test_screened_line_search_equals_unscreened_on_demo_trajectory(monkeypatch):
    # to termination: late iterates sit just above the validity floor
    steps = []

    def both(*args):
        result = line_search(*args)
        assert_same_step(result, unscreened_line_search(*args))
        steps.append(None if result is None else result.delta)
        return result

    monkeypatch.setattr(optim, "line_search", both)
    state = run_optimization(ACCEPTANCE_CFG, opt_cfg())
    assert steps[:3] == [row[2] for row in LOCKED_TRAJECTORY[1:]]
    assert state.iteration >= 3 and len(steps) >= state.iteration


def test_demo_optimization_checks_only_the_steps_it_takes(monkeypatch):
    # every mesh check past the initial one is a trial rotor the line
    # search built; a screened step is never built
    calls = []
    real = optim.check_mesh_validity

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(optim, "check_mesh_validity", counted)
    state = run_optimization(ACCEPTANCE_CFG, opt_cfg())
    assert state.iteration >= 3 and state.reason in ("tol", "no_progress")
    assert len(calls) <= state.iteration + 1


def _design_min_detj(model, design):
    """check_mesh_validity's minimum over the design patches alone."""
    sub = MultipatchModel([model.patches[p] for p in design.patch_ids],
                          [model.tags[p] for p in design.patch_ids])
    return check_mesh_validity(sub, 0.0)[1]


@functools.lru_cache(maxsize=None)
def coarse_rotor_design():
    # built here, not taken from fixtures, so that a failing example's
    # report shows the drawn numbers only
    _, rotor = build_demo_machine(coarse_config())
    return rotor, DesignSpace(rotor, build_dof_map(rotor))


@given(seed=st.integers(0, 2 ** 32 - 1), log_scale=st.floats(-5.0, -0.5),
       k=st.integers(0, 20))
# no explain phase: it traces every line of the machine code and takes
# minutes to report a failure
@settings(max_examples=40, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
def test_detj_screen_bounds_the_direct_check(seed, log_scale, k):
    rotor, design = coarse_rotor_design()
    W = 10.0 ** log_scale * np.random.default_rng(seed).standard_normal(design.n_dofs)
    delta = 2.0 ** -k
    a, b, c, margin = detj_screen(design, rotor, W)
    quad = a - delta * b + delta * delta * c
    trial = design.displace(rotor, W, delta)
    direct = _design_min_detj(trial, design)
    patches = [trial.patches[p] for p in design.patch_ids]
    moved = detj_quadratic(patches, [np.zeros(p.points.shape) for p in patches], None)[0]
    # scalars only below, so that a failure report stays small
    screened = float((quad + margin).min())    # what the line search skips on
    unscreened = float(quad.min())
    widest = float(margin.max())
    pointwise_excess = float((np.abs(quad - moved) - margin).max())
    floor_ratio = widest / float(a.min())
    assert screened >= direct                  # an upper bound of the direct minimum
    assert abs(unscreened - direct) <= widest
    # pointwise, against the direct det J of every moved design patch
    assert pointwise_excess <= 0.0
    # and the margin is far below the validity floor (1e-3 min det J)
    assert floor_ratio < 1e-6


def test_detj_screen_forms_no_coefficients_off_the_design_patches(
        coarse_machine, coarse_dofmaps, monkeypatch, rng):
    _, rotor = coarse_machine
    _, dm_rt = coarse_dofmaps
    design = DesignSpace(rotor, dm_rt)
    W = 1e-3 * rng.standard_normal(design.n_dofs)
    seen = []
    real = optim.detj_quadratic

    def recorded(patches, disps, plan):
        seen.extend(patches)
        return real(patches, disps, plan)

    monkeypatch.setattr(optim, "detj_quadratic", recorded)
    a, b, c, margin = detj_screen(design, rotor, W)
    assert [id(p) for p in seen] == [id(rotor.patches[p]) for p in design.patch_ids]
    assert 0 < len(design.patch_ids) < len(rotor.patches)
    # 3 x 3 Gauss points per element, one element per patch at refinement 0
    assert a.size == b.size == c.size == margin.size == 9 * len(design.patch_ids)
    # the premise: displace shares every other patch
    trial = design.displace(rotor, W, 1.0)
    for pid, patch in enumerate(rotor.patches):
        if pid not in design.patch_ids:
            assert trial.patches[pid] is patch


def test_optimizer_config_validation():
    with pytest.raises(ConfigError):
        opt_cfg(tol=-1.0)
    with pytest.raises(ConfigError):
        opt_cfg(delta_floor=0.0)


def test_optimizer_config_rejects_delta_floor_above_first_step(tmp_path):
    # the line search starts at delta = 1: a higher floor would try no step
    assert opt_cfg(delta_floor=1.0).delta_floor == 1.0
    with pytest.raises(ConfigError):
        opt_cfg(delta_floor=2.0)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"optimizer": {"delta_floor": 2.0}}))
    assert main(["optimize", "--config", str(cfg_path)]) == 2


def test_run_optimization_zero_iterations():
    cfg = coarse_config(harmonics_multiple_of_poles=True)
    state = run_optimization(cfg, opt_cfg(max_iterations=0))
    assert state.iteration == 0
    assert len(state.history) == 1
    assert state.reason == "max_iterations"


def test_run_optimization_short_run_contracts():
    cfg = coarse_config(harmonics_multiple_of_poles=True)
    state = run_optimization(cfg, opt_cfg(max_iterations=3))
    values = [h[1] for h in state.history]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert state.objective == values[-1]
    # fixed regions bit-identical: magnets and interface row
    solver = MachineSolver(cfg)
    rotor0 = solver.rotor0
    for pid, tag in enumerate(rotor0.tags):
        if tag.kind == "magnet":
            assert np.array_equal(state.rotor.patches[pid].points,
                                  rotor0.patches[pid].points)
    for pid, edge in rotor0.interface_edges:
        patch = rotor0.patches[pid]
        for i, j in edge_nodes(patch.n_u, patch.n_v, edge):
            assert np.array_equal(state.rotor.patches[pid].points[i, j],
                                  patch.points[i, j])
    # accepted iterates keep a valid mesh
    for _, _, _, min_det in state.history:
        assert min_det > 0.0
    # descent certificate on the last computed direction
    assert state.gradient @ state.descent > 0.0


# history rows (iteration, THD, step, min det J) of the first three iterations
# on the acceptance-6 configuration, recorded before the space-table cache
# was introduced; a change of trajectory shows up here first
LOCKED_TRAJECTORY = [
    (0, 0.18476981858838099, 0.0, 1.973747362519722e-05),
    (1, 0.13353844690131472, 0.0078125, 4.690347008207329e-06),
    (2, 0.13001526223842588, 0.00390625, 2.0905113318426244e-06),
    (3, 0.1285299397508302, 0.0078125, 3.6544321501894504e-07),
]


def test_run_optimization_trajectory_is_locked():
    state = run_optimization(ACCEPTANCE_CFG, opt_cfg(max_iterations=3))
    assert len(state.history) == len(LOCKED_TRAJECTORY)
    for row, locked in zip(state.history, LOCKED_TRAJECTORY):
        assert row[0] == locked[0]
        assert row[2] == locked[2]            # steps are powers of two
        np.testing.assert_allclose(row[1], locked[1], rtol=1e-12, atol=0.0)
        # det J of the most compressed element cancels: the BLAS thread
        # count alone moves it by 2e-12 relative at iteration 3
        np.testing.assert_allclose(row[3], locked[3], rtol=1e-10, atol=0.0)


def test_run_optimization_rejects_loaded_machine():
    cfg = coarse_config(current_amplitude=1.0, harmonics_multiple_of_poles=True)
    with pytest.raises(ConfigError):
        run_optimization(cfg, opt_cfg(max_iterations=1))


def test_run_optimization_refuses_round_off_thd():
    # integer orders on the CI config: the initial THD is 2.96e-15
    cfg = coarse_config()
    with pytest.raises(DegenerateSignalError) as err:
        run_optimization(cfg, opt_cfg(max_iterations=2))
    state = err.value.partial_state
    assert state.reason == "error" and state.iteration == 0
    assert len(state.history) == 1 and state.history[0][1] < optim.THD_ROUNDOFF


def test_line_search_trial_rotors_build_no_space_tables(monkeypatch):
    # after the first rotor, every trial rotor is grouped and scattered from
    # the rotor dof map's plan: no space-table lookup, hit or miss
    from igamotor import assembly

    lookups, trials = [], []
    real_space, real_displace = assembly._space_tables, DesignSpace.displace

    def space_tables(*args):
        lookups.append(len(trials))
        return real_space(*args)

    def displace(self, *args):
        trials.append(None)
        return real_displace(self, *args)

    monkeypatch.setattr(assembly, "_space_tables", space_tables)
    monkeypatch.setattr(DesignSpace, "displace", displace)
    state = run_optimization(ACCEPTANCE_CFG, opt_cfg(max_iterations=3))
    assert state.iteration == 3 and len(trials) >= 3
    assert lookups and max(lookups) == 0


def test_displace_gathers_bitwise_and_shares_the_parent_space(coarse_machine, coarse_dofmaps, rng):
    _, rotor = coarse_machine
    _, dm_rt = coarse_dofmaps
    design = DesignSpace(rotor, dm_rt)
    W = rng.standard_normal(design.n_dofs)
    for base in (rotor, design.displace(rotor, 1e-4 * W, 1.0)):
        delta = 3e-5
        moved = design.displace(base, W, delta)
        disp = design.displacement(W)
        turned = 0
        for pid, (parent, patch) in enumerate(zip(base.patches, moved.patches)):
            if pid not in design.patch_ids:
                assert patch is parent
                continue
            # a closure copy moves by its global point's displacement turned
            step = disp[dm_rt.patch_maps[pid]]
            copies = dm_rt.patch_copies[pid]
            if copies.any():
                step[copies] = step[copies] @ dm_rt.turn.T
                turned += int(np.abs(step[copies]).max() > 0.0)
            expected = parent.points - delta * step
            assert np.array_equal(patch.points, expected)
            assert patch.knots_u is parent.knots_u and patch.knots_v is parent.knots_v
            assert patch.weights is parent.weights
            assert not patch.points.flags.writeable
        assert turned
    with pytest.raises(ValueError):
        rotor.patches[0].with_points(np.zeros((2, 2, 2)))


def test_forward_rotor_fields_are_freed_before_the_line_search(monkeypatch):
    # the n_angles x n_free forward rotor fields are read only by the shape
    # gradient: nothing may keep them through the metric and the line search
    received = []
    real_gradient, real_search = optim.assemble_shape_gradient, optim.line_search

    def gradient(model, dofmap, design, u_rt, *rest):
        received.append(weakref.ref(u_rt))
        return real_gradient(model, dofmap, design, u_rt, *rest)

    def search(*args):
        gc.collect()
        assert received[-1]() is None
        return real_search(*args)

    monkeypatch.setattr(optim, "assemble_shape_gradient", gradient)
    monkeypatch.setattr(optim, "line_search", search)
    state = run_optimization(coarse_config(harmonics_multiple_of_poles=True),
                             opt_cfg(max_iterations=2))
    assert state.iteration == 2 and len(received) == 2


def _reachable(*roots):
    """Every object reachable from ``roots`` through ``gc.get_referents``,
    not entering classes, modules or functions (whose globals reach
    everything)."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen, found, stack = set(), [], list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


@pytest.fixture(scope="module")
def solver_r1():
    return MachineSolver(coarse_config(refinement=1, harmonics_multiple_of_poles=True))


def _factor_shape(K):
    """The shape of the factor array ``factorize(K)`` holds: (n, n) dense up
    to DENSE_MAX_N rows, the (kd + 1, n) band above."""
    n = K.shape[0]
    if n <= DENSE_MAX_N:
        return (n, n)
    coo = K.tocoo()
    return (int((coo.row - coo.col).max()) + 1, n)


def test_no_sparse_factorization_is_retained(solver_r1):
    # each K is factored for one solve of [G j]: neither the machine nor an
    # evaluated rotor keeps a factorization, its factor array or K itself
    # (at refinement 1 the rotor's 81 rows are factored densely, and the
    # stator's 162 would be in their band), nor the stator's Bloch modes,
    # their matrices or their factors (54 rows each, dense)
    result = solver_r1.evaluate(solver_r1.rotor0)
    objects = _reachable(solver_r1, result)
    assert any(obj is result[1].rt.X for obj in objects)     # the walk reaches the products
    factors = {_factor_shape(K) for K, _, _ in machine_sides(solver_r1)}
    assert sorted(rows == cols for rows, cols in factors) == [False, True]    # one of each
    modes = stator_modes(solver_r1.stator, solver_r1.dm_st, solver_r1.cfg)
    assert {_factor_shape(K) for K in modes.matrices} == {(54, 54)}
    factors |= {_factor_shape(K) for K in modes.matrices}
    assert not [obj for obj in objects if isinstance(obj, (SpdFactorization, BlochModes))]
    assert not [obj for obj in objects
                if isinstance(obj, np.ndarray) and obj.shape in factors]
    assert not [obj for obj in objects if sp.issparse(obj)]


def test_verify_detects_a_corrupted_product(solver_r1):
    # the oracle factors each K itself, so it still sees drift in the stored X
    _, pre = solver_r1.evaluate(solver_r1.rotor0)
    sides = machine_sides(solver_r1)
    assert verify_products(pre, *sides) < 1e-12
    pre.rt.X[3, 2] += 1e-9 * np.abs(pre.rt.X).max()
    with pytest.raises(OracleStabilityError):
        verify_products(pre, *sides)
