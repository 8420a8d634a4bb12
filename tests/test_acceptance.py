"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured figure.  Tolerances are fixed here, not calibrated elsewhere.

The demo-machine optimization outcome (criterion 6) is regression-locked to
the values recorded on the first verified run of this suite.
"""
import statistics
import time

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from igamotor.assembly import assemble_stiffness
from igamotor.coupling import (
    solve_at_angle,
    solve_interface,
    sweep_angles,
)
from igamotor.fourier import default_index_set, emf_spectrum, thd
from igamotor.geometry import (
    MachineConfig,
    RegionTag,
    build_demo_machine,
    build_dof_map,
)
from igamotor.optim import MachineSolver, OptimizerConfig, run_optimization
from igamotor.splines import (
    KnotVector,
    bspline_basis_table,
    eval_patch,
    insert_knots,
    make_arc_patch,
)

from conftest import curve_points, edge_nodes, machine_sides
from oracles import assemble_full_saddle, assemble_load, l2_error

# Criterion 6 regression lock, recorded on the first verified run of this
# suite (coarse refinement, n_harmonics=12 restricted to pole multiples,
# n_angles=60): THD 0.18476982 -> 0.12815720 in 11 iterations (tol rule).
LOCKED_INITIAL_THD = 0.184769819
LOCKED_FINAL_RATIO = 0.6936  # achieved final/initial; locked with 2% slack


def _report(number, name, detail):
    print("ACCEPTANCE %d (%s): PASS (%s)" % (number, name, detail))


def _machine_precompute(cfg):
    """Dof maps, precomputation and the stator's and rotor's (K, G, j) that
    the full-system oracle reads."""
    solver = MachineSolver(cfg)
    return (solver.dm_st, solver.dm_rt, solver.precompute(solver.rotor0),
            machine_sides(solver))


def test_acceptance_1_schur_equals_full_system():
    t0 = time.perf_counter()
    cfg = MachineConfig(refinement=0, n_harmonics=12, n_angles=12)
    _, _, pre, sides = _machine_precompute(cfg)
    worst = 0.0
    for alpha in sweep_angles(cfg.pole_pairs, 8):
        full = assemble_full_saddle(pre, *sides, float(alpha))
        fast = solve_at_angle(pre, float(alpha))
        num = np.linalg.norm(np.concatenate([fast.u_st - full.u_st,
                                             fast.u_rt - full.u_rt]))
        den = np.linalg.norm(np.concatenate([full.u_st, full.u_rt]))
        worst = max(worst, num / den)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10, "relative interface/full mismatch %.3e" % worst
    assert elapsed < 30.0, "runtime %.1fs exceeds 30s" % elapsed
    _report(1, "interface elimination equals full system",
            "max rel diff %.2e over 8 angles, %.1fs" % (worst, elapsed))


def test_acceptance_2_gradient_matches_finite_differences():
    from igamotor.adjoint import (assemble_shape_gradient, solve_adjoints,
                                  thd_sample_sensitivities)
    from igamotor.coupling import reconstruct_state
    from igamotor.design import DesignSpace
    from igamotor.fourier import build_derivative_dft

    t0 = time.perf_counter()
    cfg = MachineConfig(refinement=0, n_harmonics=12, n_angles=12,
                        harmonics_multiple_of_poles=True)
    solver = MachineSolver(cfg)
    design = DesignSpace(solver.rotor0, solver.dm_rt)
    sweep, pre = solver.evaluate(solver.rotor0)
    mats = build_derivative_dft(cfg.n_angles)
    sens = thd_sample_sensitivities(sweep.emf_a, sweep.emf_b, sweep.index_set, mats)
    adj = solve_adjoints(pre, solver.winding, sens, solver.angles, solver.flux_scale)
    u_rt = [reconstruct_state(pre, a, lam).u_rt
            for a, lam in zip(solver.angles, sweep.lambdas)]
    gradient = assemble_shape_gradient(solver.rotor0, solver.dm_rt, design, u_rt,
                                       adj, solver.relmap_rt)
    rng = np.random.default_rng(20240817)
    directions = rng.choice(design.n_dofs, size=5, replace=False)
    steps = [10.0 ** (-k) * cfg.r_interface for k in range(4, 9)]
    # control points on the machine's mirror-symmetry axes have exactly zero
    # derivative; the floor keeps the relative measure meaningful against
    # finite-difference noise in those directions
    floor = 1e-3 * np.abs(gradient).max()
    worst_best = 0.0
    for m in directions:
        w = np.zeros(design.n_dofs)
        w[m] = 1.0
        best = np.inf
        for h in steps:
            plus = solver.evaluate(design.displace(solver.rotor0, w, -h))[0].thd
            minus = solver.evaluate(design.displace(solver.rotor0, w, h))[0].thd
            fd = (plus - minus) / (2 * h)
            best = min(best, abs(fd - gradient[m])
                       / max(abs(fd), abs(gradient[m]), floor))
        worst_best = max(worst_best, best)
        assert best < 1e-4, "direction %d best FD mismatch %.3e" % (m, best)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, "runtime %.1fs exceeds 300s" % elapsed
    _report(2, "adjoint gradient vs end-to-end finite differences",
            "worst best-step rel error %.2e over 5 directions, %.1fs"
            % (worst_best, elapsed))


def test_acceptance_3_manufactured_convergence_order():
    from igamotor.geometry import MultipatchModel
    from igamotor.splines import NurbsPatch

    t0 = time.perf_counter()
    exact = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    source = lambda x, y: 2 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)
    errors = []
    for n_el in (4, 8, 16):
        knots = [0.0, 0.0, 0.0] + [i / n_el for i in range(1, n_el)] + [1.0, 1.0, 1.0]
        kv = KnotVector(knots, 2)
        grev = np.array([kv.knots[i + 1:i + 3].mean() for i in range(kv.n)])
        pts = np.stack(np.meshgrid(grev, grev, indexing="ij"), axis=-1)
        model = MultipatchModel([NurbsPatch(kv, kv, pts, np.ones((kv.n, kv.n)))],
                                [RegionTag("rotor_air")],
                                dirichlet_edges=[(0, e) for e in ("u0", "u1", "v0", "v1")])
        dm = build_dof_map(model)
        K = assemble_stiffness(model, dm, {RegionTag("rotor_air"): 1.0})
        F = assemble_load(model, dm, source, n_gauss=6)
        u = spla.spsolve(K.tocsc(), F)
        errors.append(l2_error(model, dm, u, exact, n_gauss=6)[0])
    rates = [float(np.log2(errors[i] / errors[i + 1])) for i in range(2)]
    elapsed = time.perf_counter() - t0
    for rate in rates:
        assert abs(rate - 3.0) < 0.2, "L2 rate %.3f outside 3.0 +- 0.2" % rate
    assert elapsed < 60.0, "runtime %.1fs exceeds 60s" % elapsed
    _report(3, "manufactured solution L2 order", "rates %s, %.1fs"
            % (["%.3f" % r for r in rates], elapsed))


def test_acceptance_4_online_cost_scaling():
    levels = (1, 2, 3)
    states = {}
    for level in levels:
        cfg = MachineConfig(refinement=level, n_harmonics=20, n_angles=12)
        dm_st, dm_rt, pre, sides = _machine_precompute(cfg)
        angles = sweep_angles(cfg.pole_pairs, 8)
        solve_interface(pre, angles)  # warmup
        states[level] = (dm_st.n_free + dm_rt.n_free, pre, angles, sides)
    interface_times = {level: [] for level in levels}
    for _ in range(5):  # interleaved to wash out drift
        for level in levels:
            _, pre, angles, _ = states[level]
            for alpha in angles:
                t0 = time.perf_counter()
                solve_interface(pre, alpha)
                interface_times[level].append(time.perf_counter() - t0)
    medians = {level: statistics.median(interface_times[level]) for level in levels}
    full_times = {}
    for level in levels:
        dofs, pre, angles, sides = states[level]
        samples = []
        for alpha in angles[:2]:
            t0 = time.perf_counter()
            assemble_full_saddle(pre, *sides, float(alpha))
            samples.append(time.perf_counter() - t0)
        full_times[level] = statistics.median(samples)
    spread = max(medians.values()) / min(medians.values())
    dofs_by_level = [states[level][0] for level in levels]
    fulls = [full_times[level] for level in levels]
    assert dofs_by_level == sorted(dofs_by_level)
    assert spread < 2.0, "interface solve time spread %.2fx >= 2x" % spread
    assert all(b > a for a, b in zip(fulls, fulls[1:])), \
        "full solve times not increasing: %s" % fulls
    _report(4, "online cost nearly independent of IGA dofs",
            "interface medians %s (spread %.2fx), full %s s over dofs %s"
            % (["%.1fus" % (m * 1e6) for m in medians.values()], spread,
               ["%.3f" % f for f in fulls], dofs_by_level))


def test_acceptance_5_fourier_unit_properties():
    t0 = time.perf_counter()
    n = 60
    A = np.zeros(n // 2)
    B = np.zeros(n // 2)
    A[1] = 0.8
    pure = thd(A, B, default_index_set(n))
    assert pure == 0.0 and abs(pure) <= 1e-14
    B2 = B.copy()
    B2[5] = 0.08
    two = thd(A, B2, (1, 5))
    assert abs(two - 0.1) < 1e-12

    rng = np.random.default_rng(5)
    psi = rng.standard_normal(n)
    C = np.fft.fft(psi) / n
    parseval = abs((psi ** 2).sum() / n - (np.abs(C) ** 2).sum())
    assert parseval < 1e-12
    Asp, Bsp = emf_spectrum(psi)
    worst = max(abs(abs(1j * k * C[k]) - np.hypot(Asp[k], Bsp[k]) / 2)
                for k in range(1, n // 2))
    assert worst < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(5, "Fourier/THD unit properties",
            "two-harmonic err %.1e, Parseval %.1e, |c_n| identity %.1e, %.2fs"
            % (abs(two - 0.1), parseval, worst, elapsed))


def test_acceptance_6_optimization_behavior():
    cfg = MachineConfig(refinement=0, n_harmonics=12, n_angles=60,
                        harmonics_multiple_of_poles=True)
    t0 = time.perf_counter()
    state = run_optimization(cfg, OptimizerConfig())
    elapsed = time.perf_counter() - t0
    values = [h[1] for h in state.history]
    assert all(b < a for a, b in zip(values, values[1:])), "THD not strictly decreasing"
    assert state.reason in ("tol", "no_progress"), \
        "terminated by %r, not the tol/no-progress rule" % state.reason
    assert state.iteration <= 100

    stator, rotor0 = build_demo_machine(cfg)
    for pid, tag in enumerate(rotor0.tags):
        if tag.kind == "magnet":
            assert np.array_equal(state.rotor.patches[pid].points,
                                  rotor0.patches[pid].points), "magnet moved"
            assert np.array_equal(state.rotor.patches[pid].weights,
                                  rotor0.patches[pid].weights)
    for pid, edge in rotor0.interface_edges:
        patch = rotor0.patches[pid]
        for i, j in edge_nodes(patch.n_u, patch.n_v, edge):
            assert np.array_equal(state.rotor.patches[pid].points[i, j],
                                  patch.points[i, j]), "interface point moved"

    _, min_det0 = __import__("igamotor.geometry", fromlist=["check_mesh_validity"]) \
        .check_mesh_validity(rotor0, 0.0)
    eps_j = 1e-3 * min_det0
    for _, _, _, min_det in state.history:
        assert min_det > eps_j, "min det J %.3e fell to the validity floor" % min_det

    assert abs(values[0] - LOCKED_INITIAL_THD) < 1e-5 * LOCKED_INITIAL_THD, \
        "initial THD drifted from locked value: %r" % values[0]
    ratio = state.objective / values[0]
    assert ratio <= LOCKED_FINAL_RATIO * 1.02, \
        "reduction regressed: final/initial %.4f vs locked %.4f" % (ratio, LOCKED_FINAL_RATIO)
    _report(6, "demo-machine THD optimization",
            "THD %.6f -> %.6f (%.1f%% reduction) in %d iterations via %s, %.1fs"
            % (values[0], state.objective, 100 * (1 - ratio), state.iteration,
               state.reason, elapsed))


def test_acceptance_7_spline_kernel_suite():
    t0 = time.perf_counter()
    kvs = [KnotVector([0, 0, 1, 1], 1),
           KnotVector([0, 0, 0, 0.25, 0.5, 0.5, 0.75, 1, 1, 1], 2),
           KnotVector([0, 0, 0, 0, 0.3, 0.7, 1, 1, 1, 1], 3)]
    worst_pu = 0.0
    worst_fd = 0.0
    h = 1e-6
    for kv in kvs:
        for x in np.linspace(0.0, 1.0, 33):
            _, vals, _ = bspline_basis_table(kv, x)
            worst_pu = max(worst_pu, abs(vals.sum() - 1.0))
        for x in np.linspace(0.01, 0.99, 23):
            span, _, ders = bspline_basis_table(kv, x)
            sp_, vp, _ = bspline_basis_table(kv, x + h)
            sm_, vm, _ = bspline_basis_table(kv, x - h)
            if sp_ != span or sm_ != span:
                continue
            fd = (vp - vm) / (2 * h)
            denom = max(np.abs(fd).max(), 1.0)
            worst_fd = max(worst_fd, np.abs(ders - fd).max() / denom)
    assert worst_pu < 1e-14, "partition of unity off by %.2e" % worst_pu
    assert worst_fd < 1e-5, "derivative/FD mismatch %.2e" % worst_fd

    patch = make_arc_patch(1.0, 2.0, 0.1, 0.1 + np.pi / 2)
    refined = insert_knots(patch, [0.3, 0.6], [0.5])
    rng = np.random.default_rng(1)
    worst_geo = 0.0
    for xi, eta in rng.uniform(0, 1, size=(100, 2)):
        a, _ = eval_patch(patch, xi, eta)
        b, _ = eval_patch(refined, xi, eta)
        worst_geo = max(worst_geo, np.abs(a - b).max())
    assert worst_geo < 1e-12, "knot insertion moved geometry by %.2e" % worst_geo

    kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
    w = np.array([1.0, np.sqrt(2) / 2, 1.0])
    pts = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    worst_rad = float(np.abs(np.linalg.norm(curve_points(kv, w, pts, np.linspace(0, 1, 41)),
                                            axis=-1) - 1.0).max())
    assert worst_rad < 1e-14, "quarter-circle radius off by %.2e" % worst_rad
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(7, "spline kernel suite",
            "partition %.1e, deriv-FD %.1e, insertion %.1e, radius %.1e, %.2fs"
            % (worst_pu, worst_fd, worst_geo, worst_rad, elapsed))


def test_acceptance_8_determinism(tmp_path):
    import json

    from igamotor.cli import main

    doc = {"machine": {"refinement": 0, "n_harmonics": 8, "n_angles": 12,
                       "harmonics_multiple_of_poles": True},
           "output_dir": str(tmp_path / "out"),
           "solve": {"alpha": 0.15, "grid_r": 6, "grid_theta": 12}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    runs = []
    for _ in range(2):
        assert main(["solve", "--config", str(cfg_path)]) == 0
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        runs.append({name: (out / name).read_bytes()
                     for name in ("field.csv", "u_coeffs.csv", "psi.csv",
                                  "spectrum.csv", "thd.txt")})
    assert runs[0] == runs[1], "outputs differ between identical runs"
    _report(8, "byte-identical reruns", "%d artifacts compared" % len(runs[0]))
