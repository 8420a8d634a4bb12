import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from igamotor import coupling
from igamotor.coupling import (
    CouplingPrecomp,
    SweepPlan,
    harmonic_orders,
    precompute_side,
    reconstruct_state,
    rotation_sweep,
    solve_at_angle,
    solve_interface,
    sweep_angles,
)
from igamotor.fourier import SweepResult, attach_spectrum
from igamotor.linalg import spd_stack_solve
from igamotor.optim import THD_ROUNDOFF, MachineSolver, stator_modes

from conftest import coarse_config, machine_sides, zero_source_precompute, zero_sources
from oracles import (
    assemble_full_saddle,
    build_full_matrix,
    dense_full_residual,
    full_residual,
    rotation_matrix,
    verify_products,
)


@pytest.fixture(scope="module")
def pre(coarse_pre):
    return coarse_pre


@pytest.fixture(scope="module")
def solver24():
    """A refinement-1 machine with 24 pole-multiple harmonics, the harmonic
    count of the refinement-2 and -4 benchmarks (12 of them, the odd
    multiples, couple the pitch), and its precomputation."""
    solver = MachineSolver(coarse_config(refinement=1, n_harmonics=24,
                                         harmonics_multiple_of_poles=True))
    return solver, solver.precompute(solver.rotor0)


def test_harmonic_orders_default_and_restricted():
    np.testing.assert_array_equal(harmonic_orders(5), [-2, -1, 0, 1, 2])
    np.testing.assert_array_equal(harmonic_orders(12),
                                  [-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6])
    np.testing.assert_array_equal(harmonic_orders(4, multiples_of=3), [-6, -3, 3, 6])
    for n in (4, 5, 12, 36):  # closed under negation: every l > 0 has a cos and a sin column
        orders = set(harmonic_orders(n).tolist())
        assert {-o for o in orders} == orders


def test_rotation_matrix_properties():
    orders = np.array([-2, -1, 0, 1, 2])
    np.testing.assert_array_equal(rotation_matrix(orders, 0.0), np.eye(5))
    np.testing.assert_allclose(rotation_matrix(orders, np.pi),
                               np.diag([1.0, -1.0, 1.0, -1.0, 1.0]), atol=1e-15)
    a, b = 0.37, -1.2
    Ra, Rb = rotation_matrix(orders, a), rotation_matrix(orders, b)
    np.testing.assert_allclose(Ra @ Rb, rotation_matrix(orders, a + b), atol=1e-15)
    np.testing.assert_allclose(Ra.T @ Ra, np.eye(5), atol=1e-15)
    # l = 1 block: cos column 3, sin column 1; R[s,c] = sin a, R[c,s] = -sin a
    assert Ra[3, 3] == Ra[1, 1] == np.cos(a)
    assert Ra[1, 3] == -Ra[3, 1] == np.sin(a)
    stack = rotation_matrix(orders, np.array([a, b]))
    assert stack.shape == (2, 5, 5)
    np.testing.assert_array_equal(stack[0], Ra)
    np.testing.assert_array_equal(stack[1], Rb)
    for bad in ([1, 2], [-1, 1, 1]):
        with pytest.raises(ValueError):
            rotation_matrix(bad, a)


@pytest.mark.parametrize("orders", [harmonic_orders(24, multiples_of=3), harmonic_orders(25)],
                         ids=["poles", "integers-with-0"])
@pytest.mark.parametrize("alpha", [0.37, np.array([0.0, 0.37, 1.9, 4.2, 6.1])],
                         ids=["one-angle", "stack"])
def test_phase_update_matches_dense_rotation(orders, alpha):
    # R v, R^T v and R^T H R from the per-order phases against products
    # with the dense R: within 1e-15 of the largest entry (measured at most
    # 4.0e-16 over these cases and 200 random angles in [-10, 10])
    rng = np.random.default_rng(3)
    n = orders.size
    A = rng.standard_normal((n, n))
    H, v = A @ A.T, rng.standard_normal(np.shape(alpha) + (n,))
    partner = coupling._partner_columns(orders)
    cos, sin = coupling._phases(orders, partner, alpha)
    R = rotation_matrix(orders, alpha)
    Rt = np.swapaxes(R, -1, -2)
    for got, want in ((coupling._rotate(v, cos, sin, partner), (R @ v[..., None])[..., 0]),
                      (coupling._rotate(v, cos, -sin, partner), (Rt @ v[..., None])[..., 0]),
                      (coupling._congruence(H, cos, sin, partner), Rt @ H @ R)):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * np.abs(want).max())


@pytest.mark.parametrize("orders", [harmonic_orders(24, multiples_of=3), harmonic_orders(25),
                                    np.random.default_rng(4).permutation(harmonic_orders(13))],
                         ids=["poles", "integers-with-0", "shuffled-with-0"])
def test_phases_equal_direct_cos_and_sin_bitwise(orders):
    # cos and sin taken once per |l| and copied to the column of -l with the
    # sign of l: the bits of np.cos and np.sin of orders * alpha
    rng = np.random.default_rng(9)
    partner = coupling._partner_columns(orders)
    for alpha in [0.37, -2.5] + [rng.uniform(-10.0, 10.0, 120) for _ in range(200)]:
        cos, sin = coupling._phases(orders, partner, alpha)
        phase = orders * np.asarray(alpha)[..., None]
        assert cos.shape == sin.shape == phase.shape
        assert np.array_equal(cos, np.cos(phase)) and np.array_equal(sin, np.sin(phase))


def test_precomputation_checks_the_orders(pre):
    # the machine's sweep plan is where the orders and their partners live
    plan = pre.plan
    np.testing.assert_array_equal(plan.orders[plan.partner], -plan.orders)
    for bad in ([1, 2], [-1, 1, 1]):
        with pytest.raises(ValueError):
            SweepPlan(plan.st, np.array(bad), plan.period, plan.angles)


def test_interface_path_forms_no_dense_rotation(coarse_cfg, pre, coarse_winding):
    # the solves, the flux, the adjoint and the stator field rotate by the
    # per-order phases: no igamotor module has a dense R(alpha) to form,
    # only the tests' full-system oracles do
    import igamotor
    from igamotor.adjoint import solve_adjoints

    modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "igamotor"]
    assert coupling in modules and igamotor in modules
    assert not [mod.__name__ for mod in modules if hasattr(mod, "rotation_matrix")]
    angles = sweep_angles(coarse_cfg.pole_pairs, 12) + 0.05     # 2 classes of 6
    sweep = rotation_sweep(pre, angles, coarse_winding, 0.3)
    solve_interface(pre, angles)
    solve_interface(pre, angles, g_st=np.outer(np.arange(12.0), pre.plan.st.g), g_rt=0)
    solve_adjoints(pre, coarse_winding, np.linspace(-1.0, 1.0, 12), angles, 0.3)
    assert np.all(np.isfinite(reconstruct_state(pre, angles, sweep.lambdas).u_st))
    assert np.all(np.isfinite(solve_at_angle(pre, 0.31).u_st))


def test_full_matrix_is_hermitian(pre, coarse_sides):
    M = build_full_matrix(pre, *coarse_sides, 0.41)
    assert not np.iscomplexobj(M.data)    # real symmetric, hence Hermitian
    scale = np.abs(M.data).max()
    assert np.abs((M - M.T).data).max() < 1e-14 * scale if (M - M.T).nnz else True


def test_full_saddle_zero_rhs_gives_zero(pre, coarse_sides):
    sol = assemble_full_saddle(pre, *zero_sources(*coarse_sides), 0.3)
    assert np.array_equal(sol.u_st, np.zeros_like(sol.u_st))
    assert np.array_equal(sol.lam, np.zeros_like(sol.lam))


def test_full_saddle_residuals_and_realness(pre, coarse_sides):
    sol = assemble_full_saddle(pre, *coarse_sides, 0.0)
    assert np.all(sol.block_residuals < 1e-9)
    assert not any(np.iscomplexobj(u) for u in (sol.u_st, sol.u_rt, sol.lam))


def test_schur_matches_full_system(coarse_cfg, pre, coarse_sides):
    rng = np.random.default_rng(11)
    period = 2 * np.pi / coarse_cfg.pole_pairs
    for alpha in rng.uniform(0.0, period, size=8):
        full = assemble_full_saddle(pre, *coarse_sides, alpha)
        fast = solve_at_angle(pre, alpha)
        num = np.linalg.norm(np.concatenate([fast.u_st - full.u_st,
                                             fast.u_rt - full.u_rt]))
        den = np.linalg.norm(np.concatenate([full.u_st, full.u_rt]))
        assert num / den < 1e-10


def test_interface_jump_moments_vanish(pre, coarse_sides):
    # third block row evaluated on the reconstructed solution: moments of
    # the trace jump against every coupled harmonic
    (_, G_st, _), (_, G_rt, _) = coarse_sides
    alpha = 0.23
    sol = solve_at_angle(pre, alpha)
    R = rotation_matrix(pre.plan.orders, alpha)
    moments = -(G_st @ R).T @ sol.u_st - G_rt.T @ sol.u_rt
    scale = 2 * np.pi * 0.0525 * np.abs(sol.u_st).max()
    assert np.abs(moments).max() < 1e-9 * scale


def test_zero_sources_give_zero_solution(pre, coarse_sides):
    pre0 = zero_source_precompute(pre, *coarse_sides)
    sol = solve_at_angle(pre0, 0.7)
    assert np.array_equal(sol.lam, np.zeros_like(sol.lam))
    assert np.array_equal(sol.u_st, np.zeros_like(sol.u_st))


def test_precompute_products_verify(pre, coarse_sides):
    assert verify_products(pre, *coarse_sides, tol=1e-12) < 1e-12


@pytest.mark.parametrize("refinement", [0, 1])
@pytest.mark.parametrize("multiples", [True, False], ids=["poles", "integers"])
def test_machine_sides_reproduce_the_stator_products_bitwise(refinement, multiples):
    # the stator's G and j that the tests assemble for the full-system
    # oracles, solved as the machine solves them (by the stiffness's Bloch
    # modes), give its plan's X, y, H and g bit for bit: the oracles read
    # the blocks the solver used
    solver = MachineSolver(coarse_config(refinement=refinement,
                                         harmonics_multiple_of_poles=multiples))
    _, G_st, j_st = machine_sides(solver)[0]
    st = precompute_side(stator_modes(solver.stator, solver.dm_st, solver.cfg), G_st, j_st)
    for name in ("X", "y", "H", "g"):
        assert np.array_equal(getattr(st, name), getattr(solver.plan.st, name)), name


def test_precompute_column_residuals(pre, coarse_sides):
    for side, (K, G, _) in zip((pre.plan.st, pre.rt), coarse_sides):
        for k in (0, G.shape[1] - 1):
            resid = K @ side.X[:, k] - G[:, k]
            assert np.linalg.norm(resid) < 1e-10 * max(1.0, np.linalg.norm(G[:, k]))


def test_realness_invariant(pre, coarse_sides, coarse_winding):
    # real arithmetic throughout: no stage of the coupling path goes complex
    arrays = [G for _, G, _ in coarse_sides]
    arrays += [a for side in (pre.plan.st, pre.rt) for a in (side.X, side.H, side.g)]
    for alpha in (0.0, 0.11, 0.9, np.array([0.11, 0.9])):
        sol = solve_at_angle(pre, alpha)
        arrays += [sol.lam, sol.u_st, sol.u_rt]
    arrays.append(rotation_sweep(pre, np.array([0.0, 0.11]), coarse_winding, 0.3).psi)
    assert all(a.dtype == np.float64 for a in arrays)


def test_angle_solution_full_residual(pre, coarse_sides):
    for alpha in (0.0, 0.37, 1.8):
        sol = solve_at_angle(pre, alpha)
        assert full_residual(pre, *coarse_sides, sol) < 1e-9


def test_full_residual_equals_the_dense_rotation_residual(pre, coarse_sides):
    # the residual by per-order phases against G_st R(alpha) formed densely,
    # at the angles above: at the solution both are rounding (measured at
    # most 3.0e-16, 5.6e-20 apart), and off it, every field moved by 1e-3
    # relative (residuals 1.4e-3 to 1.7e-3), they agree to 1e-12 relative
    # (measured bit for bit)
    rng = np.random.default_rng(12)
    for alpha in (0.0, 0.37, 1.8):
        sol = solve_at_angle(pre, alpha)
        off = SimpleNamespace(alpha=alpha, **{
            name: getattr(sol, name) * (1 + 1e-3 * rng.standard_normal(getattr(sol, name).size))
            for name in ("u_st", "u_rt", "lam")})
        for state in (sol, off):
            phases = full_residual(pre, *coarse_sides, state)
            dense = dense_full_residual(pre, *coarse_sides, state)
            assert abs(phases - dense) <= max(1e-15, 1e-12 * dense)
        assert dense > 1e-4


def test_rotational_consistency_of_flux(coarse_cfg, pre, coarse_winding):
    period = 2 * np.pi / coarse_cfg.pole_pairs
    scale = coarse_cfg.pole_pairs * coarse_cfg.length_z
    angles = sweep_angles(coarse_cfg.pole_pairs, 12)
    sw1 = rotation_sweep(pre, angles, coarse_winding, scale)
    sw2 = rotation_sweep(pre, angles + period, coarse_winding, scale)
    ref = np.abs(sw1.psi).max()
    assert np.abs(sw2.psi - sw1.psi).max() < 1e-8 * ref
    # half a period flips the sign (pole antisymmetry)
    sw3 = rotation_sweep(pre, angles + period / 2, coarse_winding, scale)
    assert np.abs(sw3.psi + sw1.psi).max() < 1e-8 * ref


def test_sweep_single_angle_matches_solve(pre, coarse_winding):
    sw = rotation_sweep(pre, np.array([0.31]), coarse_winding, 0.3)
    sol = solve_at_angle(pre, 0.31)
    np.testing.assert_allclose(reconstruct_state(pre, 0.31, sw.lambdas[0]).u_st, sol.u_st,
                               atol=1e-15)
    np.testing.assert_array_equal(sw.lambdas[0], sol.lam)


@pytest.mark.parametrize("angles", [np.zeros((2, 30)), np.array(0.31)], ids=["2-D", "0-d"])
def test_sweep_rejects_angles_that_are_not_1d(pre, coarse_winding, angles):
    with pytest.raises(ValueError, match="a rotation sweep takes a 1-D angle array"):
        rotation_sweep(pre, angles, coarse_winding, 0.3)


def test_stacked_reconstruction_matches_per_angle_calls(coarse_cfg, pre):
    # the 12 sweep angles form 2 slot-pitch classes, each solved with the
    # interface matrix of its first angle: lambda agrees with the
    # single-angle solves to 1.4e-15 of its largest entry (measured), not
    # bitwise; the reconstruction from one lambda is bitwise
    angles = sweep_angles(coarse_cfg.pole_pairs, coarse_cfg.n_angles)
    lambdas = solve_interface(pre, angles)
    stacked = reconstruct_state(pre, angles, lambdas)
    assert stacked.u_st.shape == (angles.size, pre.plan.st.y.size)
    for i, alpha in enumerate(angles):
        single = reconstruct_state(pre, alpha, lambdas[i])
        np.testing.assert_allclose(lambdas[i], solve_interface(pre, alpha),
                                   rtol=0, atol=1e-14 * np.abs(lambdas[i]).max())
        np.testing.assert_array_equal(stacked.u_st[i], single.u_st)
        np.testing.assert_array_equal(stacked.u_rt[i], single.u_rt)


def _complex_moments(G, orders):
    """Moments against e^{-i l theta} from the real cos/sin moments:
    G_c[:, +-l] = G[:, c_l] -+ i G[:, s_l]."""
    col = {int(l): k for k, l in enumerate(orders)}
    Gc = np.empty(G.shape, dtype=complex)
    for k, l in enumerate(orders):
        c, s = col[abs(int(l))], col[-abs(int(l))]
        Gc[:, k] = G[:, c] - 1j * np.sign(l) * G[:, s] if l else G[:, c]
    return Gc


def test_real_basis_matches_complex_oracle(coarse_cfg, pre, coarse_sides, coarse_winding):
    # the complex harmonic coupling, solved as a Hermitian interface system
    # with diagonal phases e^{i l alpha}, must give the real path's fields
    scale = coarse_cfg.pole_pairs * coarse_cfg.length_z
    angles = np.array([0.0, 0.13, 0.41, 1.7, 2.9])
    sw = rotation_sweep(pre, angles, coarse_winding, scale)
    real = reconstruct_state(pre, angles, sw.lambdas)
    orders = pre.plan.orders
    X_st, X_rt = (_complex_moments(side.X, orders) for side in (pre.plan.st, pre.rt))
    G_st, G_rt = (_complex_moments(G, orders) for _, G, _ in coarse_sides)
    H_st, H_rt = G_st.conj().T @ X_st, G_rt.conj().T @ X_rt
    g_st, g_rt = G_st.conj().T @ pre.plan.st.y, G_rt.conj().T @ pre.rt.y
    for i, alpha in enumerate(angles):
        r = np.exp(1j * orders * alpha)
        K_int = H_rt + np.conj(r)[:, None] * H_st * r[None, :]
        lam = np.linalg.solve(K_int, -(np.conj(r) * g_st + g_rt))
        u_st = pre.plan.st.y + X_st @ (r * lam)
        u_rt = pre.rt.y + X_rt @ lam
        psi = scale * (coarse_winding @ u_st)
        for ref, got in ((u_st, real.u_st[i]), (u_rt, real.u_rt[i])):
            assert np.abs(ref - got).max() < 1e-12 * np.abs(ref).max()
        assert abs(psi - sw.psi[i]) < 1e-12 * np.abs(sw.psi).max()


def test_sweep_zero_mean_and_reconstruction(coarse_cfg, pre, coarse_winding):
    scale = coarse_cfg.pole_pairs * coarse_cfg.length_z
    angles = sweep_angles(coarse_cfg.pole_pairs, coarse_cfg.n_angles)
    sw = rotation_sweep(pre, angles, coarse_winding, scale)
    assert abs(sw.psi.mean()) < 1e-8 * np.abs(sw.psi).max()
    state = reconstruct_state(pre, angles[3], sw.lambdas[3])
    direct = solve_at_angle(pre, angles[3])
    np.testing.assert_allclose(state.u_rt, direct.u_rt, atol=1e-15)


def test_blocked_solves_match_per_angle_solves(solver24, rng):
    # every block size boundary: one angle, a partial block, one full block,
    # one angle past it, and two full blocks with a partial third
    solver, pre = solver24
    B = coupling._block_classes(pre.plan.orders.size)
    assert (coupling._block_classes(24), B) == (28, 113)
    chi_X = solver.winding @ pre.plan.st.X
    for n in (1, B - 1, B, B + 1, 2 * B + 3):
        angles = np.linspace(0.0, 2.0, n) + 0.013
        single = np.array([solve_interface(pre, alpha) for alpha in angles])
        np.testing.assert_array_equal(solve_interface(pre, angles), single)
        sweep = rotation_sweep(pre, angles, solver.winding, solver.flux_scale)
        np.testing.assert_array_equal(sweep.lambdas, single)
        psi = [rotation_sweep(pre, angles[i:i + 1], solver.winding, solver.flux_scale).psi[0]
               for i in range(n)]
        np.testing.assert_array_equal(sweep.psi, psi)
        # the adjoint form: a per-angle stator right-hand side, no rotor load
        g_st = rng.standard_normal(n)[:, None] * chi_X
        adjoint = [solve_interface(pre, alpha, g_st=g, g_rt=0) for alpha, g in zip(angles, g_st)]
        np.testing.assert_array_equal(solve_interface(pre, angles, g_st=g_st, g_rt=0), adjoint)


def test_sweep_memory_does_not_grow_with_angles(solver24):
    # a sweep holds a few block-sized stacks, not one (n_angles, n_h, n_h)
    # stack per intermediate: past the outputs, its peak is the same for
    # 240 and 480 angles, both past two full blocks (113 classes each at
    # the pitch's 12 columns)
    solver, pre = solver24

    def traced_peak(n_angles):
        angles = np.linspace(0.0, 2.0, n_angles)
        tracemalloc.start()
        try:
            sweep = rotation_sweep(pre, angles, solver.winding, solver.flux_scale)
            return tracemalloc.get_traced_memory()[1], sweep.lambdas.nbytes + sweep.psi.nbytes
        finally:
            tracemalloc.stop()

    traced_peak(240)                      # first-call allocations out of the way
    peak240, _ = traced_peak(240)
    peak480, outputs480 = traced_peak(480)
    assert peak240 < 1 << 20
    assert peak480 - peak240 <= outputs480


def test_rotor_field_never_reads_the_stator_solution(pre):
    class Watched:
        """The stator precomputation, recording which attributes are read."""

        def __init__(self, side):
            self.side, self.read = side, []

        def __getattr__(self, name):
            self.read.append(name)
            return getattr(self.side, name)

    angles = np.array([0.0, 0.3, 1.1])
    lambdas = solve_interface(pre, angles)
    stator = Watched(pre.plan.st)
    plan = SweepPlan(stator, pre.plan.orders, pre.plan.period, pre.plan.angles)
    state = reconstruct_state(CouplingPrecomp(plan, pre.rt), angles, lambdas)
    reference = reconstruct_state(pre, angles, lambdas)
    np.testing.assert_array_equal(state.u_rt, reference.u_rt)
    assert state.u_rt is state.u_rt               # formed once
    assert stator.read == []
    np.testing.assert_array_equal(state.u_st, reference.u_st)
    assert "X" in stator.read


@pytest.fixture(scope="module", params=[(r, m) for r in (0, 1, 2) for m in (True, False)],
                ids=lambda p: "r%d-%s" % (p[0], "poles" if p[1] else "integers"))
def period_solver(request):
    """Machines at refinements 0-2 with pole-multiple and integer harmonic
    orders (12 at refinement 0, 24 above), and their precomputations."""
    refinement, multiples = request.param
    solver = MachineSolver(coarse_config(refinement=refinement,
                                         n_harmonics=12 if refinement == 0 else 24,
                                         harmonics_multiple_of_poles=multiples))
    return solver, solver.precompute(solver.rotor0)


def test_stator_period_is_a_symmetry_of_the_stator_block(period_solver):
    # one slot pitch maps the stator onto itself, so R^T H_st R = H_st
    # (measured to 3.0e-14); one sector, half of it, does not (measured
    # 6.3e-3 to 8.7e-2) as soon as two orders add up to the slot count 6 p:
    # below that H_st pairs each order only with itself and every rotation
    # keeps it (integer orders up to 6 at refinement 0)
    solver, pre = period_solver
    cfg = solver.cfg
    assert pre.plan.period == cfg.stator_period == 2 * np.pi / (6 * cfg.pole_pairs)
    H = pre.plan.st.H

    def moved(angle):
        R = rotation_matrix(pre.plan.orders, angle)
        return np.abs(R.T @ H @ R - H).max() / np.abs(H).max()

    assert moved(cfg.stator_period) < 1e-12
    if 2 * pre.plan.orders.max() >= 6 * cfg.pole_pairs:
        assert moved(cfg.stator_period / 2) > 1e-3


def test_grouped_solves_match_per_angle_solves(period_solver):
    # a full-period sweep shares one interface matrix per slot-pitch class;
    # against each angle's own K_int, solved alone, lambda, psi, THD and the
    # adjoint's lambda agree to 1e-12 relative (measured: 4.9e-14 at most)
    solver, pre = period_solver
    angles = sweep_angles(solver.cfg.pole_pairs, 120) + 0.0123
    R = rotation_matrix(pre.plan.orders, angles)
    Rt = np.swapaxes(R, -1, -2)
    K_int = [pre.rt.H + Rt[i] @ pre.plan.st.H @ R[i] for i in range(angles.size)]
    chi_X = solver.winding @ pre.plan.st.X
    g_st = np.random.default_rng(5).standard_normal(angles.size)[:, None] * chi_X

    def per_angle(g, g_rt):
        return np.array([spd_stack_solve(K_int[i], -(Rt[i] @ g[i] + g_rt))
                         for i in range(angles.size)])

    lam = per_angle(np.broadcast_to(pre.plan.st.g, g_st.shape), pre.rt.g)
    adjoint = per_angle(g_st, 0.0)
    psi = solver.flux_scale * (float(solver.winding @ pre.plan.st.y)
                               + np.einsum("j,ijk,ik->i", chi_X, R, lam))
    oracle = attach_spectrum(SweepResult(angles, psi))
    sweep = attach_spectrum(rotation_sweep(pre, angles, solver.winding, solver.flux_scale))

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    close(sweep.lambdas, lam)
    close(sweep.psi, psi)
    close(solve_interface(pre, angles, g_st=g_st, g_rt=0), adjoint)
    if oracle.thd > THD_ROUNDOFF:      # integer orders at refinement 0: round-off THD
        assert abs(sweep.thd - oracle.thd) <= 1e-12 * oracle.thd
    else:
        assert sweep.thd < THD_ROUNDOFF


def _class_count(angles, period):
    return np.unique(coupling._angle_classes(angles, period)).size


def test_angle_classes_one_per_slot_pitch_residue(coarse_cfg):
    p, tau = coarse_cfg.pole_pairs, coarse_cfg.stator_period
    for n in (12, 60, 120, 240):        # 6 | n: n / 6 classes of 6 angles
        assert _class_count(sweep_angles(p, n) + 0.0123, tau) == n // 6
    assert _class_count(sweep_angles(p, 16), tau) == 8
    # whole multiples of the period, some just below one: a single class
    assert _class_count(np.arange(7) * tau, tau) == 1
    for n in (1, 27, 28, 29, 59):       # the linspace grids: no shared class
        angles = np.linspace(0.0, 2.0, n) + 0.013
        assert _class_count(angles, tau) == n


def test_rows_do_not_depend_on_block_size(solver24, monkeypatch):
    # classes of 6 (a 120-angle period), 1 (a linspace grid) and 2 (a
    # 16-angle period) angles, solved in blocks of one angle's stack up to
    # one block for everything: every row keeps its bits
    solver, pre = solver24
    p = solver.cfg.pole_pairs
    angles = np.concatenate([sweep_angles(p, 120) + 0.0123,
                             np.linspace(0.0, 2.0, 7) + 0.013, sweep_angles(p, 16)])
    g_st = np.random.default_rng(8).standard_normal(angles.size)[:, None] * (
        solver.winding @ pre.plan.st.X)
    one_matrix = 8 * pre.plan.orders.size ** 2
    results = []
    for stack_bytes in (one_matrix, 5 * one_matrix, coupling._STACK_BYTES, 1 << 24):
        monkeypatch.setattr(coupling, "_STACK_BYTES", stack_bytes)
        sweep = rotation_sweep(pre, angles, solver.winding, solver.flux_scale)
        results.append((sweep.lambdas, sweep.psi,
                        solve_interface(pre, angles, g_st=g_st, g_rt=0)))
    for got in results[1:]:
        for a, b in zip(results[0], got):
            np.testing.assert_array_equal(a, b)


@pytest.fixture(scope="module", params=[(r, poles) for r in (0, 1, 2) for poles in ("pitch", "ring")],
                ids=lambda case: "r%d-%s" % case)
def planned_solver(request):
    """A 60-angle machine on the pole pitch or the full ring, and its
    precomputation, which carries the machine's sweep plan."""
    refinement, model = request.param
    cfg = coarse_config(refinement=refinement, n_angles=60, harmonics_multiple_of_poles=True)
    solver = MachineSolver(cfg, 1 if model == "pitch" else 2 * cfg.pole_pairs)
    return solver, solver.precompute(solver.rotor0)


def test_planned_solves_equal_streamed_solves_bitwise(planned_solver, monkeypatch):
    # the plan's blocks against the same solves formed block by block: every
    # lambda, psi and adjoint bit, and no stator congruence on the plan's path
    from igamotor.adjoint import solve_adjoints

    solver, pre = planned_solver
    sens = np.random.default_rng(5).standard_normal(solver.angles.size)
    g_st = sens[:, None] * (solver.winding @ pre.plan.st.X)

    def solves(angles):
        sweep = rotation_sweep(pre, angles, solver.winding, solver.flux_scale)
        return (sweep.lambdas, sweep.psi, solve_interface(pre, angles),
                solve_interface(pre, angles, g_st=g_st, g_rt=0),
                solve_adjoints(pre, solver.winding, sens, angles, solver.flux_scale).lambdas)

    want = solves(np.array(solver.angles))     # an equal copy: solved block by block
    assert pre.plan.blocks                     # formed before the congruence goes
    monkeypatch.setattr(coupling, "_congruence", None)
    for got, ref in zip(solves(solver.angles), want):
        assert np.array_equal(got, ref)


def test_sweep_plan_contents_and_size(planned_solver):
    solver, pre = planned_solver
    plan = pre.plan
    assert plan is solver.plan
    n_h, n_angles = pre.plan.orders.size, solver.angles.size
    n_classes = np.unique(coupling._angle_classes(solver.angles, pre.plan.period)).size
    assert sum(C.shape[0] for _, _, _, C, _ in plan.blocks) == n_classes
    held = sum(a.nbytes for block in plan.blocks for a in block[1:])
    assert held == 8 * (n_classes * n_h * n_h + 3 * n_angles * n_h)
    # the machine's angles are the plan's, read-only for good
    assert solver.angles is plan.angles
    with pytest.raises(ValueError):
        solver.angles.setflags(write=True)
    # an equal copy is not the plan's array: it is solved block by block
    copy = np.array(solver.angles)
    assert np.array_equal(solve_interface(pre, copy), solve_interface(pre, solver.angles))


def test_single_angle_solve_forms_no_sweep_plan_blocks(monkeypatch):
    # `igamotor solve`: a fresh machine, one precomputation and one angle
    # form the single angle's own R^T H_st R and none of the plan's blocks
    calls = []
    congruence = coupling._congruence

    def counted(*args):
        calls.append(None)
        return congruence(*args)

    monkeypatch.setattr(coupling, "_congruence", counted)
    solver = MachineSolver(coarse_config(n_angles=60, harmonics_multiple_of_poles=True))
    pre = solver.precompute(solver.rotor0)
    assert calls == []
    solve_at_angle(pre, 0.31)
    assert len(calls) == 1
    assert "blocks" not in vars(solver.plan)


def test_optimization_forms_the_stator_congruences_once_per_machine(monkeypatch):
    # acceptance 6: 12 sweeps and 11 adjoints, one plan formed by the machine
    from igamotor.optim import run_optimization

    cfg = coarse_config(n_angles=60, harmonics_multiple_of_poles=True)
    solver = MachineSolver(cfg)
    blocks = len(coupling._class_blocks(coupling._angle_classes(solver.angles, cfg.stator_period),
                                        coupling._block_classes(solver.orders.size)))
    calls = []
    congruence = coupling._congruence

    def counted(*args):
        calls.append(None)
        return congruence(*args)

    monkeypatch.setattr(coupling, "_congruence", counted)
    state = run_optimization(cfg)
    assert len(state.history) == 12
    assert len(calls) == blocks
