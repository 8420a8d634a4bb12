import numpy as np
import pytest

from igamotor.coupling import (
    assemble_full_saddle,
    build_full_matrix,
    harmonic_orders,
    precompute_from_blocks,
    reconstruct_state,
    rotation_matrix,
    rotation_sweep,
    solve_at_angle,
    solve_interface,
    sweep_angles,
)
from igamotor.fourier import attach_spectrum


@pytest.fixture(scope="module")
def pre(coarse_blocks):
    return precompute_from_blocks(coarse_blocks)


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


def test_full_matrix_is_hermitian(coarse_blocks):
    M = build_full_matrix(coarse_blocks, 0.41)
    assert not np.iscomplexobj(M.data)    # real symmetric, hence Hermitian
    scale = np.abs(M.data).max()
    assert np.abs((M - M.T).data).max() < 1e-14 * scale if (M - M.T).nnz else True


def test_full_saddle_zero_rhs_gives_zero(coarse_blocks):
    from dataclasses import replace
    blocks0 = replace(coarse_blocks, j_st=np.zeros_like(coarse_blocks.j_st),
                      j_rt=np.zeros_like(coarse_blocks.j_rt))
    sol = assemble_full_saddle(blocks0, 0.3)
    assert np.array_equal(sol.u_st, np.zeros_like(sol.u_st))
    assert np.array_equal(sol.lam, np.zeros_like(sol.lam))


def test_full_saddle_residuals_and_realness(coarse_blocks):
    sol = assemble_full_saddle(coarse_blocks, 0.0)
    assert np.all(sol.block_residuals < 1e-9)
    assert not any(np.iscomplexobj(u) for u in (sol.u_st, sol.u_rt, sol.lam))


def test_schur_matches_full_system(coarse_cfg, coarse_blocks, pre):
    rng = np.random.default_rng(11)
    period = 2 * np.pi / coarse_cfg.pole_pairs
    for alpha in rng.uniform(0.0, period, size=8):
        full = assemble_full_saddle(coarse_blocks, alpha)
        fast = solve_at_angle(pre, alpha)
        num = np.linalg.norm(np.concatenate([fast.u_st - full.u_st,
                                             fast.u_rt - full.u_rt]))
        den = np.linalg.norm(np.concatenate([full.u_st, full.u_rt]))
        assert num / den < 1e-10


def test_interface_jump_moments_vanish(coarse_blocks, pre):
    # third block row evaluated on the reconstructed solution: moments of
    # the trace jump against every coupled harmonic
    alpha = 0.23
    sol = solve_at_angle(pre, alpha)
    R = rotation_matrix(coarse_blocks.orders, alpha)
    moments = -(coarse_blocks.G_st @ R).T @ sol.u_st - coarse_blocks.G_rt.T @ sol.u_rt
    scale = 2 * np.pi * 0.0525 * np.abs(sol.u_st).max()
    assert np.abs(moments).max() < 1e-9 * scale


def test_zero_sources_give_zero_solution(coarse_blocks):
    from dataclasses import replace
    blocks0 = replace(coarse_blocks, j_st=np.zeros_like(coarse_blocks.j_st),
                      j_rt=np.zeros_like(coarse_blocks.j_rt))
    pre0 = precompute_from_blocks(blocks0)
    sol = solve_at_angle(pre0, 0.7)
    assert np.array_equal(sol.lam, np.zeros_like(sol.lam))
    assert np.array_equal(sol.u_st, np.zeros_like(sol.u_st))


def test_precompute_products_verify(pre):
    assert pre.verify(tol=1e-12) < 1e-12


def test_precompute_column_residuals(coarse_blocks, pre):
    for side in (pre.st, pre.rt):
        K = coarse_blocks.K_st if side is pre.st else coarse_blocks.K_rt
        for k in (0, side.G.shape[1] - 1):
            resid = K @ side.X[:, k] - side.G[:, k]
            assert np.linalg.norm(resid) < 1e-10 * max(1.0, np.linalg.norm(side.G[:, k]))


def test_realness_invariant(pre, coarse_winding):
    # real arithmetic throughout: no stage of the coupling path goes complex
    arrays = [pre.st.G, pre.st.X, pre.st.H, pre.st.g, pre.rt.G, pre.rt.X, pre.rt.H, pre.rt.g]
    for alpha in (0.0, 0.11, 0.9, np.array([0.11, 0.9])):
        sol = solve_at_angle(pre, alpha)
        arrays += [sol.lam, sol.u_st, sol.u_rt]
    arrays.append(rotation_sweep(pre, np.array([0.0, 0.11]), coarse_winding).psi)
    assert all(a.dtype == np.float64 for a in arrays)


def test_angle_solution_full_residual(pre):
    from igamotor.coupling import full_residual
    for alpha in (0.0, 0.37, 1.8):
        sol = solve_at_angle(pre, alpha)
        assert full_residual(pre, sol) < 1e-9


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


def test_stacked_reconstruction_matches_per_angle_calls(coarse_cfg, pre):
    angles = sweep_angles(coarse_cfg.pole_pairs, coarse_cfg.n_angles)
    lambdas = solve_interface(pre, angles)
    stacked = reconstruct_state(pre, angles, lambdas)
    assert stacked.u_st.shape == (angles.size, pre.st.y.size)
    for i, alpha in enumerate(angles):
        single = reconstruct_state(pre, alpha, lambdas[i])
        np.testing.assert_array_equal(lambdas[i], solve_interface(pre, alpha))
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


def test_real_basis_matches_complex_oracle(coarse_cfg, pre, coarse_winding):
    # the complex harmonic coupling, solved as a Hermitian interface system
    # with diagonal phases e^{i l alpha}, must give the real path's fields
    scale = coarse_cfg.pole_pairs * coarse_cfg.length_z
    angles = np.array([0.0, 0.13, 0.41, 1.7, 2.9])
    sw = rotation_sweep(pre, angles, coarse_winding, scale)
    real = reconstruct_state(pre, angles, sw.lambdas)
    orders = pre.orders
    X_st, X_rt = (_complex_moments(side.X, orders) for side in (pre.st, pre.rt))
    G_st, G_rt = (_complex_moments(side.G, orders) for side in (pre.st, pre.rt))
    H_st, H_rt = G_st.conj().T @ X_st, G_rt.conj().T @ X_rt
    g_st, g_rt = G_st.conj().T @ pre.st.y, G_rt.conj().T @ pre.rt.y
    for i, alpha in enumerate(angles):
        r = np.exp(1j * orders * alpha)
        K_int = H_rt + np.conj(r)[:, None] * H_st * r[None, :]
        lam = np.linalg.solve(K_int, -(np.conj(r) * g_st + g_rt))
        u_st = pre.st.y + X_st @ (r * lam)
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

