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
from igamotor.errors import StabilityError
from igamotor.fourier import attach_spectrum


@pytest.fixture(scope="module")
def pre(coarse_blocks):
    return precompute_from_blocks(coarse_blocks)


def test_harmonic_orders_default_and_restricted():
    np.testing.assert_array_equal(harmonic_orders(5), [-2, -1, 0, 1, 2])
    np.testing.assert_array_equal(harmonic_orders(12),
                                  [-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6])
    np.testing.assert_array_equal(harmonic_orders(4, multiples_of=3), [-6, -3, 3, 6])
    for n in (4, 5, 12, 36):  # closed under negation: realness of real sources
        orders = set(harmonic_orders(n).tolist())
        assert {-o for o in orders} == orders


def test_rotation_matrix_properties():
    orders = np.array([1, 2])
    np.testing.assert_array_equal(rotation_matrix(orders, 0.0), np.eye(2))
    np.testing.assert_allclose(rotation_matrix(orders, np.pi),
                               np.diag([-1.0 + 0j, 1.0 + 0j]), atol=1e-15)
    a, b = 0.37, -1.2
    Ra, Rb = rotation_matrix(orders, a), rotation_matrix(orders, b)
    np.testing.assert_allclose(Ra @ Rb, rotation_matrix(orders, a + b), atol=1e-15)
    np.testing.assert_allclose(Ra @ rotation_matrix(orders, -a), np.eye(2), atol=1e-15)
    assert np.allclose(np.abs(np.diag(Ra)), 1.0, atol=1e-15)


def test_full_matrix_is_hermitian(coarse_blocks):
    M = build_full_matrix(coarse_blocks, 0.41)
    scale = np.abs(M.data).max()
    assert np.abs((M - M.getH()).data).max() < 1e-14 * scale if (M - M.getH()).nnz else True


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
    assert sol.im_rel < 1e-9


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
    r = np.exp(1j * coarse_blocks.orders * alpha)
    moments = -(np.conj(r)[:, None] * coarse_blocks.G_st.conj().T) @ sol.u_st \
        - coarse_blocks.G_rt.conj().T @ sol.u_rt
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


def test_realness_invariant(pre):
    for alpha in (0.0, 0.11, 0.9):
        sol = solve_at_angle(pre, alpha)
        assert sol.im_rel < 1e-9


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
        assert stacked.im_rel[i] == single.im_rel


def test_realness_guard_is_per_angle(coarse_cfg, coarse_blocks, pre):
    # without sources the fields are X lam, so a tiny random complex row is
    # as non-physical at its own angle as a large one; against the largest
    # real part of the whole stack its residue would be far below the gate
    from dataclasses import replace
    pre0 = precompute_from_blocks(replace(coarse_blocks, j_st=np.zeros_like(coarse_blocks.j_st),
                                          j_rt=np.zeros_like(coarse_blocks.j_rt)))
    angles = sweep_angles(coarse_cfg.pole_pairs, coarse_cfg.n_angles)
    lambdas = solve_interface(pre, angles)
    good = reconstruct_state(pre0, angles, lambdas)
    assert good.im_rel.shape == angles.shape and np.all(good.im_rel < 1e-9)
    rng = np.random.default_rng(5)
    bad = lambdas.copy()
    bad[4] = 1e-12 * np.abs(lambdas).max() * (rng.standard_normal(lambdas.shape[1])
                                              + 1j * rng.standard_normal(lambdas.shape[1]))
    with pytest.raises(StabilityError):
        reconstruct_state(pre0, angles, bad)
    keep = np.arange(angles.size) != 4
    reconstruct_state(pre0, angles[keep], bad[keep])


def test_sweep_zero_mean_and_reconstruction(coarse_cfg, pre, coarse_winding):
    scale = coarse_cfg.pole_pairs * coarse_cfg.length_z
    angles = sweep_angles(coarse_cfg.pole_pairs, coarse_cfg.n_angles)
    sw = rotation_sweep(pre, angles, coarse_winding, scale)
    assert abs(sw.psi.mean()) < 1e-8 * np.abs(sw.psi).max()
    state = reconstruct_state(pre, angles[3], sw.lambdas[3])
    direct = solve_at_angle(pre, angles[3])
    np.testing.assert_allclose(state.u_rt, direct.u_rt, atol=1e-15)

