import dataclasses
import gc
import weakref
from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from igamotor import assembly
from igamotor.assembly import (
    MU0,
    PatchTables,
    assemble_coupling,
    assemble_rhs,
    assemble_stiffness,
    assemble_vector_metric,
    assemble_winding_vector,
    build_patch_tables,
    build_reluctivity_map,
    eval_field,
    gauss_rule,
)
from igamotor.design import DesignSpace
from igamotor.optim import MachineSolver
from igamotor.errors import AssemblyError, ConfigError, GeometryError
from igamotor.geometry import (
    MachineConfig,
    MultipatchModel,
    RegionTag,
    build_demo_machine,
    build_dof_map,
    check_mesh_validity,
    edge_discretization,
    edge_nodes,
)
from igamotor.splines import (
    KnotVector,
    NurbsPatch,
    bspline_basis_table,
    insert_knots,
    make_arc_patch,
    nurbs_basis,
    rational_basis,
)

from conftest import (coarse_config, field_signs, homogeneous_eval, scalar_bspline_basis,
                      scalar_eval_field, scalar_eval_patch, weighted_arc_patch)
from oracles import assemble_load, l2_error, patch_area


def square_model(p=1, n_elements=1, tag=RegionTag("rotor_air"), dirichlet=True):
    """Unit square patch with Greville control points (identity geometry)."""
    knots = [0.0] * (p + 1) + [i / n_elements for i in range(1, n_elements)] + [1.0] * (p + 1)
    kv = KnotVector(knots, p)
    grev = np.array([kv.knots[i + 1:i + p + 1].mean() if p else kv.knots[i:i + 2].mean()
                     for i in range(kv.n)])
    pts = np.stack(np.meshgrid(grev, grev, indexing="ij"), axis=-1)
    patch = NurbsPatch(kv, kv, pts, np.ones((kv.n, kv.n)))
    edges = [(0, e) for e in ("u0", "u1", "v0", "v1")] if dirichlet else []
    return MultipatchModel([patch], [tag], dirichlet_edges=edges)


def test_gauss_rule_integrates_monomials_exactly():
    for n in (1, 2, 3, 5, 8):
        rule = gauss_rule(n)
        for k in range(2 * n):
            exact = 1.0 / (k + 1)
            assert abs(rule.weights @ rule.points ** k - exact) < 1e-14


def test_gauss_rule_is_formed_once_per_count_and_read_only():
    for n in (1, 3, 6):
        rule = gauss_rule(n)
        assert gauss_rule(n) is rule
        x, w = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(rule.points, 0.5 * (x + 1.0))
        assert np.array_equal(rule.weights, 0.5 * w)
        assert not (rule.points.flags.writeable or rule.weights.flags.writeable)


def _refined_knots(p, refinement, repeated=False):
    """Clamped degree-p knots on the breakpoints 0, 0.3, 0.55, 1 bisected
    ``refinement`` times, 0.3 repeated p times when ``repeated``."""
    brk = np.array([0.0, 0.3, 0.55, 1.0])
    for _ in range(refinement):
        brk = np.insert(brk, np.arange(1, brk.size), 0.5 * (brk[:-1] + brk[1:]))
    interior = list(brk[1:-1]) + ([0.3] * (p - 1) if repeated else [])
    return KnotVector(np.concatenate([[0.0] * (p + 1), np.sort(interior), [1.0] * (p + 1)]), p)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_basis_tables_equal_per_point_basis_bitwise(p):
    # one vectorized Cox-de Boor pass against one scalar call per point,
    # at the Gauss points and at every knot, the ends included
    cases = [_refined_knots(p, r) for r in range(5)] + [_refined_knots(p, 1, repeated=True)]
    for kv in cases:
        for n_gauss in (p + 1, p + 2):
            params, _, vals, ders, first = assembly._basis_table_1d(kv, n_gauss, {})
            for e, q in np.ndindex(params.shape):
                span, N, dN = scalar_bspline_basis(kv, params[e, q])
                assert first[e] == span - p
                assert np.array_equal(vals[e, q], N) and np.array_equal(ders[e, q], dN)
        spans, N, dN = bspline_basis_table(kv, kv.knots)
        for x, span, n, dn in zip(kv.knots, spans, N, dN):
            want = scalar_bspline_basis(kv, x)
            assert span == want[0] and np.array_equal(n, want[1]) and np.array_equal(dn, want[2])


def test_bilinear_stiffness_element_matrix():
    model = square_model(p=1, dirichlet=False)
    dm = build_dof_map(model)
    K = assemble_stiffness(model, dm, {RegionTag("rotor_air"): 1.0}).toarray()
    pts = dm.points
    for a in range(4):
        for b in range(4):
            dist = np.abs(pts[a] - pts[b]).sum()
            if a == b:
                expected = 2.0 / 3.0
            elif dist == 2.0:          # opposite corners
                expected = -1.0 / 3.0
            else:                      # edge neighbors
                expected = -1.0 / 6.0
            assert abs(K[a, b] - expected) < 1e-14


def test_stiffness_scales_linearly_in_reluctivity():
    model = square_model(p=2, n_elements=2, dirichlet=False)
    dm = build_dof_map(model)
    K1 = assemble_stiffness(model, dm, {RegionTag("rotor_air"): 1.0}).toarray()
    K2 = assemble_stiffness(model, dm, {RegionTag("rotor_air"): 2.0}).toarray()
    K3 = assemble_stiffness(model, dm, {RegionTag("rotor_air"): 3.0}).toarray()
    assert np.array_equal(K2, 2.0 * K1)
    np.testing.assert_allclose(K3, 3.0 * K1, rtol=1e-15)


def test_stiffness_patch_test_linear_field():
    # u = x is in the space; interior stiffness rows annihilate it
    model = square_model(p=2, n_elements=3, dirichlet=True)
    dm = build_dof_map(model)
    from igamotor.assembly import _h1_matrix
    K = _h1_matrix(model, dm, [1.0], keep=None)
    coeffs = dm.points[:, 0]
    resid = K @ coeffs
    interior = ~dm.dirichlet
    assert np.abs(resid[interior]).max() < 1e-13


def test_stiffness_spd_on_machine(coarse_cfg, coarse_machine, coarse_dofmaps):
    stator, rotor = coarse_machine
    dm_st, dm_rt = coarse_dofmaps
    rng = np.random.default_rng(0)
    for model, dm in ((stator, dm_st), (rotor, dm_rt)):
        K = assemble_stiffness(model, dm, build_reluctivity_map(model, coarse_cfg))
        asym = abs(K - K.T)
        assert asym.max() < 1e-12 * abs(K).max()
        for _ in range(20):
            x = rng.standard_normal(dm.n_free)
            assert x @ (K @ x) > 0.0


def _displaced_rotor(rotor, dm, rng, amplitude=1e-5):
    design = DesignSpace(rotor, dm)
    return design.displace(rotor, amplitude * rng.standard_normal(design.n_dofs), 1.0)


def _machine_cases(coarse_machine, coarse_dofmaps):
    """(model, dofmap) for the coarse stator, rotor and a displaced rotor."""
    (stator, rotor), (dm_st, dm_rt) = coarse_machine, coarse_dofmaps
    moved = _displaced_rotor(rotor, dm_rt, np.random.default_rng(3))
    return [(stator, dm_st), (rotor, dm_rt), (moved, dm_rt)]


def _rel_diff(a, b):
    a = a.toarray() if sp.issparse(a) else np.asarray(a)
    b = b.toarray() if sp.issparse(b) else np.asarray(b)
    return np.abs(a - b).max() / np.abs(b).max()


def _cross(dm, pid, dofs):
    """t_row - t_col (E, L, L) of the closure-copy flags t of the element
    functions ``dofs`` (E, L) of patch ``pid``."""
    flags = dm.patch_copies[pid]
    t = np.zeros(dofs.shape, dtype=int) if flags is None else flags.reshape(-1)[dofs].astype(int)
    return t[:, :, None] - t[:, None, :]


def _h1_einsum_oracle(model, dm, coeffs, mass=0.0):
    """The element kernels as einsum contractions summed by a COO -> CSR
    conversion, each entry taken with the field signs of its two functions:
    the reference for the batched kernels and cached scatter."""
    rows, cols, data = [], [], []
    for pid, (patch, coeff) in enumerate(zip(model.patches, coeffs)):
        if coeff == 0.0:
            continue
        tab = build_patch_tables(patch)
        gd = dm.patch_maps[pid].reshape(-1)[tab.dofs]
        ke = coeff * np.einsum("eqlc,eq,eqmc->elm", tab.grad, tab.wdet, tab.grad)
        if mass:
            ke += mass * np.einsum("eql,eq,eqm->elm", tab.val, tab.wdet, tab.val)
        sg = field_signs(dm, pid)[tab.dofs]
        ke *= sg[:, :, None] * sg[:, None, :]
        n_loc = gd.shape[1]
        rows.append(np.repeat(gd, n_loc, axis=1).reshape(-1))
        cols.append(np.tile(gd, (1, n_loc)).reshape(-1))
        data.append(ke.reshape(-1))
    data, rows, cols = np.concatenate(data), np.concatenate(rows), np.concatenate(cols)
    return sp.coo_matrix((data, (rows, cols)), shape=(dm.n_global, dm.n_global)).tocsr()


def test_h1_matrix_matches_einsum_oracle(coarse_cfg, coarse_machine, coarse_dofmaps):
    for model, dm in _machine_cases(coarse_machine, coarse_dofmaps):
        relmap = build_reluctivity_map(model, coarse_cfg)
        coeffs = [relmap[tag] for tag in model.tags]
        ones = [1.0] * len(model.patches)
        for cs, mass in ((coeffs, 0.0), (ones, 1.0)):
            produced = assembly._h1_matrix(model, dm, cs, mass=mass, keep=None)
            expected = _h1_einsum_oracle(model, dm, cs, mass=mass)
            assert _rel_diff(produced, expected) < 1e-13


def test_patch_tables_match_einsum_oracle(coarse_machine, coarse_dofmaps):
    for model, _ in _machine_cases(coarse_machine, coarse_dofmaps):
        for patch in model.patches:
            tab = build_patch_tables(patch)
            n_gauss = max(patch.knots_u.degree, patch.knots_v.degree) + 1
            dofs, R, Rx, Ry, w2 = assembly._space_tables(patch, n_gauss, {})
            P = patch.points.reshape(-1, 2)[dofs]
            j_xi = np.einsum("eql,elc->eqc", Rx, P)
            j_eta = np.einsum("eql,elc->eqc", Ry, P)
            detj = j_xi[..., 0] * j_eta[..., 1] - j_xi[..., 1] * j_eta[..., 0]
            grad = np.stack([(j_eta[..., 1, None] * Rx - j_xi[..., 1, None] * Ry),
                             (-j_eta[..., 0, None] * Rx + j_xi[..., 0, None] * Ry)],
                            axis=-1) / detj[..., None, None]
            assert _rel_diff(tab.detj, detj) < 1e-13
            assert _rel_diff(tab.grad, grad) < 1e-13
            assert _rel_diff(tab.xy, np.einsum("eql,elc->eqc", R, P)) < 1e-13


def test_stiffness_rejects_folded_patch():
    model = square_model(p=1, dirichlet=False)
    pts = model.patches[0].points[::-1].copy()
    folded = NurbsPatch(model.patches[0].knots_u, model.patches[0].knots_v,
                        pts, model.patches[0].weights)
    bad = MultipatchModel([folded], [RegionTag("rotor_air")])
    dm = build_dof_map(bad)
    with pytest.raises(AssemblyError):
        assemble_stiffness(bad, dm, {RegionTag("rotor_air"): 1.0})


# ---------------------------------------------------------------- sources

def test_rhs_no_load_stator_is_zero(coarse_cfg, coarse_machine, coarse_dofmaps):
    stator, _ = coarse_machine
    dm_st, _ = coarse_dofmaps
    j = assemble_rhs(stator, dm_st, coarse_cfg, t=0.3)
    assert np.array_equal(j, np.zeros_like(j))


def test_rhs_flips_sign_with_magnets(coarse_cfg, coarse_machine, coarse_dofmaps):
    _, rotor = coarse_machine
    _, dm_rt = coarse_dofmaps
    j = assemble_rhs(rotor, dm_rt, coarse_cfg)
    flipped_tags = [RegionTag(t.kind, t.phase, -t.sign) if t.kind == "magnet" else t
                    for t in rotor.tags]
    from dataclasses import replace
    rotor_flipped = replace(rotor, tags=flipped_tags)
    j2 = assemble_rhs(rotor_flipped, dm_rt, coarse_cfg)
    assert np.array_equal(j2, -j)


def test_rhs_magnet_against_slow_quadrature_oracle(coarse_cfg):
    # one magnet arc patch; oracle integrates (-M2, M1) . grad w by dense
    # per-point spline evaluation, independent of the table machinery
    patch = insert_knots(make_arc_patch(0.045, 0.05, 0.2, 0.8), [0.5], [0.5])
    model = MultipatchModel([patch], [RegionTag("magnet", sign=1)])
    dm = build_dof_map(model)
    produced = assemble_rhs(model, dm, coarse_cfg, n_gauss=6)

    rule = gauss_rule(6)
    vec = np.zeros(dm.n_global)
    scale = coarse_cfg.remanence / MU0
    one_hot = np.zeros(dm.n_global)
    for eu in range(2):
        for ev in range(2):
            for qa in range(6):
                for qb in range(6):
                    xi = 0.5 * eu + 0.5 * rule.points[qa]
                    eta = 0.5 * ev + 0.5 * rule.points[qb]
                    w2 = 0.25 * rule.weights[qa] * rule.weights[qb]
                    xy, jac = scalar_eval_patch(model.patches[0], xi, eta)
                    r = np.hypot(*xy)
                    mperp = scale * np.array([-xy[1] / r, xy[0] / r])
                    for g in range(dm.n_global):
                        one_hot[g] = 1.0
                        _, _, grad = scalar_eval_field(model, dm, one_hot, 0, xi, eta)
                        one_hot[g] = 0.0
                        vec[g] += w2 * np.linalg.det(jac) * (mperp @ grad)
    scale_ref = np.abs(vec).max()
    np.testing.assert_allclose(produced, vec[dm.free_globals], rtol=0,
                               atol=1e-12 * scale_ref)


def test_eval_field_matches_homogeneous_oracle(coarse_machine, coarse_dofmaps):
    # the field is one more coordinate of the control data: (x, y, u)
    weighted = MultipatchModel([weighted_arc_patch()], [RegionTag("magnet", sign=1)])
    cases = list(zip(coarse_machine, coarse_dofmaps)) + [(weighted, build_dof_map(weighted))]
    rng = np.random.default_rng(12)
    for model, dm in cases:
        u_global = rng.standard_normal(dm.n_global)
        for pid in range(0, len(model.patches), 5):
            patch = model.patches[pid]
            field = u_global[dm.patch_maps[pid]] * field_signs(dm, pid).reshape(patch.weights.shape)
            ctrl = np.concatenate([patch.points, field[..., None]], axis=-1)
            for xi, eta in rng.uniform(0.0, 1.0, size=(10, 2)):
                point, value, grad = eval_field(model, dm, u_global, pid, xi, eta)
                ref, ref_jac = homogeneous_eval(patch, ctrl, xi, eta)
                ref_grad = np.linalg.solve(ref_jac[:2].T, ref_jac[2])
                assert np.linalg.det(ref_jac[:2]) > 0.0
                assert np.abs(point - ref[:2]).max() <= 1e-13 * np.abs(ref[:2]).max()
                assert abs(value - ref[2]) <= 1e-13 * np.abs(u_global).max()
                assert np.abs(grad - ref_grad).max() <= 1e-13 * np.abs(ref_grad).max()



def test_batched_eval_field_equals_per_point_chain_bitwise(coarse_machine, coarse_dofmaps):
    # points on every patch of each side, the closure copies and the patch
    # ends included, in one (5, n) call: the per-patch groups equal one
    # scalar call chain per point, bit for bit
    rng = np.random.default_rng(13)
    for model, dm in zip(coarse_machine, coarse_dofmaps):
        u_global = rng.standard_normal(dm.n_global)
        pid = np.repeat(np.arange(len(model.patches)), 5).reshape(5, -1, order="F")
        xi, eta = rng.uniform(0.0, 1.0, size=(2,) + pid.shape)
        xi[0], eta[1] = 0.0, 1.0
        point, value, grad = eval_field(model, dm, u_global, pid, xi, eta)
        assert point.shape == grad.shape == pid.shape + (2,) and value.shape == pid.shape
        for n in np.ndindex(pid.shape):
            want = scalar_eval_field(model, dm, u_global, pid[n], xi[n], eta[n])
            got = (point[n], value[n], grad[n])
            assert all(np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(got, want))
            scalar = eval_field(model, dm, u_global, int(pid[n]), float(xi[n]), float(eta[n]))
            assert np.ndim(scalar[1]) == 0
            assert all(np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(scalar, want))

# ---------------------------------------------------------------- winding

def test_winding_balanced_phases_integrate_to_zero(coarse_cfg, coarse_machine, coarse_dofmaps):
    # on the full ring, u == 1 is exactly representable and no coil dof is
    # constrained; the pitch holds one slot of each phase (A+, C-, B+), no
    # closure copy of a coil point, and counts each of its 2 p copies
    stator, _ = coarse_machine
    dm_st, _ = coarse_dofmaps
    ring, _ = build_demo_machine(coarse_cfg, 2 * coarse_cfg.pole_pairs)
    dm_ring = build_dof_map(ring)
    for phase, sign in ((1, 1), (2, 1), (3, -1)):
        chi = assemble_winding_vector(ring, dm_ring, coarse_cfg, phase)
        assert abs(chi.sum()) < 1e-12 * np.abs(chi).max()
        chi = assemble_winding_vector(stator, dm_st, coarse_cfg, phase)
        expected = sign * stator.copies * coarse_cfg.n_turns
        assert abs(chi.sum() - expected) < 1e-12 * stator.copies


def test_winding_single_slot_turn_count(coarse_cfg):
    patch = make_arc_patch(0.055, 0.08, 0.1, 0.25)
    model = MultipatchModel([patch], [RegionTag("coil", phase=1, sign=1)])
    dm = build_dof_map(model)
    chi = assemble_winding_vector(model, dm, coarse_cfg, 1)
    assert abs(chi.sum() - coarse_cfg.n_turns) < 1e-12


def test_winding_scales_with_turns(coarse_cfg, coarse_machine, coarse_dofmaps):
    stator, _ = coarse_machine
    dm_st, _ = coarse_dofmaps
    chi1 = assemble_winding_vector(stator, dm_st, coarse_cfg, 1)
    chi2 = assemble_winding_vector(stator, dm_st, coarse_config(n_turns=2.0), 1)
    np.testing.assert_allclose(chi2, 2.0 * chi1, rtol=0, atol=1e-18)


# ---------------------------------------------------------------- coupling

def test_coupling_zero_order_column_sums(coarse_cfg):
    # u == 1 lives on the full ring, not on the antiperiodic pitch
    stator, rotor = build_demo_machine(coarse_cfg, 2 * coarse_cfg.pole_pairs)
    dm_st, dm_rt = build_dof_map(stator), build_dof_map(rotor)
    orders = np.array([0, 3, -3])
    circumference = 2 * np.pi * coarse_cfg.r_interface
    G_rt = assemble_coupling(rotor, dm_rt, orders, n_gauss=12)
    G_st = assemble_coupling(stator, dm_st, orders, n_gauss=12)
    assert abs(G_rt[:, 0].sum() - circumference) < 1e-10
    assert abs(G_st[:, 0].sum() + circumference) < 1e-10
    # nonzero orders integrate the phase factor to zero against unity
    assert abs(G_rt[:, 1].sum()) < 1e-10
    assert abs(G_st[:, 2].sum()) < 1e-10


def test_coupling_rows_zero_off_interface(coarse_machine, coarse_dofmaps):
    _, rotor = coarse_machine
    _, dm_rt = coarse_dofmaps
    G = assemble_coupling(rotor, dm_rt, np.arange(-3, 4))
    on_interface = np.zeros(dm_rt.n_global, dtype=bool)
    from igamotor.geometry import edge_nodes
    for pid, edge in rotor.interface_edges:
        patch = rotor.patches[pid]
        for i, j in edge_nodes(patch.n_u, patch.n_v, edge):
            on_interface[dm_rt.patch_maps[pid][i, j]] = True
    free_off = ~on_interface[dm_rt.free_globals]
    assert np.abs(G[free_off, :]).max() == 0.0


def test_coupling_harmonic_orthogonality_improves_with_refinement(coarse_cfg):
    # interpolate cos(l theta) (l >= 0) or sin(|l| theta) (l < 0) on the
    # rotor trace; moments approach pi R delta_{mk} (2 pi R for l = 0) under
    # refinement
    errors = []
    for ref in (0, 1):
        cfg = coarse_config(refinement=ref)
        _, rotor = build_demo_machine(cfg, 2 * cfg.pole_pairs)    # the full circle
        dm = build_dof_map(rotor)
        orders = np.array([-6, -3, 0, 3, 6])
        G = assemble_coupling(rotor, dm, orders)
        # collocation fit of the trace to each harmonic
        from igamotor.geometry import edge_nodes, locate_polar
        on_iface = []
        for pid, edge in rotor.interface_edges:
            patch = rotor.patches[pid]
            for i, j in edge_nodes(patch.n_u, patch.n_v, edge):
                on_iface.append(dm.patch_maps[pid][i, j])
        on_iface = np.unique(on_iface)
        thetas = np.linspace(0, 2 * np.pi, 4 * on_iface.size, endpoint=False)
        A = np.zeros((thetas.size, on_iface.size))
        pid, _, eta = locate_polar(rotor, cfg.r_interface, thetas)
        basis = np.zeros(dm.n_global)
        for col, g in enumerate(on_iface):
            basis[g] = 1.0
            A[:, col] = eval_field(rotor, dm, basis, pid, 1.0, eta)[1]
            basis[g] = 0.0
        worst = 0.0
        circ = 2 * np.pi * cfg.r_interface
        for m, lm in enumerate(orders):
            target = np.cos(lm * thetas) if lm >= 0 else np.sin(-lm * thetas)
            coeffs, *_ = np.linalg.lstsq(A, target, rcond=None)
            full = np.zeros(dm.n_global)
            full[on_iface] = coeffs
            moments = G.T @ full[dm.free_globals]
            expected = (circ if lm == 0 else circ / 2) * (np.arange(orders.size) == m)
            worst = max(worst, np.abs(moments - expected).max() / circ)
        errors.append(worst)
    assert errors[1] < 0.5 * errors[0]
    assert errors[1] < 5e-3


def _coupling_point_loop_oracle(model, dm, orders):
    """Coupling moments by one scalar ``nurbs_basis`` call per Gauss point."""
    sign = -1.0 if model.side == "stator" else 1.0
    radius = model.r_interface
    n_gauss = assembly.coupling_gauss_count(max(p.knots_u.degree for p in model.patches),
                                            orders)
    rule = gauss_rule(n_gauss)
    G = np.zeros((dm.n_global, orders.size))
    for pid, edge in model.interface_edges:
        patch = model.patches[pid]
        kv, w_edge, p_edge = edge_discretization(patch, edge)
        edge_globals = np.array([dm.patch_maps[pid][i, j]
                                 for i, j in edge_nodes(patch.n_u, patch.n_v, edge)])
        edge_signs = np.array([field_signs(dm, pid)[i * patch.n_v + j]
                               for i, j in edge_nodes(patch.n_u, patch.n_v, edge)])
        brk = kv.breakpoints()
        p = kv.degree
        for e in range(brk.size - 1):
            a, b = brk[e], brk[e + 1]
            for q in range(n_gauss):
                span, R, dR = nurbs_basis(kv, w_edge, a + (b - a) * rule.points[q])
                point = R @ p_edge[span - p:span + 1]
                tangent = dR @ p_edge[span - p:span + 1]
                r = np.hypot(point[0], point[1])
                theta = np.arctan2(point[1], point[0])
                dtheta = (point[0] * tangent[1] - point[1] * tangent[0]) / (r * r)
                harmonics = np.where(orders >= 0, np.cos(orders * theta),
                                     np.sin(-orders * theta))
                G[edge_globals[span - p:span + 1], :] += (
                    sign * radius * dtheta * (b - a) * rule.weights[q]
                    * np.outer(R * edge_signs[span - p:span + 1], harmonics))
    return G[dm.free_globals]


def test_coupling_matches_point_loop_oracle(coarse_machine, coarse_dofmaps):
    orders = np.array([-9, -6, -3, 0, 3, 6, 9])
    for model, dm in _machine_cases(coarse_machine, coarse_dofmaps):
        produced = assemble_coupling(model, dm, orders)
        assert _rel_diff(produced, _coupling_point_loop_oracle(model, dm, orders)) < 1e-13


def test_coupling_rejects_off_circle_edge():
    patch = make_arc_patch(0.04, 0.05, 0.0, 0.5)
    model = MultipatchModel([patch], [RegionTag("rotor_air")], side="rotor",
                            r_interface=0.06, interface_edges=[(0, "u1")])
    dm = build_dof_map(model)
    with pytest.raises(GeometryError):
        assemble_coupling(model, dm, np.array([0, 1]))


def test_coupling_rejects_nonpositive_edge_weights():
    patch = make_arc_patch(0.04, 0.05, 0.0, 0.5)
    model = MultipatchModel([patch], [RegionTag("rotor_air")], side="rotor",
                            r_interface=0.05, interface_edges=[(0, "u1")])
    dm = build_dof_map(model)
    assert assemble_coupling(model, dm, np.array([0, 1])).any()
    # NurbsPatch rejects such weights itself, so plant them behind its back
    weights = patch.weights.copy()
    weights[-1, 1] = 0.0
    object.__setattr__(patch, "weights", weights)
    with pytest.raises(ValueError):
        assemble_coupling(model, dm, np.array([0, 1]))


# ---------------------------------------------------------------- metric

def test_metric_is_spd_vector_metric(coarse_machine, coarse_dofmaps, rng):
    _, rotor = coarse_machine
    _, dm_rt = coarse_dofmaps
    mask = np.zeros(dm_rt.n_global, dtype=bool)
    mask[dm_rt.free_globals[:50]] = True
    H = assemble_vector_metric(rotor, dm_rt, mask)
    n = int(mask.sum())
    assert H.shape == (n, n) and H.dtype == np.complex128
    assert abs(H - H.conj().T).max() <= 1e-15 * abs(H).max()
    for _ in range(20):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert (z.conj() @ (H @ z)).real > 0.0
    with pytest.raises(ConfigError):
        assemble_vector_metric(rotor, dm_rt, np.zeros(dm_rt.n_global, dtype=bool))


def _assert_csr_identical(a, b):
    assert a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def _band_rows(dm, mask):
    """The globals of ``mask`` in the dof map's band order: the rows of an
    operator restricted to them."""
    return dm.band_order[mask[dm.band_order]]


def _vector_metric_oracle(model, dm, mask, coeffs, h1):
    """The vector metric on the dofs of ``mask`` in its real form [[A, B],
    [-B, A]] on the stacked [x; y], as (A, B), from scalar operators
    ``h1(coeffs, mass, factor)`` on all globals, each element entry taken
    times ``factor`` of its t_row - t_col (:func:`_cross`): A the scalar
    metric and B empty without a turn, else A with its entries between a
    closure copy and a non-copy times cos of the turn and B their sin,
    signed.  Its rows are the masked globals in the dof map's band order."""
    idx = _band_rows(dm, mask)
    copies = float(model.copies)
    if dm.turn is None:
        A = _restrict_oracle(h1(coeffs, copies, lambda cross: 1.0), idx)
        return A, sp.csr_matrix(A.shape)
    cos, sin = dm.turn[0, 0], dm.turn[1, 0]
    A = _restrict_oracle(h1(coeffs, copies, lambda cross: np.where(cross != 0, cos, 1.0)), idx)
    B = _restrict_oracle(h1(coeffs, copies, lambda cross: cross * sin), idx)
    B.eliminate_zeros()
    return A, B


def _assert_metric_is_real_form(H, oracle):
    """The Hermitian metric H is A - iB of the real form (A, B) of
    :func:`_vector_metric_oracle`, bit for bit: H.real is A, and -H.imag,
    with its exact zeros dropped, is B (empty without a turn)."""
    A, B = oracle
    assert H.dtype == np.complex128
    _assert_csr_identical(H.real, A)
    minus_imag = -H.imag
    minus_imag.eliminate_zeros()
    _assert_csr_identical(minus_imag, B)


def test_metric_equals_all_patch_matrix_bitwise(coarse_cfg, coarse_machine, coarse_dofmaps):
    _, ring = build_demo_machine(coarse_cfg, 2 * coarse_cfg.pole_pairs)
    cases = _machine_cases(coarse_machine, coarse_dofmaps)[1:] + [(ring, build_dof_map(ring))]
    for model, dm in cases:
        mask = DesignSpace(model, dm).mask
        without = [not mask[gmap.reshape(-1)].any() for gmap in dm.patch_maps]
        assert any(without)          # the magnet patches hold no masked dof
        everywhere = [float(model.copies)] * len(model.patches)
        expected = _vector_metric_oracle(
            model, dm, mask, everywhere,
            lambda coeffs, mass, factor: _h1_per_patch_oracle(model, dm, coeffs, mass, factor))
        H = assemble_vector_metric(model, dm, mask)
        _assert_metric_is_real_form(H, expected)
        if dm.turn is None:          # the full ring: the scalar metric, imaginary part exactly 0
            assert not H.imag.data.any()
        else:                        # the pitch: the turn couples x and y at the closure
            assert expected[1].nnz > 0


def test_metric_constant_field_gives_area():
    model = square_model(p=2, n_elements=2, dirichlet=False)
    dm = build_dof_map(model)
    mask = np.ones(dm.n_global, dtype=bool)
    H = assemble_vector_metric(model, dm, mask)
    z = np.ones(dm.n_global, dtype=complex)          # W = (1, 0), DW = 0
    area = patch_area(model.patches[0])
    assert abs(z.conj() @ (H @ z) - area) < 1e-12


# ---------------------------------------------------------------- table cache

def _assert_tables_equal(a, b):
    for f in fields(PatchTables):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


def _tables_in(tables, patch, n_gauss=None):
    """The one-patch batch tables of ``patch`` on the space that ``_group``
    finds in ``tables`` (or adds to it), as ``build_patch_tables`` lays
    them out."""
    (_, space), = assembly._group([patch], tables, n_gauss)
    P = patch.points.reshape(-1, 2).take(space[0], axis=0)[None]
    detj, grad, wdet, xy = assembly._batch_tables(space, P)
    return PatchTables(space[0], space[1], np.ascontiguousarray(grad[0].transpose(0, 2, 1, 3)),
                       detj[0], wdet[0], xy[0])


def test_patch_tables_cold_and_warm_cache_agree(coarse_machine, coarse_dofmaps, rng):
    _, rotor = coarse_machine
    _, dm_rt = coarse_dofmaps
    design = DesignSpace(rotor, dm_rt)
    moved = design.displace(rotor, 1e-5 * rng.standard_normal(design.n_dofs), 1.0)
    pid = design.patch_ids[0]
    shapes = (rotor.patches[pid], moved.patches[pid])
    cold = [build_patch_tables(patch) for patch in shapes]
    assert not np.array_equal(cold[0].detj, cold[1].detj)
    # warm: the table entries were filled by the other shape
    for patch, other, ref in zip(shapes, shapes[::-1], cold):
        tables = {}
        assembly._group([other], tables)
        n_entries = len(tables)
        warm = _tables_in(tables, patch)
        assert len(tables) == n_entries
        _assert_tables_equal(ref, warm)


def test_mesh_check_min_equals_per_patch_tables_bitwise(coarse_machine):
    stator, rotor = coarse_machine
    patches = list(rotor.patches)
    p = patches[5]
    patches[5] = NurbsPatch(p.knots_u, p.knots_v, p.points[::-1].copy(), p.weights[::-1].copy())
    folded = rotor.with_patches(patches)
    for model in (stator, rotor, folded):
        ok, min_det = check_mesh_validity(model, 0.0)
        per_patch = min(build_patch_tables(q, require_regular=False).detj.min()
                        for q in model.patches)
        assert min_det == per_patch
        assert ok == (model is not folded)


def test_space_cache_keys_on_weights():
    plain = square_model(p=2, n_elements=2).patches[0]
    weights = plain.weights.copy()
    weights[1, 1] = 2.0
    bumped = NurbsPatch(plain.knots_u, plain.knots_v, plain.points, weights)
    tables = {}
    a, b = (_tables_in(tables, p, 3) for p in (plain, bumped))
    assert not np.array_equal(a.val, b.val)
    _assert_tables_equal(b, build_patch_tables(bumped))


def test_cached_tables_are_read_only():
    tab = build_patch_tables(square_model(p=2, n_elements=2).patches[0])
    with pytest.raises(ValueError):
        tab.val[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        tab.dofs[0, 0] = 0


# ---------------------------------------------------------------- patch batches

def test_patch_batches_group_by_space_within_256_elements():
    fine = square_model(n_elements=16).patches[0]       # 256 elements
    coarse = square_model(n_elements=1).patches[0]
    batches = list(assembly._patch_batches([fine, coarse, fine, coarse, fine], None))
    # a 256-element patch fills a batch alone: the memory budget of one patch
    assert [ids for ids, _, _ in batches] == [[0], [2], [4], [1, 3]]
    for ids, (dofs, _, _, _, _), P in batches:
        assert P.shape == (len(ids),) + dofs.shape + (2,)


def _h1_per_patch_oracle(model, dm, coeffs, mass=0.0, factor=None):
    """The per-patch form of ``_h1_matrix``: one ``build_patch_tables`` and
    one stack of element products per patch, summed into the sorted unique
    (row, col) pairs of all element entries in patch order.  Batching
    patches and the plan's scatter must not change a bit.  Each entry is
    taken times ``factor`` of its :func:`_cross`; by default the closure's
    field sign where one function is a closure copy and the other not."""
    if factor is None:
        factor = lambda cross: np.where(cross != 0, dm.closure_sign, 1.0)
    element_dofs, blocks = [], []
    for pid, (patch, coeff) in enumerate(zip(model.patches, coeffs)):
        if coeff == 0.0:
            continue
        tab = build_patch_tables(patch)
        n_el, n_q, n_loc = tab.val.shape
        A = tab.grad.transpose(0, 2, 1, 3).reshape(n_el, n_loc, 2 * n_q)
        Aw = A * np.repeat(tab.wdet, 2, axis=1)[:, None, :]
        ke = coeff * (A @ Aw.transpose(0, 2, 1))
        if mass:
            ke += mass * (tab.val.transpose(0, 2, 1) @ (tab.val * tab.wdet[..., None]))
        ke = ke * factor(_cross(dm, pid, tab.dofs))
        element_dofs.append(dm.patch_maps[pid].reshape(-1)[tab.dofs])
        blocks.append(ke.reshape(-1))
    # the pattern: sorted unique (row, col) pairs of all element entries
    n = dm.n_global
    entries = np.concatenate([(gd[:, :, None] * n + gd[:, None, :]).reshape(-1)
                              for gd in element_dofs])
    pairs, slots = np.unique(entries, return_inverse=True)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(pairs // n, minlength=n))])
    data = np.bincount(slots.reshape(-1), weights=np.concatenate(blocks), minlength=pairs.size)
    return sp.csr_matrix((data, pairs % n, indptr), shape=(n, n))


@pytest.fixture(scope="module", params=[0, 2])
def refined_cases(request):
    """(model, dofmap) for the stator, rotor and a displaced rotor at
    refinements 0 and 2."""
    stator, rotor = build_demo_machine(coarse_config(refinement=request.param))
    return _machine_cases((stator, rotor), (build_dof_map(stator), build_dof_map(rotor)))


def test_operators_equal_per_patch_loop_bitwise(coarse_cfg, refined_cases):
    for model, dm in refined_cases:
        relmap = build_reluctivity_map(model, coarse_cfg)
        expected = _h1_per_patch_oracle(model, dm, [relmap[tag] for tag in model.tags])
        free = dm.free_globals
        _assert_csr_identical(assemble_stiffness(model, dm, relmap),
                              _restrict_oracle(expected, free))
    for model, dm in refined_cases[1:]:
        mask = DesignSpace(model, dm).mask
        coeffs = [model.copies * float(mask[gmap.reshape(-1)].any()) for gmap in dm.patch_maps]
        expected = _vector_metric_oracle(
            model, dm, mask, coeffs,
            lambda coeffs, mass, factor: _h1_per_patch_oracle(model, dm, coeffs, mass, factor))
        _assert_metric_is_real_form(assemble_vector_metric(model, dm, mask), expected)
    for model, _ in refined_cases:
        assert max(len(ids) for ids, _, _ in assembly._patch_batches(model.patches, None)) > 1


def _vector_loop_oracle(model, dm, pids, n_gauss, contribution):
    """The per-patch form of the vector assemblies: one
    ``build_patch_tables`` and one ``np.add.at`` per patch, in patch order;
    ``contribution(pid, tables)`` gives the (E, L) element entries."""
    vec = np.zeros(dm.n_global)
    for pid in pids:
        tab = build_patch_tables(model.patches[pid], n_gauss)
        np.add.at(vec, dm.patch_maps[pid].reshape(-1)[tab.dofs].reshape(-1),
                  (contribution(pid, tab) * field_signs(dm, pid)[tab.dofs]).reshape(-1))
    return vec[dm.free_globals]


def _l2_loop_oracle(model, dm, u_free, exact, n_gauss):
    """``l2_error`` patch by patch, the sums accumulated in patch order."""
    u_global = dm.expand(u_free)
    err2 = ref2 = 0.0
    for pid, patch in enumerate(model.patches):
        tab = build_patch_tables(patch, n_gauss)
        values = u_global[dm.patch_maps[pid].reshape(-1)[tab.dofs]] * field_signs(dm, pid)[tab.dofs]
        uh = np.einsum("eql,el->eq", tab.val, values)
        ux = exact(tab.xy[..., 0], tab.xy[..., 1])
        err2 += float(((uh - ux) ** 2 * tab.wdet).sum())
        ref2 += float((ux ** 2 * tab.wdet).sum())
    return np.sqrt(err2), np.sqrt(err2 / ref2)


def _coupling_edge_loop_oracle(model, dm, orders, n_gauss):
    """The coupling moments edge by edge: every element and Gauss point of
    one edge at once from the 1D tables, one ``np.add.at`` per edge."""
    sign = -1.0 if model.side == "stator" else 1.0
    radius = float(model.r_interface)
    if n_gauss is None:
        n_gauss = assembly.coupling_gauss_count(max(p.knots_u.degree for p in model.patches),
                                                orders)
    G = np.zeros((dm.n_global, orders.size))
    for pid, edge in model.interface_edges:
        patch = model.patches[pid]
        kv, w_edge, p_edge = edge_discretization(patch, edge)
        gmap = dm.patch_maps[pid]
        edge_globals = np.array([gmap[i, j] for i, j in edge_nodes(patch.n_u, patch.n_v, edge)])
        edge_signs = field_signs(dm, pid).reshape(gmap.shape)[assembly._edge_index(edge)]
        _, wq, N, dN, first = assembly._basis_table_1d(kv, n_gauss, {})
        local = first[:, None] + np.arange(kv.degree + 1)
        R, dR = rational_basis(w_edge[local][:, None, :], N, dN)
        point = R @ p_edge[local]
        tangent = dR @ p_edge[local]
        r = np.hypot(point[..., 0], point[..., 1])
        theta = np.arctan2(point[..., 1], point[..., 0])
        dtheta = (point[..., 0] * tangent[..., 1] - point[..., 1] * tangent[..., 0]) / (r * r)
        angle = theta[..., None] * np.abs(orders)
        harmonics = np.where(orders >= 0, np.cos(angle), np.sin(angle))
        weighted = R * (sign * radius * dtheta * wq)[..., None]
        moments = weighted.transpose(0, 2, 1) @ harmonics * edge_signs[local][..., None]
        np.add.at(G, edge_globals[local].reshape(-1), moments.reshape(-1, orders.size))
    return G[dm.free_globals]


def test_vectors_and_coupling_equal_per_patch_loops_bitwise(coarse_cfg, refined_cases):
    # the batched assemblies with one scatter each against the per-patch
    # (per-edge) loops they replaced, at the default and a wider Gauss rule
    exact = lambda x, y: np.sin(40.0 * x) * np.cos(30.0 * y)
    orders = np.array([-9, -6, -3, 3, 6, 9])
    rng = np.random.default_rng(8)
    for model, dm in refined_cases:
        all_pids = range(len(model.patches))
        for n_gauss in (None, 6):
            produced = assemble_load(model, dm, exact, n_gauss=n_gauss)
            expected = _vector_loop_oracle(model, dm, all_pids, n_gauss, lambda pid, tab: np.einsum(
                "eq,eql,eq->el", exact(tab.xy[..., 0], tab.xy[..., 1]), tab.val, tab.wdet))
            assert np.array_equal(produced, expected)
            u = rng.standard_normal(dm.n_free)
            assert np.array_equal(l2_error(model, dm, u, exact, n_gauss),
                                  _l2_loop_oracle(model, dm, u, exact, n_gauss))
            if model.side == "stator":
                for phase in (1, 2, 3):
                    pids = [pid for pid, tag in enumerate(model.tags)
                            if tag.kind == "coil" and tag.phase == phase]

                    def winding(pid, tab):
                        density = (model.copies * model.tags[pid].sign) * coarse_cfg.n_turns \
                            / float(tab.wdet.sum())
                        return density * np.einsum("eql,eq->el", tab.val, tab.wdet)

                    assert np.array_equal(
                        assemble_winding_vector(model, dm, coarse_cfg, phase, n_gauss),
                        _vector_loop_oracle(model, dm, pids, n_gauss, winding))
            else:
                pids = [pid for pid, tag in enumerate(model.tags) if tag.kind == "magnet"]

                def magnet(pid, tab):
                    mperp = assembly.magnetization_perp(model.tags[pid].sign, coarse_cfg, tab.xy)
                    return np.einsum("eqc,eqlc,eq->el", mperp, tab.grad, tab.wdet)

                assert np.array_equal(assemble_rhs(model, dm, coarse_cfg, n_gauss=n_gauss),
                                      _vector_loop_oracle(model, dm, pids, n_gauss, magnet))
        for n_gauss in (None, 12):
            assert np.array_equal(assemble_coupling(model, dm, orders, n_gauss),
                                  _coupling_edge_loop_oracle(model, dm, orders, n_gauss))


def _restrict_oracle(mat, idx):
    """The rows and columns ``idx`` of the full matrix, in that order, as a
    canonical CSR matrix."""
    out = mat[idx][:, idx].tocsr()
    out.sort_indices()
    return out


def test_restricted_operators_equal_full_assembly_restricted_bitwise(coarse_cfg, refined_cases):
    for model, dm in refined_cases:
        relmap = build_reluctivity_map(model, coarse_cfg)
        full = assembly._h1_matrix(model, dm, [relmap[tag] for tag in model.tags], keep=None)
        _assert_csr_identical(assemble_stiffness(model, dm, relmap),
                              _restrict_oracle(full, dm.free_globals))
    for model, dm in refined_cases[1:]:
        # the metric on every dof, its rows all globals in the band order:
        # no masked row or column touches a magnet patch, which only the
        # unrestricted metric integrates
        mask = DesignSpace(model, dm).mask
        full = assemble_vector_metric(model, dm, np.ones(dm.n_global, dtype=bool))
        _assert_csr_identical(assemble_vector_metric(model, dm, mask),
                              _restrict_oracle(full, np.flatnonzero(mask[dm.band_order])))


def _module_cache_sizes():
    return {name: len(value) for name, value in vars(assembly).items()
            if isinstance(value, (dict, list, set)) and not name.startswith("__")}


def test_plans_and_cached_tables_are_freed_with_their_machines():
    gc.collect()
    before = _module_cache_sizes()
    plans = []
    for refinement in (1, 0, 1):
        solver = MachineSolver(coarse_config(refinement=refinement))
        solver.evaluate(solver.rotor0)
        plans += [weakref.ref(solver.dm_st.plan), weakref.ref(solver.dm_rt.plan)]
        assert solver.dm_st.plan.tables and solver.dm_rt.plan.tables
        del solver
    gc.collect()
    assert all(plan() is None for plan in plans)
    after = _module_cache_sizes()
    assert all(after[name] <= size for name, size in before.items()), (before, after)


# ---------------------------------------------------------------- rotor geometry

def _count_builds(monkeypatch, name):
    """{"patches": n}: the number of patches passed to the assembly kernel
    ``name``, whose first argument after the space is a (G, ...) stack."""
    counts = {}
    kernel = getattr(assembly, name)

    def counting(space, first, *args):
        counts["patches"] = counts.get("patches", 0) + first.shape[0]
        return kernel(space, first, *args)

    monkeypatch.setattr(assembly, name, counting)
    return counts


@pytest.mark.parametrize("refinement", [0, 2])
def test_design_pass_builds_each_rotor_patch_table_once(monkeypatch, refinement):
    # stiffness -> shape gradient -> metric on a new rotor: one Jacobian and
    # one set of gradients per rotor patch (three passes over the design
    # patches without the kept geometry)
    from igamotor.adjoint import AdjointSet, assemble_shape_gradient

    cfg = coarse_config(refinement=refinement)
    solver = MachineSolver(cfg)
    design = DesignSpace(solver.rotor0, solver.dm_rt)
    rotor = design.displace(solver.rotor0, 1e-5 * np.ones(design.n_dofs), 1.0)
    rng = np.random.default_rng(4)
    u = rng.standard_normal((3, solver.dm_rt.n_free))
    adjoints = AdjointSet(rng.standard_normal((3, 4)),
                          rng.standard_normal((solver.dm_rt.n_free, 4)))
    jacobians = _count_builds(monkeypatch, "_jacobian")
    gradients = _count_builds(monkeypatch, "_gradients")
    assemble_stiffness(rotor, solver.dm_rt, solver.relmap_rt)
    assemble_shape_gradient(rotor, solver.dm_rt, design, u, adjoints, solver.relmap_rt)
    assemble_vector_metric(rotor, solver.dm_rt, design.mask)
    assert check_mesh_validity(rotor, 0.0, solver.dm_rt)[0]
    assert jacobians == gradients == {"patches": len(rotor.patches)}


def test_replaced_rotor_geometry_is_freed_and_stator_geometry_never_kept(monkeypatch):
    built = []

    class Recorded(assembly.RotorGeometry):
        def __init__(self, patches, plan):
            super().__init__(patches, plan)
            built.append(weakref.ref(self))

    monkeypatch.setattr(assembly, "RotorGeometry", Recorded)
    solver = MachineSolver(coarse_config(refinement=1))
    design = DesignSpace(solver.rotor0, solver.dm_rt)
    trials = [design.displace(solver.rotor0, np.ones(design.n_dofs), delta)
              for delta in (1e-5, 2e-5)]
    solver.evaluate(trials[0])
    first = solver.dm_rt.plan._geometry
    assert first.patches == tuple(trials[0].patches)
    check_mesh_validity(solver.stator, 0.0, solver.dm_st)
    solver.evaluate(trials[1])                  # the next trial replaces it
    del first
    gc.collect()
    assert [ref() is not None for ref in built] == [False, True]
    assert built[-1]().patches == tuple(trials[1].patches)
    assert solver.dm_st.plan._geometry is None and not solver.dm_st.plan._scatters


def test_foreign_rotor_geometry_is_rebuilt_not_reused(coarse_cfg, coarse_machine, coarse_dofmaps):
    # equal values on other patch objects: a new geometry, equal operators
    from igamotor.geometry import dump_geometry, load_geometry

    _, rotor = coarse_machine
    dm = dataclasses.replace(coarse_dofmaps[1])
    relmap = build_reluctivity_map(rotor, coarse_cfg)
    own = assemble_stiffness(rotor, dm, relmap)
    kept = dm.plan._geometry
    copy = load_geometry(dump_geometry(rotor))
    _assert_csr_identical(assemble_stiffness(copy, dm, relmap), own)
    assert dm.plan._geometry is not kept and dm.plan._geometry.patches == tuple(copy.patches)


def test_closure_crosses_are_kept_on_the_plan(coarse_cfg, coarse_machine, coarse_dofmaps):
    # a closure patch's crosses are built once per dof map: every later
    # operator on it reads the same read-only arrays
    _, rotor = coarse_machine
    dm = dataclasses.replace(coarse_dofmaps[1])
    relmap = build_reluctivity_map(rotor, coarse_cfg)
    coeffs = [relmap[tag] for tag in rotor.tags]
    pids = list(range(len(rotor.patches)))
    _, first = assembly._h1_blocks(rotor, dm, pids, coeffs, 0.0)
    _, again = assembly._h1_blocks(rotor, dm, pids, coeffs, 1.0)
    assert first and len(again) == len(first)
    for (span, cross), (span_again, cross_again) in zip(first, again):
        assert span == span_again and cross_again is cross and not cross.flags.writeable


def _scatter_oracle(groups, maps, n_global, kept):
    """The pattern and slots of every element-matrix entry (patch, element,
    row, column order) by ``np.unique`` over all entries, on the globals
    ``kept`` in their order (all when None)."""
    if kept is None:
        kept = np.arange(n_global)
    index = np.full(n_global, -1)
    index[kept] = np.arange(kept.size)
    n = kept.size
    tables = {i: space[0] for ids, space in groups for i in ids}
    entries = []
    for i in sorted(tables):
        gd = index[maps[i]][tables[i]]
        row, col = gd[:, :, None], gd[:, None, :]
        entries.append(np.where((row < 0) | (col < 0), n * n, row * n + col).reshape(-1))
    pairs, slots = np.unique(np.concatenate(entries), return_inverse=True)
    pairs = pairs[pairs < n * n]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(pairs // n, minlength=n))])
    return indptr, pairs % n, slots.reshape(-1)


@pytest.mark.parametrize("refinement", [0, 2])
def test_scatter_equals_np_unique_oracle(refinement):
    for model in build_demo_machine(coarse_config(refinement=refinement)):
        dm = build_dof_map(model)
        groups = assembly._group(model.patches, {})
        maps = [gmap.reshape(-1) for gmap in dm.patch_maps]
        # all globals, the free ones in the band order, and half of them
        # in an order of no pattern
        shuffled = np.random.default_rng(refinement).permutation(dm.free_globals)
        for kept in (None, dm.free_globals, shuffled[:shuffled.size // 2]):
            produced = assembly._csr_scatter(groups, maps, dm.n_global, kept)
            expected = _scatter_oracle(groups, maps, dm.n_global, kept)
            # int32 CSR indices; intp slots, which np.bincount reads in place
            for a, b, dtype in zip(produced, expected, (np.int32, np.int32, np.intp)):
                assert a.dtype == dtype and np.array_equal(a, b)


# ---------------------------------------------------------------- scatter cache

def test_h1_matrix_csr_is_canonical(coarse_machine, coarse_dofmaps):
    for model, dm in _machine_cases(coarse_machine, coarse_dofmaps):
        K = assembly._h1_matrix(model, dm, [1.0] * len(model.patches), keep=None)
        assert K.has_canonical_format


def test_scatter_cold_and_warm_cache_agree_bitwise(coarse_machine, coarse_dofmaps):
    _, rotor, moved = [m for m, _ in _machine_cases(coarse_machine, coarse_dofmaps)]
    _, dm_rt = coarse_dofmaps
    ones = [1.0] * len(rotor.patches)
    fresh = dataclasses.replace(dm_rt)             # a new dof map: a cold plan
    cold = assembly._h1_matrix(rotor, fresh, ones, keep=None)
    n_entries = len(fresh.plan._scatters)
    _assert_csr_identical(assembly._h1_matrix(rotor, fresh, ones, keep=None), cold)
    # warm: the scatter was filled by another shape on the same dof map
    fresh = dataclasses.replace(dm_rt)
    assembly._h1_matrix(moved, fresh, ones, keep=None)
    warm = assembly._h1_matrix(rotor, fresh, ones, keep=None)
    assert len(fresh.plan._scatters) == n_entries
    _assert_csr_identical(warm, cold)


def test_plan_assembles_foreign_patches_afresh_and_equally(coarse_cfg, coarse_machine, coarse_dofmaps):
    # a JSON round trip gives equal values on new knots and weights objects:
    # the plan neither serves nor stores them, and the operators keep their bits
    from igamotor.geometry import dump_geometry, load_geometry

    _, rotor = coarse_machine
    dm = dataclasses.replace(coarse_dofmaps[1])
    copy = load_geometry(dump_geometry(rotor))
    relmap = build_reluctivity_map(rotor, coarse_cfg)
    mask = DesignSpace(rotor, dm).mask
    own = (assemble_stiffness(rotor, dm, relmap), assemble_vector_metric(rotor, dm, mask))
    kept = (dict(dm.plan._groups), dict(dm.plan._scatters))
    foreign = (assemble_stiffness(copy, dm, relmap), assemble_vector_metric(copy, dm, mask))
    for cache, before in zip((dm.plan._groups, dm.plan._scatters), kept):
        assert cache.keys() == before.keys()
        assert all(cache[key] is before[key] for key in before)
    for a, b in zip(own, foreign):
        _assert_csr_identical(a, b)
    assert check_mesh_validity(copy, 0.0, dm) == check_mesh_validity(rotor, 0.0, dm)


def test_scatter_cache_misses_on_a_different_dof_map(coarse_machine, coarse_dofmaps):
    _, rotor = coarse_machine
    _, dm = coarse_dofmaps
    ones = [1.0] * len(rotor.patches)
    K = assembly._h1_matrix(rotor, dm, ones, keep=None)
    perm = np.random.default_rng(5).permutation(dm.n_global)
    renumbered = dataclasses.replace(dm, patch_maps=[perm[m] for m in dm.patch_maps])
    K_perm = assembly._h1_matrix(rotor, renumbered, ones, keep=None)
    assert renumbered.plan is not dm.plan
    assert len(renumbered.plan._scatters) == 1
    assert np.array_equal(K_perm[perm][:, perm].toarray(), K.toarray())


def test_scatter_arrays_are_read_only_and_not_handed_out(coarse_machine, coarse_dofmaps):
    _, rotor = coarse_machine
    _, dm = coarse_dofmaps
    dm = dataclasses.replace(dm)
    K = assembly._h1_matrix(rotor, dm, [1.0] * len(rotor.patches), keep=None)
    (indptr, indices, slots), = dm.plan._scatters.values()
    for arr in (indptr, indices, slots):
        with pytest.raises(ValueError):
            arr[0] = 1
    assert not np.shares_memory(K.indices, indices)
    assert not np.shares_memory(K.indptr, indptr)


# ---------------------------------------------------------------- manufactured

def test_manufactured_solution_converges_at_order_three():
    exact = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    source = lambda x, y: 2 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)
    errors = []
    for n_el in (4, 8, 16):
        model = square_model(p=2, n_elements=n_el, dirichlet=True)
        dm = build_dof_map(model)
        K = assemble_stiffness(model, dm, {RegionTag("rotor_air"): 1.0})
        F = assemble_load(model, dm, source, n_gauss=6)
        u = spla.spsolve(K.tocsc(), F)
        err, _ = l2_error(model, dm, u, exact, n_gauss=6)
        errors.append(err)
    rates = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for rate in rates:
        assert abs(rate - 3.0) < 0.2
