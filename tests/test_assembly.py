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
    assemble_load,
    assemble_rhs,
    assemble_stiffness,
    assemble_vector_metric,
    assemble_winding_vector,
    build_patch_tables,
    build_reluctivity_map,
    eval_field,
    gauss_rule,
    l2_error,
    patch_area,
    patch_min_detj,
)
from igamotor.design import DesignSpace
from igamotor.errors import AssemblyError, ConfigError, GeometryError
from igamotor.geometry import (
    MachineConfig,
    MultipatchModel,
    RegionTag,
    build_dof_map,
    edge_discretization,
    edge_nodes,
)
from igamotor.splines import (
    KnotVector,
    NurbsPatch,
    bspline_basis,
    insert_knots,
    make_arc_patch,
    nurbs_basis,
)

from conftest import coarse_config, homogeneous_eval, weighted_arc_patch


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
    K = _h1_matrix(model, dm, [1.0])
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


def _h1_einsum_oracle(model, dm, coeffs, mass=0.0):
    """The element kernels as einsum contractions summed by a COO -> CSR
    conversion: the reference for the batched kernels and cached scatter."""
    rows, cols, data = [], [], []
    for pid, (patch, coeff) in enumerate(zip(model.patches, coeffs)):
        if coeff == 0.0:
            continue
        tab = build_patch_tables(patch)
        gd = dm.patch_maps[pid].reshape(-1)[tab.dofs]
        ke = coeff * np.einsum("eqlc,eq,eqmc->elm", tab.grad, tab.wdet, tab.grad)
        if mass:
            ke += mass * np.einsum("eql,eq,eqm->elm", tab.val, tab.wdet, tab.val)
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
            produced = assembly._h1_matrix(model, dm, cs, mass=mass)
            expected = _h1_einsum_oracle(model, dm, cs, mass=mass)
            assert _rel_diff(produced, expected) < 1e-13


def test_patch_tables_match_einsum_oracle(coarse_machine, coarse_dofmaps):
    for model, _ in _machine_cases(coarse_machine, coarse_dofmaps):
        for patch in model.patches:
            tab = build_patch_tables(patch)
            n_gauss = max(patch.knots_u.degree, patch.knots_v.degree) + 1
            dofs, R, Rx, Ry, w2 = assembly._space_tables(patch, n_gauss)
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
    from igamotor.splines import eval_patch

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
                    xy, jac = eval_patch(model.patches[0], xi, eta)
                    r = np.hypot(*xy)
                    mperp = scale * np.array([-xy[1] / r, xy[0] / r])
                    for g in range(dm.n_global):
                        one_hot[g] = 1.0
                        _, _, grad = eval_field(model, dm, one_hot, 0, xi, eta)
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
            ctrl = np.concatenate([patch.points, u_global[dm.patch_maps[pid]][..., None]],
                                  axis=-1)
            for xi, eta in rng.uniform(0.0, 1.0, size=(10, 2)):
                point, value, grad = eval_field(model, dm, u_global, pid, xi, eta)
                ref, ref_jac = homogeneous_eval(patch, ctrl, xi, eta)
                ref_grad = np.linalg.solve(ref_jac[:2].T, ref_jac[2])
                assert np.linalg.det(ref_jac[:2]) > 0.0
                assert np.abs(point - ref[:2]).max() <= 1e-13 * np.abs(ref[:2]).max()
                assert abs(value - ref[2]) <= 1e-13 * np.abs(u_global).max()
                assert np.abs(grad - ref_grad).max() <= 1e-13 * np.abs(ref_grad).max()


# ---------------------------------------------------------------- winding

def test_winding_balanced_phases_integrate_to_zero(coarse_cfg, coarse_machine, coarse_dofmaps):
    stator, _ = coarse_machine
    dm_st, _ = coarse_dofmaps
    for phase in (1, 2, 3):
        chi = assemble_winding_vector(stator, dm_st, coarse_cfg, phase)
        # u == 1 is exactly representable; no coil dof is constrained
        assert abs(chi.sum()) < 1e-12 * np.abs(chi).max()


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

def test_coupling_zero_order_column_sums(coarse_cfg, coarse_machine, coarse_dofmaps):
    stator, rotor = coarse_machine
    dm_st, dm_rt = coarse_dofmaps
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
        _, rotor = __import__("igamotor.geometry", fromlist=["build_demo_machine"]).build_demo_machine(cfg)
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
        for row, th in enumerate(thetas):
            pid, _, eta = locate_polar(rotor, cfg.r_interface, th)
            basis = np.zeros(dm.n_global)
            for col, g in enumerate(on_iface):
                basis[g] = 1.0
                _, val, _ = eval_field(rotor, dm, basis, pid, 1.0, eta)
                A[row, col] = val
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
                    sign * radius * dtheta * (b - a) * rule.weights[q] * np.outer(R, harmonics))
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

def test_metric_is_spd_and_block_decoupled(coarse_machine, coarse_dofmaps, rng):
    _, rotor = coarse_machine
    _, dm_rt = coarse_dofmaps
    mask = np.zeros(dm_rt.n_global, dtype=bool)
    mask[dm_rt.free_globals[:50]] = True
    B = assemble_vector_metric(rotor, dm_rt, mask)
    n = int(mask.sum())
    assert B.shape == (2 * n, 2 * n)
    assert abs(B[:n, n:]).nnz == 0 and abs(B[n:, :n]).nnz == 0
    assert np.abs((B[:n, :n] - B[n:, n:]).toarray()).max() == 0.0
    for _ in range(20):
        x = rng.standard_normal(2 * n)
        assert x @ (B @ x) > 0.0
    with pytest.raises(ConfigError):
        assemble_vector_metric(rotor, dm_rt, np.zeros(dm_rt.n_global, dtype=bool))


def _assert_csr_identical(a, b):
    assert a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_metric_equals_all_patch_matrix_bitwise(coarse_machine, coarse_dofmaps):
    for model, dm in _machine_cases(coarse_machine, coarse_dofmaps)[1:]:
        mask = DesignSpace(model, dm).mask
        without = [not mask[gmap.reshape(-1)].any() for gmap in dm.patch_maps]
        assert any(without)          # the magnet patches hold no masked dof
        idx = np.flatnonzero(mask)
        H = assembly._h1_matrix(model, dm, [1.0] * len(model.patches), mass=1.0)
        Hm = H[idx][:, idx].tocsr()
        _assert_csr_identical(assemble_vector_metric(model, dm, mask),
                              sp.block_diag([Hm, Hm], format="csr"))


def test_metric_constant_field_gives_area():
    model = square_model(p=2, n_elements=2, dirichlet=False)
    dm = build_dof_map(model)
    mask = np.ones(dm.n_global, dtype=bool)
    B = assemble_vector_metric(model, dm, mask)
    n = dm.n_global
    w = np.concatenate([np.ones(n), np.zeros(n)])  # W = (1, 0), DW = 0
    area = patch_area(model.patches[0])
    assert abs(w @ (B @ w) - area) < 1e-12


# ---------------------------------------------------------------- table cache

def _clear_table_caches():
    assembly._SPACE_CACHE.clear()
    assembly._TABLE_CACHE.clear()
    assembly._SCATTER_CACHE.clear()


def _assert_tables_equal(a, b):
    for f in fields(PatchTables):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


def test_patch_tables_cold_and_warm_cache_agree(coarse_machine, coarse_dofmaps, rng):
    _, rotor = coarse_machine
    _, dm_rt = coarse_dofmaps
    design = DesignSpace(rotor, dm_rt)
    moved = design.displace(rotor, 1e-5 * rng.standard_normal(design.n_dofs), 1.0)
    pid = design.patch_ids[0]
    shapes = (rotor.patches[pid], moved.patches[pid])
    cold = []
    for patch in shapes:
        _clear_table_caches()
        cold.append(build_patch_tables(patch))
    assert not np.array_equal(cold[0].detj, cold[1].detj)
    # warm: the cache entry was filled by the other shape
    for patch, other, ref in zip(shapes, shapes[::-1], cold):
        _clear_table_caches()
        build_patch_tables(other)
        n_entries = len(assembly._SPACE_CACHE)
        warm = build_patch_tables(patch)
        assert len(assembly._SPACE_CACHE) == n_entries
        _assert_tables_equal(ref, warm)


def test_patch_min_detj_matches_full_tables(coarse_machine):
    for model in coarse_machine:
        for patch in model.patches:
            full = build_patch_tables(patch, require_regular=False)
            assert patch_min_detj(patch) == full.detj.min()


def test_space_cache_keys_on_weights():
    plain = square_model(p=2, n_elements=2).patches[0]
    weights = plain.weights.copy()
    weights[1, 1] = 2.0
    bumped = NurbsPatch(plain.knots_u, plain.knots_v, plain.points, weights)
    a = build_patch_tables(plain)
    b = build_patch_tables(bumped)
    assert not np.array_equal(a.val, b.val)
    _clear_table_caches()
    _assert_tables_equal(b, build_patch_tables(bumped))


def test_cached_tables_are_read_only():
    tab = build_patch_tables(square_model(p=2, n_elements=2).patches[0])
    with pytest.raises(ValueError):
        tab.val[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        tab.dofs[0, 0] = 0


# ---------------------------------------------------------------- scatter cache

def test_h1_matrix_csr_is_canonical(coarse_machine, coarse_dofmaps):
    for model, dm in _machine_cases(coarse_machine, coarse_dofmaps):
        K = assembly._h1_matrix(model, dm, [1.0] * len(model.patches))
        assert K.has_canonical_format


def test_scatter_cold_and_warm_cache_agree_bitwise(coarse_machine, coarse_dofmaps):
    _, rotor, moved = [m for m, _ in _machine_cases(coarse_machine, coarse_dofmaps)]
    _, dm_rt = coarse_dofmaps
    ones = [1.0] * len(rotor.patches)
    _clear_table_caches()
    cold = assembly._h1_matrix(rotor, dm_rt, ones)
    n_entries = len(assembly._SCATTER_CACHE)
    _assert_csr_identical(assembly._h1_matrix(rotor, dm_rt, ones), cold)
    # warm: the scatter was filled by another shape on the same dof map
    _clear_table_caches()
    assembly._h1_matrix(moved, dm_rt, ones)
    warm = assembly._h1_matrix(rotor, dm_rt, ones)
    assert len(assembly._SCATTER_CACHE) == n_entries
    _assert_csr_identical(warm, cold)


def test_scatter_cache_misses_on_a_different_dof_map(coarse_machine, coarse_dofmaps):
    import dataclasses

    _, rotor = coarse_machine
    _, dm = coarse_dofmaps
    ones = [1.0] * len(rotor.patches)
    K = assembly._h1_matrix(rotor, dm, ones)
    n_entries = len(assembly._SCATTER_CACHE)
    perm = np.random.default_rng(5).permutation(dm.n_global)
    renumbered = dataclasses.replace(dm, patch_maps=[perm[m] for m in dm.patch_maps])
    K_perm = assembly._h1_matrix(rotor, renumbered, ones)
    assert len(assembly._SCATTER_CACHE) == n_entries + 1
    assert np.array_equal(K_perm[perm][:, perm].toarray(), K.toarray())


def test_scatter_arrays_are_read_only_and_not_handed_out(coarse_machine, coarse_dofmaps):
    _clear_table_caches()
    _, rotor = coarse_machine
    _, dm = coarse_dofmaps
    K = assembly._h1_matrix(rotor, dm, [1.0] * len(rotor.patches))
    (indptr, indices, slots), = assembly._SCATTER_CACHE.values()
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
