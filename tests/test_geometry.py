import numpy as np
import pytest

from igamotor.errors import ConfigError, ConformityError
from igamotor.geometry import (
    MAX_ANGLES,
    MAX_DOFS,
    MachineConfig,
    MultipatchModel,
    RegionTag,
    build_demo_machine,
    build_dof_map,
    check_mesh_validity,
    dump_geometry,
    edge_discretization,
    edge_nodes,
    load_geometry,
    locate_polar,
)
from igamotor.assembly import patch_area
from igamotor.splines import KnotVector, NurbsPatch, eval_patch, make_arc_patch

from conftest import coarse_config


def square_patch_p2(x0=0.0):
    kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
    g = np.array([0.0, 0.5, 1.0])
    pts = np.stack(np.meshgrid(g + x0, g, indexing="ij"), axis=-1)
    return NurbsPatch(kv, kv, pts, np.ones((3, 3)))


# ---------------------------------------------------------------- config

def test_config_rejects_inconsistent_radii():
    with pytest.raises(ConfigError):
        coarse_config(r_magnet=0.06)  # larger than interface radius
    with pytest.raises(ConfigError):
        coarse_config(n_angles=7)
    with pytest.raises(ConfigError):
        coarse_config(n_harmonics=30)  # trace too poor at refinement 0


@pytest.mark.parametrize("overrides", [{"n_angles": 10 ** 12}, {"n_angles": MAX_ANGLES + 2},
                                       {"refinement": 10 ** 5}, {"refinement": 7},
                                       {"pole_pairs": 10 ** 9}])
def test_config_rejects_unbuildable_sizes(overrides):
    # rejected before any machine is built or any array allocated
    with pytest.raises(ConfigError):
        MachineConfig(**overrides)


def test_config_size_bounds_admit_their_limits():
    assert MachineConfig(n_angles=MAX_ANGLES).n_angles == MAX_ANGLES
    assert MachineConfig(refinement=6, pole_pairs=4).n_dofs <= MAX_DOFS   # 917,280
    with pytest.raises(ConfigError):
        MachineConfig(refinement=6, pole_pairs=5)                          # 1,146,600


@pytest.mark.parametrize("pole_pairs", [2, 3])
@pytest.mark.parametrize("refinement", [0, 1, 2])
def test_config_dof_count_is_exact(pole_pairs, refinement):
    cfg = coarse_config(pole_pairs=pole_pairs, refinement=refinement, n_harmonics=4)
    stator, rotor = build_demo_machine(cfg)
    assert cfg.n_dofs == build_dof_map(stator).n_global + build_dof_map(rotor).n_global


def test_config_validates_index_set():
    assert coarse_config(index_set=(1, 3, 5)).index_set == (1, 3, 5)
    with pytest.raises(ConfigError):
        coarse_config(index_set=(3, 5))  # fundamental missing
    with pytest.raises(ConfigError):
        coarse_config(index_set=(1, 6))  # beyond resolvable harmonics (n_angles=12)


# ---------------------------------------------------------------- demo machine

def test_demo_machine_magnet_count(coarse_cfg, coarse_machine):
    _, rotor = coarse_machine
    magnets = [t for t in rotor.tags if t.kind == "magnet"]
    assert len(magnets) == 2 * coarse_cfg.pole_pairs
    assert sum(t.sign for t in magnets) == 0


def test_interface_edges_on_circle(coarse_cfg, coarse_machine):
    for model in coarse_machine:
        for pid, edge in model.interface_edges:
            patch = model.patches[pid]
            xi = 1.0 if edge == "u1" else 0.0
            for eta in np.linspace(0.0, 1.0, 50):
                point, _ = eval_patch(patch, xi, eta)
                assert abs(np.hypot(*point) - coarse_cfg.r_interface) < 1e-10


def test_refinement_grows_dofs(coarse_cfg):
    st0, rt0 = build_demo_machine(coarse_cfg)
    st1, rt1 = build_demo_machine(coarse_config(refinement=1))
    for a, b in ((st0, st1), (rt0, rt1)):
        assert b.patches[0].n_u == a.patches[0].n_u + 1
        assert build_dof_map(b).n_global > build_dof_map(a).n_global


def test_matched_edge_traces_agree(coarse_machine):
    _, rotor = coarse_machine
    for pa, ea, pb, eb, reverse in rotor.connectivity[:40]:
        A, B = rotor.patches[pa], rotor.patches[pb]
        for s in np.linspace(0, 1, 20):
            sb = 1.0 - s if reverse else s
            xa = {"u0": (0.0, s), "u1": (1.0, s), "v0": (s, 0.0), "v1": (s, 1.0)}[ea]
            xb = {"u0": (0.0, sb), "u1": (1.0, sb), "v0": (sb, 0.0), "v1": (sb, 1.0)}[eb]
            pa_xy, _ = eval_patch(A, *xa)
            pb_xy, _ = eval_patch(B, *xb)
            np.testing.assert_allclose(pa_xy, pb_xy, atol=1e-12)


def test_region_areas_sum_to_annulus(coarse_cfg, coarse_machine):
    stator, rotor = coarse_machine
    rotor_area = sum(patch_area(p, 10) for p in rotor.patches)
    stator_area = sum(patch_area(p, 10) for p in stator.patches)
    exact_rt = np.pi * (coarse_cfg.r_interface ** 2 - coarse_cfg.r_shaft ** 2)
    exact_st = np.pi * (coarse_cfg.r_outer ** 2 - coarse_cfg.r_interface ** 2)
    assert abs(rotor_area - exact_rt) / exact_rt < 1e-8
    assert abs(stator_area - exact_st) / exact_st < 1e-8


# ---------------------------------------------------------------- dof map

def union_find_numbering(model):
    """Global number of every patch node, patch by patch: the equivalence
    closure of matched edge nodes by union-find, classes numbered in order
    of their lowest node."""
    shapes = [(p.n_u, p.n_v) for p in model.patches]
    offsets = np.cumsum([0] + [nu * nv for nu, nv in shapes])
    parent = list(range(int(offsets[-1])))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for pa, ea, pb, eb, reverse in model.connectivity:
        na = edge_nodes(*shapes[pa], ea)
        nb = edge_nodes(*shapes[pb], eb)
        for (ia, ja), (ib, jb) in zip(na, nb[::-1] if reverse else nb):
            ra = find(offsets[pa] + ia * shapes[pa][1] + ja)
            rb = find(offsets[pb] + ib * shapes[pb][1] + jb)
            parent[max(ra, rb)] = min(ra, rb)
    roots = [find(a) for a in range(len(parent))]
    return np.unique(roots, return_inverse=True)[1]


def _ring_model(m=4):
    patches = [make_arc_patch(1.0, 2.0, s * np.pi / 2, (s + 1) * np.pi / 2) for s in range(m)]
    conn = [(s, "v1", (s + 1) % m, "v0", False) for s in range(m)]
    return MultipatchModel(patches, [RegionTag("rotor_air")] * m, connectivity=conn)


@pytest.mark.parametrize("refinement", [0, 1, 2])
def test_dof_map_numbering_matches_union_find(refinement):
    models = list(build_demo_machine(coarse_config(refinement=refinement, n_harmonics=4)))
    for model in models + [_ring_model()]:
        dm = build_dof_map(model)
        flat = np.concatenate([g.reshape(-1) for g in dm.patch_maps])
        oracle = union_find_numbering(model)
        assert flat.dtype == oracle.dtype
        assert np.array_equal(flat, oracle)
        assert dm.n_global == oracle.max() + 1


def test_dof_map_two_patches_share_edge():
    model = MultipatchModel(
        patches=[square_patch_p2(0.0), square_patch_p2(1.0)],
        tags=[RegionTag("rotor_air")] * 2,
        connectivity=[(0, "u1", 1, "u0", False)],
    )
    dm = build_dof_map(model)
    assert dm.n_global == 9 + 9 - 3
    assert dm.n_free == dm.n_global


def test_dof_map_ring_closure():
    m = 4
    dm = build_dof_map(_ring_model(m))
    assert dm.n_global == m * 9 - m * 3


def test_dof_map_dirichlet_marks_boundary(coarse_machine, coarse_dofmaps):
    stator, rotor = coarse_machine
    dm_st, dm_rt = coarse_dofmaps
    for model, dm in ((stator, dm_st), (rotor, dm_rt)):
        n_marked = int(dm.dirichlet.sum())
        boundary = set()
        for pid, edge in model.dirichlet_edges:
            for i, j in edge_nodes(model.patches[pid].n_u, model.patches[pid].n_v, edge):
                boundary.add(dm.patch_maps[pid][i, j])
        assert n_marked == len(boundary)
        assert dm.n_free == dm.n_global - n_marked


def test_dof_map_rejects_nonconforming_edges():
    a = square_patch_p2(0.0)
    b = square_patch_p2(1.0)
    shifted = NurbsPatch(b.knots_u, b.knots_v, b.points + [0.0, 0.1], b.weights)
    model = MultipatchModel([a, shifted], [RegionTag("rotor_air")] * 2,
                            connectivity=[(0, "u1", 1, "u0", False)])
    with pytest.raises(ConformityError):
        build_dof_map(model)


# ---------------------------------------------------------------- validity

def test_mesh_validity_on_demo_machine(coarse_machine):
    for model in coarse_machine:
        ok, min_det = check_mesh_validity(model, 0.0)
        assert ok and min_det > 0.0


def test_mesh_validity_detects_fold():
    patch = square_patch_p2()
    pts = patch.points.copy()
    pts[[0, 2], :, :] = pts[[2, 0], :, :]  # swap control columns: inverted map
    folded = NurbsPatch(patch.knots_u, patch.knots_v, pts, patch.weights)
    model = MultipatchModel([folded], [RegionTag("rotor_air")])
    ok, min_det = check_mesh_validity(model, 0.0)
    assert not ok and min_det < 0.0


def test_mesh_validity_threshold_semantics(coarse_machine):
    _, rotor = coarse_machine
    ok, min_det = check_mesh_validity(rotor, 0.0)
    assert ok
    ok2, _ = check_mesh_validity(rotor, 2.0 * min_det)
    assert not ok2


# ---------------------------------------------------------------- round trip

def test_geometry_dump_load_round_trip(coarse_machine):
    _, rotor = coarse_machine
    text = dump_geometry(rotor)
    back = load_geometry(text)
    assert len(back.patches) == len(rotor.patches)
    for a, b in zip(rotor.patches, back.patches):
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.knots_u.knots, b.knots_u.knots)
    assert back.tags == rotor.tags
    assert back.connectivity == rotor.connectivity
    assert dump_geometry(back) == text


# ---------------------------------------------------------------- polar lookup

def test_locate_polar_round_trip(coarse_machine):
    _, rotor = coarse_machine
    rng = np.random.default_rng(5)
    radii = rotor.meta["ring_radii"]
    for _ in range(30):
        r = rng.uniform(radii[0] + 1e-4, radii[-1] - 1e-4)
        th = rng.uniform(0.0, 2 * np.pi)
        pid, xi, eta = locate_polar(rotor, r, th)
        point, _ = eval_patch(rotor.patches[pid], xi, eta)
        np.testing.assert_allclose(point, [r * np.cos(th), r * np.sin(th)], atol=1e-11)
