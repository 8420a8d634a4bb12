import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from igamotor.errors import ConfigError, ConformityError, GeometryError
from igamotor.geometry import (
    MAX_ANGLES,
    MAX_DOFS,
    MAX_ORDER,
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
from igamotor.geometry import _join, _number
from igamotor.splines import KnotVector, NurbsPatch, eval_patch, insert_knots, make_arc_patch

from conftest import coarse_config, scalar_locate_polar
from oracles import patch_area


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


@pytest.mark.parametrize("overrides", [
    {"pole_pairs": 1},                                  # magnet 0.7 pi
    {"pole_pairs": 1, "magnet_span": 0.95},             # magnet 0.95 pi
    {"pole_pairs": 1, "magnet_span": 0.5 + 1e-9},       # magnet just above pi/2
    {"pole_pairs": 1, "magnet_span": 1e-300},           # magnet sweep rounds to 0
])
def test_config_rejects_sectors_wider_than_one_arc_patch(overrides):
    with pytest.raises(ConfigError, match="sector sweep"):
        coarse_config(n_harmonics=4, **overrides)


@pytest.mark.parametrize("pole_pairs, magnet_span, slot_span",
                         [(1, 0.5, 0.5), (1, 0.45, 0.99), (2, 0.99, 0.01), (3, 0.7, 0.5)])
def test_config_sector_bounds_are_the_built_sectors(pole_pairs, magnet_span, slot_span):
    cfg = coarse_config(pole_pairs=pole_pairs, magnet_span=magnet_span,
                        slot_span=slot_span, n_harmonics=4)
    stator, rotor = build_demo_machine(cfg)
    rotor_bounds, stator_bounds = cfg.sector_bounds()
    assert rotor.meta["sector_bounds"] == [list(b) for b in rotor_bounds]
    assert stator.meta["sector_bounds"] == [list(b) for b in stator_bounds]
    assert all(0.0 < b - a <= np.pi / 2 + 1e-12 for a, b in rotor_bounds + stator_bounds)


@pytest.mark.parametrize("overrides", [{"n_angles": 10 ** 12}, {"n_angles": MAX_ANGLES + 2},
                                       {"refinement": 10 ** 5}, {"refinement": 8},
                                       {"pole_pairs": 10 ** 9}])
def test_config_rejects_unbuildable_sizes(overrides):
    # rejected before any machine is built or any array allocated
    with pytest.raises(ConfigError):
        MachineConfig(**overrides)


def test_config_size_bounds_admit_their_limits():
    assert MachineConfig(n_angles=MAX_ANGLES).n_angles == MAX_ANGLES
    # the pitch's dofs do not depend on pole_pairs
    assert MachineConfig(refinement=7, pole_pairs=5).n_dofs <= MAX_DOFS   # 450,468
    with pytest.raises(ConfigError):
        MachineConfig(refinement=8)                                        # 1,785,636
    # every coupled order is an odd multiple of pole_pairs
    assert MachineConfig(pole_pairs=MAX_ORDER, n_harmonics=2).pole_pairs == MAX_ORDER
    with pytest.raises(ConfigError):
        MachineConfig(pole_pairs=MAX_ORDER + 1, n_harmonics=2)
    with pytest.raises(ConfigError):      # largest configured order 3 x 1366 = 4098
        MachineConfig(pole_pairs=1366, n_harmonics=6, harmonics_multiple_of_poles=True)


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
    with pytest.raises(ConfigError, match="distinct"):
        coarse_config(index_set=(1, 5, 5))  # the THD would count harmonic 5 twice
    for n_angles in (2, 3):                 # no harmonic resolvable: the default set is empty
        with pytest.raises(ConfigError, match=">= 4"):
            coarse_config(n_angles=n_angles)
    assert coarse_config(n_angles=4, index_set=None).n_angles == 4


# ---------------------------------------------------------------- demo machine

def test_demo_machine_magnet_count(coarse_cfg, coarse_machine):
    _, pitch = coarse_machine
    _, ring = build_demo_machine(coarse_cfg, 2 * coarse_cfg.pole_pairs)
    assert [t.sign for t in pitch.tags if t.kind == "magnet"] == [1]
    magnets = [t for t in ring.tags if t.kind == "magnet"]
    assert len(magnets) == 2 * coarse_cfg.pole_pairs
    assert sum(t.sign for t in magnets) == 0
    assert (pitch.copies, pitch.closure_sign) == (2 * coarse_cfg.pole_pairs, -1)
    assert (ring.copies, ring.closure_sign) == (1, 1)


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
    rotor_area = rotor.copies * sum(patch_area(p, 10) for p in rotor.patches)
    stator_area = stator.copies * sum(patch_area(p, 10) for p in stator.patches)
    exact_rt = np.pi * (coarse_cfg.r_interface ** 2 - coarse_cfg.r_shaft ** 2)
    exact_st = np.pi * (coarse_cfg.r_outer ** 2 - coarse_cfg.r_interface ** 2)
    assert abs(rotor_area - exact_rt) / exact_rt < 1e-8
    assert abs(stator_area - exact_st) / exact_st < 1e-8


# ---------------------------------------------------------------- dof map

def union_find_labels(pairs, total):
    """Label of each of ``total`` nodes: the equivalence closure of the node
    ``pairs`` by union-find, classes numbered in order of their lowest node."""
    parent = list(range(total))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    roots = [find(a) for a in range(total)]
    return np.unique(roots, return_inverse=True)[1].reshape(-1)


def union_find_numbering(model):
    """Global number of every patch node, patch by patch: the union-find
    labels of the node pairs of the matched edges, the closure's included."""
    shapes = [(p.n_u, p.n_v) for p in model.patches]
    offsets = np.cumsum([0] + [nu * nv for nu, nv in shapes])
    pairs = []
    for pa, ea, pb, eb, reverse in model.connectivity + model.closure:
        na = edge_nodes(*shapes[pa], ea)
        nb = edge_nodes(*shapes[pb], eb)
        pairs += [(offsets[pa] + ia * shapes[pa][1] + ja, offsets[pb] + ib * shapes[pb][1] + jb)
                  for (ia, ja), (ib, jb) in zip(na, nb[::-1] if reverse else nb)]
    return union_find_labels(pairs, int(offsets[-1]))


def _ring_model(m=4):
    patches = [make_arc_patch(1.0, 2.0, s * np.pi / 2, (s + 1) * np.pi / 2) for s in range(m)]
    conn = [(s, "v1", (s + 1) % m, "v0", False) for s in range(m)]
    return MultipatchModel(patches, [RegionTag("rotor_air")] * m, connectivity=conn)


@pytest.mark.parametrize("refinement", [0, 1, 2, 3, 4])
def test_dof_map_numbering_matches_union_find(refinement):
    # the pole pitch, closed by its antiperiodic closure, and the full ring
    cfg = coarse_config(refinement=refinement, n_harmonics=4)
    models = list(build_demo_machine(cfg)) + list(build_demo_machine(cfg, 2 * cfg.pole_pairs))
    for model in models + [_ring_model()]:
        dm = build_dof_map(model)
        flat = np.concatenate([g.reshape(-1) for g in dm.patch_maps])
        oracle = union_find_numbering(model)
        assert flat.dtype == oracle.dtype
        assert np.array_equal(flat, oracle)
        assert dm.n_global == oracle.max() + 1


@st.composite
def node_pairs(draw):
    """(total, pairs): a chain through a shuffled run of the nodes, closed
    to a cycle or not, beside random pairs, self pairs and duplicates, in
    shuffled order and orientation; nodes off every pair stay isolated."""
    total = draw(st.integers(1, 80))
    order = draw(st.permutations(range(total)))
    length = draw(st.integers(0, total))
    chain = list(zip(order[:length - 1], order[1:length]))
    if length > 2 and draw(st.booleans()):
        chain.append((order[length - 1], order[0]))
    node = st.integers(0, total - 1)
    extra = draw(st.lists(st.tuples(node, node), max_size=20))
    extra += [(a, a) for a in draw(st.lists(node, max_size=4))]
    pairs = chain + extra
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=5)) if pairs else []
    pairs = draw(st.permutations(pairs))
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return total, [(b, a) if flip else (a, b) for (a, b), flip in zip(pairs, flips)]


@settings(max_examples=300, deadline=None)
@given(node_pairs(), st.data())
def test_glue_labels_match_union_find(case, data):
    total, pairs = case
    a = np.array([p for p, _ in pairs], dtype=int)
    b = np.array([q for _, q in pairs], dtype=int)
    oracle = union_find_labels(pairs, total)
    node = np.arange(total)
    count, labels = _number(_join(node.copy(), a, b), node)
    assert labels.dtype == oracle.dtype
    assert np.array_equal(labels, oracle) and count == oracle.max() + 1
    # joined in two steps, as the closure is: the first pairs' classes,
    # then all pairs over that forest
    split = data.draw(st.integers(0, len(pairs)))
    forest = _join(node.copy(), a[:split], b[:split])
    assert np.array_equal(_number(forest, node)[1], union_find_labels(pairs[:split], total))
    assert np.array_equal(_number(_join(forest, a, b), node)[1], oracle)


def _band_order_oracle(model, dm):
    """The band order of an annular side written out point by point: each
    global's (radial level, folded angle) from every control point it
    glues, the closure's copies of the first angle by the angle modulo the
    side's angle count, which all points of a global must agree on."""
    n_sectors = model.meta["n_sectors"]
    keys = {}
    for pid, gmap in enumerate(dm.patch_maps):
        ring, sector = divmod(pid, n_sectors)
        n_u, n_v = gmap.shape
        n_angles = n_sectors * (n_v - 1)
        for i in range(n_u):
            for j in range(n_v):
                angle = (sector * (n_v - 1) + j) % n_angles
                folded = 2 * angle if 2 * angle < n_angles else 2 * (n_angles - angle) - 1
                key = (ring * (n_u - 1) + i, folded)
                assert keys.setdefault(int(gmap[i, j]), key) == key
    assert len(set(keys.values())) == len(keys) == dm.n_global
    return np.array(sorted(keys, key=keys.get))


@pytest.mark.parametrize("refinement", [0, 1, 2, 3])
def test_free_numbering_follows_the_band_order(refinement):
    # the pole pitch and the full ring: band_order is the point-by-point
    # order, and the free positions number the non-Dirichlet globals, each
    # once, in it
    cfg = coarse_config(refinement=refinement, n_harmonics=4)
    for model in list(build_demo_machine(cfg)) + list(build_demo_machine(cfg, 2 * cfg.pole_pairs)):
        dm = build_dof_map(model)
        assert np.array_equal(dm.band_order, _band_order_oracle(model, dm))
        assert np.array_equal(np.sort(dm.free_globals), np.flatnonzero(~dm.dirichlet))
        assert np.array_equal(dm.free_globals, dm.band_order[~dm.dirichlet[dm.band_order]])
        assert np.array_equal(dm.free_index[dm.free_globals], np.arange(dm.n_free))
        assert (dm.free_index[dm.dirichlet] == -1).all()
    # a model without the annular layout keeps the global order
    dm = build_dof_map(_ring_model())
    assert np.array_equal(dm.band_order, np.arange(dm.n_global))
    assert np.array_equal(dm.free_globals, np.arange(dm.n_global))


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


def allclose_conformity(model):
    """Oracle: the message of the first connection failing the per-edge
    np.allclose tests (degree and knot count, knots, then points and
    weights), or None."""
    for pa, ea, pb, eb, reverse in model.connectivity:
        kva, wa, qa = edge_discretization(model.patches[pa], ea)
        kvb, wb, qb = edge_discretization(model.patches[pb], eb)
        if reverse:
            wb, qb = wb[::-1], qb[::-1]
        label = "edge (%d,%s)-(%d,%s): " % (pa, ea, pb, eb)
        if kva.degree != kvb.degree or kva.knots.size != kvb.knots.size:
            return label + "degree/knot count mismatch"
        with np.errstate(all="ignore"):
            if not np.allclose(kva.knots, kvb.knots, atol=1e-14):
                return label + "knot vectors differ"
            scale = max(1.0, float(np.max(np.abs(qa))))
            if not (np.allclose(qa, qb, atol=1e-12 * scale)
                    and np.allclose(wa, wb, atol=1e-12)):
                return label + "control data differ"
    return None


def _strip(n, edit=None, knot=0.5, degree=2):
    """n unit patches side by side along x, glued u1-u0 (the last pair
    reversed along the edge); edit(i, points, weights) may change patch i."""
    patches = []
    for i in range(n):
        kv = KnotVector([0, 0, 0, knot, 1, 1, 1], 2)
        kv_v = KnotVector([0] * (degree + 1) + [1] * (degree + 1), degree)
        g_u = np.array([0.0, 0.5 * knot, 0.25 + 0.5 * knot, 1.0])
        g_v = np.linspace(0.0, 1.0, degree + 1)
        pts = np.stack(np.meshgrid(g_u + i, g_v, indexing="ij"), axis=-1)
        weights = np.ones(pts.shape[:2])
        if i == n - 1:                          # reversed v direction
            pts = pts[:, ::-1].copy()
        if edit is not None:
            edit(i, pts, weights)
        patches.append(NurbsPatch(kv, kv_v, pts, weights))
    connectivity = [(i, "u1", i + 1, "u0", i + 1 == n - 1) for i in range(n - 1)]
    return MultipatchModel(patches, [RegionTag("rotor_air")] * n, connectivity=connectivity)


def _shift(target, amount, axis=0):
    def edit(i, pts, weights):
        if i == target:
            pts[0, :, axis] += amount * pts[0, :, axis] + 1e-300
    return edit


CONFORMITY_CASES = {
    "conforming": _strip(4),
    "rtol-inside": _strip(4, _shift(2, 0.9e-5)),
    "rtol-outside": _strip(4, _shift(2, 2e-5)),
    "reversed-edge-differs": _strip(4, _shift(3, 1e-3, axis=1)),
    "weight-differs": _strip(4, lambda i, p, w: w.__setitem__((0, 1), 1.0 + 1e-4 * (i == 1))),
    "weight-inside": _strip(4, lambda i, p, w: w.__setitem__((0, 1), 1.0 + 1e-6 * (i == 1))),
    "equal-infinities": _strip(3, lambda i, p, w: p.__setitem__((slice(None), [0, -1], 1),
                                                                np.inf)),
    "inf-vs-finite": _strip(3, lambda i, p, w: p.__setitem__((0, 0, 1),
                                                             np.inf if i == 2 else p[0, 0, 1])),
    "nan": _strip(3, lambda i, p, w: p.__setitem__((0, 1, 0), np.nan if i == 1 else p[0, 1, 0])),
    "knots-differ-first": MultipatchModel(
        _strip(2).patches + _strip(2, knot=0.5 + 1e-3).patches[:1],
        [RegionTag("rotor_air")] * 3,
        connectivity=[(0, "v1", 2, "v1", False), (0, "u1", 1, "u0", True)]),
    "degree-after-control": MultipatchModel(
        _strip(3, _shift(1, 1e-3)).patches + _strip(1, degree=3).patches,
        [RegionTag("rotor_air")] * 4,
        connectivity=[(0, "u1", 1, "u0", False), (2, "u1", 3, "u0", False)]),
    "degree-first": MultipatchModel(
        _strip(3, _shift(1, 1e-3)).patches + _strip(1, degree=3).patches,
        [RegionTag("rotor_air")] * 4,
        connectivity=[(2, "u1", 3, "u0", False), (0, "u1", 1, "u0", False)]),
}


@pytest.mark.parametrize("name", list(CONFORMITY_CASES))
def test_conformity_check_matches_allclose_oracle(name):
    model = CONFORMITY_CASES[name]
    expected = allclose_conformity(model)
    if expected is None:
        build_dof_map(model)
    else:
        with pytest.raises(ConformityError) as err:
            build_dof_map(model)
        assert str(err.value) == expected
    assert (expected is None) == (name in ("conforming", "rtol-inside", "weight-inside",
                                           "equal-infinities"))


def _bump_knot(patch):
    knots = patch.knots_u.knots.copy()
    knots[patch.knots_u.degree + 1] += 1e-4
    return NurbsPatch(KnotVector(knots, patch.knots_u.degree), patch.knots_v,
                      patch.points, patch.weights)


def _bump_edge(patch, what):
    """The patch with the middle control point of its v1 edge moved, or its
    weight changed, by 1e-3 relative."""
    points, weights = patch.points.copy(), patch.weights.copy()
    i = patch.n_u // 2
    if what == "point":
        points[i, -1] *= 1.0 + 1e-3
    else:
        weights[i, -1] *= 1.0 + 1e-3
    return NurbsPatch(patch.knots_u, patch.knots_v, points, weights)


def _cubic_in_u(patch):
    knots = np.r_[np.zeros(4), np.linspace(0.0, 1.0, patch.n_u - 2)[1:-1], np.ones(4)]
    return NurbsPatch(KnotVector(knots, 3), patch.knots_v, patch.points, patch.weights)


DEMO_EDITS = {
    "knot": (_bump_knot, "knot vectors differ"),
    "point": (lambda patch: _bump_edge(patch, "point"), "control data differ"),
    "weight": (lambda patch: _bump_edge(patch, "weight"), "control data differ"),
    "degree": (_cubic_in_u, "degree/knot count mismatch"),
    "count": (lambda patch: insert_knots(patch, new_knots_u=[0.3]), "degree/knot count mismatch"),
}


@pytest.mark.parametrize("edit", list(DEMO_EDITS))
@pytest.mark.parametrize("refinement", [1, 2])
def test_conformity_check_names_first_broken_demo_edge(edit, refinement):
    # one patch of the demo rotor edited: the first connection it breaks is
    # reported with the oracle's message.  A knot, degree or count change
    # breaks both v edges of the patch, an edge point or weight its v1 edge.
    rotor = build_demo_machine(coarse_config(refinement=refinement))[1]
    target = len(rotor.patches) // 2
    change, what = DEMO_EDITS[edit]
    patches = list(rotor.patches)
    patches[target] = change(patches[target])
    model = rotor.with_patches(patches)
    broken = {(target, "v1")} if edit in ("point", "weight") else {(target, "v0"), (target, "v1")}
    pa, ea, pb, eb, _ = next(c for c in model.connectivity
                             if {(c[0], c[1]), (c[2], c[3])} & broken)
    expected = "edge (%d,%s)-(%d,%s): %s" % (pa, ea, pb, eb, what)
    assert allclose_conformity(model) == expected
    with pytest.raises(ConformityError) as err:
        build_dof_map(model)
    assert str(err.value) == expected


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
    # the pitch's closure: its connections, turn and field sign
    assert back.closure == rotor.closure and back.closure
    assert (back.copies, back.closure_sign) == (rotor.copies, rotor.closure_sign) == (6, -1)
    a, b = build_dof_map(rotor), build_dof_map(back)
    assert all(np.array_equal(x, y) for x, y in zip(a.patch_maps, b.patch_maps))
    assert [x is None or x.tolist() for x in a.patch_copies] == \
        [x is None or x.tolist() for x in b.patch_copies]
    assert dump_geometry(back) == text


def test_closure_glues_turned_copies_with_the_field_sign(coarse_machine):
    for model in coarse_machine:
        dm = build_dof_map(model)
        turn = model.turn
        edge_a = {(pa, i, j) for pa, ea, _, _, _ in model.closure
                  for i, j in edge_nodes(model.patches[pa].n_u, model.patches[pa].n_v, ea)}
        found = set()
        for pid, copies in enumerate(dm.patch_copies):
            if copies is None:
                continue
            found |= {(pid, i, j) for i, j in zip(*np.nonzero(copies))}
            # a copy is its global's point turned by pi / p, with field sign -1
            np.testing.assert_allclose(model.patches[pid].points[copies],
                                       dm.points[dm.patch_maps[pid][copies]] @ turn.T,
                                       rtol=0, atol=1e-15)
            signs = dm.patch_signs(pid)
            assert (signs[copies] == -1.0).all() and (signs[~copies] == 1.0).all()
        assert found == edge_a
        # a closure that misses after the turn is reported like any connection
        pa, _, pb, _, _ = model.closure[0]
        with pytest.raises(ConformityError,
                           match=r"edge \(%d,v1\)-\(%d,v0\): control data differ" % (pa, pb)):
            build_dof_map(dataclasses.replace(model, copies=2 * model.copies))
    # a full ring glued by its connectivity too leaves no copy apart from its point
    ring = build_demo_machine(coarse_config(), 6)[1]
    with pytest.raises(ConformityError, match="own copy"):
        build_dof_map(dataclasses.replace(ring, connectivity=ring.connectivity + ring.closure))


# ---------------------------------------------------------------- polar lookup

def test_locate_polar_round_trip(coarse_machine):
    _, rotor = coarse_machine
    rng = np.random.default_rng(5)
    radii = rotor.meta["ring_radii"]
    for _ in range(30):
        r = rng.uniform(radii[0] + 1e-4, radii[-1] - 1e-4)
        th = rng.uniform(0.0, 2 * np.pi / rotor.copies)
        pid, xi, eta = locate_polar(rotor, r, th)
        point, _ = eval_patch(rotor.patches[pid], xi, eta)
        np.testing.assert_allclose(point, [r * np.cos(th), r * np.sin(th)], atol=1e-11)


def test_batched_locate_polar_round_trips_at_sector_bounds(coarse_machine):
    # every sector bound +-1e-13 (theta = 0 and the pitch end included,
    # short of the uncovered -1e-13 below 0), and angles inside the sectors
    # whose Newton steps stop at nonzero residuals, on ring radii and inside
    # rings, on both sides: one batched call equals one call per point, and
    # the per-point oracle, bit for bit, and maps back onto (r, theta)
    for model in coarse_machine:
        radii = np.array(model.meta["ring_radii"])
        bounds = np.unique(model.meta["sector_bounds"])
        assert bounds[0] == 0.0 and bounds[-1] == 2 * np.pi / model.copies
        inside = np.linspace(0.0, bounds[-1], 24)[1:-1] + 1e-3
        th = np.concatenate([bounds - 1e-13, bounds, bounds + 1e-13, inside])[1:]
        rs = np.concatenate([radii, 0.5 * (radii[:-1] + radii[1:])])
        r, th = np.meshgrid(rs, th, indexing="ij")
        pid, xi, eta = locate_polar(model, r, th)
        assert pid.shape == xi.shape == eta.shape == r.shape
        r, th, pid, xi, eta = (a.reshape(-1) for a in (r, th, pid, xi, eta))
        for n in range(r.size):
            want = scalar_locate_polar(model, r[n], th[n])
            assert locate_polar(model, r[n], th[n]) == want == (pid[n], xi[n], eta[n])
            # a point 1e-13 past a patch end stays at the end: off by r 1e-13
            point, _ = eval_patch(model.patches[pid[n]], xi[n], eta[n])
            np.testing.assert_allclose(point, [r[n] * np.cos(th[n]), r[n] * np.sin(th[n])],
                                       rtol=0.0, atol=1e-14)
        with pytest.raises(GeometryError, match="not covered"):
            locate_polar(model, r[:2], np.array([0.1, -1e-13]))
        with pytest.raises(GeometryError, match="outside side range"):
            locate_polar(model, np.array([radii[0], radii[-1] + 1e-9]), 0.1)
