"""Multipatch machine geometry: the parametric demo cross-section, region
tags, degree-of-freedom gluing and Dirichlet bookkeeping.

The demo machine is a full-circle annular layout built from exact NURBS
arc sectors (u radial, v angular).  Rotor rings (inner to outer): iron core,
magnet ring with iron between poles, rotor half of the air gap.  Stator
rings: stator half of the air gap, slot/tooth ring, iron yoke.  The two
sides meet on the circle r = r_interface and are never glued to each other;
coupling happens weakly through interface harmonics.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .errors import ConfigError, ConformityError, GeometryError
from .splines import KnotVector, NurbsPatch, eval_patch, insert_knots, make_arc_patch

EDGES = ("u0", "u1", "v0", "v1")


@dataclass(frozen=True)
class RegionTag:
    """Material/source tag of one patch.

    kind is one of rotor_iron, rotor_air, magnet, stator_iron, stator_air,
    coil.  Magnets carry sign (+1 outward, -1 inward radial magnetization);
    coils carry phase 1..3 and winding sign.
    """

    kind: str
    phase: int = 0
    sign: int = 0

    KINDS = ("rotor_iron", "rotor_air", "magnet", "stator_iron", "stator_air", "coil")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError("unknown region kind %r" % (self.kind,))
        if self.kind == "magnet" and self.sign not in (-1, 1):
            raise ValueError("magnet tag needs sign +-1")
        if self.kind == "coil" and (self.phase not in (1, 2, 3) or self.sign not in (-1, 1)):
            raise ValueError("coil tag needs phase 1..3 and sign +-1")


def checked_int(value, name: str, low: int) -> int:
    """value as an int if integral (k == int(k)) and >= low, else ConfigError
    (a bool is no number)."""
    try:
        if not isinstance(value, bool) and value == int(value) and value >= low:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError("%s must be an integer >= %d, got %r" % (name, low, value))


def checked_float(value, name: str) -> float:
    """value as a float if a finite number, else ConfigError (a bool is no number)."""
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise ConfigError("%s must be a finite number, got %r" % (name, value))
    return float(value)


@dataclass(frozen=True)
class MachineConfig:
    """Demo machine parameters.  All lengths in meters, angles in radians."""

    pole_pairs: int = 3
    r_shaft: float = 0.02
    r_rotor_iron: float = 0.045
    r_magnet: float = 0.05
    r_interface: float = 0.0525
    r_stator_inner: float = 0.055
    r_slot_outer: float = 0.08
    r_outer: float = 0.095
    magnet_span: float = 0.7        # fraction of the pole pitch
    slot_span: float = 0.5          # fraction of the slot pitch
    refinement: int = 2
    mu_r_iron: float = 500.0
    mu_r_magnet: float = 1.05
    remanence: float = 1.0          # tesla
    length_z: float = 0.1
    n_turns: float = 1.0
    current_amplitude: float = 0.0  # balanced three-phase amplitude; 0 = no load
    n_harmonics: int = 36
    n_angles: int = 120
    harmonics_multiple_of_poles: bool = False
    index_set: Optional[tuple] = None  # THD index set; None = all resolvable

    def __post_init__(self):
        for f in fields(self):            # every float field: a finite number
            if f.type == "float":
                object.__setattr__(self, f.name, checked_float(getattr(self, f.name), f.name))
        for name, low in (("pole_pairs", 1), ("refinement", 0), ("n_harmonics", 1),
                          ("n_angles", 2)):
            object.__setattr__(self, name, checked_int(getattr(self, name), name, low))
        if not isinstance(self.harmonics_multiple_of_poles, bool):
            raise ConfigError("harmonics_multiple_of_poles must be true or false, got %r"
                              % (self.harmonics_multiple_of_poles,))
        radii = (self.r_shaft, self.r_rotor_iron, self.r_magnet, self.r_interface,
                 self.r_stator_inner, self.r_slot_outer, self.r_outer)
        if any(r <= 0 for r in radii) or any(b <= a for a, b in zip(radii, radii[1:])):
            raise ConfigError("radii must be positive and strictly increasing: %r" % (radii,))
        if not 0.0 < self.magnet_span < 1.0:
            raise ConfigError("magnet_span must be in (0, 1)")
        if not 0.0 < self.slot_span < 1.0:
            raise ConfigError("slot_span must be in (0, 1)")
        if self.n_angles % 2:
            raise ConfigError("n_angles must be even")
        if min(self.mu_r_iron, self.mu_r_magnet, self.remanence, self.length_z,
               self.n_turns) <= 0:
            raise ConfigError("material and scale parameters must be positive")
        if self.index_set is not None:
            idx = tuple(checked_int(k, "index_set entry", 0) for k in self.index_set)
            if 1 not in idx:
                raise ConfigError("index_set must contain the fundamental harmonic 1")
            if max(idx) >= self.n_angles // 2:
                raise ConfigError("index_set exceeds the %d harmonics resolvable "
                                  "from n_angles=%d" % (self.n_angles // 2 - 1,
                                                        self.n_angles))
            object.__setattr__(self, "index_set", idx)
        for side, n_trace in (("rotor", self.rotor_trace_dofs),
                              ("stator", self.stator_trace_dofs)):
            if 2 * self.n_harmonics + 1 > n_trace:
                raise ConfigError(
                    "n_harmonics=%d too rich for %s trace (%d dofs); need "
                    "2*n_harmonics+1 <= trace dofs" % (self.n_harmonics, side, n_trace))

    @property
    def rotor_sectors(self) -> int:
        return 6 * self.pole_pairs  # gap | magnet | gap per pole

    @property
    def stator_sectors(self) -> int:
        return 12 * self.pole_pairs  # slot | tooth per slot pitch

    @property
    def rotor_trace_dofs(self) -> int:
        return self.rotor_sectors * (1 + 2 ** self.refinement)

    @property
    def stator_trace_dofs(self) -> int:
        return self.stator_sectors * (1 + 2 ** self.refinement)


@dataclass
class MultipatchModel:
    """Conforming collection of patches for one side of the machine."""

    patches: list
    tags: list
    side: Optional[str] = None            # "stator" | "rotor" | None
    r_interface: Optional[float] = None
    connectivity: list = field(default_factory=list)   # (pa, ea, pb, eb, reverse)
    dirichlet_edges: list = field(default_factory=list)  # (patch, edge)
    interface_edges: list = field(default_factory=list)  # (patch, edge)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.patches) != len(self.tags):
            raise ValueError("one tag per patch required")

    def with_patches(self, patches) -> "MultipatchModel":
        return replace(self, patches=list(patches))


def edge_nodes(n_u: int, n_v: int, edge: str):
    """Grid indices (i, j) along an edge, in canonical running order."""
    if edge == "u0":
        return [(0, j) for j in range(n_v)]
    if edge == "u1":
        return [(n_u - 1, j) for j in range(n_v)]
    if edge == "v0":
        return [(i, 0) for i in range(n_u)]
    if edge == "v1":
        return [(i, n_v - 1) for i in range(n_u)]
    raise ValueError("unknown edge %r" % (edge,))


def edge_discretization(patch: NurbsPatch, edge: str):
    """Knot vector, weights and control points of the 1D edge curve."""
    nodes = edge_nodes(patch.n_u, patch.n_v, edge)
    idx = tuple(np.array(k) for k in zip(*nodes))
    kv = patch.knots_v if edge in ("u0", "u1") else patch.knots_u
    return kv, patch.weights[idx], patch.points[idx]


@dataclass
class DofMap:
    """Glued global numbering over all patch control points."""

    n_global: int
    patch_maps: list                 # per patch: (n_u, n_v) int array of globals
    dirichlet: np.ndarray            # bool per global
    free_index: np.ndarray           # global -> free position, -1 if constrained
    free_globals: np.ndarray         # free position -> global
    points: np.ndarray               # representative control point per global
    weights: np.ndarray

    @property
    def n_free(self) -> int:
        return self.free_globals.size

    def expand(self, u_free: np.ndarray) -> np.ndarray:
        """Free-dof vector(s) along axis 0 -> global (zeros on Dirichlet dofs)."""
        full = np.zeros((self.n_global,) + u_free.shape[1:], dtype=u_free.dtype)
        full[self.free_globals] = u_free
        return full


def _check_conforming(model: MultipatchModel, pa, ea, pb, eb, reverse):
    patch_a, patch_b = model.patches[pa], model.patches[pb]
    kva, wa, qa = edge_discretization(patch_a, ea)
    kvb, wb, qb = edge_discretization(patch_b, eb)
    if reverse:
        wb, qb = wb[::-1], qb[::-1]
    if kva.degree != kvb.degree or kva.knots.size != kvb.knots.size:
        raise ConformityError("edge (%d,%s)-(%d,%s): degree/knot count mismatch"
                              % (pa, ea, pb, eb))
    if not np.allclose(kva.knots, kvb.knots, atol=1e-14):
        raise ConformityError("edge (%d,%s)-(%d,%s): knot vectors differ" % (pa, ea, pb, eb))
    scale = max(1.0, float(np.max(np.abs(qa))))
    if not (np.allclose(qa, qb, atol=1e-12 * scale) and np.allclose(wa, wb, atol=1e-12)):
        raise ConformityError("edge (%d,%s)-(%d,%s): control data differ" % (pa, ea, pb, eb))


def build_dof_map(model: MultipatchModel) -> DofMap:
    """Glue matched edges into one global numbering and mark Dirichlet dofs.

    Gluing is the equivalence closure over control points of matched edges;
    Dirichlet dofs are exactly the control points of the declared boundary
    edges (their basis functions span the boundary trace).
    """
    shapes = [(p.n_u, p.n_v) for p in model.patches]
    offsets = np.cumsum([0] + [nu * nv for nu, nv in shapes])
    total = int(offsets[-1])
    parent = np.arange(total)

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    def node_id(p, i, j):
        return offsets[p] + i * shapes[p][1] + j

    for pa, ea, pb, eb, reverse in model.connectivity:
        _check_conforming(model, pa, ea, pb, eb, reverse)
        na = edge_nodes(*shapes[pa], ea)
        nb = edge_nodes(*shapes[pb], eb)
        if reverse:
            nb = nb[::-1]
        for (ia, ja), (ib, jb) in zip(na, nb):
            union(node_id(pa, ia, ja), node_id(pb, ib, jb))

    roots = np.array([find(a) for a in range(total)])
    uniq, global_of_node = np.unique(roots, return_inverse=True)
    n_global = uniq.size

    patch_maps = []
    points = np.zeros((n_global, 2))
    weights = np.zeros(n_global)
    for p, (nu, nv) in enumerate(shapes):
        gmap = global_of_node[offsets[p]:offsets[p] + nu * nv].reshape(nu, nv)
        patch_maps.append(gmap)
        points[gmap.reshape(-1)] = model.patches[p].points.reshape(-1, 2)
        weights[gmap.reshape(-1)] = model.patches[p].weights.reshape(-1)

    dirichlet = np.zeros(n_global, dtype=bool)
    for p, edge in model.dirichlet_edges:
        for i, j in edge_nodes(*shapes[p], edge):
            dirichlet[patch_maps[p][i, j]] = True

    free_globals = np.flatnonzero(~dirichlet)
    free_index = np.full(n_global, -1, dtype=int)
    free_index[free_globals] = np.arange(free_globals.size)
    return DofMap(n_global, patch_maps, dirichlet, free_index, free_globals,
                  points, weights)


def check_mesh_validity(model: MultipatchModel, eps_jacobian: float = 0.0):
    """True iff det(J) > eps_jacobian at every quadrature point.

    Returns (valid, min_det).
    """
    from .assembly import patch_min_detj  # deferred: assembly imports geometry

    min_det = np.inf
    for patch in model.patches:
        min_det = min(min_det, patch_min_detj(patch))
    return bool(min_det > eps_jacobian), float(min_det)


# --------------------------------------------------------------------------
# serialization

def _tag_to_dict(tag: RegionTag) -> dict:
    return {"kind": tag.kind, "phase": tag.phase, "sign": tag.sign}


def dump_geometry(model: MultipatchModel) -> str:
    """JSON text for a model; floats keep full precision (round-trippable)."""
    doc = {
        "side": model.side,
        "r_interface": model.r_interface,
        "patches": [
            {
                "degree_u": p.knots_u.degree,
                "degree_v": p.knots_v.degree,
                "knots_u": p.knots_u.knots.tolist(),
                "knots_v": p.knots_v.knots.tolist(),
                "points": p.points.tolist(),
                "weights": p.weights.tolist(),
                "tag": _tag_to_dict(tag),
            }
            for p, tag in zip(model.patches, model.tags)
        ],
        "connectivity": [list(c) for c in model.connectivity],
        "dirichlet_edges": [list(e) for e in model.dirichlet_edges],
        "interface_edges": [list(e) for e in model.interface_edges],
        "meta": model.meta,
    }
    return json.dumps(doc, indent=1)


def load_geometry(text: str) -> MultipatchModel:
    doc = json.loads(text)
    patches, tags = [], []
    for entry in doc["patches"]:
        patches.append(NurbsPatch(
            KnotVector(np.array(entry["knots_u"]), entry["degree_u"]),
            KnotVector(np.array(entry["knots_v"]), entry["degree_v"]),
            np.array(entry["points"]),
            np.array(entry["weights"]),
        ))
        tags.append(RegionTag(**entry["tag"]))
    return MultipatchModel(
        patches=patches,
        tags=tags,
        side=doc.get("side"),
        r_interface=doc.get("r_interface"),
        connectivity=[tuple(c) for c in doc.get("connectivity", [])],
        dirichlet_edges=[tuple(e) for e in doc.get("dirichlet_edges", [])],
        interface_edges=[tuple(e) for e in doc.get("interface_edges", [])],
        meta=doc.get("meta", {}),
    )


# --------------------------------------------------------------------------
# demo machine construction

def _refine_uniform(patch: NurbsPatch, level: int) -> NurbsPatch:
    if level == 0:
        return patch
    cuts = [i / 2 ** level for i in range(1, 2 ** level)]
    return insert_knots(patch, cuts, cuts)


def _winding_layout(slot: int):
    """Phase and sign of a slot in the classic three-phase, one slot per pole
    per phase pattern (A+, C-, B+, A-, C+, B-)."""
    seq = ((1, 1), (3, -1), (2, 1), (1, -1), (3, 1), (2, -1))
    return seq[slot % 6]


def _build_annular_side(radii, ring_tags, sector_bounds, side, r_interface,
                        refinement, dirichlet, interface) -> MultipatchModel:
    """Rings x sectors grid of arc patches with ring/sector connectivity.

    ``ring_tags(ring, sector) -> RegionTag``; ``dirichlet``/``interface`` are
    "inner"/"outer"/None selecting the u0 edge of ring 0 or the u1 edge of
    the last ring.
    """
    n_rings = len(radii) - 1
    n_sec = len(sector_bounds)
    patches, tags = [], []
    for r in range(n_rings):
        for s in range(n_sec):
            th0, th1 = sector_bounds[s]
            patch = _refine_uniform(make_arc_patch(radii[r], radii[r + 1], th0, th1),
                                    refinement)
            patches.append(patch)
            tags.append(ring_tags(r, s))

    def pid(r, s):
        return r * n_sec + s

    connectivity = []
    for r in range(n_rings):
        for s in range(n_sec):
            connectivity.append((pid(r, s), "v1", pid(r, (s + 1) % n_sec), "v0", False))
            if r + 1 < n_rings:
                connectivity.append((pid(r, s), "u1", pid(r + 1, s), "u0", False))

    def boundary(which):
        if which == "inner":
            return [(pid(0, s), "u0") for s in range(n_sec)]
        return [(pid(n_rings - 1, s), "u1") for s in range(n_sec)]

    return MultipatchModel(
        patches=patches,
        tags=tags,
        side=side,
        r_interface=r_interface,
        connectivity=connectivity,
        dirichlet_edges=boundary(dirichlet),
        interface_edges=boundary(interface),
        meta={
            "ring_radii": list(radii),
            "sector_bounds": [list(b) for b in sector_bounds],
            "n_rings": n_rings,
            "n_sectors": n_sec,
        },
    )


def build_demo_machine(cfg: MachineConfig):
    """Build (stator, rotor) multipatch models of the demo machine.

    The rotor has 2*pole_pairs magnets with alternating radial magnetization
    inset in the iron of the magnet ring; the stator carries a balanced
    three-phase winding, one slot per pole per phase.
    """
    poles = 2 * cfg.pole_pairs
    pitch = 2 * np.pi / poles
    gap = 0.5 * (1.0 - cfg.magnet_span) * pitch

    rotor_sectors = []
    rotor_kinds = []  # per sector of the magnet ring
    for pole in range(poles):
        a = pole * pitch
        rotor_sectors += [(a, a + gap),
                          (a + gap, a + pitch - gap),
                          (a + pitch - gap, a + pitch)]
        sign = 1 if pole % 2 == 0 else -1
        rotor_kinds += [RegionTag("rotor_iron"),
                        RegionTag("magnet", sign=sign),
                        RegionTag("rotor_iron")]

    def rotor_tag(ring, sector):
        if ring == 0:
            return RegionTag("rotor_iron")
        if ring == 1:
            return rotor_kinds[sector]
        return RegionTag("rotor_air")

    rotor = _build_annular_side(
        radii=(cfg.r_shaft, cfg.r_rotor_iron, cfg.r_magnet, cfg.r_interface),
        ring_tags=rotor_tag,
        sector_bounds=rotor_sectors,
        side="rotor",
        r_interface=cfg.r_interface,
        refinement=cfg.refinement,
        dirichlet="inner",
        interface="outer",
    )

    n_slots = 6 * cfg.pole_pairs
    slot_pitch = 2 * np.pi / n_slots
    stator_sectors = []
    slot_tags = []
    for s in range(n_slots):
        a = s * slot_pitch
        stator_sectors += [(a, a + cfg.slot_span * slot_pitch),
                           (a + cfg.slot_span * slot_pitch, a + slot_pitch)]
        phase, sign = _winding_layout(s)
        slot_tags += [RegionTag("coil", phase=phase, sign=sign),
                      RegionTag("stator_iron")]

    def stator_tag(ring, sector):
        if ring == 0:
            return RegionTag("stator_air")
        if ring == 1:
            return slot_tags[sector]
        return RegionTag("stator_iron")

    stator = _build_annular_side(
        radii=(cfg.r_interface, cfg.r_stator_inner, cfg.r_slot_outer, cfg.r_outer),
        ring_tags=stator_tag,
        sector_bounds=stator_sectors,
        side="stator",
        r_interface=cfg.r_interface,
        refinement=cfg.refinement,
        dirichlet="outer",
        interface="inner",
    )
    return stator, rotor


def locate_polar(model: MultipatchModel, r: float, theta: float):
    """Find (patch, xi, eta) for polar coordinates on an as-built annular side.

    Valid only for the undeformed demo construction, whose meta carries ring
    radii and sector bounds.  The radial parameter is linear in r; the
    angular one is found by a short Newton iteration on the exact arc.
    """
    meta = model.meta
    if "ring_radii" not in meta:
        raise GeometryError("model does not carry annular construction metadata")
    radii = meta["ring_radii"]
    bounds = meta["sector_bounds"]
    if not radii[0] <= r <= radii[-1]:
        raise GeometryError("radius %r outside side range" % (r,))
    theta = float(theta) % (2 * np.pi)
    ring = min(int(np.searchsorted(radii, r, side="right")) - 1, len(radii) - 2)
    ring = max(ring, 0)
    sector = None
    for s, (a, b) in enumerate(bounds):
        if a - 1e-12 <= theta <= b + 1e-12:
            sector = s
            break
    if sector is None:
        raise GeometryError("angle %r not covered by sectors" % (theta,))
    patch_id = ring * meta["n_sectors"] + sector
    xi = min(max((r - radii[ring]) / (radii[ring + 1] - radii[ring]), 0.0), 1.0)
    a, b = bounds[sector]
    eta = min(max((theta - a) / (b - a), 0.0), 1.0)
    patch = model.patches[patch_id]
    for _ in range(30):
        point, jac = eval_patch(patch, xi, eta)
        ang = np.arctan2(point[1], point[0]) % (2 * np.pi)
        diff = (ang - theta + np.pi) % (2 * np.pi) - np.pi
        if abs(diff) < 1e-13:
            break
        r2 = point @ point
        dth_deta = (point[0] * jac[1, 1] - point[1] * jac[0, 1]) / r2
        eta = min(max(eta - diff / dth_deta, 0.0), 1.0)
    return patch_id, float(xi), float(eta)
