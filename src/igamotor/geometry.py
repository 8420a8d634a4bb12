"""Multipatch machine geometry: the parametric demo cross-section, region
tags, degree-of-freedom gluing and Dirichlet bookkeeping.

The demo machine is built over one pole pitch pi/p from exact NURBS arc
sectors (u radial, v angular).  Rotor rings (inner to outer): iron core,
magnet ring with iron between poles, rotor half of the air gap.  Stator
rings: stator half of the air gap, slot/tooth ring, iron yoke.  The two
sides meet on the circle r = r_interface and are never glued to each other;
coupling happens weakly through interface harmonics.

The machine is antiperiodic over a pole pitch: the magnets alternate and
the winding flips sign every pitch, so u(theta + pi/p) = -u(theta).  The
pitch model closes on itself: its last sector's v1 edge is glued to the
first sector's v0 edge rotated by the pitch, and the field changes sign
across that closure.  The full ring is the same construction over 2 p
pitches, closed by a turn of 2 pi (the identity) with sign +1; the tests
build it as the oracle of the pitch.  The stator's first slot pitch,
closed on itself by the slot-pitch turn (periodic_sector), is the model
its Bloch modes are assembled on; period_images numbers its dofs' images
on the pitch.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ConfigError, ConformityError, GeometryError
from .splines import (
    MAX_ARC_SWEEP,
    KnotVector,
    NurbsPatch,
    eval_patch,
    insert_knots_stack,
    make_arc_patch,
)

EDGES = ("u0", "u1", "v0", "v1")

# Size bounds, so that a config typo exits as a ConfigError instead of
# exhausting memory.  A refinement-4 design step (7,956 dofs on the pitch)
# peaks near 118 MB of process RSS, 85 MB of which a refinement-0 run
# needs too; a million dofs is about 125 times as many.
MAX_DOFS = 1_000_000
# Every coupled harmonic order is an odd multiple of pole_pairs, and the
# interface rule takes about (largest configured order) / 2 Gauss points
# per element: both stay at most this.
MAX_ORDER = 4096
# The machine's sweep plan grows with n_angles: 11.8 MB at 4,096 angles
# and 24 coupled orders (coupling module docstring).
MAX_ANGLES = 4096


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
        # four angles resolve the fundamental, the one harmonic every THD needs
        for name, low in (("pole_pairs", 1), ("refinement", 0), ("n_harmonics", 1),
                          ("n_angles", 4)):
            object.__setattr__(self, name, checked_int(getattr(self, name), name, low))
        if self.n_angles > MAX_ANGLES:
            raise ConfigError("n_angles=%d exceeds %d" % (self.n_angles, MAX_ANGLES))
        # from MAX_DOFS.bit_length() on, 2 ** refinement alone exceeds the bound
        if self.refinement >= MAX_DOFS.bit_length() or self.n_dofs > MAX_DOFS:
            raise ConfigError("refinement=%d implies more than %d dofs"
                              % (self.refinement, MAX_DOFS))
        if not isinstance(self.harmonics_multiple_of_poles, bool):
            raise ConfigError("harmonics_multiple_of_poles must be true or false, got %r"
                              % (self.harmonics_multiple_of_poles,))
        largest = (self.n_harmonics // 2) * (self.pole_pairs if self.harmonics_multiple_of_poles
                                             else 1)
        if max(self.pole_pairs, largest) > MAX_ORDER:
            raise ConfigError("pole_pairs=%d, n_harmonics=%d: harmonic orders above %d"
                              % (self.pole_pairs, self.n_harmonics, MAX_ORDER))
        radii = (self.r_shaft, self.r_rotor_iron, self.r_magnet, self.r_interface,
                 self.r_stator_inner, self.r_slot_outer, self.r_outer)
        if any(r <= 0 for r in radii) or any(b <= a for a, b in zip(radii, radii[1:])):
            raise ConfigError("radii must be positive and strictly increasing: %r" % (radii,))
        if not 0.0 < self.magnet_span < 1.0:
            raise ConfigError("magnet_span must be in (0, 1)")
        if not 0.0 < self.slot_span < 1.0:
            raise ConfigError("slot_span must be in (0, 1)")
        for side, bounds in zip(("rotor", "stator"), self.sector_bounds()):
            bad = [b - a for a, b in bounds if not 0.0 < b - a <= MAX_ARC_SWEEP]
            if bad:
                raise ConfigError("%s sector sweep %.6f rad outside (0, pi/2], the span "
                                  "of one arc patch" % (side, bad[0]))
        if self.n_angles % 2:
            raise ConfigError("n_angles must be even")
        if min(self.mu_r_iron, self.mu_r_magnet, self.remanence, self.length_z,
               self.n_turns) <= 0:
            raise ConfigError("material and scale parameters must be positive")
        if self.index_set is not None:
            idx = tuple(checked_int(k, "index_set entry", 0) for k in self.index_set)
            if 1 not in idx:
                raise ConfigError("index_set must contain the fundamental harmonic 1")
            if len(set(idx)) != len(idx):
                raise ConfigError("index_set entries must be distinct, got %r" % (idx,))
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

    def sector_bounds(self, poles: int = 1):
        """(rotor, stator) lists of the (theta0, theta1) arc of every sector
        that build_demo_machine forms over ``poles`` pole pitches from
        theta = 0: gap | magnet | gap per pole and slot | tooth per slot
        pitch, three slot pitches per pole."""
        pitch = 2 * np.pi / (2 * self.pole_pairs)
        gap = 0.5 * (1.0 - self.magnet_span) * pitch
        rotor = []
        for pole in range(poles):
            a = pole * pitch
            rotor += [(a, a + gap), (a + gap, a + pitch - gap), (a + pitch - gap, a + pitch)]
        slot_pitch = self.stator_period
        stator = []
        for s in range(3 * poles):
            a = s * slot_pitch
            stator += [(a, a + self.slot_span * slot_pitch),
                       (a + self.slot_span * slot_pitch, a + slot_pitch)]
        return rotor, stator

    @property
    def stator_period(self) -> float:
        """Rotation angle that maps the stator onto itself: one slot pitch,
        a slot and a tooth sector of sector_bounds."""
        return 2 * np.pi / (6 * self.pole_pairs)

    @property
    def n_dofs(self) -> int:
        """Glued control points of the pitch model build_demo_machine forms,
        both sides, Dirichlet dofs included.  Each side has three rings of
        degree-2 patches with 2^r + 2 points per direction: 3 (2^r + 2) - 2
        radially, and 2^r + 1 angularly per sector around the closed pitch,
        over 3 rotor and 6 stator sectors."""
        cells = 2 ** self.refinement
        return 9 * (cells + 1) * (3 * cells + 4)

    @property
    def rotor_trace_dofs(self) -> int:
        """Interface trace dofs of the full machine's rotor: 2 p pitches of
        3 sectors with 2^r + 1 points each."""
        return 6 * self.pole_pairs * (1 + 2 ** self.refinement)

    @property
    def stator_trace_dofs(self) -> int:
        """Interface trace dofs of the full machine's stator: 2 p pitches of
        6 sectors with 2^r + 1 points each."""
        return 12 * self.pole_pairs * (1 + 2 ** self.refinement)


@dataclass
class MultipatchModel:
    """Conforming collection of patches for one side of the machine.

    The model is one of ``copies`` equal sectors of its side, each the last
    turned by 2 pi / copies.  Edge a of a ``closure`` connection is edge b
    turned by that angle, and the field on edge a is ``closure_sign`` times
    the field on edge b: -1 over an antiperiodic pole pitch, +1 on a
    periodic sector or the full ring (copies 1, no turn)."""

    patches: list
    tags: list
    side: Optional[str] = None            # "stator" | "rotor" | None
    r_interface: Optional[float] = None
    connectivity: list = field(default_factory=list)   # (pa, ea, pb, eb, reverse)
    dirichlet_edges: list = field(default_factory=list)  # (patch, edge)
    interface_edges: list = field(default_factory=list)  # (patch, edge)
    meta: dict = field(default_factory=dict)
    closure: list = field(default_factory=list)        # (pa, ea, pb, eb, reverse)
    copies: int = 1
    closure_sign: int = 1

    def __post_init__(self):
        if len(self.patches) != len(self.tags):
            raise ValueError("one tag per patch required")
        # a bool is no number; a float count of copies would scale the integrals
        if (type(self.copies) is not int or self.copies < 1
                or type(self.closure_sign) is not int or self.closure_sign not in (-1, 1)):
            raise ValueError("closure needs an int copies >= 1 and an int sign +-1, got %r, %r"
                             % (self.copies, self.closure_sign))

    @property
    def turn(self) -> np.ndarray:
        """The 2 x 2 rotation by 2 pi / copies from edge b of a closure
        connection to edge a: exactly ``np.eye(2)`` for the full turn of a
        single copy, so a product with it changes no bit."""
        if self.copies == 1:
            return np.eye(2)
        c, s = np.cos(2 * np.pi / self.copies), np.sin(2 * np.pi / self.copies)
        return np.array([[c, -s], [s, c]])

    def with_patches(self, patches) -> "MultipatchModel":
        return replace(self, patches=list(patches))


_EDGE_SLICES = {"u0": (0, slice(None)), "u1": (-1, slice(None)),
               "v0": (slice(None), 0), "v1": (slice(None), -1)}


def _edge_index(edge: str):
    """Index of an edge in an (n_u, n_v, ...) grid: the grid points of the
    edge, in their running order (increasing i along a v edge, j along a
    u edge), as one basic slice."""
    if edge not in _EDGE_SLICES:
        raise ValueError("unknown edge %r" % (edge,))
    return _EDGE_SLICES[edge]


def _edge_knots(patch: NurbsPatch, edge: str) -> KnotVector:
    return patch.knots_v if edge in ("u0", "u1") else patch.knots_u


def edge_discretization(patch: NurbsPatch, edge: str):
    """Knot vector, weights and control points of the 1D edge curve."""
    idx = _edge_index(edge)
    return _edge_knots(patch, edge), patch.weights[idx], patch.points[idx]


@dataclass
class DofMap:
    """Glued global numbering over all patch control points, and the band
    order of the globals that numbers every restricted operator.

    On the rings x sectors grid of an annular side (:func:`build_dof_map`)
    the band order runs ring by ring: by radial level, then by the angle
    index folded across the closure seam.  A degree-p function couples
    functions at most p radial levels and 2p folded angles away, so the
    free stiffness is banded, its half-bandwidth at most p n_a + 2p for
    n_a angles per level (106 of the 2,601 rows of the refinement-4
    rotor pitch, 51 angles and p = 2).  Free positions, and the
    rows of every operator restricted to a mask of globals, follow the band
    order; global numbers and ``patch_maps`` keep their meaning."""

    n_global: int
    patch_maps: list                 # per patch: (n_u, n_v) int array of globals
    dirichlet: np.ndarray            # bool per global
    free_index: np.ndarray           # global -> free position, -1 if constrained
    free_globals: np.ndarray         # free position -> global: the band order's free globals
    band_order: np.ndarray           # every global, in the band order
    points: np.ndarray               # control point per global: of a copy that is no closure copy
    # per patch (knots_u, knots_v, weights): the objects of the NURBS bases numbered
    patch_bases: tuple = field(repr=False)
    # per patch (n_u, n_v) bool, True at a closure copy of a global (all
    # False without a closure): its point is the global's point turned by
    # ``turn`` and its field closure_sign times the global's
    patch_copies: list = field(repr=False)
    closure_sign: float
    turn: np.ndarray                 # the model's turn; the identity for the full ring

    @cached_property
    def plan(self):
        """The :class:`igamotor.assembly.AssemblyPlan` of this numbering:
        built on first use and freed with the dof map."""
        from .assembly import AssemblyPlan  # deferred: assembly imports geometry

        return AssemblyPlan(self)

    @property
    def n_free(self) -> int:
        return self.free_globals.size

    def patch_signs(self, pid: int) -> np.ndarray:
        """Field factor (n_u, n_v) of the control points of patch ``pid``:
        closure_sign at a closure copy and 1 elsewhere."""
        return np.where(self.patch_copies[pid], self.closure_sign, 1.0)

    def expand(self, u_free: np.ndarray) -> np.ndarray:
        """Free-dof vector(s) along axis 0 -> global (zeros on Dirichlet dofs)."""
        full = np.zeros((self.n_global,) + u_free.shape[1:], dtype=u_free.dtype)
        full[self.free_globals] = u_free
        return full


def _close(a: np.ndarray, b: np.ndarray, atol) -> np.ndarray:
    """Elementwise np.allclose's test |a - b| <= atol + 1e-5 |b| (equal
    infinities pass, NaN never); ``atol`` broadcasts against a."""
    with np.errstate(invalid="ignore"):          # inf - inf: decided by a == b
        return (a == b) | ((np.abs(a - b) <= atol + 1e-5 * np.abs(b)) & np.isfinite(b))


def _check_conforming(model: MultipatchModel, conn, a, b, size_a, size_b, points, weights):
    """Raise ConformityError for the first connection of ``conn`` whose
    edges differ in degree or knot count, knots (atol 1e-14), or control
    data: points (atol 1e-12 max(1, max |point|)) and weights (atol 1e-12).
    ``a`` and ``b`` hold the flat control point numbers (patch-major) of
    the edges a and b of every connection, matched in running order,
    ``size_a`` and ``size_b`` points per connection, into the concatenated
    control ``points`` (n, 2) and ``weights`` (n,) of the patches.  The
    connections past the model's connectivity are its closure: their edge b
    points are compared turned by the model's turn.  The distinct knot
    vectors are numbered once and compared only where two edges hold
    different objects (the patches of a refined model share theirs); the
    control data of every connection is compared in one pass, reduced per
    connection by one ``np.logical_and.reduceat``."""
    if not conn:
        return
    # per patch the numbers of the knot vectors along its u edges (knots_v)
    # and along its v edges (knots_u)
    number, vectors = {}, []
    for kv in (kv for patch in model.patches for kv in (patch.knots_v, patch.knots_u)):
        if number.setdefault(id(kv), len(vectors)) == len(vectors):
            vectors.append(kv)
    table = np.array([number[id(kv)] for patch in model.patches
                      for kv in (patch.knots_v, patch.knots_u)]).reshape(-1, 2)
    ka = table[[c[0] for c in conn], [int(c[1][0] == "v") for c in conn]]
    kb = table[[c[2] for c in conn], [int(c[3][0] == "v") for c in conn]]
    mismatch = np.zeros(len(conn), dtype=bool)
    bad_knots = np.zeros(len(conn), dtype=bool)
    apart = np.flatnonzero(ka != kb)
    for k in apart.tolist():
        u, v = vectors[ka[k]], vectors[kb[k]]
        mismatch[k] = u.degree != v.degree or u.knots.size != v.knots.size
        bad_knots[k] = not mismatch[k] and not _close(u.knots, v.knots, 1e-14).all()
    bad = mismatch | bad_knots
    ok = np.flatnonzero(~mismatch)
    if ok.size:
        if ok.size < len(conn):
            a, b = a[np.repeat(~mismatch, size_a)], b[np.repeat(~mismatch, size_b)]
        sizes = size_a[ok]
        starts = np.cumsum(sizes) - sizes
        qa, qb = points[a], points[b]
        # the closure's connections come last
        plain = int(sizes[ok < len(model.connectivity)].sum())
        qb[plain:] = qb[plain:] @ model.turn.T
        # max(1, max |point|) of each edge a: fmax, as Python's max, takes 1 over a NaN
        scale = np.fmax(1.0, np.maximum.reduceat(np.abs(qa).max(axis=1), starts))
        close = (_close(qa, qb, np.repeat(1e-12 * scale, sizes)[:, None]).all(axis=1)
                 & _close(weights[a], weights[b], 1e-12))
        bad[ok] |= ~np.logical_and.reduceat(close, starts)
    if bad.any():
        k = int(np.argmax(bad))
        pa, ea, pb, eb, _ = conn[k]
        what = ("degree/knot count mismatch" if mismatch[k]
                else "knot vectors differ" if bad_knots[k] else "control data differ")
        raise ConformityError("edge (%d,%s)-(%d,%s): %s" % (pa, ea, pb, eb, what))


def _join(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Join the classes of the node pairs (a[k], b[k]) in the forest
    ``parent``, in place, and return it: then every node of a class points
    at the class's lowest node.  ``parent`` is the identity, or a result of
    this function for some of the pairs.

    Each round points every node of a pair at its root (pointer jumping)
    and hooks the higher of two different roots of a pair onto the lowest
    root paired with it.  Each class that is not yet one tree merges at
    least two of its trees per round, so the rounds are O(log pairs), and
    each reads and writes only the nodes of the pairs."""
    touched = np.concatenate([a, b])
    while True:
        up = parent[touched]
        while True:
            upper = parent[up]
            if np.array_equal(upper, up):
                break
            parent[touched] = up = upper
        ra, rb = parent[a], parent[b]
        apart = ra != rb
        if not apart.any():
            return parent
        ra, rb = ra[apart], rb[apart]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))


def _number(parent: np.ndarray, node: np.ndarray):
    """(count, label per node) of the classes of a result of :func:`_join`
    over the nodes ``node`` (an arange), numbered by their lowest node."""
    root = parent == node
    number = np.cumsum(root) - 1
    return int(number[-1]) + 1 if number.size else 0, number[parent]


def _cat(parts) -> np.ndarray:
    """The concatenated integer arrays ``parts``; empty for no parts."""
    return np.concatenate(parts) if parts else np.zeros(0, dtype=int)


def _band_order(model: MultipatchModel, shapes, last: np.ndarray) -> np.ndarray:
    """Every global, each represented by the node ``last`` of its class, in
    the band order of :class:`DofMap`: on the rings x sectors grid of
    ``model.meta`` (patch ring * n_sectors + sector, all of one shape), by
    radial level ring (n_u - 1) + i, then by the angle index a = sector
    (n_v - 1) + j folded across the closure seam, 2a over the first half of
    the n_a angles and 2 (n_a - a) - 1 over the second, so the two sides
    of the seam alternate.  A model of any other layout keeps the global
    order."""
    n_rings, n_sectors = model.meta.get("n_rings"), model.meta.get("n_sectors")
    if n_rings is None or len(shapes) != n_rings * n_sectors or len(set(shapes)) != 1:
        return np.arange(last.size)
    n_u, n_v = shapes[0]
    pid, local = np.divmod(last, n_u * n_v)
    ring, sector = np.divmod(pid, n_sectors)
    i, j = np.divmod(local, n_v)
    angle = sector * (n_v - 1) + j
    # the closure's copies of the first angle are no class's ``last`` node
    n_angles = n_sectors * (n_v - 1) + (0 if model.closure else 1)
    folded = np.where(2 * angle < n_angles, 2 * angle, 2 * (n_angles - angle) - 1)
    return np.lexsort((folded, ring * (n_u - 1) + i))


def build_dof_map(model: MultipatchModel) -> DofMap:
    """Glue matched edges into one global numbering, mark Dirichlet dofs and
    number the free ones in the band order.

    Gluing is the equivalence closure over control points of matched edges,
    the closure's included, numbered by each class's lowest point (patch-major,
    row-major within a patch).  The closure copies are the points glued to
    edge a of a closure connection by the connectivity alone (none for a
    model without a closure: every patch's ``patch_copies`` is all False);
    a point glued to its own copy is a ConformityError.  Dirichlet dofs are
    exactly the control points of the declared boundary edges (their basis
    functions span the boundary trace).  The free positions number the
    globals that are not Dirichlet dofs in the band order
    (:func:`_band_order`): ring by ring on an annular side, so each sparse
    operator restricted to them is narrow-banded.  Every array is written
    over the concatenated control points of all patches at once.
    """
    shapes = [(p.n_u, p.n_v) for p in model.patches]
    offsets = np.cumsum([0] + [nu * nv for nu, nv in shapes]).tolist()
    total = offsets[-1]
    node = np.arange(total)

    def per_patch(flat):
        return [flat[o:o + nu * nv].reshape(nu, nv) for o, (nu, nv) in zip(offsets, shapes)]

    grids = per_patch(node)
    points = np.concatenate([p.points.reshape(-1, 2) for p in model.patches])
    weights = np.concatenate([p.weights.reshape(-1) for p in model.patches])

    conn = list(model.connectivity) + list(model.closure)
    ends = []
    for pa, ea, pb, eb, reverse in conn:
        nb = grids[pb][_edge_index(eb)]
        ends.append((grids[pa][_edge_index(ea)], nb[::-1] if reverse else nb))
    a, b = _cat([e for e, _ in ends]), _cat([e for _, e in ends])
    size_a = np.array([e.size for e, _ in ends], dtype=int)
    _check_conforming(model, conn, a, b, size_a, np.array([e.size for _, e in ends], dtype=int),
                      points, weights)
    n_plain = int(size_a[:len(model.connectivity)].sum())
    plain = _join(node.copy(), a[:n_plain], b[:n_plain])
    copied = np.zeros(total, dtype=bool)
    copied[plain[a[n_plain:]]] = True
    if copied[plain[b[n_plain:]]].any():
        raise ConformityError("closure glues a control point to its own copy")
    is_copy = copied[plain]
    n_global, global_of_node = _number(_join(plain, a, b), node)
    patch_copies, patch_maps = per_patch(is_copy), per_patch(global_of_node)
    # each global takes the control data of its highest node that is no
    # closure copy: an unglued node is alone in its class, and every node
    # of a glued class is in the pairs
    last = np.empty(n_global, dtype=int)
    last[global_of_node] = node
    matched = np.concatenate([a, b])
    matched = matched[~is_copy[matched]]
    glued = global_of_node[matched]
    last[glued] = -1
    np.maximum.at(last, glued, matched)

    dirichlet = np.zeros(n_global, dtype=bool)
    dirichlet[global_of_node[_cat([grids[p][_edge_index(edge)]
                                   for p, edge in model.dirichlet_edges])]] = True
    band_order = _band_order(model, shapes, last)
    free_globals = band_order[~dirichlet[band_order]]
    free_index = np.full(n_global, -1, dtype=int)
    free_index[free_globals] = np.arange(free_globals.size)
    return DofMap(n_global, patch_maps, dirichlet, free_index, free_globals, band_order,
                  points.take(last, axis=0),
                  tuple((p.knots_u, p.knots_v, p.weights) for p in model.patches),
                  patch_copies, float(model.closure_sign), model.turn)


def _sector_grid(model: MultipatchModel, n_periods: int):
    """(n_rings, n_sectors, m) of an annular model of ``n_periods`` equal
    periods of m sectors each; GeometryError for any other model."""
    n_rings, n_sectors = model.meta.get("n_rings"), model.meta.get("n_sectors")
    if (n_rings is None or n_periods < 1 or n_sectors % n_periods
            or len(model.patches) != n_rings * n_sectors):
        raise GeometryError("model is no rings x sectors grid of %d periods" % n_periods)
    return n_rings, n_sectors, n_sectors // n_periods


def periodic_sector(model: MultipatchModel, n_periods: int) -> MultipatchModel:
    """The first of the ``n_periods`` equal periods of an annular model
    (the stator pitch's slot pitches): the first n_sectors / n_periods
    sectors of every ring, on the model's own patch objects, with the
    connections, boundary and interface edges among them, closed across
    its own seam (the last sector's v1 edge glued to the first's v0 edge,
    turned by the period).  The sector is one of ``copies * n_periods``
    copies of its side.  Its closure_sign is +1: an operator of one of
    its Bloch modes takes that mode's phase across the seam instead
    (:func:`igamotor.assembly.assemble_stiffness`)."""
    n_rings, n_sectors, m = _sector_grid(model, n_periods)
    new = {r * n_sectors + s: r * m + s for r in range(n_rings) for s in range(m)}
    last = (n_periods - 1) * m             # a closure's edge a lies in the last period

    def mapped(entries):
        return [(new[e[0]],) + tuple(e[1:]) for e in entries if e[0] in new]

    return MultipatchModel(
        patches=[model.patches[pid] for pid in new],
        tags=[model.tags[pid] for pid in new],
        side=model.side,
        r_interface=model.r_interface,
        connectivity=[(new[pa], ea, new[pb], eb, rev) for pa, ea, pb, eb, rev
                      in model.connectivity if pa in new and pb in new],
        dirichlet_edges=mapped(model.dirichlet_edges),
        interface_edges=mapped(model.interface_edges),
        meta=dict(model.meta, n_sectors=m, sector_bounds=model.meta["sector_bounds"][:m]),
        closure=[(new[pa - last], ea, new[pb], eb, rev) for pa, ea, pb, eb, rev in model.closure],
        copies=model.copies * n_periods,
        closure_sign=1,
    )


def period_images(model: MultipatchModel, dofmap: DofMap, sector: DofMap,
                  n_periods: int) -> np.ndarray:
    """(n, n_periods) int: the free position in ``dofmap`` (of ``model``)
    of the image in period k of each of the n free dofs of ``sector``, the
    dof map of :func:`periodic_sector` (model, n_periods).  A sector
    function at a closure copy lies in the next period, so a point of the
    model in period k is the image of its sector global with exponent k,
    or k + 1 at a copy on the seam; the model's own closure copies are no
    free position.  GeometryError unless every sector dof has exactly one
    image per period."""
    n_rings, _, m = _sector_grid(model, n_periods)
    shapes = {gmap.shape for gmap in dofmap.patch_maps}
    if len(shapes) != 1:
        raise GeometryError("the model's patches differ in shape")
    shape = shapes.pop()

    def stacked(arrays):
        """(n_rings, periods, m, nodes): the per-patch arrays, joined."""
        return np.concatenate(arrays).reshape(n_rings, -1, m, shape[0] * shape[1])

    own = stacked(dofmap.patch_maps)
    keep = ~stacked(dofmap.patch_copies)
    exponent = np.arange(n_periods)[:, None, None] + stacked(sector.patch_copies)
    sector_global = np.zeros(dofmap.n_global, dtype=int)
    exponent_of = np.full(dofmap.n_global, -1)
    at = own[keep]
    sector_global[at] = np.broadcast_to(stacked(sector.patch_maps), own.shape)[keep]
    exponent_of[at] = np.broadcast_to(exponent, own.shape)[keep]
    free = dofmap.free_globals
    row, col = sector.free_index[sector_global[free]], exponent_of[free]
    images = np.full((sector.n_free, n_periods), -1)
    if free.size == images.size and (row >= 0).all() and ((col >= 0) & (col < n_periods)).all():
        images[row, col] = np.arange(free.size)
    if (images < 0).any():
        raise GeometryError("the model is not %d images of its first period" % n_periods)
    return images


def check_mesh_validity(model: MultipatchModel, eps_jacobian: float = 0.0,
                        dofmap: Optional[DofMap] = None):
    """True iff det(J) > eps_jacobian at every quadrature point.

    Returns (valid, min_det); the minimum is ``min_detj`` of the model's
    :class:`igamotor.assembly.ModelGeometry`, det J from one batched pass
    over the patches.  Given the model's dof map, it is the geometry the
    dof map's assembly plan keeps for the operators on that model (read
    from it, or built and kept); without one, a geometry built for the one
    call.
    """
    from .assembly import ModelGeometry  # deferred: assembly imports geometry

    geometry = ModelGeometry(model.patches, None) if dofmap is None else dofmap.plan.geometry(model)
    return bool(geometry.min_detj > eps_jacobian), float(geometry.min_detj)


# --------------------------------------------------------------------------
# serialization

def _tag_to_dict(tag: RegionTag) -> dict:
    return {"kind": tag.kind, "phase": tag.phase, "sign": tag.sign}


def dump_geometry(model: MultipatchModel) -> str:
    """JSON text for a model; floats keep full precision (round-trippable).
    Besides the patches, it holds the connectivity, the boundary and
    interface edges, the closure connections, the number of copies the
    model is of its side and the closure's field sign."""
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
        "closure": [list(c) for c in model.closure],
        "copies": model.copies,
        "closure_sign": model.closure_sign,
        "meta": model.meta,
    }
    return json.dumps(doc, indent=1)


def _require(doc, keys, what: str):
    """ValueError unless ``doc`` is a JSON object holding every key of ``keys``."""
    missing = [key for key in keys if not isinstance(doc, dict) or key not in doc]
    if missing:
        raise ValueError("%s lacks %s" % (what, ", ".join(map(repr, missing))))


def _edge_entries(doc: dict, key: str, width: int, n_patches: int) -> list:
    """The entries of ``doc[key]`` as tuples: (patch, edge) pairs for width
    2, connections (pa, ea, pb, eb, reverse) for width 5.  ValueError for
    an entry of another length, a patch id that is no int in
    [0, n_patches), an edge name outside EDGES and a reverse flag that is
    no JSON bool (the string "false" is truthy: it would glue the edge
    reversed)."""
    entries = []
    for entry in doc.get(key, []):
        if not isinstance(entry, list) or len(entry) != width:
            raise ValueError("%s entry %r does not have %d entries" % (key, entry, width))
        for pid, edge in zip(entry[0:4:2], entry[1:4:2]):
            if type(pid) is not int or not 0 <= pid < n_patches:
                raise ValueError("%s entry %r: patch id %r is no int in [0, %d)"
                                 % (key, entry, pid, n_patches))
            if edge not in EDGES:
                raise ValueError("%s entry %r: edge %r is none of %s" % (key, entry, edge, EDGES))
        if width == 5 and type(entry[4]) is not bool:
            raise ValueError("%s entry %r: reverse %r is no bool" % (key, entry, entry[4]))
        entries.append(tuple(entry))
    return entries


def load_geometry(text: str) -> MultipatchModel:
    """The model of :func:`dump_geometry`'s text; a document without a
    closure is one copy of its side.  ValueError for a missing required
    key, a tag key that is none of kind, phase and sign, a connection that
    does not have 5 entries or a boundary or interface edge that does not
    have 2, a patch id that is no int in [0, n_patches), an edge name
    outside EDGES and a connection's reverse flag that is no bool: outside
    text is checked here, once, and not by the model, which every
    line-search trial rotor constructs."""
    doc = json.loads(text)
    _require(doc, ("patches",), "geometry document")
    patches, tags = [], []
    for k, entry in enumerate(doc["patches"]):
        _require(entry, ("degree_u", "degree_v", "knots_u", "knots_v", "points", "weights",
                         "tag"), "patch %d" % k)
        _require(entry["tag"], ("kind",), "tag of patch %d" % k)
        unknown = sorted(set(entry["tag"]) - {"kind", "phase", "sign"})
        if unknown:
            raise ValueError("tag of patch %d: unknown key %s" % (k, ", ".join(map(repr, unknown))))
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
        connectivity=_edge_entries(doc, "connectivity", 5, len(patches)),
        dirichlet_edges=_edge_entries(doc, "dirichlet_edges", 2, len(patches)),
        interface_edges=_edge_entries(doc, "interface_edges", 2, len(patches)),
        meta=doc.get("meta", {}),
        closure=_edge_entries(doc, "closure", 5, len(patches)),
        copies=doc.get("copies", 1),
        closure_sign=doc.get("closure_sign", 1),
    )


# --------------------------------------------------------------------------
# demo machine construction

def _refine_uniform(patches, level: int) -> list:
    """Uniform refinement of patches on one pair of knot vectors, as one
    stacked knot insertion."""
    if level == 0:
        return list(patches)
    cuts = [i / 2 ** level for i in range(1, 2 ** level)]
    return insert_knots_stack(patches, cuts, cuts)


def _winding_layout(slot: int):
    """Phase and sign of a slot in the classic three-phase, one slot per pole
    per phase pattern (A+, C-, B+, A-, C+, B-)."""
    seq = ((1, 1), (3, -1), (2, 1), (1, -1), (3, 1), (2, -1))
    return seq[slot % 6]


def _build_annular_side(radii, ring_tags, sector_bounds, side, r_interface,
                        refinement, dirichlet, interface, copies, closure_sign) -> MultipatchModel:
    """Rings x sectors grid of arc patches with ring/sector connectivity,
    closed from the last sector of each ring to its first.

    ``ring_tags(ring, sector) -> RegionTag``; ``dirichlet``/``interface`` are
    "inner"/"outer"/None selecting the u0 edge of ring 0 or the u1 edge of
    the last ring; the side is ``copies`` turns of the sectors, and the
    field changes by ``closure_sign`` across the closure.
    """
    n_rings = len(radii) - 1
    n_sec = len(sector_bounds)
    patches, tags = [], []
    for r in range(n_rings):
        for s in range(n_sec):
            th0, th1 = sector_bounds[s]
            patches.append(make_arc_patch(radii[r], radii[r + 1], th0, th1))
            tags.append(ring_tags(r, s))
    patches = _refine_uniform(patches, refinement)

    def pid(r, s):
        return r * n_sec + s

    connectivity = []
    for r in range(n_rings):
        for s in range(n_sec):
            if s + 1 < n_sec:
                connectivity.append((pid(r, s), "v1", pid(r, s + 1), "v0", False))
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
        closure=[(pid(r, n_sec - 1), "v1", pid(r, 0), "v0", False) for r in range(n_rings)],
        copies=copies,
        closure_sign=closure_sign,
    )


def build_demo_machine(cfg: MachineConfig, poles: int = 1):
    """Build (stator, rotor) multipatch models of the demo machine over
    ``poles`` pole pitches from theta = 0: one pitch, the model every solve
    uses, by default; 2 pole_pairs pitches give the full ring.

    The rotor has a magnet per pole, with radial magnetization alternating
    from pole to pole, inset in the iron of the magnet ring; the stator
    carries a balanced three-phase winding, one slot per pole per phase.
    Each side is 2 pole_pairs / poles copies of the model, closed with the
    field sign (-1)^poles.
    """
    if poles < 1 or (2 * cfg.pole_pairs) % poles:
        raise ValueError("poles must divide the %d poles of the machine" % (2 * cfg.pole_pairs))
    closure = dict(copies=2 * cfg.pole_pairs // poles, closure_sign=(-1) ** poles)
    rotor_sectors, stator_sectors = cfg.sector_bounds(poles)
    rotor_kinds = []  # per sector of the magnet ring
    for pole in range(poles):
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
        **closure,
    )

    slot_tags = []
    for s in range(3 * poles):
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
        **closure,
    )
    return stator, rotor


def locate_polar(model: MultipatchModel, r, theta):
    """Find (patch, xi, eta) for polar coordinates r, theta, arrays of one
    shape (scalars the 0-d case), on an as-built annular side.

    Valid only for the undeformed demo construction, whose meta carries ring
    radii and sector bounds, and for angles on the model's own arc (one
    pole pitch for the demo's pitch model).  The radial parameter is linear
    in r; the sector is the first whose bounds, widened by 1e-12, hold theta;
    the angular parameter is found by a short Newton iteration on the exact
    arc, run on each patch's points at once until each has converged.
    """
    meta = model.meta
    if "ring_radii" not in meta:
        raise GeometryError("model does not carry annular construction metadata")
    radii = np.asarray(meta["ring_radii"], dtype=float)
    bounds = np.asarray(meta["sector_bounds"], dtype=float)
    shape = np.broadcast(r, theta).shape
    r, theta = (np.broadcast_to(np.asarray(a, dtype=float), shape).reshape(-1) for a in (r, theta))
    theta = theta % (2 * np.pi)
    outside = ~((radii[0] <= r) & (r <= radii[-1]))
    if outside.any():
        raise GeometryError("radius %r outside side range" % (float(r[outside][0]),))
    ring = np.clip(np.searchsorted(radii, r, side="right") - 1, 0, radii.size - 2)
    first = np.searchsorted(bounds[:, 1] + 1e-12, theta)    # first sector ending at theta or later
    sector = np.minimum(first, len(bounds) - 1)
    uncovered = (first == len(bounds)) | ~(bounds[sector, 0] - 1e-12 <= theta)
    if uncovered.any():
        raise GeometryError("angle %r not covered by sectors" % (float(theta[uncovered][0]),))
    patch_id = ring * meta["n_sectors"] + sector
    xi = np.minimum(np.maximum((r - radii[ring]) / (radii[ring + 1] - radii[ring]), 0.0), 1.0)
    a, b = bounds[sector, 0], bounds[sector, 1]
    eta = np.minimum(np.maximum((theta - a) / (b - a), 0.0), 1.0)
    for pid in np.unique(patch_id):
        at = np.flatnonzero(patch_id == pid)
        for _ in range(30):
            point, jac = eval_patch(model.patches[pid], xi[at], eta[at])
            ang = np.arctan2(point[:, 1], point[:, 0]) % (2 * np.pi)
            diff = (ang - theta[at] + np.pi) % (2 * np.pi) - np.pi
            open_ = ~(np.abs(diff) < 1e-13)
            at, point, jac, diff = at[open_], point[open_], jac[open_], diff[open_]
            if not at.size:
                break
            r2 = np.matmul(point[:, None, :], point[:, :, None])[:, 0, 0]
            dth_deta = (point[:, 0] * jac[:, 1, 1] - point[:, 1] * jac[:, 0, 1]) / r2
            eta[at] = np.minimum(np.maximum(eta[at] - diff / dth_deta, 0.0), 1.0)
    return patch_id.reshape(shape)[()], xi.reshape(shape)[()], eta.reshape(shape)[()]
