"""Freeform design space over the rotor control net.

A deformation field lives in the rotor geometry's own NURBS space, so one
coefficient step moves the corresponding control points and the perturbed
geometry is exactly the transported one.  Only the rotor iron and air
patches deform.  Masked out (held fixed): every control point of a magnet
patch, the interface circle, and the shaft boundary; everything else in
the deforming patches is free, two components per point.  The magnets
never move, which is why the shape gradient carries no magnetization term.
Vectors over the design space are stacked [x-components; y-components],
each over the free points in the dof map's band order, the row order of
the deformation metric on them.

The geometry is periodic even where the field is antiperiodic: a closure
copy of a free point moves by the point's displacement turned by the
model's turn, so the closure stays glued.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .geometry import DofMap, MultipatchModel, _edge_index

DEFORM_KINDS = ("rotor_iron", "rotor_air")


@dataclass
class DesignSpace:
    model: MultipatchModel
    dofmap: DofMap
    mask: np.ndarray = field(init=False)
    free: np.ndarray = field(init=False)
    index: np.ndarray = field(init=False)
    patch_ids: tuple = field(init=False)
    nodes: np.ndarray = field(init=False)   # globals of the design patches' points, in patch order
    turned: np.ndarray = field(init=False)  # positions in ``nodes`` of closure copies

    def __post_init__(self):
        dm = self.dofmap
        in_deform = np.zeros(dm.n_global, dtype=bool)
        in_fixed = np.zeros(dm.n_global, dtype=bool)
        for pid, tag in enumerate(self.model.tags):
            flat = dm.patch_maps[pid].reshape(-1)
            if tag.kind in DEFORM_KINDS:
                in_deform[flat] = True
            else:
                in_fixed[flat] = True
        mask = in_deform & ~in_fixed & ~dm.dirichlet
        for pid, edge in self.model.interface_edges:
            mask[dm.patch_maps[pid][_edge_index(edge)]] = False
        if not mask.any():
            raise ConfigError("design mask is empty")
        self.mask = mask
        self.free = dm.free_globals[mask[dm.free_globals]]     # in the band order
        self.index = np.full(dm.n_global, -1, dtype=int)
        self.index[self.free] = np.arange(self.free.size)
        self.patch_ids = tuple(
            pid for pid, tag in enumerate(self.model.tags)
            if tag.kind in DEFORM_KINDS
            and mask[dm.patch_maps[pid].reshape(-1)].any())
        self.nodes = np.concatenate([dm.patch_maps[pid].reshape(-1) for pid in self.patch_ids])
        self.turned = np.flatnonzero(np.concatenate([dm.patch_copies[pid].reshape(-1)
                                                     for pid in self.patch_ids]))

    @property
    def n_points(self) -> int:
        return self.free.size

    @property
    def n_dofs(self) -> int:
        return 2 * self.free.size

    def displacement(self, w_stacked: np.ndarray) -> np.ndarray:
        """(n_global, 2) displacement of every glued control point under the
        stacked design vector W; zero off the free points."""
        w_stacked = np.asarray(w_stacked, dtype=float)
        if w_stacked.shape != (self.n_dofs,):
            raise ValueError("expected %d design components" % self.n_dofs)
        disp = np.zeros((self.dofmap.n_global, 2))
        disp[self.free, 0] = w_stacked[:self.n_points]
        disp[self.free, 1] = w_stacked[self.n_points:]
        return disp

    def node_displacements(self, w_stacked: np.ndarray) -> np.ndarray:
        """(len(nodes), 2) displacement of every control point of the design
        patches, in patch order: a closure copy's is its global point's
        turned by the dof map's turn."""
        disp = self.displacement(w_stacked)[self.nodes]
        disp[self.turned] = disp[self.turned] @ self.dofmap.turn.T
        return disp

    def displace(self, model: MultipatchModel, w_stacked: np.ndarray,
                 delta: float) -> MultipatchModel:
        """Control points move by -delta * W (a closure copy by its turned
        displacement); untouched patches are shared (bit-identical) with
        the input model.

        The design patches move in one gathered step; each moved patch
        shares the knots and weights objects of its input patch
        (:meth:`NurbsPatch.with_points`)."""
        parents = [model.patches[pid] for pid in self.patch_ids]
        points = np.concatenate([patch.points.reshape(-1, 2) for patch in parents])
        moved = points - delta * self.node_displacements(w_stacked)
        new_patches = list(model.patches)
        start = 0
        for pid, patch in zip(self.patch_ids, parents):
            stop = start + patch.points.shape[0] * patch.points.shape[1]
            new_patches[pid] = patch.with_points(moved[start:stop].reshape(patch.points.shape))
            start = stop
        return model.with_patches(new_patches)
