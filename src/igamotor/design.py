"""Freeform design space over the rotor control net.

A deformation field lives in the rotor geometry's own NURBS space, so one
coefficient step moves the corresponding control points and the perturbed
geometry is exactly the transported one.  Only the rotor iron and air
patches deform.  Masked out (held fixed): every control point of a magnet
patch, the interface circle, and the shaft boundary; everything else in
the deforming patches is free, two components per point.  The magnets
never move, which is why the shape gradient carries no magnetization term.
Vectors over the design space are stacked [x-components; y-components].
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .geometry import DofMap, MultipatchModel, edge_nodes
from .splines import NurbsPatch

DEFORM_KINDS = ("rotor_iron", "rotor_air")


@dataclass
class DesignSpace:
    model: MultipatchModel
    dofmap: DofMap
    mask: np.ndarray = field(init=False)
    free: np.ndarray = field(init=False)
    index: np.ndarray = field(init=False)
    patch_ids: tuple = field(init=False)

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
            patch = self.model.patches[pid]
            for i, j in edge_nodes(patch.n_u, patch.n_v, edge):
                mask[dm.patch_maps[pid][i, j]] = False
        if not mask.any():
            raise ConfigError("design mask is empty")
        self.mask = mask
        self.free = np.flatnonzero(mask)
        self.index = np.full(dm.n_global, -1, dtype=int)
        self.index[self.free] = np.arange(self.free.size)
        self.patch_ids = tuple(
            pid for pid, tag in enumerate(self.model.tags)
            if tag.kind in DEFORM_KINDS
            and mask[dm.patch_maps[pid].reshape(-1)].any())

    @property
    def n_points(self) -> int:
        return self.free.size

    @property
    def n_dofs(self) -> int:
        return 2 * self.free.size

    def displace(self, model: MultipatchModel, w_stacked: np.ndarray,
                 delta: float) -> MultipatchModel:
        """Control points move by -delta * W; untouched patches are shared
        (bit-identical) with the input model."""
        w_stacked = np.asarray(w_stacked, dtype=float)
        if w_stacked.shape != (self.n_dofs,):
            raise ValueError("expected %d design components" % self.n_dofs)
        disp = np.zeros((self.dofmap.n_global, 2))
        disp[self.free, 0] = w_stacked[:self.n_points]
        disp[self.free, 1] = w_stacked[self.n_points:]
        moving = set(self.patch_ids)
        new_patches = []
        for pid, patch in enumerate(model.patches):
            if pid not in moving:
                new_patches.append(patch)
                continue
            moved = patch.points - delta * disp[self.dofmap.patch_maps[pid]]
            new_patches.append(NurbsPatch(patch.knots_u, patch.knots_v,
                                          moved, patch.weights))
        return model.with_patches(new_patches)
