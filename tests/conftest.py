import numpy as np
import pytest

from igamotor.assembly import assemble_stiffness, assemble_winding_vector, build_reluctivity_map
from igamotor.coupling import CouplingPrecomp, precompute_side
from igamotor.geometry import MachineConfig, build_demo_machine, build_dof_map
from igamotor.optim import MachineSolver
from igamotor.splines import NurbsPatch, bspline_basis, insert_knots, make_arc_patch


def coarse_config(**overrides):
    base = dict(refinement=0, n_harmonics=12, n_angles=12)
    base.update(overrides)
    return MachineConfig(**base)


def homogeneous_eval(patch, ctrl, xi, eta):
    """Value S / A and Jacobian columns (S_u A - S A_u) / A^2 of the rational
    map with control data ``ctrl`` (n_u, n_v, d), where S = sum w B ctrl and
    A = sum w B: the homogeneous-coordinate form, an evaluation path that
    shares nothing with ``splines.rational_basis``."""
    su, Bu, dBu = bspline_basis(patch.knots_u, xi)
    sv, Bv, dBv = bspline_basis(patch.knots_v, eta)
    pu, pv = patch.knots_u.degree, patch.knots_v.degree
    wl = patch.weights[su - pu:su + 1, sv - pv:sv + 1]
    Cl = ctrl[su - pu:su + 1, sv - pv:sv + 1, :]
    Bw = np.outer(Bu, Bv) * wl
    Bw_u = np.outer(dBu, Bv) * wl
    Bw_v = np.outer(Bu, dBv) * wl
    A, A_u, A_v = Bw.sum(), Bw_u.sum(), Bw_v.sum()
    S = np.tensordot(Bw, Cl, axes=([0, 1], [0, 1]))
    S_u = np.tensordot(Bw_u, Cl, axes=([0, 1], [0, 1]))
    S_v = np.tensordot(Bw_v, Cl, axes=([0, 1], [0, 1]))
    jac = np.stack([(S_u * A - S * A_u) / (A * A), (S_v * A - S * A_v) / (A * A)], axis=1)
    return S / A, jac


def machine_stiffness(solver):
    """(K_st, K_rt) of ``solver``'s stator and initial rotor: the calls
    ``MachineSolver`` makes, so the matrices it factored, bit for bit.  The
    precomputation does not keep them."""
    K_st = assemble_stiffness(solver.stator, solver.dm_st,
                              build_reluctivity_map(solver.stator, solver.cfg))
    return K_st, assemble_stiffness(solver.rotor0, solver.dm_rt, solver.relmap_rt)


def field_signs(dm, pid):
    """Field sign of every control point of patch ``pid`` of the dof map
    ``dm``, flat: the closure sign at a closure copy, 1 elsewhere."""
    flags = dm.patch_copies[pid]
    if flags is None:
        return np.ones(dm.patch_maps[pid].size)
    return np.where(flags.reshape(-1), dm.closure_sign, 1.0)


def zero_source_precompute(pre, K_st, K_rt):
    """The same coupled system with both loads j_st, j_rt set to zero."""
    st, rt = (precompute_side(K, side.G, np.zeros_like(side.j))
              for side, K in ((pre.st, K_st), (pre.rt, K_rt)))
    return CouplingPrecomp(st, rt, pre.orders, pre.period)


def weighted_arc_patch():
    """A refined magnet-ring arc patch with random weights in [0.5, 2]."""
    patch = insert_knots(make_arc_patch(0.045, 0.05, 0.2, 0.8), [0.3, 0.6], [0.5])
    weights = patch.weights * np.random.default_rng(4).uniform(0.5, 2.0, patch.weights.shape)
    return NurbsPatch(patch.knots_u, patch.knots_v, patch.points, weights)


@pytest.fixture(scope="session")
def coarse_cfg():
    return coarse_config()


@pytest.fixture(scope="session")
def coarse_machine(coarse_cfg):
    return build_demo_machine(coarse_cfg)


@pytest.fixture(scope="session")
def coarse_dofmaps(coarse_machine):
    stator, rotor = coarse_machine
    return build_dof_map(stator), build_dof_map(rotor)


@pytest.fixture(scope="session")
def coarse_solver(coarse_cfg):
    return MachineSolver(coarse_cfg)


@pytest.fixture(scope="session")
def coarse_pre(coarse_solver):
    return coarse_solver.precompute(coarse_solver.rotor0)


@pytest.fixture(scope="session")
def coarse_stiffness(coarse_solver):
    """(K_st, K_rt) of the coarse machine: the blocks ``coarse_pre`` was
    computed from."""
    return machine_stiffness(coarse_solver)


@pytest.fixture(scope="session")
def coarse_winding(coarse_cfg, coarse_machine, coarse_dofmaps):
    stator, _ = coarse_machine
    dm_st, _ = coarse_dofmaps
    return assemble_winding_vector(stator, dm_st, coarse_cfg, phase=1)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
