import numpy as np
import pytest

from igamotor.assembly import assemble_stiffness, assemble_winding_vector, build_reluctivity_map
from igamotor.coupling import CouplingPrecomp, SweepPlan, precompute_side
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


def machine_sides(solver):
    """(K, G, j) of ``solver``'s stator and of its initial rotor: K from the
    calls ``MachineSolver`` makes, so the matrices it factored, bit for bit,
    and the moment and source blocks it keeps.  The precomputation keeps
    none of them."""
    K_st = assemble_stiffness(solver.stator, solver.dm_st,
                              build_reluctivity_map(solver.stator, solver.cfg))
    K_rt = assemble_stiffness(solver.rotor0, solver.dm_rt, solver.relmap_rt)
    return (K_st, solver._G_st, solver._j_st), (K_rt, solver._G_rt, solver._j_rt)


def field_signs(dm, pid):
    """Field sign of every control point of patch ``pid`` of the dof map
    ``dm``, flat: the closure sign at a closure copy, 1 elsewhere."""
    flags = dm.patch_copies[pid]
    if flags is None:
        return np.ones(dm.patch_maps[pid].size)
    return np.where(flags.reshape(-1), dm.closure_sign, 1.0)


def zero_sources(st, rt):
    """Each side's (K, G, j) with its load j set to zero."""
    return [(K, G, np.zeros_like(j)) for K, G, j in (st, rt)]


def zero_source_precompute(pre, st, rt):
    """The coupled system of ``pre`` and the sides st, rt, each (K, G, j),
    with both loads j_st, j_rt set to zero."""
    plan = pre.plan
    st0, rt0 = (precompute_side(*side) for side in zero_sources(st, rt))
    return CouplingPrecomp(SweepPlan(st0, plan.orders, plan.period, plan.angles), rt0)


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
def coarse_sides(coarse_solver):
    """(K, G, j) of the coarse machine's stator and rotor: the blocks
    ``coarse_pre`` was computed from."""
    return machine_sides(coarse_solver)


@pytest.fixture(scope="session")
def coarse_winding(coarse_cfg, coarse_machine, coarse_dofmaps):
    stator, _ = coarse_machine
    dm_st, _ = coarse_dofmaps
    return assemble_winding_vector(stator, dm_st, coarse_cfg, phase=1)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
