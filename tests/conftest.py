import numpy as np
import pytest

from igamotor.assembly import assemble_winding_vector
from igamotor.geometry import MachineConfig, build_demo_machine, build_dof_map
from igamotor.optim import MachineSolver


def coarse_config(**overrides):
    base = dict(refinement=0, n_harmonics=12, n_angles=12)
    base.update(overrides)
    return MachineConfig(**base)


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
def coarse_blocks(coarse_cfg):
    solver = MachineSolver(coarse_cfg)
    return solver.blocks(solver.rotor0)


@pytest.fixture(scope="session")
def coarse_winding(coarse_cfg, coarse_machine, coarse_dofmaps):
    stator, _ = coarse_machine
    dm_st, _ = coarse_dofmaps
    return assemble_winding_vector(stator, dm_st, coarse_cfg, phase=1)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
