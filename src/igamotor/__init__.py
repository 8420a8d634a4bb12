"""Isogeometric 2D magnetostatic machine solver with harmonic stator-rotor
coupling and adjoint-based THD shape optimization."""

from .errors import (
    AssemblyError,
    ConfigError,
    ConformityError,
    DegenerateSignalError,
    FactorizationError,
    GeometryError,
    IgaError,
    SingularSystemError,
)
from .geometry import (
    MachineConfig,
    MultipatchModel,
    RegionTag,
    build_demo_machine,
    build_dof_map,
    check_mesh_validity,
    dump_geometry,
    load_geometry,
)
from .coupling import (
    harmonic_orders,
    rotation_sweep,
    solve_at_angle,
    sweep_angles,
)
from .fourier import SweepResult, attach_spectrum, build_derivative_dft, emf_spectrum, flux_linkage, thd
from .optim import MachineSolver, OptimizationState, OptimizerConfig, run_optimization
from .splines import (
    KnotVector,
    NurbsPatch,
    eval_patch,
    insert_knots,
    make_arc_patch,
)

__all__ = [
    "AssemblyError",
    "ConfigError",
    "ConformityError",
    "DegenerateSignalError",
    "FactorizationError",
    "GeometryError",
    "IgaError",
    "SingularSystemError",
    "MachineConfig",
    "MultipatchModel",
    "RegionTag",
    "build_demo_machine",
    "build_dof_map",
    "check_mesh_validity",
    "dump_geometry",
    "load_geometry",
    "harmonic_orders",
    "rotation_sweep",
    "solve_at_angle",
    "sweep_angles",
    "SweepResult",
    "attach_spectrum",
    "build_derivative_dft",
    "emf_spectrum",
    "flux_linkage",
    "thd",
    "MachineSolver",
    "OptimizationState",
    "OptimizerConfig",
    "run_optimization",
    "KnotVector",
    "NurbsPatch",
    "eval_patch",
    "insert_knots",
    "make_arc_patch",
]
