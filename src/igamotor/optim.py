"""Gradient-descent shape optimization loop: forward sweep, adjoint
gradient, metric descent direction, backtracking step with mesh-validity
guard, control point update, termination on stalled decrease.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .adjoint import assemble_shape_gradient, solve_adjoints, thd_sample_sensitivities
from .assembly import (
    assemble_coupling,
    assemble_rhs,
    assemble_stiffness,
    assemble_vector_metric,
    assemble_winding_vector,
    build_reluctivity_map,
)
from .coupling import (
    CouplingBlocks,
    CouplingPrecomp,
    harmonic_orders,
    precompute_side,
    rotation_sweep,
    sweep_angles,
)
from .design import DesignSpace
from .errors import ConfigError, IgaError
from .fourier import attach_spectrum, build_derivative_dft
from .geometry import (
    MachineConfig,
    MultipatchModel,
    build_demo_machine,
    build_dof_map,
    check_mesh_validity,
    checked_float,
    checked_int,
)
from .linalg import factorize, matvec


@dataclass(frozen=True)
class OptimizerConfig:
    tol: Optional[float] = None            # default 1e-6 * initial objective
    delta_floor: float = 2.0 ** -20
    eps_jacobian_rel: float = 1e-3         # validity floor / initial min det J
    max_iterations: int = 100

    def __post_init__(self):
        object.__setattr__(self, "max_iterations",
                           checked_int(self.max_iterations, "max_iterations", 0))
        if self.tol is not None:
            object.__setattr__(self, "tol", checked_float(self.tol, "tol"))
        for name in ("delta_floor", "eps_jacobian_rel"):
            object.__setattr__(self, name, checked_float(getattr(self, name), name))
        if self.tol is not None and self.tol <= 0:
            raise ConfigError("tol must be positive")
        if self.delta_floor <= 0 or self.eps_jacobian_rel <= 0:
            raise ConfigError("optimizer parameters must be positive")
        if self.delta_floor > 1.0:
            raise ConfigError("delta_floor must not exceed 1, the first trial step")


@dataclass
class OptimizationState:
    iteration: int
    rotor: MultipatchModel
    objective: float
    gradient: Optional[np.ndarray]
    descent: Optional[np.ndarray]
    delta: float
    history: list = field(default_factory=list)  # (iteration, thd, step, min_detJ)
    reason: str = ""


class MachineSolver:
    """The assembled machine for one configuration, shared by the optimizer
    and every CLI command.

    The stator side (stiffness factorization, coupling moments, winding) is
    assembled once; per rotor geometry only the rotor stiffness is rebuilt.
    The magnet source and rotor coupling moments are invariant under the
    admissible deformations (magnet patches and the interface are masked
    fixed) and are cached from the initial rotor.
    """

    def __init__(self, cfg: MachineConfig):
        self.cfg = cfg
        self.stator, self.rotor0 = build_demo_machine(cfg)
        self.dm_st = build_dof_map(self.stator)
        self.dm_rt = build_dof_map(self.rotor0)
        self.orders = harmonic_orders(
            cfg.n_harmonics, cfg.pole_pairs if cfg.harmonics_multiple_of_poles else 1)
        self.angles = sweep_angles(cfg.pole_pairs, cfg.n_angles)
        self.flux_scale = cfg.pole_pairs * cfg.length_z
        self.winding = assemble_winding_vector(self.stator, self.dm_st, cfg, phase=1)
        K_st = assemble_stiffness(self.stator, self.dm_st,
                                  build_reluctivity_map(self.stator, cfg))
        G_st = assemble_coupling(self.stator, self.dm_st, self.orders)
        j_st = assemble_rhs(self.stator, self.dm_st, cfg, t=0.0)
        self._st_pre = precompute_side(K_st, G_st, j_st)
        self._G_rt = assemble_coupling(self.rotor0, self.dm_rt, self.orders)
        self._j_rt = assemble_rhs(self.rotor0, self.dm_rt, cfg)
        self.relmap_rt = build_reluctivity_map(self.rotor0, cfg)

    def blocks(self, rotor: MultipatchModel) -> CouplingBlocks:
        """Unfactored blocks of the coupled system for one rotor."""
        st = self._st_pre
        return CouplingBlocks(st.K, assemble_stiffness(rotor, self.dm_rt, self.relmap_rt),
                              st.G, self._G_rt, st.j, self._j_rt, self.orders)

    def precompute(self, rotor: MultipatchModel) -> CouplingPrecomp:
        """Reuses the stator factorization; factors only the rotor side."""
        K_rt = assemble_stiffness(rotor, self.dm_rt, self.relmap_rt)
        rt = precompute_side(K_rt, self._G_rt, self._j_rt)
        return CouplingPrecomp(self._st_pre, rt, self.orders)

    def evaluate(self, rotor: MultipatchModel):
        """(sweep with spectrum attached, precomputation) for one rotor."""
        pre = self.precompute(rotor)
        sweep = rotation_sweep(pre, self.angles, self.winding, self.flux_scale)
        return attach_spectrum(sweep, self.cfg.index_set), pre


def descent_field(gradient: np.ndarray, metric) -> np.ndarray:
    """Riesz representative of the gradient in the deformation metric."""
    return factorize(metric).solve(np.asarray(gradient, dtype=float))


@dataclass
class LineSearchResult:
    delta: float
    rotor: MultipatchModel
    objective: float
    sweep: object
    pre: CouplingPrecomp
    min_detj: float


def line_search(solver: MachineSolver, design: DesignSpace,
                rotor: MultipatchModel, objective: float, W: np.ndarray,
                eps_jacobian: float, opt: OptimizerConfig) -> Optional[LineSearchResult]:
    """Largest step in {1, 1/2, 1/4, ...} keeping the mesh valid and
    decreasing the objective; None when the step floor is reached."""
    delta = 1.0
    while delta >= opt.delta_floor:
        trial = design.displace(rotor, W, delta)
        ok, min_detj = check_mesh_validity(trial, eps_jacobian)
        if ok:
            sweep, pre = solver.evaluate(trial)
            if sweep.thd < objective:
                return LineSearchResult(delta, trial, sweep.thd, sweep, pre, min_detj)
        delta *= 0.5
    return None


def run_optimization(cfg: MachineConfig, opt: OptimizerConfig | None = None,
                     callback=None) -> OptimizationState:
    """Minimize the EMF THD over the free rotor control points.

    Terminates when an accepted step improves by less than tol, when the
    line search exhausts its step set (no progress), or at the iteration
    cap.  The partial history is preserved when an iteration raises.
    """
    if cfg.current_amplitude != 0.0:
        raise ConfigError("shape optimization expects the no-load machine "
                          "(current_amplitude = 0)")
    opt = opt or OptimizerConfig()
    solver = MachineSolver(cfg)
    rotor = solver.rotor0
    design = DesignSpace(rotor, solver.dm_rt)
    mats = build_derivative_dft(cfg.n_angles)

    sweep, pre = solver.evaluate(rotor)
    objective = sweep.thd
    _, min_detj = check_mesh_validity(rotor, 0.0)
    eps_jacobian = opt.eps_jacobian_rel * min_detj
    tol = opt.tol if opt.tol is not None else 1e-6 * objective

    state = OptimizationState(0, rotor, objective, None, None, 0.0,
                              history=[(0, objective, 0.0, min_detj)],
                              reason="max_iterations")
    if callback:
        callback(state)
    try:
        for it in range(1, opt.max_iterations + 1):
            sens = thd_sample_sensitivities(sweep.emf_a, sweep.emf_b,
                                            sweep.index_set, mats)
            adj = solve_adjoints(pre, solver.winding, sens, solver.angles,
                                 solver.flux_scale)
            u_rt = pre.rt.y + matvec(pre.rt.X, sweep.lambdas)   # rotor block only
            gradient = assemble_shape_gradient(rotor, solver.dm_rt, design,
                                               u_rt, adj.rotor_fields(),
                                               solver.relmap_rt, solver.cfg)
            metric = assemble_vector_metric(rotor, solver.dm_rt, design.mask)
            W = descent_field(gradient, metric)
            if gradient @ W <= 0.0:
                state.reason = "no_progress"
                break
            result = line_search(solver, design, rotor, objective, W,
                                 eps_jacobian, opt)
            if result is None:
                state.reason = "no_progress"
                break
            improvement = objective - result.objective
            rotor, objective = result.rotor, result.objective
            sweep, pre = result.sweep, result.pre
            state.iteration = it
            state.rotor = rotor
            state.objective = objective
            state.gradient = gradient
            state.descent = W
            state.delta = result.delta
            state.history.append((it, objective, result.delta, result.min_detj))
            if callback:
                callback(state)
            if improvement < tol:
                state.reason = "tol"
                break
        else:
            state.reason = "max_iterations"
    except IgaError as exc:
        state.reason = "error"
        exc.partial_state = state  # history survives the abort
        raise
    return state
