"""Gradient-descent shape optimization loop: forward sweep, adjoint
gradient, metric descent direction, backtracking step with mesh-validity
guard (steps screened by the exact det J quadratic along the ray), control
point update, termination on stalled decrease.
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
    coupling_gauss_count,
    detj_quadratic,
)
from .coupling import (
    CouplingPrecomp,
    SweepPlan,
    closure_orders,
    harmonic_orders,
    precompute_side,
    reconstruct_state,
    rotation_sweep,
    sweep_angles,
)
from .design import DesignSpace
from .errors import ConfigError, DegenerateSignalError, IgaError
from .fourier import attach_spectrum, build_derivative_dft
from .geometry import (
    DofMap,
    MachineConfig,
    MultipatchModel,
    build_demo_machine,
    build_dof_map,
    check_mesh_validity,
    checked_float,
    checked_int,
    period_images,
    periodic_sector,
)
from .linalg import BlochModes, bloch_phases, factorize

# below this the THD is the rounding noise of a distortion-free spectrum
THD_ROUNDOFF = 1e4 * np.finfo(float).eps


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


def stator_modes(stator: MultipatchModel, dofmap: DofMap, cfg: MachineConfig) -> BlochModes:
    """The stiffness of the stator model ``stator`` (dof map ``dofmap``) as
    its Bloch modes over the N slot pitches it spans, N = its arc /
    ``cfg.stator_period`` (3 on the pole pitch, 3 poles in general): its
    first slot pitch as a :func:`igamotor.geometry.periodic_sector` with a
    dof map of its own, one mode matrix per closure phase of
    :func:`igamotor.linalg.bloch_phases` (N, the model's closure sign) from
    one assembly, and the images of the sector's free dofs among the
    model's."""
    n = round(2 * np.pi / (stator.copies * cfg.stator_period))
    sector = periodic_sector(stator, n)
    sector_map = build_dof_map(sector)
    # the sector's patches are the model's own objects: its plan reads the
    # basis tables the model's plan holds (keyed by value) instead of
    # forming them again
    sector_map.plan.tables = dofmap.plan.tables
    phases = bloch_phases(n, stator.closure_sign)
    matrices = assemble_stiffness(sector, sector_map, build_reluctivity_map(sector, cfg), phases)
    return BlochModes(matrices, phases, period_images(stator, dofmap, sector_map, n))


class MachineSolver:
    """The assembled machine for one configuration, shared by the optimizer
    and every CLI command.

    Both sides are modelled over ``poles`` pole pitches (one; the tests
    build the full ring, 2 pole_pairs, as the oracle of the pitch).  The
    coupling keeps the configured harmonic orders that the model's closure
    admits, the odd multiples of pole_pairs on the pitch (the others vanish
    by symmetry), integrated with the interface rule of the configured set.
    The stator side is solved once: its coupling moments and source are
    assembled on the model, its stiffness never is.  The model is N equal
    slot pitches, so its stiffness is solved as N Bloch modes on the first
    slot pitch (:func:`stator_modes`): a real mode and a complex pair on
    the pole pitch (N = 3, closure sign -1), each a third of the pitch's
    rows and band, each factored, solved and dropped in turn.  Of the
    stator only the winding and the products of that solve are kept.  The
    products, with the orders, the period and ``angles``, make the
    machine's :class:`igamotor.coupling.SweepPlan`, which every
    precomputation shares, so a sweep or adjoint over those angles does
    only the rotor's part.  Per rotor geometry only the rotor stiffness is
    rebuilt, factored, solved and dropped.  The magnet source and rotor
    coupling moments are invariant under the admissible deformations
    (magnet patches and the interface are masked fixed) and are cached from
    the initial rotor.
    """

    def __init__(self, cfg: MachineConfig, poles: int = 1):
        self.cfg = cfg
        self.stator, self.rotor0 = build_demo_machine(cfg, poles)
        self.dm_st = build_dof_map(self.stator)
        self.dm_rt = build_dof_map(self.rotor0)
        configured = harmonic_orders(
            cfg.n_harmonics, cfg.pole_pairs if cfg.harmonics_multiple_of_poles else 1)
        self.orders = closure_orders(configured, self.rotor0.copies, self.rotor0.closure_sign)
        if not self.orders.size:
            raise ConfigError("no configured harmonic order is an odd multiple of "
                              "pole_pairs=%d: nothing couples the two sides" % cfg.pole_pairs)
        self.flux_scale = cfg.pole_pairs * cfg.length_z
        self.winding = assemble_winding_vector(self.stator, self.dm_st, cfg, phase=1)

        def moments(model, dofmap):
            degree = max(patch.knots_u.degree for patch in model.patches)
            return assemble_coupling(model, dofmap, self.orders,
                                     coupling_gauss_count(degree, configured))

        G_st = moments(self.stator, self.dm_st)
        j_st = assemble_rhs(self.stator, self.dm_st, cfg)
        self.plan = SweepPlan(precompute_side(stator_modes(self.stator, self.dm_st, cfg),
                                              G_st, j_st),
                              self.orders, cfg.stator_period,
                              sweep_angles(cfg.pole_pairs, cfg.n_angles))
        self.angles = self.plan.angles
        self._G_rt = moments(self.rotor0, self.dm_rt)
        self._j_rt = assemble_rhs(self.rotor0, self.dm_rt, cfg)
        self.relmap_rt = build_reluctivity_map(self.rotor0, cfg)

    def precompute(self, rotor: MultipatchModel) -> CouplingPrecomp:
        """Reuses the stator products; factors only the rotor side, and
        keeps its products, not its stiffness or factorization."""
        K_rt = assemble_stiffness(rotor, self.dm_rt, self.relmap_rt)
        return CouplingPrecomp(self.plan, precompute_side(factorize(K_rt), self._G_rt, self._j_rt))

    def evaluate(self, rotor: MultipatchModel):
        """(sweep with spectrum attached, precomputation) for one rotor."""
        pre = self.precompute(rotor)
        sweep = rotation_sweep(pre, self.angles, self.winding, self.flux_scale)
        return attach_spectrum(sweep, self.cfg.index_set), pre


def descent_field(gradient: np.ndarray, metric) -> np.ndarray:
    """Riesz representative of the stacked [x; y] gradient in the Hermitian
    deformation metric H of the complex displacement x + iy
    (assemble_vector_metric): one factorization of H and one solve of
    H z = g_x + i g_y, returned stacked as [Re z; Im z]."""
    g = np.asarray(gradient, dtype=float)
    n = metric.shape[0]
    if g.shape != (2 * n,):
        raise ValueError("gradient length %d != twice the metric size %d" % (g.size, n))
    z = factorize(metric).solve(g[:n] + 1j * g[n:])
    return np.concatenate([z.real, z.imag])


@dataclass
class LineSearchResult:
    delta: float
    rotor: MultipatchModel
    objective: float
    sweep: object
    pre: CouplingPrecomp
    min_detj: float


def detj_screen(design: DesignSpace, rotor: MultipatchModel, W: np.ndarray):
    """(a, b, c, margin) of :func:`igamotor.assembly.detj_quadratic` over
    the Gauss points of the design patches of ``rotor`` moved along -W (a
    closure copy along its turned displacement).  ``displace`` shares every
    other patch bit for bit, so these are the only points at which a step
    can lose mesh validity."""
    patches = [rotor.patches[pid] for pid in design.patch_ids]
    stops = np.cumsum([patch.n_u * patch.n_v for patch in patches])[:-1]
    return detj_quadratic(patches, np.split(design.node_displacements(W), stops),
                          design.dofmap.plan)


def line_search(solver: MachineSolver, design: DesignSpace,
                rotor: MultipatchModel, objective: float, W: np.ndarray,
                eps_jacobian: float, opt: OptimizerConfig) -> Optional[LineSearchResult]:
    """Largest step in {1, 1/2, 1/4, ...} keeping the mesh valid and
    decreasing the objective; None when the step floor is reached.

    Along the ray every Gauss-point det J is the exact quadratic
    a - delta b + delta^2 c (:func:`detj_screen`, formed once per call).  A
    step whose screened minimum, the quadratic plus its rounding margin,
    is <= eps_jacobian at some point fails the direct check there too, so
    it is skipped without building the trial rotor.  Every other step is
    displaced, checked with ``check_mesh_validity`` and evaluated as
    before: the accepted step, rotor, objective and min det J are bitwise
    those of the plain halving loop.
    """
    a, b, c, margin = detj_screen(design, rotor, W)
    delta = 1.0
    while delta >= opt.delta_floor:
        if (a - delta * b + delta * delta * c + margin).min() > eps_jacobian:
            trial = design.displace(rotor, W, delta)
            ok, min_detj = check_mesh_validity(trial, eps_jacobian, design.dofmap)
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

    An initial THD below ``THD_ROUNDOFF`` = 1e4 x machine epsilon (2.2e-12)
    is rounding noise of a distortion-free spectrum, not a distortion to
    reduce: it raises DegenerateSignalError, with the initial history row
    kept, before the first step.

    Each line search screens its steps with the exact det J quadratic and
    builds only the trial rotors that can pass the mesh check; the screen
    skips only steps the check would reject, so the trajectory, history
    and stop reason are bitwise those of the plain halving loop.
    """
    if cfg.current_amplitude != 0.0:
        raise ConfigError("shape optimization expects the no-load machine "
                          "(current_amplitude = 0)")
    opt = opt or OptimizerConfig()
    solver = MachineSolver(cfg)
    rotor = solver.rotor0
    design = DesignSpace(rotor, solver.dm_rt)
    dft = build_derivative_dft(cfg.n_angles)

    sweep, pre = solver.evaluate(rotor)
    objective = sweep.thd
    _, min_detj = check_mesh_validity(rotor, 0.0, solver.dm_rt)
    eps_jacobian = opt.eps_jacobian_rel * min_detj
    tol = opt.tol if opt.tol is not None else 1e-6 * objective

    state = OptimizationState(0, rotor, objective, None, None, 0.0,
                              history=[(0, objective, 0.0, min_detj)],
                              reason="max_iterations")
    if callback:
        callback(state)
    try:
        if objective < THD_ROUNDOFF:
            raise DegenerateSignalError("initial THD %.3e is at round-off level: "
                                        "nothing to optimize" % objective)
        for it in range(1, opt.max_iterations + 1):
            sens = thd_sample_sensitivities(sweep.emf_a, sweep.emf_b,
                                            sweep.index_set, dft)
            adj = solve_adjoints(pre, solver.winding, sens, solver.angles,
                                 solver.flux_scale)
            # the forward rotor fields (2.5 MB at refinement 4) are passed,
            # not named: nothing holds them through the metric and the line
            # search
            gradient = assemble_shape_gradient(rotor, solver.dm_rt, design,
                                               reconstruct_state(pre, sweep.angles,
                                                                 sweep.lambdas).u_rt,
                                               adj, solver.relmap_rt)
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
