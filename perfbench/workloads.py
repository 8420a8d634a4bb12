"""The benchmark's workloads: seeded inputs, the timed operation and the
untimed output checks of each.

Every call into igamotor goes through a module attribute (``optim.
MachineSolver``, ``geometry.check_mesh_validity``, ...) looked up at call
time, so the tracer's wrappers see the harness's own calls too.

A workload exposes:

* ``setup(tracer)``: the timed set-up, ``MachineSolver`` construction plus
  its first ``evaluate`` (``setup_s``);
* ``prepare(machine, rng)``: untimed per-run state (winding vectors, design
  space, seeded directions);
* ``next_input(rng)``: the seeded input of one operation;
* ``operation(machine, inp)``: one timed operation;
* ``check(machine, inp, out)``: True when the outputs pass the oracle;
* ``finish(machine)``: run-level oracle, untimed, True when it passes;
* ``thd(out)``: the THD the operation produced (``thd_final``);
* ``op_name``/``rate_name``: the names the report gives the median operation
  time (with its scale and unit) and the operation rate.
"""
from __future__ import annotations

import math

import numpy as np

from igamotor import adjoint, assembly, coupling, design, fourier, geometry, optim

# acceptance-6 lock: initial THD, final/initial ratio (with 2% slack)
LOCKED_INITIAL_THD = 0.184769819
LOCKED_FINAL_RATIO = 0.6936
SWEEP_RTOL = 1e-10          # psi and THD against their references
FD_RTOL = 1e-4              # adjoint gradient vs central differences
PERTURB_FRACTION = 0.1      # max control point move / smallest control net spacing
EPS_JACOBIAN_REL = 1e-3     # mesh validity floor, as in OptimizerConfig


def _setup_solver(cfg, tracer):
    with tracer.span("bench.solver_init"):
        solver = optim.MachineSolver(cfg)
    sweep, pre = solver.evaluate(solver.rotor0)
    return solver, sweep, pre


class OptimizeDemo:
    """The acceptance-6 optimization, run to termination.  Its input is the
    fixed demo configuration (the oracle is a locked result), so the seed
    selects nothing here."""

    name = "optimize-demo"
    n_setup = 9
    op_name, rate_name = ("optimize_s", 1.0, "s"), "optimizations_per_s"

    def __init__(self):
        self.cfg = geometry.MachineConfig(refinement=0, n_harmonics=12, n_angles=60,
                                          harmonics_multiple_of_poles=True)

    def setup(self, tracer):
        return _setup_solver(self.cfg, tracer)

    def prepare(self, machine, rng):
        return machine

    def next_input(self, rng):
        return None

    def operation(self, machine, inp):
        return optim.run_optimization(self.cfg, optim.OptimizerConfig())

    def check(self, machine, inp, state):
        values = [h[1] for h in state.history]
        return (abs(values[0] - LOCKED_INITIAL_THD) < 1e-5 * LOCKED_INITIAL_THD
                and all(b < a for a, b in zip(values, values[1:]))
                and state.objective / values[0] <= LOCKED_FINAL_RATIO * 1.02
                and state.reason in ("tol", "no_progress"))

    def finish(self, machine):
        return True

    def thd(self, state):
        return state.objective


class SweepR2:
    """Full-period sweeps of one precomputed machine: the online per-angle
    path only.  Each sweep has a seeded sub-step angle offset and winding
    phase."""

    name = "sweep-r2"
    n_setup = 7
    op_name, rate_name = ("sweep_ms_p50", 1e3, "ms"), "sweeps_per_s"

    def __init__(self, refinement=2, n_harmonics=24, n_angles=120):
        self.cfg = geometry.MachineConfig(refinement=refinement, n_harmonics=n_harmonics,
                                          n_angles=n_angles, harmonics_multiple_of_poles=True)

    def setup(self, tracer):
        return _setup_solver(self.cfg, tracer)

    def prepare(self, machine, rng):
        solver, sweep, pre = machine
        self.windings = {phase: assembly.assemble_winding_vector(
            solver.stator, solver.dm_st, self.cfg, phase=phase) for phase in (1, 2, 3)}
        # THD of the set-up sweep (phase 1, no offset).  The balanced winding
        # makes every phase reproduce it, and once n_angles resolves every
        # harmonic the flux linkage carries (60 angles do at 12 pole-multiple
        # harmonics) so does every sub-step offset, to rounding (~1e-14)
        self.reference_thd = sweep.thd
        self.step = float(solver.angles[1] - solver.angles[0])
        return machine

    def next_input(self, rng):
        offset = float(rng.random()) * self.step
        phase = int(rng.integers(1, 4))
        probe = int(rng.integers(self.cfg.n_angles))
        return offset, phase, probe

    def operation(self, machine, inp):
        solver, _, pre = machine
        offset, phase, _ = inp
        sweep = coupling.rotation_sweep(pre, solver.angles + offset, self.windings[phase],
                                        solver.flux_scale)
        return fourier.attach_spectrum(sweep, self.cfg.index_set)

    def check(self, machine, inp, sweep):
        _, _, pre = machine
        _, phase, probe = inp
        state = coupling.solve_at_angle(pre, float(sweep.angles[probe]))
        psi = fourier.flux_linkage(state.u_st, self.windings[phase],
                                   self.cfg.pole_pairs, self.cfg.length_z)
        amplitude = float(np.abs(sweep.psi).max())
        return (abs(sweep.psi[probe] - psi) <= SWEEP_RTOL * amplitude
                and abs(sweep.thd - self.reference_thd) <= SWEEP_RTOL * self.reference_thd)

    def finish(self, machine):
        return True

    def thd(self, sweep):
        return sweep.thd


def _design_points(space):
    """Polar coordinates of the free control points."""
    xy = space.dofmap.points[space.free]
    return np.hypot(xy[:, 0], xy[:, 1]), np.arctan2(xy[:, 1], xy[:, 0])


def _min_spacing(model, patch_ids):
    """Smallest distance between neighbouring control points of the patches."""
    best = math.inf
    for pid in patch_ids:
        pts = model.patches[pid].points
        for axis in (0, 1):
            d = np.linalg.norm(np.diff(pts, axis=axis), axis=-1)
            best = min(best, float(d[d > 0].min()))
    return best


def smooth_field(rng, radius, theta, r_lo, r_hi, n_modes=6):
    """Seeded smooth planar field over the free control points, stacked
    [x; y] and scaled to a largest component of 1: random angular Fourier
    modes up to n_modes, each linear in the normalized radius."""
    rho = (radius - r_lo) / (r_hi - r_lo)
    k = np.arange(1, n_modes + 1)[:, None]
    comps = []
    for _ in range(2):
        a, b, c, d = rng.standard_normal((4, n_modes, 1))
        comps.append((((a + c * rho) * np.cos(k * theta)
                       + (b + d * rho) * np.sin(k * theta))).sum(axis=0))
    w = np.concatenate(comps)
    return w / np.abs(w).max()


class DesignR4:
    """One design step per operation on a distinct, seeded admissible rotor:
    displace, mesh check, evaluate, adjoint sensitivities, shape gradient,
    metric and descent field, all at scale."""

    name = "design-r4"
    n_setup = 3
    op_name, rate_name = ("design_step_s_p50", 1.0, "s"), "design_steps_per_s"

    def __init__(self, refinement=4, n_harmonics=24, n_angles=120):
        self.cfg = geometry.MachineConfig(refinement=refinement, n_harmonics=n_harmonics,
                                          n_angles=n_angles, harmonics_multiple_of_poles=True)

    def setup(self, tracer):
        return _setup_solver(self.cfg, tracer)

    def prepare(self, machine, rng):
        solver = machine[0]
        self.space = design.DesignSpace(solver.rotor0, solver.dm_rt)
        self.mats = fourier.build_derivative_dft(self.cfg.n_angles)
        self.eps_jacobian = EPS_JACOBIAN_REL * geometry.check_mesh_validity(solver.rotor0)[1]
        self.radius, self.theta = _design_points(self.space)
        self.amplitude = PERTURB_FRACTION * _min_spacing(solver.rotor0, self.space.patch_ids)
        self.fd_direction = self._field(rng)
        self.first = None
        return machine

    def _field(self, rng):
        return smooth_field(rng, self.radius, self.theta,
                            self.cfg.r_shaft, self.cfg.r_interface)

    def next_input(self, rng):
        return self.amplitude * self._field(rng)

    def operation(self, machine, w):
        solver = machine[0]
        rotor = self.space.displace(solver.rotor0, w, 1.0)
        ok, _ = geometry.check_mesh_validity(rotor, self.eps_jacobian)
        if not ok:
            return None
        sweep, pre = solver.evaluate(rotor)
        sens = adjoint.thd_sample_sensitivities(sweep.emf_a, sweep.emf_b,
                                                sweep.index_set, self.mats)
        adj = adjoint.solve_adjoints(pre, solver.winding, sens, solver.angles,
                                     solver.flux_scale)
        u_rt = [coupling.reconstruct_state(pre, a, lam).u_rt
                for a, lam in zip(solver.angles, sweep.lambdas)]
        gradient = adjoint.assemble_shape_gradient(rotor, solver.dm_rt, self.space, u_rt,
                                                   adj.rotor_fields(), solver.relmap_rt,
                                                   solver.cfg)
        metric = assembly.assemble_vector_metric(rotor, solver.dm_rt, self.space.mask)
        descent = optim.descent_field(gradient, metric)
        return rotor, sweep.thd, gradient, descent

    def check(self, machine, w, out):
        if out is None:                      # rotor failed the mesh check
            return False
        rotor, thd, gradient, descent = out
        ok = bool(np.isfinite(gradient).all() and math.isfinite(thd)
                  and gradient @ descent > 0.0)
        if ok and self.first is None:
            self.first = (rotor, gradient)
        return ok

    def finish(self, machine):
        """Central differences of the THD along the seeded direction at the
        first checked rotor, best over two steps (acceptance-2 style)."""
        if self.first is None:
            return False
        solver = machine[0]
        rotor, gradient = self.first
        d = self.fd_direction
        exact = float(gradient @ d)
        best = math.inf
        for h in (1e-2, 1e-3):
            step = h * self.amplitude
            plus = solver.evaluate(self.space.displace(rotor, d, -step))[0].thd
            minus = solver.evaluate(self.space.displace(rotor, d, step))[0].thd
            fd = (plus - minus) / (2 * step)
            best = min(best, abs(fd - exact) / max(abs(fd), abs(exact), 1e-300))
        self.fd_error = best
        return best < FD_RTOL

    def thd(self, out):
        return out[1]


WORKLOADS = {w.name: w for w in (OptimizeDemo, SweepR2, DesignR4)}
