"""Command line entry point.

One JSON configuration file drives everything; flags only pick the
subcommand and the config path, so runs are reproducible from a single
artifact.  Outputs are CSV/JSON files with the config hash embedded as a
comment line; identical configs produce byte-identical outputs on the same
machine, library versions and BLAS thread count.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .assembly import eval_field
from .coupling import solve_at_angle
from .errors import ConfigError, IgaError
from .geometry import (
    MachineConfig,
    build_demo_machine,
    checked_float,
    checked_int,
    dump_geometry,
    locate_polar,
)
from .optim import MachineSolver, OptimizerConfig, run_optimization

DEFAULT_SOLVE = {"alpha": 0.0, "grid_r": 24, "grid_theta": 90}
DEFAULT_OPTIMIZE = {"snapshots": False}
# Bound on solve.grid_r x solve.grid_theta, so that a typo exits as a
# ConfigError: cmd_solve samples the field point by point, about 0.6 ms
# per sample on a 2-core VM at any refinement, so a 1000 x 1000 grid takes
# about 10 minutes and writes a 105 MB field.csv.
MAX_SAMPLES = 1_000_000


def _checked(value, types: tuple, message: str):
    """value if its exact type is one of types (a bool is no number)."""
    if type(value) not in types:
        raise ConfigError("%s, got %r" % (message, value))
    return value


def _section(doc: dict, name: str, keys) -> dict:
    section = _checked(doc.get(name, {}), (dict,), "'%s' must be a JSON object" % name)
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigError("unknown key(s) %s under '%s'" % (sorted(unknown), name))
    return section


def _from_dict(cls, doc: dict, name: str):
    data = _section(doc, name, [f.name for f in dataclasses.fields(cls)])
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError("bad value under '%s': %s" % (name, exc)) from exc


class RunConfig:
    """Validated run configuration (machine + optimizer + command options)."""

    TOP_KEYS = {"machine", "optimizer", "output_dir", "solve", "optimize"}

    def __init__(self, doc: dict):
        unknown = set(doc) - self.TOP_KEYS
        if unknown:
            raise ConfigError("unknown top-level key(s) %s" % sorted(unknown))
        self.machine = _from_dict(MachineConfig, doc, "machine")
        self.optimizer = _from_dict(OptimizerConfig, doc, "optimizer")
        self.output_dir = Path(_checked(doc.get("output_dir", "out"), (str,),
                                        "output_dir must be a string"))
        for name, defaults in (("solve", DEFAULT_SOLVE), ("optimize", DEFAULT_OPTIMIZE)):
            setattr(self, name, dict(defaults, **_section(doc, name, defaults)))
        _checked(self.optimize["snapshots"], (bool,), "optimize.snapshots must be true or false")
        self.solve["alpha"] = checked_float(self.solve["alpha"], "solve.alpha")
        for key in ("grid_r", "grid_theta"):
            self.solve[key] = checked_int(self.solve[key], "solve." + key, 1)
        if self.solve["grid_r"] * self.solve["grid_theta"] > MAX_SAMPLES:
            raise ConfigError("solve grid %d x %d exceeds %d samples"
                              % (self.solve["grid_r"], self.solve["grid_theta"], MAX_SAMPLES))
        self.hash = hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def load_config(path: str) -> RunConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError("config file not found: %s" % path) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config is not valid JSON: %s" % exc) from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return RunConfig(doc)


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))  # shortest round-trip decimal
    return str(v)


def _write_csv(path: Path, cfg_hash: str, header: str, rows) -> None:
    lines = ["# config %s" % cfg_hash, header]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _turned(angle: float, v: np.ndarray) -> np.ndarray:
    """The 2-vector v turned by ``angle``."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])


def _sample(model, dofmap, u_global, r: float, theta: float):
    """(point, value, gradient) of the field at polar (r, theta), theta in
    [0, 2 pi), from the model's copy k that holds theta: the model is
    evaluated at theta - k arc (arc = 2 pi / copies), and the copy's point
    and gradient are the model's turned by k arc, its value and gradient
    closure_sign^k times the model's."""
    arc = 2 * np.pi / model.copies
    k = min(int(theta // arc), model.copies - 1)
    pid, xi, eta = locate_polar(model, r, theta - k * arc)
    point, u, grad = eval_field(model, dofmap, u_global, pid, xi, eta)
    if k:
        sign = model.closure_sign ** k
        point, u, grad = _turned(k * arc, point), sign * u, sign * _turned(k * arc, grad)
    return point, u, grad


def cmd_solve(cfg: RunConfig) -> None:
    mc = cfg.machine
    solver = MachineSolver(mc)
    stator, rotor = solver.stator, solver.rotor0
    dm_st, dm_rt = solver.dm_st, solver.dm_rt
    alpha, n_r, n_t = cfg.solve["alpha"], cfg.solve["grid_r"], cfg.solve["grid_theta"]
    sol = solve_at_angle(solver.precompute(rotor), alpha)
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)

    # the coefficients of the modelled pitch, Dirichlet dofs included
    coeff_rows = [("stator", i, v) for i, v in enumerate(dm_st.expand(sol.u_st))]
    coeff_rows += [("rotor", i, v) for i, v in enumerate(dm_rt.expand(sol.u_rt))]
    _write_csv(out / "u_coeffs.csv", cfg.hash, "side,index,value", coeff_rows)

    # polar sample grid at cell centers over the whole machine; rotor
    # samples are taken in the rotor frame and reported at their laboratory
    # position
    u_st_g, u_rt_g = dm_st.expand(sol.u_st), dm_rt.expand(sol.u_rt)
    rows = []
    for i in range(n_r):
        r = mc.r_shaft + (i + 0.5) * (mc.r_outer - mc.r_shaft) / n_r
        rotor_side = r < mc.r_interface
        for j in range(n_t):
            th = (j + 0.5) * 2.0 * np.pi / n_t
            if rotor_side:
                point, u, grad = _sample(rotor, dm_rt, u_rt_g, r, (th - alpha) % (2 * np.pi))
                point, grad = _turned(alpha, point), _turned(alpha, grad)
            else:
                point, u, grad = _sample(stator, dm_st, u_st_g, r, th)
            rows.append((point[0], point[1], u, grad[1], -grad[0]))
    _write_csv(out / "field.csv", cfg.hash, "x,y,u,Bx,By", rows)


def cmd_sweep(cfg: RunConfig) -> None:
    solver = MachineSolver(cfg.machine)
    sweep, _ = solver.evaluate(solver.rotor0)
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "psi.csv", cfg.hash, "angle,psi",
               [(float(a), float(p)) for a, p in zip(sweep.angles, sweep.psi)])
    _write_csv(out / "spectrum.csv", cfg.hash, "harmonic,A,B,magnitude",
               [(n, float(sweep.emf_a[n]), float(sweep.emf_b[n]),
                 float(np.hypot(sweep.emf_a[n], sweep.emf_b[n])))
                for n in range(sweep.emf_a.size)])
    (out / "thd.txt").write_text("# config %s\n%r\n" % (cfg.hash, sweep.thd))


def _write_optimization(cfg: RunConfig, state) -> None:
    out = cfg.output_dir
    _write_csv(out / "history.csv", cfg.hash, "iteration,thd,step,min_detj",
               [(it, float(thd), float(step), float(mind))
                for it, thd, step, mind in state.history])
    (out / "rotor_optimized.json").write_text(dump_geometry(state.rotor))
    (out / "summary.txt").write_text(
        "# config %s\nreason %s\niterations %d\nthd_initial %r\nthd_final %r\n"
        % (cfg.hash, state.reason, state.iteration, state.history[0][1],
           state.objective))


def cmd_optimize(cfg: RunConfig) -> None:
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    callback = None
    if cfg.optimize["snapshots"]:
        snap_dir = out / "snapshots"
        snap_dir.mkdir(exist_ok=True)

        def callback(state):
            (snap_dir / ("rotor_iter_%03d.json" % state.iteration)).write_text(
                dump_geometry(state.rotor))

    try:
        state = run_optimization(cfg.machine, cfg.optimizer, callback=callback)
    except IgaError as exc:
        if hasattr(exc, "partial_state"):
            _write_optimization(cfg, exc.partial_state)
        raise
    _write_optimization(cfg, state)


def cmd_export(cfg: RunConfig) -> None:
    stator, rotor = build_demo_machine(cfg.machine)
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    (out / "stator.json").write_text(dump_geometry(stator))
    (out / "rotor.json").write_text(dump_geometry(rotor))


COMMANDS = {
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "optimize": cmd_optimize,
    "export": cmd_export,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="igamotor",
        description="2D magnetostatic machine solver with harmonic rotor "
                    "coupling and THD shape optimization")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except IgaError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
