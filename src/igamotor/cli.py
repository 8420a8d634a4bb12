"""Command line entry point.

One JSON configuration file drives everything; flags only pick the
subcommand and the config path, so runs are reproducible from a single
artifact.  Outputs are CSV/JSON files with the config hash embedded as a
comment line; identical configs produce byte-identical outputs on the same
machine, library versions and BLAS thread count.

Exit codes: 0 success, 2 configuration error (an output directory that
cannot be made included, checked before any computation), 3 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
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
# ConfigError: cmd_solve evaluates about 5-8 us and writes about 4-5 us
# per sample (refinement 0-3, one core of a 2-core Xeon VM), so a
# 1000 x 1000 grid takes about 14-15 s and writes a 105 MB field.csv.
MAX_SAMPLES = 1_000_000
# Samples cmd_solve evaluates at once (3.5 MB of working arrays), and rows
# _write_csv formats at once, whatever the grid, beside the (n, 5) array of
# its rows: a 1000 x 1000 solve peaks at about 108 MB RSS.
SAMPLE_BLOCK = 4096


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


def _make_dir(path: Path) -> None:
    """mkdir -p ``path``; a path that cannot be made is a ConfigError."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("cannot create directory %s: %s" % (path, exc)) from exc


def _write_csv(path: Path, cfg_hash: str, header: str, rows) -> None:
    """One line per row, written SAMPLE_BLOCK rows at a time, so that only
    one block's text is held.  ``rows`` is a 2-D array, converted block by
    block by ``tolist``, or an iterable of rows of Python scalars: str of a
    Python float is its shortest round-trip decimal (so a numpy scalar
    must be converted first)."""
    if isinstance(rows, np.ndarray):
        blocks = (rows[i:i + SAMPLE_BLOCK].tolist() for i in range(0, len(rows), SAMPLE_BLOCK))
    else:
        rows = iter(rows)
        blocks = iter(lambda: list(itertools.islice(rows, SAMPLE_BLOCK)), [])
    with path.open("w") as out:
        out.write("# config %s\n%s\n" % (cfg_hash, header))
        for block in blocks:
            out.write("".join([",".join(map(str, row)) + "\n" for row in block]))


def _rotate(xy: np.ndarray, c, s) -> np.ndarray:
    """The rows of xy (n, 2) turned by the angles of cosines c and sines s."""
    x, y = xy[:, 0], xy[:, 1]
    return np.stack([c * x - s * y, s * x + c * y], axis=1)


def _side_samples(model, dofmap, u_global, r, theta):
    """(point, value, gradient) of the field at the polar points (r, theta),
    theta in [0, 2 pi), each from the model's copy k that holds theta: the
    model is evaluated at theta - k arc (arc = 2 pi / copies), and the
    copy's point and gradient are the model's turned by k arc, its value
    and gradient closure_sign^k times the model's."""
    arc = 2 * np.pi / model.copies
    k = np.minimum(theta // arc, model.copies - 1).astype(int)
    point, u, grad = eval_field(model, dofmap, u_global,
                                *locate_polar(model, r, theta - k * arc))
    copy = np.flatnonzero(k)
    angle, sign = k[copy] * arc, model.closure_sign ** k[copy]
    c, s = np.cos(angle), np.sin(angle)
    point[copy] = _rotate(point[copy], c, s)
    u[copy] = sign * u[copy]
    grad[copy] = sign[:, None] * _rotate(grad[copy], c, s)
    return point, u, grad


def _field_grid(mc: MachineConfig, stator_side, rotor_side, alpha: float,
                n_r: int, n_t: int) -> np.ndarray:
    """Rows (x, y, u, Bx, By) of the field at the cell centres of an
    n_r x n_t polar grid over the whole machine, radius-major, evaluated
    SAMPLE_BLOCK samples at a time.  Each side is (model, dofmap, u_global);
    rotor samples are taken in the rotor frame and reported at their
    laboratory position, turned by alpha."""
    rows = np.empty((n_r * n_t, 5))
    c, s = np.cos(alpha), np.sin(alpha)
    for start in range(0, rows.shape[0], SAMPLE_BLOCK):
        i, j = np.divmod(np.arange(start, min(start + SAMPLE_BLOCK, rows.shape[0])), n_t)
        r = mc.r_shaft + (i + 0.5) * (mc.r_outer - mc.r_shaft) / n_r
        th = (j + 0.5) * 2.0 * np.pi / n_t
        on_rotor = r < mc.r_interface
        at = np.flatnonzero(~on_rotor)
        point, u, grad = _side_samples(*stator_side, r[at], th[at])
        rows[start + at] = np.column_stack([point, u, grad[:, 1], -grad[:, 0]])
        at = np.flatnonzero(on_rotor)
        point, u, grad = _side_samples(*rotor_side, r[at], (th[at] - alpha) % (2 * np.pi))
        point, grad = _rotate(point, c, s), _rotate(grad, c, s)
        rows[start + at] = np.column_stack([point, u, grad[:, 1], -grad[:, 0]])
    return rows


def cmd_solve(cfg: RunConfig) -> None:
    solver = MachineSolver(cfg.machine)
    alpha = cfg.solve["alpha"]
    sol = solve_at_angle(solver.precompute(solver.rotor0), alpha)
    sides = {"stator": (solver.stator, solver.dm_st, solver.dm_st.expand(sol.u_st)),
             "rotor": (solver.rotor0, solver.dm_rt, solver.dm_rt.expand(sol.u_rt))}
    out = cfg.output_dir
    # the coefficients of the modelled pitch, Dirichlet dofs included
    _write_csv(out / "u_coeffs.csv", cfg.hash, "side,index,value",
               ((name, i, v) for name, (_, _, u) in sides.items()
                for i, v in enumerate(u.tolist())))
    rows = _field_grid(cfg.machine, sides["stator"], sides["rotor"], alpha,
                       cfg.solve["grid_r"], cfg.solve["grid_theta"])
    _write_csv(out / "field.csv", cfg.hash, "x,y,u,Bx,By", rows)


def cmd_sweep(cfg: RunConfig) -> None:
    solver = MachineSolver(cfg.machine)
    sweep, _ = solver.evaluate(solver.rotor0)
    out = cfg.output_dir
    _write_csv(out / "psi.csv", cfg.hash, "angle,psi",
               zip(sweep.angles.tolist(), sweep.psi.tolist()))
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
    callback = None
    if cfg.optimize["snapshots"]:
        snap_dir = out / "snapshots"
        _make_dir(snap_dir)

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
        _make_dir(cfg.output_dir)       # before any work, not after the computation
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
