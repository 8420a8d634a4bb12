import json

import numpy as np
import pytest

from igamotor.cli import load_config, main
from igamotor.errors import ConfigError


BASE_MACHINE = {"refinement": 0, "n_harmonics": 8, "n_angles": 12,
                "harmonics_multiple_of_poles": True}


def write_config(tmp_path, name="cfg.json", **overrides):
    doc = {"machine": dict(BASE_MACHINE), "output_dir": str(tmp_path / "out")}
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"machine": {"frobnicate": 1}}))
    with pytest.raises(ConfigError):
        load_config(str(path))
    path.write_text(json.dumps({"mystery": {}}))
    with pytest.raises(ConfigError):
        load_config(str(path))
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_main_exit_codes(tmp_path):
    good = write_config(tmp_path)
    assert main(["export", "--config", str(good)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"machine": {"r_shaft": -1.0}}))
    assert main(["solve", "--config", str(bad)]) == 2
    missing = tmp_path / "nope.json"
    assert main(["solve", "--config", str(missing)]) == 2


REMOVED_KEYS = {"workers": 1, "seed": 1, "bench": {}, "machine.degree": 2,
                "optimizer.eps_jacobian": 1e-8}


@pytest.mark.parametrize("key", list(REMOVED_KEYS))
def test_removed_top_level_keys_are_config_errors(tmp_path, key):
    doc = {"machine": dict(BASE_MACHINE)}
    section, _, name = key.rpartition(".")
    (doc.setdefault(section, {}) if section else doc)[name] = REMOVED_KEYS[key]
    cfg_path = write_config(tmp_path, **doc)
    assert main(["sweep", "--config", str(cfg_path)]) == 2


MALFORMED = {
    "refinement-1.5": ("sweep", "machine.refinement", 1.5),
    "pole_pairs-2.5": ("sweep", "machine.pole_pairs", 2.5),
    "n_harmonics-7.5": ("sweep", "machine.n_harmonics", 7.5),
    "machine-list": ("sweep", "machine", []),
    "max_iterations-1.5": ("optimize", "optimizer.max_iterations", 1.5),
    "alpha-string": ("solve", "solve.alpha", "x"),
    "alpha-nan": ("solve", "solve.alpha", float("nan")),
    "grid_r-string": ("solve", "solve.grid_r", "x"),
    "grid_r-0": ("solve", "solve.grid_r", 0),
    "output_dir-number": ("export", "output_dir", 5),
    "snapshots-string": ("optimize", "optimize.snapshots", "yes"),
    "refinement-true": ("sweep", "machine.refinement", True),
    "n_turns-true": ("sweep", "machine.n_turns", True),
    "harmonics_multiple_of_poles-string": ("sweep", "machine.harmonics_multiple_of_poles",
                                           "yes"),
    "remanence-nan": ("sweep", "machine.remanence", float("nan")),
    "current_amplitude-nan": ("sweep", "machine.current_amplitude", float("nan")),
    "r_outer-inf": ("sweep", "machine.r_outer", float("inf")),
    "delta_floor-nan": ("optimize", "optimizer.delta_floor", float("nan")),
    "tol-nan": ("optimize", "optimizer.tol", float("nan")),
}


@pytest.mark.parametrize("command, key, value", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_values_are_config_errors(tmp_path, command, key, value):
    doc = {"machine": dict(BASE_MACHINE)}
    section, _, name = key.rpartition(".")
    (doc.setdefault(section, {}) if section else doc)[name] = value
    cfg_path = write_config(tmp_path, **doc)
    assert main([command, "--config", str(cfg_path)]) == 2


def test_loaded_machine_sweeps_but_does_not_optimize(tmp_path):
    cfg_path = write_config(tmp_path, machine=dict(BASE_MACHINE, current_amplitude=1.0),
                            optimizer={"max_iterations": 1})
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    assert main(["optimize", "--config", str(cfg_path)]) == 2


def test_solve_outputs_and_divergence(tmp_path):
    cfg_path = write_config(tmp_path, solve={"alpha": 0.05, "grid_r": 8,
                                             "grid_theta": 18})
    assert main(["solve", "--config", str(cfg_path)]) == 0
    out = tmp_path / "out"
    field = (out / "field.csv").read_text().strip().splitlines()
    assert field[0].startswith("# config")
    assert field[1] == "x,y,u,Bx,By"
    assert len(field) - 2 == 8 * 18

    # divergence oracle: B = (du/dy, -du/dx) is divergence free; finite
    # differences on a polar grid inside one smooth patch stay small
    from igamotor.assembly import eval_field
    from igamotor.coupling import precompute_from_blocks, solve_at_angle
    from igamotor.geometry import MachineConfig, locate_polar
    from igamotor.optim import MachineSolver

    solver = MachineSolver(MachineConfig(**BASE_MACHINE))
    rotor, dm_rt = solver.rotor0, solver.dm_rt
    sol = solve_at_angle(precompute_from_blocks(solver.blocks(rotor)), 0.0)
    u_rt = dm_rt.expand(sol.u_rt)

    a, b = rotor.meta["sector_bounds"][1]       # one magnet-ring sector width
    r0, r1 = rotor.meta["ring_radii"][0], rotor.meta["ring_radii"][1]
    rs = np.linspace(r0 + 0.15 * (r1 - r0), r1 - 0.15 * (r1 - r0), 9)
    ts = np.linspace(a + 0.1 * (b - a), b - 0.1 * (b - a), 9)

    def B_polar(r, th):
        pid, xi, eta = locate_polar(rotor, r, th)
        _, _, grad = eval_field(rotor, dm_rt, u_rt, pid, xi, eta)
        Bx, By = grad[1], -grad[0]
        c, s = np.cos(th), np.sin(th)
        return Bx * c + By * s, -Bx * s + By * c   # (B_r, B_theta)

    hr = rs[1] - rs[0]
    ht = ts[1] - ts[0]
    Bmax = 0.0
    divs = []
    for r in rs[1:-1]:
        for th in ts[1:-1]:
            brp, _ = B_polar(r + hr, th)
            brm, _ = B_polar(r - hr, th)
            _, btp = B_polar(r, th + ht)
            _, btm = B_polar(r, th - ht)
            br, bt = B_polar(r, th)
            Bmax = max(Bmax, np.hypot(br, bt))
            div = ((r + hr) * brp - (r - hr) * brm) / (2 * hr * r) \
                + (btp - btm) / (2 * ht * r)
            divs.append(div)
    h_min = min(hr, rs.mean() * ht)
    rel = np.abs(divs).max() * h_min / Bmax
    assert rel < 1e-3


def test_sweep_outputs(tmp_path):
    cfg_path = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    out = tmp_path / "out"
    spectrum = (out / "spectrum.csv").read_text().strip().splitlines()
    harmonics = [int(line.split(",")[0]) for line in spectrum[2:]]
    assert harmonics == list(range(12 // 2))
    psi = (out / "psi.csv").read_text().strip().splitlines()
    assert len(psi) - 2 == 12


def test_optimize_outputs(tmp_path):
    cfg_path = write_config(tmp_path, optimizer={"max_iterations": 2},
                            optimize={"snapshots": True})
    assert main(["optimize", "--config", str(cfg_path)]) == 0
    out = tmp_path / "out"
    lines = (out / "history.csv").read_text().strip().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    assert float(rows[-1][1]) < float(rows[0][1])
    assert (out / "rotor_optimized.json").exists()
    snapshots = sorted((out / "snapshots").glob("rotor_iter_*.json"))
    assert len(snapshots) == len(rows)
    from igamotor.geometry import load_geometry
    final = load_geometry(snapshots[-1].read_text())
    assert len(final.patches) > 0


def test_optimize_failure_keeps_partial_history(tmp_path, monkeypatch):
    import igamotor.optim
    from igamotor.errors import StabilityError

    solve_adjoints = igamotor.optim.solve_adjoints
    calls = []

    def fail_second_call(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise StabilityError("injected adjoint failure")
        return solve_adjoints(*args, **kwargs)

    monkeypatch.setattr(igamotor.optim, "solve_adjoints", fail_second_call)
    cfg_path = write_config(tmp_path, optimizer={"max_iterations": 3})
    assert main(["optimize", "--config", str(cfg_path)]) == 3
    out = tmp_path / "out"
    lines = (out / "history.csv").read_text().strip().splitlines()
    assert [int(line.split(",")[0]) for line in lines[2:]] == [0, 1]
    assert "reason error\n" in (out / "summary.txt").read_text()
    assert (out / "rotor_optimized.json").exists()


def test_determinism_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path, solve={"alpha": 0.2, "grid_r": 6,
                                             "grid_theta": 12},
                            optimizer={"max_iterations": 2})
    outputs = {}
    for run in ("a", "b"):
        for command in ("solve", "sweep", "export", "optimize"):
            assert main([command, "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        outputs[run] = {name: (out / name).read_bytes()
                        for name in ("field.csv", "u_coeffs.csv", "psi.csv",
                                     "spectrum.csv", "thd.txt", "history.csv",
                                     "rotor_optimized.json", "summary.txt",
                                     "stator.json", "rotor.json")}
    assert outputs["a"] == outputs["b"]
