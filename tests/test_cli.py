import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from igamotor import cli
from igamotor.cli import load_config, main
from igamotor.coupling import solve_at_angle
from igamotor.errors import ConfigError
from igamotor.geometry import MachineConfig
from igamotor.optim import MachineSolver

from conftest import scalar_field_rows


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


def test_output_dir_that_cannot_be_made_is_a_config_error(tmp_path, capsys):
    # checked before the command computes anything: exit 2, nothing written;
    # so is the optimizer's snapshot directory
    (tmp_path / "file").write_text("")
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "snapshots").write_text("")
    under_file = write_config(tmp_path, "under.json", output_dir=str(tmp_path / "file" / "out"))
    snapshots = write_config(tmp_path, "snap.json", optimize={"snapshots": True})
    before = sorted(tmp_path.rglob("*"))
    runs = [(command, under_file) for command in ("solve", "sweep", "optimize", "export")]
    for command, cfg_path in runs + [("optimize", snapshots)]:
        assert main([command, "--config", str(cfg_path)]) == 2
        assert "config error" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def config_with(tmp_path, key, value):
    """A config of BASE_MACHINE with the dotted ``key`` ("section.name" or a
    top-level name) set to ``value``."""
    doc = {"machine": dict(BASE_MACHINE)}
    section, _, name = key.rpartition(".")
    (doc.setdefault(section, {}) if section else doc)[name] = value
    return write_config(tmp_path, **doc)


REMOVED_KEYS = {"workers": 1, "seed": 1, "bench": {}, "machine.degree": 2,
                "optimizer.eps_jacobian": 1e-8}


@pytest.mark.parametrize("key", list(REMOVED_KEYS))
def test_removed_top_level_keys_are_config_errors(tmp_path, key):
    cfg_path = config_with(tmp_path, key, REMOVED_KEYS[key])
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
    # magnet sector 0.7 pi: wider than one arc patch
    "pole_pairs-1": ("export", "machine.pole_pairs", 1),
    # two angles resolve no harmonic: the THD's index set would be empty
    "n_angles-2": ("sweep", "machine.n_angles", 2),
    "index_set-repeated": ("sweep", "machine.index_set", [1, 5, 5]),
}


@pytest.mark.parametrize("command, key, value", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_values_are_config_errors(tmp_path, command, key, value):
    cfg_path = config_with(tmp_path, key, value)
    assert main([command, "--config", str(cfg_path)]) == 2


UNBUILDABLE = {"n_angles-1e12": ("machine.n_angles", 10 ** 12),
               "refinement-1e5": ("machine.refinement", 10 ** 5),
               "pole_pairs-1e9": ("machine.pole_pairs", 10 ** 9),
               # cli.MAX_SAMPLES + 1 samples, and a typo's 1e9 rows
               "grid-1000x1001": ("solve", {"grid_r": 1000, "grid_theta": 1001}),
               "grid_theta-1e9": ("solve.grid_theta", 10 ** 9)}


@pytest.mark.parametrize("key, value", list(UNBUILDABLE.values()), ids=list(UNBUILDABLE))
def test_unbuildable_machines_are_config_errors(tmp_path, key, value):
    # checked when the config loads, before any command builds the machine
    # or samples its field
    cfg_path = config_with(tmp_path, key, value)
    with pytest.raises(ConfigError):
        load_config(str(cfg_path))


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
    from igamotor.coupling import solve_at_angle
    from igamotor.geometry import MachineConfig, locate_polar
    from igamotor.optim import MachineSolver

    solver = MachineSolver(MachineConfig(**BASE_MACHINE))
    rotor, dm_rt = solver.rotor0, solver.dm_rt
    sol = solve_at_angle(solver.precompute(rotor), 0.0)
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


def solved_sides(solver, alpha):
    """(stator, rotor) sides (model, dofmap, u_global) of the solve at alpha."""
    sol = solve_at_angle(solver.precompute(solver.rotor0), alpha)
    return ((solver.stator, solver.dm_st, solver.dm_st.expand(sol.u_st)),
            (solver.rotor0, solver.dm_rt, solver.dm_rt.expand(sol.u_rt)))


@pytest.mark.parametrize("refinement", [0, 1])
def test_field_grid_equals_per_point_chain_bitwise(refinement, monkeypatch):
    # the batched sampler against one scalar chain per sample, in one block
    # and in blocks of 50 that split the grid's rows and both sides
    mc = MachineConfig(**dict(BASE_MACHINE, refinement=refinement))
    solver = MachineSolver(mc)
    n_r, n_t = 6, 48
    r = mc.r_shaft + (np.arange(n_r) + 0.5) * (mc.r_outer - mc.r_shaft) / n_r
    th = (np.arange(n_t) + 0.5) * 2.0 * np.pi / n_t
    assert (r < mc.r_interface).any() and (r >= mc.r_interface).any()
    for alpha in (0.0, 0.05, 2.5):
        # every one of the 2 p copies holds samples, in the stator frame and
        # in the rotor frame
        for angles in (th, (th - alpha) % (2 * np.pi)):
            assert set((angles // (np.pi / mc.pole_pairs)).astype(int)) == set(range(2 * mc.pole_pairs))
        stator_side, rotor_side = solved_sides(solver, alpha)
        want = scalar_field_rows(mc, stator_side, rotor_side, alpha, n_r, n_t).tobytes()
        for block in (cli.SAMPLE_BLOCK, 50):
            monkeypatch.setattr(cli, "SAMPLE_BLOCK", block)
            rows = cli._field_grid(mc, stator_side, rotor_side, alpha, n_r, n_t)
            assert rows.shape == (n_r * n_t, 5) and rows.tobytes() == want


def test_field_grid_memory_does_not_grow_with_the_grid():
    # the sampler's peak beyond its (n, 5) rows at n and 4 n samples: 2 and
    # 8 blocks of one grid row each, so every block lies on one side (3.54
    # MB at both sizes; evaluated at once, n samples would take 4 times that)
    mc = MachineConfig(**BASE_MACHINE)
    sides = solved_sides(MachineSolver(mc), 0.05)
    extra = []
    for n_r in (2, 8):
        tracemalloc.start()
        try:
            rows = cli._field_grid(mc, *sides, 0.05, n_r, cli.SAMPLE_BLOCK)
            extra.append(tracemalloc.get_traced_memory()[1] - rows.nbytes)
        finally:
            tracemalloc.stop()
    assert extra[1] <= 1.05 * extra[0]


def test_csv_values_are_written_by_the_shortest_round_trip_rule(tmp_path):
    # str of each Python scalar, against the rule the writer had when it
    # formatted every value itself: repr(float(v)) for a float, str otherwise
    rows = [(0, -7, "stator", 0.1), (-0.0, 1e16, 1e-7, 5e-324),
            (np.finfo(float).max, float("inf"), float("-inf"), float("nan")),
            np.array([[0.1, 2.0 / 3.0, -1e-300, 123456789.0, 1.5]]).tolist()[0]]
    cli._write_csv(tmp_path / "t.csv", "abc", "h", rows)
    old = [",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
           for row in rows]
    assert (tmp_path / "t.csv").read_text() == "\n".join(["# config abc", "h"] + old) + "\n"
    assert old[1] == "-0.0,1e+16,1e-07,5e-324" and old[2] == "1.7976931348623157e+308,inf,-inf,nan"


@pytest.mark.parametrize("n_rows", [0, 1, 6, 7, 20])
def test_csv_blocks_write_the_text_of_all_rows_at_once(tmp_path, monkeypatch, n_rows):
    # blocks of 3 rows, an array or an iterator of rows, against the text of
    # the whole table joined at once
    monkeypatch.setattr(cli, "SAMPLE_BLOCK", 3)
    rows = np.random.default_rng(n_rows).standard_normal((n_rows, 5)) ** 9
    want = "\n".join(["# config abc", "h"] + [",".join(map(str, row)) for row in rows.tolist()]) + "\n"
    for arg in (rows, iter(rows.tolist()), zip(*rows.T.tolist())):
        cli._write_csv(tmp_path / "t.csv", "abc", "h", arg)
        assert (tmp_path / "t.csv").read_text() == want


def test_csv_writer_holds_one_block_of_text():
    # 50,000 rows of five floats: 4.9 MB of text, which the writer once held
    # as a list of lines and then joined, a 17.5 MB peak; block by block it
    # peaks at 2.0 MB
    rows = np.random.default_rng(0).standard_normal((50_000, 5))
    tracemalloc.start()
    try:
        cli._write_csv(Path(os.devnull), "abc", "x,y,u,Bx,By", rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


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
    from igamotor.errors import SingularSystemError

    solve_adjoints = igamotor.optim.solve_adjoints
    calls = []

    def fail_second_call(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise SingularSystemError("injected adjoint failure")
        return solve_adjoints(*args, **kwargs)

    monkeypatch.setattr(igamotor.optim, "solve_adjoints", fail_second_call)
    cfg_path = write_config(tmp_path, optimizer={"max_iterations": 3})
    assert main(["optimize", "--config", str(cfg_path)]) == 3
    out = tmp_path / "out"
    lines = (out / "history.csv").read_text().strip().splitlines()
    assert [int(line.split(",")[0]) for line in lines[2:]] == [0, 1]
    assert "reason error\n" in (out / "summary.txt").read_text()
    assert (out / "rotor_optimized.json").exists()


def test_optimize_round_off_thd_exits_3_with_partial_outputs(tmp_path):
    # integer orders at refinement 0: the initial THD is 2.96e-15
    cfg_path = write_config(tmp_path, machine={"refinement": 0, "n_harmonics": 12,
                                               "n_angles": 12},
                            optimizer={"max_iterations": 2})
    assert main(["optimize", "--config", str(cfg_path)]) == 3
    out = tmp_path / "out"
    lines = (out / "history.csv").read_text().strip().splitlines()
    assert [int(line.split(",")[0]) for line in lines[2:]] == [0]
    assert "reason error\niterations 0\n" in (out / "summary.txt").read_text()
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
