"""The pole-pitch model against the full ring it stands for.

The demo machine is antiperiodic over a pole pitch, so every solve runs on
one pitch with an antiperiodic closure.  The full ring, built by the same
code over 2 p pitches and closed by a plain full turn, is the oracle: the
quantities of the whole machine agree, and the pitch's shape gradient is
the sum of the ring's over its 2 p turned copies.
"""
import functools
import json

import numpy as np
import pytest

from igamotor import cli
from igamotor.adjoint import assemble_shape_gradient, solve_adjoints, thd_sample_sensitivities
from igamotor.coupling import reconstruct_state
from igamotor.design import DesignSpace
from igamotor.errors import ConfigError
from igamotor.fourier import build_derivative_dft
from igamotor.optim import THD_ROUNDOFF, MachineSolver

from conftest import coarse_config


def _turn(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def _forward_and_gradient(solver):
    """(sweep, design space, shape gradient) of the solver's initial rotor."""
    sweep, pre = solver.evaluate(solver.rotor0)
    design = DesignSpace(solver.rotor0, solver.dm_rt)
    if sweep.thd < THD_ROUNDOFF:
        return sweep, design, None
    sens = thd_sample_sensitivities(sweep.emf_a, sweep.emf_b, sweep.index_set,
                                    build_derivative_dft(solver.cfg.n_angles))
    adj = solve_adjoints(pre, solver.winding, sens, solver.angles, solver.flux_scale)
    u_rt = reconstruct_state(pre, sweep.angles, sweep.lambdas).u_rt
    return sweep, design, assemble_shape_gradient(solver.rotor0, solver.dm_rt, design, u_rt,
                                                  adj, solver.relmap_rt)


def _relative(a, b):
    return np.abs(np.asarray(a) - np.asarray(b)).max() / np.abs(b).max()


# (refinement, n_harmonics, pole multiples): integer orders at refinement 0
# fit only +-3 under the ring's trace bound, which gives a round-off THD;
# 19 integer orders hold the order-0 column and couple +-3 and +-9
CASES = [(r, 12, True) for r in (0, 1, 2)] + [(0, 12, False), (1, 19, False), (2, 19, False)]


@pytest.mark.parametrize("refinement, n_harmonics, multiples", CASES,
                         ids=["r%d-%s%d" % (r, "poles" if m else "int", n) for r, n, m in CASES])
def test_pitch_equals_full_ring(refinement, n_harmonics, multiples):
    cfg = coarse_config(refinement=refinement, n_harmonics=n_harmonics, n_angles=60,
                        harmonics_multiple_of_poles=multiples)
    p = cfg.pole_pairs
    pitch, ring = MachineSolver(cfg), MachineSolver(cfg, 2 * p)
    # the pitch keeps the odd multiples of p; the ring every configured order
    assert all(l % p == 0 and (l // p) % 2 for l in pitch.orders)
    assert set(pitch.orders) < set(ring.orders)
    for side in ("dm_st", "dm_rt"):
        assert getattr(ring, side).n_free == 2 * p * getattr(pitch, side).n_free
    (sw_p, design_p, g_p), (sw_r, design_r, g_r) = map(_forward_and_gradient, (pitch, ring))

    assert _relative(sw_p.psi, sw_r.psi) < 1e-10
    emf = np.concatenate([sw_r.emf_a, sw_r.emf_b])
    assert _relative(np.concatenate([sw_p.emf_a, sw_p.emf_b]), emf) < 1e-10
    if sw_r.thd < THD_ROUNDOFF:
        assert sw_p.thd < THD_ROUNDOFF and g_p is None and g_r is None
        return
    assert abs(sw_p.thd - sw_r.thd) < 1e-10 * sw_r.thd

    # each free point of the pitch, turned by k pi / p, is a free point of
    # the ring, whose gradient there is the pitch's turned and shared by
    # the 2 p copies
    points_p = design_p.dofmap.points[design_p.free]
    points_r = design_r.dofmap.points[design_r.free]
    assert points_r.shape[0] == 2 * p * points_p.shape[0]
    gp = g_p.reshape(2, -1).T
    gr = g_r.reshape(2, -1).T
    covered = np.zeros(points_r.shape[0], dtype=bool)
    for k in range(2 * p):
        turn = _turn(k * np.pi / p)
        copy = points_p @ turn.T
        dist = np.linalg.norm(points_r[None, :, :] - copy[:, None, :], axis=-1)
        match = dist.argmin(axis=1)
        assert dist[np.arange(match.size), match].max() < 1e-12
        covered[match] = True
        assert _relative(gp @ turn.T / (2 * p), gr[match]) < 1e-10
    assert covered.all()


def _csv(path):
    return np.array([[float(v) for v in line.split(",")]
                     for line in path.read_text().splitlines()[2:]])


def test_cli_outputs_of_the_pitch_equal_the_full_ring(tmp_path, monkeypatch):
    # field.csv samples the whole machine from the pitch: theta mod pi/p,
    # the sign (-1)^k and the point and B turned back by k pi / p
    machine = {"refinement": 0, "n_harmonics": 8, "n_angles": 12,
               "harmonics_multiple_of_poles": True}
    outputs = {}
    for name, poles in (("pitch", 1), ("ring", 6)):
        doc = {"machine": machine, "output_dir": str(tmp_path / name),
               "solve": {"alpha": 0.37, "grid_r": 7, "grid_theta": 40}}
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(doc))
        monkeypatch.setattr(cli, "MachineSolver", functools.partial(MachineSolver, poles=poles))
        assert cli.main(["solve", "--config", str(path)]) == 0
        assert cli.main(["sweep", "--config", str(path)]) == 0
        outputs[name] = {f: _csv(tmp_path / name / f) for f in ("field.csv", "psi.csv",
                                                                "spectrum.csv")}
    for f, ring in outputs["ring"].items():
        pitch = outputs["pitch"][f]
        assert pitch.shape == ring.shape
        for col in range(ring.shape[1]):
            assert np.abs(pitch[:, col] - ring[:, col]).max() <= 1e-10 * np.abs(ring[:, col]).max()


def test_orders_without_an_odd_pole_multiple_are_a_config_error(tmp_path):
    # n_harmonics 4 with integer orders at p = 3 gives +-1, +-2: nothing
    # couples the pitch's sides.  The machine config itself is valid (the
    # geometry needs no coupling), and the full ring admits every order.
    cfg = coarse_config(n_harmonics=4)
    with pytest.raises(ConfigError, match="odd multiple"):
        MachineSolver(cfg)
    assert MachineSolver(cfg, 2 * cfg.pole_pairs).orders.tolist() == [-2, -1, 1, 2]
    doc = {"machine": {"refinement": 0, "n_harmonics": 4, "n_angles": 12},
           "output_dir": str(tmp_path / "out")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["export", "--config", str(path)]) == 0
    for command in ("solve", "sweep", "optimize"):
        assert cli.main([command, "--config", str(path)]) == 2
