"""The stator solved as its slot-pitch Bloch modes.

The stator model is N equal slot pitches (3 on the pole pitch, closed with
sign -1; 18 on the full ring, closed with +1), so its stiffness splits into
one Hermitian system per root of omega^N = sign on the first slot pitch.
The oracle is the direct solve of the stiffness assembled on the whole
model (``oracles.stator_direct_products``), which the pipeline never forms.
"""
import tracemalloc

import numpy as np
import pytest

from igamotor import linalg
from igamotor.assembly import assemble_stiffness, build_reluctivity_map
from igamotor.errors import GeometryError
from igamotor.geometry import build_demo_machine, build_dof_map, period_images, periodic_sector
from igamotor.linalg import bloch_phases
from igamotor.optim import MachineSolver, stator_modes

from conftest import coarse_config
from oracles import stator_blocks, stator_direct_products


def _relative(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


def _assert_products_match(solver, tol):
    direct = stator_direct_products(solver)
    for name in ("X", "y", "H", "g"):
        assert _relative(getattr(solver.plan.st, name), getattr(direct, name)) < tol, name


@pytest.mark.parametrize("refinement", [0, 1, 2, 3])
def test_stator_products_match_the_pitch_direct_solve(refinement):
    # a loaded machine, so j_st is no single mode; X, y, H and g agreed to
    # 8.1e-14 of their largest entries at most (X at refinement 2; 1.4e-14
    # at refinement 0)
    solver = MachineSolver(coarse_config(refinement=refinement, current_amplitude=1.0,
                                         harmonics_multiple_of_poles=True))
    assert np.abs(solver.plan.st.y).max() > 0.0
    _assert_products_match(solver, 3e-13)


@pytest.mark.parametrize("refinement", [0, 1])
def test_stator_products_match_the_ring_direct_solve(refinement):
    # the full ring: 18 slot pitches closed with +1, so the modes are
    # omega = +-1 and 8 complex pairs; the products agreed to 3.0e-13 of
    # their largest entries at most (X at refinement 1)
    cfg = coarse_config(refinement=refinement, current_amplitude=1.0,
                        harmonics_multiple_of_poles=True)
    solver = MachineSolver(cfg, 2 * cfg.pole_pairs)
    modes = stator_modes(solver.stator, solver.dm_st, cfg)
    assert modes.images.shape[1] == 18
    assert [phase for phase in modes.phases if isinstance(phase, float)] == [1.0, -1.0]
    assert sum(isinstance(phase, complex) for phase in modes.phases) == 8
    _assert_products_match(solver, 1e-12)


def test_bloch_solve_takes_one_column_or_a_block():
    # a real right-hand side or a block of columns, solved into Fortran
    # order as a factorization's solve returns it; each column of a block
    # is its own solve to rounding (measured 3.2e-16 of its largest entry:
    # the dense solves of one and of four columns take different BLAS paths)
    solver = MachineSolver(coarse_config(refinement=1))
    modes = stator_modes(solver.stator, solver.dm_st, solver.cfg)
    b = np.random.default_rng(3).standard_normal((solver.dm_st.n_free, 4))
    block = modes.solve(b)
    assert block.shape == b.shape and block.flags.f_contiguous
    for k in range(b.shape[1]):
        assert _relative(modes.solve(b[:, k]), block[:, k]) < 1e-14
    for wrong in (b.astype(complex), np.float64(1.0)):        # a 0-d one has no length
        with pytest.raises(ValueError):
            modes.solve(wrong)


@pytest.mark.parametrize("n, sign", [(1, -1), (1, 1), (3, -1), (3, 1), (18, 1), (9, -1)])
def test_bloch_phases_are_the_roots_of_the_closure(n, sign):
    phases = bloch_phases(n, sign)
    # one root of each conjugate pair: with the pairs counted twice, all n
    assert sum(1 if isinstance(w, float) else 2 for w in phases) == n
    roots = np.array(phases, dtype=complex)
    assert np.abs(roots ** n - sign).max() < 1e-14
    assert (roots.imag >= 0).all() and len(set(np.round(np.angle(roots), 12))) == len(phases)
    assert all(w in (1.0, -1.0) for w in phases if isinstance(w, float))


def test_periodic_sector_is_the_first_slot_pitch():
    cfg = coarse_config(refinement=1)
    solver = MachineSolver(cfg)
    stator = solver.stator
    sector = periodic_sector(stator, 3)
    n_sec = stator.meta["n_sectors"]
    first = [r * n_sec + s for r in range(3) for s in range(2)]
    assert all(a is stator.patches[pid] for a, pid in zip(sector.patches, first))
    assert sector.tags == [stator.tags[pid] for pid in first]
    assert sector.copies == 3 * stator.copies and sector.closure_sign == 1
    assert sector.meta["n_sectors"] == 2 and len(sector.closure) == 3
    assert sector.turn @ sector.turn @ sector.turn == pytest.approx(stator.turn, abs=1e-15)
    dm = build_dof_map(sector)           # the closure across the slot pitch conforms
    assert 3 * dm.n_free == solver.dm_st.n_free
    with pytest.raises(GeometryError):
        periodic_sector(stator, 4)


@pytest.mark.parametrize("poles", [1, 6])
def test_period_images_are_the_turned_sector_points(poles):
    # the image in period k of a sector dof is its point turned by k slot
    # pitches, and the images number every free dof of the model once
    cfg = coarse_config(refinement=1)
    solver = MachineSolver(cfg, poles)
    n = 3 * poles
    sector = build_dof_map(periodic_sector(solver.stator, n))
    images = period_images(solver.stator, solver.dm_st, sector, n)
    assert images.shape == (sector.n_free, n)
    assert np.array_equal(np.sort(images.reshape(-1)), np.arange(solver.dm_st.n_free))
    points = sector.points[sector.free_globals]
    model_points = solver.dm_st.points[solver.dm_st.free_globals]
    for k in range(n):
        angle = k * cfg.stator_period
        turn = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        assert np.abs(points @ turn.T - model_points[images[:, k]]).max() < 1e-12


def test_mode_matrices_take_the_closure_phase():
    # one closure-phase path: a complex phase of -1 gives the real phase's
    # matrix as its real part, bit for bit, and no imaginary part; every
    # mode matrix is Hermitian
    cfg = coarse_config(refinement=1)
    solver = MachineSolver(cfg)
    sector = periodic_sector(solver.stator, 3)
    dm = build_dof_map(sector)
    relmap = build_reluctivity_map(sector, cfg)
    real, = assemble_stiffness(sector, dm, relmap, [-1.0])
    cplx, = assemble_stiffness(sector, dm, relmap, [complex(-1.0, 0.0)])
    assert np.array_equal(cplx.real.toarray(), real.toarray()) and not cplx.imag.count_nonzero()
    for K in stator_modes(solver.stator, solver.dm_st, cfg).matrices:
        assert abs(K - K.conj().T).max() <= 1e-12 * abs(K).max()


def test_stator_setup_factors_no_pitch_sized_band(monkeypatch):
    # at refinement 3 the pitch's stiffness would be factored in a
    # (113, 1,458) band of 1,318,032 bytes; each mode of a third of its
    # rows peaks at 723,638 bytes (complex) and 519,270 (real) within its
    # factorization, band included
    cfg = coarse_config(refinement=3, harmonics_multiple_of_poles=True)
    K = stator_blocks(MachineSolver(cfg))[0].tocoo()
    pitch_band = (int((K.row - K.col).max()) + 1) * K.shape[0] * 8
    real, calls = linalg.factorize, []

    def traced(matrix):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        factor = real(matrix)
        calls.append((matrix.shape[0], tracemalloc.get_traced_memory()[1] - base))
        return factor

    monkeypatch.setattr(linalg, "factorize", traced)
    tracemalloc.start()
    try:
        MachineSolver(cfg)
    finally:
        tracemalloc.stop()
    assert [n for n, _ in calls] == [K.shape[0] // 3] * 2
    assert all(peak < pitch_band for _, peak in calls), (calls, pitch_band)


@pytest.mark.parametrize("refinement", [0, 2])
def test_mode_matrices_of_a_warm_sector_plan_equal_a_cold_one(refinement):
    # the second assembly reads the geometry and scatter the sector's plan
    # kept from the first, and gives every mode matrix bit for bit
    cfg = coarse_config(refinement=refinement)
    stator, _ = build_demo_machine(cfg)
    n = round(2 * np.pi / (stator.copies * cfg.stator_period))
    sector = periodic_sector(stator, n)
    relmap = build_reluctivity_map(sector, cfg)
    phases = bloch_phases(n, stator.closure_sign)
    sector_map = build_dof_map(sector)
    cold = assemble_stiffness(sector, sector_map, relmap, phases)
    kept = sector_map.plan._geometry
    assert kept is not None and sector_map.plan._scatters
    warm = assemble_stiffness(sector, sector_map, relmap, phases)
    assert sector_map.plan._geometry is kept
    for a, b in zip(warm, cold, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
