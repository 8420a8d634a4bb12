import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from igamotor.adjoint import thd_sample_sensitivities
from igamotor.errors import DegenerateSignalError
from igamotor.fourier import (
    attach_spectrum,
    build_derivative_dft,
    default_index_set,
    emf_spectrum,
    flux_linkage,
    thd,
)
from igamotor.geometry import MachineConfig
from igamotor.optim import MachineSolver


def samples(n, fn):
    t = 2 * np.pi * np.arange(n) / n
    return fn(t)


def test_flux_linkage_scaling():
    u = np.array([1.0, 2.0, -1.0])
    chi = np.array([0.5, 0.0, 1.5])
    assert flux_linkage(np.zeros(3), chi, 3, 0.1) == 0.0
    base = flux_linkage(u, chi, 3, 0.1)
    assert flux_linkage(u, chi, 3, 0.2) == 2.0 * base
    assert base == 3 * 0.1 * (chi @ u)


def test_emf_spectrum_cosine_gives_negative_sine():
    A, B = emf_spectrum(samples(24, np.cos))
    assert abs(A[1]) < 1e-12 and abs(B[1] + 1.0) < 1e-12
    mask = np.ones_like(A, dtype=bool)
    mask[1] = False
    assert np.abs(A[mask]).max() < 1e-12 and np.abs(B[mask]).max() < 1e-12


def test_emf_spectrum_constant_is_silent():
    A, B = emf_spectrum(np.full(16, 3.7))
    assert np.abs(A).max() < 1e-12 and np.abs(B).max() < 1e-12


def test_emf_spectrum_third_harmonic_sine():
    A, B = emf_spectrum(samples(30, lambda t: np.sin(3 * t)))
    assert abs(A[3] - 3.0) < 1e-12 and abs(B[3]) < 1e-12
    mask = np.ones_like(A, dtype=bool)
    mask[3] = False
    assert np.abs(A[mask]).max() < 1e-12 and np.abs(B[mask]).max() < 1e-12


def test_thd_pure_fundamental_and_two_harmonics():
    n = 60
    A = np.zeros(n // 2)
    B = np.zeros(n // 2)
    A[1] = 1.0
    assert thd(A, B, default_index_set(n)) == 0.0
    B[5] = 0.1
    assert abs(thd(A, B, (1, 5)) - 0.1) < 1e-12
    with pytest.raises(DegenerateSignalError):
        thd(np.zeros(4), np.zeros(4), (1, 2))
    with pytest.raises(ValueError):
        thd(A, B, (2, 3))


@given(st.floats(min_value=-8.0, max_value=8.0).filter(lambda c: abs(c) > 1e-6))
@settings(max_examples=40, deadline=None)
def test_thd_degree_zero_homogeneity(c):
    rng = np.random.default_rng(4)
    A = rng.standard_normal(10)
    B = rng.standard_normal(10)
    idx = (1, 3, 5, 7)
    assert thd(c * A, c * B, idx) == pytest.approx(thd(A, B, idx), abs=1e-14)


@given(st.integers(min_value=2, max_value=40))
@settings(max_examples=30, deadline=None)
def test_parseval_and_round_trip(n):
    n = 2 * n
    rng = np.random.default_rng(n)
    psi = rng.standard_normal(n)
    C = np.fft.fft(psi) / n
    assert abs((psi ** 2).sum() / n - (np.abs(C) ** 2).sum()) < 1e-12
    back = np.fft.ifft(np.fft.fft(psi)).real
    assert np.abs(back - psi).max() < 1e-12


def test_coefficient_magnitude_identity():
    # |c_n| = sqrt(A_n^2 + B_n^2) / 2 for the EMF coefficients c_n = i n C_n
    n = 32
    rng = np.random.default_rng(7)
    psi = rng.standard_normal(n)
    A, B = emf_spectrum(psi)
    C = np.fft.fft(psi) / n
    for k in range(1, n // 2):
        c_k = 1j * k * C[k]
        assert abs(abs(c_k) - np.hypot(A[k], B[k]) / 2) < 1e-12


def _unit_sample_dft(n):
    """The dense (n/2, n) derivative DFT matrices M_a, M_b, column by
    column: emf_spectrum of each unit sample."""
    columns = [emf_spectrum(np.eye(n)[j]) for j in range(n)]
    return (np.column_stack([A for A, _ in columns]),
            np.column_stack([B for _, B in columns]))


def test_derivative_dft_matrices_match_spectrum():
    n = 24
    M_a, M_b = _unit_sample_dft(n)
    rng = np.random.default_rng(3)
    for _ in range(10):
        psi = rng.standard_normal(n)
        A, B = emf_spectrum(psi)
        assert np.abs(M_a @ psi - A).max() < 1e-12
        assert np.abs(M_b @ psi - B).max() < 1e-12
    # n = 0 rows map constants to zero
    const = np.ones(n)
    assert abs((M_a @ const)[0]) < 1e-14
    assert abs((M_b @ const)[0]) < 1e-14
    # matrices reproduce the analytic cosine case
    A, B = M_a @ samples(n, np.cos), M_b @ samples(n, np.cos)
    assert abs(A[1]) < 1e-12 and abs(B[1] + 1.0) < 1e-12


@pytest.mark.parametrize("n", [2, 4, 60, 120, 1024])
def test_sensitivities_match_dense_derivative_dft(n):
    # the quotient rule through rows of the dense matrices; over 20 seeds
    # the inverse FFT agreed with it to at most 1.2e-15 (sensitivities) and
    # 6.9e-16 (transpose alone) of the largest entry, at 4 to 1,024 angles
    M_a, M_b = _unit_sample_dft(n)
    dft = build_derivative_dft(n)
    rng = np.random.default_rng(n)
    c_a, c_b = rng.standard_normal(n // 2), rng.standard_normal(n // 2)
    dense = c_a @ M_a + c_b @ M_b
    assert np.abs(dft.transpose(c_a, c_b) - dense).max() <= 1e-14 * np.abs(dense).max()
    if n < 4:
        return                          # two samples resolve no fundamental
    A, B = emf_spectrum(rng.standard_normal(n))
    idx = default_index_set(n)
    rest = np.array(idx[1:], dtype=int)
    D = A[1] ** 2 + B[1] ** 2
    N = (A[rest] ** 2 + B[rest] ** 2).sum()
    dense = -np.sqrt(N) / D ** 1.5 * (A[1] * M_a[1] + B[1] * M_b[1])
    if N > 0.0:
        dense += (A[rest] @ M_a[rest] + B[rest] @ M_b[rest]) / np.sqrt(N * D)
    s = thd_sample_sensitivities(A, B, idx, dft)
    assert np.abs(s - dense).max() <= 1e-14 * np.abs(dense).max()


def test_transposed_derivative_dft_is_the_adjoint_of_the_spectrum():
    # <emf_spectrum(psi), (c_a, c_b)> = <psi, s> with no matrix formed;
    # over 20 seeds the two sides differed by at most 4.1e-17 of the sum
    # of the absolute products
    n = 4096
    rng = np.random.default_rng(40)
    psi = rng.standard_normal(n)
    c_a, c_b = rng.standard_normal(n // 2), rng.standard_normal(n // 2)
    A, B = emf_spectrum(psi)
    s = build_derivative_dft(n).transpose(c_a, c_b)
    scale = np.abs(A) @ np.abs(c_a) + np.abs(B) @ np.abs(c_b)
    assert abs(A @ c_a + B @ c_b - psi @ s) <= 1e-15 * scale


def test_sensitivities_at_max_angles_allocate_under_a_megabyte():
    # the dense matrix pair holds 8 n^2 bytes, 134 MB at 4,096 angles
    n = 4096
    A, B = emf_spectrum(np.random.default_rng(5).standard_normal(n))
    idx = default_index_set(n)
    tracemalloc.start()
    try:
        thd_sample_sensitivities(A, B, idx, build_derivative_dft(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, "peak %d bytes" % peak


def test_derivative_dft_checks_its_sizes():
    with pytest.raises(ValueError):
        build_derivative_dft(7)
    with pytest.raises(ValueError):
        build_derivative_dft(8).transpose(np.zeros(3), np.zeros(4))


def test_index_set_entries_checked_on_acceptance_6_sweep():
    # a repeated harmonic must not be summed twice: (1, 5, 5, 7) would
    # read 0.2571 against 0.1822 for (1, 5, 7)
    solver = MachineSolver(MachineConfig(refinement=0, n_harmonics=12, n_angles=60,
                                         harmonics_multiple_of_poles=True))
    sweep, _ = solver.evaluate(solver.rotor0)
    assert attach_spectrum(sweep, (1, 5, 7)).thd == pytest.approx(0.18219890, abs=1e-8)
    with pytest.raises(ValueError, match="repeats"):
        attach_spectrum(sweep, (1, 5, 5, 7))
    assert sweep.index_set == (1, 5, 7)            # the failed call set no field
    dft = build_derivative_dft(60)
    for idx in ((1, 5, 5, 7), (1, 30), (1, -1), (5, 7)):
        with pytest.raises(ValueError):
            thd(sweep.emf_a, sweep.emf_b, idx)
        with pytest.raises(ValueError):
            thd_sample_sensitivities(sweep.emf_a, sweep.emf_b, idx, dft)


def test_thd_sums_in_index_set_order_bitwise():
    # the running sum adds the non-fundamental terms in the order given,
    # one at a time, as a plain loop does
    rng = np.random.default_rng(12)
    for _ in range(200):
        n_harm = int(rng.integers(3, 100))
        A, B = rng.standard_normal(n_harm), rng.standard_normal(n_harm)
        idx = tuple(rng.permutation(n_harm)[:int(rng.integers(1, n_harm))].tolist()) + (1,)
        rest = 0.0
        for k in idx:
            if k != 1:
                rest += A[k] ** 2 + B[k] ** 2
        assert thd(A, B, idx) == float(np.sqrt(rest / (A[1] ** 2 + B[1] ** 2)))
    assert thd(A, B, (1,)) == 0.0
    with pytest.raises(ValueError):
        thd(A, B, (1, n_harm))
    with pytest.raises(ValueError):
        thd(A, B, (1, -1))
