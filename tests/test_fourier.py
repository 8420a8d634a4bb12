import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from igamotor import fourier
from igamotor.errors import DegenerateSignalError
from igamotor.fourier import (
    build_derivative_dft,
    default_index_set,
    emf_spectrum,
    flux_linkage,
    thd,
)


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


def test_emf_spectrum_rejects_nonuniform_times():
    psi = np.zeros(8)
    t_bad = np.linspace(0.0, 2 * np.pi, 8)  # endpoint included: nonuniform period
    with pytest.raises(ValueError):
        emf_spectrum(psi, t_bad)
    emf_spectrum(psi, 2 * np.pi * np.arange(8) / 8)  # uniform passes


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


def test_derivative_dft_matrices_match_spectrum():
    n = 24
    mats = build_derivative_dft(n)
    rng = np.random.default_rng(3)
    for _ in range(10):
        psi = rng.standard_normal(n)
        A, B = emf_spectrum(psi)
        assert np.abs(mats.M_a @ psi - A).max() < 1e-12
        assert np.abs(mats.M_b @ psi - B).max() < 1e-12
    # n = 0 rows map constants to zero
    const = np.ones(n)
    assert abs((mats.M_a @ const)[0]) < 1e-14
    assert abs((mats.M_b @ const)[0]) < 1e-14
    # matrices reproduce the analytic cosine case
    A, B = mats.M_a @ samples(n, np.cos), mats.M_b @ samples(n, np.cos)
    assert abs(A[1]) < 1e-12 and abs(B[1] + 1.0) < 1e-12


def _unit_sample_dft(n):
    """M_a, M_b column by column: emf_spectrum of each unit sample."""
    columns = [emf_spectrum(np.eye(n)[j]) for j in range(n)]
    return (np.column_stack([A for A, _ in columns]),
            np.column_stack([B for _, B in columns]))


@pytest.mark.parametrize("n, block_columns", [(2, None), (60, None), (120, None), (120, 7)])
def test_derivative_dft_equals_unit_sample_spectra_bitwise(monkeypatch, n, block_columns):
    # one batched FFT per block of unit samples gives every column the
    # bits of emf_spectrum of its unit sample; 7 columns a block puts block
    # boundaries at 7, 14, ..., 119
    if block_columns is not None:
        monkeypatch.setattr(fourier, "_DFT_BLOCK_BYTES", 16 * n * block_columns)
    mats = build_derivative_dft(n)
    M_a, M_b = _unit_sample_dft(n)
    np.testing.assert_array_equal(mats.M_a, M_a)
    np.testing.assert_array_equal(mats.M_b, M_b)


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
