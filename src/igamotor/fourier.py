"""Quantities of interest: flux linkage, EMF spectrum by frequency-domain
differentiation of the flux linkage, THD, and the transposed derivative DFT
that carries the THD's spectral derivatives back to the flux samples for
the adjoint.

Time is the electrical angle t in [0, 2 pi); the physical electrical
frequency is an overall scale on all EMF coefficients and cancels in the
THD, so exported EMF values are per unit angular frequency.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateSignalError


@dataclass
class SweepResult:
    """Rotation sweep samples and their spectral summary."""

    angles: np.ndarray                      # mechanical rotor angles
    psi: np.ndarray                         # flux linkage samples, one period
    lambdas: Optional[np.ndarray] = None    # per-angle interface coefficients
    emf_a: Optional[np.ndarray] = None      # cosine EMF coefficients A_n
    emf_b: Optional[np.ndarray] = None      # sine EMF coefficients B_n
    thd: Optional[float] = None
    index_set: Optional[tuple] = None


def flux_linkage(u_st: np.ndarray, winding_vector: np.ndarray,
                 pole_pairs: int, length_z: float) -> float:
    """Flux linkage of one phase: pole_pairs * l_z * chi^T u."""
    if u_st.shape != winding_vector.shape:
        raise ValueError("coefficient/winding length mismatch")
    return float(pole_pairs * length_z * (winding_vector @ u_st))


def emf_spectrum(samples: np.ndarray):
    """Cosine/sine EMF coefficients from uniform flux-linkage samples.

    The flux linkage is expanded in a discrete Fourier series over exactly
    one electrical period; differentiation multiplies coefficient n by i n.
    Returns (A, B), each of length floor(N/2), indexed by harmonic n with
    A_0 = B_0 = 0.
    """
    psi = np.asarray(samples, dtype=float)
    if psi.ndim != 1 or psi.size < 2:
        raise ValueError("need a 1D sample vector of length >= 2")
    n = psi.size
    C = np.fft.fft(psi) / n
    n_harm = n // 2
    k = np.arange(n_harm)
    A = np.zeros(n_harm)
    B = np.zeros(n_harm)
    # c_k = i k C_k; A_k = c_k + c_{-k}, B_k = i (c_k - c_{-k})
    A[1:] = np.real(1j * k[1:] * (C[k[1:]] - C[n - k[1:]]))
    B[1:] = np.real(-k[1:] * (C[k[1:]] + C[n - k[1:]]))
    return A, B


def default_index_set(n_angles: int) -> tuple:
    """All resolvable harmonics 1 .. floor(N/2) - 1."""
    return tuple(range(1, n_angles // 2))


def _thd_terms(A: np.ndarray, B: np.ndarray, index_set):
    """Check the index set (fundamental present, entries in range, no
    harmonic summed twice) and return its non-fundamental indices, their
    spectral energy N and the fundamental's D, so that THD = sqrt(N / D)."""
    index_set = tuple(index_set)
    if 1 not in index_set:
        raise ValueError("index set must contain the fundamental")
    if max(index_set) >= len(A) or min(index_set) < 0:
        raise ValueError("index set exceeds resolvable harmonics")
    rest = [k for k in index_set if k != 1]
    if len(set(rest)) != len(rest):
        raise ValueError("index set repeats a harmonic")
    idx = np.array(rest, dtype=int)
    D = A[1] ** 2 + B[1] ** 2
    if D <= 0.0:
        raise DegenerateSignalError("zero fundamental: THD undefined")
    # a running sum adds the terms one by one in index-set order
    N = np.cumsum(A[idx] ** 2 + B[idx] ** 2)[-1] if idx.size else 0.0
    return idx, N, D


def thd(A: np.ndarray, B: np.ndarray, index_set) -> float:
    """Root ratio of non-fundamental to fundamental spectral energy."""
    _, N, D = _thd_terms(A, B, index_set)
    return float(np.sqrt(N / D))


@dataclass(frozen=True)
class DerivativeDft:
    """emf_spectrum's linear map from n_angles (even) flux samples to the
    EMF coefficients (A, B), applied transposed without forming it."""

    n_angles: int

    def __post_init__(self):
        if self.n_angles % 2:
            raise ValueError("n_angles must be even")

    def transpose(self, c_a: np.ndarray, c_b: np.ndarray) -> np.ndarray:
        """s with <(A, B), (c_a, c_b)> = <psi, s> for every psi: dA_k/dpsi_j
        = (2k/n) sin(2 pi jk/n) and dB_k/dpsi_j = -(2k/n) cos(2 pi jk/n), so
        s = (n/2) irfft(w), one inverse real FFT of the spectrum
        w_k = (2k/n)(-c_b,k - i c_a,k)."""
        k = np.arange(self.n_angles // 2)
        if c_a.shape != k.shape or c_b.shape != k.shape:
            raise ValueError("need n_angles / 2 coefficients per family")
        return np.fft.irfft(k * (-c_b - 1j * c_a), self.n_angles)


def build_derivative_dft(n_angles: int) -> DerivativeDft:
    """The transposed derivative DFT over n_angles (even) samples."""
    return DerivativeDft(n_angles)


def attach_spectrum(sweep: SweepResult, index_set=None) -> SweepResult:
    """Fill the spectral fields of a sweep in place and return it."""
    A, B = emf_spectrum(sweep.psi)
    if index_set is None:
        index_set = default_index_set(sweep.psi.size)
    index_set = tuple(index_set)
    value = thd(A, B, index_set)            # checks before any field is set
    sweep.emf_a, sweep.emf_b, sweep.index_set, sweep.thd = A, B, index_set, value
    return sweep
