"""Quantities of interest: flux linkage, EMF spectrum by frequency-domain
differentiation of the flux linkage, THD, and the linear sample-to-spectrum
matrices used by the adjoint.

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


def emf_spectrum(samples: np.ndarray, t: np.ndarray | None = None):
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
    if t is not None:
        t = np.asarray(t, dtype=float)
        expected = 2.0 * np.pi * np.arange(n) / n
        if t.shape != (n,) or not np.allclose(t - t[0], expected, atol=1e-12):
            raise ValueError("samples are not uniform over one period")
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


def thd(A: np.ndarray, B: np.ndarray, index_set) -> float:
    """Root ratio of non-fundamental to fundamental spectral energy."""
    index_set = tuple(index_set)
    if 1 not in index_set:
        raise ValueError("index set must contain the fundamental")
    if max(index_set) >= len(A) or min(index_set) < 0:
        raise ValueError("index set exceeds resolvable harmonics")
    fundamental = A[1] ** 2 + B[1] ** 2
    if fundamental <= 0.0:
        raise DegenerateSignalError("zero fundamental: THD undefined")
    idx = np.array(index_set, dtype=int)
    idx = idx[idx != 1]
    # a running sum adds the terms one by one in index-set order
    rest = np.cumsum(A[idx] ** 2 + B[idx] ** 2)[-1] if idx.size else 0.0
    return float(np.sqrt(rest / fundamental))


# bytes of the complex spectra build_derivative_dft holds at a time: 2 MiB,
# beside the 8 n_angles^2 bytes of its output (134 MB at 4,096 angles)
_DFT_BLOCK_BYTES = 1 << 21


@dataclass(frozen=True)
class DerivativeDftMatrices:
    """Real matrices mapping flux samples to EMF cosine/sine coefficients."""

    M_a: np.ndarray
    M_b: np.ndarray


def build_derivative_dft(n_angles: int) -> DerivativeDftMatrices:
    """Columns are the spectra of unit samples, so M_a s reproduces the A
    output of emf_spectrum(s) for every s (linearity of the DFT).  The unit
    samples are transformed as rows of the identity, _DFT_BLOCK_BYTES of
    complex spectra at a time, with emf_spectrum's operations, so every
    column has the bits of emf_spectrum of its unit sample."""
    if n_angles % 2:
        raise ValueError("n_angles must be even")
    n_harm = n_angles // 2
    M_a = np.zeros((n_harm, n_angles))
    M_b = np.zeros((n_harm, n_angles))
    k = np.arange(1, n_harm)
    step = max(1, _DFT_BLOCK_BYTES // (16 * n_angles))
    for start in range(0, n_angles, step):
        cols = slice(start, min(start + step, n_angles))
        E = np.eye(cols.stop - start, n_angles, start)          # unit samples
        C = np.fft.fft(E, axis=-1) / n_angles
        C_k, C_minus_k = C[:, 1:n_harm], C[:, :n_harm:-1]     # C[k], C[n - k]
        M_a[1:, cols] = np.real(1j * k * (C_k - C_minus_k)).T
        M_b[1:, cols] = np.real(-k * (C_k + C_minus_k)).T
    return DerivativeDftMatrices(M_a, M_b)


def attach_spectrum(sweep: SweepResult, index_set=None) -> SweepResult:
    """Fill the spectral fields of a sweep in place and return it."""
    A, B = emf_spectrum(sweep.psi)
    if index_set is None:
        index_set = default_index_set(sweep.psi.size)
    sweep.emf_a = A
    sweep.emf_b = B
    sweep.index_set = tuple(index_set)
    sweep.thd = thd(A, B, sweep.index_set)
    return sweep
