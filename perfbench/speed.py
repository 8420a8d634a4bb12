"""Machine-speed calibration for the benchmark's gated times.

On a shared machine the same code can run up to 2x slower for tens of
seconds at a time, with no steal time visible from inside and process CPU
time tracking wall time, most likely because other tenants contend for the
physical core.  A fixed kernel that touches no igamotor code is timed
before each set-up and before every ``CALIBRATE_EVERY_S`` of operations;
each time is then rescaled to the speed at which the kernel takes
``REFERENCE_S``.  The kernel mixes what the workloads spend their time on:
interpreted Python; small complex numpy operations and dense LU solves
through the scipy wrappers, in the pattern of a per-angle interface solve;
and a streaming pass over an 8 MB array.
"""
from __future__ import annotations

import math
import time
import warnings

import numpy as np
import scipy.linalg as sla

REFERENCE_S = 5e-3         # kernel time at the reference speed
CALIBRATE_EVERY_S = 0.5    # operation time between two calibrations
REPEATS = 3                # the kernel's fastest of this many runs counts


class SpeedCalibration:
    """Rescales measured times to the reference speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        self._matrix = a @ a.conj().T + 24.0 * np.eye(24)
        self._orders = 3.0 * np.arange(1, 25)
        self._rhs = rng.standard_normal(24) + 0j
        self._array = rng.standard_normal((1000, 1000))
        self._out = np.empty_like(self._array)
        self.kernel_s = []       # every calibration, in order
        self._since = math.inf   # operation time since the last calibration

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        for k in range(60):
            phases = np.exp(1j * self._orders * (0.01 * k))
            mat = self._matrix + np.conj(phases)[:, None] * self._matrix * phases[None, :]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", sla.LinAlgWarning)
                lu_piv = sla.lu_factor(mat, check_finite=False)
            float(np.linalg.norm(mat))
            sla.lu_solve(lu_piv, np.conj(phases) * self._rhs, check_finite=False)
        float(np.multiply(self._array, 1.5, out=self._out).sum())
        return time.perf_counter() - t0

    def measure(self):
        self.kernel_s.append(min(self._kernel() for _ in range(REPEATS)))
        self._since = 0.0

    def before_operation(self):
        """Calibrate when CALIBRATE_EVERY_S of operations have run since the
        last calibration (and before the first operation)."""
        if self._since >= CALIBRATE_EVERY_S:
            self.measure()

    def scale(self, seconds: float) -> float:
        """A time measured since the last calibration, at the reference speed."""
        self._since += seconds
        return seconds * REFERENCE_S / self.kernel_s[-1]
