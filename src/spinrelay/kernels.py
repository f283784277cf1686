"""Mode-sum kernel shared by the propagator and the time optimizer.

Everything downstream reduces to evaluating a(t) = sum_p w_p exp(-i f_p t)
on dense time grids, where w are mode weights and f mode frequencies.
"""

import numpy as np

# Always False: numpy is the only backend. perfbench/worker.py reports this
# name in the environment block of every benchmark run.
USE_NUMBA = False

# times are taken in chunks so the (nt, np) phase matrix stays small
_CHUNK = 4096


def probability_series(weights, freqs, times):
    """p[i] = |sum_p weights[p] * exp(-1j * freqs[p] * times[i])|**2."""
    weights = np.ascontiguousarray(weights, dtype=np.complex128)
    freqs = np.ascontiguousarray(freqs, dtype=np.float64)
    times = np.ascontiguousarray(times, dtype=np.float64)
    a = np.empty(times.shape[0], dtype=np.complex128)
    for lo in range(0, times.shape[0], _CHUNK):
        hi = min(lo + _CHUNK, times.shape[0])
        a[lo:hi] = np.exp(-1j * np.outer(times[lo:hi], freqs)) @ weights
    return a.real * a.real + a.imag * a.imag
