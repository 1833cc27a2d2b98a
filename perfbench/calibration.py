"""Machine-speed calibration for the end-to-end timings.

On a shared machine the speed of a core drifts by tens of percent over
seconds and can shift by 1.7x for minutes, as other tenants come and go.
The worker runs this fixed kernel after every timed pass and probe and
scales each timing by REF_S / (mean of the kernel times just before and
just after it). The kernel is the benchmark's own numpy code: the FFT
pair and phase rotation of a Strang step on 256 points, plus a reduction,
so it slows down with the machine but never with a change to snlslab.

REF_S is what the kernel took on the machine the benchmark was built on
(2-core Intel Xeon, numpy 2.4.6) in a quiet spell, so scaled figures read
as seconds on that machine.
"""
from time import perf_counter

import numpy as np

REF_S = 0.05
_ITERATIONS = 1500
_POINTS = 256

_rng = np.random.default_rng(0)
_U0 = 0.1 * (_rng.standard_normal(_POINTS) + 1j * _rng.standard_normal(_POINTS))
_LIN = np.exp(1e-3j * np.arange(_POINTS, dtype=float) ** 2)


def kernel_seconds() -> float:
    """Wall seconds of one run of the calibration kernel."""
    t0 = perf_counter()
    u = _U0
    for _ in range(_ITERATIONS):
        u = np.fft.ifft(np.fft.fft(u) * _LIN)
        u = np.exp(1j * (u.real**2 + u.imag**2)) * u
        complex(u.sum())
    return perf_counter() - t0
