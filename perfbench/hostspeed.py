"""A fixed reference probe that measures how fast the host runs right now.

On a shared host the same command takes up to twice as long from one minute
to the next, as other tenants load the machine. The benchmark runs this probe
between ops and divides each op's time by the mean of the two probes around
it, so that the gated times follow the program, not the host's load.

The probe's work mirrors the workloads' mix: a Python loop over small dot
products (coordinate-descent lasso), dense matmuls of a hidden layer's size
(training) and boolean masks on a 64-pixel canvas (rasterization). It uses
numpy alone and none of the program, so no change to the program moves it.
"""
from __future__ import annotations

import gc
import time

import numpy as np

# The probe's median time on the 2-core host the bounds were set on (x86-64,
# OpenBLAS 0.3.31, one BLAS thread). Normalized times are the seconds an op
# would take on that host when the probe reads this value.
REFERENCE_S = 0.040

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((1600, 10))
_y = _rng.standard_normal(1600)
_cols = [np.ascontiguousarray(_X[:, j]) for j in range(_X.shape[1])]
_W1 = _rng.standard_normal((144, 256))
_W2 = _rng.standard_normal((256, 128))
_py, _px = np.mgrid[0:64, 0:64] / 64.0


def _reference_work() -> float:
    total = 0.0
    for _ in range(1000):
        for col in _cols:
            rho = float(col @ _y) / _y.size
            total += rho if rho > 0.0 else -rho
    for _ in range(60):
        total += float((_W1 @ _W2)[0, 0])
    for _ in range(150):
        inside = ((_px - 0.5) * 0.3 + (_py - 0.4) * 0.7 < 0.1) & (_px * _px + _py < 0.8)
        total += float(np.where(inside, 0.5, 0.0)[0, 0])
    return total


def probe() -> float:
    """Seconds the reference work takes now; garbage is collected first, untimed."""
    gc.collect()
    start = time.perf_counter()
    _reference_work()
    return time.perf_counter() - start


def normalize(durations, probes) -> list:
    """Each duration rescaled to the reference host speed.

    probes[i] and probes[i + 1] are the probe times just before and just after
    durations[i], so there is one probe more than there are durations.
    """
    if len(probes) != len(durations) + 1:
        raise ValueError("need one probe before each duration and one after the last")
    return [d * REFERENCE_S * 2.0 / (before + after)
            for d, before, after in zip(durations, probes, probes[1:])]
