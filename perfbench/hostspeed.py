"""Host-speed correction for the end-to-end timings.

On the 2-vCPU VM this benchmark was built on, the same code runs up to 1.5x
faster or slower from one second to the next, and whole 30 s runs land in a
fast or a slow spell: a fixed loop of small numpy ops reached between 2,231 and
3,252 iterations per 2 s window within one minute, and process CPU time equals
wall time, so it is the core itself that runs slower. Raw timings of one
workload then split into two clusters about 35% apart across runs.

``probe`` times a fixed kernel of small numpy ops and plain Python, sharing no
code with ``mmtl``. The benchmark times it around every timed call and at
set-up, and scales each time measured there by ``REFERENCE_S`` over the median
of the probe times taken near it: each reported time is what it would have
taken had the probe taken ``REFERENCE_S``. Over 90 s of ``stream_default`` the per-5 s mean forward time
and probe time correlated at 0.94, and their ratio spread 3x less than the
forward time alone.
"""

from __future__ import annotations

import statistics
import time
from typing import Sequence

import numpy as np

REFERENCE_S = 3.0e-3        # probe time at the reference speed (about this host's median)

_rng = np.random.default_rng(0)
_A = _rng.normal(size=(96, 96))
_X = _rng.normal(size=(48, 18, 18))


def probe() -> float:
    """Seconds for one pass of the fixed kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(40):
        y = _A @ _A
        z = _X[:, 1:17, 1:17] * 0.5 + _X[:, :16, :16]
        acc += float(z.sum()) + y[0, 0]
        acc += {"k": i}["k"]
    return time.perf_counter() - t0


def factor(probes: Sequence[float]) -> float:
    """Scale for times measured while the probe took ``probes`` seconds."""
    return REFERENCE_S / statistics.median(probes)
