"""Machine-speed calibration for the benchmark's timings.

On a shared virtual machine the same code runs up to 1.6x slower for
tens of seconds at a time when the host is busy, and process CPU time
slows with it, so raw wall times of runs made minutes apart scatter
more than any regression worth catching.  The benchmark therefore times
this fixed kernel, which uses none of the package, just before and just
after each op, and scales the op's wall time by REF_S over the mean of
the two kernel times.  The result, in reference seconds, is the
time the op would take on a machine where the kernel takes REF_S; a
change to the package moves it by the same factor as it moves wall time.

The kernel mixes the two costs the workloads have: many small-matrix
numpy calls (per-call Python overhead) and dense n=100 LAPACK work.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

# median kernel time on an idle 2-vCPU Xeon VM (OpenBLAS, one thread)
REF_S = 0.003

_rng = np.random.default_rng(20250)
_SMALL = [m @ m.T + np.eye(k)
          for k, m in ((k, _rng.standard_normal((k, k))) for k in (2, 3, 4))]
_big = _rng.standard_normal((100, 100))
_BIG = _big @ _big.T + np.eye(100)


def kernel() -> None:
    for _ in range(25):
        for M in _SMALL:
            w, V = np.linalg.eigh(M)
            np.linalg.inv(M)
            (V * np.clip(w, 0.0, 1.0)) @ V.T
    np.linalg.eigh(_BIG)
    np.linalg.inv(_BIG)


def measure(threads: int = 1) -> float:
    """Seconds the kernel takes now, run at once on `threads` threads.

    An op that runs a thread pool is calibrated with as many threads,
    so the kernel sees the same cores and interpreter-lock contention.
    """
    if threads == 1:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    workers = [threading.Thread(target=kernel) for _ in range(threads)]
    t0 = time.perf_counter()
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    return time.perf_counter() - t0


def factor(samples: list[float], threads: int = 1) -> float:
    """Scale from wall time to reference time, given nearby kernel times.

    The reference for a kernel run on k threads is k * REF_S, the time
    of k kernels run one after another.
    """
    return threads * REF_S / statistics.median(samples)
