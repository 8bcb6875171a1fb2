"""OpenBLAS default-pool stall diagnostic.

Run as a script it times ``numpy.linalg.eigh`` at a few sizes in this
fresh process and prints the median call times as JSON.  The benchmark
starts several such processes with the thread variables removed, so each
gets the default BLAS thread pool, and compares them with the same timing
taken in its own single-thread process.
"""

import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

SIZES = (32, 36, 64)
CALLS = 20
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
STALL_FACTOR = 10.0


def eigh_medians(sizes=SIZES, calls=CALLS):
    """Median seconds per ``eigh`` call on a random Hermitian matrix of each size."""
    rng = np.random.default_rng(0)
    out = {}
    for n in sizes:
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = a + a.conj().T
        for _ in range(3):
            np.linalg.eigh(h)
        times = []
        for _ in range(calls):
            t0 = time.perf_counter()
            np.linalg.eigh(h)
            times.append(time.perf_counter() - t0)
        out[n] = statistics.median(times)
    return out


def stall_ratio(processes, cwd):
    """Share of fresh default-pool processes whose median ``eigh`` call at
    some size exceeds ``STALL_FACTOR`` times this process's median."""
    single = eigh_medians()
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    stalled = 0
    for _ in range(processes):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        child = {int(k): v for k, v in json.loads(proc.stdout).items()}
        if any(child[n] > STALL_FACTOR * single[n] for n in SIZES):
            stalled += 1
    return stalled / processes


if __name__ == "__main__":
    print(json.dumps(eigh_medians()))
