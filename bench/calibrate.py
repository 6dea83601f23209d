"""Fixed calibration kernels: a yardstick for the speed of the machine.

The benchmark's machine is a few cores of a shared host, whose speed drifts
by tens of percent over tens of seconds as other tenants come and go. A run
times one of these kernels before each operation, and the gated pass time
is expressed in units of the kernel's median time in the same run, so a
slow stretch of the host slows both and largely cancels out.

The kernels use only Python, numpy and scipy, never nudgem, so no change to
the program can change them. Each workload names the kernel that does the
same kind of work as its dominant layer: ``python`` (interpreter-bound: list,
set and dict operations and float arithmetic, like the simulator's event
loop and the prefactor enumeration) or ``blas`` (dense matrix exponentials
on one BLAS thread, like the fluid and W2 grids). A kernel takes about
0.05 s on a 2-vCPU Xeon virtual machine.
"""

import time
from collections import deque

import numpy as np
import scipy.linalg

_MATRIX = np.random.default_rng(0).random((160, 160)) / 160.0


def _python_kernel() -> float:
    queue, window, table, acc = [], deque(maxlen=5), {}, 0.0
    for i in range(45_000):
        queue.append(i)
        window.appendleft(i)
        if len(queue) > 30:
            queue.pop(0)
            acc += (i - 7) in set(queue)
        table[i & 1023] = table.get(i & 511, 0.0) + i * 0.5
    return acc


def _blas_kernel() -> float:
    acc = 0.0
    for _ in range(24):
        acc += float(scipy.linalg.expm(_MATRIX)[0, 0])
    return acc


KERNELS = {"python": _python_kernel, "blas": _blas_kernel}


def kernel_time(kind: str) -> float:
    """Wall time of one run of the named kernel."""
    t0 = time.perf_counter()
    KERNELS[kind]()
    return time.perf_counter() - t0
