"""How fast the host runs right now, from a fixed reference computation.

On a shared virtual machine the speed of a CPU-bound process moves by
±20% over minutes with what other tenants run, and a run of the same
program on the same inputs moves with it. The workloads therefore take
short samples of a fixed computation between their timed operations,
and the end-to-end throughputs are scaled to REF_RATE: they read as the
throughput on a host that runs the reference at that rate.

The reference is written here, with numpy and scipy only, and never
calls the package, so no change to mixedgp can move it. It mixes the
two kinds of work the workloads do: small dense algebra with Python
overhead between the calls (a Matérn-5/2 likelihood on 32 points, as
in the study fits) and a rectangular kernel applied to a vector (as
in prediction on a grid).
"""

import math
import time

import numpy as np
import scipy.linalg

# Reference units per CPU second, about the median on the shared 2-vCPU
# x86-64 Xeon VM that measured perfbench/baseline.json. It sets only the
# scale of the reported throughputs and stays fixed across commits.
REF_RATE = 800.0
SAMPLE_CPU_S = 0.15

_X = np.linspace(0.0, 1.0, 64).reshape(32, 2) ** 2
_Y = np.sin(7.0 * _X[:, 0]) + _X[:, 1]
_GRID = np.linspace(0.0, 1.0, 800).reshape(400, 2)
_LENGTHSCALES = (0.2, 0.3, 0.4, 0.5)


def _matern52(A, B, ls):
    d = math.sqrt(5.0) * np.abs((A[:, None, :] - B[None, :, :]) / ls).sum(-1)
    return (1.0 + d + d * d / 3.0) * np.exp(-d)


def reference_unit() -> float:
    total = 0.0
    for ls in _LENGTHSCALES:
        R = _matern52(_X, _X, ls) + 1e-8 * np.eye(len(_X))
        factor = scipy.linalg.cho_factor(R, lower=True)
        alpha = scipy.linalg.cho_solve(factor, _Y)
        total += float(_Y @ alpha) + 2.0 * float(np.log(np.diag(factor[0])).sum())
        P = [[math.exp(-abs(i - j) * ls) for j in range(4)] for i in range(4)]
        total += sum(map(sum, P))
    total += float((_matern52(_GRID, _X, 0.3) @ alpha).sum())
    return total


def sample(cpu_s: float = SAMPLE_CPU_S) -> float:
    """Reference units per CPU second over about ``cpu_s`` of CPU time."""
    start = time.process_time()
    units = 0
    while True:
        reference_unit()
        units += 1
        elapsed = time.process_time() - start
        if elapsed >= cpu_s:
            return units / elapsed
