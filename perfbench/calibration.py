"""Host-speed calibration: fixed kernels that run no repmech code.

On a shared machine the host's speed drifts by up to 2x over tens of seconds,
and this moves every op's time by the same factor. Four kernels cover the kinds of
work the workloads do: interpreter arithmetic, small numpy linear algebra,
string formatting and large array passes. The geometric mean of their times
tracks the drift. On a 2-vCPU VM, over 200 s that spanned a 1.8x slowdown,
the 20 s medians of a fixed op mix varied by 24% (coefficient of
variation). Divided by this mean, they varied by 2%.

A program change cannot move these kernels, so dividing op times by them
removes the host's drift and keeps the program's own changes.
"""

from __future__ import annotations

import math
import time

import numpy as np

# the geometric-mean kernel time that defines one reference second
REFERENCE_S = 2.0e-3

_BIG = np.random.default_rng(0).random(300_000)
_METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


def _scalar_math():
    acc = 0.0
    a = np.arange(16.0).reshape(4, 4) + np.eye(4)
    for i in range(300):
        acc += math.sqrt(i + 1.0) * 0.5
        v = a @ np.full(4, acc * 1e-6)
        acc += float(v[0]) * 1e-9


def _small_linalg():
    v = np.array([1.0, 0.3, 0.2, 0.1])
    for i in range(60):
        x = np.concatenate(([1.0], v[1:] * (1.0 + i * 1e-3)))
        h = _METRIC / 2.0 - np.outer(_METRIC @ x, _METRIC @ x)
        np.linalg.solve(h[1:, 1:] + 3.0 * np.eye(3), x[1:])
        np.einsum("a,ab,b->", x, _METRIC, x)
        abs(np.linalg.det(_METRIC))


def _formatting():
    rows = []
    for i in range(400):
        d = {"a": i * 0.1, "b": [i, i + 1.5]}
        rows.append(",".join(f"{float(x):.17g}" for x in (d["a"], d["b"][1], i / 7.0)))
    "\n".join(rows)


def _array_pass():
    y = np.sqrt(1.0 + _BIG * _BIG)
    float(y.sum())
    float(np.einsum("n,n->n", _BIG, y).max())


KERNELS = (_scalar_math, _small_linalg, _formatting, _array_pass)


def sample() -> float:
    """Geometric mean of the kernels' wall times, in seconds."""
    log_sum = 0.0
    for kernel in KERNELS:
        t0 = time.perf_counter()
        kernel()
        log_sum += math.log(time.perf_counter() - t0)
    return math.exp(log_sum / len(KERNELS))
