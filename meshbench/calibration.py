"""Fixed kernels, timed between ops, that measure how fast the machine runs now.

The machines this benchmark runs on are shared: the same op takes up to
half again as long for minutes at a time when neighbours are busy, and a
process's CPU time grows with its wall time, so neither clock filters it
out. The benchmark therefore times a kernel (the benchmark's own code, never
the package's) every CALIBRATE_EVERY_S during a window, always warm (see
`Kernel.time_ns`), and reports every op time scaled to a machine on which
the kernel takes its `reference_ns`:

    reported = measured * (reference_ns / k) ** ELASTICITY
    k = median(kernel times within NEAR_S of the op)

A set-up is scaled by kernel runs right before and after it (`scale_by`).

Contention slows interpreted, small-array code more than large-array numpy
code, so each workload is calibrated by the kernel closest to what its op
does: ARRAY (numpy exp, a small matmul, scipy's erf and an interpreted loop,
like the model's forward and backward) or RASTER (the scene rasterizer's
per-triangle steps, with a depth test and masked writes, over small pixel
windows of a 64 x 64 image). Neither keeps anything the garbage collector
tracks, so no collection moves out of an op into a kernel.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import erf

CALIBRATE_EVERY_S = 0.02
NEAR_S = 0.5
# The ops slow down less than the kernels: the machine switches between a
# fast and a slow state, in which the kernels' times differ by 1.85x and the
# ops' by 1.6x. Over ~7000 ops of the three workloads, log op time against
# log kernel time had a slope of 0.85-0.91 between the fifths of ops with
# the fastest and the slowest kernel times.
ELASTICITY = 0.85

_rng = np.random.default_rng(0)
_SCORES = _rng.standard_normal((4, 122, 122))
_WEIGHTS = _rng.standard_normal((122, 32)) / 16.0
_EXP = np.empty_like(_SCORES)
_MIXED = np.empty((4, 122, 32))
_IMAGE = 64
_TRIANGLES = (_rng.uniform(4.0, _IMAGE - 4.0, size=(12, 1, 2))
              + _rng.uniform(-3.0, 3.0, size=(12, 3, 2)))
_DEPTHS = _rng.uniform(0.0, 1.0, size=(12, 3))
_ZBUF = np.empty((_IMAGE, _IMAGE))
_RGB = np.zeros((3, _IMAGE, _IMAGE))
_LABELS = np.zeros((2, _IMAGE, _IMAGE), dtype=np.int32)


def _array_work():
    np.exp(_SCORES, out=_EXP)
    np.matmul(_EXP, _WEIGHTS, out=_MIXED)
    erf(_MIXED, out=_MIXED)
    s = 0
    for i in range(3000):
        s += i


def _raster_work():
    _ZBUF.fill(-np.inf)
    for k, (tri, depth) in enumerate(zip(_TRIANGLES, _DEPTHS)):
        px, py = tri[:, 0], tri[:, 1]
        x0 = max(int(math.floor(px.min())), 0)
        x1 = min(int(math.ceil(px.max())), _IMAGE - 1)
        y0 = max(int(math.floor(py.min())), 0)
        y1 = min(int(math.ceil(py.max())), _IMAGE - 1)
        denom = (py[1] - py[2]) * (px[0] - px[2]) + (px[2] - px[1]) * (py[0] - py[2])
        ys, xs = np.mgrid[y0:y1 + 1, x0:x1 + 1]
        cx, cy = xs + 0.5, ys + 0.5
        w0 = ((py[1] - py[2]) * (cx - px[2]) + (px[2] - px[1]) * (cy - py[2])) / denom
        w1 = ((py[2] - py[0]) * (cx - px[2]) + (px[0] - px[2]) * (cy - py[2])) / denom
        w2 = 1.0 - w0 - w1
        z = w0 * depth[0] + w1 * depth[1] + w2 * depth[2]
        win = (slice(y0, y1 + 1), slice(x0, x1 + 1))
        hit = (w0 >= 0) & (w1 >= 0) & (w2 >= 0) & (z > _ZBUF[win])
        if not hit.any():
            continue
        _ZBUF[win][hit] = z[hit]
        for c in range(3):
            _RGB[c][win][hit] = depth[c]
        _LABELS[0][win][hit] = k
        _LABELS[1][win][hit] = k


@dataclass(frozen=True)
class Kernel:
    """A fixed piece of work and its time at the reference machine speed.

    `reference_ns` is about the kernel's median between ops on the 2-vCPU
    machine the bounds were set on, at a quiet time, so reported op times
    read close to wall times there.
    """

    work: Callable[[], None]
    reference_ns: int

    def time_ns(self) -> int:
        """Run the kernel twice and return the wall time of the second run in ns.

        The first run brings the kernel's own data back into the caches after
        whatever ran before it, so the time does not depend on the op that
        preceded it.
        """
        self.work()
        t0 = time.perf_counter_ns()
        self.work()
        return time.perf_counter_ns() - t0

    def scale(self, op_end_s, op_ns, kernel_at_s, kernel_ns) -> np.ndarray:
        """Op times at the reference speed, each scaled by the kernel runs
        within NEAR_S of the op's end (all of them when none is that near).

        `kernel_at_s` must be ascending.
        """
        at = np.asarray(kernel_at_s)
        k = np.asarray(kernel_ns, dtype=np.float64)
        ends = np.asarray(op_end_s)
        lo = np.searchsorted(at, ends - NEAR_S)
        hi = np.searchsorted(at, ends + NEAR_S)
        whole = np.median(k)
        near = np.array([np.median(k[a:b]) if b > a else whole for a, b in zip(lo, hi)])
        return np.asarray(op_ns, dtype=np.float64) * (self.reference_ns / near) ** ELASTICITY

    def scale_by(self, ns, kernel_ns) -> float:
        """A time `ns` at the reference speed, by the median of `kernel_ns`."""
        return ns * (self.reference_ns / statistics.median(kernel_ns)) ** ELASTICITY


ARRAY = Kernel(_array_work, 650_000)
RASTER = Kernel(_raster_work, 841_000)
