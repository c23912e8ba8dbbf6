"""A fixed numpy kernel, owned by the benchmark, that tracks how fast the
machine runs at the moment.

The benchmark's machine is a shared 2-vCPU VM whose speed drifts by 10-40%
in phases lasting from seconds to about a minute. The process's CPU time
drifts with its wall time, so this is contention from other tenants, not
steal time. Medians of one run's wall times move with the phases the run
caught. Every timed command is therefore also reported in reference
seconds: its wall time divided by this kernel's time, taken just before and
just after it, times ``REF_S``. In one drifty spell, the time metrics of
five calib-arm seeds spread by 23-35% in wall time and by 8-12% scaled.

The kernel is a conv layer's pad, im2col, forward and weight-gradient GEMMs
and BN-style reductions at batch 16 with 32 channels. Its ~6 MB working set
outgrows the core's private caches, as the program's batch-64 layers do; a
kernel that fits in cache tracked the program's slow phases less well. It
runs in the benchmark's process, right where the command ran, but writes
only into buffers it allocates once, so the program's heap and allocator
state cannot change its time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Close to the kernel's median time on the 2-vCPU Xeon VM the benchmark was
# defined on (22.6 ms over its proof runs; OpenBLAS, one thread). A scaled
# time is wall * REF_S / kernel time: about seconds of that machine at its
# median speed. REF_S is a unit only; two runs on one machine compare the
# same way whatever its value.
REF_S = 0.024


class Reference:
    """Times the kernel; ``samples`` keeps every time taken."""

    REPS = 3  # one time is the median of this many runs
    ITERATIONS = 4

    def __init__(self):
        rng = np.random.default_rng(0)
        n, c, h, w = 16, 32, 16, 16
        self.x = rng.standard_normal((n, c, h, w)).astype(np.float32)
        self.w = rng.standard_normal((c, c * 9)).astype(np.float32)
        self.xp = np.zeros((n, c, h + 2, w + 2), np.float32)
        self.cols = np.empty((c, 3, 3, n, h, w), np.float32)
        self.y = np.empty((c, n * h * w), np.float32)
        self.gw = np.empty((c, c * 9), np.float32)
        self.stats = np.empty((2, c), np.float32)
        self.samples: list[float] = []

    def _run(self) -> float:
        c, h, w = self.x.shape[1:]
        cols = self.cols.reshape(c * 9, -1)
        t0 = time.perf_counter()
        for _ in range(self.ITERATIONS):
            self.xp[:, :, 1:h + 1, 1:w + 1] = self.x
            win = np.lib.stride_tricks.sliding_window_view(self.xp, (3, 3), axis=(2, 3))
            np.copyto(self.cols, win.transpose(1, 4, 5, 0, 2, 3))
            np.matmul(self.w, cols, out=self.y)
            np.matmul(self.y, cols.T, out=self.gw)
            self.y.mean(axis=1, out=self.stats[0])
            np.square(self.y, out=self.y)
            self.y.mean(axis=1, out=self.stats[1])
        return time.perf_counter() - t0

    def seconds(self) -> float:
        s = statistics.median(self._run() for _ in range(self.REPS))
        self.samples.append(s)
        return s

    def scale(self, wall: float, before: float) -> float:
        """``wall`` in reference seconds, given the kernel time taken before
        it; times the kernel once more for the time after it."""
        return wall * REF_S / (0.5 * (before + self.seconds()))
