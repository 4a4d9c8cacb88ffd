"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's hosts are shared: the same code on the same inputs has run
at half speed for a minute or more and then recovered, which moves every
wall-clock time alike.  Each workload therefore interleaves short runs of
this kernel with its set-ups and with its ops, and reports set-up time and
op latency rescaled to the speed at which one kernel run takes
:data:`REFERENCE_MS`: ``rescaled = time * REFERENCE_MS / median(kernel
run)``.  On a 2-core host whose speed drifted by up to 2x between runs,
this cut the spread of the op latency median over ten seeds from 12-18%
to 2-3% on tsens-acyclic; a DRAM-bound random-gather kernel tracked the
drift worse (11%).

The kernel imitates the program's hot paths (sort, group, gather and a
little tuple-keyed dict work on int64 columns of a few MB) and uses only
numpy and the standard library, so no change to the program moves it.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: kernel run time (ms) that defines the reference host speed.
REFERENCE_MS = 10.0
#: rows of the kernel's columns.
ROWS = 1 << 15
#: rows of the dict part.
DICT_ROWS = 1000


class Calibrator:
    """Times kernel runs; :meth:`run` spends about ``seconds`` on them."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._keys = rng.integers(0, ROWS // 4, size=ROWS, dtype=np.int64)
        self._vals = rng.integers(0, 1000, size=ROWS, dtype=np.int64)
        self.samples: List[float] = []
        self.kernel()  # warm up allocator and caches

    def kernel(self) -> int:
        keys, vals = self._keys, self._vals
        order = np.argsort(keys, kind="stable")
        k, v = keys[order], vals[order]
        uniq, starts = np.unique(k, return_index=True)
        sums = np.add.reduceat(v, starts)
        joined = sums[np.searchsorted(uniq, keys)]
        table = {}
        for a, b in zip(uniq[:DICT_ROWS].tolist(), sums[:DICT_ROWS].tolist()):
            table[(a, a + 1)] = table.get((a, a + 1), 0) + b
        return int(joined.sum()) + len(table)

    def run(self, seconds: float = 0.0) -> None:
        """At least one timed kernel run, more until ``seconds`` pass."""
        begin = time.perf_counter()
        while True:
            start = time.perf_counter()
            self.kernel()
            end = time.perf_counter()
            self.samples.append(end - start)
            if end - begin >= seconds:
                return

    def scale(self) -> float:
        """Factor that turns a latency measured now into reference time."""
        return REFERENCE_MS / (1e3 * statistics.median(self.samples))
