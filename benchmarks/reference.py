"""A reference kernel that measures how fast the machine runs at the moment.

The reference machine's speed drifts by up to 1.5x, in stretches of
seconds to minutes, and CPU time drifts with wall time.  Raw timings of
the same code therefore spread between runs by more than any useful bound.
The timed run brackets every operation with passes of this kernel and
reports the operation's wall time rescaled to reference speed: multiplied
by ``REFERENCE_S`` over the median time of the passes around it.

The kernel is the benchmark's own code and calls nothing in walshcube, so
no change to the package moves it.  It mixes what the workloads spend
their time on: interpreter bytecode, numpy calls on tiny tables, array
passes that stay in the core's caches and one pass that streams an array
larger than them.  Over 10 s stretches of a drifting machine, the spread
of the median operation time fell from 0.11-0.12 raw to 0.03-0.04
rescaled on `search-pisier` and `desk-eval`; each part alone tracked
one of them markedly worse.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median wall time of one pass between operations on the reference machine
# (2 vCPU Intel Xeon, Python 3.11, numpy 2.4.6 with scipy-openblas, one BLAS
# thread), rounded.
REFERENCE_S = 0.010
WINDOW = 2


class ReferenceKernel:
    """A fixed pass of work; `seconds()` runs it once and returns its wall time."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.tiny = np.arange(32.0).reshape(16, 2)
        self.cached = rng.standard_normal((1 << 12, 4))  # 128 KiB
        self.streamed = rng.standard_normal((1 << 18, 4))  # 8 MiB
        self.seconds()  # fault the pages in before the first timed pass

    def seconds(self) -> float:
        start = time.perf_counter()
        total, seen = 0, {}
        for i in range(12000):
            total += i * 3 % 7
            seen[i & 255] = total
        acc = 0.0
        for i in range(500):
            acc += float(np.abs(self.tiny * 1.0001 + i).max())
        for _ in range(40):
            acc += float((self.cached * 1.5 + self.cached).sum())
        acc += float((self.streamed * 1.5 + self.streamed).sum())
        return time.perf_counter() - start

    @staticmethod
    def rescaled(times: list[float], passes: list[float]) -> list[float]:
        """`times` at reference speed, where `times[i]` ran between `passes[i]` and `passes[i + 1]`.

        Each time is multiplied by ``REFERENCE_S`` over the median of the
        ``WINDOW`` passes on either side of it: that follows the drift,
        which lasts seconds, but not the jitter of a single pass.
        """
        if len(passes) != len(times) + 1:
            raise ValueError(f"{len(times)} times need {len(times) + 1} passes, got {len(passes)}")
        return [
            t * REFERENCE_S / statistics.median(passes[max(0, i + 1 - WINDOW) : i + 1 + WINDOW])
            for i, t in enumerate(times)
        ]

    @staticmethod
    def speed(pass_s: float) -> float:
        """The machine's speed relative to the reference, from the time of a pass."""
        return REFERENCE_S / pass_s

