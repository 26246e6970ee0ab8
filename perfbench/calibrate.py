"""Machine-speed calibration for the timed metrics.

The host under this benchmark's 2-vCPU VM slows it by up to 40% for tens
of seconds at a time (a noisy neighbour): the same pass over
40 ``kernel-large`` inputs took 2.0 s in one stretch and 2.8 s in the next.
A fixed job that uses no ``qt2ec`` code -- the benchmark's own reference
solver on one fixed graph -- slows in step, so workloads interleave it
with their ops and scale each op's time by ``NOMINAL_S`` over the
calibration job's median time within half a second of it.  On logs of
eight 20-second runs per workload, the quartile spread of the runs'
throughput fell from 27% raw to 4% scaled on ``kernel-large``, and from
33% to 3% on ``cli-mixed``.  A scaled time reads "seconds on a machine
where the calibration job takes NOMINAL_S"; a change to ``qt2ec`` moves
it in full, because the calibration job never runs ``qt2ec`` code.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from random import Random
from time import perf_counter

import inputs
import reference

NOMINAL_S = 0.003
_GRAPH = inputs.gnp(Random("perfbench-calibration"), 48, 0.5)


def calibration_run() -> float:
    """Seconds one run of the calibration job takes now."""
    t0 = perf_counter()
    reference.solve(*_GRAPH)
    return perf_counter() - t0


class Calibrator:
    """Runs the calibration job once per ``EVERY_S`` of op time and scales
    each op by the median of the samples taken from ``WINDOW_S`` before it
    started to ``WINDOW_S`` after it ended.

    Ops longer than ``WINDOW_S`` (whole sweeps) stay unscaled: samples
    taken around a long op do not see the jitter inside it, and scaling
    made such ops no steadier in tests.
    """

    EVERY_S = 0.05
    WINDOW_S = 0.5

    def __init__(self) -> None:
        self._sample_times: list[float] = []
        self._samples: list[float] = []
        self._ops: list[tuple[float, float]] = []
        self._since = 0.0

    def _sample(self) -> None:
        self._sample_times.append(perf_counter())
        self._samples.append(calibration_run())

    def after_op(self, elapsed: float) -> None:
        """Record an op that has just ended, taking ``elapsed`` seconds."""
        end = perf_counter()
        self._ops.append((end - elapsed, end))
        if elapsed > self.WINDOW_S:
            return
        self._since += elapsed
        if self._since >= self.EVERY_S:
            self._since = 0.0
            self._sample()

    def scaled(self) -> list[float]:
        """Every recorded op's time, scaled to the nominal machine speed."""
        self._sample()  # so the last ops have a sample after them
        out = []
        for start, end in self._ops:
            if end - start > self.WINDOW_S:
                out.append(end - start)
                continue
            lo = bisect_left(self._sample_times, start - self.WINDOW_S)
            hi = bisect_right(self._sample_times, end + self.WINDOW_S)
            window = self._samples[lo:hi] or self._samples
            out.append((end - start) * NOMINAL_S / statistics.median(window))
        return out
