"""Host-speed sampling, so host times survive a noisy, shared machine.

The machine's speed is not constant.  On the 2-vCPU Xeon VM where this
benchmark was defined, the same interpreter-bound loop switches between
a fast and a ~1.5x slower state every few seconds (neighbours on the
sibling hyperthreads), and the mix drifts over minutes.  One pass of a
workload therefore took anywhere from 1.2 to 2.0 s, and the spread
between runs swamped any change worth detecting.

:class:`SpeedSampler` measures the speed the pass actually ran at.
A ``SIGALRM`` every ``PERIOD_S`` runs a fixed, allocation-free
calibration chunk between two bytecodes of whatever the pass is doing,
and times it in thread CPU time.  A host interval is then reported as

    (raw seconds - time spent in the sampler) * CHUNK_REF_S / mean chunk time

where the chunk mean is taken over the samples of the same phase.
That is *normalised host seconds*: what the interval would have taken
had the machine run the chunk at ``CHUNK_REF_S`` throughout.  In a
14-sample probe this cut the spread of one unit's time from 19% to 7%
of its median.  The sampler costs ~1.5% of the pass; its own time is
subtracted from the intervals above.  Interval timers are not
inherited across ``fork``, so pool workers are never interrupted.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Dict, List

#: Calibration chunk time at the reference speed: the chunk's fast-state
#: time on the machine where the benchmark was defined.
CHUNK_REF_S = 250e-6

#: Sampling period (50 Hz).
PERIOD_S = 0.02

_TABLE = {(i, i & 3): i * 7 for i in range(64)}


def _chunk() -> int:
    """Interpreter-bound work with a fixed, cache-resident footprint."""
    table = _TABLE
    acc = 0
    for i in range(1500):
        acc = (acc + table[(i & 63, i & 3)]) & 0xFFFF
    return acc


class SpeedSampler:
    """Samples the calibration chunk's speed, tagged by pass phase."""

    def __init__(self) -> None:
        self.phase = "setup"
        #: phase -> chunk thread-CPU seconds of each sample.
        self.chunks: Dict[str, List[float]] = {}
        #: Wall seconds spent inside the handler so far (all phases).
        self.handler_s = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        cpu = time.thread_time()
        _chunk()
        self.chunks.setdefault(self.phase, []).append(time.thread_time() - cpu)
        self.handler_s += time.perf_counter() - start

    def calibrate(self, count: int = 50) -> None:
        """Sample the chunk ``count`` times now, in the current phase.

        Brackets intervals too short for the 50 Hz sampler to catch
        more than a few samples of (the sub-millisecond replays).
        """
        samples = self.chunks.setdefault(self.phase, [])
        for _ in range(count):
            cpu = time.thread_time()
            _chunk()
            samples.append(time.thread_time() - cpu)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, *phases: str) -> float:
        """Mean chunk time of ``phases`` over the reference time.

        Falls back to every sample when those phases caught none (an
        interval shorter than the sampling period).
        """
        samples = [s for p in phases for s in self.chunks.get(p, ())]
        if not samples:
            samples = [s for group in self.chunks.values() for s in group]
        if not samples:
            return 1.0
        return statistics.fmean(samples) / CHUNK_REF_S


def normalised(raw_s: float, sampler_s: float, factor: float) -> float:
    """Host seconds at the reference speed (see the module docstring)."""
    return (raw_s - sampler_s) / factor
