"""Fixed pure-numpy loop that measures how fast the machine runs right now.

On a shared machine the speed of a core drifts by up to a factor of two
over tens of seconds, and the drift reaches process CPU time too, so
repeating a workload cannot average it away.  The loop below does the
same kind of work as quniverse (small complex matrix products and a 4x4
Hermitian eigendecomposition per iteration).  :class:`SpeedSampler` times
a short run of it every ``INTERVAL_S`` while a repetition runs, and a
repetition's calibrated time is

    calibrated_s = (wall_s - sampler_s) * REFERENCE_ITERATION_S / iteration_s

where ``iteration_s`` is the median per-iteration time of the samples
taken during that repetition.  :func:`speed_factor` gives the same
scaling for one moment, for a process start-up too short to sample.

``REFERENCE_ITERATION_S`` sits mid-range of the per-iteration times seen
on a 2-vCPU Intel Xeon VM with numpy 2.4.6 and scipy-openblas 0.3.31
pinned to one thread (1.5e-5 to 3.1e-5 s), so calibrated seconds read
close to wall seconds there.  The workloads slow down somewhat less than
the loop does, so the scaling over-corrects a little; on that VM it still
cut the run-to-run spread of the audit throughput from about 30% to 10%
of the median.
"""

import signal
import statistics
import time

import numpy as np

REFERENCE_ITERATION_S = 2.0e-5
#: iterations of the loop timed before and after a workload, for the record
RECORD_ITERATIONS = 1000
#: iterations per sample and wall time between samples: about 1% of the run
SAMPLE_ITERATIONS = 50
INTERVAL_S = 0.1

_A = np.arange(16, dtype=float).reshape(4, 4) / 16.0
_M = _A + 1j * _A.T


def loop_s(iterations: int = RECORD_ITERATIONS) -> float:
    """Wall seconds for ``iterations`` rounds of the fixed loop."""
    start = time.perf_counter()
    for _ in range(iterations):
        h = _M @ _M.conj().T
        np.linalg.eigh(h)
        np.abs(np.trace(h))
    return time.perf_counter() - start


def speed_factor(samples: int = 9) -> float:
    """Calibrated seconds per wall second at this moment."""
    sample_s = statistics.median(loop_s(SAMPLE_ITERATIONS) for _ in range(samples))
    return REFERENCE_ITERATION_S * SAMPLE_ITERATIONS / sample_s


class SpeedSampler:
    """Samples the loop on a wall-clock timer while the block runs.

    The samples run from a ``SIGALRM`` handler in the main thread, between
    bytecodes of whatever is being measured; ``spent_s`` is their total so
    it can be taken out of the measured time.  ``tick`` may be replaced
    (by a traced wrapper, say) before entering the block.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0
        self.tick = self._tick
        self._previous = None

    def _tick(self):
        elapsed = loop_s(SAMPLE_ITERATIONS)
        self.samples.append(elapsed)
        self.spent_s += elapsed

    def _handler(self, signum, frame):
        self.tick()

    def __enter__(self):
        self.samples = []
        self.spent_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def iteration_s(self) -> float:
        """Median per-iteration time of the samples taken in the block."""
        # a block shorter than the interval gets one sample right after it
        samples = self.samples or [loop_s(SAMPLE_ITERATIONS)]
        return statistics.median(samples) / SAMPLE_ITERATIONS
