"""Host-speed calibration for the untraced runs.

The shared host this benchmark runs on changes speed by up to 1.5x within
seconds, and the change shows in CPU time as well as wall time, so a timing
taken alone mostly measures the host. A :class:`Metronome` interleaves a
fixed calibration slice with the program: a wall-clock interval timer
interrupts the run every ``PERIOD_S`` seconds and its handler times one
slice. The work between two slices is rescaled by the speed those slices
saw, and the slices themselves are left out, which gives every interval of
the run in *reference seconds*: the time it would take on a host where one
slice takes ``SLICE_REF_S``.

The slice mixes the two kinds of work setvote does: interpreter work in
cache (calls, dict and list traffic, integer arithmetic) and reads scattered
over a table several times the size of a core's L2 cache. Either part alone
tracks the program badly: across the host's slow and fast phases the
program's time moved about 0.75 times as much as the in-cache part's, and
about 1.1 to 1.2 times as much as the scattered part's; with the two mixed as
below it moved 0.86 to 0.97 times as much as the slice's, on both per-item
workloads (Intel Xeon, 2 vCPUs, 2 MiB L2). The slice is long enough (about
5 ms) that its own warm-up after an interruption does not dominate.
"""

from __future__ import annotations

import array
import signal
import time

CACHE_ITERATIONS = 6000
SCATTER_READS = 12000
# 8 MiB, four times the L2 cache of the machine this was written on
TABLE = array.array("q", range(1 << 20))
TABLE_MB = len(TABLE) * TABLE.itemsize / 2**20
# duration of one slice at the reference speed (its median duration on the
# machine this was written on)
SLICE_REF_S = 0.005
PERIOD_S = 0.1
# set-up lasts a fraction of a second, so it is sampled more densely
SETUP_PERIOD_S = 0.02


def calibration_slice() -> float:
    """Run one fixed slice of calibration work; return its duration."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(CACHE_ITERATIONS):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
        row = [i & 7, key, acc & 255]
        row.sort()
        acc += row[1] ^ len(table)
    big = TABLE
    mask = len(big) - 1
    idx = 1
    for _ in range(SCATTER_READS):
        idx = (idx * 1103515245 + 12345) & mask
        acc ^= big[idx]
    return time.perf_counter() - t0


class Metronome:
    """Calibration slices at a fixed wall-clock period while a run proceeds.

    ``start`` and ``stop`` each run a slice, so every moment between them
    lies between two slices. ``scale(starts, ends)`` turns intervals measured
    with ``time.perf_counter`` in that window into reference seconds.
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.begin: list[float] = []
        self.end: list[float] = []
        self._previous = None

    def _tick(self, *_) -> None:
        t0 = time.perf_counter()
        calibration_slice()
        self.begin.append(t0)
        self.end.append(time.perf_counter())

    def start(self) -> None:
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    @staticmethod
    def settings() -> dict:
        return {
            "slice_ref_s": SLICE_REF_S,
            "period_s": PERIOD_S,
            "setup_period_s": SETUP_PERIOD_S,
            "table_mb": TABLE_MB,
        }

    def start_speed(self) -> float:
        """Reference seconds per second just after ``start``, from the first
        three slices (used for the moments before the first slice)."""
        took = sorted(e - b for b, e in zip(self.begin[:3], self.end[:3]))
        return SLICE_REF_S / took[len(took) // 2]

    @property
    def slices(self) -> int:
        return len(self.begin)

    def scale(self, starts, ends, rescale: bool = True):
        """Reference seconds of work inside each interval ``[start, end]``.

        Reference time is a piecewise linear function of perf_counter time:
        flat during a slice, and in the gap between two slices rising at
        ``SLICE_REF_S`` divided by the median duration of the four nearest
        slices (two on each side; robust to one slice that was preempted).
        With ``rescale=False`` the gaps count at their measured length, which
        gives the raw time of the work with the slices left out.
        """
        import numpy as np

        begin = np.asarray(self.begin)
        end = np.asarray(self.end)
        took = end - begin
        gaps = len(begin) - 1
        local = np.array([
            np.median(took[max(0, j - 1): j + 3]) for j in range(gaps)
        ])
        rising = begin[1:] - end[:-1]
        if rescale:
            rising = rising * SLICE_REF_S / local
        knots = np.empty(2 * len(begin))
        knots[0::2] = begin
        knots[1::2] = end
        level = np.zeros(2 * len(begin))
        level[2::2] = np.cumsum(rising)
        level[3::2] = level[2::2]
        s = np.asarray(starts, dtype=float)
        e = np.asarray(ends, dtype=float)
        if s.size and (s.min() < knots[0] or e.max() > knots[-1]):
            raise ValueError("interval outside the metronome's window")
        return np.interp(e, knots, level) - np.interp(s, knots, level)
