"""Reference-speed sampling, so that timed metrics do not follow the machine.

The shared machine the benchmark runs on executes the same work up to twice
slower in spells lasting from seconds to minutes.  While a ``Pacer`` is
active, a wall-clock timer interrupts the process every ``PERIOD_S`` and
runs one fixed slice of reference work, timing it.  The slices sample the
machine's speed evenly over the measured interval, whatever the program is
doing, so

    reference seconds = (wall - time spent in slices) * REF_SLICE_S / mean slice

reads the same on a fast and on a slow spell.  The reference work is this
module's own and never changes with the package.

On 2 CPUs (Xeon, 2.1 GHz) the mean numpy slice tracked the time of 2-3 s
CLI passes with a correlation of 0.93-0.99, and the ratio above cut the
variation of the pass times (standard deviation over mean) from 0.09-0.15
to 0.02-0.04; pure-Python slices did a little worse (0.05).
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.01
REF_SLICE_S = 1e-3   # a slice's nominal duration; about its time on 2.1 GHz Xeon


def python_slice() -> None:
    """Interpreter-bound reference work (about 1 ms), for processes that
    must not import numpy before they are timed."""
    s = 0
    for i in range(14000):
        s += (i * 7) % 13


_VECTORS = None


def numpy_slice() -> None:
    """Small-array numpy work (about 1 ms), the kind the package's pair
    loop does."""
    global _VECTORS
    import numpy as np
    if _VECTORS is None:
        _VECTORS = (np.array([0.3, -1.2, 0.7]), np.array([1.1, 0.4, -0.5]))
    v, w = _VECTORS
    x = 0.0
    for _ in range(30):
        c = np.cross(v, w)
        x += float(np.dot(c, v)) + float(np.linalg.norm(c))


class Pacer:
    """Context manager: while active, one slice of ``work`` every PERIOD_S
    of wall time.  ``spent`` and ``slices`` accumulate over every activation."""

    def __init__(self, work=numpy_slice):
        self.work = work
        self.spent = 0.0
        self.slices = 0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.work()
        self.spent += time.perf_counter() - t0
        self.slices += 1

    def __enter__(self) -> "Pacer":
        self.work()  # first call outside the timed slices (numpy set-up)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reading(self) -> dict:
        return {"spent_s": self.spent, "slices": self.slices}


def speed_factor(spent_s: float, slices: int) -> float:
    """Reference seconds per wall second, from ``slices`` slices that took
    ``spent_s`` in all."""
    if slices == 0:  # too short to be sampled; taken at face value
        return 1.0
    return REF_SLICE_S * slices / spent_s


def reference_seconds(wall_s: float, spent_s: float, slices: int) -> float:
    """Wall seconds that include ``slices`` slices taking ``spent_s`` in
    all, as seconds of the program alone at reference speed."""
    return (wall_s - spent_s) * speed_factor(spent_s, slices)
