"""Machine-speed calibration for timings on a shared host.

On the 2-core shared virtual machine this benchmark was tuned on, the same
pure-Python work runs up to 50% slower at some moments than at others, in
CPU time as in wall time, because other tenants share the physical cores.
The speed changes within a fraction of a second (the autocorrelation
of 0.2 s averages is 0.84 at a lag of 0.2 s and 0.5 at 1 s), and runs a
minute apart differ by about 20%, more than any bound worth setting.

So while calls are timed, a timer signal runs a fixed kernel (exact rational
Gauss-Jordan on a constant 6x6 matrix, the kind of work the solvers do)
every ``PERIOD`` seconds and logs how long it took. The kernel's time is
taken out of the call it interrupted, and the call's wall time is scaled by
``REFERENCE_S`` over the kernel's mean time (10% but at least one run
trimmed at each end, to drop interrupts) from ``PERIOD`` before the call to
``PERIOD`` after it:

    scaled = (wall - kernel runs inside the call) * REFERENCE_S / kernel mean

Scaled seconds are the wall seconds the call would take on a host that runs
the kernel in ``REFERENCE_S``, as this host does at its usual speed. On
repeated cold calls of ``check_nondegenerate`` the scaling cut the
coefficient of variation from 10% to 3% for kt6 (2.4 s calls), from 12% to
5% for kt5 and from 18% to 8% for kt4 (0.06 s calls). The kernel shares no
code with the package, so a change to the package cannot move it. The
handler runs between bytecodes of the one thread that makes the calls, so
it never overlaps them.

Process start-up and imports do not slow down with the kernel: scaling
``setup_s`` by it widened the set-up spread. A bare interpreter started the
same way does track them, so each set-up is scaled by ``STARTUP_REFERENCE_S``
over the start-up time of a bare interpreter timed just before it. Over ten
trials of 15 children each, that cut the spread (quartile distance over
median) of the median set-up from 23% to 5%.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

REFERENCE_S = 0.0009
PERIOD = 0.02
STARTUP_REFERENCE_S = 0.045
_MATRIX = tuple(
    tuple(Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(6))
    for i in range(6)
)


def _kernel() -> None:
    a = [list(row) for row in _MATRIX]
    for c in range(6):
        p = next(r for r in range(c, 6) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(6):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]


def bare_startup_seconds() -> float:
    """Wall time until a bare interpreter, started like a worker, prints."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", "print('ready')"], stdout=subprocess.PIPE
    )
    try:
        proc.stdout.readline()
        return time.perf_counter() - t0
    finally:
        proc.communicate()


class SpeedLog:
    """Kernel times sampled from a timer signal while the log is open.

    Use as a context manager around the timed calls; ``clock()`` reads the
    time with the kernel runs left out, and ``scale`` converts one call.
    """

    def __init__(self):
        self.at: list[float] = []  # start of each kernel run
        self.took: list[float] = []  # its duration
        self._kernel_total = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self._kernel_total += t1 - t0

    def __enter__(self) -> "SpeedLog":
        # the interpreter specializes the kernel's bytecode over its first
        # runs; time only the warm kernel
        for _ in range(50):
            _kernel()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> tuple[float, float]:
        """(wall time, wall time less the kernel runs so far)."""
        now = time.perf_counter()
        return now, now - self._kernel_total

    def settle(self) -> None:
        """Keep sampling a little longer, to cover the last call."""
        time.sleep(3 * PERIOD)

    def kernel_near(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.at, start - PERIOD)
        hi = bisect.bisect_right(self.at, end + PERIOD)
        # the window spans two periods, so once the log covers it, it holds a run
        near = sorted(self.took[lo:hi] or self.took[max(0, lo - 1):lo + 1])
        cut = max(1, len(near) // 10) if len(near) >= 3 else 0
        return statistics.mean(near[cut:len(near) - cut])

    def scale(self, start: float, end: float, net: float) -> float:
        """Scaled seconds of a call that ran from ``start`` to ``end`` and
        spent ``net`` seconds outside the kernel. Call it after the log
        covers ``end + PERIOD``, or it uses what it has."""
        return net * REFERENCE_S / self.kernel_near(start, end)
