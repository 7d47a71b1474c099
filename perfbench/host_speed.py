"""Host-speed probe: a fixed pure-Python loop, timed while an operation runs.

On a shared 2-vCPU VM the host ran the same operation up to about 2x slower
for stretches of seconds to minutes, and a whole 25 s run could fall in a slow
stretch. The slow time is not stolen time (an operation's CPU time equalled
its wall time), so no clock of the process can tell it apart. The probe can:
a timer signal runs it every PERIOD seconds on the benchmark's own thread,
between bytecodes of the operation, and the median of its durations is the
host's speed during that operation. Dividing the operation's time by it
cancels the host's state; measured over 25 s windows of one process, the
median of that ratio varied by 3-4% where the wall time varied by 15-26%.
"""

from __future__ import annotations

import signal
import time

PERIOD = 0.025
LOOP = 2000


def _loop():
    d = {}
    for i in range(LOOP):
        d[i % 97] = d.get(i % 97, 0) + i


class HostProbe:
    """Context manager: while entered, times `_loop` every PERIOD seconds.

    `samples` holds the durations of the probes run since the last enter.
    The previous SIGALRM handler is restored on exit.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _fire(self, signum, frame):
        t = time.perf_counter()
        _loop()
        self.samples.append(time.perf_counter() - t)

    def __enter__(self):
        self.samples = []
        self._old = signal.signal(signal.SIGALRM, self._fire)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted I/O
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False
