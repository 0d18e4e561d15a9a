"""Host seconds scaled to a reference core speed.

The benchmark runs on shared virtual machines whose cores change speed
under it: the same campaign, back to back in one process, takes from 1x to
1.5x the time, with process CPU time equal to wall time, and the slow and
fast stretches last from a second to minutes.  A median over a run cannot
remove that, because a whole run may fall in a slow stretch.

So a timed span is cut into segments of ``SEGMENT_S`` host seconds by a
one-shot interval timer (``SIGALRM``, re-armed after each cut), and at
each cut the gauge times a fixed pure-Python loop (a *spin*).  A segment's
host seconds are scaled by ``REFERENCE_S / spin``: what the segment would
have taken on a core that runs the spin in ``REFERENCE_S``.  The program's
own speed still moves the scaled time one for one, since the spin does not
depend on the program.  The timer cuts anywhere, workload construction and
long kernels included (a cut waits for a running C call to return).

The spin does what the simulator does most: it hashes small keys into a
dict, allocates tuples, appends to a list and sorts it.  A plain
arithmetic loop slows down only about half as much as the simulator in a
slow stretch; this spin tracks it to within a few per cent.

Set-up time is mostly a fresh interpreter importing NumPy and SciPy, which
no spin tracks (scaling by one widened the spread).  Its yardstick is a
fresh interpreter that imports just those (:func:`import_seconds`), timed
before and after each set-up sample: that narrowed the spread of single
samples from 0.20 to 0.05.  It too is independent of the program, so a
program that imports less or sets up faster still shows it in full.

POSIX only (``signal.setitimer``).
"""

from __future__ import annotations

import gc
import signal
import subprocess
import sys
import time

#: Iterations of one spin (2.5 to 4 ms on the reference machine).
LOOPS = 4000

#: Host seconds of one spin at the reference speed: about the faster of
#: the speeds the reference machine (2-core virtual machine, Python 3.11)
#: alternates between.
REFERENCE_S = 2.5e-3

#: What the yardstick process of set-up time runs; it is timed, like a
#: set-up sample, to the line it prints.
REFERENCE_IMPORT = "import numpy, scipy.sparse; print('ready', flush=True)"

#: Host seconds of the yardstick process at the reference speed (about
#: the fastest seen on the reference machine).
REFERENCE_IMPORT_S = 0.40

#: Host seconds between cuts (the spins cost 5-8 % of a span's host time).
SEGMENT_S = 0.05


def spin(loops: int = LOOPS) -> float:
    """Host seconds of a fixed pure-Python loop.

    The cyclic collector is off while it runs, and its objects are freed
    before it is back on, so that the spin's garbage does not trigger
    collections of the program's (which would move peak memory).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        counts: dict = {}
        pairs = []
        for i in range(loops):
            key = i * 7919 % 1021
            counts[key] = counts.get(key, 0) + i
            pairs.append((key, i))
        pairs.sort()
        took = time.perf_counter() - t0
        del counts, pairs
    finally:
        if enabled:
            gc.enable()
    return took


def import_seconds() -> float:
    """Host seconds of a fresh interpreter running ``REFERENCE_IMPORT``.

    Timed to its line on a blocking read: ``wait(timeout=...)`` polls in
    steps of up to 50 ms, which would show in the time.
    """
    cmd = [sys.executable, "-c", REFERENCE_IMPORT]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up yardstick failed (exit {code}): {line!r}")
    return elapsed


class Gauge:
    """Scaled host time of the spans between :meth:`start` and :meth:`stop`.

    The spins themselves are left out of ``host_s`` and ``scaled_s``;
    ``spin_s`` is their own host time.
    """

    def __init__(self) -> None:
        self.host_s = 0.0
        self.scaled_s = 0.0
        self.spin_s = 0.0
        self._mark = None
        self._previous = None
        #: False once :meth:`stop` begins: an alarm already pending then
        #: must not re-arm the timer.
        self._active = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._alarm)
        self._active = True
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SEGMENT_S)

    def stop(self) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._cut()
        self._mark = None

    def _alarm(self, signum, frame) -> None:
        if not self._active:
            return
        self._cut()
        signal.setitimer(signal.ITIMER_REAL, SEGMENT_S)

    def _cut(self) -> None:
        """End the current segment: spin, scale it, start the next one."""
        if self._mark is None:
            return
        segment = time.perf_counter() - self._mark
        took = spin()
        self.host_s += segment
        self.scaled_s += segment * REFERENCE_S / took
        self.spin_s += took
        self._mark = time.perf_counter()
