"""The host's speed, sampled around and during a timed interval, to scale it.

The virtual CPUs of a shared host need not keep one speed.  On a 2-vCPU
Xeon VM the same ``groups`` pass took 2.2 s for half a minute and 3.6 s for
the next, and a fixed pure-Python loop slowed by the same factor at the same
moments (see README.md, "Why times are scaled").  Medians over a run cannot
remove a slowdown that lasts the whole run.

So the speed is sampled: a small fixed chunk of pure-Python work (tuples,
dicts, sets, calls: the kind of work posetlie does) is timed in thread CPU
time, and its speed is ``REFERENCE_S`` divided by that time.  A pass is
sampled while it runs and just before and after it; a set-up, too short
for that, just before and after.  A time scaled to the reference speed is
the wall time times the mean speed of its samples.  On a host that runs the
chunk in exactly ``REFERENCE_S``, the scaled time is the wall time.  The
chunk uses nothing from posetlie, so a change to the program moves the
scaled time as it moves the wall time.
"""

from __future__ import annotations

import threading
import time

REFERENCE_S = 0.0005  # the chunk's CPU time at the reference speed
PERIOD_S = 0.04  # a pass is sampled every 40 ms: about 1% of its time
BRACKET = 8  # samples taken just before and just after every timed interval


def chunk():
    """A fixed amount of pure-Python work, about half a millisecond."""
    seen = set()
    table = {}
    total = 0
    for i in range(700):
        key = (i & 31, i >> 5, i % 7)
        table[key] = table.get(key, 0) + 1
        seen.add(key[::-1])
        total += len(key) + abs(-i)
    return total + len(seen) + len(table)


def sample():
    """The host's speed now, as REFERENCE_S over the chunk's CPU time."""
    start = time.thread_time()
    chunk()
    return REFERENCE_S / max(time.thread_time() - start, 1e-9)


def bracket(speeds):
    """Append BRACKET samples to `speeds`."""
    for _ in range(BRACKET):
        speeds.append(sample())


class Sampler:
    """Samples the speed from a background thread every PERIOD_S seconds.

    Python's GIL runs the sampling thread and the pass in turn, so each
    sample times the chunk on the core the pass is using, at that moment.
    """

    def __init__(self):
        self.speeds = []
        self.done = threading.Event()
        self.thread = threading.Thread(target=self.loop, daemon=True)

    def loop(self):
        while not self.done.wait(PERIOD_S):
            self.speeds.append(sample())

    def __enter__(self):
        chunk()  # warm the chunk's code before the first sample
        bracket(self.speeds)
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.done.set()
        self.thread.join()
        bracket(self.speeds)
        return False


def mean_speed(speeds):
    return sum(speeds) / len(speeds)
