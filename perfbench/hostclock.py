"""Host-normalized time: wall time rescaled by how fast the host runs now.

The benchmark shares its cores with other tenants. A busy neighbour on
the same physical core slows pure-Python code by up to about 1.5x, for
stretches of seconds to minutes, so identical runs minutes apart differ by
30% in wall time: no statistic taken inside one run removes that. A fixed
pure-Python reference loop, timed just before each measured step, slows
down the same way. Over five 40 s compile-cold runs on a 2-core host the
median compile took 168-216 ms (IQR / median 0.26) and the reference loop
3.0-4.0 ms (0.30), while their per-op ratio moved by 0.02.

So every reported time is a *host-normalized* time: the wall time
multiplied by ``REFERENCE_SECONDS`` over the reference loop's time just
before it, i.e. the time the step would take on a host where the loop
takes exactly ``REFERENCE_SECONDS``. The loop is the benchmark's own code
and never changes with the program, so a program that gets faster or
slower moves normalized times exactly as it moves wall times.
"""

from __future__ import annotations

import time

#: Iterations of the reference loop.
REFERENCE_LOOP = 40_000
#: Normalized length of the reference loop: about its median time on a
#: 2-core x86 host, so normalized times read close to wall times there.
REFERENCE_SECONDS = 0.003


def reference_seconds() -> float:
    """Wall time of one pass of the reference loop."""
    started = time.perf_counter()
    total = 0
    for number in range(REFERENCE_LOOP):
        total += number * number % 7
    return time.perf_counter() - started


def scale() -> float:
    """Factor that turns a wall time measured now into a normalized one."""
    return REFERENCE_SECONDS / reference_seconds()
