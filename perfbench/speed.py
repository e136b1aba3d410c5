"""The machine's current speed, read from a fixed reference loop.

A shared machine's speed drifts: on a 2-core x86-64 cloud box, CPU-bound
units of the same seed took up to 1.8x longer for seconds to minutes at
a time while neighbours loaded the host (CPU time grew with wall time,
so it is not time spent waiting), and a pure-Python-plus-numpy loop
slowed at the same moments. The runner times this loop just before and
just after every unit and scales the unit's times by ``REFERENCE_S``
over the mean of the two: every reported time is in seconds *at
reference speed*, the speed at which the loop takes ``REFERENCE_S``.
The loop is benchmark code that no change to the program touches, so a
program change moves the scaled times exactly as it moves the raw ones;
the machine's drift cancels as far as the workload slows as the loop
does (see ``perfbench/README.md``). The raw medians are printed beside
the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy

#: Seconds one reference loop takes at reference speed (about its time
#: on an unloaded 2-core x86-64 cloud box). A fixed constant: it sets
#: the scale of every reported time and must not change between runs
#: that are compared.
REFERENCE_S = 0.015
#: Loops per probe at least; the probe reports their median.
PROBE_LOOPS = 5
#: Share of the preceding unit's time a probe lasts, so that the probes
#: around a long unit average over more of the machine's fluctuations.
PROBE_SHARE = 0.03


def reference_loop() -> float:
    """Run the fixed reference work once; return its wall seconds.

    Interpreter work (integer arithmetic, dict updates) and numpy work
    on arrays of a few hundred KiB, like the workloads' mix.
    """
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    total = 0
    for i in range(40_000):
        total += i * i % 7
        counts[i & 255] = counts.get(i & 255, 0) + 1
    values = numpy.arange(1.0, 50_001.0)
    for _ in range(20):
        values = numpy.sqrt(values + 1.0)
        values.sort()
    return time.perf_counter() - t0


def probe(after_seconds: float = 0.0) -> float:
    """The median wall seconds of reference loops run back to back.

    Runs :data:`PROBE_SHARE` of ``after_seconds`` (the time of the unit
    just measured) worth of loops, and at least :data:`PROBE_LOOPS`.
    """
    loops = max(PROBE_LOOPS, round(after_seconds * PROBE_SHARE / REFERENCE_S))
    return statistics.median(reference_loop() for _ in range(loops))
