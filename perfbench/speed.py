"""Machine-speed probe used to report end-to-end times at a reference speed.

On a shared machine the speed of one core drifts by about +-20% over tens
of seconds. Other tenants cause this, not hotlane. The process still has the
CPU the whole time (its CPU time equals its wall time), but every
instruction runs slower. A fixed pure-Python loop slows down by the same
factor. So the benchmark times that loop between CLI commands (and around
each set-up launch) and scales each measured time by ``REFERENCE_S /
probe``: the time the work would have taken at the speed where the loop
takes ``REFERENCE_S``. The loop does not touch hotlane, so a change to
hotlane moves the scaled times exactly as it moves the raw ones. The raw
times are kept in the result file next to the scaled ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

LOOP = 100_000
REFERENCE_S = 0.006  # the loop's typical time on the 2-CPU machine the baseline was taken on


def probe() -> float:
    """Median time, in seconds, of three runs of the fixed loop."""
    samples = []
    for _ in range(3):
        start = perf_counter()
        total = 0.0
        for i in range(LOOP):
            total += i * 0.5
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def at_reference(seconds: float, probes: list[float]) -> float:
    """``seconds`` measured while the probes around it read ``probes``, at reference speed."""
    return seconds * REFERENCE_S / statistics.fmean(probes)
