"""Host speed, measured with fixed pure-Python work that is not the program's.

On a shared host the speed of a vCPU follows its neighbours' load: on the
2-vCPU host the benchmark was defined on, the same Python loop ran up to 1.8
times slower for a minute at a time, and faster again for the next one, on
both vCPUs alike.  Raw times of two runs of the same code, a few minutes
apart, differed by more than any bound worth setting (the rates of the middle half
of ten 15 s runs spread over 14-32% of their median).  So the benchmark measures the
host's speed next to every measurement, with a burst of fixed work (exact
fractions, dicts and tuples, like the program's own arithmetic), and reports
every time at the nominal speed: the measured time times
(NOMINAL_S / burst time) ** SENSITIVITY, the burst time being the median of
the bursts nearest to it.  A slower or faster program moves the measured time
and leaves the bursts alone, so the reported time moves with it.

SENSITIVITY is how far, in logarithm, the program's time follows the burst
time as the host's speed swings.  It is below 1 because the program follows
the swings less than a short loop does, whether the loop is this one, sparse
polynomial products, a pointer chase through 8 MB or a mix of json, re,
sorting and set work.  Fitted over sets of ten 15 s runs of each workload on
that host (the logarithm of the raw case rate against that of the median
burst time, correlation 0.85-0.99), it came out between 0.44 and 0.89,
differing between sets of the same workload as much as between workloads;
0.7 gave the smallest spread of the worst metric over two sets.  The report
prints the raw figures next to the corrected ones.

The collector is off during a burst, so that the program's live objects do
not slow the bursts and so hide a slowdown of the program.  What the program
leaves in the processor's caches still reaches the bursts a little: a burst
right after vertex-zero cases took 5% longer than one right after another
burst (none for finite-routes and brion-polytopes).
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# median burst time over 54 runs on the 2-vCPU host the benchmark was
# defined on
NOMINAL_S = 0.032
# at most this much case time between two bursts
EVERY_S = 1.0
# times the fixed work runs in one burst: long enough that a burst averages
# over the neighbours' own bursts of load, as a case does
REPEAT = 10
# how far the program's time follows the burst time, in logarithm
SENSITIVITY = 0.7
# bursts on each side of a stretch of cases that set its speed
NEAREST = 3


def _work():
    acc, table = Fraction(1, 3), {}
    for i in range(360):
        acc = (acc * Fraction(i + 2, i + 1) + Fraction(1, i + 7)) % 5
        key = (i % 97, i % 13, acc.denominator % 11)
        table[key] = table.get(key, 0) + acc.numerator % 1000
    return len(table)


def burst():
    """Seconds the fixed work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(REPEAT):
            _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def at_nominal(seconds, bursts):
    """`seconds` at the nominal speed, given the burst times nearest to it."""
    return seconds * (NOMINAL_S / statistics.median(bursts)) ** SENSITIVITY
