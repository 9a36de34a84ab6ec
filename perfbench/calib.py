"""Machine-speed calibration for the benchmark's timings.

The cores this benchmark was written on change speed by 35-70% for
stretches of one to tens of seconds (a fixed loop's CPU time rises with its
wall time, so it is not scheduling).  Timings are therefore taken between
runs of a fixed reference loop of the same kind of work, and reported in
reference seconds:

    reported = measured * nominal / (mean of the loop's times just before and after)

There are two loops.  Most of the package's time is exact rational
arithmetic, timed against `loop_seconds` (NOMINAL_S).  The float path of
`cdf_many` is vectorized numpy work, which the machine slows by other
amounts than it slows the interpreter: over 30 fresh processes its time
correlated 0.8 with the float loop's and 0.1-0.3 with the rational one's,
so it is timed against `float_loop_seconds` (NOMINAL_FLOAT_S).

The nominal times are constants, so a change to the package moves reported
times exactly as it moves measured ones at a fixed machine speed.  The raw
times are kept in the run record.
"""

import gc
import time
from fractions import Fraction

import numpy as np

# medians of `loop_seconds()` and `float_loop_seconds()` on the machine the
# bounds were set on
NOMINAL_S = 0.0060
NOMINAL_FLOAT_S = 0.0030

_POINTS = np.linspace(0.0, 1.0, 20_000)
_COEFFS = [(-1.0) ** i / (i + 1) for i in range(60)]


def _loop() -> None:
    x = Fraction(1, 3)
    for i in range(1, 800):
        x = x * Fraction(7, 5) + Fraction(1, i)
        if x.denominator.bit_length() > 2000:
            x = Fraction(1, 3)


def _float_loop() -> None:
    # the shape of `cdf_many`'s float path: Horner sums of the value and its
    # error bound over an array of points
    s = np.zeros_like(_POINTS)
    a = np.zeros_like(_POINTS)
    for c in _COEFFS:
        s = s * _POINTS + c
        a = a * _POINTS + abs(c)


def _fastest(loop) -> float:
    """Fastest of three timed runs of a loop, with the cyclic GC paused.

    The fastest run is the core's current speed; a slower one met an
    interrupt, a collection of the caller's heap or a clock ramping up.
    """
    times = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            loop()
            times.append(time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return min(times)


def loop_seconds() -> float:
    return _fastest(_loop)


def float_loop_seconds() -> float:
    return _fastest(_float_loop)


def factor(before: float, after: float, nominal: float = NOMINAL_S) -> float:
    """Scale from measured to reference seconds for work between two loop timings."""
    return nominal / ((before + after) / 2)
