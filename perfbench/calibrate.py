"""Host-speed calibration of the benchmark's times.

On a shared host the CPU time of the same op swings by up to 1.8x as
neighbours come and go, in spells from seconds to minutes.  A fixed loop of
exact rational arithmetic (``sample``), timed just before and just after an
op, slows down with it: the program spends most of its time in ``Fraction``
arithmetic too.  ``scale`` turns a measured time into reference seconds, the
time the same work takes on the reference host when undisturbed.

The loop runs with the garbage collector off, so the size of the program's
heap does not change its time.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# CPU seconds of one ``sample()`` on the reference host (2 vCPUs of a shared
# x86-64 host, Python 3.11) when undisturbed: the faster of the two modes
# that samples there fall into.
REFERENCE_S = 0.0060
STEPS = 750
# Terms of 130-170 bits, and sums cut back below 400 bits.  Timed next to
# repeated ops of one body on the reference host, the op time of a dim-2 body
# followed this loop's time with a log-log slope of 1.0 and a dim-4 body with
# 0.87; a loop on small fractions gave 0.82 and 0.73, over-correcting both.
STEP = Fraction(3**80 + 1, 7**60 + 3)
LIMIT_BITS = 400


def _loop() -> Fraction:
    total = Fraction(0)
    for i in range(1, STEPS):
        total += STEP * Fraction(i, i + 5)
        if total.denominator.bit_length() > LIMIT_BITS:
            total = Fraction(total.numerator % (1 << 200) + 1,
                             total.denominator % (1 << 190) + 1)
    return total


def sample() -> float:
    """CPU seconds of one run of the calibration loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.process_time()
        _loop()
        return time.process_time() - t0
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between calibration samples ``before`` and
    ``after``, in reference seconds."""
    return seconds * 2 * REFERENCE_S / (before + after)
