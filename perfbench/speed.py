"""The machine's speed at a moment, from fixed calibration work.

On a shared host the CPU speed of a core swings, in spells of a fraction of
a second to tens of seconds, by up to 2x: the same job takes 130 ms in one
spell and 210 ms in the next.  Wall times are therefore scaled to a
reference speed: a run times a calibration right before every job and once
after the last, and ``scale`` multiplies each job's wall time by
``ref / (median of the calibrations around it)``.  A job's scaled time is its
wall time on a machine where one calibration takes ``ref`` seconds.

The in-process calibration, ``calibrate``, is a loop that does the kind of
work the package does (``Fraction`` arithmetic, integer lists and dicts, a
dense matrix rebuilt entry by entry); work in child processes is calibrated
by ``calibrate_start``, the start of a bare interpreter.  Neither calls
``hjtoric``, so a change to the package moves scaled times exactly as it
moves wall times, while a spell of the host moves the calibration and the
jobs alike, and cancels.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction

REF_S = 5.0e-3  # the median calibrate() in runs on the machine the benchmark was tuned on
REF_START_S = 15e-3  # the median calibrate_start() there

_N = 160
_MATRIX = tuple(tuple((i * 7 + j * 3) % 5 - 2 for j in range(_N)) for i in range(_N))


def _loop() -> int:
    acc = 0
    for r in range(2):
        s = Fraction(0)
        for i in range(40):
            x = Fraction(i * 7 % 13 + 1, i % 5 + 1)
            s += x * x
        d = {}
        for i in range(600):
            d[i % 97] = d.get(i % 97, 0) + (i * 2654435761 >> 7)
        m = [[(i * j + r) % 11 - 5 for j in range(12)] for i in range(12)]
        t = [sum(x * y for x, y in zip(row, col)) for row in m for col in zip(*m)]
        acc += s.numerator % 7 + len(d) + sum(t)
    # a dense matrix rebuilt entry by entry, as a blowdown rebuilds a lattice:
    # it runs from the caches' outer levels, which a busy neighbour slows more
    m = [row[0] for row in _MATRIX]
    rows = tuple(tuple(row[l] + m[j] * m[l] for l in range(1, _N))
                 for j, row in enumerate(_MATRIX) if j)
    return acc + len(rows)


def calibrate() -> float:
    """Seconds for one pass of the loop."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def calibrate_start() -> float:
    """Seconds for a fresh interpreter to start and exit (``python -I -S -c
    pass``): the calibration for work done in child processes, which a
    loop in this process follows badly."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], stdin=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


def scale(times: list[float], cal: list[float], ref: float = REF_S) -> list[float]:
    """Each time in ``times`` at the reference speed; ``cal`` has one
    calibration before each time and one after the last, and ``ref`` is the
    calibration at the reference speed.  A time is scaled by the median of
    the four calibrations nearest to it, two before and two after, so that
    one calibration an interrupt hit moves nothing."""
    assert len(cal) == len(times) + 1
    return [t * ref / statistics.median(cal[max(0, i - 1):i + 3]) for i, t in enumerate(times)]
