"""Host-speed calibration for the benchmark's times.

On a shared 2-vCPU VM the same pass can take 6.5 s for a minute and
10.5 s the next: neighbours on the host contend for the shared caches
and memory bandwidth, and CPU time slows down with wall time, so neither
clock is steady on its own.  A fixed reference computation slows down
with them.  While a pass runs, ``Sampler`` times that computation every
``TICK_S`` seconds of wall time, and the benchmark multiplies each
command's time by ``scale`` of the samples taken while it ran, which
gives seconds at the speed of an unloaded host.  The samples' own time
is subtracted from the measured commands.

The reference work slows down more than fhalg does: over 68 passes of
the three workloads on that VM, log pass time rose by 0.70 times log
sample time (correlation 0.92 to 0.96); against a variant of the
reference work, by 0.68 to 0.99 depending on the workload.  ``scale``
therefore raises the speed ratio to the power ``ALPHA`` = 0.8, which
left the least spread between passes over both sets of measurements.

The reference work uses only the standard library, so no change to
``fhalg`` can move it.  It mixes what fhalg's passes do: ``Fraction``
elimination on a small matrix, the same over ints mod p, and
``Fraction`` products and tuple-keyed dict lookups spread over some
8 MB, which miss the per-core caches as fhalg's larger tensors do.
"""

from __future__ import annotations

import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# One sample of reference_work() on the unloaded host the README's
# figures come from (2-vCPU Xeon VM, Python 3.11.7): the fastest
# sustained phase seen there.  A constant; it only sets the scale.
REFERENCE_S = 0.0060
TICK_S = 0.25
ALPHA = 0.8

_rng = random.Random(20259)
_FRACTIONS = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 9))
               for _ in range(9)] for _ in range(8)]
_P = 10007
_INTS = [[_rng.randrange(1, _P) for _ in range(24)] for _ in range(18)]
_SPREAD = 40_000
_TABLE = [Fraction(_rng.randint(-99, 99), _rng.randint(1, 99))
          for _ in range(_SPREAD)]
_INDEX = {(i, i * 7 % 1000): i for i in range(_SPREAD)}
_KEYS = [_rng.randrange(1, _SPREAD) for _ in range(800)]


def reference_work() -> None:
    """The fixed computation; about REFERENCE_S seconds on that host."""
    m = [row[:] for row in _FRACTIONS]
    for c in range(len(m)):
        for r in range(len(m)):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    m = [row[:] for row in _INTS]
    for c in range(len(m)):
        inv = pow(m[c][c], _P - 2, _P)
        for r in range(len(m)):
            if r != c:
                f = m[r][c] * inv % _P
                m[r] = [(a - f * b) % _P for a, b in zip(m[r], m[c])]
    total, hits = Fraction(0), 0
    for k in _KEYS:
        total += _TABLE[k] * _TABLE[k - 1]
        hits += _INDEX[(k, k * 7 % 1000)]


def sample() -> float:
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


def scale(samples: list) -> float:
    """Factor that turns seconds measured alongside ``samples`` into
    seconds at reference speed."""
    return (REFERENCE_S / statistics.median(samples)) ** ALPHA


class Sampler:
    """Times reference_work() on SIGALRM every TICK_S seconds while
    active.  ``spent`` is the wall time the samples took, to be taken off
    what was measured around them."""

    def __init__(self) -> None:
        self.samples: list = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(sample())
        self.spent += perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
