"""A fixed reference computation that measures how fast the host runs now.

The benchmark runs on shared hosts whose speed drifts by up to 2x over
minutes, for every kind of code alike (process CPU time drifts with wall
time, so the cause is not time stolen from the process). A raw wall-clock
figure then measures the host as much as the program. The measuring worker
therefore runs a slice of this reference work right after every op, and the
benchmark scales each op's wall time by ``UNIT_REF_S / seconds per unit``
measured next to it: the time the op would have taken on a host that runs
one unit in ``UNIT_REF_S`` seconds.

One unit mixes what the package spends its time on: scalar float maths (the
binary entropies of the key-rate formulas), number formatting (the CLI's
CSV) and 4x4 Hermitian eigendecompositions with a PSD clip (the verifier's
projections). The unit is written here, not taken from the package, so it
stays the same when the package changes.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Seconds per unit of the nominal host that corrected times refer to. Any
# constant would do; this round figure is just under the fastest unit seen
# on the host the benchmark was tuned on (about 5.8 ms; 2-core Intel Xeon at
# 2.1 GHz, Python 3.11.7, numpy 2.4.6), where it took 6-11 ms most of the time.
UNIT_REF_S = 0.005
# Fewest units in one measurement, so that one is never a single short call.
MIN_UNITS = 2

_P = [k / 6001.0 for k in range(1, 6001)]
_M = np.random.default_rng(0).standard_normal((2, 150, 4, 4))
_M = _M[0] + 1j * _M[1]
_M = _M + _M.conj().transpose(0, 2, 1)


def unit() -> float:
    s = 0.0
    for p in _P:
        s += -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)
    s += len(",".join(repr(p) for p in _P[:1200]))
    for m in _M:
        w, v = np.linalg.eigh(m)
        s += float(((v * np.maximum(w, 0.0)) @ v.conj().T).real[0, 0])
    return s


def seconds_per_unit(min_seconds: float) -> float:
    """Run whole units for at least ``min_seconds`` (and ``MIN_UNITS``);
    return the mean wall time of one."""
    clock = time.perf_counter
    t0 = clock()
    n = 0
    while n < MIN_UNITS or clock() - t0 < min_seconds:
        unit()
        n += 1
    return (clock() - t0) / n


def corrected(seconds: float, unit_s: float) -> float:
    """Wall ``seconds`` measured while one unit took ``unit_s``, scaled to a
    host that runs one unit in ``UNIT_REF_S``."""
    return seconds * UNIT_REF_S / unit_s
