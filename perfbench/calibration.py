"""How fast the machine is right now, from a fixed loop that never touches
fedmar.

The benchmark was tuned on a shared 2-core host whose speed drifts by up to
2x over tens of seconds, while the same work runs in the same process. The
loop's time rises and falls with those phases, so a round's wall time times
``REFERENCE_S / seconds()`` (measured around that round) is the round's
time at a fixed machine speed. The loop runs only benchmark code and numpy,
so a change to fedmar cannot move it.
"""

from __future__ import annotations

import math
import random
from time import perf_counter

import numpy as np

# Best-of-3 time of one pass of the loop below on the host the benchmark
# was tuned on (2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6). It only
# fixes the scale the corrected times are reported in.
REFERENCE_S = 0.011

_RNG = random.Random(0)
_DATA = [_RNG.random() for _ in range(600)]
_GRID = np.linspace(0.0, 1.0, 64)


def _one_pass() -> float:
    # the mix of one solver step: interpreted calls, float math, small
    # containers and small numpy arrays
    acc = 0.0
    for i in range(400):
        acc += sum(sorted(_DATA[i : i + 200]))
        table = {k: k * 1.5 for k in range(100)}
        acc += table[i % 100] + math.log1p(i)
        acc += float(np.sum(np.sqrt(_GRID * i + 1.0)))
    return acc


def seconds() -> float:
    """Best of three timed passes of the calibration loop."""
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        _one_pass()
        best = min(best, perf_counter() - start)
    return best
