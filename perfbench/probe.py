"""Host-speed probe: fixed work that never touches the program.

The benchmark's host is a few vCPUs of a shared machine whose speed
drifts with its neighbours' load: the same grid iteration ran anywhere
from 4.0 to 8.7 s within ten minutes, with CPU time equal to wall time
(no steal), in slow spells from seconds to minutes long.  The grids run
this probe after every figure process and every set-up, and scale their
times by ``REFERENCE_S`` over the median probe time of the run, which
turns them into seconds on a host of fixed speed.  The probe mixes
interpreter work (dict lookups, integer arithmetic) with numpy sorting,
like the program it stands beside.
"""

from __future__ import annotations

import time
from typing import Any, List, Optional, Sequence

import stats

#: Probe time (s) of the reference host speed the grids' times are
#: scaled to: a round figure near the probe's time on an undisturbed
#: 2-vCPU Intel Xeon virtual machine (0.048 to 0.050 s).
REFERENCE_S = 0.05

_DATA: Optional[List[Any]] = None


def _data() -> List[Any]:
    global _DATA
    if _DATA is None:
        import numpy

        keys = [(i * 2654435761) % 1_000_003 for i in range(200_000)]
        values = numpy.random.default_rng(0).integers(0, 1 << 40, 400_000)
        _DATA = [keys, {key: key for key in keys}, values]
    return _DATA


def probe_s() -> float:
    """Seconds one run of the probe takes now."""
    import numpy

    keys, table, values = _data()
    start = time.perf_counter()
    total = 0
    for key in keys:
        total += table[key] & 7
    for i in range(150_000):
        total += i * i % 7
    for _ in range(3):
        numpy.sort(values)
        numpy.unique(values & 0xFFFF, return_counts=True)
    return time.perf_counter() - start


def scale(probes: Sequence[float]) -> float:
    """Factor that turns this run's seconds into reference-speed seconds."""
    return REFERENCE_S / stats.median(probes)
