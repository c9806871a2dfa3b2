"""How fast the shared host runs plain Python right now.

The benchmark's host is shared: over minutes its speed drifts by up to a
half, so consecutive runs of the same code on the same input differ by
more than the bounds in ``BENCHMARK.json``.  ``sample()`` times a fixed
loop of the kind of work the solver's hot paths do (nested list
indexing, float arithmetic and branches, appends, attribute and dict
lookups) on its own data, so no change to the library can change it.
The runner samples it between operations and scales its timings by
``NOMINAL_S`` over the run's median sample.
"""

from __future__ import annotations

import random
import time

# Median time of one ``sample()`` on the machine the benchmark's bounds
# were set on (2 shared cores of an Intel Xeon, Python 3.11.7), so scaled
# timings read as seconds on that machine at its usual speed.
NOMINAL_S = 0.021

_N = 60
_rng = random.Random(0)
_TRAVEL = [[_rng.uniform(1.0, 10.0) for _ in range(_N)] for _ in range(_N)]
_ROUTES = [tuple(_rng.randrange(_N) for _ in range(15)) for _ in range(200)]
_WINDOW = {v: (_rng.uniform(0.0, 40.0), _rng.uniform(0.2, 2.0)) for v in range(_N)}


class _Route:
    __slots__ = ("tasks", "arrivals")

    def __init__(self, tasks):
        self.tasks = tasks
        self.arrivals = []


def _loop(rounds: int) -> float:
    total = 0.0
    for _ in range(rounds):
        for tasks in _ROUTES:
            route = _Route(tasks)
            cur, v = 0.0, 0
            for x in route.tasks:
                cur += _TRAVEL[v][x]
                begin, slope = _WINDOW[x]
                cur += 1.0 + slope * (begin - cur) if cur < begin else 1.0
                route.arrivals.append(cur)
                v = x
            total += route.arrivals[-1]
    return total


def sample() -> float:
    """Seconds one fixed loop takes now."""
    start = time.perf_counter()
    _loop(32)
    return time.perf_counter() - start
