"""Piecewise-linear time-dependent service cost functions.

Every task carries a function mapping its time of beginning of service to
a service cost.  The general shape has three segments: a decreasing ramp
down to a flat optimal interval [bt, et], then an increasing ramp.  The
two-segment family is the degenerate case bt = et = 0 (cost is lowest at
time 0 and never decreases afterwards), so a single representation covers
both problem families.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class Family(enum.Enum):
    """Problem family, determined by the shape of the task cost functions."""

    TWO_SEGMENT = "2lp"
    THREE_SEGMENT = "3lp"


class HeterogeneousSlopeError(ValueError):
    """Raised when tasks of one instance carry different slope magnitudes."""


@dataclass(frozen=True)
class ServiceCostFunction:
    """Service cost as a function of the time of beginning of service.

    ``c_min`` is the minimum service cost, attained exactly on [bt, et];
    ``k`` is the (non-negative) slope magnitude of both ramps.  Costs and
    times share a unit, so ``c_min`` doubles as the minimum service time.
    """

    c_min: float
    bt: float = 0.0
    et: float = 0.0
    k: float = 0.0

    def __post_init__(self):
        for name in ("c_min", "bt", "et", "k"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.c_min < 0:
            raise ValueError(f"c_min must be >= 0, got {self.c_min}")
        if self.k < 0:
            raise ValueError(f"slope magnitude must be >= 0, got {self.k}")
        if not 0 <= self.bt <= self.et:
            raise ValueError(f"need 0 <= bt <= et, got bt={self.bt}, et={self.et}")

    def value(self, t: float) -> float:
        """Cost when service begins at time ``t`` (exact at breakpoints)."""
        if t < 0:
            raise ValueError(f"service start time must be >= 0, got {t}")
        if t < self.bt:
            return self.c_min + self.k * (self.bt - t)
        if t > self.et:
            return self.c_min + self.k * (t - self.et)
        return self.c_min


@dataclass(frozen=True)
class InstanceKind:
    family: Family
    k: float


def classify(instance) -> InstanceKind:
    """Determine the problem family and shared slope magnitude of an instance.

    Two-segment iff every task has bt = et = 0.  All tasks must
    share one slope magnitude; mixed slopes raise
    :class:`HeterogeneousSlopeError`.
    """
    fns = [task.cost_fn for task in instance.tasks.values()]
    if not fns:
        raise ValueError("instance has no tasks to classify")
    ks = sorted({fn.k for fn in fns})
    if ks[-1] - ks[0] > 1e-12:
        raise HeterogeneousSlopeError(
            f"tasks carry different slope magnitudes: {ks}"
        )
    family = (
        Family.TWO_SEGMENT
        if all(fn.bt == 0.0 and fn.et == 0.0 for fn in fns)
        else Family.THREE_SEGMENT
    )
    return InstanceKind(family=family, k=ks[0])
