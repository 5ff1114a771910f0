"""Accuracy specifications beyond raw variance bounds.

The paper's future-work list includes "other utility metrics, e.g.,
confidence intervals, for accuracy-privacy translation".  Because every
DProvDB release is Gaussian, a confidence-interval requirement translates
exactly into a variance bound: an answer within ``±half_width`` of the truth
with probability ``confidence`` needs

    variance <= (half_width / z)**2,   z = Phi^{-1}((1 + confidence) / 2).

``DProvDB.submit`` accepts any object with a ``to_variance()`` method as its
``accuracy=`` argument, so these specs compose with the existing translation
machinery unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

from repro.exceptions import ReproError

_STANDARD_NORMAL = NormalDist()


@dataclass(frozen=True)
class VarianceBound:
    """The paper's native spec: expected squared error at most ``variance``."""

    variance: float

    def __post_init__(self) -> None:
        if self.variance <= 0:
            raise ReproError(f"variance must be positive, got {self.variance}")

    def to_variance(self) -> float:
        return self.variance


@dataclass(frozen=True)
class ConfidenceInterval:
    """``Pr[|answer - truth| <= half_width] >= confidence``."""

    half_width: float
    confidence: float = 0.95

    def __post_init__(self) -> None:
        if self.half_width <= 0:
            raise ReproError(
                f"half_width must be positive, got {self.half_width}"
            )
        if not 0 < self.confidence < 1:
            raise ReproError(
                f"confidence must be in (0, 1), got {self.confidence}"
            )

    @property
    def z_score(self) -> float:
        return _STANDARD_NORMAL.inv_cdf((1.0 + self.confidence) / 2.0)

    def to_variance(self) -> float:
        return (self.half_width / self.z_score) ** 2


def resolve_accuracy(accuracy) -> float:
    """Coerce a float or accuracy-spec object into a variance bound.

    The bound must be finite and positive whichever way it arrives: a
    ``NaN`` passes every ordered comparison downstream and would be
    translated to the whole table budget.
    """
    if accuracy is None:
        raise ReproError("accuracy must not be None here")
    if hasattr(accuracy, "to_variance"):
        value = float(accuracy.to_variance())
    else:
        value = float(accuracy)
    if not (math.isfinite(value) and value > 0):
        raise ReproError(
            f"accuracy must be a finite positive variance, got {value}")
    return value


__all__ = ["ConfidenceInterval", "VarianceBound", "resolve_accuracy"]
