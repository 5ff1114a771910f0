"""Linear queries over view bins.

A transformed query ``q̂`` is a weight vector ``w`` over the flattened bins of
a view; its answer on a synopsis ``s`` is ``w · s``.  Because synopsis noise
is i.i.d. per bin with variance ``v``, the answer's noise variance is
``‖w‖² · v`` — the quantity the accuracy-to-privacy translation divides the
analyst's requirement by.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class LinearQuery:
    """A weighted linear query over one view's bins."""

    view_name: str
    weights: np.ndarray
    label: str = ""
    _norm_sq: float = field(init=False, repr=False, compare=False, default=0.0)

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_norm_sq", float(np.dot(weights, weights)))

    @property
    def weight_norm_sq(self) -> float:
        """``‖w‖²`` — the variance amplification factor of this query."""
        return self._norm_sq

    def answer(self, synopsis_values: np.ndarray) -> float:
        """Evaluate the query on (noisy or exact) bin values."""
        values = np.asarray(synopsis_values, dtype=np.float64)
        if values.shape != self.weights.shape:
            raise ValueError(
                f"synopsis shape {values.shape} != weights {self.weights.shape}"
            )
        return float(np.dot(self.weights, values))

    def answer_variance(self, per_bin_variance: float) -> float:
        """Noise variance of the answer given per-bin synopsis variance."""
        return self.weight_norm_sq * per_bin_variance

    def per_bin_variance_for(self, answer_variance: float) -> float:
        """Per-bin variance budget that achieves ``answer_variance``.

        This is the paper's ``calculateVariance`` step (Algorithm 2, line 9).
        """
        if self.weight_norm_sq <= 0:
            raise ValueError("query has empty support; nothing to calibrate")
        return answer_variance / self.weight_norm_sq


__all__ = ["LinearQuery"]
