"""Renyi differential privacy accounting (Mironov 2017).

The paper lists RDP composition (Theorem A.2) and the RDP -> (eps, delta)
conversion (Theorem A.3) as the tighter accounting options DProvDB supports
alongside basic composition.  This accountant tracks the RDP curve of a
sequence of Gaussian releases on a fixed grid of orders and converts to
approximate DP on demand.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable, Sequence

import numpy as np

#: Default grid of Renyi orders; mirrors the common practice of mixing small
#: fractional orders (tight for large delta) with large integer orders.
DEFAULT_ORDERS: tuple[float, ...] = tuple(
    [1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 16.0,
     20.0, 24.0, 32.0, 48.0, 64.0, 128.0, 256.0, 512.0]
)


def gaussian_rdp(alpha: float, sigma: float, sensitivity: float = 1.0) -> float:
    """RDP of one Gaussian release: ``eps(alpha) = alpha Δ² / (2 σ²)``."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return alpha * sensitivity ** 2 / (2.0 * sigma ** 2)


def rdp_to_approx_dp(orders: Sequence[float], rdp: Sequence[float],
                     delta: float) -> float:
    """Convert an RDP curve to the best ``eps`` at the given ``delta``.

    Uses the paper's Theorem A.3 conversion ``eps = rdp + log(1/delta)/(a-1)``
    minimised over the order grid.
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    best = math.inf
    for alpha, eps in zip(orders, rdp):
        if alpha <= 1.0:
            continue
        candidate = eps + math.log(1.0 / delta) / (alpha - 1.0)
        best = min(best, candidate)
    return best


class RdpAccountant:
    """Accumulates the RDP curve of a sequence of Gaussian releases.

    Composition in RDP is exact addition per order (Theorem A.2), so the
    accountant is just a running vector sum.
    """

    def __init__(self, orders: Iterable[float] = DEFAULT_ORDERS) -> None:
        self.orders = tuple(float(a) for a in orders)
        if any(a <= 1.0 for a in self.orders):
            raise ValueError("all Renyi orders must exceed 1")
        # Locked: concurrent submissions release from parallel per-view
        # sections; a torn vector += would under-count.
        self._lock = threading.Lock()
        self._rdp = np.zeros(len(self.orders))
        self._releases = 0

    @property
    def releases(self) -> int:
        """Number of Gaussian releases composed so far."""
        return self._releases

    def record_gaussian(self, sigma: float, sensitivity: float = 1.0) -> None:
        """Compose one Gaussian release with noise ``sigma`` into the curve."""
        curve = np.array(
            [gaussian_rdp(a, sigma, sensitivity) for a in self.orders]
        )
        with self._lock:
            self._rdp += curve
            self._releases += 1

    def epsilon(self, delta: float) -> float:
        """Best ``eps`` at ``delta`` for everything recorded so far."""
        if self._releases == 0:
            return 0.0
        return rdp_to_approx_dp(self.orders, self._rdp.tolist(), delta)


__all__ = ["DEFAULT_ORDERS", "RdpAccountant", "gaussian_rdp", "rdp_to_approx_dp"]
