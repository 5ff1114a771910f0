"""Zero-concentrated differential privacy (Bun & Steinke 2016) accounting.

zCDP is the other tight accountant the paper mentions for composing Gaussian
releases: a Gaussian with noise ``sigma`` on a query of L2 sensitivity ``Δ``
is ``rho``-zCDP with ``rho = Δ²/(2σ²)``, composition adds the ``rho``'s, and
``rho``-zCDP implies ``(rho + 2 sqrt(rho ln(1/delta)), delta)``-DP.
"""

from __future__ import annotations

import math
import threading


def rho_from_sigma(sigma: float, sensitivity: float = 1.0) -> float:
    """zCDP parameter of one Gaussian release."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return sensitivity ** 2 / (2.0 * sigma ** 2)


def zcdp_to_approx_dp(rho: float, delta: float) -> float:
    """Standard conversion ``rho``-zCDP -> ``(eps, delta)``-DP."""
    if rho < 0:
        raise ValueError(f"rho must be non-negative, got {rho}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


def rho_for_epsilon(epsilon: float, delta: float) -> float:
    """Largest ``rho`` whose conversion stays within ``(eps, delta)``.

    Solves ``rho + 2 sqrt(rho L) = eps`` with ``L = ln(1/delta)`` — a
    quadratic in ``sqrt(rho)`` with the positive root
    ``sqrt(rho) = sqrt(L + eps) - sqrt(L)``.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    log_term = math.log(1.0 / delta)
    root = math.sqrt(log_term + epsilon) - math.sqrt(log_term)
    return root ** 2


class ZCdpAccountant:
    """Running-sum accountant over ``rho`` values of Gaussian releases.

    Records are locked: concurrent submissions release noise from
    parallel per-view sections, and a torn ``+=`` would silently
    under-report the realised loss.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._rho = 0.0
        self._releases = 0

    @property
    def rho(self) -> float:
        return self._rho

    @property
    def releases(self) -> int:
        return self._releases

    def record_gaussian(self, sigma: float, sensitivity: float = 1.0) -> None:
        rho = rho_from_sigma(sigma, sensitivity)
        with self._lock:
            self._rho += rho
            self._releases += 1

    def epsilon(self, delta: float) -> float:
        if self._releases == 0:
            return 0.0
        return zcdp_to_approx_dp(self._rho, delta)


__all__ = ["ZCdpAccountant", "rho_for_epsilon", "rho_from_sigma", "zcdp_to_approx_dp"]
