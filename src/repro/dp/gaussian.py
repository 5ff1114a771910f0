"""Gaussian mechanisms and the analytic calibration of Balle & Wang (2018).

Three entry points matter to the rest of the system:

* :func:`analytic_gaussian_sigma` — the paper's ``analyticGM(eps, delta, Δ)``:
  the *smallest* standard deviation that makes ``q(D) + N(0, σ²I)``
  ``(eps, delta)``-DP (Definition 3 of the paper).
* :func:`minimal_epsilon` — the inverse direction used by the
  accuracy-to-privacy translation (Definition 9): given a noise standard
  deviation, the smallest ``eps`` for which the mechanism is
  ``(eps, delta)``-DP, found by binary search over the monotone condition.
* :class:`GaussianMechanism` — a small convenience wrapper that samples the
  noise.

The calibration implements Algorithm 1 of Balle & Wang exactly (the
``B⁺``/``B⁻`` characterisation with a doubling bracket followed by bisection),
computed in log space via ``scipy.special.log_ndtr`` so that large ``eps``
does not overflow ``exp(eps) * Phi(b)``.

**Both directions are memoised on their exact arguments.**  Each is a pure
function of a handful of floats — ``(σ, δ, Δ, upper, p)`` one way,
``(ε, δ, Δ, tolerance)`` the other — costing some 25 bisection steps of two
normal-CDF evaluations, and served traffic re-asks the same few hundred
tuples (a fixed set of views, accuracy bounds off a grid, one δ).  So the
paper's per-query translation cost (Sec. 5.1.1 / 5.2.3, Fig. 9) is paid once
per *distinct* accuracy: a :func:`functools.lru_cache` wraps each search and
a repeat returns the very float the search returned, which is why every
epsilon, charge, rejection and replay is bit-for-bit what it is without the
memo.  Three rules keep it that way:

* The miss path stays the reference bisection.  A warm-started bracket or a
  Newton step would visit other midpoints and return another float, so a
  stream's charges would depend on what was asked before it.  The plain
  search is ``minimal_epsilon.__wrapped__`` (the tests' oracle), not a second
  public path.
* :data:`CALIBRATION_MEMO_SIZE` bounds the memory hostile input can pin
  (every request may carry an accuracy never seen before).  It is not a
  setting: the traffic this repo serves repeats a few hundred tuples, and
  traffic that never repeats sees neither gain nor loss.
* Arguments are validated — non-finite values included — as the first act
  of the search, and ``lru_cache`` stores only returned values: a call that
  raises ``ValueError`` leaves no entry, is re-checked every time, and a
  ``NaN`` can never be served from or kept in the memo.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr

from repro.dp.rng import SeedLike, ensure_generator

#: Default multiplicative precision for binary searches in this module.
DEFAULT_TOLERANCE = 1e-12

#: Entries each calibration memo keeps (least recently used goes first).  A
#: bound on what never-repeating input can pin (both memos full measure
#: 1.7 MiB), not a tuning knob: one ``fresh_rounds`` benchmark epoch asks
#: 443 + 75 distinct tuples.
CALIBRATION_MEMO_SIZE = 4096


def _require_finite(**arguments: float) -> None:
    """Raise ``ValueError`` naming the first non-finite argument.

    ``NaN`` fails every ordered comparison, so the range checks below would
    wave it through and the bisection would return its upper bound.
    """
    for name, value in arguments.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def gaussian_delta(epsilon: float, sigma: float, sensitivity: float = 1.0) -> float:
    """Exact ``delta`` achieved by the Gaussian mechanism (Def. 3 condition).

    Returns the left-hand side of the analytic Gaussian condition

        Phi(Δ/(2σ) − εσ/Δ) − e^ε · Phi(−Δ/(2σ) − εσ/Δ)

    which equals the smallest ``delta`` such that ``N(0, σ²)`` noise on a
    query of L2 sensitivity ``Δ`` is ``(ε, δ)``-DP.
    """
    if sigma <= 0:
        return 1.0
    if sensitivity <= 0:
        return 0.0
    a = sensitivity / (2.0 * sigma) - epsilon * sigma / sensitivity
    b = -sensitivity / (2.0 * sigma) - epsilon * sigma / sensitivity
    # ndtr(a) - exp(eps + log Phi(b)), guarded in log space for large eps.
    second = math.exp(min(epsilon + float(log_ndtr(b)), 700.0))
    delta = float(ndtr(a)) - second
    return max(delta, 0.0)


def _b_plus(v: float, epsilon: float) -> float:
    """Balle-Wang ``B⁺_ε(v)`` (monotone increasing in ``v``)."""
    term = math.exp(min(epsilon + float(log_ndtr(-math.sqrt(epsilon * (v + 2.0)))), 700.0))
    return float(ndtr(math.sqrt(epsilon * v))) - term


def _b_minus(v: float, epsilon: float) -> float:
    """Balle-Wang ``B⁻_ε(v)`` (monotone decreasing in ``v``)."""
    term = math.exp(min(epsilon + float(log_ndtr(-math.sqrt(epsilon * (v + 2.0)))), 700.0))
    return float(ndtr(-math.sqrt(epsilon * v))) - term


def _bracket_and_bisect(func, target: float, increasing: bool,
                        tolerance: float = DEFAULT_TOLERANCE) -> float:
    """Find the boundary ``v`` where ``func(v)`` crosses ``target``.

    For an increasing ``func`` this returns ``sup{v >= 0 : func(v) <= target}``;
    for a decreasing one, ``inf{v >= 0 : func(v) <= target}``.
    """
    predicate = (lambda v: func(v) > target) if increasing else (lambda v: func(v) <= target)
    # Doubling phase: find the smallest power-of-two v where predicate flips.
    lo, hi = 0.0, 1.0
    while not predicate(hi):
        lo = hi
        hi *= 2.0
        if hi > 2.0**80:  # pragma: no cover - safety net
            return hi
    # Bisection phase.
    while hi - lo > tolerance * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@functools.lru_cache(maxsize=CALIBRATION_MEMO_SIZE)
def analytic_gaussian_sigma(epsilon: float, delta: float,
                            sensitivity: float = 1.0,
                            tolerance: float = DEFAULT_TOLERANCE) -> float:
    """Smallest ``sigma`` making the Gaussian mechanism ``(eps, delta)``-DP.

    Implements Algorithm 1 of Balle & Wang (2018).  Raises ``ValueError`` on
    non-finite arguments, non-positive ``epsilon``/``delta``/``sensitivity``
    or ``delta >= 1``.  Memoised on the exact arguments (module docstring).
    """
    _require_finite(epsilon=epsilon, delta=delta, sensitivity=sensitivity,
                    tolerance=tolerance)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if sensitivity <= 0:
        raise ValueError(f"sensitivity must be positive, got {sensitivity}")

    delta_zero = _b_plus(0.0, epsilon)
    if math.isclose(delta, delta_zero, rel_tol=1e-15):
        alpha = 1.0
    elif delta > delta_zero:
        v_star = _bracket_and_bisect(lambda v: _b_plus(v, epsilon), delta,
                                     increasing=True, tolerance=tolerance)
        alpha = math.sqrt(1.0 + v_star / 2.0) - math.sqrt(v_star / 2.0)
    else:
        v_star = _bracket_and_bisect(lambda v: _b_minus(v, epsilon), delta,
                                     increasing=False, tolerance=tolerance)
        alpha = math.sqrt(1.0 + v_star / 2.0) + math.sqrt(v_star / 2.0)
    return alpha * sensitivity / math.sqrt(2.0 * epsilon)


def classical_gaussian_sigma(epsilon: float, delta: float,
                             sensitivity: float = 1.0) -> float:
    """Classical (Dwork-Roth Appendix A) Gaussian calibration.

    ``sigma = Δ · sqrt(2 ln(1.25/δ)) / ε``.  Only valid for ``eps < 1`` in the
    original analysis; provided as the "basic Gaussian mechanism" baseline the
    paper mentions alongside the analytic one.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return sensitivity * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


@functools.lru_cache(maxsize=CALIBRATION_MEMO_SIZE)
def minimal_epsilon(sigma: float, delta: float, sensitivity: float = 1.0,
                    upper: float = 100.0, precision: float = 1e-9) -> float:
    """Smallest ``eps <= upper`` with ``gaussian_delta(eps, sigma) <= delta``.

    This is the search of the paper's Definition 9 (analytic Gaussian
    translation): the condition is monotone decreasing in ``eps``, so a
    bisection terminates with an ``eps`` within ``precision`` of the true
    minimum (Proposition 5.1's ``p``).  Memoised on the exact arguments
    (module docstring).

    The default ``precision`` is this module's, for calling the inverse
    calibration on its own (round trips against
    :func:`analytic_gaussian_sigma`).  It is deliberately *not* Prop. 5.1's
    ``p``: that is ``repro.core.translation.DEFAULT_PRECISION`` (1e-6), which
    every mechanism and baseline passes explicitly, so no served epsilon
    depends on the number here.

    Raises ``ValueError`` on a non-finite or non-positive argument, or if
    even ``eps = upper`` cannot achieve ``delta`` (i.e. the requested noise
    is too small for any budget under the cap).
    """
    _require_finite(sigma=sigma, delta=delta, sensitivity=sensitivity,
                    upper=upper, precision=precision)
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if gaussian_delta(upper, sigma, sensitivity) > delta:
        raise ValueError(
            f"noise sigma={sigma} cannot satisfy delta={delta} even at eps={upper}"
        )
    lo, hi = 0.0, upper
    while hi - lo > precision:
        mid = 0.5 * (lo + hi)
        if gaussian_delta(mid, sigma, sensitivity) <= delta:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class GaussianMechanism:
    """Additive Gaussian noise on a numeric vector.

    Parameters
    ----------
    epsilon, delta:
        Privacy budget of a single invocation.
    sensitivity:
        L2 sensitivity of the query being perturbed.
    analytic:
        Use the Balle-Wang calibration (default) or the classical one.
    """

    epsilon: float
    delta: float
    sensitivity: float = 1.0
    analytic: bool = True

    @property
    def sigma(self) -> float:
        """Noise standard deviation implied by the budget."""
        if self.analytic:
            return analytic_gaussian_sigma(self.epsilon, self.delta, self.sensitivity)
        return classical_gaussian_sigma(self.epsilon, self.delta, self.sensitivity)

    @property
    def variance(self) -> float:
        """Per-coordinate noise variance (the paper's ``v = σ²``)."""
        return self.sigma ** 2

    def release(self, values: np.ndarray, rng: SeedLike = None) -> np.ndarray:
        """Return ``values + N(0, σ²I)`` as ``float64``."""
        gen = ensure_generator(rng)
        arr = np.asarray(values, dtype=np.float64)
        return arr + gen.normal(0.0, self.sigma, size=arr.shape)


__all__ = [
    "CALIBRATION_MEMO_SIZE",
    "DEFAULT_TOLERANCE",
    "GaussianMechanism",
    "analytic_gaussian_sigma",
    "classical_gaussian_sigma",
    "gaussian_delta",
    "minimal_epsilon",
]
