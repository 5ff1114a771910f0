"""Accuracy-to-privacy translation (paper Sec. 5.1.1 and 5.2.3).

The analyst submits ``(q, v_i)`` — a query plus a bound on the expected
squared error of its answer.  Translation proceeds in two steps:

1. ``calculateVariance``: divide ``v_i`` by the query's weight norm ``‖w‖²``
   to get the *per-bin* synopsis variance ``v`` that achieves it
   (:meth:`repro.views.linear.LinearQuery.per_bin_variance_for`).
2. Search for the minimal budget whose analytic-Gaussian variance is at most
   ``v`` (Definition 9) — a bisection over the monotone DP condition,
   implemented by :func:`repro.dp.gaussian.minimal_epsilon`.

The additive approach additionally corrects for *combination friction*
(Eq. 3): when a global synopsis with per-bin variance ``v' > v`` already
exists, the optimal fresh synopsis to combine with has variance
``v_t = v·v'/(v' - v)`` (the inverse-variance identity ``1/v = 1/v' + 1/v_t``
with optimal weight ``w* = v/v'``), and only ``v_t``'s budget is newly spent.

**Cost.**  The paper prices translation per query; here it is per distinct
``(σ, δ, Δ, upper, p)``.  Step 2 is the only expensive part and
``minimal_epsilon`` memoises it on its exact arguments (see
:mod:`repro.dp.gaussian`: a bounded ``lru_cache`` whose hit returns the very
float the bisection returned), so a repeated accuracy on a view — the
common case, and every rejected retry — costs this module's arithmetic
only: 2–3 µs for a whole :func:`additive_budget_request`.  That is why there
is no second cache here (no ``BudgetRequest`` kept per statement or per
view): it would save less than it costs to keep coherent with the global
synopsis, which changes under it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.dp.gaussian import minimal_epsilon
from repro.exceptions import TranslationError
from repro.views.linear import LinearQuery

#: Default search precision ``p`` of Proposition 5.1 / Theorem 5.5.
DEFAULT_PRECISION = 1e-6


def epsilon_for_variance(variance: float, delta: float,
                         sensitivity: float = 1.0,
                         upper: float = 100.0,
                         precision: float = DEFAULT_PRECISION) -> float:
    """Minimal ``eps <= upper`` whose analytic-GM variance is <= ``variance``.

    Raises :class:`TranslationError` when no budget under ``upper`` achieves
    the requested variance.
    """
    if variance <= 0:
        raise TranslationError(f"requested variance must be positive, got {variance}")
    try:
        return minimal_epsilon(math.sqrt(variance), delta, sensitivity,
                               upper, precision)
    except ValueError as exc:
        raise TranslationError(str(exc)) from exc


def vanilla_translate(query: LinearQuery, accuracy: float, delta: float,
                      sensitivity: float = 1.0, upper: float = 100.0,
                      precision: float = DEFAULT_PRECISION
                      ) -> tuple[float, float]:
    """Vanilla translation (Algorithm 2, ``privacyTranslate``).

    Returns ``(epsilon, per_bin_variance)``.
    """
    per_bin = query.per_bin_variance_for(accuracy)
    epsilon = epsilon_for_variance(per_bin, delta, sensitivity, upper, precision)
    return epsilon, per_bin


def fresh_variance_for_target(target: float, current: float
                              ) -> tuple[float, float]:
    """Solve Eq. (3): optimal weight and fresh-synopsis variance.

    Given a current global synopsis with per-bin variance ``current`` and a
    requested per-bin variance ``target < current``, return
    ``(w_star, v_t)`` with ``w_star = target/current`` (the weight the old
    synopsis keeps) and ``v_t = target*current/(current - target)``.
    """
    if target <= 0 or current <= 0:
        raise TranslationError("variances must be positive")
    if target >= current:
        # Optimisation degenerates to w = 0: no fresh synopsis needed.
        return 0.0, math.inf
    w_star = target / current
    v_t = target * current / (current - target)
    return w_star, v_t


@dataclass(frozen=True)
class BudgetRequest:
    """Outcome of additive-approach translation for one query.

    Attributes
    ----------
    per_bin_variance:
        Requested per-bin synopsis variance ``v``.
    local_epsilon:
        Budget equivalent of ``v`` (what the analyst is charged, pre-cap).
    needs_update:
        Whether the global synopsis must be created or improved.
    delta_epsilon:
        Fresh budget spent on the global synopsis (0 when no update).
    fresh_variance:
        Variance of the fresh delta synopsis (``inf`` when no update).
    global_epsilon_after:
        Global synopsis budget once this request is executed.
    """

    per_bin_variance: float
    local_epsilon: float
    needs_update: bool
    delta_epsilon: float
    fresh_variance: float
    global_epsilon_after: float


def additive_budget_request(query: LinearQuery, accuracy: float, delta: float,
                            current: tuple[float, float] | None,
                            sensitivity: float = 1.0, upper: float = 100.0,
                            precision: float = DEFAULT_PRECISION
                            ) -> BudgetRequest:
    """Additive translation (Algorithm 4, ``privacyTranslate``).

    ``current`` is ``(global_epsilon, global_per_bin_variance)`` or ``None``
    when the view has no global synopsis yet.
    """
    per_bin = query.per_bin_variance_for(accuracy)
    local_eps = epsilon_for_variance(per_bin, delta, sensitivity, upper, precision)

    if current is None:
        return BudgetRequest(
            per_bin_variance=per_bin,
            local_epsilon=local_eps,
            needs_update=True,
            delta_epsilon=local_eps,
            fresh_variance=per_bin,
            global_epsilon_after=local_eps,
        )

    global_eps, global_var = current
    if global_var <= per_bin:
        # Existing global synopsis is already accurate enough (w* = 0 case).
        return BudgetRequest(
            per_bin_variance=per_bin,
            local_epsilon=local_eps,
            needs_update=False,
            delta_epsilon=0.0,
            fresh_variance=math.inf,
            global_epsilon_after=global_eps,
        )

    _, v_t = fresh_variance_for_target(per_bin, global_var)
    delta_eps = epsilon_for_variance(v_t, delta, sensitivity, upper, precision)
    return BudgetRequest(
        per_bin_variance=per_bin,
        local_epsilon=local_eps,
        needs_update=True,
        delta_epsilon=delta_eps,
        fresh_variance=v_t,
        global_epsilon_after=global_eps + delta_eps,
    )


__all__ = [
    "BudgetRequest",
    "DEFAULT_PRECISION",
    "additive_budget_request",
    "epsilon_for_variance",
    "fresh_variance_for_target",
    "vanilla_translate",
]
