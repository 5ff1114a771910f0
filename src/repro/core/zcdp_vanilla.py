"""Vanilla mechanism with zCDP-composed constraint checking.

The paper recommends basic composition for constraint checks but lists
Renyi/zCDP composition as ongoing work ("Other DP settings", Sec. 9).  For
the *vanilla* mechanism — whose releases are independent Gaussians — zCDP
composition is clean: every release of noise ``sigma`` contributes
``rho = Δ²/(2σ²)``, rhos add exactly, and a row/column/table ledger of rhos
converts to an ``(eps, delta_cap)`` guarantee via the standard bound.  The
converted epsilon grows like ``sqrt(k)`` in the number of releases instead
of linearly, so long query sequences fit far more releases under the same
epsilon-valued constraints.

The provenance table still records per-release epsilons (the analyst-facing
ledger); only the *check* against the constraints uses the tighter
composition, mirroring how the paper separates accounting from checking.
"""

from __future__ import annotations

import threading

from repro.core.mechanism import Outcome
from repro.core.vanilla import VanillaMechanism
from repro.dp.gaussian import analytic_gaussian_sigma
from repro.dp.zcdp import rho_from_sigma, zcdp_to_approx_dp
from repro.exceptions import QueryRejected
from repro.views.histogram import HistogramView
from repro.views.linear import LinearQuery


class ZCdpVanillaMechanism(VanillaMechanism):
    """Vanilla releases, zCDP-composed constraint checks."""

    name = "vanilla_zcdp"
    composition = "zcdp"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Rho ledgers are the zCDP analogue of the provenance tallies; the
        # lock makes their check-then-charge one atomic step (the epsilon
        # provenance entries are charged via the table's own atomic ops).
        self._rho_lock = threading.Lock()
        self._row_rho: dict[str, float] = {}
        self._column_rho: dict[str, float] = {}
        self._total_rho = 0.0

    # -- conversion helpers ------------------------------------------------------
    def _conversion_delta(self) -> float:
        """Delta at which rho ledgers convert to epsilon for checking.

        The table-level delta cap (at most the inverse dataset size, per the
        paper's setup) is the natural constraint-side delta.
        """
        return min(self.constraints.delta_cap, 0.5)

    def _rho_of(self, epsilon: float, view: HistogramView) -> float:
        sigma = analytic_gaussian_sigma(epsilon, self.constraints.delta,
                                        self._sensitivity(view))
        return rho_from_sigma(sigma, self._sensitivity(view))

    def _converted(self, rho: float) -> float:
        if rho <= 0:
            return 0.0
        return zcdp_to_approx_dp(rho, self._conversion_delta())

    # -- overridden checking/charging ------------------------------------------------
    def _check_with_rho(self, analyst: str, view_name: str,
                        rho_new: float) -> None:
        delta = self._conversion_delta()
        checks = (
            (self._total_rho, self.constraints.table, "table",
             f"table constraint {self.constraints.table}"),
            (self._row_rho.get(analyst, 0.0),
             self.constraints.analyst_limit(analyst), "row",
             f"analyst constraint "
             f"{self.constraints.analyst_limit(analyst)} for {analyst!r}"),
            (self._column_rho.get(view_name, 0.0),
             self.constraints.view_limit(view_name), "column",
             f"view constraint {self.constraints.view_limit(view_name)} "
             f"for {view_name!r}"),
        )
        for rho_current, limit, tag, label in checks:
            converted = zcdp_to_approx_dp(rho_current + rho_new, delta)
            if converted > limit + 1e-12:
                raise QueryRejected(
                    f"{label} would be exceeded under zCDP composition "
                    f"(converted eps {converted:.4f})",
                    constraint=tag,
                )

    def _reserve_rho(self, analyst: str, view_name: str,
                     rho_new: float) -> None:
        """Atomically check the converted ledgers and charge ``rho_new``."""
        with self._rho_lock:
            self._check_with_rho(analyst, view_name, rho_new)
            self._row_rho[analyst] = self._row_rho.get(analyst, 0.0) + rho_new
            self._column_rho[view_name] = (
                self._column_rho.get(view_name, 0.0) + rho_new
            )
            self._total_rho += rho_new

    def _rollback_rho(self, analyst: str, view_name: str,
                      rho_new: float) -> None:
        """Return a rho charge whose release failed."""
        with self._rho_lock:
            self._row_rho[analyst] = max(
                0.0, self._row_rho.get(analyst, 0.0) - rho_new)
            self._column_rho[view_name] = max(
                0.0, self._column_rho.get(view_name, 0.0) - rho_new)
            self._total_rho = max(0.0, self._total_rho - rho_new)

    def _answer_fresh(self, analyst: str, view: HistogramView,
                      query: LinearQuery, per_bin: float):
        # Compute the release budget exactly as vanilla would, but gate it
        # on the zCDP ledgers instead of epsilon sums; the rho reservation
        # is charged up-front and returned if the release fails.
        epsilon = self._translate(view, query, per_bin)
        rho_new = self._rho_of(epsilon, view)
        self._reserve_rho(analyst, view.name, rho_new)
        try:
            return self._release(analyst, view, query, epsilon)
        except BaseException:
            self._rollback_rho(analyst, view.name, rho_new)
            raise

    def _release(self, analyst: str, view: HistogramView, query: LinearQuery,
                 epsilon: float):
        """The vanilla noise/provenance path, without the basic-comp check."""
        from repro.core.synopsis import Synopsis

        sigma = analytic_gaussian_sigma(epsilon, self.constraints.delta,
                                        self._sensitivity(view))
        exact = self._exact(view)
        values = exact + self._rng_for(view.name).normal(
            0.0, sigma, size=exact.shape)
        self._record_access(sigma, view)
        # The ledger meta carries this release's rho so crash recovery
        # can rebuild the zCDP ledgers without re-deriving sigma.
        self.provenance.add(analyst, view.name, epsilon,
                            meta={"rho": rho_from_sigma(
                                sigma, self._sensitivity(view))})
        self._keep_better(analyst, view.name, Synopsis(
            view_name=view.name, values=values, epsilon=epsilon,
            delta=self.constraints.delta, variance=sigma ** 2,
            analyst=analyst,
        ))
        return Outcome(
            value=query.answer(values), epsilon_charged=epsilon,
            per_bin_variance=sigma ** 2,
            answer_variance=query.answer_variance(sigma ** 2),
            view_name=view.name, cache_hit=False,
        ), values

    def _quote_fresh(self, analyst: str, view: HistogramView,
                     query: LinearQuery, per_bin: float) -> float:
        epsilon = self._translate(view, query, per_bin)
        with self._rho_lock:
            self._check_with_rho(analyst, view.name,
                                 self._rho_of(epsilon, view))
        return epsilon

    # -- reporting --------------------------------------------------------------
    def analyst_consumed(self, analyst: str) -> float:
        """Converted zCDP loss (tighter than the epsilon-sum ledger)."""
        return self._converted(self._row_rho.get(analyst, 0.0))

    def collusion_bound(self) -> float:
        return self._converted(self._total_rho)


__all__ = ["ZCdpVanillaMechanism"]
