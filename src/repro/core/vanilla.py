"""The vanilla approach (paper Algorithm 2).

Independent Gaussian noise per (analyst, query): every fresh request draws a
new synopsis directly from the exact view at the translated budget, and the
analyst's provenance entry grows by the full budget (basic sequential
composition).  Caching still applies — a repeated request that an existing
local synopsis satisfies is free — but synopses are never shared across
analysts, which is exactly the budget waste the additive approach removes.
"""

from __future__ import annotations

from repro.core.mechanism import MechanismBase, Outcome
from repro.core.synopsis import Synopsis
from repro.core.translation import vanilla_translate
from repro.dp.gaussian import analytic_gaussian_sigma
from repro.views.histogram import HistogramView
from repro.views.linear import LinearQuery


class VanillaMechanism(MechanismBase):
    """Algorithm 2: per-analyst independent synopses."""

    name = "vanilla"

    def _translate(self, view: HistogramView, query: LinearQuery,
                   per_bin: float) -> float:
        """Algorithm 2 ``privacyTranslate``: the release budget — the one
        translation site of this mechanism and its zCDP subclass."""
        epsilon, _ = vanilla_translate(
            query, per_bin * query.weight_norm_sq, self.constraints.delta,
            self._sensitivity(view), upper=self.constraints.table,
            precision=self.precision,
        )
        return epsilon

    def _answer_fresh(self, analyst: str, view: HistogramView,
                      query: LinearQuery, per_bin: float):
        epsilon = self._translate(view, query, per_bin)
        # Atomic two-phase accounting: the delta-ledger slot and the
        # provenance charge are each check-and-charge in one step, so no
        # caller-held lock is needed to prevent concurrent over-spend; a
        # failure before commit returns both.  A failure *in* commit
        # (the durability hook fsyncs and can raise) returns neither —
        # the noisy synopsis is already stored, so both charges must
        # stand for published noise even though the request errors.
        self._reserve_release_slot(analyst)
        reservation = None
        try:
            with self.provenance.reserve(analyst, view.name, epsilon,
                                         self.constraints,
                                         column_mode="sum",
                                         meta={"releases": 1}) as reservation:
                sigma = analytic_gaussian_sigma(
                    epsilon, self.constraints.delta, self._sensitivity(view)
                )
                exact = self._exact(view)
                values = exact + self.rng.normal(
                    0.0, sigma, size=exact.shape)
                self._record_access(sigma, view)

                synopsis = Synopsis(
                    view_name=view.name, values=values, epsilon=epsilon,
                    delta=self.constraints.delta, variance=sigma ** 2,
                    analyst=analyst,
                )
                self._keep_better(analyst, view.name, synopsis)
                reservation.commit()
        except BaseException:
            if reservation is None or reservation.state != "committed":
                self._release_release_slot(analyst)
            raise
        return Outcome(
            value=query.answer(values),
            epsilon_charged=epsilon,
            per_bin_variance=sigma ** 2,
            answer_variance=query.answer_variance(sigma ** 2),
            view_name=view.name,
            cache_hit=False,
        ), values

    def _quote_fresh(self, analyst: str, view: HistogramView,
                     query: LinearQuery, per_bin: float) -> float:
        epsilon = self._translate(view, query, per_bin)
        self._constraint_check(analyst, view.name, epsilon)
        return epsilon

    def _keep_better(self, analyst: str, view_name: str,
                     synopsis: Synopsis) -> None:
        cached = self.store.local_synopsis(analyst, view_name)
        if cached is None or synopsis.variance < cached.variance:
            self.store.put_local(synopsis)

    def _constraint_check(self, analyst: str, view_name: str,
                          epsilon: float) -> None:
        """Algorithm 2, ``constraintCheck``: basic composition everywhere.

        With coalition groups configured (Sec. 7.1), the requesting
        analyst's coalition must also stay within its per-coalition budget.
        Read-only — the answer path uses :meth:`ProvenanceTable.reserve`
        instead so the check and the charge are one atomic step.
        """
        self.provenance.check(analyst, view_name, epsilon, self.constraints,
                              column_mode="sum")

    def collusion_bound(self) -> float:
        """Vanilla releases are independent: collusion composes by summation."""
        return self.provenance.table_total()


__all__ = ["VanillaMechanism"]
