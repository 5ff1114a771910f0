"""The additive Gaussian approach (paper Algorithm 4).

One *global* synopsis per view carries the curator's best estimate; every
analyst sees only *local* synopses derived from it by adding more Gaussian
noise (:func:`repro.core.additive_gm.degrade`).  Accuracy upgrades update the
global synopsis by combining it with a fresh delta synopsis at
inverse-variance weights (Eq. 2), and the analyst's provenance entry is
capped at the global budget — ``P[A,V] <- min(eps_global, P[A,V] + eps_i)`` —
which is where the cross-analyst and over-time budget savings come from.

Constraint checking follows Sec. 5.2.4: per-view loss composes as the column
*max* (not sum), the table composite sums those maxima, and the realised
global budget itself is checked against the view constraint so Theorem 5.7's
``min(psi_V, psi_P)``-DP per view holds even with combination friction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.additive_gm import degrade
from repro.core.local_combine import local_combination_weights
from repro.core.mechanism import MechanismBase, Outcome
from repro.core.synopsis import Synopsis
from repro.core.translation import BudgetRequest, additive_budget_request
from repro.dp.gaussian import analytic_gaussian_sigma
from repro.exceptions import QueryRejected
from repro.views.histogram import HistogramView
from repro.views.linear import LinearQuery


@dataclass(frozen=True)
class _CombinationRecord:
    """Weights/variances of the last global combination for one view."""

    w_prev: float
    w_fresh: float
    v_prev: float
    v_delta: float


@dataclass(frozen=True)
class _LocalMeta:
    """Bookkeeping for one analyst's local synopsis (Sec. 5.2.6 mode)."""

    generation: int
    noise_variance: float
    fresh: bool


class AdditiveGaussianMechanism(MechanismBase):
    """Algorithm 4: correlated noise through global/local synopses.

    ``combine_local=True`` enables the one-step local-synopsis combination
    of Sec. 5.2.6: instead of discarding an analyst's existing local
    synopsis when the global one is upgraded, the mechanism combines it with
    the fresh local release at the closed-form optimal weights
    (:func:`repro.core.local_combine.local_combination_weights`), delivering
    strictly better accuracy for the same charge.  Only one step of history
    is used — the nesting the paper deems impractical is avoided by marking
    combined synopses as non-fresh.
    """

    name = "additive"
    composition = "max"

    def __init__(self, *args, combine_local: bool = False, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.combine_local = combine_local
        self._generation: dict[str, int] = {}
        self._last_combination: dict[str, _CombinationRecord] = {}
        self._local_meta: dict[tuple[str, str], _LocalMeta] = {}
        #: Per-view epsilon already realised on a *previous* global
        #: synopsis chain that the store no longer reflects.  Set only by
        #: crash recovery: when the write-ahead ledger proves a view's
        #: global synopsis reached a higher budget than the restored
        #: checkpoint carries (the noise values are gone, their loss is
        #: not), the gap lands here and every view-constraint check adds
        #: it — the conservative, over-counting direction.
        self._global_epsilon_base: dict[str, float] = {}

    def _translate(self, view: HistogramView, query: LinearQuery,
                   per_bin: float) -> BudgetRequest:
        """Algorithm 4 ``privacyTranslate`` against the view's current
        global synopsis — the one translation site of this mechanism,
        shared by the answer and the quote path."""
        current = self.store.global_synopsis(view.name)
        return additive_budget_request(
            query, per_bin * query.weight_norm_sq, self.constraints.delta,
            None if current is None else (current.epsilon, current.variance),
            self._sensitivity(view), upper=self.constraints.table,
            precision=self.precision,
        )

    def _answer_fresh(self, analyst: str, view: HistogramView,
                      query: LinearQuery, per_bin: float):
        """One fresh additive release.

        The caller (:class:`repro.core.engine.DProvDB`) holds the view's
        critical section, which keeps the global-synopsis read below
        consistent with the refresh in :meth:`_ensure_global`; budget
        safety itself comes from the atomic delta-slot and provenance
        reservations, which are rolled back if the release fails.
        """
        request = self._translate(view, query, per_bin)
        self._reserve_release_slot(analyst)
        reservation = None
        try:
            self._check_global_budget(view.name, request)
            epsilon_charged = self._charged_epsilon(analyst, view.name,
                                                    request)
            meta = {"releases": 1,
                    "global_after": request.global_epsilon_after}
            with self.provenance.reserve(analyst, view.name, epsilon_charged,
                                         self.constraints,
                                         column_mode="max",
                                         meta=meta) as reservation:
                global_synopsis = self._ensure_global(view, request)
                # The global refresh is the irreversible release (noise
                # derived from the exact data is now in the store), so the
                # charge must stick from here on: commit *before* the
                # local derivation — a failure there must surface as an
                # error, never as freed budget for published noise.
                reservation.commit()
        except BaseException:
            # Once committed, the charge AND the delta slot both stand:
            # commit itself can fail (the durability hook fsyncs), and
            # the global refresh it finalised is already published.
            if reservation is None or reservation.state != "committed":
                self._release_release_slot(analyst)
            raise
        local = self._derive_local(analyst, view, global_synopsis, request)

        return Outcome(
            value=query.answer(local.values),
            epsilon_charged=epsilon_charged,
            per_bin_variance=local.variance,
            answer_variance=query.answer_variance(local.variance),
            view_name=view.name,
            cache_hit=False,
        ), local.values

    def _quote_fresh(self, analyst: str, view: HistogramView,
                     query: LinearQuery, per_bin: float) -> float:
        request = self._translate(view, query, per_bin)
        return self._constraint_check(analyst, view.name, request)

    # -- constraint checking (Algorithm 4, constraintCheck) -------------------
    def _charged_epsilon(self, analyst: str, view_name: str,
                         request: BudgetRequest) -> float:
        """``eps' = min(eps_global_after, P[A,V] + eps_i) - P[A,V]``."""
        entry = self.provenance.get(analyst, view_name)
        new_entry = min(request.global_epsilon_after,
                        entry + request.local_epsilon)
        return max(0.0, new_entry - entry)

    def _check_global_budget(self, view_name: str,
                             request: BudgetRequest) -> None:
        """The realised global budget must respect the per-view guarantee.

        ``_global_epsilon_base`` (crash recovery's record of budget spent
        on a global chain the store no longer holds) counts against the
        limit on top of the live chain's epsilon.
        """
        view_limit = self.constraints.view_limit(view_name)
        realised = (request.global_epsilon_after
                    + self._global_epsilon_base.get(view_name, 0.0))
        if realised > view_limit + 1e-12:
            raise QueryRejected(
                f"global synopsis budget {realised:.4f} "
                f"would exceed view constraint {view_limit}",
                constraint="column",
            )

    def _constraint_check(self, analyst: str, view_name: str,
                          request: BudgetRequest) -> float:
        """Read-only Sec. 5.2.4 check; returns the epsilon a release would
        charge.  The answer path uses :meth:`ProvenanceTable.reserve`
        (``column_mode="max"``) instead so check and charge are atomic."""
        self._check_global_budget(view_name, request)
        epsilon_prime = self._charged_epsilon(analyst, view_name, request)
        self.provenance.check(analyst, view_name, epsilon_prime,
                              self.constraints, column_mode="max")
        return epsilon_prime

    # -- synopsis machinery ------------------------------------------------------
    def _ensure_global(self, view: HistogramView,
                       request: BudgetRequest) -> Synopsis:
        """Create or friction-combine the global synopsis (Eq. 2)."""
        current = self.store.global_synopsis(view.name)
        if not request.needs_update:
            assert current is not None
            return current

        delta = self.constraints.delta
        sigma = analytic_gaussian_sigma(
            request.delta_epsilon, delta, self._sensitivity(view)
        )
        exact = self._exact(view)
        fresh_values = exact + self.rng.normal(0.0, sigma, size=exact.shape)
        self._record_access(sigma, view)

        if current is None:
            combined = Synopsis(
                view_name=view.name, values=fresh_values,
                epsilon=request.delta_epsilon, delta=delta,
                variance=sigma ** 2, analyst=None,
            )
            self._generation[view.name] = 1
        else:
            # Inverse-variance weights: w_t = v_{t-1} / (v_delta + v_{t-1}).
            v_prev, v_delta = current.variance, sigma ** 2
            weight = v_prev / (v_delta + v_prev)
            values = (1.0 - weight) * current.values + weight * fresh_values
            variance = (1.0 - weight) ** 2 * v_prev + weight ** 2 * v_delta
            combined = Synopsis(
                view_name=view.name, values=values,
                epsilon=current.epsilon + request.delta_epsilon,
                delta=min(1.0, current.delta + delta),
                variance=variance, analyst=None,
            )
            self._generation[view.name] = self._generation.get(view.name, 1) + 1
            self._last_combination[view.name] = _CombinationRecord(
                w_prev=1.0 - weight, w_fresh=weight,
                v_prev=v_prev, v_delta=v_delta,
            )
        self.store.put_global(combined)
        return combined

    def _derive_local(self, analyst: str, view: HistogramView,
                      global_synopsis: Synopsis,
                      request: BudgetRequest) -> Synopsis:
        """Additive-GM degradation of the global synopsis for one analyst.

        In ``combine_local`` mode, a still-fresh local synopsis from the
        previous global generation is optimally combined with the fresh
        release instead of being discarded (Sec. 5.2.6, one step deep).
        """
        target_variance = max(request.per_bin_variance,
                              global_synopsis.variance)
        combined = (self._try_local_combination(analyst, view,
                                                global_synopsis,
                                                target_variance)
                    if self.combine_local else None)
        if combined is not None:
            values, variance, meta = combined
        else:
            values = degrade(global_synopsis.values, global_synopsis.variance,
                             target_variance, self.rng)
            variance = target_variance
            meta = _LocalMeta(
                generation=self._generation.get(view.name, 1),
                noise_variance=target_variance - global_synopsis.variance,
                fresh=True,
            )
        local = Synopsis(
            view_name=view.name, values=values,
            epsilon=min(request.local_epsilon, global_synopsis.epsilon),
            delta=self.constraints.delta, variance=variance,
            analyst=analyst,
        )
        cached = self.store.local_synopsis(analyst, view.name)
        if cached is None or local.variance < cached.variance:
            self.store.put_local(local)
            self._local_meta[(analyst, view.name)] = meta
        return local

    def _try_local_combination(self, analyst: str, view: HistogramView,
                               global_synopsis: Synopsis,
                               target_variance: float
                               ) -> tuple | None:
        """One-step Sec. 5.2.6 combination, when the bookkeeping allows it.

        Two cases are recognised:

        * **same generation** — the analyst's local synopsis came from the
          *current* global synopsis with extra noise ``s_prev``; the new
          release from the same global (extra noise ``s_new``) shares its
          global component, so the optimal combination keeps the global part
          and inverse-variance-averages the independent extras:
          extra variance drops to ``s_prev*s_new/(s_prev+s_new)``;
        * **previous generation** — the global was just upgraded by a
          combination; the full Sec. 5.2.6 weights apply.
        """
        key = (analyst, view.name)
        cached = self.store.local_synopsis(analyst, view.name)
        meta = self._local_meta.get(key)
        generation = self._generation.get(view.name, 1)
        if cached is None or meta is None or not meta.fresh:
            return None

        if meta.generation == generation:
            s_prev = meta.noise_variance
            s_new = max(0.0, target_variance - global_synopsis.variance)
            if s_prev <= 0.0 or s_new <= 0.0:
                return None  # nothing independent to average
            fresh_values = degrade(global_synopsis.values,
                                   global_synopsis.variance,
                                   target_variance, self.rng)
            k_old = s_new / (s_prev + s_new)
            values = k_old * cached.values + (1.0 - k_old) * fresh_values
            extra = s_prev * s_new / (s_prev + s_new)
            variance = global_synopsis.variance + extra
            # Still global + independent noise: remains combinable.
            new_meta = _LocalMeta(generation=generation,
                                  noise_variance=extra, fresh=True)
            return values, variance, new_meta

        record = self._last_combination.get(view.name)
        if record is None or meta.generation != generation - 1:
            return None
        noise_new = max(0.0, target_variance - global_synopsis.variance)
        fresh_values = degrade(global_synopsis.values,
                               global_synopsis.variance, target_variance,
                               self.rng)
        weights = local_combination_weights(
            record.w_prev, record.w_fresh, record.v_prev, record.v_delta,
            s_prev=meta.noise_variance, s_new=noise_new,
        )
        values = (weights.k_prev * cached.values
                  + weights.k_fresh * fresh_values)
        new_meta = _LocalMeta(generation=generation, noise_variance=0.0,
                              fresh=False)
        return values, weights.variance, new_meta

    def collusion_bound(self) -> float:
        """Colluding analysts learn at most the global synopses (max per view)."""
        return self.provenance.table_max_composite()


__all__ = ["AdditiveGaussianMechanism"]
