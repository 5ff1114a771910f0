"""Shared mechanism machinery for the vanilla and additive approaches.

A mechanism owns the synopsis store and implements the paper's three
interfaces (``privacyTranslate``, ``constraintCheck``, ``run``) behind a
single :meth:`MechanismBase.answer` template:

1. derive the per-bin variance the request implies;
2. serve from the analyst's cached local synopsis when it is accurate
   enough (free — this is what Theorem 5.6's proof calls "answered with
   cached synopsis");
3. otherwise translate to a budget, check the provenance constraints, and
   run the noise machinery.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.core.provenance import Constraints, ProvenanceTable
from repro.core.synopsis import SynopsisStore
from repro.core.translation import DEFAULT_PRECISION
from repro.dp.rng import SeedLike, ensure_generator, stable_seed
from repro.exceptions import QueryRejected, ReproError, TranslationError
from repro.views.histogram import HistogramView
from repro.views.linear import LinearQuery
from repro.views.registry import ViewRegistry

#: Noise-stream layouts: one shared generator for every draw (the
#: historical behaviour) or one deterministic stream per view.  Per-view
#: streams make the draw sequence on a view a function of that view's
#: release order alone — the property the multiprocessing backend needs
#: for bit-identical replays, since each view's traffic is owned by one
#: worker process.
NOISE_STREAMS = ("shared", "per_view")


class GaussianAccountant(Protocol):
    """Anything that can record a Gaussian data access (RDP/zCDP trackers)."""

    def record_gaussian(self, sigma: float, sensitivity: float = 1.0) -> None: ...


@dataclass(frozen=True)
class Outcome:
    """Result of answering one query."""

    value: float
    epsilon_charged: float
    per_bin_variance: float
    answer_variance: float
    view_name: str
    cache_hit: bool


class MechanismBase:
    """State and helpers common to both DProvDB mechanisms."""

    name = "base"
    #: How per-view charges compose into the analyst's total — ``sum``
    #: (basic composition over independent releases), ``max`` (the
    #: additive mechanism's max-over-views provenance accounting), or
    #: ``zcdp`` (rho-ledger composition).  Reported in answer lineage.
    composition = "sum"

    def __init__(self, registry: ViewRegistry, provenance: ProvenanceTable,
                 constraints: Constraints, rng: SeedLike = None,
                 accountant: GaussianAccountant | None = None,
                 precision: float = DEFAULT_PRECISION,
                 store: SynopsisStore | None = None,
                 noise_streams: str = "shared",
                 stream_seed: int | str | None = None) -> None:
        if noise_streams not in NOISE_STREAMS:
            raise ReproError(f"unknown noise_streams {noise_streams!r}; "
                             f"choose from {NOISE_STREAMS}")
        self.registry = registry
        self.provenance = provenance
        self.constraints = constraints
        #: Synopsis storage; injectable so serving layers can substitute a
        #: bounded (LRU) store — see :mod:`repro.service.cache`.
        self.store = SynopsisStore() if store is None else store
        self.rng = ensure_generator(rng)
        self.accountant = accountant
        self.precision = precision
        #: Noise-stream layout (see :data:`NOISE_STREAMS`).  ``per_view``
        #: derives one deterministic generator per view from
        #: ``stream_seed``; ``stream_incarnation`` salts the derivation so
        #: a restarted worker process never replays a stream prefix whose
        #: draws were already published.
        self.noise_streams = noise_streams
        self._stream_seed = stream_seed
        self.stream_incarnation = 0
        self._view_rngs: dict[str, np.random.Generator] = {}
        #: Per-analyst count of fresh releases charged to them — the delta
        #: ledger (each release adds one per-query delta, Theorem 3.1).
        #: Guarded by ``_ledger_lock`` so the cap check and the increment
        #: are one atomic step under concurrent submission.
        self._release_counts: dict[str, int] = {}
        self._ledger_lock = threading.Lock()

    # -- delta accounting (paper's Remark after Algorithm 1) --------------------
    def analyst_delta(self, analyst: str) -> float:
        """Cumulative delta released to one analyst (basic composition)."""
        return self._release_counts.get(analyst, 0) * self.constraints.delta

    def _check_delta(self, analyst: str) -> None:
        """One more release must keep the analyst's delta under the cap."""
        next_delta = (self._release_counts.get(analyst, 0) + 1) \
            * self.constraints.delta
        if next_delta > self.constraints.delta_cap + 1e-18:
            raise QueryRejected(
                f"cumulative delta {next_delta:.3g} would exceed the cap "
                f"{self.constraints.delta_cap:.3g} for analyst {analyst!r}",
                constraint="row",
            )

    def _reserve_release_slot(self, analyst: str) -> None:
        """Atomically check the delta cap and count one release.

        The check-then-increment runs under the ledger lock so concurrent
        fresh releases can never jointly exceed ``delta_cap``; callers
        whose release fails afterwards must return the slot via
        :meth:`_release_release_slot`.
        """
        with self._ledger_lock:
            self._check_delta(analyst)
            self._release_counts[analyst] = \
                self._release_counts.get(analyst, 0) + 1

    def _release_release_slot(self, analyst: str) -> None:
        """Return a release slot taken by :meth:`_reserve_release_slot`."""
        with self._ledger_lock:
            self._release_counts[analyst] = \
                max(0, self._release_counts.get(analyst, 0) - 1)

    # -- noise streams ----------------------------------------------------------
    def _rng_for(self, view_name: str) -> np.random.Generator:
        """The generator noise for ``view_name`` draws from.

        ``"shared"`` mode returns the single mechanism generator (every
        existing replay stays bit-identical).  ``"per_view"`` mode lazily
        derives one stream per view from ``(stream_seed, view name,
        incarnation)`` via :func:`repro.dp.rng.stable_seed`, so the draw
        sequence on a view depends only on that view's own release order.
        """
        if self.noise_streams == "shared":
            return self.rng
        rng = self._view_rngs.get(view_name)
        if rng is None:
            seed = stable_seed(self._stream_seed, "noise-stream", view_name,
                               self.stream_incarnation)
            rng = self._view_rngs[view_name] = ensure_generator(seed)
        return rng

    def set_stream_incarnation(self, incarnation: int) -> None:
        """Re-key every per-view stream (used after a worker restart so
        the replacement process draws fresh noise, never a prefix already
        published by its predecessor)."""
        self.stream_incarnation = incarnation
        self._view_rngs.clear()

    # -- helpers --------------------------------------------------------------
    def _sensitivity(self, view: HistogramView) -> float:
        return view.sensitivity()

    def _record_access(self, sigma: float, view: HistogramView) -> None:
        if self.accountant is not None:
            self.accountant.record_gaussian(sigma, self._sensitivity(view))

    def _cached_answer(self, analyst: str, view: HistogramView,
                       query: LinearQuery, per_bin: float) -> Outcome | None:
        cached = self.store.local_synopsis(analyst, view.name)
        adequate = cached is not None and cached.variance <= per_bin
        self.store.note_lookup(adequate)
        if not adequate:
            return None
        return Outcome(
            value=query.answer(cached.values),
            epsilon_charged=0.0,
            per_bin_variance=cached.variance,
            answer_variance=query.answer_variance(cached.variance),
            view_name=view.name,
            cache_hit=True,
        )

    def _exact(self, view: HistogramView) -> np.ndarray:
        return self.registry.exact_values(view.name)

    # -- memoized-answer fast lane ---------------------------------------------
    def cached_answer_fast(self, analyst: str, view: HistogramView,
                           query: LinearQuery,
                           per_bin: float) -> Outcome | None:
        """Versioned lock-free cached-answer probe (the serving fast lane).

        Unlike :meth:`answer`, this is called *without* the engine's view
        section held: it reads the local synopsis, answers, and then
        re-checks the (analyst, view) generation counter — an unchanged
        generation proves no refresh or eviction replaced the entry
        mid-read, making the answer linearizable with the locked path.
        Any mismatch, absence, or inadequacy returns ``None`` so the
        caller falls back to the slow path; **no cache miss is recorded**
        on that path (the slow path's own probe records it once),
        keeping hit/miss statistics identical to a fast-lane-off replay.
        Serving from an adequate cached synopsis charges nothing in the
        slow path, so the fast lane can never skip a charge.
        """
        outcomes = self.cached_answers_fast(analyst, view,
                                            [(query, per_bin)])
        return outcomes[0] if outcomes is not None else None

    def cached_answers_fast(self, analyst: str, view: HistogramView,
                            parts: list[tuple[LinearQuery, float]],
                            prefix: bool = False
                            ) -> list[Outcome | None] | None:
        """Multi-query :meth:`cached_answer_fast` against one synopsis read.

        ``parts`` is ``[(query, per_bin_requirement), ...]``.  By default
        the probe is all-or-nothing — every part must be answerable from
        the cached synopsis or the whole probe returns ``None`` (the
        GROUP BY / AVG shape, where the slow path would refresh once for
        everyone).  With ``prefix=True`` the maximal adequate *prefix* is
        answered and the remainder returned as ``None`` entries, stopping
        at the first inadequate part: a planned batch group runs
        strictest-first, and answering anything *past* a part that needs
        a fresh release could serve a synopsis the sequential slow path
        would already have upgraded — the prefix rule keeps the replay
        bit-identical.
        """
        from repro.views.linear import answer_many

        store = self.store
        name = view.name
        empty = [None] * len(parts) if prefix else None
        generation = store.local_generation(analyst, name)
        cached = store.local_synopsis(analyst, name)
        if cached is None:
            return empty
        variance = cached.variance
        if prefix:
            take = 0
            for query, per_bin in parts:
                if variance > per_bin:
                    break
                take += 1
        else:
            if any(variance > per_bin for _, per_bin in parts):
                return None
            take = len(parts)
        if take == 0:
            return empty
        values = answer_many([query for query, _ in parts[:take]],
                             cached.values)
        if store.local_generation(analyst, name) != generation:
            # Raced a refresh/eviction: nothing recorded, fall back.
            return empty
        outcomes: list[Outcome | None] = []
        for (query, _), value in zip(parts[:take], values):
            store.note_lookup(True)
            outcomes.append(Outcome(
                value=float(value),
                epsilon_charged=0.0,
                per_bin_variance=variance,
                answer_variance=query.answer_variance(variance),
                view_name=name,
                cache_hit=True,
            ))
        outcomes.extend([None] * (len(parts) - take))
        return outcomes

    # -- template -------------------------------------------------------------
    def answer(self, analyst: str, view: HistogramView, query: LinearQuery,
               accuracy: float) -> Outcome:
        """Answer ``query`` for ``analyst`` within expected squared error
        ``accuracy``; raises :class:`QueryRejected` when constraints forbid it.
        """
        per_bin = query.per_bin_variance_for(accuracy)
        cached = self._cached_answer(analyst, view, query, per_bin)
        if cached is not None:
            return cached
        try:
            outcome, _ = self._answer_fresh(analyst, view, query, per_bin)
            return outcome
        except TranslationError as exc:
            raise QueryRejected(str(exc), constraint="translation") from exc

    def answer_avg(self, analyst: str, view: HistogramView,
                   sum_query: LinearQuery, count_query: LinearQuery,
                   sum_accuracy: float, count_accuracy: float
                   ) -> tuple[Outcome, Outcome]:
        """Answer an AVG's SUM and COUNT parts against ONE synopsis.

        The engine scales the COUNT's accuracy so both parts resolve to
        the same per-bin requirement (up to float rounding), meaning the
        slow path needs at most one fresh release.  Issuing the parts as
        two independent :meth:`answer` calls can nevertheless charge the
        SUM and then *reject* the COUNT — an LRU eviction between the
        two probes, an exhausted delta cap, or a one-ulp per-bin
        mismatch forces a second release the budget no longer covers —
        leaving a rejected AVG half-charged.  Here the second part never
        translates to a charge: it is answered from the very synopsis
        the first part used (or released), so a rejected AVG charges
        nothing and a successful one charges exactly one release.

        Cache statistics are recorded exactly as the two-probe path
        would have: two hits on a joint cache hit; one miss (the
        release) plus one hit (the ride-along) on a refresh.
        """
        sum_per_bin = sum_query.per_bin_variance_for(sum_accuracy)
        count_per_bin = count_query.per_bin_variance_for(count_accuracy)
        per_bin = min(sum_per_bin, count_per_bin)
        name = view.name
        cached = self.store.local_synopsis(analyst, name)
        if cached is not None and cached.variance <= per_bin:
            self.store.note_lookup(True)
            self.store.note_lookup(True)
            return (self._free_outcome(cached.values, cached.variance,
                                       sum_query, name),
                    self._free_outcome(cached.values, cached.variance,
                                       count_query, name))
        self.store.note_lookup(False)
        try:
            sum_outcome, values = self._answer_fresh(analyst, view,
                                                     sum_query, per_bin)
        except TranslationError as exc:
            raise QueryRejected(str(exc), constraint="translation") from exc
        self.store.note_lookup(True)
        return sum_outcome, self._free_outcome(
            values, sum_outcome.per_bin_variance, count_query, name)

    def _free_outcome(self, values, variance: float, query: LinearQuery,
                      view_name: str) -> Outcome:
        """A zero-epsilon cache-hit outcome from known synopsis values."""
        return Outcome(
            value=float(query.answer(values)),
            epsilon_charged=0.0,
            per_bin_variance=variance,
            answer_variance=query.answer_variance(variance),
            view_name=view_name,
            cache_hit=True,
        )

    def _answer_fresh(self, analyst: str, view: HistogramView,
                      query: LinearQuery,
                      per_bin: float) -> tuple[Outcome, np.ndarray]:
        """One fresh release; returns the outcome **and the synopsis
        values it answered from**, so multi-part callers
        (:meth:`answer_avg`) can answer sibling queries off the same
        release without re-reading — or re-charging — the store."""
        raise NotImplementedError

    def quote(self, analyst: str, view: HistogramView, query: LinearQuery,
              accuracy: float) -> float:
        """Epsilon that answering would charge ``analyst`` right now.

        Returns 0 for cache hits; raises :class:`QueryRejected` if the query
        would be refused.  Does not mutate any state — the basis for budget
        pre-authorisation (delegation caps) and cost previews.
        """
        per_bin = query.per_bin_variance_for(accuracy)
        if self._cached_answer(analyst, view, query, per_bin) is not None:
            return 0.0
        try:
            return self._quote_fresh(analyst, view, query, per_bin)
        except TranslationError as exc:
            raise QueryRejected(str(exc), constraint="translation") from exc

    def _quote_fresh(self, analyst: str, view: HistogramView,
                     query: LinearQuery, per_bin: float) -> float:
        raise NotImplementedError

    # -- reporting --------------------------------------------------------------
    def analyst_consumed(self, analyst: str) -> float:
        """Cumulative epsilon consumed by one analyst (row composite)."""
        return self.provenance.row_total(analyst)

    def collusion_bound(self) -> float:
        """Worst-case DP loss if all analysts collude (mechanism-specific)."""
        raise NotImplementedError


__all__ = ["GaussianAccountant", "MechanismBase", "NOISE_STREAMS", "Outcome"]
