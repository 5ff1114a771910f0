"""Strawman solutions of Sec. 7.2, as runnable systems.

* :class:`SyntheticDataRelease` — strawman #1: spend the whole budget on
  global synopses and hand the *same* synopses to every analyst.  Optimal
  under all-collusion but violates multi-analyst DP (everyone, including the
  lowest-privilege analyst, sees the most accurate release).
* :class:`SeededCacheBaseline` — strawman #2: pre-compute a ladder of
  synopses offline at equally split budgets (conceptually: store seeds and
  re-derive them).  Online queries snap to the nearest pre-computed accuracy
  level, losing translation precision, and the upfront split wastes budget
  on accuracy levels nobody asks for.

Both exist so the ablation benchmark can quantify the paper's argument for
the online, provenance-driven design.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.analyst import Analyst
from repro.core.engine import Answer
from repro.core.synopsis import Synopsis
from repro.datasets.base import DatasetBundle
from repro.db.sql.ast import SelectStatement
from repro.db.sql.parser import parse
from repro.dp.gaussian import analytic_gaussian_sigma
from repro.dp.rng import SeedLike, ensure_generator
from repro.exceptions import QueryRejected, ReproError, UnknownAnalyst
from repro.views.registry import ViewRegistry


class _StaticSynopsisSystem:
    """Common machinery: all budget spent at setup on per-view synopses."""

    def __init__(self, bundle: DatasetBundle, analysts: Sequence[Analyst],
                 epsilon: float, delta: float = 1e-9,
                 seed: SeedLike = None) -> None:
        if epsilon <= 0:
            raise ReproError(f"overall budget must be positive, got {epsilon}")
        self.bundle = bundle
        self.analysts = {a.name: a for a in analysts}
        self.table_budget = epsilon
        self.delta = delta
        self.rng = ensure_generator(seed)
        self.registry = ViewRegistry(bundle.database)
        self.registry.add_attribute_views(bundle.fact_table,
                                          bundle.view_attributes)
        self._setup_done = False

    def _check_analyst(self, analyst: str) -> None:
        if analyst not in self.analysts:
            raise UnknownAnalyst(f"analyst {analyst!r} not registered")

    def _resolve(self, sql) -> SelectStatement:
        return sql if isinstance(sql, SelectStatement) else parse(sql)

    def try_submit(self, analyst: str, sql, accuracy: float | None = None,
                   epsilon: float | None = None) -> Answer | None:
        try:
            return self.submit(analyst, sql, accuracy=accuracy,
                               epsilon=epsilon)
        except QueryRejected:
            return None

    def analyst_consumed(self, analyst: str) -> float:
        self._check_analyst(analyst)
        return 0.0

    def total_consumed(self) -> float:
        return self.table_budget if self._setup_done else 0.0

    def collusion_bound(self) -> float:
        return self.total_consumed()


class SyntheticDataRelease(_StaticSynopsisSystem):
    """Strawman #1: release the global synopses themselves.

    Budget is split per view (water-filling would let one view take it all;
    here the strawman splits evenly like a one-shot synthetic-data release)
    and every analyst receives the same noisy histograms.
    """

    name = "synthetic_release"

    def setup(self) -> float:
        if self._setup_done:
            return self.registry.setup_seconds
        view_budget = self.table_budget / len(self.registry.view_names)
        self._synopses: dict[str, Synopsis] = {}
        for name in self.registry.view_names:
            view = self.registry.view(name)
            exact = self.registry.exact_values(name)
            sigma = analytic_gaussian_sigma(view_budget, self.delta,
                                            view.sensitivity())
            self._synopses[name] = Synopsis(
                view_name=name,
                values=exact + self.rng.normal(0.0, sigma, size=exact.shape),
                epsilon=view_budget, delta=self.delta, variance=sigma ** 2,
                analyst=None,
            )
        self._setup_done = True
        return self.registry.setup_seconds

    def submit(self, analyst: str, sql, accuracy: float | None = None,
               epsilon: float | None = None) -> Answer:
        self._check_analyst(analyst)
        if not self._setup_done:
            self.setup()
        statement = self._resolve(sql)
        view, query = self.registry.compile(statement)
        synopsis = self._synopses[view.name]
        if accuracy is not None:
            per_bin = query.per_bin_variance_for(accuracy)
            if synopsis.variance > per_bin:
                raise QueryRejected(
                    "released synopsis too noisy for the requested accuracy",
                    constraint="column",
                )
        # NOTE: every analyst gets the identical answer — this is precisely
        # why the strawman fails Definition 5 (no per-analyst discrepancy).
        return Answer(analyst, query.answer(synopsis.values), 0.0, view.name,
                      synopsis.variance,
                      query.answer_variance(synopsis.variance), True)


class SeededCacheBaseline(_StaticSynopsisSystem):
    """Strawman #2: a pre-computed additive ladder of synopses per view.

    The per-view budget is split into ``levels`` equal rungs; level k's
    synopsis embodies k rungs of budget, derived from level k+1 by adding
    noise (additive GM offline).  Queries snap *up* to the cheapest rung
    accurate enough; between-rung precision is lost, and analysts are served
    the rung their own cumulative consumption allows.
    """

    name = "seeded_cache"

    def __init__(self, bundle: DatasetBundle, analysts: Sequence[Analyst],
                 epsilon: float, delta: float = 1e-9, levels: int = 4,
                 seed: SeedLike = None) -> None:
        super().__init__(bundle, analysts, epsilon, delta, seed)
        if levels < 1:
            raise ReproError(f"need at least one level, got {levels}")
        self.levels = levels
        self._consumed: dict[str, float] = {a.name: 0.0 for a in analysts}
        #: Per analyst and view: highest ladder level already paid for.
        self._entitled: dict[tuple[str, str], int] = {}

    def setup(self) -> float:
        if self._setup_done:
            return self.registry.setup_seconds
        view_budget = self.table_budget / len(self.registry.view_names)
        self._ladders: dict[str, list[Synopsis]] = {}
        for name in self.registry.view_names:
            view = self.registry.view(name)
            exact = self.registry.exact_values(name)
            ladder: list[Synopsis] = []
            # Build top-down: most accurate level first, then degrade.
            budgets = [view_budget * k / self.levels
                       for k in range(self.levels, 0, -1)]
            sigma_top = analytic_gaussian_sigma(budgets[0], self.delta,
                                                view.sensitivity())
            values = exact + self.rng.normal(0.0, sigma_top,
                                             size=exact.shape)
            ladder.append(Synopsis(name, values, budgets[0], self.delta,
                                   sigma_top ** 2, None))
            for eps_k in budgets[1:]:
                sigma_k = analytic_gaussian_sigma(eps_k, self.delta,
                                                  view.sensitivity())
                extra = sigma_k ** 2 - ladder[-1].variance
                values = ladder[-1].values + self.rng.normal(
                    0.0, np.sqrt(max(extra, 0.0)), size=exact.shape
                )
                ladder.append(Synopsis(name, values, eps_k, self.delta,
                                       sigma_k ** 2, None))
            ladder.reverse()  # index k-1 = k rungs of budget
            self._ladders[name] = ladder
        self._setup_done = True
        return self.registry.setup_seconds

    def submit(self, analyst: str, sql, accuracy: float | None = None,
               epsilon: float | None = None) -> Answer:
        self._check_analyst(analyst)
        if not self._setup_done:
            self.setup()
        if accuracy is None:
            raise ReproError("the seeded-cache strawman is accuracy-oriented")
        statement = self._resolve(sql)
        view, query = self.registry.compile(statement)
        ladder = self._ladders[view.name]
        per_bin = query.per_bin_variance_for(accuracy)

        # Snap to the cheapest level that is accurate enough.
        level = next((i for i, s in enumerate(ladder)
                      if s.variance <= per_bin), None)
        if level is None:
            raise QueryRejected("no pre-computed synopsis accurate enough",
                                constraint="column")
        key = (analyst, view.name)
        already = self._entitled.get(key, -1)
        synopsis = ladder[level]
        if level > already:
            charged = synopsis.epsilon - (ladder[already].epsilon
                                          if already >= 0 else 0.0)
            limit = self.table_budget / len(self.analysts)
            if self._consumed[analyst] + charged > limit + 1e-12:
                raise QueryRejected(
                    f"per-analyst share {limit} would be exceeded",
                    constraint="row",
                )
            self._consumed[analyst] += charged
            self._entitled[key] = level
        else:
            charged = 0.0
        return Answer(analyst, query.answer(synopsis.values), charged,
                      view.name, synopsis.variance,
                      query.answer_variance(synopsis.variance),
                      cache_hit=charged == 0.0)

    def analyst_consumed(self, analyst: str) -> float:
        self._check_analyst(analyst)
        return self._consumed[analyst]


__all__ = ["SeededCacheBaseline", "SyntheticDataRelease"]
