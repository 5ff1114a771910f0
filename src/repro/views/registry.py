"""View registry: catalog, selection, and cached exact materialisations.

The registry is curator-side: it holds the exact (non-noisy) view answers so
mechanisms can create synopses, and it picks which view answers each incoming
statement (smallest answerable view wins, so a single-attribute query is not
routed through a wide marginal).
"""

from __future__ import annotations

import threading
import time
from itertools import combinations

import numpy as np

from repro.db.database import Database
from repro.db.schema import Schema
from repro.db.sql.ast import SelectStatement
from repro.exceptions import SchemaError, UnanswerableQuery
from repro.views.hierarchical import HierarchicalView
from repro.views.histogram import HistogramView, attribute_views
from repro.views.linear import LinearQuery
from repro.views.transform import is_answerable, transform

#: Views the registry accepts: flat histograms and dyadic trees.
AnyView = HistogramView | HierarchicalView

class ViewRegistry:
    """Holds the system's views and their exact materialisations."""

    def __init__(self, database: Database) -> None:
        self._database = database
        self._views: dict[str, AnyView] = {}
        self._exact: dict[str, np.ndarray] = {}
        self._materialize_lock = threading.Lock()
        #: Wall-clock seconds spent materialising exact views ("setup time").
        self.setup_seconds = 0.0
        # Routing index: a view can only answer a statement over its own
        # table whose columns (predicate, GROUP BY, SUM/AVG operand) are
        # all view attributes, so each view is filed at ``add()`` time
        # under ``(table, frozenset(subset))`` for every subset of its
        # attributes and routing is one dict probe with the statement's
        # column set — the catalog alone decides the index, no statement
        # ever grows it.  A k-attribute view files 2**k keys, no more
        # than it has bins when every domain holds two values or more.
        # Buckets keep registration order, which is the tie-break of the
        # cost minimisation.  Counters are plain-int increments (exact
        # sequentially, at worst undercounted by a race); a hit is a
        # probe that found at least one covering view.
        self._route_generation = 0
        self._covering: dict[tuple, tuple[AnyView, ...]] = {}
        self._route_hits = 0
        self._route_misses = 0

    # -- catalog ------------------------------------------------------------
    def add(self, view: AnyView) -> None:
        if view.name in self._views:
            raise SchemaError(f"view {view.name!r} already registered")
        self._views[view.name] = view
        attributes = view.attributes
        for width in range(len(attributes) + 1):
            for subset in combinations(attributes, width):
                key = (view.table, frozenset(subset))
                self._covering[key] = self._covering.get(key, ()) + (view,)
        self._route_generation += 1

    def add_attribute_views(self, table: str,
                            attributes: tuple[str, ...]) -> None:
        """Register one histogram view per attribute (the paper's default)."""
        schema = self._database.table(table).schema
        for view in attribute_views(schema, table, attributes):
            self.add(view)

    def add_hierarchical_view(self, table: str, attribute: str) -> str:
        """Register a dyadic-tree view over one integer attribute."""
        from repro.views.hierarchical import hierarchical_view

        schema = self._database.table(table).schema
        view = hierarchical_view(schema, table, attribute)
        self.add(view)
        return view.name

    @property
    def view_names(self) -> tuple[str, ...]:
        return tuple(self._views)

    def view(self, name: str) -> AnyView:
        try:
            return self._views[name]
        except KeyError:
            raise SchemaError(f"unknown view {name!r}") from None

    def schema(self, table: str) -> Schema:
        return self._database.table(table).schema

    # -- materialisation ----------------------------------------------------
    def exact_values(self, view_name: str) -> np.ndarray:
        """Exact flattened histogram for the view (cached; curator-side).

        First-touch materialisation is serialised by a lock so concurrent
        submissions against different un-materialised views never race on
        the cache (double-checked: the hot cached path stays lock-free).
        """
        values = self._exact.get(view_name)
        if values is None:
            with self._materialize_lock:
                values = self._exact.get(view_name)
                if values is None:
                    started = time.perf_counter()
                    view = self.view(view_name)
                    values = view.materialize(self._database)
                    self._exact[view_name] = values
                    self.setup_seconds += time.perf_counter() - started
        return values

    def materialize_all(self) -> float:
        """Materialise every registered view; returns total setup seconds."""
        for name in self._views:
            self.exact_values(name)
        return self.setup_seconds

    # -- selection ----------------------------------------------------------
    def candidates(self, statement: SelectStatement
                   ) -> tuple[AnyView, ...]:
        """Views over the statement's table covering every column it
        needs, in registration order — a superset of the views that can
        answer it (aggregate support and bin alignment are the
        transform's to judge)."""
        needed = set(statement.group_by)
        for cond in statement.predicate.conditions:
            needed.add(cond.column)
        for agg in statement.aggregates:
            if agg.func != "COUNT":
                needed.add(agg.column)
        found = self._covering.get((statement.table, frozenset(needed)), ())
        if found:
            self._route_hits += 1
        else:
            self._route_misses += 1
        return found

    def routing_counters(self) -> dict:
        """JSON-native routing-index statistics for snapshots."""
        hits, misses = self._route_hits, self._route_misses
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "entries": len(self._covering),
            "generation": self._route_generation,
            "hit_rate": (hits / total) if total else 0.0,
        }

    def select(self, statement: SelectStatement,
               candidates: tuple[AnyView, ...] | None = None
               ) -> HistogramView:
        """Smallest *flat* view answering ``statement``.

        Used for GROUP BY / AVG compilation, which dyadic views do not
        support; scalar counting queries should go through :meth:`compile`,
        which also considers hierarchical views with a cost criterion.
        ``candidates`` is a remembered :meth:`candidates` result for a
        statement of the same shape (it depends on columns, not literals).
        """
        if candidates is None:
            candidates = self.candidates(statement)
        answering = [v for v in candidates
                     if isinstance(v, HistogramView)
                     and is_answerable(statement, v)]
        if not answering:
            raise UnanswerableQuery(
                f"no registered view answers: {statement}"
            )
        return min(answering, key=lambda v: v.size)

    def compile(self, statement: SelectStatement,
                clip: tuple[float, float] | None = None,
                candidates: tuple[AnyView, ...] | None = None
                ) -> tuple[AnyView, LinearQuery]:
        """Compile ``statement`` over the cheapest answerable view.

        The cost of answering a query over a view at fixed accuracy scales
        with ``sensitivity^2 * ||w||^2`` (the per-bin variance the synopsis
        must reach, times the noise a unit budget buys), so the registry
        compiles every covering candidate once and keeps the minimiser —
        flat histograms win for narrow predicates, dyadic trees for wide
        ranges.  The transform is its own answerability check: it raises
        for an unsupported aggregate or a bin-misaligned predicate, and
        that candidate is skipped.
        """
        if candidates is None:
            candidates = self.candidates(statement)
        best: tuple[AnyView, LinearQuery] | None = None
        best_cost = float("inf")
        for view in candidates:
            try:
                if isinstance(view, HierarchicalView):
                    if not view.answerable(statement):
                        continue
                    query = view.to_linear(statement)
                else:
                    query = transform(statement, view, clip)
            except UnanswerableQuery:
                continue
            cost = view.sensitivity() ** 2 * query.weight_norm_sq
            if cost < best_cost:
                best, best_cost = (view, query), cost
        if best is None:
            raise UnanswerableQuery(
                f"no registered view answers: {statement}"
            )
        return best


__all__ = ["ViewRegistry"]
