"""Batched query planning: group by target view, strictest accuracy first.

The engine answers a query from an analyst's cached local synopsis whenever
that synopsis is already accurate enough (``MechanismBase._cached_answer``).
A batch submitted in arrival order squanders this: each time a *stricter*
query lands on a view, the synopsis must be refreshed again, paying the
translation search and noise sampling repeatedly.  The planner reorders a
batch so that, per target view, the most accurate requirement runs first —
one synopsis refresh then serves every remaining query on that view from
cache.  Reordering is sound because the engine's accounting is
order-insensitive for a fixed set of granted queries, and each query is
still answered at (or better than) its own requested accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.engine import DProvDB
from repro.db.sql.ast import SelectStatement
from repro.exceptions import ReproError
from repro.service.session import QueryRequest


@dataclass(frozen=True)
class PlannedQuery:
    """One batch entry with its routing decision.

    ``per_bin_target`` is the per-bin synopsis variance the request implies
    (smaller = stricter); ``math.inf`` marks requests that could not be
    planned (unknown view, parse error) — they sort last and surface their
    error at execution time.  For plain scalar queries the compiled
    ``view``/``query``/``target`` triple is kept so execution can go through
    :meth:`DProvDB.submit_compiled` without re-compiling; GROUP BY and AVG
    requests (``view is None``) take the engine's general path, carrying
    the full compiled ``entry`` so that path never re-resolves either —
    planning is the one and only ``compile_statement`` call per query.
    """

    index: int
    request: QueryRequest
    statement: SelectStatement | None
    view_name: str | None
    per_bin_target: float
    is_group_by: bool
    view: object | None = None
    query: object | None = None
    target: float | None = None
    entry: object | None = None

    @property
    def compiled(self) -> bool:
        return self.view is not None


@dataclass(frozen=True)
class BatchPlan:
    """Execution order plus the view grouping used to derive it."""

    ordered: tuple[PlannedQuery, ...]
    view_groups: dict[str, tuple[int, ...]]

    @property
    def num_views(self) -> int:
        return len(self.view_groups)


def _plan_one(engine: DProvDB, index: int, request: QueryRequest
              ) -> PlannedQuery:
    try:
        compiled = engine.compile_statement(request.sql)
    except ReproError:
        # Parse/compile failures are rare and surface their error at
        # execution time; re-resolve only to distinguish "unparseable"
        # (no statement at all) from "parsed but unanswerable".
        try:
            statement = engine._resolve(request.sql)
        except ReproError:
            return PlannedQuery(index, request, None, None, math.inf, False)
        return PlannedQuery(index, request, statement, None, math.inf,
                            statement.group_by != ())
    # Executors read a statement only when the request carries no text.
    statement = None if isinstance(request.sql, str) else request.sql
    try:
        view = compiled.view
        if compiled.kind != "scalar":
            # GROUP BY / AVG take the engine's general path, but their
            # strictness key must still be a *per-bin* variance so it is
            # comparable with compiled scalar entries on the same view;
            # the cached entry carries the strictest transformed part.
            if compiled.strictest is None:
                per_bin = math.inf
            else:
                target = engine._accuracy_for(compiled.strictest,
                                              request.accuracy,
                                              request.epsilon, view)
                per_bin = compiled.strictest.per_bin_variance_for(target)
            return PlannedQuery(index, request, statement, view.name,
                                per_bin, compiled.kind == "group_by",
                                entry=compiled)
        query = compiled.query
        target = engine._accuracy_for(query, request.accuracy,
                                      request.epsilon, view)
        return PlannedQuery(index, request, statement, view.name,
                            query.per_bin_variance_for(target), False,
                            view=view, query=query, target=target,
                            entry=compiled)
    except ReproError:
        return PlannedQuery(index, request, statement, None, math.inf,
                            compiled.kind == "group_by")


def plan_batch(engine: DProvDB, requests: list[QueryRequest]) -> BatchPlan:
    """Order ``requests`` view-by-view, strictest per-bin target first.

    Within a view the ordering is (ascending per-bin target, original
    index); views run in first-appearance order so unrelated queries keep
    rough arrival fairness.  Unplannable requests trail the batch.
    """
    planned = [_plan_one(engine, i, r) for i, r in enumerate(requests)]

    first_seen: dict[str | None, int] = {}
    for item in planned:
        first_seen.setdefault(item.view_name, item.index)
    ordered = sorted(planned, key=lambda p: (
        p.view_name is None,                 # unplannable last
        first_seen[p.view_name],             # views in arrival order
        p.per_bin_target,                    # strictest first inside a view
        p.index,
    ))

    groups: dict[str, list[int]] = {}
    for item in planned:
        if item.view_name is not None:
            groups.setdefault(item.view_name, []).append(item.index)
    return BatchPlan(tuple(ordered),
                     {view: tuple(ids) for view, ids in groups.items()})


__all__ = ["BatchPlan", "PlannedQuery", "plan_batch"]
