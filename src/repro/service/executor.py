"""Engine-level batch execution, shared by every service backend.

These are the request-to-response functions the threaded
:class:`repro.service.QueryService` historically carried as private
methods.  The multiprocessing backend (:mod:`repro.service.mp_backend`)
runs the *same* functions inside its worker processes — one code path,
two backends — so the execution semantics (batch fast lane, prefix rule,
error classification) cannot drift between them.

Everything here operates on a :class:`repro.core.engine.DProvDB` alone:
no service state, no session bookkeeping, no stats locks.  Callers own
accounting.
"""

from __future__ import annotations

from typing import Callable

from repro.core.engine import DProvDB
from repro.exceptions import QueryRejected, ReproError
from repro.metrics import tracing
from repro.service.planner import PlannedQuery
from repro.service.session import Lineage, QueryRequest, QueryResponse


_attach = object.__setattr__


def _with_lineage(engine: DProvDB, analyst: str, response: QueryResponse,
                  source: str | None = None,
                  view: str | None = None) -> QueryResponse:
    """Attach a :class:`Lineage` derived from what just happened.

    Purely descriptive — built *after* the response exists, from the
    answers themselves plus the engine's thread-local source mark, so
    replay bit-equality on answers/ε is untouched.  ``source``/``view``
    override the derivation where the caller already knows the path
    (batch-lane hits, rejections).

    This runs once per answer: the response is always freshly
    constructed by our caller and has not escaped yet, so the lineage
    is attached in place rather than via ``dataclasses.replace``, the
    scalar shape skips the ``answers()`` tuple and the ε summation
    loop, and the :class:`Lineage` construction is positional — each
    measurably moves warm-path q/s on its own.
    """
    answer = response.answer
    if answer is not None:
        view = answer.view_name
        if source is None:
            source = engine.last_answer_source()
        epsilon = answer.epsilon_charged
    else:
        answers = response.answers()
        if answers:
            view = answers[0].view_name
            if source is None:
                source = engine.last_answer_source()
            epsilon = sum(a.epsilon_charged for a in answers)
        else:
            if source is None:
                source = "rejected" if response.rejected else "error"
            epsilon = 0.0
    mechanism = engine.mechanism
    trace = tracing.current_trace()
    _attach(response, "lineage", Lineage(
        view, source, epsilon, mechanism.name, mechanism.composition,
        mechanism.store.local_generation(analyst, view)
        if view is not None else 0,
        trace.trace_id if trace is not None else None,
    ))
    return response


def execute_request(engine: DProvDB, analyst: str, index: int,
                    request: QueryRequest, is_group_by: bool | None,
                    statement=None, compiled=None) -> QueryResponse:
    """Run one request against the engine (which self-locks per view).

    ``compiled`` is the already-resolved :class:`CompiledStatement` when
    the caller planned ahead; when absent and classification is needed,
    the one resolution made here is handed down to the engine so no
    submit path re-probes — each query compiles/probes exactly once.
    """
    # Prefer the raw SQL text when we have it: it is the compiled-
    # statement cache's key, so the engine skips re-parsing AND
    # re-compiling; a pre-resolved statement has no cheap cache key.
    sql = request.sql if isinstance(request.sql, str) \
        else (statement if statement is not None else request.sql)
    try:
        if is_group_by is None:
            if compiled is None and isinstance(sql, str):
                compiled = engine.compile_statement(sql)
            if compiled is not None:
                is_group_by = compiled.kind == "group_by"
            else:
                # Pre-resolved statements have no cache key; their
                # routing kind is a plain attribute read — compiling
                # here would only throw the work away.
                is_group_by = bool(sql.group_by)
        if is_group_by:
            groups = engine.submit_group_by(
                analyst, sql, accuracy=request.accuracy,
                epsilon=request.epsilon, compiled=compiled)
            return _with_lineage(engine, analyst,
                                 QueryResponse(index, groups=tuple(groups)))
        answer = engine.submit(analyst, sql,
                               accuracy=request.accuracy,
                               epsilon=request.epsilon,
                               compiled=compiled)
        return _with_lineage(engine, analyst,
                             QueryResponse(index, answer=answer))
    except QueryRejected as exc:
        return _with_lineage(engine, analyst,
                             QueryResponse(index, error=str(exc),
                                           rejected=True))
    except ReproError as exc:
        return _with_lineage(engine, analyst,
                             QueryResponse(index, error=str(exc)))


def execute_planned(engine: DProvDB, analyst: str,
                    item: PlannedQuery) -> QueryResponse:
    """Run one planned entry, using the compiled fast path when the
    planner kept the (view, query, target) triple."""
    if not item.compiled:
        return execute_request(engine, analyst, item.index, item.request,
                               is_group_by=item.is_group_by,
                               statement=item.statement,
                               compiled=item.entry)
    try:
        answer = engine.submit_compiled(
            analyst, item.statement, item.view, item.query, item.target)
        return _with_lineage(engine, analyst,
                             QueryResponse(item.index, answer=answer))
    except QueryRejected as exc:
        return _with_lineage(engine, analyst,
                             QueryResponse(item.index, error=str(exc),
                                           rejected=True),
                             view=item.view.name)
    except ReproError as exc:
        return _with_lineage(engine, analyst,
                             QueryResponse(item.index, error=str(exc)),
                             view=item.view.name)


def execute_planned_group(engine: DProvDB, analyst: str,
                          view_name: str | None,
                          items: list[PlannedQuery],
                          responses: list,
                          on_item: Callable[[int], None] | None = None
                          ) -> None:
    """Run one per-view group of a planned batch, filling ``responses``.

    The first (strictest) entry always takes the normal path — it is
    the one that may refresh the synopsis for everyone behind it.
    The rest first try the engine's batch lane: one versioned cached
    lookup answers the maximal adequate prefix of compiled scalar
    entries without any view/provenance locking; whatever the lane
    declines (inadequate accuracy, GROUP BY / AVG shapes, generation
    races) runs through the normal path in plan order, exactly as a
    fast-lane-disabled replay would.

    ``on_item`` (if given) is invoked with a running count after every
    response lands — the multiprocessing backend's fault-injection hook
    (a test worker SIGKILLs itself after N answers to exercise the
    parent's crash recovery).

    Tracing reports per *group*, not per query: one ``decisions`` event
    tallies the outcomes (fresh/cached/fast_lane/...) from the lineage
    already attached to each response, so the per-answer hot path
    carries no span machinery (fresh releases and rejections get their
    own spans inside the engine — they are rare and expensive).
    """
    done = 0

    def note() -> None:
        nonlocal done
        done += 1
        if on_item is not None:
            on_item(done)

    responses[items[0].index] = execute_planned(engine, analyst, items[0])
    note()
    rest = items[1:]
    if not rest:
        _note_group_decisions(view_name, items, responses)
        return
    lane: list[PlannedQuery] = []
    if view_name is not None and engine.fast_lane:
        for item in rest:
            if not item.compiled:
                break
            lane.append(item)
    if lane:
        answers = engine.answer_batch_from_cache(
            analyst, lane[0].view,
            [(item.query, item.target) for item in lane])
        for item, answer in zip(lane, answers):
            if answer is not None:
                responses[item.index] = _with_lineage(
                    engine, analyst,
                    QueryResponse(item.index, answer=answer),
                    source="fast_lane")
                note()
    for item in rest:
        if responses[item.index] is None:
            responses[item.index] = execute_planned(engine, analyst, item)
            note()
    _note_group_decisions(view_name, items, responses)


def _note_group_decisions(view_name: str | None,
                          items: list[PlannedQuery],
                          responses: list) -> None:
    """One aggregated trace event per executed group.  Derived post-hoc
    from the responses' lineage, so the zero-trace path pays exactly one
    ``ContextVar`` read per group and the per-query path pays nothing.
    """
    if tracing.current_trace() is None:
        return
    tally: dict[str, int] = {}
    for item in items:
        response = responses[item.index]
        if response is None or response.lineage is None:
            continue
        source = response.lineage.source
        tally[source] = tally.get(source, 0) + 1
    if tally:
        tracing.event("decisions", view=view_name, **tally)


__all__ = ["execute_planned", "execute_planned_group", "execute_request"]
