"""The multi-analyst query service: sessions, batching, sharded execution.

:class:`QueryService` is the serving front-end over a :class:`DProvDB`
engine.  It adds what the bare engine lacks for concurrent operation:

* **sessions** — many connections (e.g. one per worker thread) mapped onto
  the engine's registered analysts;
* **sharded execution** (the default) — there is *no* global critical
  section: check-then-charge atomicity lives in
  :meth:`repro.core.provenance.ProvenanceTable.reserve`, synopsis
  consistency in the engine's per-view sections
  (:meth:`repro.core.engine.DProvDB.view_section`, acquired in sorted
  view-name order for multi-view work), and service counters behind a
  dedicated stats lock — so submissions against disjoint views proceed in
  parallel (see ``tests/test_service_sharding.py`` for the invariants);
* **batched planning** — :func:`repro.service.planner.plan_batch` orders a
  batch view-by-view, strictest accuracy first, so one synopsis refresh
  answers many queries; under sharded execution the per-view groups of a
  batch are dispatched concurrently through a
  :class:`repro.service.sharding.ShardManager` worker pool;
* **a bounded synopsis cache** — local synopses live in an LRU store with
  hit/miss statistics (:class:`repro.metrics.runtime.CacheStats`).

``execution="global"`` restores the PR 1 behaviour — one reentrant lock
serialising every submission end to end — and exists as the measured
baseline for the sharding speedup (``bench-service --compare-global``).

Orthogonal to the execution mode is the **backend**: ``"threaded"``
(default) runs everything in-process; ``"mp"`` dispatches the per-view
groups to forked worker processes with shared-memory synopses and
parent-brokered accounting (:mod:`repro.service.mp_backend`), escaping
the GIL for CPU-bound workloads.  Accounting semantics are identical —
``bench-service --backend mp --compare-threaded`` gates on a
bit-identical sequential replay.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.core.analyst import Analyst
from repro.core.engine import Answer, DProvDB
from repro.core.synopsis import SynopsisStore
from repro.datasets.base import DatasetBundle
from repro.exceptions import ReproError, ServiceClosed, SessionClosed
from repro.metrics import tracing
from repro.metrics.audit import AuditTrail
from repro.metrics.runtime import CacheStats, CompensatedSum
from repro.metrics.tracing import Tracer
from repro.persistence.schema import provenance_summary
from repro.service.cache import LruSynopsisStore
from repro.service.executor import (
    execute_planned,
    execute_planned_group,
    execute_request,
)
from repro.service.planner import BatchPlan, PlannedQuery, _plan_one, \
    plan_batch
from repro.service.session import QueryRequest, QueryResponse, Session
from repro.service.sharding import DEFAULT_NUM_SHARDS, ShardManager

#: Default bound on cached local synopses (one entry per (analyst, view)
#: pair, so this accommodates e.g. 16 analysts x 16 hot views).  Pass
#: ``max_cached_synopses=None`` for an unbounded store: an eviction is not
#: free — re-deriving the synopsis later is a fresh release (see
#: :mod:`repro.service.cache`).
DEFAULT_MAX_CACHED = 256

#: Supported execution modes.
EXECUTION_MODES = ("sharded", "global")

#: Supported execution backends: ``"threaded"`` shares the interpreter,
#: ``"mp"`` forks worker processes (see :mod:`repro.service.mp_backend`).
BACKENDS = ("threaded", "mp")

#: How many *closed* sessions the service remembers (for idempotent
#: close and the tagged :class:`SessionClosed` error).  A long-running
#: daemon churns through sessions, so retention must be bounded: once a
#: closed session ages out, submitting to its id degrades to the generic
#: "no open session" error (404 over the wire) instead of the 409.
MAX_CLOSED_SESSIONS = 4096


@dataclass
class ServiceStats:
    """Aggregate counters the service exposes for monitoring.

    Mutation happens only under the owning service's dedicated stats lock
    (never the execution path's view locks), so the counters stay exact
    under sharded submission.  ``busy_seconds`` sums per-submission
    execution time; overlapping submissions in sharded mode can therefore
    sum to more than wall-clock — the ratio is the effective parallelism.

    Per-analyst epsilon is accumulated with Neumaier compensation
    (:class:`repro.metrics.runtime.CompensatedSum`): a plain float sum
    drifts from the provenance table's ledger over long runs of small
    charges (regression-tested against ``provenance_summary`` after 10k
    charges in ``tests/test_fast_lane_equivalence.py``).
    """

    submitted: int = 0
    answered: int = 0
    rejected: int = 0
    failed: int = 0
    answer_cache_hits: int = 0
    fresh_releases: int = 0
    batches: int = 0
    epsilon_terms: dict[str, CompensatedSum] = field(default_factory=dict)
    busy_seconds: float = 0.0

    @property
    def answer_cache_hit_rate(self) -> float:
        """Fraction of *answers* served without a fresh release."""
        total = self.answer_cache_hits + self.fresh_releases
        return self.answer_cache_hits / total if total else 0.0

    @property
    def epsilon_by_analyst(self) -> dict[str, float]:
        """Compensated per-analyst epsilon totals, as plain floats."""
        return {name: term.value
                for name, term in self.epsilon_terms.items()}

    def _record_answer(self, analyst: str, answer: Answer) -> None:
        if answer.cache_hit:
            self.answer_cache_hits += 1
        else:
            self.fresh_releases += 1
        term = self.epsilon_terms.get(analyst)
        if term is None:
            term = self.epsilon_terms[analyst] = CompensatedSum()
        term.add(answer.epsilon_charged)

    def as_dict(self) -> dict:
        """Strictly JSON-serializable counters (the wire protocol ships
        this verbatim): string keys, native ints/floats — numpy scalars
        that reach the epsilon ledger are coerced on the way out."""
        return {
            "submitted": int(self.submitted), "answered": int(self.answered),
            "rejected": int(self.rejected), "failed": int(self.failed),
            "answer_cache_hits": int(self.answer_cache_hits),
            "fresh_releases": int(self.fresh_releases),
            "answer_cache_hit_rate": float(self.answer_cache_hit_rate),
            "batches": int(self.batches),
            "epsilon_by_analyst": {str(name): float(spent) for name, spent
                                   in self.epsilon_by_analyst.items()},
            "busy_seconds": float(self.busy_seconds),
        }


class QueryService:
    """Thread-safe serving layer over one :class:`DProvDB` engine."""

    def __init__(self, engine: DProvDB,
                 max_cached_synopses: int | None = DEFAULT_MAX_CACHED, *,
                 execution: str = "sharded",
                 shards: int = DEFAULT_NUM_SHARDS,
                 backend: str = "threaded",
                 workers: int | None = None,
                 durability=None,
                 tracer: Tracer | None = None,
                 audit: bool = True) -> None:
        if execution not in EXECUTION_MODES:
            raise ReproError(f"unknown execution mode {execution!r}; "
                             f"choose from {EXECUTION_MODES}")
        if backend not in BACKENDS:
            raise ReproError(f"unknown backend {backend!r}; "
                             f"choose from {BACKENDS}")
        if backend == "mp" and execution != "sharded":
            raise ReproError(
                "the mp backend requires sharded execution (a global "
                "critical section and a worker pool are contradictory)")
        if engine.mechanism.store.local_keys or \
                engine.mechanism.store.global_views:
            raise ReproError(
                "QueryService must wrap a fresh engine (its synopsis store "
                "is replaced with a bounded one); construct the service "
                "before submitting queries, or use QueryService.build()"
            )
        if type(engine.mechanism.store) is not SynopsisStore:
            raise ReproError(
                "the engine already carries a custom synopsis store; "
                "QueryService manages its own bounded store — drop the "
                "synopsis_store= injection and size the service's cache "
                "with max_cached_synopses= instead"
            )
        self._engine = engine
        self._execution = execution
        #: Global-mode critical section (PR 1 baseline); unused when sharded.
        self._lock = threading.RLock()
        self._sessions_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._sessions: dict[int, Session] = {}
        #: Bounded FIFO of recently closed sessions (insertion-ordered
        #: dict; oldest evicted past MAX_CLOSED_SESSIONS).
        self._closed_sessions: dict[int, Session] = {}
        self._session_ids = itertools.count(1)
        self._closed = False
        self.cache_stats = CacheStats()
        engine.mechanism.store = LruSynopsisStore(max_cached_synopses,
                                                  self.cache_stats)
        self.stats = ServiceStats()
        #: Request tracer (see :mod:`repro.metrics.tracing`).  Direct
        #: in-process submissions mint their own trace here; the HTTP
        #: daemon mints one per request up front (propagating the
        #: client's id) and this tracer just keeps the ring.  Pass
        #: ``Tracer(enabled=False)`` to strip tracing to a single
        #: context-var read per span site.
        self.tracer = tracer if tracer is not None else Tracer()
        self._backend = backend
        if backend == "mp":
            # Imported lazily: the mp backend needs POSIX fork +
            # multiprocessing.shared_memory, and its constructor
            # validates the engine (additive mechanism, per-view noise
            # streams) with actionable errors.
            from repro.service.mp_backend import MpBackend

            self.sharding = None
            self._backend_impl = MpBackend(self, workers)
        else:
            if workers is not None:
                raise ReproError(
                    "workers= is an mp-backend knob; the threaded backend "
                    "sizes its pool with shards=")
            self.sharding = (ShardManager(shards) if execution == "sharded"
                             else None)
            self._backend_impl = None
        #: Optional :class:`repro.persistence.DurabilityManager`.  Bound
        #: last — the manager runs crash recovery against the fully
        #: constructed service (bounded store in place, no traffic yet)
        #: and only then attaches the write-ahead ledger hooks, so
        #: nothing recovery replays is ever re-journaled.
        self.durability = durability
        if durability is not None:
            try:
                durability.bind(self)
            except BaseException:
                # Recovery refused (e.g. strict mode on a torn tail):
                # the caller never receives the instance, so release the
                # shard worker pool here or its threads leak.
                if self.sharding is not None:
                    self.sharding.close()
                if self._backend_impl is not None:
                    self._backend_impl.close()
                raise
        #: Live budget-audit tailer (:mod:`repro.metrics.audit`):
        #: attached *after* durability so the ledger keeps assigning
        #: sequence numbers before the trail reads them, and so recovery
        #: never replays through a live hook.  ``audit=False`` strips it
        #: entirely — the control arm of ``bench-service
        #: --audit-overhead``.
        self.audit = AuditTrail(engine, durability) if audit else None
        if self.audit is not None:
            self.audit.attach(self)

    @classmethod
    def build(cls, bundle: DatasetBundle, analysts: Sequence[Analyst],
              epsilon: float, *,
              max_cached_synopses: int | None = DEFAULT_MAX_CACHED,
              execution: str = "sharded",
              shards: int = DEFAULT_NUM_SHARDS,
              backend: str = "threaded",
              workers: int | None = None,
              durability=None,
              tracer: Tracer | None = None,
              audit: bool = True,
              **engine_kwargs) -> "QueryService":
        """Construct an engine and wrap it in one step."""
        return cls(DProvDB(bundle, analysts, epsilon, **engine_kwargs),
                   max_cached_synopses=max_cached_synopses,
                   execution=execution, shards=shards,
                   backend=backend, workers=workers,
                   durability=durability, tracer=tracer, audit=audit)

    @property
    def engine(self) -> DProvDB:
        """The wrapped engine.  Safe to read; prefer the session API for
        submissions so service counters stay consistent."""
        return self._engine

    @property
    def execution(self) -> str:
        """``"sharded"`` (no global lock) or ``"global"`` (PR 1 baseline)."""
        return self._execution

    @property
    def backend(self) -> str:
        """``"threaded"`` (in-process) or ``"mp"`` (forked workers)."""
        return self._backend

    @property
    def mp_backend(self):
        """The :class:`repro.service.mp_backend.MpBackend` instance, or
        ``None`` on the threaded backend."""
        return self._backend_impl

    def start_backend(self) -> None:
        """Eagerly start the execution backend (no-op when threaded).

        ``repro serve`` calls this after durability recovery so the mp
        workers fork from the fully recovered parent state instead of
        lazily on the first query.
        """
        if self._backend_impl is not None:
            self._backend_impl.ensure_started()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run; a closed service refuses work."""
        return self._closed

    def close(self) -> None:
        """Shut the service down (idempotent).

        Releases the shard worker pool and marks the service closed:
        subsequent :meth:`open_session`/:meth:`submit`/:meth:`submit_batch`
        calls raise :class:`repro.exceptions.ServiceClosed` (the HTTP
        front-end maps it to 409).  Counters and snapshots stay readable.
        """
        self._closed = True
        if self.sharding is not None:
            self.sharding.close()
        if self._backend_impl is not None:
            self._backend_impl.close()
        if self.durability is not None:
            self.durability.close()

    def checkpoint(self) -> dict:
        """Fold the write-ahead ledger into a fresh checkpoint.

        Returns the checkpoint payload (whose ``provenance`` block is
        the same schema :meth:`snapshot` serves).  Requires the service
        to have been built with ``durability=``; callable while serving
        (never under-counts) and after :meth:`close` — ``repro serve``
        checkpoints on drain for an exact fold.
        """
        if self.durability is None:
            raise ReproError(
                "service has no durability manager; build it with "
                "durability=DurabilityManager(data_dir)")
        return self.durability.checkpoint()

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceClosed("QueryService is closed")

    def _critical_section(self):
        """The PR 1 global lock in ``"global"`` mode; a no-op when sharded
        (atomicity then lives in the provenance table and view sections)."""
        if self._execution == "global":
            return self._lock
        return contextlib.nullcontext()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- sessions -------------------------------------------------------------
    def open_session(self, analyst: str) -> Session:
        """Open a connection for a registered analyst (many allowed)."""
        self._check_open()
        with self._sessions_lock:
            self._engine._check_analyst(analyst)
            session = Session(next(self._session_ids), analyst)
            self._sessions[session.session_id] = session
        if self.durability is not None:
            # Journaled outside the sessions lock: the ledger fsync must
            # never sit inside a lock the submission path also takes.
            try:
                self.durability.record_session_event(
                    "open", session.session_id, analyst)
            except BaseException:
                # The caller never receives the handle, so unregister it
                # — otherwise a journaling failure (disk full) leaks an
                # uncloseable session into the active map forever.
                with self._sessions_lock:
                    self._sessions.pop(session.session_id, None)
                raise
        if self.audit is not None:
            self.audit.record_session("open", session.session_id, analyst)
        return session

    def close_session(self, session: Session | int) -> Session:
        """Close a session (idempotent); its counters remain readable."""
        with self._sessions_lock:
            session_id = session.session_id if isinstance(session, Session) \
                else session
            already = self._closed_sessions.get(session_id)
            if already is not None:
                return already
            closed = self._resolve_session(session)
            closed.closed = True
            self._closed_sessions[closed.session_id] = closed
            while len(self._closed_sessions) > MAX_CLOSED_SESSIONS:
                oldest = next(iter(self._closed_sessions))
                del self._closed_sessions[oldest]
            del self._sessions[closed.session_id]
        if self.durability is not None:
            self.durability.record_session_event(
                "close", closed.session_id, closed.analyst)
        if self.audit is not None:
            self.audit.record_session("close", closed.session_id,
                                      closed.analyst,
                                      epsilon_spent=closed.epsilon_spent)
        return closed

    def active_sessions(self) -> tuple[Session, ...]:
        with self._sessions_lock:
            return tuple(self._sessions.values())

    def _resolve_session(self, session: Session | int) -> Session:
        # Lock-free read: the sessions dict is only ever mutated under the
        # sessions lock, and a plain dict lookup is atomic in CPython, so
        # the hot submission path need not serialise on open/close traffic.
        session_id = session.session_id if isinstance(session, Session) \
            else session
        try:
            live = self._sessions[session_id]
        except KeyError:
            if session_id in self._closed_sessions or \
                    (isinstance(session, Session) and session.closed):
                raise SessionClosed(
                    f"session {session_id} is closed") from None
            raise ReproError(f"no open session {session_id}") from None
        return live

    # -- submission -----------------------------------------------------------
    def _maybe_trace(self):
        """Mint a trace for one submission, or ``None``.

        ``None`` — the overwhelmingly common outcome (tracer disabled,
        sampled out, or the caller already activated a trace that our
        spans will nest under) — costs two attribute reads, a
        context-var read, and a counter tick.  This is deliberately a
        plain branch rather than a ``@contextmanager``: the generator
        protocol alone costs ~3us per submission, which is ~12% of a
        warm fast-lane answer.
        """
        if not self.tracer.enabled or tracing.current_trace() is not None:
            return None
        return self.tracer.start()

    def submit(self, session: Session | int, sql,
               accuracy: float | None = None,
               epsilon: float | None = None) -> QueryResponse:
        """Answer one query on a session; never raises for query-level
        failures — inspect :attr:`QueryResponse.error`."""
        self._check_open()
        request = QueryRequest(sql, accuracy=accuracy, epsilon=epsilon)
        trace = self._maybe_trace()
        if trace is None:
            with self._critical_section():
                return self._submit_one(session, request)
        try:
            with tracing.activate(trace), \
                    tracing.span("service.submit"), \
                    self._critical_section():
                return self._submit_one(session, request)
        finally:
            self.tracer.finish(trace)

    def _submit_one(self, session: Session | int,
                    request: QueryRequest) -> QueryResponse:
        live = self._resolve_session(session)
        started = time.perf_counter()
        if self._backend_impl is not None:
            # mp backend: route even a single query through the planner
            # so it lands on its view's worker process.
            with tracing.span("plan"):
                item = _plan_one(self._engine, 0, request)
            responses: list[QueryResponse | None] = [None]
            self._backend_impl.execute_batch(
                live.analyst, {item.view_name: [item]}, responses)
            response = self._ensure_response(responses, 0)
        else:
            response = execute_request(self._engine, live.analyst, 0,
                                       request, is_group_by=None)
        elapsed = time.perf_counter() - started
        response = self._seal_lineage(response)
        self._account(live, response, elapsed)
        return response

    def submit_batch(self, session: Session | int,
                     requests: Sequence[QueryRequest]
                     ) -> list[QueryResponse]:
        """Answer a batch through the view-grouping planner.

        Responses are returned in the order of ``requests`` regardless of
        execution order.  Under sharded execution the plan's per-view
        groups run concurrently on the shard pool (each group still in
        strictest-first order); under global execution the whole batch
        runs inside the service lock, as in PR 1.
        """
        self._check_open()
        batch = [r if isinstance(r, QueryRequest) else QueryRequest(r)
                 for r in requests]
        parallel = self._execution == "sharded"
        trace = self._maybe_trace()
        if trace is None:
            with self._critical_section():
                return self._submit_batch_inner(session, batch,
                                                parallel=parallel)
        try:
            with tracing.activate(trace), \
                    tracing.span("service.submit"), \
                    self._critical_section():
                return self._submit_batch_inner(session, batch,
                                                parallel=parallel)
        finally:
            self.tracer.finish(trace)

    def _submit_batch_inner(self, session: Session | int,
                            batch: list[QueryRequest],
                            parallel: bool) -> list[QueryResponse]:
        live = self._resolve_session(session)
        started = time.perf_counter()
        responses: list[QueryResponse | None] = [None] * len(batch)

        # Single-worker mp: hand the raw batch to the worker, which runs
        # the planner itself — compiling here too would double the whole
        # planning cost of the serving path (see MpBackend.try_execute_raw).
        if self._backend_impl is not None and \
                self._backend_impl.try_execute_raw(live.analyst, batch,
                                                   responses):
            return self._account_batch(live, responses, started)

        with tracing.span("plan", queries=len(batch)):
            plan = plan_batch(self._engine, batch)
        groups: dict[str | None, list[PlannedQuery]] = {}
        for item in plan.ordered:
            groups.setdefault(item.view_name, []).append(item)

        if self._backend_impl is not None:
            self._backend_impl.execute_batch(live.analyst, groups, responses)
        else:
            # Shard-pool threads don't inherit this thread's context-var
            # state, so the trace context rides into the closure.
            trace_ctx = tracing.capture()

            def run_group(view_name: str | None,
                          items: list[PlannedQuery]) -> None:
                with tracing.activate_context(trace_ctx), \
                        tracing.span("shard_group", view=view_name,
                                     items=len(items)):
                    execute_planned_group(self._engine, live.analyst,
                                          view_name, items, responses)

            if parallel and self.sharding is not None and len(groups) > 1:
                self.sharding.run_groups(list(groups.items()), run_group)
            else:
                for view_name, items in groups.items():
                    run_group(view_name, items)
        return self._account_batch(live, responses, started)

    def _account_batch(self, live: Session, responses: list,
                       started: float) -> list[QueryResponse]:
        elapsed = time.perf_counter() - started
        with self._stats_lock:
            for index in range(len(responses)):
                response = self._seal_lineage(
                    self._ensure_response(responses, index))
                responses[index] = response
                self._account_locked(live, response)
            live.batches += 1
            self.stats.batches += 1
            self.stats.busy_seconds += elapsed
        return responses  # type: ignore[return-value]

    def _seal_lineage(self, response: QueryResponse) -> QueryResponse:
        """Stamp the durable ledger's high-water mark into the lineage at
        accounting time.

        By now every charge this response caused has committed (the mp
        parent commits brokered charges before unpacking responses; the
        threaded path journals inside execution), so recovery to at least
        this sequence provably includes the answer's charge.  Descriptive
        only — nothing downstream reads it back.
        """
        lineage = response.lineage
        if lineage is None or lineage.ledger_seq is not None or \
                self.durability is None:
            return response
        return replace(response, lineage=lineage._replace(
            ledger_seq=self.durability.ledger_seq))

    @staticmethod
    def _ensure_response(responses: list, index: int) -> QueryResponse:
        """Every index must answer; a hole is a backend bug surfaced as a
        failed (never silently dropped, never charged) response."""
        response = responses[index]
        if response is None:
            response = QueryResponse(
                index, error="internal: backend returned no response")
            responses[index] = response
        return response

    def plan(self, requests: Sequence[QueryRequest]) -> BatchPlan:
        """Expose the planner's decision for a batch (no execution)."""
        with self._critical_section():
            return plan_batch(self._engine, list(requests))

    # Execution itself lives in :mod:`repro.service.executor` — free
    # functions over the engine, shared verbatim with the mp backend's
    # worker processes.  The thin wrappers below keep the historical
    # private-method surface for tests and subclasses.
    def _execute_planned_group(self, analyst: str, view_name: str | None,
                               items: list[PlannedQuery],
                               responses: list) -> None:
        execute_planned_group(self._engine, analyst, view_name, items,
                              responses)

    def _execute_planned(self, analyst: str, item) -> QueryResponse:
        return execute_planned(self._engine, analyst, item)

    def _execute(self, analyst: str, index: int, request: QueryRequest,
                 is_group_by: bool | None,
                 statement=None) -> QueryResponse:
        return execute_request(self._engine, analyst, index, request,
                               is_group_by, statement=statement)

    def _account(self, session: Session, response: QueryResponse,
                 elapsed: float = 0.0) -> None:
        with self._stats_lock:
            self._account_locked(session, response)
            self.stats.busy_seconds += elapsed

    def _account_locked(self, session: Session,
                        response: QueryResponse) -> None:
        """Fold one response into session + service counters (stats lock
        held)."""
        session._record(response)
        self.stats.submitted += 1
        if not response.ok:
            if response.rejected:
                self.stats.rejected += 1
            else:
                self.stats.failed += 1
            return
        self.stats.answered += 1
        for answer in response.answers():
            self.stats._record_answer(session.analyst, answer)

    # -- reporting ------------------------------------------------------------
    def analyst_spent(self, analyst: str) -> float:
        """Epsilon the provenance table records for one analyst."""
        return self._engine.provenance.row_total(analyst)

    def bind_telemetry(self, registry) -> None:
        """Register scrape-time gauges on a
        :class:`repro.metrics.telemetry.TelemetryRegistry`.

        Everything is callback-backed: the scrape reads the same live
        counters :meth:`snapshot` serializes (service stats, synopsis
        cache, fast lane, shard manager, durability ledger), so
        ``/v1/metrics`` and ``/v1/snapshot`` can never disagree and the
        serving path pays no double bookkeeping.  Idempotent per
        registry only in the sense of adding sources — call it once,
        as ``ReproServer`` does.
        """
        stats = self.stats
        registry.gauge("repro_service_submitted_total",
                       "Queries accepted by the service",
                       lambda: stats.submitted)
        registry.gauge("repro_service_answered_total",
                       "Queries answered (incl. cache hits)",
                       lambda: stats.answered)
        registry.gauge("repro_service_rejected_total",
                       "Queries refused by budget constraints",
                       lambda: stats.rejected)
        registry.gauge("repro_service_failed_total",
                       "Queries that failed (translation, SQL, ...)",
                       lambda: stats.failed)
        registry.gauge("repro_service_batches_total",
                       "Planner batches executed",
                       lambda: stats.batches)
        registry.gauge("repro_fresh_releases_total",
                       "Answers that required a fresh noisy release",
                       lambda: stats.fresh_releases)
        # The spend family reads the provenance table itself at scrape
        # time: the table is the accounting of record, so the exposition
        # can never drift from it — not even by a float ulp — which is
        # what lets `repro audit --verify` demand *exact* equality
        # against an offline ledger fold.  The mechanism label is the
        # engine's (one mechanism per engine; the per-record classifier
        # in repro.metrics.audit provably agrees).
        provenance = self._engine.provenance
        mechanism = self._engine.mechanism

        def _spent_cells():
            label = mechanism.name
            return [({"analyst": analyst, "view": view,
                      "mechanism": label}, spent)
                    for analyst in provenance.analysts
                    for view in provenance.views
                    if (spent := provenance.get(analyst, view)) != 0.0]

        registry.counter_family(
            "repro_epsilon_spent_total",
            "Cumulative epsilon charged, per analyst/view/mechanism",
            _spent_cells)
        registry.gauge("repro_epsilon_row_total",
                       "Epsilon charged, per analyst (provenance row "
                       "totals)",
                       lambda: provenance.row_totals(),
                       expand_label="analyst")
        registry.gauge("repro_epsilon_table_total",
                       "Epsilon charged against the whole table",
                       lambda: self._engine.provenance.table_total())
        registry.gauge("repro_answer_cache_hit_rate",
                       "Fraction of answers served without a release",
                       lambda: stats.answer_cache_hit_rate)
        registry.gauge("repro_synopsis_cache_hit_rate",
                       "Synopsis store hit rate",
                       lambda: self.cache_stats.hit_rate)
        registry.gauge("repro_fast_lane_hits_total",
                       "Fast-lane hits (lock-free memoized answers)",
                       lambda: self._engine.fast_lane_counters()["hits"])
        registry.gauge("repro_fast_lane_hit_rate",
                       "Fast-lane hit rate over its probes",
                       lambda: self._engine.fast_lane_counters()
                       ["hit_rate"])
        registry.gauge("repro_open_sessions",
                       "Sessions currently open",
                       lambda: len(self._sessions))
        registry.gauge("repro_shards",
                       "Shard count (0 = global execution)",
                       lambda: (self.sharding.num_shards
                                if self.sharding else 0))
        statements = self._engine.statement_cache
        registry.gauge("repro_statement_cache_total",
                       "Compiled-statement cache lookups, by result",
                       lambda: {"hit": statements.counters()["hits"],
                                "miss": statements.counters()["misses"]},
                       expand_label="result")
        registry.gauge("repro_statement_cache_hit_rate",
                       "Compiled-statement cache hit rate",
                       lambda: statements.counters()["hit_rate"])
        registry.gauge("repro_statement_cache_entries",
                       "Entries in the compiled-statement cache",
                       lambda: statements.counters()["entries"])
        registry.gauge("repro_statement_cache_evictions_total",
                       "Compiled statements evicted by cost pressure",
                       lambda: statements.counters()["evictions"])
        registry.gauge("repro_compile_calls_total",
                       "Statement resolutions the engine performed "
                       "(the serving layers promise one per query)",
                       lambda: self._engine.compile_calls)
        routing = self._engine.registry
        registry.gauge("repro_view_routing_hits_total",
                       "Routing-index probes that found a covering view",
                       lambda: routing.routing_counters()["hits"])
        registry.gauge("repro_view_routing_hit_rate",
                       "Share of routing-index probes that found a "
                       "covering view",
                       lambda: routing.routing_counters()["hit_rate"])
        registry.gauge("repro_view_routing_total",
                       "Routing-index probes (one per statement shape, "
                       "not per query), by result",
                       lambda: {"hit": routing.routing_counters()["hits"],
                                "miss":
                                routing.routing_counters()["misses"]},
                       expand_label="result")
        registry.gauge("repro_view_routing_entries",
                       "Keys in the routing index (attribute subsets of "
                       "the registered views)",
                       lambda: routing.routing_counters()["entries"])
        registry.gauge("repro_view_routing_generation",
                       "Views registered (each one re-files the index "
                       "and clears the statement cache)",
                       lambda: routing.routing_counters()["generation"])
        tracer = self.tracer
        registry.gauge("repro_traces_started_total",
                       "Request traces started",
                       lambda: tracer.counters()["started"])
        registry.gauge("repro_traces_retained",
                       "Finished traces held in the /v1/trace ring",
                       lambda: tracer.counters()["retained"])
        if self._backend_impl is not None:
            backend = self._backend_impl
            registry.gauge("repro_mp_workers",
                           "Forked worker processes (mp backend)",
                           lambda: backend.num_workers)
            registry.gauge("repro_mp_restarts_total",
                           "Worker processes respawned after a crash",
                           lambda: backend.restarts)
            registry.gauge("repro_mp_crashes_total",
                           "Worker crashes observed mid-conversation",
                           lambda: backend.crashes)
            registry.gauge("repro_mp_brokered_charges_total",
                           "Provenance charges brokered for workers",
                           lambda: backend.brokered_charges)
            registry.gauge("repro_mp_charge_rejections_total",
                           "Brokered charges the parent refused",
                           lambda: backend.charge_rejections)
            registry.gauge("repro_mp_charge_messages_total",
                           "Standalone per-charge pipe messages (0 under "
                           "coalesced settlement)",
                           lambda: backend.charge_messages)
            registry.gauge("repro_mp_charge_mismatches_total",
                           "Worker charge replays that diverged from the "
                           "authoritative ledger (unwound, respawned)",
                           lambda: backend.charge_mismatches)
            registry.gauge("repro_mp_conversations_total",
                           "Batch conversations dispatched to workers",
                           lambda: backend.conversations)
            registry.gauge("repro_mp_worker_incarnation",
                           "Per-shard worker incarnation (bumps on "
                           "respawn)",
                           lambda: {str(i): inc for i, inc in
                                    enumerate(backend.describe()
                                              ["incarnations"])},
                           expand_label="shard")
        if self.sharding is not None:
            sharding = self.sharding
            registry.gauge("repro_shard_groups_total",
                           "View groups dispatched to shards",
                           lambda: sharding.groups_dispatched)
            registry.gauge("repro_shard_parallel_batches_total",
                           "Group batches that ran on the worker pool",
                           lambda: sharding.parallel_batches)
        if self.audit is not None:
            trail = self.audit
            for window in trail.windows:
                registry.gauge("repro_epsilon_burn_rate_per_min",
                               "Epsilon per minute, per analyst, over a "
                               "sliding window (seconds, labelled)",
                               (lambda w=window: trail.burn_rates(w)),
                               expand_label="analyst",
                               window=f"{window:g}")
            registry.gauge("repro_exhaustion_seconds",
                           "Projected seconds until an analyst's budget "
                           "cap at the current burn rate (+Inf idle)",
                           lambda: trail.exhaustion(),
                           expand_label="analyst")
            registry.gauge("repro_table_exhaustion_seconds",
                           "Projected seconds until the table-level cap "
                           "(+Inf idle)",
                           lambda: trail.table_exhaustion())
            registry.gauge("repro_group_exhaustion_seconds",
                           "Projected seconds until a coalition cap "
                           "(Sec. 7.1 groups; absent without groups)",
                           lambda: trail.group_exhaustion(),
                           expand_label="group")
        if self.durability is not None:
            durability = self.durability
            registry.gauge("repro_ledger_seq",
                           "Last write-ahead ledger sequence number",
                           lambda: durability.ledger_seq)
            registry.gauge("repro_ledger_lag_records",
                           "Ledger records not yet folded into a "
                           "checkpoint",
                           lambda: durability.ledger_lag)
            registry.gauge("repro_ledger_segments",
                           "Sealed ledger segments on disk",
                           lambda: durability.sealed_segments())
            registry.gauge("repro_ledger_active_bytes",
                           "Bytes in the active ledger file",
                           lambda: durability.active_ledger_bytes())
            registry.gauge("repro_checkpoint_age_seconds",
                           "Seconds since the newest checkpoint fold "
                           "(+Inf before any)",
                           lambda: durability.checkpoint_age_seconds())
            registry.gauge("repro_recovery_replayed_records",
                           "Ledger records read by bind-time recovery",
                           lambda: durability.recovered_records())

    def snapshot(self) -> dict:
        """Point-in-time service metrics (service, cache, provenance).

        Strictly JSON-serializable — string keys and native scalars only —
        because the HTTP front-end's ``/v1/snapshot`` endpoint serializes
        it verbatim (regression-tested in ``tests/test_service.py``).
        """
        with self._stats_lock:
            service = self.stats.as_dict()
        with self._sessions_lock:
            open_sessions = len(self._sessions)
        return {
            "service": service,
            "synopsis_cache": {key: (float(value) if key == "hit_rate"
                                     else int(value))
                               for key, value
                               in self.cache_stats.as_dict().items()},
            "open_sessions": open_sessions,
            # Hot-path caches: the compiled-statement LRU with its shape
            # table (parse+compile memoisation) and the memoized-answer
            # fast lane.
            "compiled_statements": self._engine.statement_cache.counters(),
            "fast_lane": self._engine.fast_lane_counters(),
            "execution": self._execution,
            "shards": (self.sharding.num_shards if self.sharding else 0),
            "backend": (self._backend_impl.describe()
                        if self._backend_impl is not None
                        else {"mode": "threaded"}),
            # Probes of the registry's column-set routing index.
            "view_routing": self._engine.registry.routing_counters(),
            "tracing": self.tracer.counters(),
            "closed": self._closed,
            # The same block the checkpoint file embeds — one builder,
            # one schema, so the live snapshot and the durable record
            # can never drift (see repro.persistence.schema).
            "provenance": provenance_summary(self._engine),
            "durability": (self.durability.describe()
                           if self.durability is not None
                           else {"enabled": False}),
            "audit": (self.audit.describe() if self.audit is not None
                      else {"enabled": False}),
        }


__all__ = ["BACKENDS", "DEFAULT_MAX_CACHED", "EXECUTION_MODES",
           "MAX_CLOSED_SESSIONS", "QueryService", "ServiceStats"]
