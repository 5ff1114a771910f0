"""Multiprocessing shard backend: fork workers, shared-memory synopses.

The threaded service scales until the GIL does: every numpy transform,
noise draw, and SQL parse of every shard thread serialises on one
interpreter lock.  ``QueryService(backend="mp")`` replaces the shard
*thread* pool with a pool of forked **worker processes**:

* each worker owns a disjoint subset of the views (stable crc32
  routing, the same function the thread backend uses), holds its own
  synopsis store, and runs the exact executor code path
  (:mod:`repro.service.executor`) the threaded backend runs;
* the exact view materialisations and a per-view synopsis slab live in
  :mod:`multiprocessing.shared_memory`, so workers answer from
  zero-copy numpy arrays and publish synopsis values back to the
  parent without pickling a single histogram;
* **all accounting stays in the parent.**  Workers never charge the
  authoritative provenance table: each conversation ships the worker an
  authoritative snapshot of the cross-shard tallies (analyst row sum,
  table totals, delta-ledger count), the worker runs every budget check
  against its synced local *mirror* and records an ordered op list
  (reserve verdicts, rollbacks), and the parent **replays every op
  itself** against the real
  :meth:`repro.core.provenance.ProvenanceTable.reserve` (same checks,
  same row -> column -> totals lock order, same ``on_commit``
  durability hook at commit) when the end-of-batch ``done`` message
  arrives.  One accounting domain, one ledger — and zero per-charge
  pipe round-trips: all charge traffic for a batch rides the two
  messages the batch already costs (the dispatch down, the ``done``
  up).

Deferred settlement is the crash-safety hinge: the parent charges
nothing until the worker's ``done`` arrives, then replays the ops under
its state lock, verifying the worker's accept/reject verdict (and the
rejection reason) op by op, and finally commits in the worker's commit
order (outside all table locks, firing the durability hook exactly as
the threaded path does).  A worker that dies mid-batch therefore never
charged anything; the parent fails the batch's queries with a tagged
error and forks a replacement worker from its own authoritative state.
A verdict mismatch — possible only under concurrent same-analyst
traffic across *different* shards, where the snapshot a worker checked
against has moved — is handled the same way: every replayed charge of
that batch is unwound and the worker is respawned fresh.  No budget is
ever charged for an answer nobody received.

Determinism: with ``noise_streams="per_view"`` (see
:data:`repro.core.mechanism.NOISE_STREAMS`) each view's noise sequence
depends only on that view's own release order, which a single worker
owns — so an mp run is bit-identical to a sequential threaded replay of
the same workload (``tests/test_mp_backend.py`` replays one seeded
stream through both).  Replacement workers bump their stream
incarnation so a restarted process never replays noise its predecessor
already published.

Scope: the backend serves the additive mechanism (the paper's primary
contribution and the serving hot path) without ``combine_local``;
construction rejects anything else.  Views or analysts registered after
the workers fork fail cleanly at dispatch with a restart hint.
"""

from __future__ import annotations

import gc
import itertools
import multiprocessing
import os
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from multiprocessing.shared_memory import SharedMemory

import numpy as np

from repro.core.compile_cache import CompiledStatement, StatementCache
from repro.core.engine import Answer
from repro.core.synopsis import Synopsis
from repro.db.sql.unparse import to_sql
from repro.exceptions import QueryRejected, ReproError, ServiceClosed
from repro.metrics import tracing
from repro.metrics.tracing import Trace
from repro.service.cache import LruSynopsisStore
from repro.service.executor import execute_planned_group
from repro.service.planner import PlannedQuery, _plan_one, plan_batch
from repro.service.session import Lineage, QueryRequest, QueryResponse
from repro.service.sharding import usable_cpus

#: Default worker count: enough to cover the bench's four-analyst view
#: spread without forking a process per core on large hosts.
DEFAULT_MP_WORKERS = min(4, usable_cpus())

#: Stable view -> shard routing (identical to ShardManager.shard_of so
#: the two backends agree on what "a shard" is).
def shard_of(view_name: str, num_shards: int) -> int:
    import zlib

    return zlib.crc32(view_name.encode("utf-8")) % num_shards


def _pack_answer(answer: Answer) -> tuple:
    return (answer.analyst, answer.value, answer.epsilon_charged,
            answer.view_name, answer.per_bin_variance,
            answer.answer_variance, answer.cache_hit)


def _pack_lineage(lineage: Lineage | None, worker: int,
                  incarnation: int) -> tuple | None:
    """Flatten a lineage record, stamping the computing process's
    identity — the one lineage fact only the worker knows."""
    if lineage is None:
        return None
    return (lineage.view, lineage.source, lineage.epsilon,
            lineage.mechanism, lineage.composition,
            lineage.synopsis_generation, lineage.ledger_seq,
            worker, incarnation, lineage.trace_id)


def _unpack_lineage(packed: tuple | None) -> Lineage | None:
    if packed is None:
        return None
    return Lineage(view=packed[0], source=packed[1], epsilon=packed[2],
                   mechanism=packed[3], composition=packed[4],
                   synopsis_generation=packed[5], ledger_seq=packed[6],
                   worker=packed[7], incarnation=packed[8],
                   trace_id=packed[9])


def _pack_response(response: QueryResponse, worker: int,
                   incarnation: int) -> tuple:
    """Flatten one response to plain tuples for the ``done`` payload.

    Pickling the nested ``QueryResponse``/``Answer`` dataclasses costs
    roughly 20x what the equivalent tuples do (measured: per-instance
    class dispatch plus attribute dicts), and the done payload carries
    one per query — on a single-CPU host that serialisation tax is a
    visible slice of the whole mp overhead budget.
    """
    lineage = _pack_lineage(response.lineage, worker, incarnation)
    if response.answer is not None:
        return (response.index, 0, _pack_answer(response.answer), lineage)
    if response.groups is not None:
        return (response.index, 1, tuple(
            (key, _pack_answer(answer)) for key, answer in response.groups),
            lineage)
    return (response.index, 2, response.error, response.rejected, lineage)


def _unpack_response(packed: tuple) -> QueryResponse:
    index, shape = packed[0], packed[1]
    if shape == 0:
        return QueryResponse(index, answer=Answer(*packed[2]),
                             lineage=_unpack_lineage(packed[3]))
    if shape == 1:
        return QueryResponse(index, groups=tuple(
            (key, Answer(*fields)) for key, fields in packed[2]),
            lineage=_unpack_lineage(packed[3]))
    return QueryResponse(index, error=packed[2], rejected=packed[3],
                         lineage=_unpack_lineage(packed[4]))


class _Shard:
    """Parent-side handle for one worker process."""

    __slots__ = ("index", "lock", "conn", "process", "incarnation",
                 "sent_ids")

    def __init__(self, index: int) -> None:
        self.index = index
        #: Serialises conversations: one batch talks to a worker at a
        #: time, and the holder does all pipe I/O for the shard.  A
        #: conversation only ever holds its *own* shard's lock, so
        #: shard dispatch is deadlock-free by construction.
        self.lock = threading.Lock()
        self.conn = None
        self.process = None
        self.incarnation = 0
        #: Statement ids already shipped to the live worker process
        #: (reset on respawn — a fresh fork knows nothing).
        self.sent_ids: set[int] = set()


class _BrokeredReservation:
    """Worker-side face of one deferred-settlement provenance charge.

    Duck-types :class:`repro.core.provenance.Reservation` for the
    mechanism code: context manager, :meth:`commit`, :meth:`rollback`,
    ``state``.  ``commit`` finalises the worker's local mirror charge
    and records the cid for the end-of-batch ``done`` message — the
    parent's authoritative reserve-and-commit (and the durability hook)
    happens there.  ``rollback`` undoes the mirror and appends a
    rollback op, *in order*: budget freed by a rollback may be what
    lets a later reserve in the same batch pass, so the parent must
    replay the two in the order the worker decided them.
    """

    __slots__ = ("_proxy", "_cid", "_local")

    def __init__(self, proxy: "_WorkerProvenance", cid: int, local) -> None:
        self._proxy = proxy
        self._cid = cid
        self._local = local

    @property
    def state(self) -> str:
        return self._local.state

    def commit(self) -> None:
        if self._local.state == "committed":
            return
        self._local.commit()
        self._proxy.committed.append(self._cid)

    def rollback(self) -> None:
        if self._local.state == "rolled_back":
            return
        self._local.rollback()
        self._proxy.ops.append(("rollback", self._cid))

    def __enter__(self) -> "_BrokeredReservation":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._local.state == "pending":
            self.rollback()


class _WorkerProvenance:
    """Provenance proxy installed in workers: charges settle in the parent.

    Reads (``get``, totals, ``check``) serve from the worker's
    inherited table copy — exact for the worker's own views, since one
    worker owns all traffic on a view's column, and exact for the
    cross-shard tallies too, because every conversation starts by
    syncing them from the parent's authoritative snapshot
    (:meth:`_Worker._apply_sync`).  ``reserve`` therefore runs the real
    check-and-charge against the local mirror *immediately* — no pipe
    round-trip — and records the op (arguments plus verdict) for the
    end-of-batch ``done`` payload, where the parent replays it against
    the authoritative table and verifies the verdict matches.
    """

    def __init__(self, inner, conn) -> None:
        self._inner = inner
        self.conn = conn
        self._cids = itertools.count(1)
        #: cids committed this batch, in commit order (shipped in
        #: ``done``; the parent commits in exactly this order).
        self.committed: list[int] = []
        #: Ordered charge ops this batch: ``("reserve", cid, analyst,
        #: view, epsilon, column_mode, meta, accepted, reason,
        #: constraint)`` and ``("rollback", cid)``.
        self.ops: list[tuple] = []

    def reserve(self, analyst: str, view: str, epsilon: float, constraints, *,
                column_mode: str = "sum", meta=None) -> _BrokeredReservation:
        cid = next(self._cids)
        meta_copy = dict(meta) if meta else None
        try:
            local = self._inner.reserve(analyst, view, epsilon, constraints,
                                        column_mode=column_mode, meta=meta)
        except QueryRejected as exc:
            # Record the rejection too: the parent replays it to confirm
            # the authoritative table agrees (reason and all) — a silent
            # drop would let mirror drift go unnoticed.
            self.ops.append(("reserve", cid, analyst, view, epsilon,
                             column_mode, meta_copy, False,
                             exc.reason, exc.constraint))
            raise
        self.ops.append(("reserve", cid, analyst, view, epsilon,
                         column_mode, meta_copy, True, None, None))
        return _BrokeredReservation(self, cid, local)

    def add(self, *args, **kwargs):
        raise ReproError(
            "direct provenance adds are not brokered; the mp backend "
            "only serves the additive mechanism's reserve/commit path")

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _SlabRecorder:
    """Worker-side ``SynopsisStore.on_put`` hook.

    Writes every stored synopsis's values into the view's shared-memory
    slab row (row 0 = global, row 1+i = analyst i) and upserts a
    metadata record keyed by (view, analyst) — the parent rebuilds its
    mirror store from the *final* state per key at batch end, which is
    all it ever reads.
    """

    def __init__(self, slabs: dict[str, np.ndarray],
                 analyst_rows: dict[str, int]) -> None:
        self._slabs = slabs
        self._analyst_rows = analyst_rows
        self.records: dict[tuple, dict] = {}
        self.touched: set[str] = set()

    def begin(self) -> None:
        self.records = {}
        self.touched = set()

    def on_put(self, synopsis: Synopsis) -> None:
        row = 0 if synopsis.analyst is None \
            else self._analyst_rows[synopsis.analyst]
        self._slabs[synopsis.view_name][row, :] = synopsis.values
        self.touched.add(synopsis.view_name)
        self.records[(synopsis.view_name, synopsis.analyst)] = {
            "view": synopsis.view_name, "analyst": synopsis.analyst,
            "epsilon": synopsis.epsilon, "delta": synopsis.delta,
            "variance": synopsis.variance, "row": row,
        }


def _reinit_worker_state(service) -> None:
    """Re-found every lock a forked worker inherited, and detach hooks.

    Fork copies the parent mid-flight: another thread may hold any lock
    (fork pauses threads at bytecode boundaries, so Python objects are
    structurally consistent but locks stay "held" by ghosts).  Every
    lock the worker's execution path can touch gets a fresh instance;
    the compiled-statement cache is replaced wholesale (a planner
    thread may have been inside its critical section); durability and
    delegation hooks are severed — **all charging happens in the
    parent**, the worker must never journal or fsync anything.
    """
    engine = service.engine
    prov = engine.provenance
    prov._row_locks = {name: threading.RLock() for name in prov._row_locks}
    prov._col_locks = {name: threading.RLock() for name in prov._col_locks}
    prov._totals_lock = threading.RLock()
    prov._structure_lock = threading.RLock()
    prov.on_commit = None
    engine._view_locks = {name: threading.RLock()
                          for name in engine._view_locks}
    engine._view_locks_guard = threading.Lock()
    engine._fast_lane_lock = threading.Lock()
    engine.statement_cache = StatementCache(
        engine.statement_cache.max_entries)
    registry = engine.registry
    registry._materialize_lock = threading.Lock()
    mech = engine.mechanism
    mech._ledger_lock = threading.Lock()
    store = mech.store
    if isinstance(store, LruSynopsisStore):
        store._cache_lock = threading.RLock()
        store.stats._lock = threading.Lock()
    engine.delegations.on_event = None
    engine.delegations._lock = threading.Lock()
    service.durability = None


class _Worker:
    """The forked worker process's event loop."""

    def __init__(self, backend: "MpBackend", index: int, conn,
                 incarnation: int) -> None:
        self.backend = backend
        self.index = index
        self.conn = conn
        self.engine = backend.service.engine
        self.recorder = _SlabRecorder(backend._slabs, backend._analyst_rows)
        self.sql_by_id: dict[int, str] = {}
        self.crash_after: int | None = None
        self.incarnation = incarnation

    def setup(self) -> None:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        # Close every inherited parent-end pipe (ours included — we
        # keep only the child end passed to us).  Leaving another
        # shard's child-end copy open would mask that worker's death
        # from the parent's EOF detection.
        for shard in self.backend._shards:
            if shard.conn is not None:
                try:
                    shard.conn.close()
                except OSError:  # pragma: no cover - best effort
                    pass
        _reinit_worker_state(self.backend.service)
        mech = self.engine.mechanism
        mech.set_stream_incarnation(self.incarnation)
        self.proxy = _WorkerProvenance(self.engine.provenance, self.conn)
        self.engine.provenance = self.proxy
        mech.provenance = self.proxy
        mech.store.on_put = self.recorder.on_put
        # Everything inherited from the fork is effectively immutable
        # reference data for this process; freezing it keeps the cyclic
        # GC from ever writing into those objects' headers, which would
        # copy-on-write whole inherited pages for nothing.
        gc.collect()
        gc.freeze()

    def run(self) -> None:
        self.setup()
        try:
            while True:
                try:
                    msg = self.conn.recv()
                except (EOFError, OSError):
                    break
                kind = msg[0]
                if kind == "batch":
                    self.serve_batch(msg[1], msg[2], msg[3], msg[4], msg[5],
                                     msg[6])
                elif kind == "raw":
                    self.serve_raw(msg[1], msg[2], msg[3], msg[4], msg[5])
                elif kind == "ping":
                    self.conn.send(("pong", os.getpid()))
                elif kind == "crash_after":
                    self.crash_after = msg[1]
                elif kind == "stop":
                    break
        finally:
            try:
                self.conn.close()
            except OSError:  # pragma: no cover - already gone
                pass

    # -- batch serving -------------------------------------------------------
    def _on_item(self, _done: int) -> None:
        if self.crash_after is None:
            return
        self.crash_after -= 1
        if self.crash_after <= 0:
            # Fault injection: die exactly as a segfaulted or OOM-killed
            # worker would — no goodbye, no flush.
            os.kill(os.getpid(), signal.SIGKILL)

    def _seed_plans(self, new_plans: dict) -> None:
        """Adopt the parent's compiled plans into the local statement cache.

        The parent already parsed, routed, and compiled every statement
        while planning the batch; re-deriving the same weight vectors
        here would double the whole compile cost of the serving path
        (the single biggest mp overhead on a 1-CPU host).  Each record
        carries the compiled parts minus the view object — views hold
        the shared-memory materialisations and must never ride the pipe
        — so the entry is rebuilt around *this* process's view instance.
        Compilation is deterministic, so the adopted entry is
        bit-identical to what a local compile would have produced; a
        later cache eviction merely makes the worker recompile.
        """
        cache = self.engine.statement_cache
        registry = self.engine.registry
        for sid, parts in new_plans.items():
            kind, view_name, query, group_parts, avg_parts, strictest = parts
            sql = self.sql_by_id[sid]
            entry = CompiledStatement(sql, kind, registry.view(view_name),
                                      query=query, group_parts=group_parts,
                                      avg_parts=avg_parts,
                                      strictest=strictest)
            cache.put(sql, entry, epoch=cache.epoch)

    def _apply_sync(self, analyst: str, sync: tuple) -> None:
        """Adopt the parent's authoritative cross-shard tallies.

        A worker's mirror is exact for its own views' column sums (it
        performs every charge on them, and the parent replays the same
        ops), but the *analyst row sum*, the *table totals*, and the
        *delta-ledger count* move with every other shard's traffic too.
        The parent snapshots them under its state lock at dispatch; the
        worker overwrites its mirror before running the batch, so every
        budget check it performs is against the very tallies the
        parent's replay will check against — which is what makes the
        local verdict authoritative in the sequential case.
        """
        row_sum, table_sum, table_max_sum, release_count = sync
        inner = self.proxy._inner
        inner._row_sum[analyst] = row_sum
        inner._table_sum = table_sum
        inner._table_max_sum = table_max_sum
        mech = self.engine.mechanism
        if release_count:
            mech._release_counts[analyst] = release_count
        else:
            mech._release_counts.pop(analyst, None)

    def _begin_batch(self) -> tuple:
        """Reset per-batch collectors; returns the counter marks the
        end-of-batch payload diffs against."""
        engine = self.engine
        self.proxy.committed = []
        self.proxy.ops = []
        self.recorder.begin()
        stats = getattr(engine.mechanism.store, "stats", None)
        return ((engine._fast_lane_hits, engine._fast_lane_misses),
                stats,
                (stats.hits, stats.misses) if stats is not None else (0, 0))

    def _run_group(self, analyst: str, view_name: str | None,
                   items: list[PlannedQuery], responses: list) -> None:
        try:
            execute_planned_group(self.engine, analyst, view_name, items,
                                  responses, on_item=self._on_item)
        except Exception as exc:  # noqa: BLE001 - worker must answer
            for item in items:
                if responses[item.index] is None:
                    responses[item.index] = QueryResponse(
                        item.index, error=str(exc))

    def _batch_trace(self, trace_id: str | None) -> Trace | None:
        """A worker-local trace for one conversation (``None`` when the
        parent sent no id).  The worker's spans are relative to its own
        clock origin; the parent grafts the export under its dispatch
        span, re-basing the offsets (see :meth:`Trace.graft`)."""
        return Trace(trace_id) if trace_id is not None else None

    def serve_batch(self, analyst: str, groups, new_sql: dict,
                    new_plans: dict, sync: tuple,
                    trace_id: str | None) -> None:
        self.sql_by_id.update(new_sql)
        self._seed_plans(new_plans)
        self._apply_sync(analyst, sync)
        engine = self.engine
        top = max(entry[0] for _, entries in groups for entry in entries)
        responses: list[QueryResponse | None] = [None] * (top + 1)
        trace = self._batch_trace(trace_id)
        marks = self._begin_batch()
        with tracing.activate(trace), \
                tracing.span("worker.serve", worker=self.index,
                             incarnation=self.incarnation):
            for view_name, entries in groups:
                items: list[PlannedQuery] = []
                for index, sid, accuracy, epsilon in entries:
                    request = QueryRequest(self.sql_by_id[sid],
                                           accuracy=accuracy,
                                           epsilon=epsilon)
                    items.append(_plan_one(engine, index, request))
                self._run_group(analyst, view_name, items, responses)
        self._send_done(marks, responses, trace)

    def serve_raw(self, analyst: str, entries, new_sql: dict, sync: tuple,
                  trace_id: str | None) -> None:
        """Single-worker fast path: the *worker* runs the batch planner.

        With one worker every view routes to this process, so the parent
        forwards the raw requests instead of planning and shipping
        compiled plans — system-wide, each statement is parsed, routed,
        and compiled exactly once, same as the threaded backend.  The
        planner and executor are the very code the parent would have
        run, so group order, per-view strictest-first order, and hence
        the per-view noise streams are bit-identical to a sequential
        threaded replay.
        """
        self.sql_by_id.update(new_sql)
        self._apply_sync(analyst, sync)
        engine = self.engine
        batch = [QueryRequest(self.sql_by_id[sid],
                              accuracy=accuracy, epsilon=epsilon)
                 for _index, sid, accuracy, epsilon in entries]
        trace = self._batch_trace(trace_id)
        marks = self._begin_batch()
        with tracing.activate(trace), \
                tracing.span("worker.serve", worker=self.index,
                             incarnation=self.incarnation):
            with tracing.span("plan", queries=len(batch)):
                plan = plan_batch(engine, batch)
            responses: list[QueryResponse | None] = [None] * len(batch)
            groups: dict[str | None, list[PlannedQuery]] = {}
            for item in plan.ordered:
                groups.setdefault(item.view_name, []).append(item)
            for view_name, items in groups.items():
                self._run_group(analyst, view_name, items, responses)
        self._send_done(marks, responses, trace)

    def _send_done(self, marks: tuple, responses: list,
                   trace: Trace | None = None) -> None:
        engine = self.engine
        mech = engine.mechanism
        fast0, stats, cache0 = marks
        touched = self.recorder.touched
        payload = {
            "responses": [_pack_response(r, self.index, self.incarnation)
                          for r in responses if r is not None],
            "spans": trace.export() if trace is not None else None,
            "ops": list(self.proxy.ops),
            "committed": list(self.proxy.committed),
            "synopses": list(self.recorder.records.values()),
            "generation": {v: g for v, g in mech._generation.items()
                           if v in touched},
            "last_combination": {v: r for v, r
                                 in mech._last_combination.items()
                                 if v in touched},
            "local_meta": {k: m for k, m in mech._local_meta.items()
                           if k[1] in touched},
            "fast_lane": (engine._fast_lane_hits - fast0[0],
                          engine._fast_lane_misses - fast0[1]),
            "cache": ((stats.hits - cache0[0], stats.misses - cache0[1])
                      if stats is not None else (0, 0)),
        }
        self.conn.send(("done", payload))


def _worker_main(backend: "MpBackend", index: int, conn,
                 incarnation: int) -> None:
    _Worker(backend, index, conn, incarnation).run()


class MpBackend:
    """Parent-side orchestrator of the worker pool (see module docstring)."""

    def __init__(self, service, workers: int | None = None) -> None:
        if workers is not None and workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        engine = service.engine
        if engine.mechanism.name != "additive":
            raise ReproError(
                "the mp backend serves the additive mechanism only "
                f"(got {engine.mechanism.name!r}); use backend='threaded'")
        if getattr(engine.mechanism, "combine_local", False):
            raise ReproError(
                "the mp backend does not support combine_local; "
                "use backend='threaded'")
        if engine.mechanism.noise_streams != "per_view":
            raise ReproError(
                "the mp backend needs per-view noise streams for "
                "deterministic sharded draws; build the engine with "
                "noise_streams='per_view'")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ReproError(
                "the mp backend needs the 'fork' start method "
                "(unavailable on this platform); use backend='threaded'")
        self.service = service
        self.num_workers = DEFAULT_MP_WORKERS if workers is None else workers
        self._shards: list[_Shard] = []
        self._slabs: dict[str, np.ndarray] = {}
        self._analyst_rows: dict[str, int] = {}
        self._shm: list[SharedMemory] = []
        self._ctx = multiprocessing.get_context("fork")
        #: Quiesces every parent-side mutation a fork must not bisect:
        #: charge application, mirror updates, and (re)spawns all run
        #: under it, so a forked child never inherits a logically torn
        #: provenance table or synopsis store.
        self._state_lock = threading.Lock()
        self._startup_lock = threading.Lock()
        self._sql_lock = threading.Lock()
        self._sql_ids: dict[str, int] = {}
        self._pool: ThreadPoolExecutor | None = None
        self._pool_guard = threading.Lock()
        self._started = False
        self._closed = False
        # Telemetry counters (read without the lock; monotonic ints).
        self.restarts = 0
        self.crashes = 0
        self.brokered_charges = 0
        self.charge_rejections = 0
        self.conversations = 0
        #: Standalone charge-traffic pipe messages.  Deferred settlement
        #: coalesces *all* of a batch's reserve/rollback traffic into the
        #: ``done`` payload, so this stays 0 — the bench's mp-comparison
        #: gate asserts it stays strictly below ``brokered_charges``
        #: (one-message-per-charge is the regression this guards).
        self.charge_messages = 0
        #: Batches whose replayed op verdicts diverged from the
        #: authoritative ledger (concurrent same-analyst cross-shard
        #: traffic); every such batch is fully unwound and its worker
        #: respawned.
        self.charge_mismatches = 0

    # -- lifecycle -----------------------------------------------------------
    def ensure_started(self) -> None:
        """Materialise views into shared memory and fork the pool (once).

        Called lazily on first dispatch and eagerly by ``repro serve``
        (pre-fork at startup): forking must happen *after* durability
        recovery rebuilt the parent state, so workers inherit it.
        """
        if self._started:
            return
        with self._startup_lock:
            if self._started:
                return
            if self._closed:
                raise ServiceClosed("mp backend is closed")
            engine = self.service.engine
            engine.setup()
            registry = engine.registry
            analysts = list(engine.provenance.analysts)
            self._analyst_rows = {name: i + 1
                                  for i, name in enumerate(analysts)}
            for name in registry.view_names:
                exact = np.ascontiguousarray(registry.exact_values(name))
                shm = SharedMemory(create=True, size=max(1, exact.nbytes))
                arr = np.ndarray(exact.shape, dtype=exact.dtype,
                                 buffer=shm.buf)
                arr[:] = exact
                arr.flags.writeable = False
                registry._exact[name] = arr
                self._shm.append(shm)
                rows = len(analysts) + 1
                slab = SharedMemory(create=True,
                                    size=max(8, rows * exact.size * 8))
                slab_arr = np.ndarray((rows, exact.size), dtype=np.float64,
                                      buffer=slab.buf)
                slab_arr.fill(0.0)
                self._slabs[name] = slab_arr
                self._shm.append(slab)
            # Raw-forwarding (single worker) is sound only while the
            # worker's inherited view catalog matches the parent's; a
            # later registration bumps this generation and disables it.
            self._fork_route_generation = registry._route_generation
            with self._state_lock:
                for k in range(self.num_workers):
                    shard = _Shard(k)
                    self._shards.append(shard)
                    self._spawn(shard)
            self._started = True

    def _spawn(self, shard: _Shard) -> None:
        """Fork one worker (callers hold ``_state_lock``; on respawn the
        shard's conversation lock too)."""
        parent_conn, child_conn = self._ctx.Pipe()
        shard.conn = parent_conn
        shard.sent_ids = set()
        process = self._ctx.Process(
            target=_worker_main,
            args=(self, shard.index, child_conn, shard.incarnation),
            daemon=True, name=f"repro-mp-{shard.index}")
        process.start()
        child_conn.close()
        shard.process = process

    def _respawn(self, shard: _Shard) -> None:
        with self._state_lock:
            if self._closed:
                return
            try:
                shard.conn.close()
            except OSError:  # pragma: no cover - already gone
                pass
            if shard.process is not None:
                shard.process.join(timeout=5)
            shard.incarnation += 1
            self._spawn(shard)
            self.restarts += 1

    def close(self) -> None:
        """Stop workers, release shared memory (idempotent)."""
        self._closed = True
        with self._startup_lock:
            for shard in self._shards:
                with shard.lock:
                    if shard.conn is not None:
                        try:
                            shard.conn.send(("stop",))
                        except (OSError, BrokenPipeError, ValueError):
                            pass
            for shard in self._shards:
                if shard.process is not None:
                    shard.process.join(timeout=5)
                    if shard.process.is_alive():  # pragma: no cover
                        shard.process.terminate()
                        shard.process.join(timeout=1)
                if shard.conn is not None:
                    try:
                        shard.conn.close()
                    except OSError:
                        pass
            with self._pool_guard:
                pool, self._pool = self._pool, None
            if pool is not None:
                pool.shutdown(wait=True)
            # Detach every numpy view of the shared maps before closing
            # them (a mapped buffer with live exports cannot close).
            registry = self.service.engine.registry
            for name, values in list(registry._exact.items()):
                if any(values.base is not None and values.size * 8 <= shm.size
                       for shm in self._shm):
                    registry._exact[name] = np.array(values, copy=True)
            self._slabs.clear()
            for shm in self._shm:
                try:
                    shm.close()
                except BufferError:  # pragma: no cover - lingering view
                    pass
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
            self._shm.clear()

    # -- routing -------------------------------------------------------------
    def shard_of(self, view_name: str) -> int:
        return shard_of(view_name, self.num_workers)

    # -- dispatch ------------------------------------------------------------
    def execute_batch(self, analyst: str, groups, responses: list) -> None:
        """Run one planned batch's per-view groups on the worker pool.

        ``groups`` maps view name (or ``None``) to the plan-ordered
        :class:`PlannedQuery` items; ``responses`` is the caller's
        index-addressed result list.  Groups for distinct shards run
        concurrently (each conversation on its own thread); unplannable
        groups run inline in the parent (they only produce errors and
        mutate nothing).
        """
        self.ensure_started()
        inline: list[list[PlannedQuery]] = []
        by_shard: dict[int, list[tuple[str, list[PlannedQuery]]]] = {}
        for view_name, items in groups.items():
            if view_name is None:
                inline.append(items)
            elif view_name not in self._slabs:
                for item in items:
                    responses[item.index] = QueryResponse(item.index, error=(
                        f"view {view_name!r} was registered after the mp "
                        f"backend started; restart the service to shard it"))
            else:
                by_shard.setdefault(self.shard_of(view_name), []).append(
                    (view_name, items))
        if by_shard and analyst not in self._analyst_rows:
            for sgroups in by_shard.values():
                for _, items in sgroups:
                    for item in items:
                        responses[item.index] = QueryResponse(
                            item.index, error=(
                                f"analyst {analyst!r} was registered after "
                                f"the mp backend started; restart the "
                                f"service"))
            by_shard = {}
        tasks = sorted(by_shard.items())
        futures = []
        # Dispatch-pool threads don't inherit this thread's context-var
        # state; the captured trace context rides along explicitly.
        trace_ctx = tracing.capture()
        if len(tasks) > 1:
            pool = self._ensure_pool()
            futures = [pool.submit(self._run_conversation,
                                   self._shards[index], analyst, sgroups,
                                   responses, trace_ctx)
                       for index, sgroups in tasks[1:]]
        first_error: BaseException | None = None
        try:
            if tasks:
                self._run_conversation(self._shards[tasks[0][0]], analyst,
                                       tasks[0][1], responses, trace_ctx)
            for items in inline:
                execute_planned_group(self.service.engine, analyst, None,
                                      items, responses)
        except BaseException as exc:
            first_error = exc
        for future in futures:
            exc = future.exception()
            if exc is not None and first_error is None:
                first_error = exc
        if first_error is not None:
            raise first_error

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_guard:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.num_workers,
                    thread_name_prefix="repro-mp-dispatch")
            return self._pool

    def _encode(self, shard: _Shard, sgroups) -> tuple[list, dict, dict]:
        payload, new_sql, new_plans = [], {}, {}
        with self._sql_lock:
            for view_name, items in sgroups:
                entries = []
                for item in items:
                    sql = item.request.sql
                    text = sql if isinstance(sql, str) \
                        else to_sql(item.statement)
                    sid = self._sql_ids.get(text)
                    if sid is None:
                        sid = self._sql_ids[text] = len(self._sql_ids)
                    if sid not in shard.sent_ids:
                        new_sql[sid] = text
                        shard.sent_ids.add(sid)
                        plan = self._export_plan(item)
                        if plan is not None:
                            new_plans[sid] = plan
                    entries.append((item.index, sid, item.request.accuracy,
                                    item.request.epsilon))
                payload.append((view_name, entries))
        return payload, new_sql, new_plans

    def _export_plan(self, item: PlannedQuery):
        """The parent's compiled plan for one planned item, view swapped
        for its name (see :meth:`_Worker._seed_plans`).  The planner's
        :class:`CompiledStatement` rides on ``item.entry`` — exporting
        it costs zero extra cache probes.  ``None`` (worker compiles on
        its own) when planning could not compile the statement.

        Plans drop the statement AST: pickling the nested node
        dataclasses costs more than everything else in the plan, and no
        engine path reads it — the worker's entry parses the SQL text if
        anything ever does."""
        compiled = item.entry
        if compiled is None:
            return None
        return (compiled.kind, compiled.view.name, compiled.query,
                compiled.group_parts, compiled.avg_parts, compiled.strictest)

    def _sync_for(self, analyst: str) -> tuple:
        """Authoritative cross-shard tallies for one dispatch (see
        :meth:`_Worker._apply_sync`), snapshotted under the state lock so
        a concurrent replay can never be bisected."""
        engine = self.service.engine
        prov = engine.provenance
        mech = engine.mechanism
        with self._state_lock:
            return (prov._row_sum.get(analyst, 0.0), prov._table_sum,
                    prov._table_max_sum,
                    mech._release_counts.get(analyst, 0))

    def _run_conversation(self, shard: _Shard, analyst: str, sgroups,
                          responses: list, trace_ctx=None) -> None:
        with tracing.activate_context(trace_ctx), \
                tracing.span("mp_conversation", shard=shard.index), \
                shard.lock:
            if self._closed:
                self._fail_groups(shard, sgroups, responses,
                                  "service is closed")
                return
            self.conversations += 1
            trace = tracing.current_trace()
            payload, new_sql, new_plans = self._encode(shard, sgroups)
            try:
                shard.conn.send(("batch", analyst, payload, new_sql,
                                 new_plans, self._sync_for(analyst),
                                 trace.trace_id if trace is not None
                                 else None))
                self._pump(shard, sgroups, responses)
            except (EOFError, OSError, BrokenPipeError):
                self._handle_crash(shard, sgroups, responses)

    def _pump(self, shard: _Shard, sgroups, responses: list) -> None:
        """Wait out the worker's ``done`` (all charge traffic rides it)."""
        while True:
            msg = shard.conn.recv()
            kind = msg[0]
            if kind == "done":
                self._finish(shard, msg[1], sgroups, responses)
                return
            raise ReproError(  # pragma: no cover - protocol guard
                f"unexpected worker message {kind!r}")

    def try_execute_raw(self, analyst: str,
                        batch: list[QueryRequest], responses: list) -> bool:
        """Single-worker fast path: forward the raw batch, unplanned.

        With ``workers=1`` the view -> shard routing is degenerate —
        every plannable query lands on worker 0 — so the parent's
        planning pass adds no information the worker needs and its
        compiled plans would only be re-serialised down the pipe.
        Forwarding the raw requests lets the worker run
        :func:`plan_batch` itself (see :meth:`_Worker.serve_raw`):
        planning happens once system-wide instead of twice, which is
        most of the mp backend's single-CPU overhead.  Returns ``False``
        — caller falls back to the plan-and-group path — whenever the
        preconditions don't hold: multiple workers, an analyst or view
        registered after the fork, or an empty batch.
        """
        self.ensure_started()
        if self.num_workers != 1 or not batch:
            return False
        if analyst not in self._analyst_rows:
            return False
        registry = self.service.engine.registry
        if registry._route_generation != self._fork_route_generation:
            return False
        shard = self._shards[0]
        # _fail_groups / _handle_crash only read ``item.index``.
        sgroups = [(None, [PlannedQuery(index=i, request=request,
                                        statement=None, view_name=None,
                                        per_bin_target=None,
                                        is_group_by=False)
                           for i, request in enumerate(batch)])]
        with tracing.span("mp_conversation", shard=0, raw=True), \
                shard.lock:
            if self._closed:
                self._fail_groups(shard, sgroups, responses,
                                  "service is closed")
                return True
            self.conversations += 1
            trace = tracing.current_trace()
            entries = []
            new_sql: dict[int, str] = {}
            with self._sql_lock:
                for i, request in enumerate(batch):
                    text = request.sql if isinstance(request.sql, str) \
                        else to_sql(request.sql)
                    sid = self._sql_ids.get(text)
                    if sid is None:
                        sid = self._sql_ids[text] = len(self._sql_ids)
                    if sid not in shard.sent_ids:
                        new_sql[sid] = text
                        shard.sent_ids.add(sid)
                    entries.append((i, sid, request.accuracy,
                                    request.epsilon))
            try:
                shard.conn.send(("raw", analyst, entries, new_sql,
                                 self._sync_for(analyst),
                                 trace.trace_id if trace is not None
                                 else None))
                self._pump(shard, sgroups, responses)
            except (EOFError, OSError, BrokenPipeError):
                self._handle_crash(shard, sgroups, responses)
        return True

    def _unwind(self, pending: dict, reason: str) -> str:
        """Roll back every replayed-but-uncommitted charge (reverse
        order) and return the slots; callers hold ``_state_lock``."""
        mech = self.service.engine.mechanism
        for _, reservation in reversed(list(pending.items())):
            try:
                reservation.rollback()
            except ReproError:  # pragma: no cover - defensive
                pass
            mech._release_release_slot(reservation.analyst)
        pending.clear()
        return reason

    def _replay_ops(self, ops, pending: dict) -> str | None:
        """Replay the worker's charge ops against the authoritative
        table (callers hold ``_state_lock``).

        Every accepted reserve becomes a real pending
        :class:`~repro.core.provenance.Reservation` in ``pending``;
        every worker-side rejection must reject here too, with the same
        reason — the checks are deterministic functions of tallies the
        dispatch synced, so any divergence means another shard's
        traffic moved them mid-batch.  Returns the mismatch reason
        (with ``pending`` already unwound) or ``None`` on clean replay.
        """
        engine = self.service.engine
        prov = engine.provenance
        mech = engine.mechanism
        for op in ops:
            if op[0] == "rollback":
                reservation = pending.pop(op[1], None)
                if reservation is None:  # pragma: no cover - protocol guard
                    return self._unwind(pending,
                                        "rollback of an unknown charge")
                reservation.rollback()
                mech._release_release_slot(reservation.analyst)
                continue
            (_, cid, analyst, view, epsilon, column_mode, meta,
             worker_ok, worker_reason, _worker_constraint) = op
            try:
                mech._reserve_release_slot(analyst)
            except QueryRejected as exc:
                # The worker's (synced) ledger accepted this slot.
                return self._unwind(pending,
                                    f"delta ledger diverged: {exc.reason}")
            try:
                reservation = prov.reserve(analyst, view, epsilon,
                                           mech.constraints,
                                           column_mode=column_mode,
                                           meta=meta)
            except QueryRejected as exc:
                mech._release_release_slot(analyst)
                if worker_ok or exc.reason != worker_reason:
                    return self._unwind(
                        pending, f"provenance verdict diverged: {exc.reason}")
                self.charge_rejections += 1
                continue
            if not worker_ok:
                reservation.rollback()
                mech._release_release_slot(analyst)
                return self._unwind(
                    pending, "worker rejected a charge the ledger accepts")
            pending[cid] = reservation
            self.brokered_charges += 1
        return None

    def _finish(self, shard: _Shard, payload: dict, sgroups,
                responses: list) -> None:
        engine = self.service.engine
        mech = engine.mechanism
        # 1. Replay the worker's charge ops in decision order against
        #    the authoritative table, verifying every verdict.  A
        #    mismatch (concurrent same-analyst cross-shard traffic moved
        #    the tallies mid-batch) unwinds the whole batch — the
        #    worker's published answers assumed charges that never
        #    settled, so nothing it computed may be returned.
        pending: dict[int, object] = {}
        with self._state_lock:
            mismatch = self._replay_ops(payload["ops"], pending)
            if mismatch is not None:
                self.charge_mismatches += 1
        if mismatch is not None:
            self._fail_groups(
                shard, sgroups, responses,
                f"mp worker for shard {shard.index} diverged from the "
                f"authoritative ledger ({mismatch}); nothing was charged "
                f"for this query")
            self._respawn(shard)
            return
        # 2. Authoritative commits, in the worker's commit order, outside
        #    every lock — the durability hook fires here, exactly as the
        #    threaded path's Reservation.commit does.  A hook failure is
        #    re-raised after the batch is fully folded: the charge
        #    stands (over-counting direction), never re-granted.
        hook_error: BaseException | None = None
        for cid in payload["committed"]:
            reservation = pending.pop(cid, None)
            if reservation is None:  # pragma: no cover - protocol guard
                continue
            try:
                reservation.commit()
            except BaseException as exc:  # noqa: BLE001
                if hook_error is None:
                    hook_error = exc
        # 3. Anything still pending was neither committed nor rolled
        #    back by the worker (a worker-side bug swallowed it): refuse
        #    to let the charge leak.
        leftovers = list(pending.items())
        pending.clear()
        for _, reservation in reversed(leftovers):
            with self._state_lock:
                try:
                    reservation.rollback()
                except ReproError:  # pragma: no cover - defensive
                    pass
                mech._release_release_slot(reservation.analyst)
        # 4. Fold the worker's mirror deltas into the parent state:
        #    synopsis values from the shared slab (one copy, no pickle),
        #    mechanism bookkeeping, fast-lane/cache counters.
        with self._state_lock:
            store = mech.store
            for rec in payload["synopses"]:
                values = np.array(self._slabs[rec["view"]][rec["row"]],
                                  copy=True)
                synopsis = Synopsis(
                    view_name=rec["view"], values=values,
                    epsilon=rec["epsilon"], delta=rec["delta"],
                    variance=rec["variance"], analyst=rec["analyst"])
                if synopsis.analyst is None:
                    store.put_global(synopsis)
                else:
                    store.put_local(synopsis)
            mech._generation.update(payload["generation"])
            mech._last_combination.update(payload["last_combination"])
            mech._local_meta.update(payload["local_meta"])
            hits, misses = payload["fast_lane"]
            if hits or misses:
                engine._note_fast_lane(hits=hits, misses=misses)
            cache_hits, cache_misses = payload["cache"]
            stats = self.service.cache_stats
            with stats._lock:
                stats.hits += cache_hits
                stats.misses += cache_misses
        for packed in payload["responses"]:
            responses[packed[0]] = _unpack_response(packed)
        # 5. Graft the worker's span export under this conversation's
        #    span: the worker's clock origin is its batch receipt, which
        #    the conversation span's start approximates on this side.
        exported = payload.get("spans")
        trace_ctx = tracing.capture()
        if exported and trace_ctx is not None:
            trace_ctx[0].graft(exported, trace_ctx[1],
                               tracing.current_span_start())
        if hook_error is not None:
            raise hook_error

    def _handle_crash(self, shard: _Shard, sgroups, responses) -> None:
        """A worker died mid-conversation: fail the batch, respawn.

        Deferred settlement means there is nothing to refund — the
        parent replays charges only from a completed ``done`` payload,
        so a worker that died before sending one never charged a thing.
        """
        with self._state_lock:
            self.crashes += 1
        self._fail_groups(
            shard, sgroups, responses,
            f"mp worker for shard {shard.index} died mid-batch; "
            f"nothing was charged for this query")
        self._respawn(shard)

    def _fail_groups(self, shard: _Shard, sgroups, responses,
                     reason: str) -> None:
        for _, items in sgroups:
            for item in items:
                if responses[item.index] is None:
                    responses[item.index] = QueryResponse(item.index,
                                                          error=reason)

    # -- health / introspection ----------------------------------------------
    def ping(self) -> list:
        """Round-trip every worker; dead workers are respawned and
        reported as ``None`` for this probe."""
        self.ensure_started()
        pids: list[int | None] = []
        for shard in self._shards:
            with shard.lock:
                try:
                    shard.conn.send(("ping",))
                    reply = shard.conn.recv()
                    pids.append(int(reply[1]))
                except (EOFError, OSError, BrokenPipeError):
                    with self._state_lock:
                        self.crashes += 1
                    self._respawn(shard)
                    pids.append(None)
        return pids

    def inject_crash(self, shard_index: int, after_items: int) -> None:
        """Fault-injection hook (tests): the worker SIGKILLs itself
        after answering ``after_items`` more queries."""
        self.ensure_started()
        shard = self._shards[shard_index]
        with shard.lock:
            shard.conn.send(("crash_after", after_items))

    def describe(self) -> dict:
        """Strictly JSON-native backend block for ``snapshot()``."""
        return {
            "mode": "mp",
            "workers": int(self.num_workers),
            "started": bool(self._started),
            "restarts": int(self.restarts),
            "crashes": int(self.crashes),
            "conversations": int(self.conversations),
            "brokered_charges": int(self.brokered_charges),
            "charge_rejections": int(self.charge_rejections),
            "charge_messages": int(self.charge_messages),
            "charge_mismatches": int(self.charge_mismatches),
            "incarnations": [int(s.incarnation) for s in self._shards],
        }


__all__ = ["DEFAULT_MP_WORKERS", "MpBackend", "shard_of"]
