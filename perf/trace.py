"""The traced pass: where one query's time goes, measured from outside.

Two techniques, both applied by the benchmark to objects it built:

* **Depth replays.**  The same epochs are replayed on identical fresh
  worlds through successively deeper public entry points
  (``RemoteAnalyst.submit`` -> ``ReproServer.handle`` ->
  ``QueryService.submit``/``submit_batch`` -> ``DProvDB.submit`` ->
  ``compile_statement`` + ``submit_compiled``).  A layer's self time is
  the difference between adjacent depths.  Every depth must land on the
  same outcome counts and the same epsilon, bit for bit, or the pass fails.
* **Instance wrappers** on leaf seams callers reach through an instance
  (``mechanism.answer`` and ``cached_answers_fast``,
  ``provenance.reserve`` and the reservation's
  ``commit``, ``registry.compile``, the ledger writer's ``append``).  Each
  records a span: name, start, end, parent, request ordinal.  A seam that
  is gone is listed under ``trace.missing``; its metrics read 0.

Counts come from ``service.snapshot()`` deltas.  The end-to-end numbers
are never taken from this pass.
"""

from __future__ import annotations

import itertools
import json
import operator
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro import QueryRequest, QueryResponse
from repro.db.sql.parser import parse
from repro.exceptions import QueryRejected
from repro.server.protocol import (
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)

import harness
from harness import require
from workloads import Spec, Stream, queries_of

#: Direct per-call measurements (parse, plan, protocol) use at most this
#: many of the replayed queries.
DIRECT_SAMPLE = 4000

#: The share of ``--seconds`` the traced pass spends inside replay
#: windows, all variants together (set-up and checks come on top).
BUDGET_SHARE = 0.8

#: Fewest epochs every variant replays, by scale.
MIN_EPOCHS = {"full": 2, "smoke": 1}


# -- spans ---------------------------------------------------------------------------
class Recorder:
    """In-memory span store.  One request is in flight at a time, so a
    span opened on another thread (daemon handler, shard pool) is parented
    to the current request."""

    def __init__(self) -> None:
        self.spans: dict[int, tuple] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._request: int | None = None
        self.ordinal = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def request(self, entry):
        """Wrap the driver's own call: the root span of each request."""
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        def traced(call):
            self.ordinal += 1
            span_id = self._request = next(ids)
            stack = self._stack()
            stack.append(span_id)
            started = clock()
            try:
                return entry(call)
            finally:
                spans[span_id] = ("request", started, clock(), None,
                                  self.ordinal)
                stack.pop()
                self._request = None
        return traced

    def wrap(self, name: str, function, label=None, on_result=None):
        """Span around ``function``.  ``label(result)`` refines the name
        by outcome; a ``QueryRejected`` is labelled ``<name>:rejected``."""
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._request
            span_id = next(ids)
            stack.append(span_id)
            tag = name
            started = clock()
            try:
                result = function(*args, **kwargs)
                if label is not None:
                    tag = label(result)
                if on_result is not None:
                    result = on_result(result)
                return result
            except QueryRejected:
                tag = name + ":rejected"
                raise
            finally:
                spans[span_id] = (tag, started, clock(), parent,
                                  self.ordinal)
                stack.pop()
        return traced

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus its children's."""
        children: dict[int, float] = {}
        for _, started, ended, parent, _ in self.spans.values():
            if parent is not None:
                children[parent] = children.get(parent, 0.0) \
                    + (ended - started)
        out: dict[str, list[float]] = {}
        for span_id, (name, started, ended, _, _) in self.spans.items():
            own = max(0.0, ended - started - children.get(span_id, 0.0))
            out.setdefault(name, []).append(own)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id in sorted(self.spans):
                name, started, ended, parent, ordinal = self.spans[span_id]
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": started,
                    "end": ended, "parent": parent,
                    "request": ordinal}) + "\n")


class _SpannedReservation:
    """Stands in for a ``Reservation`` so ``commit`` can carry a span
    (the real class has ``__slots__``; its instances cannot be patched)."""

    def __init__(self, inner, recorder: Recorder) -> None:
        self._inner = inner
        self.commit = recorder.wrap("core.provenance.commit", inner.commit)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return self._inner.__exit__(*exc_info)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def install(world, recorder: Recorder) -> list[str]:
    """Put instance wrappers on ``world``'s leaf seams; returns the names
    of seams that no longer exist."""
    engine = world.engine
    durability = world.service.durability
    seams = [
        ("core.mechanism.answer", getattr(engine, "mechanism", None),
         "answer",
         {"label": lambda outcome: "core.mechanism.answer:cached"
          if outcome.cache_hit else "core.mechanism.answer:fresh"}),
        ("core.mechanism.cached", getattr(engine, "mechanism", None),
         "cached_answers_fast",
         {"label": lambda found: "core.mechanism.cached:hit"
          if found and found[0] is not None
          else "core.mechanism.cached:miss"}),
        ("core.provenance.reserve", getattr(engine, "provenance", None),
         "reserve",
         {"on_result": lambda r: _SpannedReservation(r, recorder)}),
        ("views.registry.compile", getattr(engine, "registry", None),
         "compile", {}),
    ]
    if durability is not None:
        seams.append(("persistence.ledger.append",
                      getattr(durability, "_writer", None), "append", {}))
    missing = []
    for name, owner, attribute, options in seams:
        function = getattr(owner, attribute, None)
        if function is None:
            missing.append(name)
            continue
        setattr(owner, attribute, recorder.wrap(name, function, **options))
    return missing


# -- depths -------------------------------------------------------------------------
def _wrap_raw(raw) -> QueryResponse:
    """Engine-level results in the service's response envelope."""
    if isinstance(raw, QueryRejected):
        return QueryResponse(0, error=str(raw), rejected=True)
    if isinstance(raw, list):
        return QueryResponse(0, groups=tuple(raw))
    return QueryResponse(0, answer=raw)


def _handle_depth(world, calls):
    """``ReproServer.handle`` on the bytes a client would have sent."""
    handle = world.server.handle
    prepared = [
        (f"/v1/sessions/{world.remote_sessions[who].session_id}/query",
         json.dumps(encode_request(
             QueryRequest(sql, accuracy=accuracy))).encode("utf-8"))
        for who, sql, accuracy in calls]
    seconds, _, results = harness.drive(
        lambda call: handle("POST", call[0], call[1]), prepared)
    flat = []
    for (who, sql, _), (status, payload) in zip(calls, results):
        require(status == 200, f"handle returned {status}: {payload}")
        flat.append((who, sql, decode_response(payload)))
    return {"total": seconds}, flat


def _through(entry_of):
    """A depth that is one call per stream call through ``entry_of(world)``;
    ``wrap`` lets the recorder put its root span around that call."""
    def depth(world, calls, wrap=None):
        prepared = harness.prepare(world.spec, calls)
        entry = entry_of(world)
        seconds, _, results = harness.drive(
            entry if wrap is None else wrap(entry), prepared)
        return {"total": seconds}, harness.flatten(prepared, results)
    return depth


_user_depth = _through(harness.user_entry)
_service_depth = _through(harness.service_entry)


def _queries(world, calls) -> list[tuple]:
    """(who, analyst name, sql, accuracy) per query, arrival order."""
    return [(call[0], world.names[call[0]], sql, accuracy)
            for call in calls for sql, accuracy in queries_of(call)]


def _engine_depth(world, calls):
    """``DProvDB.submit`` / ``submit_group_by`` per query."""
    engine = world.engine
    submit, submit_group_by = engine.submit, engine.submit_group_by

    def entry(query):
        _, name, sql, accuracy = query
        try:
            if "GROUP BY" in sql:
                return submit_group_by(name, sql, accuracy=accuracy)
            return submit(name, sql, accuracy=accuracy)
        except QueryRejected as exc:
            return exc

    queries = _queries(world, calls)
    seconds, _, results = harness.drive(entry, queries)
    return {"total": seconds}, [(who, sql, _wrap_raw(raw)) for
                                (who, _, sql, _), raw
                                in zip(queries, results)]


def _compiled_depth(world, calls):
    """``compile_statement`` then ``submit_compiled``, clocked apart; a
    compile is a miss when the statement cache's miss counter moved."""
    engine = world.engine
    cache = engine.statement_cache
    compile_statement = engine.compile_statement
    submit_compiled = engine.submit_compiled
    submit_group_by = engine.submit_group_by
    clock = time.perf_counter
    parts = {"compile_hit": 0.0, "compile_miss": 0.0, "submit": 0.0,
             "hits": 0, "misses": 0}
    flat = []
    for who, name, sql, accuracy in _queries(world, calls):
        misses = cache.misses
        t0 = clock()
        compiled = compile_statement(sql)
        t1 = clock()
        try:
            if compiled.kind == "group_by":
                raw = submit_group_by(name, sql, accuracy=accuracy,
                                      compiled=compiled)
            else:
                raw = submit_compiled(name, compiled.statement,
                                      compiled.view, compiled.query,
                                      accuracy, sql_text=sql)
        except QueryRejected as exc:
            raw = exc
        t2 = clock()
        if cache.misses != misses:
            parts["compile_miss"] += t1 - t0
            parts["misses"] += 1
        else:
            parts["compile_hit"] += t1 - t0
            parts["hits"] += 1
        parts["submit"] += t2 - t1
        flat.append((who, sql, _wrap_raw(raw)))
    parts["total"] = parts["compile_hit"] + parts["compile_miss"] \
        + parts["submit"]
    return parts, flat


DEPTHS = {"user": _user_depth, "handle": _handle_depth,
          "service": _service_depth, "engine": _engine_depth,
          "compiled": _compiled_depth}


def _counters(world) -> dict[str, float]:
    """The exact counters of ``service.snapshot()`` the layers report."""
    snap = world.service.snapshot()
    out = {}
    for block in ("compiled_statements", "fast_lane", "view_routing",
                  "synopsis_cache"):
        for key in ("hits", "misses", "evictions"):
            if key in snap.get(block, {}):
                out[f"{block}.{key}"] = snap[block][key]
    durability = snap.get("durability", {})
    out["ledger.records"] = durability.get("ledger_seq", 0)
    out["ledger.bytes"] = durability.get("active_bytes", 0)
    return out


class Replay:
    """What replaying the same epochs one way (a *variant*: a depth, with
    or without wrappers or observers) added up to."""

    def __init__(self) -> None:
        self.epochs: list[dict] = []          # per-epoch parts + queries
        self.tally = harness.Tally()
        self.counters: dict[str, float] = {}
        self.checkpoint_ms: list[float] = []
        self.recover_ms: list[float] = []
        self.flat_sample: list[tuple] = []

    def add(self, parts: dict, flat: list[tuple]) -> None:
        self.epochs.append(dict(parts, queries=len(flat)))
        self.tally.merge(harness.tally_of(flat))
        if len(self.flat_sample) < DIRECT_SAMPLE:
            self.flat_sample += flat[:DIRECT_SAMPLE - len(self.flat_sample)]

    def total(self, part: str) -> float:
        return sum(epoch.get(part, 0.0) for epoch in self.epochs)

    def per_epoch_us(self, part: str = "total") -> list[float]:
        return [1e6 * epoch.get(part, 0.0) / epoch["queries"]
                for epoch in self.epochs]

    def us_per_query(self, part: str = "total") -> float:
        """Median over epochs, so one slow epoch does not set the figure."""
        return statistics.median(self.per_epoch_us(part))

    def delta(self, key: str) -> float:
        return self.counters.get(key, 0.0)

    def rate(self, block: str) -> float:
        hits = self.delta(f"{block}.hits")
        total = hits + self.delta(f"{block}.misses")
        return hits / total if total else 0.0


@dataclass(frozen=True)
class Variant:
    """One way of replaying the epochs: a depth, optionally with the
    leaf seams wrapped (user depth only), with observers off, or with the
    recovery check after each epoch."""

    name: str
    depth: str
    recorder: Recorder | None = None
    observers: bool = True
    recover: bool = False


def _finish(world, before: dict, out: Replay, recover: bool) -> None:
    """Fold the world's counter deltas into ``out``, run the recovery
    check when asked, and close the world."""
    for key, value in _counters(world).items():
        out.counters[key] = out.counters.get(key, 0.0) \
            + value - before.get(key, 0.0)
    if recover and world.data_dir is not None:
        checkpoint_s, recover_s = harness.recover_twin(world)
        out.checkpoint_ms.append(1e3 * checkpoint_s)
        out.recover_ms.append(1e3 * recover_s)
    harness.close_world(world)


def _run_epoch(world, variant: Variant, calls: list[tuple]):
    if variant.recorder is None:
        return DEPTHS[variant.depth](world, calls)
    return _user_depth(world, calls, variant.recorder.request)


def replay(spec: Spec, stream: Stream, variants: list[Variant],
           scratch: Path, budget_s: float
           ) -> tuple[dict[str, Replay], list[str]]:
    """Replay the same epochs under every variant, on identical fresh
    worlds, until ``budget_s`` of window time is spent.

    Variants take turns *within* each epoch, in rotating order, so
    machine drift and interpreter warm-up fall on all of them alike and
    cancel in the differences between depths.  Returns the totals per
    variant and any seams the wrappers could not find.
    """
    runs = {variant.name: Replay() for variant in variants}
    held: dict[str, tuple] = {}     # warmed worlds live across epochs
    missing: list[str] = []
    warm = harness.build_world(spec, stream.engine_seed(0), scratch)
    _user_depth(warm, stream.epoch(0))           # interpreter warm-up
    harness.close_world(warm)
    epoch, spent = 0, 0.0
    while epoch < MIN_EPOCHS[stream.scale] or spent < budget_s:
        calls = stream.epoch(epoch)
        turn = epoch % len(variants)
        for variant in variants[turn:] + variants[:turn]:
            world, before = held.get(variant.name, (None, None))
            if world is None:
                world = harness.build_world(
                    spec, stream.engine_seed(epoch), scratch,
                    observers=variant.observers)
                if variant.recorder is not None:
                    missing = install(world, variant.recorder)
                before = _counters(world)
            parts, flat = _run_epoch(world, variant, calls)
            runs[variant.name].add(parts, flat)
            spent += parts["total"]
            if spec.fresh_world:
                _finish(world, before, runs[variant.name], variant.recover)
            else:
                held[variant.name] = (world, before)
        epoch += 1
    for name, (world, before) in held.items():
        _finish(world, before, runs[name], False)
    return runs, missing


# -- direct measurements -----------------------------------------------------------
def _mean_us(function, items) -> float:
    clock = time.perf_counter
    started = clock()
    for item in items:
        function(item)
    return 1e6 * (clock() - started) / max(1, len(items))


def direct_measurements(spec: Spec, stream: Stream, sample: list[tuple],
                        scratch: Path) -> dict[str, float]:
    """Per-call costs of pure functions and of ``QueryService.plan``,
    called directly on the stream's own payloads."""
    queries = [(sql, accuracy) for call in stream.epoch(0)
               for sql, accuracy in queries_of(call)][:DIRECT_SAMPLE]
    out = {"db.sql.parse_us": _mean_us(parse, [sql for sql, _ in queries])}

    requests = [QueryRequest(sql, accuracy=accuracy)
                for sql, accuracy in queries]
    encoded = [encode_request(r) for r in requests]
    responses = [response for _, _, response in sample]
    wire = [encode_response(r) for r in responses]
    out["server.protocol.decode_us"] = (
        _mean_us(decode_request, encoded)
        + _mean_us(decode_response, wire)) / 2.0
    out["server.protocol.encode_us"] = (
        _mean_us(encode_request, requests)
        + _mean_us(encode_response, responses)) / 2.0

    world = harness.build_world(spec, stream.engine_seed(0), scratch,
                                remote=False)
    try:
        size = max(1, spec.batch)
        batches = [requests[i:i + size]
                   for i in range(0, len(requests), size)]
        views = []
        clock = time.perf_counter
        started = clock()
        for batch in batches:
            views.append(world.service.plan(batch).num_views)
        out["service.planner.plan_us"] = \
            1e6 * (clock() - started) / len(requests)
        out["service.planner.views_per_batch"] = statistics.fmean(views)
    finally:
        harness.close_world(world)
    return out


# -- the traced pass ----------------------------------------------------------------
def _paired(a: Replay, b: Replay, combine) -> float:
    """Median over epochs of ``combine(a, b)`` on the two variants'
    per-query times.  Both ran every epoch back to back, so the pairing
    cancels machine drift that a difference of two medians would keep."""
    return statistics.median(
        combine(x, y) for x, y in zip(a.per_epoch_us(), b.per_epoch_us()))


def traced_pass(spec: Spec, seed: int, seconds: float, scale: str,
                scratch: Path) -> dict:
    """Depth replays plus one wrapped replay of the same epochs; returns
    every per-layer metric (see perf/README.md for the definitions)."""
    catalog = harness.Catalog.of(harness.load_adult(seed=harness.DATA_SEED))
    stream = Stream(spec, catalog, seed, scale)
    recorder = Recorder()
    variants = [Variant("user", "user", recover=True),
                Variant("wrapped", "user", recorder=recorder),
                Variant("quiet", "user", observers=False)]
    variants += [Variant(depth, depth) for depth in
                 (["handle", "service"] if spec.remote else [])
                 + ["engine", "compiled"]]
    runs, missing = replay(spec, stream, variants, scratch,
                           budget_s=seconds * BUDGET_SHARE)
    user, wrapped, compiled = runs["user"], runs["wrapped"], runs["compiled"]
    for name, run in runs.items():
        require(run.tally.key() == user.tally.key(),
                f"variant {name!r} disagrees with the user depth on "
                f"outcome counts or epsilon")
    direct = direct_measurements(spec, stream, user.flat_sample, scratch)
    recorder.write(scratch / f"trace-{spec.name}.jsonl")

    own = recorder.self_times()
    queries = user.tally.attempted

    def mean_us(name: str) -> float:
        values = own.get(name, ())
        return 1e6 * statistics.fmean(values) if values else 0.0

    def per_query_us(*names: str) -> float:
        return 1e6 * sum(sum(own.get(n, ())) for n in names) / queries

    def compile_us(kind: str) -> float:
        count = compiled.total("hits" if kind == "hit" else "misses")
        return 1e6 * compiled.total(f"compile_{kind}") / count \
            if count else 0.0

    t_user = user.us_per_query()
    service = runs["service"] if spec.remote else user
    mechanism = per_query_us("core.mechanism.answer:fresh",
                             "core.mechanism.answer:cached",
                             "core.mechanism.answer:rejected",
                             "core.mechanism.cached:hit",
                             "core.mechanism.cached:miss")
    provenance = per_query_us("core.provenance.reserve",
                              "core.provenance.reserve:rejected",
                              "core.provenance.commit")
    ledger = per_query_us("persistence.ledger.append")
    # Self time per query of each layer, outermost first; by construction
    # they telescope to the user-depth time, up to measurement noise.
    layers = {
        "wire": _paired(user, runs["handle"], operator.sub) if spec.remote else 0.0,
        "daemon": _paired(runs["handle"], service, operator.sub)
        if spec.remote else 0.0,
        "service": _paired(service, runs["engine"], operator.sub),
        "compile": compiled.us_per_query("compile_hit")
        + compiled.us_per_query("compile_miss"),
        "mechanism": mechanism, "provenance": provenance, "ledger": ledger,
        "engine": compiled.us_per_query("submit")
        - mechanism - provenance - ledger,
    }
    attributed = sum(max(0.0, value) for value in layers.values())
    answers = user.tally.fresh + user.tally.cached
    appends = len(own.get("persistence.ledger.append", ()))
    metrics = {
        "wire.roundtrip_self_us": layers["wire"],
        "server.daemon.handle_self_us": layers["daemon"],
        "server.protocol.decode_us": direct["server.protocol.decode_us"],
        "server.protocol.encode_us": direct["server.protocol.encode_us"],
        "service.service.submit_self_us":
            0.0 if spec.batch else layers["service"],
        "service.service.batch_self_us":
            layers["service"] if spec.batch else 0.0,
        "service.planner.plan_us": direct["service.planner.plan_us"],
        "service.planner.views_per_batch":
            direct["service.planner.views_per_batch"],
        "core.engine.compile_hit_us": compile_us("hit"),
        "core.engine.compile_miss_us": compile_us("miss"),
        "core.engine.submit_self_us": layers["engine"],
        "core.engine.fast_lane_hit_rate": user.rate("fast_lane"),
        "core.compile_cache.hit_rate": user.rate("compiled_statements"),
        "core.compile_cache.evictions":
            user.delta("compiled_statements.evictions"),
        "db.sql.parse_us": direct["db.sql.parse_us"],
        "views.registry.compile_us": mean_us("views.registry.compile"),
        "views.registry.route_hit_rate": user.rate("view_routing"),
        "core.mechanism.answer_fresh_us":
            mean_us("core.mechanism.answer:fresh"),
        "core.mechanism.answer_cached_us":
            mean_us("core.mechanism.cached:hit"),
        "core.mechanism.reject_us":
            mean_us("core.mechanism.answer:rejected"),
        "core.mechanism.fresh_share": user.tally.fresh / max(1, answers),
        "core.mechanism.rejected_share": user.tally.rejected / queries,
        "core.provenance.reserve_us": mean_us("core.provenance.reserve"),
        "core.provenance.commit_us": mean_us("core.provenance.commit"),
        "core.provenance.refused":
            len(own.get("core.provenance.reserve:rejected", ())),
        "service.cache.synopsis_hit_rate": user.rate("synopsis_cache"),
        "service.cache.evictions": user.delta("synopsis_cache.evictions"),
        "persistence.ledger.append_us":
            mean_us("persistence.ledger.append"),
        "persistence.ledger.bytes_per_charge":
            wrapped.delta("ledger.bytes") / max(1, appends),
        "persistence.ledger.records": user.delta("ledger.records"),
        "persistence.checkpoint.checkpoint_ms":
            statistics.median(user.checkpoint_ms)
            if user.checkpoint_ms else 0.0,
        "persistence.recovery.recover_ms":
            statistics.median(user.recover_ms) if user.recover_ms else 0.0,
        # q/s with observers on / q/s with tracer and audit trail off
        "metrics.observer_overhead_ratio":
            _paired(runs["quiet"], user, operator.truediv),
        # q/s wrapped / q/s unwrapped
        "trace.overhead_ratio": _paired(user, wrapped, operator.truediv),
        "trace.unattributed_share": abs(t_user - attributed) / t_user,
        "epsilon_per_answer":
            user.tally.epsilon_total / max(1, user.tally.answered),
    }
    return {
        "metrics": metrics,
        "attempted": queries,
        "failed": user.tally.failed,
        "detail": {
            "epochs": len(user.epochs), "spans": len(recorder.spans),
            "trace.missing": missing,
            "us_per_query": {name: run.us_per_query()
                             for name, run in runs.items()},
            "layer_us_per_query": layers,
            "layer_share": {name: value / t_user
                            for name, value in layers.items()},
            "span_counts": {name: len(values)
                            for name, values in sorted(own.items())},
            "stream_sha256": stream.sha256(),
        },
    }


__all__ = ["DEPTHS", "Recorder", "Replay", "Variant", "direct_measurements",
           "install", "replay", "traced_pass"]
