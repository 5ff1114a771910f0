"""Load generation for the query service: mixed and disjoint workloads.

The *mixed* workload mirrors the paper's evaluation tasks: randomized
range queries (:mod:`repro.workloads.rrq`), GROUP BY histograms over
categorical attributes (Appendix D semantics), and BFS-style dyadic range
probes — the exact query shapes :class:`repro.workloads.bfs.BfsExplorer`
emits, laid out statically so a replay is deterministic and comparable
across modes.

The *disjoint-view* workload (:func:`build_disjoint_workload`) is the
sharding stress: each analyst's stream targets its own wide marginal view
(every predicate covers all of that view's attributes, so no other view
answers it), which means per-view critical sections never contend across
analysts and the sharded service's parallelism is actually exercised —
the measured half of ``bench-service --compare-global``.

:func:`run_throughput` replays a workload across N threads (one session per
thread) in either ``single`` (one query at a time, arrival order) or
``batched`` (``submit_batch`` through the view-grouping planner) mode and
reports queries/sec plus cache statistics.

:func:`run_remote_throughput` is the over-the-wire twin: the same
workloads replayed through :class:`repro.client.RemoteAnalyst`
connections against a running ``repro serve`` daemon, in either
*closed-loop* (back-to-back, like the in-process driver) or *open-loop*
arrival (Poisson arrivals at a target rate, the realistic serving
shape — latency is measured from each request's **scheduled** arrival,
so queueing delay shows up in the tail instead of silently throttling
the offered load).  Both drivers report p50/p95 latency.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass

from repro.core.analyst import Analyst
from repro.datasets.base import DatasetBundle
from repro.dp.rng import SeedLike, ensure_generator
from repro.exceptions import ReproError
from repro.metrics.runtime import Stopwatch
from repro.service.service import QueryService
from repro.service.session import QueryRequest
from repro.workloads.rrq import generate_rrq, ordered_attributes

MODES = ("single", "batched")

#: Arrival processes for the remote driver: ``closed`` replays
#: back-to-back; ``open`` draws Poisson arrivals at ``rate_qps``.
ARRIVALS = ("closed", "open")


def _dyadic_ranges(low: int, high: int, depth: int) -> list[tuple[int, int]]:
    """All BFS decomposition-tree nodes down to ``depth`` (root = level 0)."""
    ranges = [(low, high)]
    level = [(low, high)]
    for _ in range(depth):
        nxt: list[tuple[int, int]] = []
        for lo, hi in level:
            if lo >= hi:
                continue
            mid = (lo + hi) // 2
            nxt.extend([(lo, mid), (mid + 1, hi)])
        ranges.extend(nxt)
        level = nxt
    return ranges


def bfs_style_queries(bundle: DatasetBundle, attribute: str,
                      depth: int = 3) -> list[str]:
    """The counting queries a BFS traversal of ``attribute`` would issue."""
    schema = bundle.database.table(bundle.fact_table).schema
    domain = schema.domain(attribute)
    return [
        (f"SELECT COUNT(*) FROM {bundle.fact_table} "
         f"WHERE {attribute} BETWEEN {lo} AND {hi}")
        for lo, hi in _dyadic_ranges(domain.low, domain.high, depth)
    ]


def _group_by_attributes(bundle: DatasetBundle,
                         max_domain: int = 24) -> tuple[str, ...]:
    """View attributes with small domains — cheap full-domain GROUP BYs."""
    schema = bundle.database.table(bundle.fact_table).schema
    return tuple(a for a in bundle.view_attributes
                 if schema.domain(a).size <= max_domain)


def build_mixed_workload(bundle: DatasetBundle, analysts: list[Analyst],
                         queries_per_analyst: int,
                         accuracy: float = 40000.0,
                         group_by_fraction: float = 0.1,
                         bfs_fraction: float = 0.2,
                         seed: SeedLike = 0
                         ) -> dict[str, list[QueryRequest]]:
    """Deterministic per-analyst request streams with the paper's mix.

    Roughly ``group_by_fraction`` of each stream are GROUP BY histograms and
    ``bfs_fraction`` are BFS-style dyadic ranges; the rest are RRQs.  The
    accuracy requirement is jittered per query (half to twice ``accuracy``)
    so streams exercise the strictest-first planning.
    """
    rng = ensure_generator(seed)
    rrq = generate_rrq(bundle, analysts, queries_per_analyst,
                       accuracy=accuracy, seed=rng)
    group_attrs = _group_by_attributes(bundle)
    bfs_pool = [sql
                for attr in ordered_attributes(bundle)[:2]
                for sql in bfs_style_queries(bundle, attr)]

    workload: dict[str, list[QueryRequest]] = {}
    for analyst in analysts:
        stream: list[QueryRequest] = []
        for item in rrq[analyst.name]:
            jitter = float(accuracy * 2.0 ** rng.uniform(-1.0, 1.0))
            roll = rng.random()
            if roll < group_by_fraction and group_attrs:
                attr = group_attrs[int(rng.integers(0, len(group_attrs)))]
                sql = (f"SELECT {attr}, COUNT(*) FROM {bundle.fact_table} "
                       f"GROUP BY {attr}")
            elif roll < group_by_fraction + bfs_fraction and bfs_pool:
                sql = bfs_pool[int(rng.integers(0, len(bfs_pool)))]
            else:
                sql = item.sql
            stream.append(QueryRequest(sql, accuracy=jitter))
        workload[analyst.name] = stream
    return workload


def disjoint_view_attribute_sets(bundle: DatasetBundle, num_views: int,
                                 width: int = 2) -> list[tuple[str, ...]]:
    """``num_views`` deterministic attribute combinations for wide views.

    Every set starts with an ordered (integer) attribute — so range
    predicates can anchor on it — and is completed from the remaining
    view attributes; sets are unique, generated in a fixed order, and
    independent of any RNG so the same workload can be rebuilt for a
    baseline comparison.
    """
    if width < 2:
        raise ReproError(f"disjoint views need width >= 2, got {width}")
    ordered = ordered_attributes(bundle)
    if not ordered:
        raise ReproError("no ordered attribute to anchor range queries on")
    all_attrs = list(bundle.view_attributes)
    sets: list[tuple[str, ...]] = []
    seen: set[frozenset] = set()
    # Round-robin over the integer anchors; each anchor keeps its own
    # combination cursor so sets spread across anchors deterministically.
    cursors = {
        anchor: itertools.combinations(
            [a for a in all_attrs if a != anchor], width - 1)
        for anchor in ordered
    }
    exhausted: set[str] = set()
    anchors = itertools.cycle(ordered)
    while len(sets) < num_views and len(exhausted) < len(ordered):
        anchor = next(anchors)
        if anchor in exhausted:
            continue
        for rest in cursors[anchor]:
            key = frozenset((anchor,) + rest)
            if key not in seen:
                seen.add(key)
                sets.append((anchor,) + rest)
                break
        else:
            exhausted.add(anchor)
    if len(sets) < num_views:
        raise ReproError(
            f"could not derive {num_views} distinct attribute sets "
            f"(width {width}) from {len(all_attrs)} attributes"
        )
    return sets


def register_disjoint_views(engine,
                            attribute_sets: list[tuple[str, ...]]
                            ) -> list[str]:
    """Register each attribute set as a wide histogram view; returns names."""
    return [engine.register_view(attrs) for attrs in attribute_sets]


def _aligned_range(domain, rng) -> tuple[int, int]:
    """A random [low, high] range aligned with the domain's bin bounds."""
    if getattr(domain, "bin_size", 1) > 1:
        first = int(rng.integers(0, domain.size))
        last = int(rng.integers(first, domain.size))
        return domain.bin_bounds(first)[0], domain.bin_bounds(last)[1]
    low = int(rng.integers(domain.low, domain.high + 1))
    return low, int(rng.integers(low, domain.high + 1))


def build_disjoint_workload(bundle: DatasetBundle, analysts: list[Analyst],
                            queries_per_analyst: int,
                            attribute_sets: list[tuple[str, ...]],
                            accuracy: float = 40000.0,
                            seed: SeedLike = 0
                            ) -> dict[str, list[QueryRequest]]:
    """Per-analyst streams where analyst ``i`` only queries wide view ``i``.

    Every query's predicate covers *all* attributes of the analyst's
    assigned set (a range on the integer anchor, plus membership/threshold
    conditions on the rest), so only the corresponding registered wide
    view can answer it — streams for different analysts touch disjoint
    views.  Accuracy requirements are jittered exactly like the mixed
    workload so strictest-first planning stays exercised.
    """
    rng = ensure_generator(seed)
    schema = bundle.database.table(bundle.fact_table).schema
    table = bundle.fact_table

    workload: dict[str, list[QueryRequest]] = {}
    for i, analyst in enumerate(analysts):
        attrs = attribute_sets[i % len(attribute_sets)]
        anchor, rest = attrs[0], attrs[1:]
        domain = schema.domain(anchor)
        stream: list[QueryRequest] = []
        for _ in range(queries_per_analyst):
            low, high = _aligned_range(domain, rng)
            conditions = [f"{anchor} BETWEEN {low} AND {high}"]
            for attr in rest:
                other = schema.domain(attr)
                if hasattr(other, "values"):  # categorical: membership
                    count = max(1, int(rng.integers(1, other.size + 1)))
                    literals = ", ".join(f"'{v}'"
                                         for v in other.values[:count])
                    conditions.append(f"{attr} IN ({literals})")
                else:  # integer: bin-aligned threshold
                    cut, _ = _aligned_range(other, rng)
                    conditions.append(f"{attr} >= {cut}")
            sql = (f"SELECT COUNT(*) FROM {table} "
                   f"WHERE {' AND '.join(conditions)}")
            jitter = float(accuracy * 2.0 ** rng.uniform(-1.0, 1.0))
            stream.append(QueryRequest(sql, accuracy=jitter))
        workload[analyst.name] = stream
    return workload


def latency_percentile(latencies_ms: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``latencies_ms`` (0.0 when empty)."""
    if not latencies_ms:
        return 0.0
    ordered = sorted(latencies_ms)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[rank]


@dataclass(frozen=True)
class ThroughputResult:
    """Outcome of one load-generation run (in-process or over the wire).

    Latency percentiles are per *call* — one submitted query in
    ``single`` mode, one whole batch in ``batched`` mode — in
    milliseconds.  Under open-loop arrival they are measured from the
    request's scheduled arrival time, so they include queueing delay.
    """

    mode: str
    threads: int
    total_queries: int
    answered: int
    rejected: int
    failed: int
    seconds: float
    answer_cache_hit_rate: float
    synopsis_cache_hit_rate: float
    fresh_releases: int
    total_epsilon_spent: float
    execution: str = "sharded"
    shards: int = 0
    #: Execution backend the service ran on (``threaded`` or ``mp`` —
    #: the multiprocessing shard workers).
    backend: str = "threaded"
    transport: str = "inproc"
    arrival: str = "closed"
    offered_qps: float = 0.0
    latency_p50_ms: float = 0.0
    latency_p95_ms: float = 0.0
    #: Durability axis: ``"none"`` (no write-ahead ledger) or the fsync
    #: policy the service journaled under (``always``/``batch``/``off``).
    durability: str = "none"

    @property
    def queries_per_second(self) -> float:
        return self.total_queries / self.seconds if self.seconds > 0 else 0.0

    def as_dict(self) -> dict:
        """JSON-ready record (the ``--json`` bench artifact rows)."""
        return {
            "mode": self.mode, "threads": self.threads,
            "execution": self.execution, "shards": self.shards,
            "backend": self.backend,
            "transport": self.transport, "arrival": self.arrival,
            "offered_qps": self.offered_qps,
            "total_queries": self.total_queries, "answered": self.answered,
            "rejected": self.rejected, "failed": self.failed,
            "seconds": self.seconds,
            "queries_per_second": self.queries_per_second,
            "answer_cache_hit_rate": self.answer_cache_hit_rate,
            "synopsis_cache_hit_rate": self.synopsis_cache_hit_rate,
            "fresh_releases": self.fresh_releases,
            "total_epsilon_spent": self.total_epsilon_spent,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p95_ms": self.latency_p95_ms,
            "durability": self.durability,
        }


def run_throughput(service: QueryService, analysts: list[Analyst],
                   workload: dict[str, list[QueryRequest]],
                   mode: str = "batched", threads: int = 4,
                   batch_size: int = 16) -> ThroughputResult:
    """Replay ``workload`` against ``service`` across ``threads`` workers.

    Analysts are assigned to threads round-robin; each worker opens one
    session per analyst it owns and replays that analyst's stream either
    query-by-query (``single``) or in ``batch_size`` slices (``batched``).
    """
    if mode not in MODES:
        raise ReproError(f"unknown mode {mode!r}; choose from {MODES}")
    if threads < 1:
        raise ReproError(f"threads must be >= 1, got {threads}")

    # Counters on the service are cumulative over its lifetime; report
    # this call's delta so a reused service doesn't inflate q/s.
    stats0 = service.stats.as_dict()
    cache0 = service.cache_stats.as_dict()

    assignments: list[list[Analyst]] = [[] for _ in range(threads)]
    for i, analyst in enumerate(analysts):
        assignments[i % threads].append(analyst)
    # More threads than analysts leaves some workers without a stream; the
    # start barrier must count only the workers that actually launch.
    active = [owned for owned in assignments if owned]
    barrier = threading.Barrier(len(active))
    errors: list[BaseException] = []
    latencies: list[list[float]] = [[] for _ in active]

    def worker(index: int, owned: list[Analyst]) -> None:
        try:
            timed = latencies[index]
            sessions = {a.name: service.open_session(a.name) for a in owned}
            barrier.wait()
            for analyst in owned:
                stream = workload.get(analyst.name, [])
                session = sessions[analyst.name]
                if mode == "single":
                    for request in stream:
                        sent = time.perf_counter()
                        service.submit(session, request.sql,
                                       accuracy=request.accuracy,
                                       epsilon=request.epsilon)
                        timed.append(1e3 * (time.perf_counter() - sent))
                else:
                    for start in range(0, len(stream), batch_size):
                        sent = time.perf_counter()
                        service.submit_batch(
                            session, stream[start:start + batch_size])
                        timed.append(1e3 * (time.perf_counter() - sent))
        except BaseException as exc:  # surfaced to the caller below
            errors.append(exc)
            try:
                barrier.abort()
            except Exception:
                pass

    pool = [threading.Thread(target=worker, args=(i, owned), daemon=True)
            for i, owned in enumerate(active)]
    watch = Stopwatch()
    with watch:
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
    if errors:
        raise errors[0]

    stats = service.stats.as_dict()
    cache = service.cache_stats.as_dict()
    timings = [ms for per_worker in latencies for ms in per_worker]
    return _delta_result(
        mode, len(pool), stats0, cache0, stats, cache, watch.seconds,
        execution=service.execution,
        shards=(service.sharding.num_shards if service.sharding else 0),
        backend=service.backend,
        timings_ms=timings,
        durability=(service.durability.fsync if service.durability
                    else "none"),
    )


def _delta_result(mode: str, threads: int, stats0: dict, cache0: dict,
                  stats: dict, cache: dict, seconds: float, *,
                  execution: str, shards: int, timings_ms: list[float],
                  backend: str = "threaded",
                  transport: str = "inproc", arrival: str = "closed",
                  offered_qps: float = 0.0,
                  durability: str = "none") -> ThroughputResult:
    """Fold before/after stats snapshots into one :class:`ThroughputResult`.

    Shared by the in-process and remote drivers: both observe the service
    through the same counters (locally or via ``/v1/snapshot``), so the
    accounting columns are directly comparable across transports.
    """
    answer_hits = stats["answer_cache_hits"] - stats0["answer_cache_hits"]
    fresh = stats["fresh_releases"] - stats0["fresh_releases"]
    lookups = (cache["hits"] + cache["misses"]
               - cache0["hits"] - cache0["misses"])
    return ThroughputResult(
        mode=mode, threads=threads,
        execution=execution, shards=shards, backend=backend,
        transport=transport, arrival=arrival, offered_qps=offered_qps,
        total_queries=stats["submitted"] - stats0["submitted"],
        answered=stats["answered"] - stats0["answered"],
        rejected=stats["rejected"] - stats0["rejected"],
        failed=stats["failed"] - stats0["failed"],
        seconds=seconds,
        answer_cache_hit_rate=(answer_hits / (answer_hits + fresh)
                               if answer_hits + fresh else 0.0),
        synopsis_cache_hit_rate=((cache["hits"] - cache0["hits"]) / lookups
                                 if lookups else 0.0),
        fresh_releases=fresh,
        total_epsilon_spent=(
            sum(stats["epsilon_by_analyst"].values())
            - sum(stats0["epsilon_by_analyst"].values())),
        latency_p50_ms=latency_percentile(timings_ms, 0.50),
        latency_p95_ms=latency_percentile(timings_ms, 0.95),
        durability=durability,
    )


def run_sequential_replay(service: QueryService, analysts: list[Analyst],
                          workload: dict[str, list[QueryRequest]],
                          batch_size: int = 16
                          ) -> tuple[ThroughputResult, list[tuple]]:
    """Replay a workload batched on one caller thread, capturing every
    response for bit-level comparison across execution backends.

    One caller thread makes the replay order deterministic; parallelism
    is still exercised *inside* each ``submit_batch`` (the threaded
    backend fans per-view groups across its shard pool, the mp backend
    across its worker processes).  Batched replays are therefore only
    reproducible **per view**: under ``noise_streams="shared"`` the
    groups of one batch draw from one RNG in thread-scheduling order, so
    the same noise values can land on swapped queries from run to run.
    With ``noise_streams="per_view"`` and an integer seed, two replays of
    the same workload — across backends, or with an observer on and off —
    produce bitwise-identical answers: the equality the
    ``--compare-threaded`` bench gate and the trace/audit overhead gates
    assert.

    Returns the usual :class:`ThroughputResult` plus the flat response
    trace: one tuple per response, ``("ok", value_or_groups, epsilon)``
    for answers (group values as a tuple of ``(key, value, epsilon)``),
    ``("rejected", reason, None)`` for refusals, ``("error", message,
    None)`` for failures — raw floats, no rounding.
    """
    stats0 = service.stats.as_dict()
    cache0 = service.cache_stats.as_dict()
    trace: list[tuple] = []
    latencies: list[float] = []
    watch = Stopwatch()
    with watch:
        for analyst in analysts:
            stream = workload.get(analyst.name, [])
            session = service.open_session(analyst.name)
            try:
                for start in range(0, len(stream), batch_size):
                    sent = time.perf_counter()
                    responses = service.submit_batch(
                        session, stream[start:start + batch_size])
                    latencies.append(1e3 * (time.perf_counter() - sent))
                    for r in responses:
                        if r.answer is not None:
                            trace.append(("ok", r.value(),
                                          r.answer.epsilon_charged))
                        elif r.groups is not None:
                            trace.append((
                                "ok",
                                tuple((key, a.value, a.epsilon_charged)
                                      for key, a in r.groups),
                                sum(a.epsilon_charged
                                    for _, a in r.groups)))
                        elif r.rejected:
                            trace.append(("rejected", r.error, None))
                        else:
                            trace.append(("error", r.error, None))
            finally:
                service.close_session(session)
    stats = service.stats.as_dict()
    cache = service.cache_stats.as_dict()
    result = _delta_result(
        "batched", 1, stats0, cache0, stats, cache, watch.seconds,
        execution=service.execution,
        shards=(service.sharding.num_shards if service.sharding else 0),
        backend=service.backend,
        timings_ms=latencies,
        durability=(service.durability.fsync if service.durability
                    else "none"),
    )
    return result, trace


def run_remote_throughput(base_url: str, analysts: list[Analyst],
                          workload: dict[str, list[QueryRequest]],
                          mode: str = "batched", connections: int = 4,
                          batch_size: int = 16, arrival: str = "closed",
                          rate_qps: float | None = None,
                          tokens: dict[str, str] | None = None,
                          seed: SeedLike = 0,
                          timeout: float = 60.0) -> ThroughputResult:
    """Replay ``workload`` against a running daemon over HTTP.

    Analysts are assigned round-robin onto ``connections`` worker threads
    (each worker drives one :class:`repro.client.RemoteAnalyst` per owned
    analyst — the client is not thread-safe); as in the in-process
    driver, more connections than analysts leaves some workers idle and
    the start barrier counts only the workers that actually launch.

    ``arrival="open"`` turns the replay into an open-loop load test:
    each worker draws Poisson arrivals (exponential gaps, deterministic
    per-worker RNG derived from ``seed``) at ``rate_qps / active``
    calls/sec and measures latency from the *scheduled* arrival, so a
    saturated server shows up as tail latency instead of reduced offered
    load.  Accounting columns come from the server's ``/v1/snapshot``
    delta — directly comparable with :func:`run_throughput` output.
    """
    from repro.client.remote import RemoteAnalyst

    if mode not in MODES:
        raise ReproError(f"unknown mode {mode!r}; choose from {MODES}")
    if arrival not in ARRIVALS:
        raise ReproError(f"unknown arrival {arrival!r}; "
                         f"choose from {ARRIVALS}")
    if arrival == "open" and (rate_qps is None or rate_qps <= 0):
        raise ReproError("open-loop arrival needs rate_qps > 0")
    if connections < 1:
        raise ReproError(f"connections must be >= 1, got {connections}")
    if tokens is None:
        tokens = {a.name: a.name for a in analysts}

    observer = RemoteAnalyst(base_url, token=next(iter(tokens.values()), ""),
                             timeout=timeout)
    before = observer.snapshot()

    assignments: list[list[Analyst]] = [[] for _ in range(connections)]
    for i, analyst in enumerate(analysts):
        assignments[i % connections].append(analyst)
    # The PR 1 barrier/thread-count guard, extended to the remote driver:
    # connections > analysts must not leave the barrier waiting on idle
    # workers (regression-tested in tests/test_loadgen_remote.py).
    active = [owned for owned in assignments if owned]
    barrier = threading.Barrier(len(active))
    errors: list[BaseException] = []
    latencies: list[list[float]] = [[] for _ in active]
    rng = ensure_generator(seed)
    worker_seeds = [int(rng.integers(0, 2**31)) for _ in active]
    per_worker_rate = (rate_qps / len(active)) if rate_qps else 0.0

    def worker(index: int, owned: list[Analyst]) -> None:
        client_by_name = {}
        try:
            timed = latencies[index]
            gaps = ensure_generator(worker_seeds[index])
            for analyst in owned:
                client_by_name[analyst.name] = RemoteAnalyst(
                    base_url, token=tokens[analyst.name], timeout=timeout)
            sessions = {name: client.open_session()
                        for name, client in client_by_name.items()}
            calls: list[tuple[str, list[QueryRequest]]] = []
            for analyst in owned:
                stream = workload.get(analyst.name, [])
                if mode == "single":
                    calls.extend((analyst.name, [r]) for r in stream)
                else:
                    calls.extend(
                        (analyst.name, stream[start:start + batch_size])
                        for start in range(0, len(stream), batch_size))
            barrier.wait()
            started = time.perf_counter()
            scheduled = started
            for name, slice_ in calls:
                client, session = client_by_name[name], sessions[name]
                if arrival == "open":
                    scheduled += float(gaps.exponential(1.0 /
                                                        per_worker_rate))
                    now = time.perf_counter()
                    if scheduled > now:
                        time.sleep(scheduled - now)
                    sent = scheduled
                else:
                    sent = time.perf_counter()
                if mode == "single":
                    request = slice_[0]
                    client.submit(session, request.sql,
                                  accuracy=request.accuracy,
                                  epsilon=request.epsilon)
                else:
                    client.submit_batch(session, slice_)
                timed.append(1e3 * (time.perf_counter() - sent))
        except BaseException as exc:  # surfaced to the caller below
            errors.append(exc)
            try:
                barrier.abort()
            except Exception:
                pass
        finally:
            for client in client_by_name.values():
                client.close()

    pool = [threading.Thread(target=worker, args=(i, owned), daemon=True)
            for i, owned in enumerate(active)]
    watch = Stopwatch()
    with watch:
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
    if errors:
        raise errors[0]

    after = observer.snapshot()
    observer.close()
    timings = [ms for per_worker in latencies for ms in per_worker]
    durable = after.get("durability") or {}
    return _delta_result(
        mode, len(pool), before["service"], before["synopsis_cache"],
        after["service"], after["synopsis_cache"], watch.seconds,
        execution=after.get("execution", "sharded"),
        shards=after.get("shards", 0),
        backend=(after.get("backend") or {}).get("mode", "threaded"),
        timings_ms=timings, transport="remote", arrival=arrival,
        offered_qps=(rate_qps or 0.0),
        durability=(durable.get("fsync", "none") if durable.get("enabled")
                    else "none"),
    )


@dataclass(frozen=True)
class OverloadResult:
    """Outcome of one open-loop overload run against a rate-limited daemon.

    ``admitted`` latencies are measured from the scheduled arrival (they
    include queueing delay); ``refused`` latencies time the 429 round
    trip alone — the "rejections are cheap" half of the overload story.
    ``admitted_workload`` is the per-analyst multiset of requests that
    made it past admission control, so a caller can replay exactly the
    admitted work in process and compare accounting.
    """

    offered_qps: float
    attempted: int
    admitted: int
    rate_limited: int
    seconds: float
    admitted_p50_ms: float
    admitted_p95_ms: float
    refused_p50_ms: float
    refused_p95_ms: float
    service: ThroughputResult
    admitted_workload: dict[str, list[QueryRequest]]

    @property
    def refusal_rate(self) -> float:
        return self.rate_limited / self.attempted if self.attempted else 0.0

    def as_dict(self) -> dict:
        return {
            "offered_qps": self.offered_qps,
            "attempted": self.attempted,
            "admitted": self.admitted,
            "rate_limited": self.rate_limited,
            "refusal_rate": self.refusal_rate,
            "seconds": self.seconds,
            "admitted_p50_ms": self.admitted_p50_ms,
            "admitted_p95_ms": self.admitted_p95_ms,
            "refused_p50_ms": self.refused_p50_ms,
            "refused_p95_ms": self.refused_p95_ms,
            "service": self.service.as_dict(),
        }


def run_overload(base_url: str, analysts: list[Analyst],
                 workload: dict[str, list[QueryRequest]],
                 rate_qps: float, connections: int = 4,
                 tokens: dict[str, str] | None = None,
                 seed: SeedLike = 0,
                 timeout: float = 60.0) -> OverloadResult:
    """Drive open-loop Poisson arrivals at ``rate_qps`` into a daemon
    running admission control, counting 429s instead of failing on them.

    Unlike :func:`run_remote_throughput` (whose workers surface every
    error), a :class:`repro.client.RateLimited` refusal here is an
    *expected* outcome: the worker records the refusal's round-trip
    time and moves to its next scheduled arrival without retrying.
    Every other error still aborts the run.
    """
    from repro.client.remote import RateLimited, RemoteAnalyst

    if rate_qps is None or rate_qps <= 0:
        raise ReproError("overload runs need rate_qps > 0")
    if connections < 1:
        raise ReproError(f"connections must be >= 1, got {connections}")
    if tokens is None:
        tokens = {a.name: a.name for a in analysts}

    observer = RemoteAnalyst(base_url, token=next(iter(tokens.values()), ""),
                             timeout=timeout)
    before = observer.snapshot()

    assignments: list[list[Analyst]] = [[] for _ in range(connections)]
    for i, analyst in enumerate(analysts):
        assignments[i % connections].append(analyst)
    active = [owned for owned in assignments if owned]
    barrier = threading.Barrier(len(active))
    errors: list[BaseException] = []
    admitted_ms: list[list[float]] = [[] for _ in active]
    refused_ms: list[list[float]] = [[] for _ in active]
    admitted_reqs: list[dict[str, list[QueryRequest]]] = [
        {} for _ in active]
    rng = ensure_generator(seed)
    worker_seeds = [int(rng.integers(0, 2**31)) for _ in active]
    per_worker_rate = rate_qps / len(active)

    def worker(index: int, owned: list[Analyst]) -> None:
        client_by_name = {}
        try:
            gaps = ensure_generator(worker_seeds[index])
            for analyst in owned:
                # retry_rate_limited stays 0: the whole point is to
                # observe the refusals, not to sleep them away.
                client_by_name[analyst.name] = RemoteAnalyst(
                    base_url, token=tokens[analyst.name], timeout=timeout)
            sessions = {name: client.open_session()
                        for name, client in client_by_name.items()}
            calls = [(analyst.name, request)
                     for analyst in owned
                     for request in workload.get(analyst.name, [])]
            barrier.wait()
            scheduled = time.perf_counter()
            for name, request in calls:
                client, session = client_by_name[name], sessions[name]
                scheduled += float(gaps.exponential(1.0 / per_worker_rate))
                now = time.perf_counter()
                if scheduled > now:
                    time.sleep(scheduled - now)
                try:
                    client.submit(session, request.sql,
                                  accuracy=request.accuracy,
                                  epsilon=request.epsilon)
                except RateLimited:
                    # Cheap-refusal latency: the 429 round trip itself,
                    # not the (deliberate) queueing delay before it.
                    refused_ms[index].append(
                        1e3 * (time.perf_counter() - max(scheduled, now)))
                else:
                    admitted_ms[index].append(
                        1e3 * (time.perf_counter() - scheduled))
                    admitted_reqs[index].setdefault(name, []).append(request)
        except BaseException as exc:  # surfaced to the caller below
            errors.append(exc)
            try:
                barrier.abort()
            except Exception:
                pass
        finally:
            for client in client_by_name.values():
                client.close()

    pool = [threading.Thread(target=worker, args=(i, owned), daemon=True)
            for i, owned in enumerate(active)]
    watch = Stopwatch()
    with watch:
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
    if errors:
        raise errors[0]

    after = observer.snapshot()
    observer.close()
    admitted_all = [ms for per in admitted_ms for ms in per]
    refused_all = [ms for per in refused_ms for ms in per]
    durable = after.get("durability") or {}
    service_result = _delta_result(
        "single", len(pool), before["service"], before["synopsis_cache"],
        after["service"], after["synopsis_cache"], watch.seconds,
        execution=after.get("execution", "sharded"),
        shards=after.get("shards", 0),
        backend=(after.get("backend") or {}).get("mode", "threaded"),
        timings_ms=admitted_all, transport="remote", arrival="open",
        offered_qps=rate_qps,
        durability=(durable.get("fsync", "none") if durable.get("enabled")
                    else "none"),
    )
    merged: dict[str, list[QueryRequest]] = {}
    for per_worker in admitted_reqs:
        for name, requests in per_worker.items():
            merged.setdefault(name, []).extend(requests)
    return OverloadResult(
        offered_qps=rate_qps,
        attempted=len(admitted_all) + len(refused_all),
        admitted=len(admitted_all),
        rate_limited=len(refused_all),
        seconds=watch.seconds,
        admitted_p50_ms=latency_percentile(admitted_all, 0.50),
        admitted_p95_ms=latency_percentile(admitted_all, 0.95),
        refused_p50_ms=latency_percentile(refused_all, 0.50),
        refused_p95_ms=latency_percentile(refused_all, 0.95),
        service=service_result,
        admitted_workload=merged,
    )


def format_throughput(results: list[ThroughputResult],
                      title: str = "service throughput") -> str:
    """Text table comparing load-generation runs (any transport)."""
    header = (f"{'mode':>8s} {'via':>7s} {'exec':>8s} {'back':>8s} "
              f"{'dur':>7s} {'thr':>4s} "
              f"{'queries':>8s} {'ans':>7s} {'rej':>6s} {'q/s':>9s} "
              f"{'hit%':>6s} {'fresh':>6s} {'eps':>8s} "
              f"{'p50ms':>7s} {'p95ms':>7s}")
    lines = [f"== {title} ==", header, "-" * len(header)]
    for r in results:
        via = r.transport if r.arrival == "closed" else "open"
        lines.append(
            f"{r.mode:>8s} {via:>7s} {r.execution:>8s} {r.backend:>8s} "
            f"{r.durability:>7s} {r.threads:>4d} "
            f"{r.total_queries:>8d} "
            f"{r.answered:>7d} {r.rejected:>6d} {r.queries_per_second:>9.1f} "
            f"{100.0 * r.answer_cache_hit_rate:>5.1f}% {r.fresh_releases:>6d} "
            f"{r.total_epsilon_spent:>8.3f} "
            f"{r.latency_p50_ms:>7.2f} {r.latency_p95_ms:>7.2f}")
    return "\n".join(lines)


__all__ = [
    "ARRIVALS",
    "MODES",
    "OverloadResult",
    "ThroughputResult",
    "bfs_style_queries",
    "build_disjoint_workload",
    "build_mixed_workload",
    "disjoint_view_attribute_sets",
    "format_throughput",
    "latency_percentile",
    "register_disjoint_views",
    "run_overload",
    "run_remote_throughput",
    "run_sequential_replay",
    "run_throughput",
]
