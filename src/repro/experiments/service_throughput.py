"""Service-layer throughput: batched planning, sharded vs global execution.

Not a figure from the paper — this benchmarks the serving front-end added
on top of the engine (:mod:`repro.service`).  Two comparisons live here:

* :func:`run_service_throughput` — the PR 1 experiment: one mixed
  multi-analyst workload (RRQs, GROUP BY histograms, BFS-style dyadic
  ranges) replayed across N threads in ``single`` vs ``batched``
  submission; batched planning answers at least as many queries with a
  higher cache hit rate and less budget.
* :func:`run_sharding_comparison` — the sharding experiment: a
  *disjoint-view* workload (each analyst hammers its own wide marginal
  view) replayed once through the PR 1 global-lock service
  (``execution="global"``) and once through the sharded service; total
  epsilon spent must be identical (the accounting is order-independent
  when views are disjoint) while the sharded run's throughput wins by
  whatever the hardware allows — on a single-CPU host only the removed
  lock-convoy overhead, on multi-core hosts real parallel execution of
  the per-view sections.
* :func:`run_mp_comparison` — the execution-backend experiment
  (``bench-service --compare-threaded``): the identical workload replayed
  through the threaded backend and the multiprocessing shard backend
  (``backend="mp"``) under per-view noise streams; answers must be
  bitwise identical and accounting must replay exactly, while the mp
  run's q/s must hold :data:`MP_FLOOR` on single-CPU hosts (the
  multi-core speedup is asserted by a cpu_count-conditional test).
* :func:`run_remote_comparison` — the serving experiment
  (``bench-service --remote``): the disjoint-view workload replayed once
  in process and once over the wire (an in-process
  :class:`repro.server.ReproServer` on an ephemeral port, driven by
  :class:`repro.client.RemoteAnalyst` connections), plus an optional
  open-loop Poisson run; accounting must be identical across transports
  while the wire run additionally reports p50/p95 latency — the
  over-the-wire numbers recorded next to the in-process ones in
  ``BENCH_service_throughput.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import tempfile

from repro.core.analyst import Analyst
from repro.datasets import load_adult, load_tpch
from repro.dp.rng import SeedLike
from repro.exceptions import ReproError
from repro.persistence import DurabilityManager
from repro.server.daemon import ReproServer
from repro.service.loadgen import (
    MODES,
    OverloadResult,
    ThroughputResult,
    build_disjoint_workload,
    build_mixed_workload,
    disjoint_view_attribute_sets,
    format_throughput,
    register_disjoint_views,
    run_overload,
    run_remote_throughput,
    run_sequential_replay,
    run_throughput,
)
from repro.service.service import QueryService
from repro.service.sharding import DEFAULT_NUM_SHARDS

#: Privilege ladder the analysts cycle through (paper's 1..10 scale).
_PRIVILEGES = (1, 2, 4, 6, 8, 10)

#: Supported workload shapes for the service benchmarks.
WORKLOADS = ("mixed", "disjoint")

#: Speedup the sharded service targets over the global-lock baseline on
#: multi-core hosts (reported everywhere; asserted only as "no slower"
#: by default, since a single-CPU runner cannot express parallelism).
SPEEDUP_TARGET = 1.5

#: Durability axes the ``--durability`` comparison measures: no ledger at
#: all, then each fsync policy of the write-ahead budget ledger.
DURABILITY_AXES = ("none", "off", "batch", "always")

#: Minimum batched q/s the ``fsync=off`` ledger must retain relative to
#: the non-durable baseline (the acceptance floor CI gates on).
DURABILITY_OFF_FLOOR = 0.9

#: Mixed-workload q/s the serving layer reached at bench scale *before*
#: the hot-path overhaul (compiled-statement cache + memoized-answer
#: fast lane + vectorized transforms), measured on the 1-CPU reference
#: container — the committed PR 4 ``BENCH_service_throughput.json``
#: trajectory.  The overhaul's acceptance bar is >= 1.3x over these.
FASTPATH_BASELINE_QPS = {"single": 4228.0, "batched": 4242.5}

#: Speedup over :data:`FASTPATH_BASELINE_QPS` the overhaul must keep.
FASTPATH_SPEEDUP_TARGET = 1.3

#: Bar for the gate's *same-window* estimator
#: (:func:`run_fastpath_comparison`).  The measured baseline switches
#: off three of the overhaul's legs — statement cache capacity 0
#: (every probe misses, like the cacheless pre-overhaul code), fast
#: lane off, and ``thread_compiled`` off so every submit layer
#: re-probes per query exactly as the pre-overhaul dispatch did —
#: while vectorized transforms have no toggle, so the same-window
#: ratio excludes the vectorization share of the committed trajectory.
#: The dispatch-overhead PR both widened the gap and made the baseline
#: faithful: one threaded resolution per query on the overhauled axis
#: vs cacheless per-layer recompilation on the baseline axis measures
#: >= 1.3x across container windows where cache+lane alone used to
#: measure ~1.2-1.5x.  A structural hot-path
#: regression drags this toward 1.0x together with the committed
#: estimator.
FASTPATH_SAME_WINDOW_TARGET = 1.3

#: Minimum mp-backend q/s relative to the threaded backend on the same
#: workload (the ``--compare-threaded`` floor).  On a single-CPU host
#: the mp backend pays pipe + shared-memory bookkeeping with no cores
#: to win back, so this gate bounds the IPC overhead rather than
#: asserting a speedup; the multi-core speedup is asserted by the
#: cpu_count-conditional scaling test.
#:
#: Minimum q/s the tracing-enabled service must retain relative to the
#: same workload replayed with ``Tracer(enabled=False)`` (the
#: ``--trace-overhead`` gate).  A disabled tracer degrades every span
#: to one ContextVar read and an enabled one to a few dict writes per
#: query, so the true overhead is percent-level; 0.95 is the tripwire
#: for someone accidentally putting allocation or locking on the
#: untraced hot path.
TRACE_OVERHEAD_FLOOR = 0.95

#: ``--audit-overhead`` q/s floor: the audit tailer may cost at most 5%
#: on the fresh (charging) path.  The fast lane is gated structurally —
#: zero audit charge events on a warm replay — not by a stopwatch.
AUDIT_OVERHEAD_FLOOR = 0.95

#: The value is the *measured* single-CPU floor, not an aspiration.
#: On the 1-core reference container the boundary cost — request
#: forwarding, brokered charges, the end-of-batch fold of synopses,
#: counters, and audit log — is ~30us per query against ~180us of
#: useful per-query work at the default replay scale, giving a
#: measured steady-state ratio of 0.72-0.86x (run-to-run noise on the
#: container reaches +-15%).  The boundary components are irreducible
#: without giving up an acceptance property: planning already happens
#: exactly once system-wide (the single-worker raw-forward path),
#: charges must broker through the parent (one accounting domain),
#: and answers, synopses, and the audit log must fold back for
#: bit-identical accounting.  0.55 is the regression tripwire below
#: the observed band — hitting it means structural overhead was
#: added, not that the container was slow that day.
MP_FLOOR = 0.55

#: The exact configuration :data:`FASTPATH_BASELINE_QPS` was measured
#: under.  :func:`fastpath_comparable` is the single source of truth for
#: "may this run be compared/gated against the baseline" — the bench
#: script and the CLI both call it rather than re-implementing the
#: check, so the two can never drift.
FASTPATH_BASELINE_CONFIG = dict(dataset="adult", rows=12000, analysts=8,
                                min_queries=100, threads=8,
                                shards=DEFAULT_NUM_SHARDS, batch_size=32,
                                epsilon=12.0, seed=0,
                                workload="mixed", execution="sharded")


def fastpath_comparable(*, dataset: str, rows: int | None, analysts: int,
                        queries: int, threads: int, shards: int,
                        workload: str, execution: str, fast_lane: bool,
                        batch_size: int = 32, epsilon: float = 12.0,
                        seed=0, backend: str = "threaded") -> bool:
    """Whether a run's configuration matches the fast-path baseline's.

    ``queries`` only needs to reach the baseline's floor (longer runs
    measure the same steady state); everything else — including the
    budget, batch size, and workload seed, which shape the query mix
    and the rejection pattern — must match exactly.  Repeat counts are
    irrelevant: they only affect best-of sampling.
    """
    cfg = FASTPATH_BASELINE_CONFIG
    return (fast_lane
            and backend == "threaded"
            and dataset == cfg["dataset"]
            and rows == cfg["rows"]
            and analysts == cfg["analysts"]
            and queries >= cfg["min_queries"]
            and threads == cfg["threads"]
            and shards == cfg["shards"]
            and batch_size == cfg["batch_size"]
            and epsilon == cfg["epsilon"]
            and seed == cfg["seed"]
            and workload == cfg["workload"]
            and execution == cfg["execution"])


def make_service_analysts(num_analysts: int) -> list[Analyst]:
    """``num_analysts`` analysts over the default privilege ladder."""
    return [Analyst(f"analyst_{i:02d}", _PRIVILEGES[i % len(_PRIVILEGES)])
            for i in range(num_analysts)]


def _load_bundle(dataset: str, num_rows: int | None, seed: SeedLike):
    loader = load_adult if dataset == "adult" else load_tpch
    kwargs = ({"num_rows": num_rows} if dataset == "adult"
              else {"lineitem_rows": num_rows})
    if num_rows is None:
        kwargs = {}
    return loader(seed=seed, **kwargs)


def _build_workload(bundle, analysts, queries_per_analyst, accuracy,
                    workload, view_width, seed):
    if workload == "mixed":
        return None, build_mixed_workload(bundle, analysts,
                                          queries_per_analyst,
                                          accuracy=accuracy, seed=seed)
    if workload == "disjoint":
        attribute_sets = disjoint_view_attribute_sets(
            bundle, len(analysts), width=view_width)
        return attribute_sets, build_disjoint_workload(
            bundle, analysts, queries_per_analyst, attribute_sets,
            accuracy=accuracy, seed=seed)
    raise ReproError(f"unknown workload {workload!r}; "
                     f"choose from {WORKLOADS}")


def _build_service(bundle, analysts, epsilon, mechanism,
                   max_cached_synopses, execution, shards, seed,
                   attribute_sets, backend="threaded",
                   workers=None, **build_kwargs) -> QueryService:
    service = QueryService.build(
        bundle, analysts, epsilon, mechanism=mechanism,
        max_cached_synopses=max_cached_synopses,
        execution=execution, shards=shards, seed=seed,
        backend=backend, workers=workers, **build_kwargs,
    )
    if attribute_sets:
        register_disjoint_views(service.engine, attribute_sets)
    return service


def run_service_throughput(dataset: str = "adult",
                           num_rows: int | None = 12000,
                           num_analysts: int = 8,
                           queries_per_analyst: int = 150,
                           threads: int = 8,
                           batch_size: int = 32,
                           epsilon: float = 12.0,
                           accuracy: float = 40000.0,
                           mechanism: str = "additive",
                           max_cached_synopses: int = 256,
                           repeats: int = 1,
                           seed: SeedLike = 0,
                           execution: str = "sharded",
                           shards: int = DEFAULT_NUM_SHARDS,
                           workload: str = "mixed",
                           view_width: int = 2,
                           fast_lane: bool = True,
                           backend: str = "threaded",
                           workers: int | None = None
                           ) -> list[ThroughputResult]:
    """One run per (mode, repeat); fresh service per run, same workload."""
    bundle = _load_bundle(dataset, num_rows, seed)
    analysts = make_service_analysts(num_analysts)
    attribute_sets, streams = _build_workload(
        bundle, analysts, queries_per_analyst, accuracy, workload,
        view_width, seed)
    results: list[ThroughputResult] = []
    for mode in MODES:
        for _ in range(max(1, repeats)):
            # The mp backend requires per-view noise streams (its
            # determinism contract); the threaded default is untouched.
            extra = ({"noise_streams": "per_view"} if backend == "mp"
                     else {})
            service = _build_service(bundle, analysts, epsilon, mechanism,
                                     max_cached_synopses, execution, shards,
                                     seed, attribute_sets,
                                     backend=backend, workers=workers,
                                     **extra)
            service.engine.fast_lane = fast_lane
            try:
                results.append(run_throughput(service, analysts, streams,
                                              mode=mode, threads=threads,
                                              batch_size=batch_size))
            finally:
                service.close()
    return results


def run_profile(dataset: str = "adult",
                num_rows: int | None = 12000,
                num_analysts: int = 8,
                queries_per_analyst: int = 100,
                batch_size: int = 32,
                epsilon: float = 12.0,
                accuracy: float = 40000.0,
                mechanism: str = "additive",
                max_cached_synopses: int = 256,
                seed: SeedLike = 0,
                shards: int = DEFAULT_NUM_SHARDS,
                execution: str = "sharded",
                workload: str = "mixed",
                view_width: int = 2,
                fast_lane: bool = True,
                top: int = 20) -> dict:
    """cProfile one inline serving replay; returns the hotspot table.

    The replay runs on the *calling* thread (``cProfile`` observes only
    its own thread — a threaded run would profile nothing but lock
    waits), replaying every analyst's stream once query-by-query and
    once batched through the planner, on one warm service.  The hotspot
    ranking is therefore the serving path's real per-query work, minus
    scheduler noise — the table future perf PRs should be driven by.

    Returns a JSON-native dict: run metadata plus the ``top`` functions
    by cumulative time (``ncalls``/``tottime``/``cumtime`` per row), the
    block ``bench-service --profile`` embeds under ``summary.profile``
    in ``BENCH_service_throughput.json``.
    """
    import cProfile
    import pstats
    import time

    bundle = _load_bundle(dataset, num_rows, seed)
    analysts = make_service_analysts(num_analysts)
    attribute_sets, streams = _build_workload(
        bundle, analysts, queries_per_analyst, accuracy, workload,
        view_width, seed)
    service = _build_service(bundle, analysts, epsilon, mechanism,
                             max_cached_synopses, execution, shards,
                             seed, attribute_sets)
    # Profile the same configuration the main run measures — hunting
    # slow-path hotspots with the fast lane secretly on (or on a
    # different execution mode) would misdirect the very perf work this
    # table exists to support.
    service.engine.fast_lane = fast_lane
    try:
        sessions = {a.name: service.open_session(a.name) for a in analysts}
        profiler = cProfile.Profile()
        started = time.perf_counter()
        profiler.enable()
        for analyst in analysts:
            session = sessions[analyst.name]
            for request in streams[analyst.name]:
                service.submit(session, request.sql,
                               accuracy=request.accuracy,
                               epsilon=request.epsilon)
        for analyst in analysts:
            session = sessions[analyst.name]
            stream = streams[analyst.name]
            for start in range(0, len(stream), batch_size):
                service.submit_batch(session, stream[start:start + batch_size])
        profiler.disable()
        seconds = time.perf_counter() - started
    finally:
        service.close()

    stats = pstats.Stats(profiler)
    rows = []
    for (filename, lineno, name), (cc, nc, tt, ct, _callers) in \
            stats.stats.items():  # type: ignore[attr-defined]
        rows.append({
            "function": f"{filename}:{lineno}({name})",
            "ncalls": int(nc),
            "primitive_calls": int(cc),
            "tottime": float(tt),
            "cumtime": float(ct),
        })
    by_cumtime = sorted(rows, key=lambda r: r["cumtime"], reverse=True)
    # Two rankings, two questions: cumtime finds the expensive *call
    # trees* (where to restructure), tottime finds the functions whose
    # own bodies burn the time (where to optimise in place) — the
    # dispatch-overhead work was driven off the tottime table, where
    # per-query parse/compile/probe overhead shows up directly instead
    # of being attributed to whichever caller happened to sit above it.
    by_tottime = sorted(rows, key=lambda r: r["tottime"], reverse=True)
    queries = 2 * sum(len(s) for s in streams.values())
    return {
        "mode": "inline single+batched (1 thread, profiled, fast lane "
                + ("on)" if fast_lane else "off)"),
        "queries": int(queries),
        "seconds": float(seconds),
        "queries_per_second": float(queries / seconds) if seconds else 0.0,
        "top_n": int(top),
        "top": by_cumtime[:top],
        "top_by_tottime": by_tottime[:top],
    }


def format_profile(profile: dict) -> str:
    """Text tables for :func:`run_profile`: top-N by cumulative time,
    then (when recorded) top-N by own-body time."""
    header = (f"{'ncalls':>10s} {'tottime':>9s} {'cumtime':>9s}  function")
    lines = [
        f"== profile: {profile['mode']} ==",
        f"{profile['queries']} queries in {profile['seconds']:.2f}s "
        f"({profile['queries_per_second']:.0f} q/s under the profiler)",
        header,
        "-" * 72,
    ]
    for row in profile["top"]:
        lines.append(f"{row['ncalls']:>10d} {row['tottime']:>9.4f} "
                     f"{row['cumtime']:>9.4f}  {row['function']}")
    by_tottime = profile.get("top_by_tottime")
    if by_tottime:
        lines.append("-- by tottime (own body, excl. callees) --")
        for row in by_tottime:
            lines.append(f"{row['ncalls']:>10d} {row['tottime']:>9.4f} "
                         f"{row['cumtime']:>9.4f}  {row['function']}")
    return "\n".join(lines)


def fastpath_speedup(results: list[ThroughputResult],
                     baseline: dict | None = None) -> dict[str, float]:
    """Best q/s per mode over the pre-overhaul committed baseline."""
    baseline = baseline if baseline is not None else FASTPATH_BASELINE_QPS
    speedup: dict[str, float] = {}
    for mode, base in baseline.items():
        qps = [r.queries_per_second for r in results
               if r.mode == mode and r.transport == "inproc"]
        if qps and base > 0:
            speedup[mode] = max(qps) / base
    return speedup


def check_fastpath_speedup(results: list[ThroughputResult],
                           factor: float = FASTPATH_SPEEDUP_TARGET,
                           same_window: dict | None = None) -> None:
    """Assert the hot-path overhaul's q/s bar: >= ``factor`` x the
    pre-overhaul baseline, on both submission modes.

    Two understating estimators per mode, each against its own bar
    (the ``--trace-overhead`` gate's max-of-estimators design): the
    ratio against the *committed absolute* baseline (bar ``factor``) —
    which understates whenever the container runs slower than the
    reference window it was recorded in — and the *same-window
    measured* ratio from :func:`run_fastpath_comparison` (bar scaled
    by :data:`FASTPATH_SAME_WINDOW_TARGET`) — which understates
    because the measured baseline keeps the overhaul's untoggleable
    vectorized transforms.  Container noise depresses one estimator or
    the other; a genuine structural regression depresses both.
    """
    speedup = fastpath_speedup(results)
    assert set(speedup) == set(FASTPATH_BASELINE_QPS), \
        f"fast-path gate needs both modes, got {sorted(speedup)}"
    same_window = same_window or {}
    # The same-window bar scales with a caller-overridden factor so
    # `--require-fastpath-speedup 1.5` tightens both estimators.
    window_bar = factor * FASTPATH_SAME_WINDOW_TARGET \
        / FASTPATH_SPEEDUP_TARGET
    for mode, committed in speedup.items():
        measured = same_window.get(mode) or 0.0
        if committed >= factor or measured >= window_bar:
            continue
        detail = (f" and only {measured:.2f}x the same-window measured "
                  f"baseline (bar {window_bar:.2f}x)" if measured else "")
        raise AssertionError(
            f"{mode} q/s is only {committed:.2f}x the committed "
            f"pre-overhaul baseline ({FASTPATH_BASELINE_QPS[mode]:.0f} "
            f"q/s, requires >= {factor:.1f}x){detail}; the hot-path "
            f"overhaul must clear one estimator")


def run_fastpath_comparison(dataset: str = "adult",
                            num_rows: int | None = 12000,
                            num_analysts: int = 8,
                            queries_per_analyst: int = 100,
                            threads: int = 8,
                            batch_size: int = 32,
                            epsilon: float = 12.0,
                            accuracy: float = 40000.0,
                            seed: SeedLike = 0,
                            shards: int = DEFAULT_NUM_SHARDS,
                            repeats: int = 3) -> dict:
    """Same-window fast-path ratio: the overhaul's toggles on vs off.

    The committed :data:`FASTPATH_BASELINE_QPS` constants only mean
    something at the reference container's speed; on a noisy host an
    absolute gate cannot tell "the code got slower" from "the machine
    got slower today" (the ``MP_FLOOR`` comment's standard: a tripped
    gate must mean structural overhead, not a slow container day).
    This re-measures the pre-overhaul *configuration* — statement
    cache disabled outright (capacity 0: every probe misses, exactly
    the cacheless PR 4 code), the memoized-answer fast lane off, and
    the one-resolution-per-query dispatch off (``thread_compiled``:
    the serving layers forget each resolution so every submit layer
    re-probes, as the pre-overhaul dispatch did) — interleaved
    run-for-run with the overhauled configuration in the same process,
    and reports best-of ratios per mode.  Vectorized transforms, the
    overhaul's third leg, have no toggle, so the measured baseline
    runs slightly faster than true pre-overhaul code and the ratio
    *understates* the overhaul — conservative for a floor gate.
    """
    bundle = _load_bundle(dataset, num_rows, seed)
    analysts = make_service_analysts(num_analysts)
    attribute_sets, streams = _build_workload(
        bundle, analysts, queries_per_analyst, accuracy, "mixed", 2, seed)
    best: dict[str, dict[str, float]] = {"baseline": {}, "fastpath": {}}

    def one(mode: str, axis: str) -> None:
        extra = ({} if axis == "fastpath"
                 else {"statement_cache_size": 0})
        service = _build_service(bundle, analysts, epsilon, "additive",
                                 256, "sharded", shards, seed,
                                 attribute_sets, **extra)
        if axis == "baseline":
            service.engine.fast_lane = False
            service.engine.thread_compiled = False
        try:
            result = run_throughput(service, analysts, streams, mode=mode,
                                    threads=threads,
                                    batch_size=batch_size)
        finally:
            service.close()
        bucket = best[axis]
        bucket[mode] = max(bucket.get(mode, 0.0),
                           result.queries_per_second)

    for mode in MODES:
        for _ in range(max(1, repeats)):
            one(mode, "baseline")
            one(mode, "fastpath")
    ratio = {mode: (best["fastpath"][mode] / best["baseline"][mode]
                    if best["baseline"].get(mode) else None)
             for mode in MODES}
    return {"baseline_qps": best["baseline"],
            "fastpath_qps": best["fastpath"],
            "ratio": ratio}


def format_fastpath_comparison(comparison: dict) -> str:
    """One line per mode: measured baseline vs fast path, same window."""
    parts = []
    for mode, ratio in sorted(comparison["ratio"].items()):
        base = comparison["baseline_qps"].get(mode, 0.0)
        fast = comparison["fastpath_qps"].get(mode, 0.0)
        shown = f"{ratio:.2f}x" if ratio else "n/a"
        parts.append(f"{mode} {fast:.0f} vs {base:.0f} q/s = {shown}")
    return "fast path same-window (cache+lane+dispatch off vs on): " \
        + ", ".join(parts)


def run_mp_comparison(dataset: str = "adult",
                      num_rows: int | None = 12000,
                      num_analysts: int = 8,
                      queries_per_analyst: int = 60,
                      batch_size: int = 32,
                      epsilon: float = 12.0,
                      accuracy: float = 40000.0,
                      seed: int = 0,
                      shards: int = DEFAULT_NUM_SHARDS,
                      workers: int | None = None,
                      workload: str = "mixed",
                      view_width: int = 2
                      ) -> tuple[list[ThroughputResult], dict]:
    """The ``--compare-threaded`` replay: mp vs threaded, bit for bit.

    The identical workload is replayed batched on one caller thread
    (parallelism lives inside each ``submit_batch``) through a fresh
    threaded service and a fresh mp service, both built with
    ``noise_streams="per_view"``, the same integer seed, and an
    unbounded synopsis store — the configuration under which a view's
    noise draws are a function of its own release order alone, so the
    two backends must produce bitwise-identical answers, identical
    per-analyst epsilon, identical fresh-release work, and provenance
    totals equal to float arrival-order noise (1e-9).

    Returns the two :class:`ThroughputResult` rows and the replay-check
    dict :func:`check_mp_matches_threaded` gates on.
    """
    seed = int(seed)  # per-view noise streams key off an integer seed
    bundle = _load_bundle(dataset, num_rows, seed)
    analysts = make_service_analysts(num_analysts)
    attribute_sets, streams = _build_workload(
        bundle, analysts, queries_per_analyst, accuracy, workload,
        view_width, seed)
    results: list[ThroughputResult] = []
    traces: dict[str, list] = {}
    eps_by_analyst: dict[str, dict] = {}
    table_total: dict[str, float] = {}
    backend_info: dict[str, dict] = {}
    for backend in ("threaded", "mp"):
        service = _build_service(
            bundle, analysts, epsilon, "additive",
            None,  # unbounded store: LRU eviction order diverges per-shard
            "sharded", shards, seed, attribute_sets,
            backend=backend,
            workers=(workers if backend == "mp" else None),
            noise_streams="per_view")
        try:
            # Pre-fork outside the timed window, as `repro serve` does —
            # the comparison measures steady-state serving, not worker
            # pool construction.  The ping round-trips every worker's
            # event loop once so page fault-in of the forked state
            # doesn't land in the first timed batch.
            service.start_backend()
            if service.mp_backend is not None:
                service.mp_backend.ping()
            result, trace = run_sequential_replay(
                service, analysts, streams, batch_size=batch_size)
            results.append(result)
            traces[backend] = trace
            snapshot = service.snapshot()
            eps_by_analyst[backend] = \
                service.stats.as_dict()["epsilon_by_analyst"]
            table_total[backend] = snapshot["provenance"]["table_total"]
            backend_info[backend] = snapshot["backend"]
        finally:
            service.close()
    provenance_delta = abs(table_total["threaded"] - table_total["mp"])
    replay = {
        "answers_bitwise_identical": traces["threaded"] == traces["mp"],
        "epsilon_by_analyst_identical":
            eps_by_analyst["threaded"] == eps_by_analyst["mp"],
        "fresh_releases": {r.backend: r.fresh_releases for r in results},
        "provenance_table_total_delta": provenance_delta,
        "workers": backend_info["mp"].get("workers"),
        "mp_backend": backend_info["mp"],
    }
    replay["match"] = (replay["answers_bitwise_identical"]
                       and replay["epsilon_by_analyst_identical"]
                       and len(set(replay["fresh_releases"].values())) == 1
                       and provenance_delta <= 1e-9)
    return results, replay


def run_trace_overhead(dataset: str = "adult",
                       num_rows: int | None = 12000,
                       num_analysts: int = 8,
                       queries_per_analyst: int = 240,
                       batch_size: int = 32,
                       epsilon: float = 12.0,
                       accuracy: float = 40000.0,
                       seed: int = 0,
                       shards: int = DEFAULT_NUM_SHARDS,
                       workload: str = "mixed",
                       view_width: int = 2,
                       repeats: int = 10) -> dict:
    """The ``--trace-overhead`` axis: tracing on vs off, same workload.

    Two identically-seeded services are built — one with the default
    enabled :class:`~repro.metrics.tracing.Tracer`, one with a disabled
    tracer (every ``span()`` degrades to a single ContextVar read).
    The first replay through each must produce **bitwise identical**
    response traces, pinning the design rule that tracing observes the
    request path and never steers it.

    The gated ratio is then measured on the *warm* services: after a
    discarded warm-up slice per axis, the same workload is replayed
    ``repeats`` more times alternating off/on.  Two estimators of the
    same quantity are computed — the **median of adjacent-slice on/off
    ratios** and the **ratio of per-axis best slices** — and the gate
    takes their max.  On a shared single-CPU container, cgroup-quota
    throttling stalls a run in ~100ms bursts that dwarf the effect
    under measurement; the noise is strictly one-sided (a burst only
    ever slows a slice down), so each estimator can only *understate*
    the true ratio, and taking the max simply rejects whichever one a
    burst happened to depress.  Alternating adjacent slices keeps the
    paired estimator from confounding the axis with drift.  Warm
    replays serve from the memoized hot path — exactly the per-answer
    path the floor is meant to protect; the engine's fresh-release
    cost is three orders of magnitude above a span and needs no gate.
    """
    from repro.metrics.tracing import Tracer

    seed = int(seed)
    bundle = _load_bundle(dataset, num_rows, seed)
    analysts = make_service_analysts(num_analysts)
    attribute_sets, streams = _build_workload(
        bundle, analysts, queries_per_analyst, accuracy, workload,
        view_width, seed)

    def build(axis: str) -> QueryService:
        # Per-view streams: a batch's view groups fan out on the shard
        # pool, so one shared RNG would hand out draws in thread order.
        return _build_service(
            bundle, analysts, epsilon, "additive", 256, "sharded",
            shards, seed, attribute_sets, noise_streams="per_view",
            tracer=Tracer(enabled=(axis == "on")))

    services = {"off": build("off"), "on": build("on")}
    try:
        def replay(axis: str) -> tuple[float, list]:
            result, trace = run_sequential_replay(
                services[axis], analysts, streams, batch_size=batch_size)
            return result.queries_per_second, trace

        answer_traces = {}
        for axis in ("off", "on"):
            _, answer_traces[axis] = replay(axis)   # cold: fresh releases
            replay(axis)                            # warm-up slice
        qps = {"off": 0.0, "on": 0.0}
        slice_ratios: list[float] = []
        for _ in range(max(1, repeats)):
            pair: dict[str, float] = {}
            for axis in ("off", "on"):
                pair[axis], _ = replay(axis)
                qps[axis] = max(qps[axis], pair[axis])
            if pair["off"] > 0:
                slice_ratios.append(pair["on"] / pair["off"])
        traces_started = services["on"].tracer.counters()["started"]
    finally:
        for service in services.values():
            service.close()
    median_paired = statistics.median(slice_ratios) if slice_ratios else None
    best_of = qps["on"] / qps["off"] if qps["off"] > 0 else None
    candidates = [r for r in (median_paired, best_of) if r is not None]
    return {
        "queries_per_second": qps,
        "ratio": max(candidates) if candidates else None,
        "median_paired_ratio": median_paired,
        "best_of_ratio": best_of,
        "slice_ratios": slice_ratios,
        "floor": TRACE_OVERHEAD_FLOOR,
        "answers_bitwise_identical":
            answer_traces["on"] == answer_traces["off"],
        "traces_started": traces_started,
    }


def check_trace_overhead(overhead: dict,
                         floor: float = TRACE_OVERHEAD_FLOOR) -> None:
    """Assert the tracing acceptance bar: bit-identical answers with
    tracing on or off, and q/s no worse than ``floor`` times untraced."""
    assert overhead["answers_bitwise_identical"], \
        "tracing changed the replayed answers (it must only observe)"
    assert overhead["traces_started"] > 0, \
        "the tracing-enabled run recorded no traces"
    ratio = overhead["ratio"]
    assert ratio is not None and ratio >= floor, \
        (f"tracing-enabled run reached only {ratio:.3f}x of the "
         f"tracing-off q/s (floor {floor:.2f}x)")


def format_trace_overhead(overhead: dict) -> str:
    """The ``--trace-overhead`` report block."""
    qps = overhead["queries_per_second"]
    ratio = overhead["ratio"]
    return (f"tracing overhead: on={qps['on']:.0f} q/s "
            f"off={qps['off']:.0f} q/s "
            f"ratio={ratio:.3f}x (floor {overhead['floor']:.2f}x; "
            f"median-paired {overhead['median_paired_ratio']:.3f}, "
            f"best-of {overhead['best_of_ratio']:.3f}); "
            f"answers {'bitwise identical' if overhead['answers_bitwise_identical'] else 'DIVERGED'}; "
            f"{overhead['traces_started']} traces recorded")


def run_audit_overhead(dataset: str = "adult",
                       num_rows: int | None = 12000,
                       num_analysts: int = 8,
                       queries_per_analyst: int = 240,
                       batch_size: int = 32,
                       epsilon: float = 12.0,
                       accuracy: float = 40000.0,
                       seed: int = 0,
                       shards: int = DEFAULT_NUM_SHARDS,
                       workload: str = "mixed",
                       view_width: int = 2,
                       repeats: int = 5) -> dict:
    """The ``--audit-overhead`` axis: audit tailer on vs off.

    The tailer only runs where a charge commits, so the cost under test
    lives on the *fresh* path — every timed slice is a cold replay
    through a freshly built, identically seeded service, alternating
    off/on so the paired estimator doesn't confound the axis with
    host drift.  Answers must be bitwise identical across the axes:
    the tailer observes committed charges, it never steers them.  The
    same two one-sided estimators as the tracing gate are used (median
    of adjacent-slice ratios, ratio of per-axis best slices; cgroup
    throttling bursts only ever *depress* a slice, so max() of the two
    rejects whichever a burst hit).

    The fast lane is gated structurally rather than by a stopwatch: a
    warm replay of the same workload serves every answer from the
    memoized hot path, never charges, and therefore must leave the
    audit trail's charge-event count untouched — the tailer's warm-path
    cost is exactly the work it is never asked to do.
    """
    seed = int(seed)
    bundle = _load_bundle(dataset, num_rows, seed)
    analysts = make_service_analysts(num_analysts)
    attribute_sets, streams = _build_workload(
        bundle, analysts, queries_per_analyst, accuracy, workload,
        view_width, seed)

    def build(axis: str) -> QueryService:
        # Per-view streams: a batch's view groups fan out on the shard
        # pool, so one shared RNG would hand out draws in thread order.
        return _build_service(
            bundle, analysts, epsilon, "additive", 256, "sharded",
            shards, seed, attribute_sets, noise_streams="per_view",
            audit=(axis == "on"))

    qps = {"off": 0.0, "on": 0.0}
    warm_qps = {"off": 0.0, "on": 0.0}
    slice_ratios: list[float] = []
    answer_traces: dict[str, list] = {}
    charges_recorded = 0
    fast_lane_events: int | None = None
    for slice_no in range(max(1, repeats)):
        pair: dict[str, float] = {}
        for axis in ("off", "on"):
            service = build(axis)
            try:
                result, trace = run_sequential_replay(
                    service, analysts, streams, batch_size=batch_size)
                pair[axis] = result.queries_per_second
                qps[axis] = max(qps[axis], pair[axis])
                if slice_no == 0:
                    answer_traces[axis] = trace
                    before = (service.audit.describe()["charges"]
                              if service.audit is not None else 0)
                    warm, _ = run_sequential_replay(
                        service, analysts, streams,
                        batch_size=batch_size)
                    warm_qps[axis] = warm.queries_per_second
                    after = (service.audit.describe()["charges"]
                             if service.audit is not None else 0)
                    if axis == "on":
                        fast_lane_events = after - before
                if axis == "on" and service.audit is not None:
                    charges_recorded = max(
                        charges_recorded,
                        service.audit.describe()["charges"])
            finally:
                service.close()
        if pair["off"] > 0:
            slice_ratios.append(pair["on"] / pair["off"])
    median_paired = statistics.median(slice_ratios) if slice_ratios \
        else None
    best_of = qps["on"] / qps["off"] if qps["off"] > 0 else None
    candidates = [r for r in (median_paired, best_of) if r is not None]
    return {
        "queries_per_second": qps,
        "warm_queries_per_second": warm_qps,
        "ratio": max(candidates) if candidates else None,
        "median_paired_ratio": median_paired,
        "best_of_ratio": best_of,
        "slice_ratios": slice_ratios,
        "floor": AUDIT_OVERHEAD_FLOOR,
        "answers_bitwise_identical":
            answer_traces["on"] == answer_traces["off"],
        "charges_recorded": charges_recorded,
        "fast_lane_audit_events": fast_lane_events,
    }


def check_audit_overhead(overhead: dict,
                         floor: float = AUDIT_OVERHEAD_FLOOR) -> None:
    """Assert the audit acceptance bar: bit-identical answers with the
    tailer on or off, zero tailer events on the fast lane, and fresh-path
    q/s no worse than ``floor`` times the audit-off replay."""
    assert overhead["answers_bitwise_identical"], \
        "the audit tailer changed the replayed answers (it must only " \
        "observe committed charges)"
    assert overhead["charges_recorded"] > 0, \
        "the audit-enabled run recorded no charge events"
    assert overhead["fast_lane_audit_events"] == 0, \
        (f"a warm (fast-lane) replay added "
         f"{overhead['fast_lane_audit_events']} audit charge events; "
         f"memoized answers must never reach the tailer")
    ratio = overhead["ratio"]
    assert ratio is not None and ratio >= floor, \
        (f"audit-enabled run reached only {ratio:.3f}x of the "
         f"audit-off fresh-path q/s (floor {floor:.2f}x)")


def format_audit_overhead(overhead: dict) -> str:
    """The ``--audit-overhead`` report block."""
    qps = overhead["queries_per_second"]
    warm = overhead["warm_queries_per_second"]
    return (f"audit overhead (fresh path): on={qps['on']:.0f} q/s "
            f"off={qps['off']:.0f} q/s "
            f"ratio={overhead['ratio']:.3f}x (floor "
            f"{overhead['floor']:.2f}x; "
            f"median-paired {overhead['median_paired_ratio']:.3f}, "
            f"best-of {overhead['best_of_ratio']:.3f}); "
            f"answers {'bitwise identical' if overhead['answers_bitwise_identical'] else 'DIVERGED'}; "
            f"{overhead['charges_recorded']} charges audited; "
            f"fast lane: on={warm['on']:.0f} q/s off={warm['off']:.0f} "
            f"q/s with {overhead['fast_lane_audit_events']} audit "
            f"events (structurally zero)")


def mp_speedup(results: list[ThroughputResult]) -> float | None:
    """Best mp q/s over best threaded q/s (``None`` if either absent)."""
    mp = [r.queries_per_second for r in results if r.backend == "mp"]
    threaded = [r.queries_per_second for r in results
                if r.backend == "threaded"]
    if not mp or not threaded or max(threaded) <= 0:
        return None
    return max(mp) / max(threaded)


def check_mp_matches_threaded(results: list[ThroughputResult],
                              replay: dict, floor: float = MP_FLOOR,
                              strict_qps: bool = True) -> None:
    """Assert the mp backend's acceptance bar: bit-identical accounting
    against the threaded replay, and (``strict_qps``) q/s no worse than
    ``floor`` times the threaded backend on the same workload."""
    assert replay["answers_bitwise_identical"], \
        "mp backend answers diverged bitwise from the threaded replay"
    assert replay["epsilon_by_analyst_identical"], \
        "mp backend per-analyst epsilon diverged from the threaded replay"
    assert len(set(replay["fresh_releases"].values())) == 1, \
        f"fresh releases diverged across backends: " \
        f"{replay['fresh_releases']}"
    assert replay["provenance_table_total_delta"] <= 1e-9, \
        (f"provenance totals diverged beyond float arrival-order noise: "
         f"delta {replay['provenance_table_total_delta']}")
    for r in results:
        assert r.failed == 0, \
            f"backend={r.backend} run had {r.failed} failures"
    # Coalesced settlement: the parent still performs every charge, but
    # the charges ride the batch conversation (snapshot down, ordered
    # op replay up) instead of one pipe round-trip each — so a charging
    # replay must show strictly fewer standalone charge messages than
    # brokered charges (zero, by construction), with no replay ever
    # diverging from the authoritative ledger.
    backend_block = replay.get("mp_backend") or {}
    brokered = int(backend_block.get("brokered_charges", 0))
    messages = int(backend_block.get("charge_messages", 0))
    assert brokered > 0, \
        "mp replay brokered no charges — the comparison workload " \
        "never exercised the settlement path"
    assert messages < brokered, \
        (f"mp backend sent {messages} standalone charge messages for "
         f"{brokered} brokered charges; settlement must be coalesced "
         f"into the batch conversation (fewer than one message per "
         f"charge)")
    assert int(backend_block.get("charge_mismatches", 0)) == 0, \
        (f"{backend_block.get('charge_mismatches')} worker op replays "
         f"diverged from the authoritative ledger on a sequential "
         f"replay (must be impossible without cross-shard same-analyst "
         f"concurrency)")
    if strict_qps:
        ratio = mp_speedup(results)
        assert ratio is not None and ratio >= floor, \
            (f"mp backend reached only {ratio:.2f}x of threaded q/s "
             f"(floor {floor:.2f}x)")


def format_mp_comparison(results: list[ThroughputResult],
                         replay: dict) -> str:
    """The ``--compare-threaded`` report block."""
    report = format_throughput(
        results, title="execution backends: threaded vs multiprocessing")
    ratio = mp_speedup(results)
    if ratio is not None:
        report += (f"\nmp/threaded throughput: {ratio:.2f}x "
                   f"(floor {MP_FLOOR:.2f}x on single-CPU hosts; "
                   f"workers={replay.get('workers')})")
    verdict = "identical" if replay["match"] else "DIVERGED"
    report += (f"\naccounting vs threaded replay: {verdict} "
               f"(answers bitwise, per-analyst epsilon, fresh releases; "
               f"table-total delta "
               f"{replay['provenance_table_total_delta']:.2e})")
    return report


def run_sharding_comparison(dataset: str = "adult",
                            num_rows: int | None = 12000,
                            num_analysts: int = 8,
                            queries_per_analyst: int = 60,
                            threads: int = 8,
                            batch_size: int = 16,
                            epsilon: float = 64.0,
                            accuracy: float = 2e5,
                            mechanism: str = "additive",
                            max_cached_synopses: int = 256,
                            repeats: int = 3,
                            seed: SeedLike = 0,
                            shards: int = DEFAULT_NUM_SHARDS,
                            mode: str = "single",
                            view_width: int = 2) -> list[ThroughputResult]:
    """Sharded vs global-lock execution on the disjoint-view workload.

    Identical workload, fresh service per run, ``repeats`` runs per
    execution mode (take best-of for wall-clock claims; the accounting
    columns are deterministic).
    """
    bundle = _load_bundle(dataset, num_rows, seed)
    analysts = make_service_analysts(num_analysts)
    attribute_sets, streams = _build_workload(
        bundle, analysts, queries_per_analyst, accuracy, "disjoint",
        view_width, seed)
    results: list[ThroughputResult] = []
    for execution in ("global", "sharded"):
        for _ in range(max(1, repeats)):
            service = _build_service(bundle, analysts, epsilon, mechanism,
                                     max_cached_synopses, execution, shards,
                                     seed, attribute_sets)
            try:
                results.append(run_throughput(service, analysts, streams,
                                              mode=mode, threads=threads,
                                              batch_size=batch_size))
            finally:
                service.close()
    return results


def run_remote_comparison(dataset: str = "adult",
                          num_rows: int | None = 12000,
                          num_analysts: int = 4,
                          queries_per_analyst: int = 60,
                          connections: int = 4,
                          batch_size: int = 16,
                          epsilon: float = 64.0,
                          accuracy: float = 2e5,
                          mechanism: str = "additive",
                          max_cached_synopses: int = 256,
                          seed: SeedLike = 0,
                          execution: str = "sharded",
                          shards: int = DEFAULT_NUM_SHARDS,
                          mode: str = "batched",
                          view_width: int = 2,
                          open_loop_rate: float | None = None
                          ) -> list[ThroughputResult]:
    """In-process vs over-the-wire replay of one disjoint-view workload.

    The disjoint-view workload makes the accounting order-independent,
    so the in-process and remote runs must land on *identical* epsilon
    totals and fresh-release counts (asserted by
    :func:`check_remote_matches_inproc`) — the wire adds latency, never
    different privacy spend.  ``open_loop_rate`` adds a third run with
    Poisson arrivals at that aggregate rate (fresh service, so its
    accounting matches too); its latency percentiles include queueing
    delay, which is the realistic serving metric.
    """
    bundle = _load_bundle(dataset, num_rows, seed)
    analysts = make_service_analysts(num_analysts)
    attribute_sets, streams = _build_workload(
        bundle, analysts, queries_per_analyst, accuracy, "disjoint",
        view_width, seed)

    def fresh_service() -> QueryService:
        return _build_service(bundle, analysts, epsilon, mechanism,
                              max_cached_synopses, execution, shards,
                              seed, attribute_sets)

    results: list[ThroughputResult] = []
    service = fresh_service()
    try:
        results.append(run_throughput(service, analysts, streams,
                                      mode=mode, threads=connections,
                                      batch_size=batch_size))
    finally:
        service.close()

    arrivals: list[tuple[str, float | None]] = [("closed", None)]
    if open_loop_rate:
        arrivals.append(("open", open_loop_rate))
    for arrival, rate in arrivals:
        server = ReproServer(fresh_service(), port=0).start()
        try:
            results.append(run_remote_throughput(
                server.url, analysts, streams, mode=mode,
                connections=connections, batch_size=batch_size,
                arrival=arrival, rate_qps=rate, seed=seed))
        finally:
            server.shutdown()
    return results


#: Latency ceilings the overload scenario gates on: admitted queries'
#: p95 (measured from scheduled arrival — queueing included) must stay
#: bounded because admission control keeps the accepted rate below
#: capacity, and a 429 round trip must stay cheap (no engine work).
OVERLOAD_ADMITTED_P95_MS = 2000.0
OVERLOAD_REFUSED_P95_MS = 250.0


def run_overload_experiment(dataset: str = "adult",
                            num_rows: int | None = 12000,
                            num_analysts: int = 4,
                            queries_per_analyst: int = 60,
                            connections: int = 4,
                            epsilon: float = 64.0,
                            accuracy: float = 2e5,
                            mechanism: str = "additive",
                            max_cached_synopses: int = 256,
                            seed: SeedLike = 0,
                            execution: str = "sharded",
                            shards: int = DEFAULT_NUM_SHARDS,
                            view_width: int = 2,
                            rate_limit: float = 40.0,
                            rate_burst: float = 8.0,
                            offered_multiple: float = 6.0
                            ) -> tuple[OverloadResult, dict]:
    """The ``bench-service --overload`` scenario: open-loop arrivals at
    ``offered_multiple`` times the admitted capacity against a daemon
    running per-analyst admission control plus adaptive micro-batching.

    Returns the :class:`OverloadResult` and a replay-check dict: the
    requests that made it past admission are replayed query-by-query on
    a fresh in-process service, and the per-analyst epsilon totals must
    match the overloaded server's exactly (the disjoint-view workload
    makes the accounting order-independent, so neither the 429 storm nor
    micro-batch grouping may move the spend by one ulp).
    """
    bundle = _load_bundle(dataset, num_rows, seed)
    analysts = make_service_analysts(num_analysts)
    attribute_sets, streams = _build_workload(
        bundle, analysts, queries_per_analyst, accuracy, "disjoint",
        view_width, seed)

    def fresh_service() -> QueryService:
        return _build_service(bundle, analysts, epsilon, mechanism,
                              max_cached_synopses, execution, shards,
                              seed, attribute_sets)

    offered = offered_multiple * rate_limit * num_analysts
    server = ReproServer(fresh_service(), port=0,
                         rate_limit=rate_limit, rate_burst=rate_burst,
                         micro_batch=True).start()
    try:
        result = run_overload(server.url, analysts, streams,
                              rate_qps=offered, connections=connections,
                              seed=seed)
        observed = server.service.snapshot()["provenance"]
    finally:
        server.shutdown()

    replayed = fresh_service()
    try:
        for analyst, requests in result.admitted_workload.items():
            session = replayed.open_session(analyst)
            for request in requests:
                replayed.submit(session, request.sql,
                                accuracy=request.accuracy,
                                epsilon=request.epsilon)
            replayed.close_session(session)
        expected = replayed.snapshot()["provenance"]
    finally:
        replayed.close()

    replay = {
        "admitted": result.admitted,
        "server_epsilon_by_analyst": observed["epsilon_by_analyst"],
        "replay_epsilon_by_analyst": expected["epsilon_by_analyst"],
        "match": observed == expected,
    }
    return result, replay


def check_overload(result: OverloadResult, replay: dict,
                   admitted_p95_ms: float = OVERLOAD_ADMITTED_P95_MS,
                   refused_p95_ms: float = OVERLOAD_REFUSED_P95_MS) -> None:
    """Assert the overload acceptance bar: pressure actually hit the
    limiter, admitted latency stayed bounded, refusals were cheap, and
    the admitted work's accounting replays exactly in process."""
    assert result.rate_limited > 0, \
        "overload run never tripped admission control — raise the " \
        "offered rate or lower rate_limit"
    assert result.admitted > 0, \
        "overload run admitted nothing — the limiter is misconfigured"
    assert result.service.failed == 0, \
        f"overload run had {result.service.failed} hard failures"
    assert result.admitted_p95_ms <= admitted_p95_ms, \
        (f"admitted p95 {result.admitted_p95_ms:.1f}ms exceeds the "
         f"{admitted_p95_ms:.0f}ms overload bound — admission control "
         f"is not protecting the serving path")
    assert result.refused_p95_ms <= refused_p95_ms, \
        (f"429 p95 {result.refused_p95_ms:.1f}ms exceeds the "
         f"{refused_p95_ms:.0f}ms bound — refusals must not do engine "
         f"work")
    assert replay["match"], \
        (f"admitted accounting diverged from the in-process replay: "
         f"server {replay['server_epsilon_by_analyst']} vs replay "
         f"{replay['replay_epsilon_by_analyst']}")


def format_overload(result: OverloadResult, replay: dict) -> str:
    """The ``--overload`` report block."""
    lines = [
        "== overload: open-loop arrivals vs admission control ==",
        (f"offered {result.offered_qps:.0f} q/s for {result.seconds:.2f}s: "
         f"{result.attempted} attempts, {result.admitted} admitted, "
         f"{result.rate_limited} rate-limited "
         f"({100.0 * result.refusal_rate:.1f}%)"),
        (f"admitted latency: p50 {result.admitted_p50_ms:.2f}ms / "
         f"p95 {result.admitted_p95_ms:.2f}ms (queueing included)"),
        (f"429 round trip:  p50 {result.refused_p50_ms:.2f}ms / "
         f"p95 {result.refused_p95_ms:.2f}ms"),
        (f"admitted accounting vs in-process replay: "
         f"{'identical' if replay['match'] else 'DIVERGED'} "
         f"(epsilon {result.service.total_epsilon_spent:.3f})"),
    ]
    return "\n".join(lines)


def run_durability_comparison(dataset: str = "adult",
                              num_rows: int | None = 12000,
                              num_analysts: int = 8,
                              queries_per_analyst: int = 60,
                              threads: int = 8,
                              batch_size: int = 16,
                              epsilon: float = 64.0,
                              accuracy: float = 2e5,
                              mechanism: str = "additive",
                              max_cached_synopses: int = 256,
                              repeats: int = 2,
                              seed: SeedLike = 0,
                              execution: str = "sharded",
                              shards: int = DEFAULT_NUM_SHARDS,
                              mode: str = "batched",
                              axes: tuple[str, ...] = DURABILITY_AXES
                              ) -> list[ThroughputResult]:
    """The fsync-policy q/s tax: one workload replayed per axis.

    ``"none"`` runs without a ledger (the baseline); each fsync policy
    runs the identical workload with a fresh durable service journaling
    into a throwaway data directory.  Durability must never change
    *decisions* — accounting columns are asserted identical across axes
    by :func:`check_durability_matches_baseline` — so the only
    difference the table shows is wall clock: the price of making every
    charge durable before its answer is acknowledged.  The disjoint-view
    workload makes the accounting order-independent (as in the sharding
    and remote comparisons), so that equality is exact, not
    interleaving-lucky.
    """
    bundle = _load_bundle(dataset, num_rows, seed)
    analysts = make_service_analysts(num_analysts)
    attribute_sets, streams = _build_workload(
        bundle, analysts, queries_per_analyst, accuracy, "disjoint",
        2, seed)
    scratch = tempfile.mkdtemp(prefix="repro-durability-")
    results: list[ThroughputResult] = []
    try:
        for axis in axes:
            if axis not in DURABILITY_AXES:
                raise ReproError(f"unknown durability axis {axis!r}; "
                                 f"choose from {DURABILITY_AXES}")
            for run in range(max(1, repeats)):
                durability = None
                if axis != "none":
                    # mkdtemp, not a fixed name: a reused directory
                    # would be *recovered* into the "fresh" service,
                    # pre-spending budget and tripping the cross-axis
                    # accounting equality.
                    run_dir = tempfile.mkdtemp(prefix=f"{axis}-{run}-",
                                               dir=scratch)
                    durability = DurabilityManager(run_dir, fsync=axis)
                service = QueryService.build(
                    bundle, analysts, epsilon, mechanism=mechanism,
                    max_cached_synopses=max_cached_synopses,
                    execution=execution, shards=shards, seed=seed,
                    durability=durability)
                if attribute_sets:
                    register_disjoint_views(service.engine, attribute_sets)
                try:
                    results.append(run_throughput(
                        service, analysts, streams, mode=mode,
                        threads=threads, batch_size=batch_size))
                finally:
                    service.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return results


def best_qps_by_axis(results: list[ThroughputResult]) -> dict[str, float]:
    """Best q/s observed per durability axis."""
    best: dict[str, float] = {}
    for result in results:
        best[result.durability] = max(best.get(result.durability, 0.0),
                                      result.queries_per_second)
    return best


def durability_tax(results: list[ThroughputResult]) -> dict[str, float]:
    """Best q/s per durability axis as a fraction of the ``none`` axis."""
    best = best_qps_by_axis(results)
    baseline = best.get("none", 0.0)
    if baseline <= 0:
        return {}
    return {axis: qps / baseline for axis, qps in best.items()}


def check_durability_matches_baseline(
        results: list[ThroughputResult]) -> None:
    """Durability must tax wall clock only: identical epsilon, fresh
    releases, and zero failures on every axis of one comparison."""
    eps = {round(r.total_epsilon_spent, 9) for r in results}
    assert len(eps) == 1, \
        f"epsilon spent must be identical across durability axes, " \
        f"got {sorted(eps)}"
    fresh = {r.fresh_releases for r in results}
    assert len(fresh) == 1, \
        f"fresh releases must be identical across durability axes, " \
        f"got {sorted(fresh)}"
    for r in results:
        assert r.failed == 0, \
            f"durability={r.durability} run had {r.failed} failures"


def format_durability_comparison(results: list[ThroughputResult]) -> str:
    """The ``--durability`` report: table plus per-axis tax lines."""
    report = format_throughput(
        results, title="durability: write-ahead ledger fsync-policy tax")
    tax = durability_tax(results)
    for axis in DURABILITY_AXES:
        if axis == "none" or axis not in tax:
            continue
        report += (f"\nfsync={axis}: {tax[axis]:.2f}x of the non-durable "
                   f"baseline q/s")
    if "off" in tax:
        verdict = "ok" if tax["off"] >= DURABILITY_OFF_FLOOR else "VIOLATED"
        report += (f"\nfloor: fsync=off must keep >= "
                   f"{DURABILITY_OFF_FLOOR:.1f}x of baseline q/s "
                   f"({verdict})")
    return report


def check_remote_matches_inproc(results: list[ThroughputResult]) -> None:
    """Assert the wire changed nothing but latency: every run (any
    transport, any arrival process) spent identical epsilon and did the
    same fresh-release work, and nothing failed."""
    assert any(r.transport == "inproc" for r in results) and \
        any(r.transport == "remote" for r in results), \
        "comparison needs both transports"
    eps = {round(r.total_epsilon_spent, 9) for r in results}
    assert len(eps) == 1, \
        f"epsilon spent must be identical across transports, " \
        f"got {sorted(eps)}"
    fresh = {r.fresh_releases for r in results}
    assert len(fresh) == 1, \
        f"fresh releases must be identical across transports, " \
        f"got {sorted(fresh)}"
    for r in results:
        assert r.failed == 0, \
            f"{r.transport}/{r.arrival} run had {r.failed} failures"


def remote_overhead(results: list[ThroughputResult]) -> float | None:
    """Closed-loop remote q/s over in-process q/s (``None`` if absent)."""
    inproc = [r.queries_per_second for r in results
              if r.transport == "inproc"]
    remote = [r.queries_per_second for r in results
              if r.transport == "remote" and r.arrival == "closed"]
    if not inproc or not remote or max(inproc) <= 0:
        return None
    return max(remote) / max(inproc)


def format_remote_comparison(results: list[ThroughputResult]) -> str:
    """The ``--remote`` report: table plus the over-the-wire verdict."""
    report = format_throughput(
        results, title="serving over the wire: in-process vs remote")
    ratio = remote_overhead(results)
    if ratio is not None:
        report += (f"\nremote/in-process throughput: {ratio:.2f}x "
                   f"(the gap is HTTP + JSON transport cost)")
    open_runs = [r for r in results if r.arrival == "open"]
    for r in open_runs:
        report += (f"\nopen-loop @ {r.offered_qps:.0f} q/s offered: "
                   f"p50 {r.latency_p50_ms:.2f}ms / "
                   f"p95 {r.latency_p95_ms:.2f}ms")
    return report


def sharding_speedup(results: list[ThroughputResult]) -> float | None:
    """Best sharded q/s over best global q/s (``None`` if either absent)."""
    sharded = [r.queries_per_second for r in results
               if r.execution == "sharded"]
    global_ = [r.queries_per_second for r in results
               if r.execution == "global"]
    if not sharded or not global_ or max(global_) <= 0:
        return None
    return max(sharded) / max(global_)


def format_service_throughput(results: list[ThroughputResult]) -> str:
    """The ``bench-service`` report, plus a batched-vs-single speedup line."""
    report = format_throughput(
        results, title="service throughput: batched planning vs single")
    by_mode: dict[str, list[ThroughputResult]] = {}
    for result in results:
        by_mode.setdefault(result.mode, []).append(result)
    if len(by_mode) == 2:
        single = max(r.queries_per_second for r in by_mode["single"])
        batched = max(r.queries_per_second for r in by_mode["batched"])
        if single > 0:
            report += (f"\nbatched/single speedup: {batched / single:.2f}x "
                       f"(best of {len(by_mode['batched'])})")
    return report


def format_sharding_comparison(results: list[ThroughputResult],
                               target: float = 1.5) -> str:
    """The ``--compare-global`` report with the speedup verdict line."""
    report = format_throughput(
        results, title="disjoint-view workload: sharded vs global lock")
    speedup = sharding_speedup(results)
    if speedup is not None:
        runs = sum(1 for r in results if r.execution == "sharded")
        report += (f"\nsharded/global speedup: {speedup:.2f}x "
                   f"(best of {runs}, target {target:.1f}x on "
                   f"multi-core hosts)")
    return report


def write_json_artifact(path: str, results: list[ThroughputResult],
                        comparison: list[ThroughputResult] | None = None,
                        remote: list[ThroughputResult] | None = None,
                        durability: list[ThroughputResult] | None = None,
                        profile: dict | None = None,
                        fast_path: bool = False,
                        overload: tuple[OverloadResult, dict] | None = None,
                        mp: tuple[list[ThroughputResult], dict] | None = None,
                        trace_overhead: dict | None = None,
                        audit_overhead: dict | None = None,
                        fastpath_same_window: dict | None = None
                        ) -> None:
    """Write ``BENCH_service_throughput.json``: per-run rows + summary.

    The summary carries the headline numbers (q/s, hit rate, epsilon
    spent, fresh releases, shard count), the sharded/global speedup when
    a comparison ran, and — when the remote comparison ran — the
    over-the-wire q/s and p50/p95 latency next to the in-process
    numbers, so the repo's bench trajectory is tracked as a
    machine-readable artifact (uploaded by CI).  ``profile`` embeds a
    :func:`run_profile` hotspot table; ``fast_path=True`` (set by the
    bench at the comparable default scale) records the speedup over the
    pre-overhaul committed baseline.
    """
    rows = [r.as_dict() for r in results]
    comparison_rows = [r.as_dict() for r in (comparison or [])]
    remote_rows = [r.as_dict() for r in (remote or [])]
    durability_rows = [r.as_dict() for r in (durability or [])]
    # mp-vs-threaded rows live in their own list, never in "runs": the
    # perf-regression gate compares only threaded inproc rows against
    # the committed trajectory.
    mp_rows = [r.as_dict() for r in (mp[0] if mp else [])]
    best = max(results, key=lambda r: r.queries_per_second) \
        if results else None
    summary = {
        "queries_per_second": (best.queries_per_second if best else None),
        "answer_cache_hit_rate": (best.answer_cache_hit_rate
                                  if best else None),
        "total_epsilon_spent": (best.total_epsilon_spent if best else None),
        "fresh_releases": (best.fresh_releases if best else None),
        "shards": (best.shards if best else None),
        "cpu_count": os.cpu_count(),
        "speedup_target": SPEEDUP_TARGET,
    }
    if fast_path:
        summary["fast_path"] = {
            "pre_overhaul_baseline_qps": dict(FASTPATH_BASELINE_QPS),
            "speedup_vs_baseline": fastpath_speedup(results),
            "target": FASTPATH_SPEEDUP_TARGET,
        }
        if fastpath_same_window:
            summary["fast_path"]["same_window"] = fastpath_same_window
    if profile:
        summary["profile"] = profile
    if comparison:
        summary["sharded_vs_global_speedup"] = sharding_speedup(comparison)
    if remote:
        closed = [r for r in remote
                  if r.transport == "remote" and r.arrival == "closed"]
        wire = max(closed, key=lambda r: r.queries_per_second) \
            if closed else None
        summary["remote"] = {
            "queries_per_second": (wire.queries_per_second
                                   if wire else None),
            "latency_p50_ms": (wire.latency_p50_ms if wire else None),
            "latency_p95_ms": (wire.latency_p95_ms if wire else None),
            "vs_inproc": remote_overhead(remote),
        }
        open_runs = [r for r in remote if r.arrival == "open"]
        if open_runs:
            tail = open_runs[-1]
            summary["remote"]["open_loop"] = {
                "offered_qps": tail.offered_qps,
                "latency_p50_ms": tail.latency_p50_ms,
                "latency_p95_ms": tail.latency_p95_ms,
            }
    if overload:
        result, replay = overload
        summary["overload"] = {
            **result.as_dict(),
            "accounting_matches_inproc_replay": replay["match"],
            "admitted_p95_bound_ms": OVERLOAD_ADMITTED_P95_MS,
            "refused_p95_bound_ms": OVERLOAD_REFUSED_P95_MS,
        }
    if mp:
        mp_results, replay = mp
        best_by_backend = {}
        for r in mp_results:
            best_by_backend[r.backend] = max(
                best_by_backend.get(r.backend, 0.0), r.queries_per_second)
        summary["mp"] = {
            "queries_per_second": best_by_backend,
            "vs_threaded": mp_speedup(mp_results),
            "floor": MP_FLOOR,
            "workers": replay.get("workers"),
            "answers_bitwise_identical":
                replay["answers_bitwise_identical"],
            "epsilon_by_analyst_identical":
                replay["epsilon_by_analyst_identical"],
            "fresh_releases": replay["fresh_releases"],
            "provenance_table_total_delta":
                replay["provenance_table_total_delta"],
            "accounting_matches_threaded_replay": replay["match"],
            "backend": replay.get("mp_backend"),
        }
    if trace_overhead:
        summary["trace_overhead"] = dict(trace_overhead)
    if audit_overhead:
        summary["audit_overhead"] = dict(audit_overhead)
    if durability:
        tax = durability_tax(durability)
        best_by_axis = best_qps_by_axis(durability)
        summary["durability"] = {
            "queries_per_second": {axis: best_by_axis[axis]
                                   for axis in DURABILITY_AXES
                                   if axis in best_by_axis},
            "vs_none": {axis: ratio for axis, ratio in tax.items()
                        if axis != "none"},
            "fsync_off_floor": DURABILITY_OFF_FLOOR,
            "fsync_off_vs_none": tax.get("off"),
        }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"runs": rows, "comparison_runs": comparison_rows,
                   "remote_runs": remote_rows,
                   "durability_runs": durability_rows,
                   "mp_runs": mp_rows,
                   "summary": summary}, handle, indent=2, sort_keys=True)
        handle.write("\n")


__all__ = [
    "AUDIT_OVERHEAD_FLOOR",
    "DURABILITY_AXES",
    "DURABILITY_OFF_FLOOR",
    "FASTPATH_BASELINE_CONFIG",
    "FASTPATH_BASELINE_QPS",
    "FASTPATH_SAME_WINDOW_TARGET",
    "FASTPATH_SPEEDUP_TARGET",
    "MP_FLOOR",
    "OVERLOAD_ADMITTED_P95_MS",
    "OVERLOAD_REFUSED_P95_MS",
    "SPEEDUP_TARGET",
    "TRACE_OVERHEAD_FLOOR",
    "WORKLOADS",
    "best_qps_by_axis",
    "check_audit_overhead",
    "check_durability_matches_baseline",
    "check_fastpath_speedup",
    "check_mp_matches_threaded",
    "check_overload",
    "check_remote_matches_inproc",
    "check_trace_overhead",
    "durability_tax",
    "fastpath_comparable",
    "fastpath_speedup",
    "format_audit_overhead",
    "format_durability_comparison",
    "format_fastpath_comparison",
    "format_mp_comparison",
    "format_overload",
    "format_profile",
    "format_remote_comparison",
    "format_service_throughput",
    "format_sharding_comparison",
    "format_trace_overhead",
    "make_service_analysts",
    "mp_speedup",
    "remote_overhead",
    "run_audit_overhead",
    "run_durability_comparison",
    "run_fastpath_comparison",
    "run_mp_comparison",
    "run_overload_experiment",
    "run_profile",
    "run_remote_comparison",
    "run_service_throughput",
    "run_sharding_comparison",
    "run_trace_overhead",
    "sharding_speedup",
    "write_json_artifact",
]


