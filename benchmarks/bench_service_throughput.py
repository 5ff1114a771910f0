"""Service throughput: batched planning and sharded-vs-global execution.

Replays mixed multi-analyst workloads (RRQs, GROUP BY histograms,
BFS-style dyadic ranges) across N threads in both submission modes, and —
with ``--compare-global`` — replays the *disjoint-view* workload through
the sharded service against the PR 1 global-lock baseline.  Expected
shape: batched planning answers at least as many queries at a higher rate
with a non-zero cache hit rate and no more budget; sharded execution
spends *identical* budget to the global baseline while its throughput
wins by whatever the hardware allows (only lock-convoy savings on a
single-CPU host; real parallelism across per-view sections on
multi-core — target >= 1.5x there).

Runs under pytest-benchmark like the other benchmarks, and directly as a
script (the CI smoke test)::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py --tiny
    PYTHONPATH=src python benchmarks/bench_service_throughput.py \
        --compare-global --json BENCH_service_throughput.json

``--backend mp [--workers N]`` runs the replay on the forked-worker
backend; ``--compare-threaded`` additionally replays the same workload
on the threaded backend and asserts bit-identical accounting (answers,
epsilon per analyst, fresh releases) plus the single-CPU throughput
floor, recording the comparison under ``summary.mp``.

``--json`` writes a machine-readable artifact (per-run rows plus a
summary with q/s, hit rate, epsilon spent, fresh releases, shard count,
and the sharded/global speedup when measured) so the repo's bench
trajectory is tracked over time.
"""

from __future__ import annotations

import argparse

from repro.service.sharding import DEFAULT_NUM_SHARDS
from repro.experiments.service_throughput import (
    AUDIT_OVERHEAD_FLOOR,
    DURABILITY_OFF_FLOOR,
    FASTPATH_SPEEDUP_TARGET,
    SPEEDUP_TARGET,
    TRACE_OVERHEAD_FLOOR,
    check_audit_overhead,
    check_durability_matches_baseline,
    check_fastpath_speedup,
    check_overload,
    check_remote_matches_inproc,
    check_trace_overhead,
    durability_tax,
    fastpath_comparable,
    fastpath_speedup,
    format_durability_comparison,
    format_fastpath_comparison,
    format_overload,
    format_profile,
    format_remote_comparison,
    format_service_throughput,
    format_sharding_comparison,
    format_audit_overhead,
    format_trace_overhead,
    run_audit_overhead,
    run_durability_comparison,
    run_fastpath_comparison,
    run_overload_experiment,
    run_profile,
    run_remote_comparison,
    run_service_throughput,
    run_sharding_comparison,
    run_trace_overhead,
    sharding_speedup,
    write_json_artifact,
)

#: Reduced-but-representative scale for the pytest-benchmark run.  The
#: strict q/s comparison takes best-of-``repeats`` per mode to ride out
#: scheduler noise (the deterministic work-based assertions carry the
#: correctness claim either way).
BENCH_KWARGS = dict(dataset="adult", num_rows=12000, num_analysts=8,
                    queries_per_analyst=100, threads=8, batch_size=32,
                    epsilon=12.0, repeats=3, seed=0)

#: Smoke-test scale: a couple of seconds end to end.
TINY_KWARGS = dict(dataset="adult", num_rows=2000, num_analysts=4,
                   queries_per_analyst=25, threads=4, batch_size=16,
                   epsilon=8.0, repeats=1, seed=0)

#: Disjoint-view comparison scale (sharded vs global lock, 8 threads).
COMPARE_KWARGS = dict(dataset="adult", num_rows=12000, num_analysts=8,
                      queries_per_analyst=60, threads=8,
                      epsilon=64.0, repeats=3, seed=0)

#: Over-the-wire comparison scale (in-process vs remote, + open loop).
REMOTE_KWARGS = dict(dataset="adult", num_rows=12000, num_analysts=4,
                     queries_per_analyst=60, connections=4,
                     epsilon=64.0, seed=0, open_loop_rate=200.0)

#: Durability-tax comparison scale (none vs off/batch/always fsync); the
#: disjoint-view workload keeps the cross-axis accounting equality exact.
DURABILITY_KWARGS = dict(dataset="adult", num_rows=12000, num_analysts=8,
                         queries_per_analyst=60, threads=8, epsilon=64.0,
                         repeats=2, seed=0)

#: Overload scenario scale: open-loop arrivals at ~6x the admitted
#: capacity against a rate-limited, micro-batching daemon.
OVERLOAD_KWARGS = dict(dataset="adult", num_rows=12000, num_analysts=4,
                       queries_per_analyst=60, connections=4,
                       epsilon=64.0, seed=0,
                       rate_limit=40.0, rate_burst=8.0,
                       offered_multiple=6.0)


def check_durability_tax(results, floor: float = DURABILITY_OFF_FLOOR,
                         strict_qps: bool = True) -> None:
    """The durability claim: the ledger taxes wall clock only.

    Accounting (epsilon, fresh releases, zero failures) must be
    identical on every axis — that part is deterministic and always
    asserted.  The q/s floor gates only ``fsync=off`` (page-cache
    writes, no syscall-per-charge): it must keep >= ``floor`` of the
    non-durable baseline.  ``batch`` and ``always`` are measured and
    reported, not gated — their cost is the explicit price of their
    crash guarantee and varies with the storage stack.
    """
    check_durability_matches_baseline(results)
    if strict_qps:
        tax = durability_tax(results)
        assert "off" in tax, "comparison must include the fsync=off axis"
        assert tax["off"] >= floor, \
            f"fsync=off kept only {tax['off']:.2f}x of the non-durable " \
            f"baseline q/s (floor {floor:.2f}x)"

def check_batched_beats_single(results, strict_qps: bool = True) -> None:
    """The batched-planning claim, asserted on a finished run.

    The work-based assertions (more answers, fewer fresh releases, less
    budget, non-zero cache hits) are deterministic and carry the claim:
    batched planning does strictly less privacy work for strictly more
    answers.  The raw q/s comparison changed character with sharding —
    under the old global lock, batching also amortised per-query lock
    handoffs, which is where most of its wall-clock edge came from; with
    that lock gone, single submission no longer pays the handoff, so on a
    single-CPU host the two modes sit at wall-clock parity (multi-core
    hosts dispatch per-view groups in parallel and pull ahead again).
    ``strict_qps`` therefore gates parity-with-noise, not a win — the
    ``--tiny`` CI smoke run reports q/s but doesn't gate at all.
    """
    single = [r for r in results if r.mode == "single"]
    batched = [r for r in results if r.mode == "batched"]
    if strict_qps:
        best_single = max(r.queries_per_second for r in single)
        best_batched = max(r.queries_per_second for r in batched)
        assert best_batched >= 0.9 * best_single, \
            f"batched {best_batched:.1f} q/s regressed below 0.9x " \
            f"single {best_single:.1f} q/s"
    for r in batched:
        assert r.answer_cache_hit_rate > 0.0
        assert r.answered >= max(s.answered for s in single)
        # One refresh per view serves the batch: never more fresh work
        # than arrival order...
        assert r.fresh_releases <= min(s.fresh_releases for s in single)
        # ...and strictest-first ordering never spends more budget.
        assert r.total_epsilon_spent <= \
            max(s.total_epsilon_spent for s in single) + 1e-9


def check_sharded_beats_global(results, require_speedup: float = 0.95,
                               strict_qps: bool = True) -> None:
    """The sharding claim: identical accounting, and a measured speedup.

    Budget equality is exact: on the disjoint-view workload each
    analyst's stream evolves its own view's state in submission order, so
    the charges are independent of thread interleaving and of the
    execution mode.  The q/s comparison is *measured and reported* (per
    the sharding issue) with ``require_speedup`` as a gate — by default
    an anti-regression floor, because a single-CPU host can only express
    the removed lock-convoy overhead (~1.0-1.2x observed), not the
    parallelism the refactor buys on multi-core hardware.
    """
    sharded = [r for r in results if r.execution == "sharded"]
    global_ = [r for r in results if r.execution == "global"]
    assert sharded and global_, "comparison needs both execution modes"
    eps = {round(r.total_epsilon_spent, 9) for r in sharded + global_}
    assert len(eps) == 1, \
        f"epsilon spent must be identical across modes, got {sorted(eps)}"
    fresh = {r.fresh_releases for r in sharded + global_}
    assert len(fresh) == 1, \
        f"fresh releases must be identical across modes, got {sorted(fresh)}"
    for r in sharded + global_:
        assert r.failed == 0, f"{r.execution} run had {r.failed} failures"
    if strict_qps:
        speedup = sharding_speedup(results)
        assert speedup is not None and speedup > require_speedup, \
            (f"sharded/global speedup {speedup:.2f}x <= required "
             f"{require_speedup:.2f}x")


def test_service_throughput(benchmark):
    from benchmarks.conftest import emit

    results = benchmark.pedantic(
        run_service_throughput, kwargs=BENCH_KWARGS, rounds=1, iterations=1,
    )
    emit(format_service_throughput(results))
    check_batched_beats_single(results)


def test_sharding_comparison(benchmark):
    from benchmarks.conftest import emit

    kwargs = dict(COMPARE_KWARGS, queries_per_analyst=40, repeats=2)
    results = benchmark.pedantic(
        run_sharding_comparison, kwargs=kwargs, rounds=1, iterations=1,
    )
    emit(format_sharding_comparison(results, target=SPEEDUP_TARGET))
    check_sharded_beats_global(results, strict_qps=False)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the repro.service layer.")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale (CI)")
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--shards", type=int, default=None,
                        help="shard count for the sharded service")
    parser.add_argument("--workload", choices=("mixed", "disjoint"),
                        default="mixed",
                        help="query mix: paper-style or per-analyst "
                             "disjoint wide views")
    parser.add_argument("--execution", choices=("sharded", "global"),
                        default="sharded",
                        help="service execution mode for the main run")
    parser.add_argument("--backend", choices=("threaded", "mp"),
                        default="threaded",
                        help="execution backend for the main run: shard "
                             "threads or forked worker processes with "
                             "shared-memory synopses")
    parser.add_argument("--workers", type=int, default=None,
                        help="mp worker process count "
                             "(default: min(4, usable CPUs))")
    parser.add_argument("--compare-threaded", action="store_true",
                        help="replay the identical workload through the "
                             "threaded and mp backends and assert "
                             "bit-identical accounting (answers, "
                             "per-analyst epsilon, fresh releases) plus "
                             "the mp q/s floor (floor skipped at --tiny)")
    parser.add_argument("--compare-global", action="store_true",
                        help="also run the disjoint-view sharded-vs-global "
                             "comparison and assert identical accounting")
    parser.add_argument("--remote", action="store_true",
                        help="also replay the disjoint workload over the "
                             "HTTP wire (in-process daemon on an ephemeral "
                             "port) and assert identical accounting; "
                             "reports over-the-wire q/s + p50/p95 latency")
    parser.add_argument("--overload", action="store_true",
                        help="also run the overload scenario: open-loop "
                             "arrivals far above the per-analyst rate "
                             "limit against a micro-batching daemon, "
                             "asserting bounded p95, cheap 429s, and "
                             "exact accounting replay vs in-process")
    parser.add_argument("--trace-overhead", action="store_true",
                        help="also replay the workload with request "
                             "tracing enabled vs disabled (interleaved "
                             "pairs, median paired ratio) and assert "
                             "bit-identical answers plus the >= %.2fx "
                             "q/s floor (floor skipped at --tiny)"
                             % TRACE_OVERHEAD_FLOOR)
    parser.add_argument("--audit-overhead", action="store_true",
                        help="also replay the workload with the budget-"
                             "audit tailer enabled vs disabled "
                             "(interleaved cold pairs) and assert "
                             "bit-identical answers, zero fast-lane "
                             "audit events, plus the >= %.2fx fresh-path "
                             "q/s floor (floor skipped at --tiny)"
                             % AUDIT_OVERHEAD_FLOOR)
    parser.add_argument("--durability", action="store_true",
                        help="also measure the write-ahead ledger's "
                             "fsync-policy q/s tax (none vs "
                             "off/batch/always), asserting identical "
                             "accounting and the fsync=off >= 0.9x floor")
    parser.add_argument("--profile", action="store_true",
                        help="also cProfile one inline (single-thread) "
                             "replay and print/emit the top-20 hotspot "
                             "tables, by cumulative and by own-body "
                             "(tottime) cost (a 'profile' block in the "
                             "--json artifact) so perf work stays "
                             "profile-driven")
    parser.add_argument("--no-fast-lane", action="store_true",
                        help="disable the memoized-answer fast lane for "
                             "the main run (measures the slow path; "
                             "accounting is identical either way)")
    parser.add_argument("--require-fastpath-speedup", type=float,
                        default=None, metavar="FACTOR",
                        help="assert best q/s >= FACTOR x the pre-overhaul "
                             "committed baseline per mode (the hot-path "
                             "overhaul's %.1fx acceptance bar; only "
                             "meaningful at default scale on hardware "
                             "comparable to the reference container)"
                             % FASTPATH_SPEEDUP_TARGET)
    parser.add_argument("--require-speedup", type=float, default=0.95,
                        help="minimum sharded/global q/s ratio to accept; "
                             "the default is an anti-regression floor for "
                             "single-CPU hosts (the speedup itself is "
                             "measured and reported, not asserted) — pass "
                             "%.1f on multi-core hosts" % SPEEDUP_TARGET)
    parser.add_argument("--json", nargs="?", const="BENCH_service_throughput.json",
                        default=None, metavar="PATH",
                        help="write the machine-readable artifact "
                             "(default name when no PATH given)")
    args = parser.parse_args(argv)

    kwargs = dict(TINY_KWARGS if args.tiny else BENCH_KWARGS)
    kwargs["workload"] = args.workload
    kwargs["execution"] = args.execution
    if args.threads is not None:
        kwargs["threads"] = args.threads
    if args.repeats is not None:
        kwargs["repeats"] = args.repeats
    if args.shards is not None:
        kwargs["shards"] = args.shards
    if args.workload == "disjoint":
        # Wide views need more budget headroom than the mixed defaults.
        kwargs.setdefault("epsilon", COMPARE_KWARGS["epsilon"])
        kwargs["epsilon"] = max(kwargs["epsilon"],
                                COMPARE_KWARGS["epsilon"])
        kwargs["accuracy"] = 2e5
    kwargs["fast_lane"] = not args.no_fast_lane
    kwargs["backend"] = args.backend
    kwargs["workers"] = args.workers
    results = run_service_throughput(**kwargs)
    print(format_service_throughput(results))
    check_batched_beats_single(results, strict_qps=not args.tiny)
    print("ok: batched planning answers more with less budget "
          "(q/s within tolerance)")

    # The fast-path block is only comparable at the configuration the
    # baseline was measured under (one shared predicate with the CLI).
    fast_path_comparable = fastpath_comparable(
        dataset=kwargs["dataset"], rows=kwargs["num_rows"],
        analysts=kwargs["num_analysts"],
        queries=kwargs["queries_per_analyst"], threads=kwargs["threads"],
        shards=kwargs.get("shards", DEFAULT_NUM_SHARDS),
        batch_size=kwargs["batch_size"],
        epsilon=kwargs["epsilon"], seed=kwargs["seed"],
        workload=kwargs["workload"], execution=kwargs["execution"],
        fast_lane=kwargs["fast_lane"], backend=kwargs["backend"])
    if fast_path_comparable:
        speedup = fastpath_speedup(results)
        print("fast path vs pre-overhaul baseline: "
              + ", ".join(f"{mode} {ratio:.2f}x"
                          for mode, ratio in sorted(speedup.items()))
              + f" (target {FASTPATH_SPEEDUP_TARGET:.1f}x)")
    fastpath_same_window = None
    if args.require_fastpath_speedup is not None:
        if not fast_path_comparable:
            parser.error(
                "--require-fastpath-speedup needs a run comparable to the "
                "committed baseline: default (non --tiny) scale, mixed "
                "workload, sharded execution with default threads/shards, "
                "fast lane enabled")
        # Second estimator for the gate: re-measure the pre-overhaul
        # configuration in this window, interleaved with the overhauled
        # one, so a slow container day cannot masquerade as a hot-path
        # regression (and vice versa).
        fastpath_same_window = run_fastpath_comparison(
            dataset=kwargs["dataset"], num_rows=kwargs["num_rows"],
            num_analysts=kwargs["num_analysts"],
            queries_per_analyst=kwargs["queries_per_analyst"],
            threads=kwargs["threads"], batch_size=kwargs["batch_size"],
            epsilon=kwargs["epsilon"], seed=kwargs["seed"],
            shards=kwargs.get("shards", DEFAULT_NUM_SHARDS),
            repeats=kwargs.get("repeats", 3))
        print(format_fastpath_comparison(fastpath_same_window))
        check_fastpath_speedup(results,
                               factor=args.require_fastpath_speedup,
                               same_window=fastpath_same_window["ratio"])
        print(f"ok: hot path holds >= "
              f"{args.require_fastpath_speedup:.2f}x over the "
              f"pre-overhaul baseline (best estimator per mode)")

    profile = None
    if args.profile:
        profile_kwargs = dict(
            dataset=kwargs.get("dataset", "adult"),
            num_rows=kwargs.get("num_rows", 12000),
            num_analysts=kwargs.get("num_analysts", 8),
            queries_per_analyst=kwargs.get("queries_per_analyst", 100),
            batch_size=kwargs.get("batch_size", 32),
            epsilon=kwargs.get("epsilon", 12.0),
            workload=kwargs.get("workload", "mixed"),
            seed=kwargs.get("seed", 0),
            shards=kwargs.get("shards", DEFAULT_NUM_SHARDS),
            execution=kwargs["execution"],
            fast_lane=kwargs["fast_lane"],
        )
        if kwargs.get("accuracy") is not None:
            profile_kwargs["accuracy"] = kwargs["accuracy"]
        profile = run_profile(**profile_kwargs)
        print()
        print(format_profile(profile))

    mp_comparison = None
    if args.compare_threaded:
        from repro.experiments.service_throughput import (
            check_mp_matches_threaded,
            format_mp_comparison,
            run_mp_comparison,
        )

        mp_kwargs = dict(dataset=kwargs["dataset"],
                         num_rows=kwargs["num_rows"],
                         num_analysts=kwargs["num_analysts"],
                         queries_per_analyst=min(
                             kwargs["queries_per_analyst"], 60),
                         batch_size=kwargs["batch_size"],
                         epsilon=kwargs["epsilon"], seed=kwargs["seed"],
                         workers=args.workers,
                         workload=kwargs["workload"])
        if args.shards is not None:
            mp_kwargs["shards"] = args.shards
        if args.tiny:
            mp_kwargs.update(num_rows=2000, num_analysts=4,
                             queries_per_analyst=20, batch_size=16)
        mp_comparison = run_mp_comparison(**mp_kwargs)
        print()
        print(format_mp_comparison(*mp_comparison))
        # The q/s floor only means something at a scale where per-query
        # work dominates the process boundary; --tiny asserts the
        # bit-identical accounting and skips the floor.
        check_mp_matches_threaded(*mp_comparison, strict_qps=not args.tiny)
        print("ok: the mp backend replays the threaded backend's "
              "accounting bit for bit"
              + ("" if args.tiny else "; q/s above the single-CPU floor"))

    comparison = None
    if args.compare_global:
        compare_kwargs = dict(COMPARE_KWARGS)
        if args.threads is not None:
            compare_kwargs["threads"] = args.threads
        if args.repeats is not None:
            compare_kwargs["repeats"] = args.repeats
        if args.shards is not None:
            compare_kwargs["shards"] = args.shards
        if args.tiny:
            compare_kwargs.update(num_rows=2000, num_analysts=4,
                                  queries_per_analyst=20, threads=4,
                                  repeats=1)
        comparison = run_sharding_comparison(**compare_kwargs)
        print()
        print(format_sharding_comparison(comparison, target=SPEEDUP_TARGET))
        check_sharded_beats_global(comparison,
                                   require_speedup=args.require_speedup,
                                   strict_qps=not args.tiny)
        print("ok: sharded execution matches the global lock's accounting "
              "exactly; speedup measured above")

    remote = None
    if args.remote:
        remote_kwargs = dict(REMOTE_KWARGS)
        if args.shards is not None:
            remote_kwargs["shards"] = args.shards
        if args.tiny:
            remote_kwargs.update(num_rows=2000, num_analysts=2,
                                 queries_per_analyst=20, connections=2,
                                 open_loop_rate=100.0)
        remote = run_remote_comparison(**remote_kwargs)
        print()
        print(format_remote_comparison(remote))
        check_remote_matches_inproc(remote)
        print("ok: the wire changed nothing but latency — identical "
              "epsilon and fresh releases across transports")

    overload = None
    if args.overload:
        overload_kwargs = dict(OVERLOAD_KWARGS)
        if args.shards is not None:
            overload_kwargs["shards"] = args.shards
        if args.tiny:
            overload_kwargs.update(num_rows=2000, num_analysts=2,
                                   queries_per_analyst=30, connections=2,
                                   rate_limit=25.0, rate_burst=5.0)
        overload = run_overload_experiment(**overload_kwargs)
        print()
        print(format_overload(*overload))
        check_overload(*overload)
        print("ok: overload stays bounded — 429s are cheap and the "
              "admitted accounting replays exactly in process")

    trace_overhead = None
    if args.trace_overhead:
        overhead_kwargs = dict(seed=kwargs["seed"])
        if args.shards is not None:
            overhead_kwargs["shards"] = args.shards
        if args.tiny:
            # Quick functional pass: the deterministic assertions hold at
            # any scale; only the q/s ratio needs the calibrated length.
            overhead_kwargs.update(num_rows=2000, num_analysts=4,
                                   queries_per_analyst=40, repeats=2)
        trace_overhead = run_trace_overhead(**overhead_kwargs)
        print()
        print(format_trace_overhead(trace_overhead))
        if args.tiny:
            assert trace_overhead["answers_bitwise_identical"], \
                "tracing changed the replayed answers (it must only " \
                "observe)"
            assert trace_overhead["traces_started"] > 0
            print("ok: tracing observed without steering — bit-identical "
                  "answers (q/s floor skipped at --tiny)")
        else:
            check_trace_overhead(trace_overhead)
            print(f"ok: tracing keeps >= {TRACE_OVERHEAD_FLOOR:.2f}x of "
                  f"the untraced q/s with bit-identical answers")

    audit_overhead = None
    if args.audit_overhead:
        audit_kwargs = dict(seed=kwargs["seed"])
        if args.shards is not None:
            audit_kwargs["shards"] = args.shards
        if args.tiny:
            # Functional pass: the structural claims (bit-identical
            # answers, zero fast-lane events) hold at any scale; only
            # the q/s ratio needs the calibrated length.
            audit_kwargs.update(num_rows=2000, num_analysts=4,
                                queries_per_analyst=40, repeats=2)
        audit_overhead = run_audit_overhead(**audit_kwargs)
        print()
        print(format_audit_overhead(audit_overhead))
        if args.tiny:
            assert audit_overhead["answers_bitwise_identical"], \
                "the audit tailer changed the replayed answers (it " \
                "must only observe committed charges)"
            assert audit_overhead["charges_recorded"] > 0
            assert audit_overhead["fast_lane_audit_events"] == 0, \
                "memoized answers must never reach the audit tailer"
            print("ok: the audit trail observed without steering — "
                  "bit-identical answers, zero fast-lane events "
                  "(q/s floor skipped at --tiny)")
        else:
            check_audit_overhead(audit_overhead)
            print(f"ok: auditing keeps >= {AUDIT_OVERHEAD_FLOOR:.2f}x "
                  f"of the audit-off fresh-path q/s with bit-identical "
                  f"answers and zero fast-lane events")

    durability = None
    if args.durability:
        durability_kwargs = dict(DURABILITY_KWARGS)
        if args.threads is not None:
            durability_kwargs["threads"] = args.threads
        if args.repeats is not None:
            durability_kwargs["repeats"] = args.repeats
        if args.shards is not None:
            durability_kwargs["shards"] = args.shards
        if args.tiny:
            durability_kwargs.update(num_rows=2000, num_analysts=4,
                                     queries_per_analyst=20, threads=4,
                                     repeats=1)
        durability = run_durability_comparison(**durability_kwargs)
        print()
        print(format_durability_comparison(durability))
        check_durability_tax(durability, strict_qps=not args.tiny)
        print("ok: the ledger taxes wall clock only — identical "
              "accounting on every fsync axis"
              + ("" if args.tiny else ", fsync=off above the floor"))

    if args.json:
        write_json_artifact(args.json, results, comparison, remote,
                            durability, profile=profile,
                            fast_path=fast_path_comparable,
                            overload=overload, mp=mp_comparison,
                            trace_overhead=trace_overhead,
                            audit_overhead=audit_overhead,
                            fastpath_same_window=fastpath_same_window)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
