"""The memoized-answer fast lane must be invisible to accounting.

The serving fast lane answers cached-satisfiable requests through a
versioned lock-free lookup that skips the engine's view sections and
every provenance lock.  Its contract: a fast-lane-enabled replay is
**bit-identical** to a fast-lane-disabled replay — same epsilon per
analyst, same fresh-release counts, same answers — because the lane only
ever serves what the slow path would have served free from cache.  This
suite replays identical workloads through both configurations and
asserts exact equality, for both composition modes (the additive
mechanism's column-max and the vanilla mechanism's column-sum), in both
submission modes, through evictions, and under 8-thread load with
generation races.
"""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from repro import Analyst, DProvDB, QueryService
from repro.dp.gaussian import analytic_gaussian_sigma
from repro.service.session import QueryRequest
from repro.views.linear import LinearQuery, answer_many

JOIN_TIMEOUT = 30.0

MECHANISMS = ("additive", "vanilla")


def make_workload(bundle, analysts, queries_per_analyst=30, seed=7):
    """Deterministic mixed streams (RRQ + GROUP BY + AVG) per analyst."""
    rng = np.random.default_rng(seed)
    table = bundle.fact_table
    streams = {}
    for analyst in analysts:
        stream = []
        for i in range(queries_per_analyst):
            roll = rng.random()
            accuracy = float(3e4 * 2.0 ** rng.uniform(-1.0, 1.0))
            if roll < 0.15:
                stream.append(QueryRequest(
                    f"SELECT sex, COUNT(*) FROM {table} GROUP BY sex",
                    accuracy=accuracy))
            elif roll < 0.25:
                stream.append(QueryRequest(
                    f"SELECT AVG(age) FROM {table} "
                    f"WHERE age >= {int(rng.integers(17, 60))}",
                    accuracy=accuracy * 50))
            else:
                low = int(rng.integers(17, 70))
                high = int(rng.integers(low, 80))
                stream.append(QueryRequest(
                    f"SELECT COUNT(*) FROM {table} "
                    f"WHERE age BETWEEN {low} AND {high}",
                    accuracy=accuracy))
        streams[analyst.name] = stream
    return streams


PAIR_VIEWS = (("age", "sex"), ("hours_per_week", "race"))


def make_adhoc_workload(bundle, analysts, queries_per_analyst=40, seed=13):
    """Fresh-literal two-predicate statements over :data:`PAIR_VIEWS`:
    two shapes, (almost) never the same text twice — every compile is a
    text miss the shape table serves."""
    rng = np.random.default_rng(seed)
    schema = bundle.database.table(bundle.fact_table).schema
    streams = {}
    for analyst in analysts:
        stream = []
        for _ in range(queries_per_analyst):
            ordered, categorical = PAIR_VIEWS[int(rng.integers(0, 2))]
            domain = schema.domain(ordered)
            values = schema.domain(categorical).values
            low = int(rng.integers(domain.low, domain.high))
            high = int(rng.integers(low, domain.high + 1))
            picks = rng.choice(len(values), replace=False,
                               size=int(rng.integers(1, len(values) + 1)))
            members = ", ".join(f"'{values[int(i)]}'" for i in sorted(picks))
            stream.append(QueryRequest(
                f"SELECT COUNT(*) FROM {bundle.fact_table} WHERE {ordered} "
                f"BETWEEN {low} AND {high} AND {categorical} IN ({members})",
                accuracy=float(2e5 * 2.0 ** rng.uniform(-1.0, 1.0))))
        streams[analyst.name] = stream
    return streams


def replay(bundle, analysts, streams, *, fast_lane, mechanism="additive",
           mode="single", max_cached=256, batch_size=8, epsilon=16.0,
           pair_views=(), **engine_kwargs):
    """One deterministic single-threaded replay; returns the evidence."""
    service = QueryService.build(bundle, analysts, epsilon,
                                 mechanism=mechanism,
                                 max_cached_synopses=max_cached, seed=123,
                                 **engine_kwargs)
    service.engine.fast_lane = fast_lane
    for attributes in pair_views:
        service.engine.register_view(attributes)
    try:
        values = []
        for analyst in analysts:
            session = service.open_session(analyst.name)
            stream = streams[analyst.name]
            if mode == "single":
                responses = [service.submit(session, r.sql,
                                            accuracy=r.accuracy,
                                            epsilon=r.epsilon)
                             for r in stream]
            else:
                responses = []
                for start in range(0, len(stream), batch_size):
                    responses.extend(service.submit_batch(
                        session, stream[start:start + batch_size]))
            for response in responses:
                if response.ok:
                    values.extend(a.value for a in response.answers())
                else:
                    values.append(f"error:{response.rejected}")
        snap = service.snapshot()
        return {
            "values": values,
            "epsilon_by_analyst": snap["provenance"]["epsilon_by_analyst"],
            "stats_epsilon": snap["service"]["epsilon_by_analyst"],
            "fresh": snap["service"]["fresh_releases"],
            "answer_hits": snap["service"]["answer_cache_hits"],
            "rejected": snap["service"]["rejected"],
            "failed": snap["service"]["failed"],
            "synopsis_cache": {k: snap["synopsis_cache"][k]
                               for k in ("hits", "misses", "evictions")},
            "matrix": service.engine.provenance_matrix(),
            "fast_lane": snap["fast_lane"],
            "compiled_statements": snap["compiled_statements"],
        }
    finally:
        service.close()


def assert_equivalent(on, off):
    """The acceptance bar: identical accounting AND identical answers."""
    assert on["values"] == off["values"]
    assert on["epsilon_by_analyst"] == off["epsilon_by_analyst"]
    assert on["fresh"] == off["fresh"]
    assert on["answer_hits"] == off["answer_hits"]
    assert on["rejected"] == off["rejected"]
    assert on["failed"] == off["failed"]
    # The lane must not even skew the synopsis-cache statistics.
    assert on["synopsis_cache"] == off["synopsis_cache"]
    assert np.array_equal(on["matrix"], off["matrix"])


class TestReplayEquivalence:
    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @pytest.mark.parametrize("mode", ("single", "batched"))
    def test_identical_replay(self, adult_bundle, analysts, mechanism, mode):
        streams = make_workload(adult_bundle, analysts)
        on = replay(adult_bundle, analysts, streams, fast_lane=True,
                    mechanism=mechanism, mode=mode)
        off = replay(adult_bundle, analysts, streams, fast_lane=False,
                     mechanism=mechanism, mode=mode)
        assert_equivalent(on, off)
        # The lane actually engaged (the workload repeats views heavily).
        assert on["fast_lane"]["hits"] > 0
        assert off["fast_lane"]["hits"] == 0

    @pytest.mark.parametrize("mode", ("single", "batched"))
    def test_identical_on_fresh_literal_statements(self, adult_bundle,
                                                   analysts, mode):
        """Shape-bound statements are under the same gate: a stream the
        text cache cannot help replays bit-identically with the lane on
        or off — and against a service that retains nothing, where every
        statement takes the full parser and a fresh routing probe."""
        streams = make_adhoc_workload(adult_bundle, analysts)
        on = replay(adult_bundle, analysts, streams, fast_lane=True,
                    mode=mode, pair_views=PAIR_VIEWS, epsilon=64.0)
        off = replay(adult_bundle, analysts, streams, fast_lane=False,
                     mode=mode, pair_views=PAIR_VIEWS, epsilon=64.0)
        unshaped = replay(adult_bundle, analysts, streams, fast_lane=True,
                          mode=mode, pair_views=PAIR_VIEWS, epsilon=64.0,
                          statement_cache_size=0)
        assert_equivalent(on, off)
        assert_equivalent(on, unshaped)
        total = sum(len(stream) for stream in streams.values())
        shaped = on["compiled_statements"]
        assert shaped["templates"] == len(PAIR_VIEWS)
        assert shaped["template_hits"] >= 0.9 * total
        assert shaped["hits"] <= 0.1 * total
        assert unshaped["compiled_statements"]["template_hits"] == 0
        assert on["fast_lane"]["hits"] > 0 and on["fresh"] > 0

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_identical_through_evictions(self, adult_bundle, analysts,
                                         mechanism):
        """A bound of 1 cached synopsis forces constant evictions; the
        lane preserves recency exactly, so eviction sequences — and with
        them fresh-release counts — stay identical."""
        streams = make_workload(adult_bundle, analysts,
                                queries_per_analyst=25, seed=11)
        on = replay(adult_bundle, analysts, streams, fast_lane=True,
                    mechanism=mechanism, max_cached=1, epsilon=64.0)
        off = replay(adult_bundle, analysts, streams, fast_lane=False,
                     mechanism=mechanism, max_cached=1, epsilon=64.0)
        assert on["synopsis_cache"]["evictions"] > 0
        assert_equivalent(on, off)

    def test_budget_exhaustion_equivalent(self, adult_bundle, analysts):
        """Rejections (including mid-batch) are part of the replay too."""
        streams = make_workload(adult_bundle, analysts,
                                queries_per_analyst=40, seed=3)
        on = replay(adult_bundle, analysts, streams, fast_lane=True,
                    mode="batched", epsilon=0.5)
        off = replay(adult_bundle, analysts, streams, fast_lane=False,
                     mode="batched", epsilon=0.5)
        assert on["rejected"] > 0
        assert_equivalent(on, off)


def halving_rounds(bundle):
    """One budget life-cycle, fresh to exhausted (paper Fig. 3): per round,
    one range COUNT on each of three views at a variance bound that halves
    every round (the first round is asked twice, for the free repeats) —
    the stream whose translations repeat across analysts and replays.  No
    bound is so tight that translation itself is infeasible: that refusal
    is an uncached ``ValueError`` and re-probes feasibility every time."""
    table = bundle.fact_table
    texts = (f"SELECT COUNT(*) FROM {table} WHERE age BETWEEN 25 AND 44",
             f"SELECT COUNT(*) FROM {table} WHERE hours_per_week <= 40",
             f"SELECT COUNT(*) FROM {table} WHERE education_num >= 9")
    bounds = (4e4, 4e4, 2e4, 1e4, 5e3, 2.5e3)
    return [(sql, bound) for bound in bounds for sql in texts]


def replay_life_cycle(bundle, analysts, mechanism):
    """Drive :func:`halving_rounds` round-robin over ``analysts`` through a
    freshly built, identically seeded service; returns every observable."""
    service = QueryService.build(bundle, analysts, 2.4, mechanism=mechanism,
                                 seed=123)
    try:
        sessions = [service.open_session(a.name) for a in analysts]
        outcomes = []
        for sql, accuracy in halving_rounds(bundle):
            for session in sessions:
                response = service.submit(session, sql, accuracy=accuracy)
                outcomes.append(
                    (response.answer.value, response.answer.epsilon_charged,
                     response.answer.cache_hit)
                    if response.ok else (response.error, response.rejected))
        snap = service.snapshot()
        return {
            "outcomes": outcomes,
            "row_totals": service.engine.provenance.row_totals(),
            "matrix": service.engine.provenance_matrix().tolist(),
            "service": {k: snap["service"][k]
                        for k in ("fresh_releases", "answer_cache_hits",
                                  "rejected", "failed")},
            "synopsis_cache": {k: snap["synopsis_cache"][k]
                               for k in ("hits", "misses", "evictions")},
            "fast_lane": snap["fast_lane"],
        }
    finally:
        service.close()


class TestCalibrationMemoEquivalence:
    """The calibration memo (``dp.gaussian``) must be as invisible as the
    fast lane: a replay that finds every translation memoised is
    bit-identical to the one that searched for each — and searches for
    none."""

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_cold_and_warm_replays_identical(self, adult_bundle, analysts,
                                             mechanism, gaussian_delta_calls):
        cold = replay_life_cycle(adult_bundle, analysts, mechanism)
        searched = len(gaussian_delta_calls)
        sigma_misses = analytic_gaussian_sigma.cache_info().misses
        warm = replay_life_cycle(adult_bundle, analysts, mechanism)

        assert warm == cold
        # Every search of the cold replay really ran, none in the warm one.
        assert searched > 0 and len(gaussian_delta_calls) == searched
        assert sigma_misses > 0
        assert analytic_gaussian_sigma.cache_info().misses == sigma_misses
        # The stream is a whole life-cycle: releases, free repeats, and
        # refusals of the low-privilege analyst (row) and the high one
        # (table).
        counts = cold["service"]
        assert counts["fresh_releases"] > 0 and counts["failed"] == 0
        assert counts["answer_cache_hits"] > 0
        reasons = {o[0].split()[0] for o in cold["outcomes"] if len(o) == 2}
        assert reasons == {"analyst", "table"}
        assert all(total > 0 for total in cold["row_totals"].values())


class TestGenerationCounters:
    def test_put_and_evict_bump_generation(self, adult_bundle, analysts):
        service = QueryService.build(adult_bundle, analysts, 16.0,
                                     max_cached_synopses=1, seed=0)
        try:
            engine = service.engine
            store = engine.mechanism.store
            table = adult_bundle.fact_table
            session = service.open_session("low")
            service.submit(session, f"SELECT COUNT(*) FROM {table} "
                                    f"WHERE age >= 30", accuracy=1e4)
            view_a = engine.log.entries(answered=True)[-1].view_name
            gen_a = store.local_generation("low", view_a)
            assert gen_a >= 1
            # A different view's release evicts the bounded entry.
            service.submit(session, f"SELECT COUNT(*) FROM {table} "
                                    f"WHERE hours_per_week <= 40",
                           accuracy=1e4)
            assert store.local_generation("low", view_a) == gen_a + 1
        finally:
            service.close()

    def test_clear_bumps_generation(self):
        from repro.core.synopsis import Synopsis, SynopsisStore

        store = SynopsisStore()
        store.put_local(Synopsis("v", np.ones(3), epsilon=1.0, delta=1e-9,
                                 variance=1.0, analyst="a"))
        before = store.local_generation("a", "v")
        store.clear()
        assert store.local_generation("a", "v") == before + 1

    def test_generation_race_falls_back(self, adult_bundle, analysts):
        """A generation bump between the lane's read and its re-check
        must force the slow path (returns None), never a stale serve."""
        service = QueryService.build(adult_bundle, analysts, 16.0, seed=0)
        try:
            engine = service.engine
            table = adult_bundle.fact_table
            sql = f"SELECT COUNT(*) FROM {table} WHERE age >= 30"
            session = service.open_session("low")
            service.submit(session, sql, accuracy=1e4)
            compiled = engine.compile_statement(sql)
            store = engine.mechanism.store
            real_lookup = store.local_synopsis
            key = ("low", compiled.view.name)

            def racing_lookup(analyst, view):
                synopsis = real_lookup(analyst, view)
                if (analyst, view) == key:
                    store._bump_local_generation(analyst, view)
                return synopsis

            store.local_synopsis = racing_lookup
            try:
                outcome = engine.mechanism.cached_answer_fast(
                    "low", compiled.view, compiled.query, 1e12)
            finally:
                store.local_synopsis = real_lookup
            assert outcome is None
            # Without the race the same probe succeeds.
            assert engine.mechanism.cached_answer_fast(
                "low", compiled.view, compiled.query, 1e12) is not None
        finally:
            service.close()


class TestConcurrentStress:
    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_8_threads_with_evictions(self, adult_bundle, mechanism):
        """8 threads, a tiny synopsis cache (constant evictions => constant
        generation bumps), fast lane on: no overspend, no lost updates,
        service counters consistent with the provenance ledger."""
        roster = [Analyst(f"a{i}", privilege=1 + i % 4) for i in range(8)]
        service = QueryService.build(adult_bundle, roster, 24.0,
                                     mechanism=mechanism,
                                     max_cached_synopses=2, seed=5)
        try:
            streams = make_workload(adult_bundle, roster,
                                    queries_per_analyst=25, seed=21)
            barrier = threading.Barrier(len(roster))
            errors = []

            def worker(analyst):
                try:
                    session = service.open_session(analyst.name)
                    barrier.wait()
                    for request in streams[analyst.name]:
                        service.submit(session, request.sql,
                                       accuracy=request.accuracy)
                except BaseException as exc:
                    errors.append(exc)
                    barrier.abort()

            threads = [threading.Thread(target=worker, args=(a,),
                                        daemon=True) for a in roster]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(JOIN_TIMEOUT)
                assert not thread.is_alive(), "worker deadlocked"
            assert not errors, errors

            snap = service.snapshot()
            limits = service.engine.constraints
            for analyst in roster:
                spent = service.analyst_spent(analyst.name)
                assert spent <= limits.analyst_limit(analyst.name) + 1e-9
                # Service-side compensated totals equal the ledger exactly.
                # Multi-part queries (AVG, GROUP BY) are atomic: a rejection
                # charges nothing (answer_avg releases at most once, and
                # only on success), so rejected responses can no longer
                # leave orphaned charges in the provenance table.
                recorded = snap["service"]["epsilon_by_analyst"].get(
                    analyst.name, 0.0)
                assert recorded == pytest.approx(spent, abs=1e-9)
            stats = snap["service"]
            assert stats["submitted"] == sum(len(s) for s in
                                             streams.values())
            assert stats["answered"] + stats["rejected"] \
                + stats["failed"] == stats["submitted"]
            assert stats["failed"] == 0
        finally:
            service.close()

    def test_8_threads_batched_disjoint_matches_serial(self, adult_bundle):
        """Disjoint-view batched stress: the threaded fast-lane run must
        land on exactly the serial replay's accounting (order-independent
        workload => exact equality, the sharding suite's invariant kept
        under the batch lane)."""
        from repro.service.loadgen import (
            build_disjoint_workload,
            disjoint_view_attribute_sets,
            register_disjoint_views,
        )

        roster = [Analyst(f"a{i}", privilege=2) for i in range(4)]
        attribute_sets = disjoint_view_attribute_sets(adult_bundle,
                                                      len(roster))
        streams = build_disjoint_workload(adult_bundle, roster, 24,
                                          attribute_sets, accuracy=2e5,
                                          seed=9)

        def run(threads):
            service = QueryService.build(adult_bundle, roster, 64.0,
                                         seed=31)
            register_disjoint_views(service.engine, attribute_sets)
            try:
                errors = []
                barrier = threading.Barrier(threads)

                def worker(owned):
                    try:
                        sessions = {a.name: service.open_session(a.name)
                                    for a in owned}
                        barrier.wait()
                        for analyst in owned:
                            stream = streams[analyst.name]
                            for start in range(0, len(stream), 8):
                                service.submit_batch(
                                    sessions[analyst.name],
                                    stream[start:start + 8])
                    except BaseException as exc:
                        errors.append(exc)
                        barrier.abort()

                assignments = [[] for _ in range(threads)]
                for i, analyst in enumerate(roster):
                    assignments[i % threads].append(analyst)
                pool = [threading.Thread(target=worker, args=(owned,),
                                         daemon=True)
                        for owned in assignments if owned]
                for thread in pool:
                    thread.start()
                for thread in pool:
                    thread.join(JOIN_TIMEOUT)
                    assert not thread.is_alive(), "worker deadlocked"
                assert not errors, errors
                snap = service.snapshot()
                return (snap["provenance"]["epsilon_by_analyst"],
                        snap["service"]["fresh_releases"],
                        snap["service"]["failed"])
            finally:
                service.close()

        serial = run(1)
        threaded = run(4)
        assert threaded == serial


class TestAnswerMany:
    def test_bit_identical_to_scalar_answers(self, rng):
        values = rng.normal(size=200) * 1000
        queries = [LinearQuery("v", (rng.random(200) > 0.5)
                               * rng.normal(size=200)) for _ in range(17)]
        batched = answer_many(queries, values)
        for query, got in zip(queries, batched):
            assert got == query.answer(values)  # exact, not approx

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            answer_many([LinearQuery("v", np.ones(3))], np.ones(4))


class TestCompensatedAccounting:
    def test_stats_track_provenance_after_10k_charges(self, adult_bundle,
                                                      analysts):
        """10k small charges: the service's compensated per-analyst sums
        must agree with provenance_summary to fsum precision."""
        from repro.core.engine import Answer
        from repro.persistence.schema import provenance_summary
        from repro.service.service import ServiceStats

        engine = DProvDB(adult_bundle, analysts, epsilon=1e9, seed=0)
        view = engine.registry.view_names[0]
        stats = ServiceStats()
        rng = np.random.default_rng(99)
        charges = (rng.random(10_000) * 1e-3).tolist()
        for charge in charges:
            engine.provenance.add("low", view, charge)
            stats._record_answer("low", Answer("low", 0.0, charge, view,
                                               0.0, 0.0, False))
        ledger = provenance_summary(engine)["epsilon_by_analyst"]["low"]
        compensated = stats.epsilon_by_analyst["low"]
        # The compensated sum is exact to one final rounding...
        assert compensated == pytest.approx(math.fsum(charges), abs=1e-15)
        # ...and therefore within float dust of the ledger's running sum.
        assert compensated == pytest.approx(ledger, abs=1e-9)

    def test_compensated_sum_beats_naive(self):
        from repro.metrics.runtime import CompensatedSum

        terms = [1e16, 1.0, -1e16] * 100 + [0.123] * 1000
        compensated = CompensatedSum()
        naive = 0.0
        for term in terms:
            compensated.add(term)
            naive += term
        exact = math.fsum(terms)
        assert compensated.value == pytest.approx(exact, abs=1e-9)
        assert abs(compensated.value - exact) < abs(naive - exact)
