"""Stress tests: N threads hammer one QueryService.

The invariant under attack is budget accounting: the engine's constraint
check and the provenance update it authorises are separate steps, so
without the service's critical section two threads could both pass a check
against the same remaining budget and jointly over-spend it.  After the
storm we assert every analyst's spent budget is within its allowance, the
provenance table satisfies its structural invariants, and every epsilon
charged to a response is accounted for in the table (no lost updates).

The disjoint-view suites add: 8 threads over wide views with mixed
single- and multi-view batches terminate (no deadlock, view sections
lock in sorted order), and on disjoint views 8 threads produce the
accounting (provenance matrix, fresh releases, epsilon by analyst) of a
one-thread replay.  There is no global service lock and one execution
path: a batch's per-view groups run on the caller's thread, and no
mode, backend or shard count can be chosen.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import Analyst, DProvDB, QueryService
from repro.exceptions import ReproError
from repro.service import QueryRequest
from repro.workloads.service import (
    build_disjoint_workload,
    disjoint_view_attribute_sets,
)

NUM_THREADS = 8
QUERIES_PER_THREAD = 40

ANALYSTS = [Analyst("alpha", 1), Analyst("beta", 3),
            Analyst("gamma", 7), Analyst("delta", 10)]


def _random_requests(bundle, rng, count):
    from repro.workloads.rrq import ordered_attributes

    schema = bundle.database.table(bundle.fact_table).schema
    attributes = ordered_attributes(bundle)
    requests = []
    for _ in range(count):
        attr = attributes[int(rng.integers(0, len(attributes)))]
        domain = schema.domain(attr)
        low = int(rng.integers(domain.low, domain.high + 1))
        high = int(rng.integers(low, domain.high + 1))
        sql = (f"SELECT COUNT(*) FROM {bundle.fact_table} "
               f"WHERE {attr} BETWEEN {low} AND {high}")
        requests.append(QueryRequest(sql,
                                     accuracy=float(10 ** rng.uniform(3.0, 5.5))))
    return requests


@pytest.mark.parametrize("mechanism", ["additive", "vanilla"])
@pytest.mark.parametrize("use_batches", [False, True])
def test_concurrent_sessions_never_overspend(adult_bundle, mechanism,
                                             use_batches):
    """Overlapping analysts across >= 8 threads cannot exceed any budget."""
    epsilon = 1.5
    service = QueryService.build(adult_bundle, ANALYSTS, epsilon,
                                 mechanism=mechanism,
                                 max_cached_synopses=16, seed=7)
    engine = service.engine

    responses_lock = threading.Lock()
    charged: dict[str, float] = {a.name: 0.0 for a in ANALYSTS}
    errors: list[BaseException] = []
    barrier = threading.Barrier(NUM_THREADS)

    def worker(worker_id: int) -> None:
        try:
            rng = np.random.default_rng(1000 + worker_id)
            # Two threads share each analyst: overlapping identities.
            analyst = ANALYSTS[worker_id % len(ANALYSTS)].name
            session = service.open_session(analyst)
            requests = _random_requests(adult_bundle, rng, QUERIES_PER_THREAD)
            barrier.wait()
            if use_batches:
                responses = []
                for start in range(0, len(requests), 8):
                    responses.extend(
                        service.submit_batch(session, requests[start:start + 8]))
            else:
                responses = [service.submit(session, r.sql,
                                            accuracy=r.accuracy)
                             for r in requests]
            spent = sum(r.answer.epsilon_charged for r in responses
                        if r.ok and r.answer is not None)
            with responses_lock:
                charged[analyst] += spent
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(NUM_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors

    # 1. No analyst's ledger exceeds its row constraint.
    for analyst in ANALYSTS:
        consumed = engine.provenance.row_total(analyst.name)
        assert consumed <= \
            engine.constraints.analyst_limit(analyst.name) + 1e-9

    # 2. Worst-case collusion stays under the table constraint.
    assert engine.collusion_bound() <= epsilon + 1e-9

    # 3. Structural invariants of the provenance table.
    matrix = engine.provenance_matrix()
    assert (matrix >= 0).all()
    assert matrix.shape == (len(engine.provenance.analysts),
                            len(engine.provenance.views))
    for view in engine.provenance.views:
        assert engine.provenance.column_max(view) <= \
            engine.constraints.view_limit(view) + 1e-9

    # 4. No lost updates: every epsilon charged to a response is in the
    # table, and nothing is in the table that was not charged.
    for analyst in ANALYSTS:
        assert engine.provenance.row_total(analyst.name) == \
            pytest.approx(charged[analyst.name], abs=1e-6)

    # 5. Service-level counters agree with the workload size.
    stats = service.stats
    assert stats.submitted == NUM_THREADS * QUERIES_PER_THREAD
    assert stats.answered + stats.rejected + stats.failed == stats.submitted
    assert stats.failed == 0


def test_concurrent_distinct_analysts_share_synopses(adult_bundle):
    """Threads with distinct analysts on one service stay within budget and
    benefit from the shared global synopsis (additive accounting)."""
    analysts = [Analyst(f"worker_{i}", 1 + i) for i in range(NUM_THREADS)]
    epsilon = 2.0
    service = QueryService.build(adult_bundle, analysts, epsilon, seed=11)
    barrier = threading.Barrier(NUM_THREADS)
    errors: list[BaseException] = []

    sql = ("SELECT COUNT(*) FROM adult WHERE age BETWEEN 25 AND 55")

    def worker(analyst: str, worker_id: int) -> None:
        try:
            session = service.open_session(analyst)
            barrier.wait()
            for step in range(20):
                service.submit(session, sql, accuracy=2000.0 + 100.0 * step)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=worker, args=(a.name, i))
               for i, a in enumerate(analysts)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors

    # Additive accounting: the view's realised loss is the column max, and
    # all analysts asking the same query share one global synopsis.
    view = service.engine.mechanism.store.global_views[0]
    column_max = service.engine.provenance.column_max(view)
    total_rows = sum(service.engine.provenance.row_total(a.name)
                     for a in analysts)
    assert service.engine.collusion_bound() <= epsilon + 1e-9
    assert column_max <= service.engine.constraints.view_limit(view) + 1e-9
    # Sharing: the collusion bound is far below the naive sum of rows.
    assert service.engine.collusion_bound() <= total_rows + 1e-9
    # Repeated identical queries must mostly hit the cache.
    assert service.stats.answer_cache_hit_rate > 0.5


#: A wider roster for the disjoint-view suites below: one analyst (and
#: one registered view) per thread.
WIDE_ANALYSTS = [Analyst(f"analyst_{i}", 1 + i) for i in range(NUM_THREADS)]


def build_wide_service(bundle, *, epsilon=48.0, mechanism="additive",
                       seed=9):
    service = QueryService.build(bundle, WIDE_ANALYSTS, epsilon,
                                 mechanism=mechanism,
                                 max_cached_synopses=64, seed=seed)
    attribute_sets = disjoint_view_attribute_sets(bundle,
                                                  len(WIDE_ANALYSTS))
    views = [service.engine.register_view(attrs) for attrs in attribute_sets]
    return service, attribute_sets, views


class TestLockOrderingDiscipline:
    def test_opposite_order_multi_view_sections_do_not_deadlock(self,
                                                                adult_bundle):
        """view_section sorts names, so inverse acquisition orders are safe."""
        service, _, views = build_wide_service(adult_bundle)
        engine = service.engine
        a, b, c = views[0], views[1], views[2]
        barrier = threading.Barrier(4)
        errors: list[BaseException] = []

        def worker(order):
            try:
                barrier.wait()
                for _ in range(200):
                    with engine.view_section(*order):
                        pass
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        orders = [(a, b, c), (c, b, a), (b, a, c), (c, a, b)]
        threads = [threading.Thread(target=worker, args=(o,))
                   for o in orders]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "multi-view sections deadlocked"
        assert not errors, errors
        service.close()


class TestConcurrentStress:
    @pytest.mark.parametrize("mechanism", ["additive", "vanilla"])
    def test_stress_terminates_within_constraints(self, adult_bundle,
                                                  mechanism):
        """8 threads, 8 wide views, mixed single- and multi-view batches."""
        service, attribute_sets, views = build_wide_service(
            adult_bundle, mechanism=mechanism)
        engine = service.engine
        streams = build_disjoint_workload(adult_bundle, WIDE_ANALYSTS, 24,
                                          attribute_sets, accuracy=2e5,
                                          seed=31)
        barrier = threading.Barrier(NUM_THREADS)
        charged: dict[str, float] = {a.name: 0.0 for a in WIDE_ANALYSTS}
        charged_lock = threading.Lock()
        errors: list[BaseException] = []

        def worker(i: int) -> None:
            try:
                analyst = WIDE_ANALYSTS[i].name
                session = service.open_session(analyst)
                own = streams[analyst]
                # Borrow a neighbour's stream slice: multi-view batches
                # (two disjoint views inside one submit_batch) take two
                # view sections in one call; the neighbour's queries target
                # the neighbour's view but run on *this* session.
                neighbour = streams[
                    WIDE_ANALYSTS[(i + 1) % len(WIDE_ANALYSTS)].name]
                barrier.wait()
                responses = []
                for start in range(0, len(own), 6):
                    batch = list(own[start:start + 6])
                    if (start // 6) % 2:
                        batch.extend(neighbour[start:start + 2])
                    responses.extend(service.submit_batch(session, batch))
                for j, request in enumerate(own[:4]):
                    responses.append(service.submit(
                        session, request.sql, accuracy=request.accuracy))
                spent = sum(r.answer.epsilon_charged for r in responses
                            if r.ok and r.answer is not None)
                with charged_lock:
                    charged[analyst] += spent
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)
                barrier.abort()

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(NUM_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "concurrent stress deadlocked"
        assert not errors, errors

        # Per-constraint invariants.
        for analyst in WIDE_ANALYSTS:
            assert engine.provenance.row_total(analyst.name) <= \
                engine.constraints.analyst_limit(analyst.name) + 1e-9
        for view in engine.provenance.views:
            limit = engine.constraints.view_limit(view)
            if mechanism == "additive":
                assert engine.provenance.column_max(view) <= limit + 1e-9
            else:
                assert engine.provenance.column_total(view) <= limit + 1e-9
        assert engine.collusion_bound() <= engine.constraints.table + 1e-9

        # No lost updates: every charged epsilon is in the ledger.
        for analyst in WIDE_ANALYSTS:
            assert engine.provenance.row_total(analyst.name) == \
                pytest.approx(charged[analyst.name], abs=1e-6)

        # Service counters are exact under concurrency.
        stats = service.stats
        expected = NUM_THREADS * 24 + NUM_THREADS * 4 \
            + NUM_THREADS * 2 * 2  # own + singles + borrowed slices
        assert stats.submitted == expected
        assert stats.answered + stats.rejected + stats.failed \
            == stats.submitted
        assert stats.failed == 0
        service.close()


class TestSerialEquivalence:
    @pytest.mark.parametrize("mechanism", ["additive", "vanilla"])
    @pytest.mark.parametrize("use_batches", [False, True])
    def test_concurrent_matches_serial_accounting(self, adult_bundle,
                                                  mechanism, use_batches):
        """Disjoint views: concurrent execution == serial execution, in
        provenance-matrix, epsilon, and fresh-release terms.  The serial
        reference is the same service driven by one thread."""

        def run(threads: int):
            service, attribute_sets, _ = build_wide_service(
                adult_bundle, mechanism=mechanism)
            streams = build_disjoint_workload(adult_bundle, WIDE_ANALYSTS, 15,
                                              attribute_sets, accuracy=2e5,
                                              seed=17)
            barrier = threading.Barrier(threads)
            errors: list[BaseException] = []
            assignments: list[list[str]] = [[] for _ in range(threads)]
            for i, analyst in enumerate(WIDE_ANALYSTS):
                assignments[i % threads].append(analyst.name)

            def worker(names: list[str]) -> None:
                try:
                    sessions = {n: service.open_session(n) for n in names}
                    barrier.wait()
                    for name in names:
                        stream = streams[name]
                        if use_batches:
                            for start in range(0, len(stream), 5):
                                service.submit_batch(
                                    sessions[name], stream[start:start + 5])
                        else:
                            for request in stream:
                                service.submit(sessions[name], request.sql,
                                               accuracy=request.accuracy)
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)
                    barrier.abort()

            pool = [threading.Thread(target=worker, args=(names,))
                    for names in assignments]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=120)
                assert not thread.is_alive()
            assert not errors, errors
            outcome = (
                service.engine.provenance_matrix(),
                dict(service.stats.epsilon_by_analyst),
                service.stats.fresh_releases,
                service.stats.failed,
            )
            service.close()
            return outcome

        serial_matrix, serial_eps, serial_fresh, serial_failed = \
            run(threads=1)
        threaded_matrix, threaded_eps, threaded_fresh, threaded_failed = \
            run(threads=NUM_THREADS)

        assert serial_failed == 0 and threaded_failed == 0
        np.testing.assert_array_equal(serial_matrix, threaded_matrix)
        assert threaded_eps == pytest.approx(serial_eps)
        assert threaded_fresh == serial_fresh


class TestDelegationConcurrency:
    def test_grant_cap_not_jointly_overspent(self, adult_bundle):
        """Delegated queries on different views race the grant cap: the
        atomic reserve/settle cycle must keep the total within it."""
        analysts = [Analyst("grantor", 8), Analyst("grantee", 2)]
        engine = DProvDB(adult_bundle, analysts, epsilon=40.0, seed=13)
        cap = 0.6
        grant_id = engine.grant_delegation("grantor", "grantee",
                                           epsilon_cap=cap)
        queries = ["SELECT COUNT(*) FROM adult WHERE age BETWEEN 20 AND 70",
                   "SELECT COUNT(*) FROM adult WHERE hours_per_week "
                   "BETWEEN 10 AND 60"]
        barrier = threading.Barrier(2)
        errors: list[BaseException] = []

        def worker(sql: str) -> None:
            try:
                barrier.wait()
                for step in range(12):
                    try:
                        engine.submit("grantee", sql,
                                      accuracy=3000.0 / (1 + step),
                                      delegation=grant_id)
                    except ReproError:
                        pass  # cap exhaustion is the expected terminal state
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(sql,))
                   for sql in queries]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert not errors, errors

        grant = engine.delegations.audit("grantor")[0]
        assert grant.consumed <= cap + 1e-9
        # Whatever the grant recorded is in the grantor's provenance row.
        assert engine.provenance.row_total("grantor") >= grant.consumed - 1e-9


class TestOneExecutionPath:
    def test_there_is_no_execution_mode(self, adult_bundle):
        with pytest.raises(TypeError):
            QueryService.build(adult_bundle, WIDE_ANALYSTS[:2], 2.0,
                               execution="global")

    def test_there_is_no_execution_backend(self, adult_bundle):
        engine = DProvDB(adult_bundle, WIDE_ANALYSTS[:2], 2.0)
        with pytest.raises(TypeError):
            QueryService(engine, **{"backend": "mp"})
        with pytest.raises(TypeError):
            QueryService.build(adult_bundle, WIDE_ANALYSTS[:2], 2.0, workers=2)
        with pytest.raises(TypeError):
            QueryService(engine, **{"shards": 4})
        with pytest.raises(TypeError):
            QueryService.build(adult_bundle, WIDE_ANALYSTS[:2], 2.0, shards=1)

    def test_there_is_one_noise_generator(self, adult_bundle):
        with pytest.raises(TypeError):
            DProvDB(adult_bundle, WIDE_ANALYSTS[:2], 2.0,
                    noise_streams="per_view")
        with pytest.raises(TypeError):
            QueryService.build(adult_bundle, WIDE_ANALYSTS[:2], 2.0,
                               noise_streams="per_view")

    def test_service_snapshot_consistent(self, adult_bundle):
        service, attribute_sets, _ = build_wide_service(adult_bundle)
        streams = build_disjoint_workload(adult_bundle, WIDE_ANALYSTS, 5,
                                          attribute_sets, accuracy=2e5,
                                          seed=2)
        for analyst in WIDE_ANALYSTS[:3]:
            session = service.open_session(analyst.name)
            service.submit_batch(session, streams[analyst.name])
        snapshot = service.snapshot()
        assert snapshot["service"]["submitted"] == 15
        assert snapshot["open_sessions"] == 3
        assert snapshot["service"]["busy_seconds"] > 0.0
        assert "shards" not in snapshot
        service.close()
