"""Sharded service execution: deadlock-freedom, no-overspend, equivalence.

The tentpole claims under test:

* 8 threads over 4+ wide views with mixed single-view and multi-view
  batches terminate (no deadlock), never violate a row/column/table
  constraint, and lose no updates;
* on the disjoint-view workload, 8 threads produce accounting
  (provenance matrix, fresh releases, epsilon by analyst) identical to a
  one-thread replay — reordering across views cannot change per-view state;
* :class:`ShardManager` routes stably, preserves in-group order, and
  propagates worker errors.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import Analyst, DProvDB, QueryService
from repro.exceptions import ReproError
from repro.service import ShardManager
from repro.workloads.service import (
    build_disjoint_workload,
    disjoint_view_attribute_sets,
)

NUM_THREADS = 8

ANALYSTS = [Analyst(f"analyst_{i}", 1 + i) for i in range(NUM_THREADS)]


def build_sharded_service(bundle, *, epsilon=48.0, mechanism="additive",
                          seed=9):
    service = QueryService.build(bundle, ANALYSTS, epsilon,
                                 mechanism=mechanism,
                                 max_cached_synopses=64, seed=seed)
    attribute_sets = disjoint_view_attribute_sets(bundle, len(ANALYSTS))
    views = [service.engine.register_view(attrs) for attrs in attribute_sets]
    return service, attribute_sets, views


class TestShardManager:
    def test_stable_routing(self):
        manager = ShardManager(4)
        views = [f"adult.v{i}" for i in range(32)]
        first = [manager.shard_of(v) for v in views]
        assert first == [manager.shard_of(v) for v in views]
        assert all(0 <= s < 4 for s in first)
        assert manager.shard_of(None) == 0
        manager.close()

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ReproError):
            ShardManager(0)

    @pytest.mark.parametrize("cpus, pooled", [({0}, False), ({0, 1}, True)])
    def test_pool_follows_usable_cpus_not_host_cpus(self, monkeypatch,
                                                     cpus, pooled):
        # A process pinned to one CPU of a many-CPU host runs inline.
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                            raising=False)
        assert ShardManager(4)._use_pool is pooled
        assert ShardManager(1)._use_pool is False
        assert ShardManager(1, force_pool=True)._use_pool is True
        monkeypatch.delattr(os, "sched_getaffinity")
        assert ShardManager(4)._use_pool is True   # no affinity: host count

    @pytest.mark.parametrize("force_pool", [False, True])
    def test_groups_run_in_order_and_complete(self, force_pool):
        manager = ShardManager(4, force_pool=force_pool)
        seen: dict[str, list[int]] = {}
        lock = threading.Lock()

        def fn(view, items):
            for value in items:
                with lock:
                    seen.setdefault(view, []).append(value)

        groups = [(f"view_{g}", list(range(20))) for g in range(6)]
        manager.run_groups(groups, fn)
        manager.close()
        assert set(seen) == {f"view_{g}" for g in range(6)}
        for values in seen.values():
            assert values == sorted(values)  # in-group order preserved

    @pytest.mark.parametrize("force_pool", [False, True])
    def test_worker_errors_propagate(self, force_pool):
        manager = ShardManager(4, force_pool=force_pool)

        def fn(view, items):
            if 13 in items:
                raise RuntimeError("boom")

        groups = [("a", [1, 2]), ("b", [13]), ("c", [3])]
        with pytest.raises(RuntimeError):
            manager.run_groups(groups, fn)
        manager.close()

    def test_close_is_idempotent_and_blocks_reuse(self):
        manager = ShardManager(2, force_pool=True)
        manager.run_groups([("a", [1]), ("b", [2])], lambda view, items: None)
        manager.close()
        manager.close()


class TestLockOrderingDiscipline:
    def test_opposite_order_multi_view_sections_do_not_deadlock(self,
                                                                adult_bundle):
        """view_section sorts names, so inverse acquisition orders are safe."""
        service, _, views = build_sharded_service(adult_bundle)
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


class TestShardedStress:
    @pytest.mark.parametrize("mechanism", ["additive", "vanilla"])
    def test_stress_terminates_within_constraints(self, adult_bundle,
                                                  mechanism):
        """8 threads, 8 wide views, mixed single- and multi-view batches."""
        service, attribute_sets, views = build_sharded_service(
            adult_bundle, mechanism=mechanism)
        engine = service.engine
        streams = build_disjoint_workload(adult_bundle, ANALYSTS, 24,
                                          attribute_sets, accuracy=2e5,
                                          seed=31)
        barrier = threading.Barrier(NUM_THREADS)
        charged: dict[str, float] = {a.name: 0.0 for a in ANALYSTS}
        charged_lock = threading.Lock()
        errors: list[BaseException] = []

        def worker(i: int) -> None:
            try:
                analyst = ANALYSTS[i].name
                session = service.open_session(analyst)
                own = streams[analyst]
                # Borrow a neighbour's stream slice: multi-view batches
                # (two disjoint views inside one submit_batch) exercise
                # the parallel executor; the neighbour's queries target
                # the neighbour's view but run on *this* session.
                neighbour = streams[ANALYSTS[(i + 1) % len(ANALYSTS)].name]
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
            assert not thread.is_alive(), "sharded stress deadlocked"
        assert not errors, errors

        # Per-constraint invariants.
        for analyst in ANALYSTS:
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
        for analyst in ANALYSTS:
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
    def test_sharded_matches_serial_accounting(self, adult_bundle, mechanism,
                                               use_batches):
        """Disjoint views: concurrent execution == serial execution, in
        provenance-matrix, epsilon, and fresh-release terms.  The serial
        reference is the same service driven by one thread."""

        def run(threads: int):
            service, attribute_sets, _ = build_sharded_service(
                adult_bundle, mechanism=mechanism)
            streams = build_disjoint_workload(adult_bundle, ANALYSTS, 15,
                                              attribute_sets, accuracy=2e5,
                                              seed=17)
            barrier = threading.Barrier(threads)
            errors: list[BaseException] = []
            assignments: list[list[str]] = [[] for _ in range(threads)]
            for i, analyst in enumerate(ANALYSTS):
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
        sharded_matrix, sharded_eps, sharded_fresh, sharded_failed = \
            run(threads=NUM_THREADS)

        assert serial_failed == 0 and sharded_failed == 0
        np.testing.assert_array_equal(serial_matrix, sharded_matrix)
        assert sharded_eps == pytest.approx(serial_eps)
        assert sharded_fresh == serial_fresh


class TestDelegationConcurrency:
    def test_grant_cap_not_jointly_overspent(self, adult_bundle):
        """Delegated queries on different views race the grant cap: the
        atomic reserve/settle cycle must keep the total within it."""
        from repro import DProvDB

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


class TestShardedService:
    def test_there_is_no_execution_mode(self, adult_bundle):
        with pytest.raises(TypeError):
            QueryService.build(adult_bundle, ANALYSTS[:2], 2.0,
                               execution="global")

    def test_there_is_no_execution_backend(self, adult_bundle):
        engine = DProvDB(adult_bundle, ANALYSTS[:2], 2.0)
        with pytest.raises(TypeError):
            QueryService(engine, **{"backend": "mp"})
        with pytest.raises(TypeError):
            QueryService.build(adult_bundle, ANALYSTS[:2], 2.0, workers=2)

    def test_sharded_service_snapshot_consistent(self, adult_bundle):
        service, attribute_sets, _ = build_sharded_service(adult_bundle)
        streams = build_disjoint_workload(adult_bundle, ANALYSTS, 5,
                                          attribute_sets, accuracy=2e5,
                                          seed=2)
        for analyst in ANALYSTS[:3]:
            session = service.open_session(analyst.name)
            service.submit_batch(session, streams[analyst.name])
        snapshot = service.snapshot()
        assert snapshot["service"]["submitted"] == 15
        assert snapshot["open_sessions"] == 3
        assert snapshot["service"]["busy_seconds"] > 0.0
        service.close()
