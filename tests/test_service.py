"""Unit tests for the serving layer: sessions, planning, caching, stats."""

from __future__ import annotations

import math

import pytest

from repro import Analyst, QueryService, ReproError
from repro.core.engine import DProvDB
from repro.service import QueryRequest, plan_batch
from repro.service.cache import LruSynopsisStore
from repro.core.synopsis import Synopsis

ANALYSTS = [Analyst("low", 1), Analyst("high", 4)]

RANGE_SQL = "SELECT COUNT(*) FROM adult WHERE age BETWEEN 30 AND 40"
HOURS_SQL = "SELECT COUNT(*) FROM adult WHERE hours_per_week BETWEEN 20 AND 60"
GROUP_SQL = "SELECT sex, COUNT(*) FROM adult GROUP BY sex"
AVG_SQL = "SELECT AVG(age) FROM adult WHERE age BETWEEN 20 AND 80"


@pytest.fixture
def service(adult_bundle):
    return QueryService.build(adult_bundle, ANALYSTS, epsilon=4.0, seed=5)


class TestSessions:
    def test_open_submit_close(self, service):
        session = service.open_session("high")
        response = service.submit(session, RANGE_SQL, accuracy=2500.0)
        assert response.ok and response.answer is not None
        assert response.answer.answer_variance <= 2500.0 * (1 + 1e-6)
        assert session.answered == 1 and session.submitted == 1
        closed = service.close_session(session)
        assert closed.closed
        with pytest.raises(ReproError):
            service.submit(session, RANGE_SQL, accuracy=2500.0)

    def test_unknown_analyst_rejected_at_open(self, service):
        with pytest.raises(ReproError):
            service.open_session("nobody")

    def test_sessions_share_analyst_budget(self, service):
        first = service.open_session("high")
        second = service.open_session("high")
        service.submit(first, RANGE_SQL, accuracy=2500.0)
        service.submit(second, RANGE_SQL, accuracy=2500.0)
        spent = service.analyst_spent("high")
        assert spent == pytest.approx(
            first.epsilon_spent + second.epsilon_spent, abs=1e-9)
        # Second session's identical query hits the first one's synopsis.
        assert second.cache_hits == 1

    @pytest.mark.parametrize("mode", ("accuracy", "epsilon"))
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_bound_is_an_uncharged_error(self, service, mode, bad):
        """A NaN bound used to be translated to the whole table budget
        (the bisection's upper end), charged, and cached as a NaN synopsis
        that poisoned the view for that analyst."""
        session = service.open_session("high")
        before = service.engine.provenance.row_totals()
        response = service.submit(session, RANGE_SQL, **{mode: bad})
        assert not response.ok and not response.rejected
        assert "finite" in response.error
        batched, = service.submit_batch(
            session, [QueryRequest(RANGE_SQL, **{mode: bad})])
        assert not batched.ok and "finite" in batched.error
        assert service.engine.provenance.row_totals() == before
        assert service.analyst_spent("high") == 0.0
        following = service.submit(session, RANGE_SQL, accuracy=2500.0)
        assert following.ok and math.isfinite(following.answer.value)
        assert following.answer.epsilon_charged > 0.0

    def test_malformed_sql_is_an_error_response(self, service):
        session = service.open_session("low")
        response = service.submit(session, "SELECT FROM WHERE", accuracy=1.0)
        assert not response.ok and not response.rejected
        assert session.failed == 1

    def test_group_by_routing(self, service):
        session = service.open_session("high")
        response = service.submit(session, GROUP_SQL, accuracy=4000.0)
        assert response.ok and response.groups is not None
        keys = {key[0] for key, _ in response.groups}
        assert keys == {"female", "male"}
        with pytest.raises(ValueError):
            response.value()

    def test_avg_routing(self, service):
        session = service.open_session("high")
        response = service.submit(session, AVG_SQL, accuracy=2e6)
        assert response.ok and response.answer is not None
        assert 0 < response.value() < 120


class TestBatching:
    def test_batch_returns_original_order(self, service):
        session = service.open_session("high")
        requests = [
            QueryRequest(HOURS_SQL, accuracy=9000.0),
            QueryRequest(GROUP_SQL, accuracy=5000.0),
            QueryRequest(RANGE_SQL, accuracy=2500.0),
            QueryRequest("SELECT nonsense FROM nowhere", accuracy=1.0),
            QueryRequest(RANGE_SQL, accuracy=8000.0),
        ]
        responses = service.submit_batch(session, requests)
        assert [r.index for r in responses] == [0, 1, 2, 3, 4]
        assert responses[0].ok and responses[2].ok and responses[4].ok
        assert responses[1].groups is not None
        assert not responses[3].ok
        # The looser duplicate of query 2's view is served from cache.
        assert responses[4].answer.cache_hit

    def test_plan_groups_by_view_strictest_first(self, service):
        requests = [
            QueryRequest(RANGE_SQL, accuracy=50000.0),
            QueryRequest(HOURS_SQL, accuracy=4000.0),
            QueryRequest(RANGE_SQL, accuracy=900.0),
            QueryRequest(RANGE_SQL, accuracy=2500.0),
        ]
        plan = plan_batch(service.engine, requests)
        assert plan.num_views == 2
        age_view = "adult.age"
        assert plan.view_groups[age_view] == (0, 2, 3)
        ordered = [p.index for p in plan.ordered]
        # Age appears first (arrival order of views), strictest first.
        assert ordered == [2, 3, 0, 1]
        per_bin = [p.per_bin_target for p in plan.ordered[:3]]
        assert per_bin == sorted(per_bin)

    def test_unplannable_requests_sort_last(self, service):
        requests = [
            QueryRequest("SELECT COUNT(*) FROM nowhere", accuracy=1.0),
            QueryRequest(RANGE_SQL, accuracy=2500.0),
        ]
        plan = plan_batch(service.engine, requests)
        assert [p.index for p in plan.ordered] == [1, 0]
        assert math.isinf(plan.ordered[-1].per_bin_target)

    def test_batched_never_spends_more_than_arrival_order(self, adult_bundle):
        requests = [QueryRequest(RANGE_SQL, accuracy=a)
                    for a in (50000.0, 10000.0, 2000.0, 400.0)]
        spent = {}
        for mode in ("single", "batched"):
            svc = QueryService.build(adult_bundle, ANALYSTS, epsilon=4.0,
                                     seed=5)
            session = svc.open_session("high")
            if mode == "single":
                for r in requests:
                    svc.submit(session, r.sql, accuracy=r.accuracy)
            else:
                svc.submit_batch(session, requests)
            spent[mode] = svc.analyst_spent("high")
        # Arrival order refreshes the synopsis four times; planned order
        # refreshes once and serves the rest from cache.
        assert spent["batched"] <= spent["single"] + 1e-12

    def test_group_by_strictness_is_comparable_with_scalars(self, service):
        # A strict GROUP BY and a loose scalar on the same view: the
        # GROUP BY must run first or the view is refreshed twice.
        requests = [
            QueryRequest("SELECT COUNT(*) FROM adult WHERE sex = 'male'",
                         accuracy=8000.0),
            QueryRequest("SELECT sex, COUNT(*) FROM adult GROUP BY sex",
                         accuracy=1000.0),
        ]
        plan = plan_batch(service.engine, requests)
        assert [p.index for p in plan.ordered] == [1, 0]
        session = service.open_session("high")
        responses = service.submit_batch(session, requests)
        assert all(r.ok for r in responses)
        # The loose scalar rides the strict GROUP BY's synopsis.
        assert responses[0].answer.cache_hit

    def test_wraps_only_fresh_engines(self, adult_bundle):
        engine = DProvDB(adult_bundle, ANALYSTS, epsilon=4.0, seed=5)
        engine.submit("high", RANGE_SQL, accuracy=2500.0)
        with pytest.raises(ReproError):
            QueryService(engine)

    def test_rejects_engines_with_custom_store(self, adult_bundle):
        # The service owns the bounded store; a caller-injected store would
        # be silently replaced otherwise.
        engine = DProvDB(adult_bundle, ANALYSTS, epsilon=4.0, seed=5,
                         synopsis_store=LruSynopsisStore(8))
        with pytest.raises(ReproError, match="custom synopsis store"):
            QueryService(engine)


class TestLruCache:
    def _synopsis(self, analyst, view, variance=1.0):
        return Synopsis(view_name=view, values=[1.0, 2.0], epsilon=0.1,
                        delta=1e-9, variance=variance, analyst=analyst)

    def test_eviction_order_is_least_recently_used(self):
        store = LruSynopsisStore(max_local=2)
        store.put_local(self._synopsis("a", "v1"))
        store.put_local(self._synopsis("a", "v2"))
        assert store.local_synopsis("a", "v1") is not None  # touch v1
        store.put_local(self._synopsis("a", "v3"))          # evicts v2
        assert store.local_synopsis("a", "v2") is None
        assert store.local_synopsis("a", "v1") is not None
        assert store.stats.evictions == 1

    def test_stats_count_only_answer_path_decisions(self):
        # Raw lookups (mechanism internals, persistence) leave the stats
        # alone; only note_lookup — the answer path's adequacy decision —
        # counts, so hit_rate is a serving rate, not store traffic.
        store = LruSynopsisStore(max_local=4)
        assert store.local_synopsis("a", "v1") is None
        store.put_local(self._synopsis("a", "v1"))
        assert store.local_synopsis("a", "v1") is not None
        assert store.stats.lookups == 0
        store.note_lookup(False)
        store.note_lookup(True)
        assert store.stats.misses == 1 and store.stats.hits == 1
        assert store.stats.hit_rate == 0.5

    def test_hit_rate_reflects_adequacy_not_presence(self, adult_bundle):
        service = QueryService.build(adult_bundle, ANALYSTS, epsilon=4.0,
                                     seed=5)
        session = service.open_session("high")
        service.submit(session, RANGE_SQL, accuracy=9000.0)   # miss (empty)
        service.submit(session, RANGE_SQL, accuracy=20000.0)  # hit (looser)
        service.submit(session, RANGE_SQL, accuracy=2000.0)   # miss (stricter)
        stats = service.cache_stats
        assert (stats.hits, stats.misses) == (1, 2)

    def test_unbounded_mode_never_evicts(self):
        store = LruSynopsisStore(max_local=None)
        for i in range(300):
            store.put_local(self._synopsis("a", f"v{i}"))
        assert store.stats.evictions == 0
        assert len(store.local_keys) == 300

    def test_globals_never_evicted(self):
        store = LruSynopsisStore(max_local=1)
        store.put_global(Synopsis("v1", [1.0], 0.1, 1e-9, 1.0, None))
        for i in range(5):
            store.put_local(self._synopsis("a", f"v{i}"))
        assert store.global_synopsis("v1") is not None
        assert len(store.local_keys) == 1

    def test_bounded_service_still_answers_correctly(self, adult_bundle):
        service = QueryService.build(adult_bundle, ANALYSTS, epsilon=4.0,
                                     max_cached_synopses=1, seed=5)
        session = service.open_session("high")
        for sql in (RANGE_SQL, HOURS_SQL, RANGE_SQL, HOURS_SQL):
            response = service.submit(session, sql, accuracy=2500.0)
            assert response.ok
            assert response.answer.answer_variance <= 2500.0 * (1 + 1e-6)
        assert service.cache_stats.evictions >= 2
        # Evictions cost re-derivation work, never extra budget beyond the
        # per-view global epsilon (additive accounting cap).
        view_eps = {
            view: service.engine.mechanism.store.global_synopsis(view).epsilon
            for view in service.engine.mechanism.store.global_views
        }
        for view, eps in view_eps.items():
            assert service.engine.provenance.get("high", view) <= eps + 1e-9


class TestLoadGenerator:
    def test_more_threads_than_analysts_terminates(self, adult_bundle):
        """Regression: idle workers used to leave the start barrier waiting
        for parties that never launch (deadlock)."""
        from repro.service import build_mixed_workload, run_throughput

        workload = build_mixed_workload(adult_bundle, ANALYSTS, 5, seed=3)
        service = QueryService.build(adult_bundle, ANALYSTS, epsilon=4.0,
                                     seed=3)
        result = run_throughput(service, ANALYSTS, workload,
                                mode="batched", threads=8, batch_size=4)
        assert result.threads == len(ANALYSTS)
        assert result.total_queries == 2 * 5

    def test_rejects_unknown_mode(self, adult_bundle):
        from repro.service import build_mixed_workload, run_throughput

        workload = build_mixed_workload(adult_bundle, ANALYSTS, 2, seed=3)
        service = QueryService.build(adult_bundle, ANALYSTS, epsilon=4.0,
                                     seed=3)
        with pytest.raises(ReproError):
            run_throughput(service, ANALYSTS, workload, mode="warp")

    def test_reused_service_reports_per_run_deltas(self, adult_bundle):
        # Regression: cumulative service counters used to leak into the
        # second run's ThroughputResult, inflating q/s.
        from repro.service import build_mixed_workload, run_throughput

        workload = build_mixed_workload(adult_bundle, ANALYSTS, 6, seed=3)
        service = QueryService.build(adult_bundle, ANALYSTS, epsilon=4.0,
                                     seed=3)
        first = run_throughput(service, ANALYSTS, workload,
                               mode="batched", threads=2)
        second = run_throughput(service, ANALYSTS, workload,
                                mode="batched", threads=2)
        assert first.total_queries == second.total_queries == 2 * 6
        assert second.answered + second.rejected + second.failed == 2 * 6
        # Second replay of an identical workload is pure cache hits.
        assert second.fresh_releases == 0
        assert second.answer_cache_hit_rate == pytest.approx(1.0)
        assert second.total_epsilon_spent == pytest.approx(0.0, abs=1e-12)


class TestStatsAndSnapshot:
    def test_snapshot_shape(self, service):
        session = service.open_session("low")
        service.submit(session, RANGE_SQL, accuracy=9000.0)
        service.submit(session, RANGE_SQL, accuracy=9000.0)
        snap = service.snapshot()
        assert snap["open_sessions"] == 1
        assert snap["service"]["submitted"] == 2
        assert snap["service"]["answer_cache_hits"] >= 1
        assert 0.0 <= snap["synopsis_cache"]["hit_rate"] <= 1.0
        assert snap["service"]["epsilon_by_analyst"]["low"] == \
            pytest.approx(service.analyst_spent("low"), abs=1e-9)

    def test_rejections_counted(self, adult_bundle):
        service = QueryService.build(adult_bundle, ANALYSTS, epsilon=0.4,
                                     seed=5)
        session = service.open_session("low")
        rejected = 0
        for _ in range(30):
            response = service.submit(session, RANGE_SQL, accuracy=1.0)
            rejected += int(response.rejected)
        assert rejected > 0
        assert service.stats.rejected == rejected == session.rejected


class TestCloseSemantics:
    """Satellites: idempotent close + tagged errors on closed targets."""

    def test_service_close_is_idempotent(self, service):
        service.close()
        service.close()
        assert service.closed

    def test_submit_to_closed_service_raises_tagged(self, service):
        from repro.exceptions import ServiceClosed

        session = service.open_session("low")
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit(session, RANGE_SQL, accuracy=2500.0)
        with pytest.raises(ServiceClosed):
            service.submit_batch(session, [QueryRequest(RANGE_SQL,
                                                        accuracy=2500.0)])
        with pytest.raises(ServiceClosed):
            service.open_session("high")
        assert ServiceClosed.tag == "service_closed"

    def test_closed_service_stays_readable(self, service):
        session = service.open_session("low")
        service.submit(session, RANGE_SQL, accuracy=2500.0)
        service.close()
        snap = service.snapshot()
        assert snap["closed"] is True
        assert snap["service"]["answered"] == 1

    def test_submit_to_closed_session_raises_tagged(self, service):
        from repro.exceptions import SessionClosed

        session = service.open_session("low")
        service.close_session(session)
        with pytest.raises(SessionClosed):
            service.submit(session, RANGE_SQL, accuracy=2500.0)
        with pytest.raises(SessionClosed):
            service.submit(session.session_id, RANGE_SQL, accuracy=2500.0)
        with pytest.raises(SessionClosed):
            service.submit_batch(session, [QueryRequest(RANGE_SQL,
                                                        accuracy=2500.0)])
        assert SessionClosed.tag == "session_closed"

    def test_close_session_is_idempotent(self, service):
        session = service.open_session("low")
        first = service.close_session(session)
        second = service.close_session(session.session_id)
        assert first is second and first.closed

    def test_unknown_session_is_not_tagged_closed(self, service):
        from repro.exceptions import SessionClosed

        with pytest.raises(ReproError) as info:
            service.submit(9999, RANGE_SQL, accuracy=2500.0)
        assert not isinstance(info.value, SessionClosed)


class TestSnapshotJson:
    """Satellite regression: snapshots are strictly JSON-serializable —
    the wire protocol ships them verbatim."""

    @pytest.mark.parametrize("mechanism", ["additive", "vanilla",
                                           "vanilla_zcdp"])
    def test_snapshot_strict_json_across_mechanisms(self, adult_bundle,
                                                    mechanism):
        import json

        service = QueryService.build(adult_bundle, ANALYSTS, epsilon=4.0,
                                     seed=5, mechanism=mechanism)
        session = service.open_session("high")
        service.submit(session, RANGE_SQL, accuracy=2500.0)
        service.submit(session, GROUP_SQL, accuracy=2500.0)
        service.submit(session, AVG_SQL, accuracy=2500.0)
        service.submit(session, RANGE_SQL, epsilon=0.05)
        service.submit_batch(session, [
            QueryRequest(HOURS_SQL, accuracy=4000.0),
            QueryRequest(GROUP_SQL, accuracy=4000.0),
        ])
        snap = service.snapshot()
        service.close()

        def reject(obj):
            raise TypeError(f"non-JSON value of type {type(obj).__name__}")

        encoded = json.dumps(snap, allow_nan=False, default=reject)
        assert json.loads(encoded) == snap  # no tuples-as-keys either

    def test_stats_as_dict_native_types(self, service):
        session = service.open_session("low")
        service.submit(session, RANGE_SQL, accuracy=2500.0)
        stats = service.stats.as_dict()
        assert all(type(key) is str
                   for key in stats["epsilon_by_analyst"])
        for value in stats["epsilon_by_analyst"].values():
            assert type(value) is float
        assert type(stats["submitted"]) is int
        assert type(stats["busy_seconds"]) is float

    def test_closed_session_retention_is_bounded(self, service,
                                                 monkeypatch):
        """A long-running daemon churns sessions; closed-session memory
        must not grow without bound (oldest degrade to the generic
        unknown-session error)."""
        import repro.service.service as service_module
        from repro.exceptions import SessionClosed

        monkeypatch.setattr(service_module, "MAX_CLOSED_SESSIONS", 3)
        sessions = []
        for _ in range(5):
            session = service.open_session("low")
            service.close_session(session)
            sessions.append(session)
        assert len(service._closed_sessions) == 3
        with pytest.raises(SessionClosed):  # recent: still tagged
            service.submit(sessions[-1].session_id, RANGE_SQL,
                           accuracy=2500.0)
        with pytest.raises(ReproError) as info:  # aged out: generic
            service.submit(sessions[0].session_id, RANGE_SQL,
                           accuracy=2500.0)
        assert not isinstance(info.value, SessionClosed)
