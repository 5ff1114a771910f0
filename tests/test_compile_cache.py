"""Compiled-statement cache and checkpoint timer."""

from __future__ import annotations

import json
import time

import pytest

from repro import Analyst, DProvDB, QueryService
from repro.core.compile_cache import CompiledStatement, StatementCache
from repro.exceptions import ReproError, UnanswerableQuery


@pytest.fixture
def engine(adult_bundle, analysts):
    return DProvDB(adult_bundle, analysts, epsilon=16.0, seed=0)


class TestStatementCache:
    def test_lru_bound_and_counters(self):
        cache = StatementCache(max_entries=2)
        entry = CompiledStatement(None, "scalar", None)
        cache.put("a", entry)
        cache.put("b", entry)
        assert cache.get("a") is entry      # refreshes 'a'
        cache.put("c", entry)               # evicts 'b' (LRU)
        assert cache.get("b") is None
        assert cache.get("a") is entry and cache.get("c") is entry
        counters = cache.counters()
        assert counters["entries"] == 2
        assert counters["max_entries"] == 2
        assert counters["hits"] == 3
        assert counters["misses"] == 1
        assert counters["evictions"] == 1
        assert counters["hit_rate"] == pytest.approx(0.75)
        json.dumps(counters)  # strictly JSON-native

    def test_flood_of_distinct_texts_evicts_in_amortised_passes(self):
        # Every insert past the bound crosses it; eviction must be a
        # rare sorted pass, not a scan per insert, and a text that is
        # still being asked must ride the flood out.
        cache = StatementCache(max_entries=1024)
        entry = CompiledStatement(None, "scalar", None)
        cache.put("hot", entry)
        inserts = 1
        for i in range(10_000):
            cache.put(f"q{i}", entry)
            inserts += 1
            assert cache.get("hot") is entry
            assert cache.counters()["cost"] <= 1024
        counters = cache.counters()
        assert counters["evictions"] + counters["entries"] == inserts
        assert counters["entries"] == counters["cost"] >= 1024 - 1024 // 8
        assert 0 < cache.eviction_passes <= inserts // 64
        assert cache.get("q9999") is entry      # the newest survives
        assert cache.get("q0") is None          # the coldest went first

    def test_eviction_never_drops_the_entry_just_inserted(self):
        cache = StatementCache(max_entries=16)
        wide = CompiledStatement(None, "group_by", None,
                                 group_parts=((None, None),) * 40)
        for i in range(16):
            cache.put(f"q{i}", CompiledStatement(None, "scalar", None))
        cache.put("wide", wide)                 # costlier than the bound
        assert cache.get("wide") is wide
        assert len(cache) == 1 and cache.counters()["cost"] == 40
        cache.put("next", CompiledStatement(None, "scalar", None))
        assert cache.get("next") is not None and cache.get("wide") is None

    def test_templates_follow_the_entries_lifecycle(self):
        from repro.core.compile_cache import SHAPE_TABLE_LIMIT

        plan = object()                         # the table never looks inside
        cache = StatementCache()
        cache.put_plan(("a",), plan, cache.epoch)
        assert cache.plan(("a",)) is plan
        assert cache.plan(("b",)) is None
        stale = cache.epoch
        cache.clear()                           # view registration
        assert cache.plan(("a",)) is None
        cache.put_plan(("a",), plan, stale)
        assert cache.plan(("a",)) is None       # dropped, not resurrected
        for i in range(SHAPE_TABLE_LIMIT + 1):  # hostile shape stream
            cache.put_plan((i,), plan, cache.epoch)
        assert cache.counters()["templates"] == 1
        assert cache.counters()["template_hits"] == 1
        disabled = StatementCache(max_entries=0)
        disabled.put_plan(("a",), plan, disabled.epoch)
        assert disabled.plan(("a",)) is None

    def test_unbounded_never_evicts(self):
        cache = StatementCache(max_entries=None)
        entry = CompiledStatement(None, "scalar", None)
        for i in range(500):
            cache.put(str(i), entry)
        assert len(cache) == 500
        assert cache.counters()["evictions"] == 0

    def test_rejects_negative_bound(self):
        with pytest.raises(ReproError):
            StatementCache(max_entries=-1)

    def test_zero_bound_disables_caching(self):
        # The same-window perf-gate baseline relies on 0 meaning "no
        # cache at all": every probe misses, nothing is retained.
        cache = StatementCache(max_entries=0)
        cache.put("a", CompiledStatement(None, "scalar", None))
        assert cache.get("a") is None
        assert len(cache) == 0
        counters = cache.counters()
        assert counters["hits"] == 0 and counters["misses"] == 1

    def test_clear_keeps_counters(self):
        cache = StatementCache()
        cache.put("a", CompiledStatement(None, "scalar", None))
        cache.get("a")
        cache.clear()
        assert cache.get("a") is None
        counters = cache.counters()
        assert counters["entries"] == 0
        assert counters["hits"] == 1 and counters["misses"] == 1


class TestEngineIntegration:
    def test_compile_once_per_distinct_sql(self, engine, adult_bundle):
        sql = f"SELECT COUNT(*) FROM {adult_bundle.fact_table} " \
              f"WHERE age >= 40"
        first = engine.compile_statement(sql)
        second = engine.compile_statement(sql)
        assert second is first  # the exact same compiled entry
        counters = engine.statement_cache.counters()
        assert counters["hits"] == 1 and counters["misses"] == 1

    def test_submit_rides_the_cache(self, engine, adult_bundle):
        sql = f"SELECT COUNT(*) FROM {adult_bundle.fact_table} " \
              f"WHERE age >= 40"
        engine.submit("low", sql, accuracy=1e4)
        misses = engine.statement_cache.counters()["misses"]
        for _ in range(5):
            engine.submit("low", sql, accuracy=1e4)
        counters = engine.statement_cache.counters()
        assert counters["misses"] == misses  # no recompiles
        assert counters["hits"] >= 5

    def test_statement_objects_bypass_the_cache(self, engine, adult_bundle):
        from repro.db.sql.parser import parse

        statement = parse(f"SELECT COUNT(*) FROM "
                          f"{adult_bundle.fact_table} WHERE age >= 40")
        before = engine.statement_cache.counters()
        engine.compile_statement(statement)
        after = engine.statement_cache.counters()
        assert after == before  # no key, no lookup

    def test_group_by_and_avg_entries(self, engine, adult_bundle):
        table = adult_bundle.fact_table
        grouped = engine.compile_statement(
            f"SELECT sex, COUNT(*) FROM {table} GROUP BY sex")
        assert grouped.kind == "group_by"
        assert len(grouped.group_parts) == 2
        assert grouped.strictest is not None
        avg = engine.compile_statement(
            f"SELECT AVG(age) FROM {table} WHERE age >= 30")
        assert avg.kind == "avg"
        assert avg.avg_parts is not None
        assert avg.strictest is avg.avg_parts[0]

    def test_register_view_invalidates(self, engine, adult_bundle):
        sql = f"SELECT COUNT(*) FROM {adult_bundle.fact_table} " \
              f"WHERE age >= 40 AND sex = 'male'"
        # Only a multi-attribute view can answer this; unanswerable now.
        with pytest.raises(UnanswerableQuery):
            engine.compile_statement(sql)
        engine.register_view(("age", "sex"))
        compiled = engine.compile_statement(sql)
        assert compiled.view.name.endswith("age_sex")

    def test_known_shape_skips_parser_and_routing(self, engine,
                                                  adult_bundle,
                                                  monkeypatch):
        import repro.core.engine as engine_module
        from repro.db.sql.parser import parse

        table = adult_bundle.fact_table
        engine.register_view(("age", "sex"))
        texts = [f"SELECT COUNT(*) FROM {table} WHERE age BETWEEN {low} "
                 f"AND {low + 9} AND sex IN ({members})"
                 for low, members in ((20, "'male'"),
                                      (30, "'female', 'male'"),
                                      (41, "'female'"))]
        first = engine.compile_statement(texts[0])
        probes = engine.registry.routing_counters()
        parsed = []
        monkeypatch.setattr(
            engine_module, "parse_tokens",
            lambda tokens: parsed.append(tokens) or parse(texts[0]))
        for text in texts[1:]:
            entry = engine.compile_statement(text)
            assert entry.statement == parse(text)
            assert entry.view is first.view and entry.kind == "scalar"
            fresh_view, fresh_query = engine.registry.compile(parse(text))
            assert fresh_view is entry.view
            assert (fresh_query.weights == entry.query.weights).all()
        assert parsed == []                     # the grammar never ran
        after = engine.registry.routing_counters()
        # Only the two reference compiles above probed the index.
        assert after["hits"] + after["misses"] \
            == probes["hits"] + probes["misses"] + 2
        counters = engine.statement_cache.counters()
        assert counters["templates"] == 1 and counters["template_hits"] == 2

    def test_register_view_drops_templates(self, engine, adult_bundle):
        table = adult_bundle.fact_table
        sql = f"SELECT COUNT(*) FROM {table} WHERE age >= {{}} " \
              f"AND sex = 'male'"
        with pytest.raises(UnanswerableQuery):
            engine.compile_statement(sql.format(40))
        # The shape is known (and known to have no covering view)...
        with pytest.raises(UnanswerableQuery):
            engine.compile_statement(sql.format(41))
        assert engine.statement_cache.counters()["template_hits"] == 1
        engine.register_view(("age", "sex"))
        # ...until a registration changes the candidates.
        assert engine.statement_cache.counters()["templates"] == 0
        assert engine.compile_statement(sql.format(42)) \
            .view.name.endswith("age_sex")

    def test_register_view_drops_stale_choices(self, engine, adult_bundle):
        sql = f"SELECT COUNT(*) FROM {adult_bundle.fact_table} " \
              f"WHERE age >= 40"
        engine.compile_statement(sql)
        engine.register_view(("age", "sex"))
        # Entry recompiled after invalidation (a miss, not a stale hit).
        before = engine.statement_cache.counters()["misses"]
        engine.compile_statement(sql)
        assert engine.statement_cache.counters()["misses"] == before + 1

    def test_in_flight_compile_cannot_resurrect_stale_entry(
            self, engine, adult_bundle):
        sql = f"SELECT COUNT(*) FROM {adult_bundle.fact_table} " \
              f"WHERE age >= 40"
        epoch = engine.statement_cache.epoch
        entry = engine.compile_statement(sql)
        # A view registration invalidates mid-compile; an insert carrying
        # the pre-clear epoch must be dropped, not land stale.
        engine.statement_cache.clear()
        engine.statement_cache.put(sql, entry, epoch=epoch)
        assert engine.statement_cache.get(sql) is None
        engine.statement_cache.put(sql, entry,
                                   epoch=engine.statement_cache.epoch)
        assert engine.statement_cache.get(sql) is entry

    def test_snapshot_exposes_cache_and_lane(self, adult_bundle, analysts):
        service = QueryService.build(adult_bundle, analysts, 16.0, seed=0)
        try:
            session = service.open_session("low")
            sql = f"SELECT COUNT(*) FROM {adult_bundle.fact_table} " \
                  f"WHERE age >= 40"
            service.submit(session, sql, accuracy=1e4)
            service.submit(session, sql, accuracy=1e4)
            snap = service.snapshot()
            compiled = snap["compiled_statements"]
            assert compiled["hits"] >= 1 and compiled["misses"] >= 1
            lane = snap["fast_lane"]
            assert lane["enabled"] is True
            assert lane["hits"] >= 1
            json.dumps(snap)  # the whole snapshot stays wire-safe
        finally:
            service.close()

    def test_planner_reuses_compiled_entries(self, adult_bundle, analysts):
        from repro.service.planner import plan_batch
        from repro.service.session import QueryRequest

        engine = DProvDB(adult_bundle, analysts, epsilon=16.0, seed=0)
        table = adult_bundle.fact_table
        requests = [QueryRequest(f"SELECT COUNT(*) FROM {table} "
                                 f"WHERE age >= 40", accuracy=1e4),
                    QueryRequest(f"SELECT sex, COUNT(*) FROM {table} "
                                 f"GROUP BY sex", accuracy=1e4)]
        plan_batch(engine, list(requests))
        misses = engine.statement_cache.counters()["misses"]
        plan = plan_batch(engine, list(requests))
        counters = engine.statement_cache.counters()
        assert counters["misses"] == misses  # second plan: all hits
        scalar = next(p for p in plan.ordered if not p.is_group_by)
        assert scalar.compiled and scalar.target is not None


class TestOneCompilePerQuery:
    """The serving layers resolve each statement exactly once — the
    planner (or the executor's classification step) compiles, then hands
    the :class:`CompiledStatement` down every submit path.  The profile's
    historical ~1.55x/query probe multiplier must not come back."""

    def test_single_submission_resolves_once(self, engine, adult_bundle):
        from repro.service.executor import execute_request
        from repro.service.session import QueryRequest

        table = adult_bundle.fact_table
        for sql in (f"SELECT COUNT(*) FROM {table} WHERE age >= 40",
                    f"SELECT sex, COUNT(*) FROM {table} GROUP BY sex",
                    f"SELECT AVG(age) FROM {table} WHERE age >= 30"):
            before = engine.compile_calls
            response = execute_request(engine, "low", 0,
                                       QueryRequest(sql, accuracy=1e6),
                                       is_group_by=None)
            assert response.error is None
            assert engine.compile_calls - before == 1

    def test_planned_batch_resolves_once_per_query(self, engine,
                                                   adult_bundle):
        from repro.service.executor import execute_planned_group
        from repro.service.planner import plan_batch
        from repro.service.session import QueryRequest

        table = adult_bundle.fact_table
        requests = [QueryRequest(f"SELECT COUNT(*) FROM {table} "
                                 f"WHERE age >= {40 + i}", accuracy=1e6)
                    for i in range(3)]
        requests += [QueryRequest(f"SELECT sex, COUNT(*) FROM {table} "
                                  f"GROUP BY sex", accuracy=1e6),
                     QueryRequest(f"SELECT AVG(age) FROM {table} "
                                  f"WHERE age >= 30", accuracy=1e6)]
        before = engine.compile_calls
        plan = plan_batch(engine, list(requests))
        responses: list = [None] * len(requests)
        groups: dict = {}
        for item in plan.ordered:
            groups.setdefault(item.view_name, []).append(item)
        for view_name, items in groups.items():
            execute_planned_group(engine, "low", view_name, items, responses)
        assert all(r is not None and r.error is None for r in responses)
        assert engine.compile_calls - before == len(requests)


class TestCheckpointTimer:
    def test_background_checkpoints_while_serving(self, adult_bundle,
                                                  analysts, tmp_path):
        from repro.persistence import DurabilityManager
        from repro.server.daemon import ReproServer

        data_dir = tmp_path / "data"
        service = QueryService.build(
            adult_bundle, analysts, 16.0, seed=0,
            durability=DurabilityManager(str(data_dir), fsync="off"))
        server = ReproServer(service, port=0, checkpoint_every=0.05)
        server.start()
        try:
            session = service.open_session("low")
            service.submit(session,
                           f"SELECT COUNT(*) FROM "
                           f"{adult_bundle.fact_table} WHERE age >= 40",
                           accuracy=1e4)
            deadline = time.monotonic() + 10.0
            checkpoint = data_dir / "checkpoint.json"
            while time.monotonic() < deadline and \
                    (server.checkpoints_written == 0
                     or not checkpoint.exists()):
                time.sleep(0.02)
            assert server.checkpoints_written >= 1
            assert checkpoint.exists()
            assert server.checkpoint_failures == 0
            # The folded checkpoint carries the charge already.
            payload = json.loads(checkpoint.read_text(encoding="utf-8"))
            spent = payload["provenance"]["epsilon_by_analyst"]["low"]
            assert spent == pytest.approx(service.analyst_spent("low"))
        finally:
            server.shutdown()

    def test_wedged_fold_is_abandoned_not_deadlocked(self, adult_bundle,
                                                     analysts, tmp_path,
                                                     monkeypatch):
        """A checkpoint fold blocked on dead storage must not block
        shutdown: the fold is abandoned and the durability manager
        detached (closing it would wait on the lock the fold holds)."""
        import repro.server.daemon as daemon_mod
        from repro.persistence import DurabilityManager
        from repro.server.daemon import ReproServer

        service = QueryService.build(
            adult_bundle, analysts, 16.0, seed=0,
            durability=DurabilityManager(str(tmp_path / "data"),
                                         fsync="off"))
        import threading

        blocked = threading.Event()

        def hung_checkpoint():
            blocked.set()
            threading.Event().wait()  # never returns

        monkeypatch.setattr(daemon_mod, "CHECKPOINT_ABANDON_TIMEOUT", 0.2)
        server = ReproServer(service, port=0, checkpoint_every=0.05)
        monkeypatch.setattr(service, "checkpoint", hung_checkpoint)
        server.start()
        assert blocked.wait(10.0), "checkpoint timer never fired"
        started = time.monotonic()
        server.shutdown(drain_timeout=2.0)
        assert time.monotonic() - started < 10.0
        assert server.checkpoint_abandoned is True
        assert service.durability is None  # detached, not closed

    def test_requires_durable_service(self, adult_bundle, analysts):
        from repro.server.daemon import ReproServer

        service = QueryService.build(adult_bundle, analysts, 16.0, seed=0)
        try:
            with pytest.raises(ReproError, match="durable"):
                ReproServer(service, port=0, checkpoint_every=1.0)
            with pytest.raises(ReproError):
                ReproServer(service, port=0, checkpoint_every=0.0)
        finally:
            service.close()
