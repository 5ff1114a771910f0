"""The multiprocessing shard backend: determinism, crashes, scaling.

The contract under test (see :mod:`repro.service.mp_backend`):

* an mp run is **bit-identical** to a sequential threaded replay of the
  same workload — answers, per-analyst epsilon, fresh releases;
* workers never touch the authoritative provenance table — all charging
  happens in the parent, so a SIGKILLed worker leaves no budget charged
  for answers nobody received, and the pool self-heals by forking a
  replacement;
* construction refuses configurations whose noise draws cannot be
  deterministic across process boundaries;
* on hosts with >= 4 cores, 4 workers must beat 1 worker by >= 1.5x
  (the GIL-break claim).

This file is the mp backend's only evidence: ``perf/`` runs threaded.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np
import pytest

from repro.datasets import load_adult
from repro.exceptions import ReproError
from repro.service.service import QueryService
from repro.service.session import QueryRequest
from repro.service.sharding import usable_cpus
from repro.workloads.rrq import generate_rrq, ordered_attributes
from repro.workloads.service import (
    bfs_style_queries,
    build_disjoint_workload,
    disjoint_view_attribute_sets,
    make_service_analysts,
)

ROWS = 2000
EPSILON = 48.0


@pytest.fixture(scope="module")
def bundle():
    return load_adult(num_rows=ROWS, seed=0)


def build_mp_service(bundle, workers=1, num_analysts=2,
                     **kwargs) -> QueryService:
    kwargs.setdefault("noise_streams", "per_view")
    return QueryService.build(bundle, make_service_analysts(num_analysts),
                              EPSILON, backend="mp", workers=workers,
                              seed=0, **kwargs)


def request_batch(bundle, accuracy, attributes=2, depth=2):
    attrs = ordered_attributes(bundle)[:attributes]
    return [QueryRequest(sql, accuracy=accuracy)
            for attr in attrs
            for sql in bfs_style_queries(bundle, attr, depth=depth)]


# -- construction gates ------------------------------------------------------

def test_rejects_non_additive_mechanism(bundle):
    with pytest.raises(ReproError, match="additive"):
        build_mp_service(bundle, mechanism="vanilla")


def test_rejects_default_noise_streams(bundle):
    with pytest.raises(ReproError, match="per_view"):
        QueryService.build(bundle, make_service_analysts(2), EPSILON,
                           backend="mp", seed=0)


def test_rejects_zero_workers(bundle):
    with pytest.raises(ReproError, match="workers"):
        build_mp_service(bundle, workers=0)


def test_rejects_combine_local(bundle):
    with pytest.raises(ReproError, match="combine_local"):
        build_mp_service(bundle, combine_local=True)


# -- bit-identical accounting ------------------------------------------------

def mixed_streams(bundle, analysts, per_analyst):
    """The paper's mix: RRQs, ~20% BFS dyadic ranges, ~10% GROUP BYs,
    accuracy jittered from half to twice 4e4."""
    rng = np.random.default_rng(0)
    rrq = generate_rrq(bundle, analysts, per_analyst, seed=0)
    bfs = [sql for attr in ordered_attributes(bundle)[:2]
           for sql in bfs_style_queries(bundle, attr)]

    def sql(k: int, rrq_sql: str) -> str:
        if k % 10 == 9:
            attr = ("sex", "race")[k // 10 % 2]
            return f"SELECT {attr}, COUNT(*) FROM adult GROUP BY {attr}"
        return bfs[k % len(bfs)] if k % 5 == 2 else rrq_sql

    return {a.name: [QueryRequest(sql(k, item.sql),
                                  accuracy=4e4 * 2.0 ** rng.uniform(-1, 1))
                     for k, item in enumerate(rrq[a.name])]
            for a in analysts}


def outcome(response) -> tuple:
    """A response's raw floats (no rounding), or its refusal."""
    if response.answer is not None:
        return response.answer.value, response.answer.epsilon_charged
    if response.groups is not None:
        return tuple((key, a.value, a.epsilon_charged)
                     for key, a in response.groups)
    return response.rejected, response.error


class Replay(NamedTuple):
    outcomes: list
    epsilon: dict
    fresh: int
    failed: int
    table_total: float
    backend: dict
    seconds: float


def replay(bundle, streams, backend, workers=None, views=(), batch=16):
    """``streams`` batched on one caller thread: per-view noise streams,
    an unbounded store and one integer seed make every view's draws a
    function of its own release order, so backends must agree bitwise."""
    service = QueryService.build(
        bundle, make_service_analysts(len(streams)), 12.0, seed=0,
        max_cached_synopses=None, noise_streams="per_view",
        backend=backend, workers=workers)
    try:
        for attrs in views:
            service.engine.register_view(attrs)
        service.start_backend()          # fork outside the timed window
        outcomes, started = [], time.perf_counter()
        for name, stream in streams.items():
            session = service.open_session(name)
            for start in range(0, len(stream), batch):
                outcomes += map(outcome, service.submit_batch(
                    session, stream[start:start + batch]))
        seconds = time.perf_counter() - started
        snap = service.snapshot()
        return Replay(outcomes, snap["service"]["epsilon_by_analyst"],
                      snap["service"]["fresh_releases"],
                      snap["service"]["failed"],
                      snap["provenance"]["table_total"], snap["backend"],
                      seconds)
    finally:
        service.close()


def assert_mp_matches_threaded(bundle, streams, workers=1, views=()):
    threaded = replay(bundle, streams, "threaded", views=views)
    mp = replay(bundle, streams, "mp", workers, views)
    assert mp.outcomes == threaded.outcomes        # bitwise: float ==
    assert mp.epsilon == threaded.epsilon
    assert mp.fresh == threaded.fresh
    assert mp.failed == threaded.failed == 0
    assert abs(mp.table_total - threaded.table_total) <= 1e-9
    # Coalesced settlement: the parent performs every charge, but they
    # ride the batch conversation instead of one pipe message each.
    brokered = mp.backend["brokered_charges"]
    assert brokered > 0
    assert mp.backend["charge_messages"] < brokered
    assert mp.backend["charge_mismatches"] == 0
    return mp


@pytest.fixture(scope="module")
def mixed(bundle):
    return mixed_streams(bundle, make_service_analysts(4), 20)


def test_replay_is_bit_identical_to_threaded(bundle, mixed):
    assert_mp_matches_threaded(bundle, mixed)


def test_replay_is_bit_identical_with_two_workers(bundle, mixed):
    """workers=2 exercises the plan-shipping path (the single-worker
    raw-forward fast path is skipped), multiple conversations per
    batch, and cross-process group ordering."""
    assert assert_mp_matches_threaded(bundle, mixed, workers=2) \
        .backend["workers"] == 2


def test_cache_statistics_match_a_threaded_replay(bundle):
    """A worker's ``done`` payload carries counter deltas only; folded
    into the parent they equal a threaded replay's counters exactly."""
    sql = "SELECT COUNT(*) FROM adult WHERE age >= 20 AND age <= 40"

    def replay(**kwargs):
        service = QueryService.build(bundle, make_service_analysts(2),
                                     EPSILON, seed=0,
                                     noise_streams="per_view", **kwargs)
        try:
            values = []
            for name in ("analyst_00", "analyst_01"):
                session = service.open_session(name)
                for _ in range(2):
                    responses = service.submit_batch(
                        session, request_batch(bundle, 2e5))
                    responses.append(service.submit(session, sql,
                                                    accuracy=2e5))
                    values += [r.answer.value for r in responses]
            snap = service.snapshot()
            return (values,
                    {key: snap["synopsis_cache"][key]
                     for key in ("hits", "misses", "evictions")},
                    (snap["fast_lane"]["hits"], snap["fast_lane"]["misses"]))
        finally:
            service.close()

    threaded = replay()
    assert threaded[1]["hits"] > 0 and threaded[2][0] > 0
    assert replay(backend="mp", workers=1) == threaded


def test_disjoint_workload_replay_matches(bundle):
    analysts = make_service_analysts(4)
    views = disjoint_view_attribute_sets(bundle, len(analysts))
    streams = build_disjoint_workload(bundle, analysts, 20, views)
    assert_mp_matches_threaded(bundle, streams, views=views)


# -- serving surface ---------------------------------------------------------

def test_single_query_and_batch_answer(bundle):
    service = build_mp_service(bundle)
    try:
        session = service.open_session("analyst_00")
        sql = ("SELECT COUNT(*) FROM adult "
               "WHERE age >= 20 AND age <= 40")
        response = service.submit(session, sql, accuracy=2e5)
        assert response.ok, response.error
        batch = service.submit_batch(session, request_batch(bundle, 2e5))
        assert all(r.answer is not None for r in batch), \
            [r.error for r in batch if r.error]
        info = service.snapshot()["backend"]
        assert info["mode"] == "mp"
        assert info["workers"] == 1
        assert info["conversations"] >= 1
        assert info["crashes"] == 0
    finally:
        service.close()


def test_group_by_answers_match_contract(bundle):
    service = build_mp_service(bundle)
    try:
        session = service.open_session("analyst_00")
        response = service.submit(
            session, "SELECT sex, COUNT(*) FROM adult GROUP BY sex",
            accuracy=1500.0)
        assert response.ok, response.error
        assert response.groups is not None and len(response.groups) >= 2
    finally:
        service.close()


def test_view_registered_after_fork_fails_cleanly(bundle):
    from repro.views.histogram import HistogramView

    service = build_mp_service(bundle)
    try:
        session = service.open_session("analyst_00")
        warm = service.submit_batch(session, request_batch(bundle, 2e5))
        assert all(r.answer is not None for r in warm)
        registry = service.engine.registry
        first, second = ordered_attributes(bundle)[:2]
        schema = registry._database.table(bundle.fact_table).schema
        # A two-attribute marginal: only the post-fork view can answer
        # a predicate over both attributes at once.
        registry.add(HistogramView(f"post_fork_{first}_{second}",
                                   bundle.fact_table, (first, second),
                                   schema))
        late = service.submit_batch(
            session, [QueryRequest(
                f"SELECT COUNT(*) FROM adult WHERE {first} >= 20 "
                f"AND {first} <= 40 AND {second} >= 0 "
                f"AND {second} <= 10", accuracy=2e5)])
        # The backend must refuse the post-fork view with a restart
        # hint — never hang, never charge in a worker's mirror only.
        assert late[0].answer is None
        assert late[0].error and "registered after" in late[0].error
    finally:
        service.close()


def test_closed_service_refuses_mp_batches(bundle):
    from repro.exceptions import ServiceClosed

    service = build_mp_service(bundle)
    session = service.open_session("analyst_00")
    service.close()
    with pytest.raises(ServiceClosed):
        service.submit_batch(session, request_batch(bundle, 2e5))


# -- worker crashes ----------------------------------------------------------

def test_worker_crash_fails_batch_charges_nothing_and_respawns(bundle):
    service = build_mp_service(bundle)
    try:
        session = service.open_session("analyst_00")
        backend = service.mp_backend
        warm = service.submit_batch(session, request_batch(bundle, 2e5))
        assert all(r.answer is not None for r in warm)
        spent_before = service.snapshot()["provenance"]["table_total"]

        backend.inject_crash(0, after_items=2)
        hurt = service.submit_batch(session, request_batch(bundle, 5e4))
        answered = [r for r in hurt if r.answer is not None]
        failed = [r for r in hurt if r.error is not None]
        assert failed, "crash produced no failed responses"
        assert len(answered) <= 2
        for r in failed:
            assert "died mid-batch" in r.error
            assert not r.rejected

        info = backend.describe()
        assert info["crashes"] == 1
        assert info["restarts"] == 1
        assert info["incarnations"][0] == 1

        # No budget leaked for unanswered queries.
        spent_after = service.snapshot()["provenance"]["table_total"]
        charged = sum(r.answer.epsilon_charged for r in answered)
        assert spent_after - spent_before <= charged + 1e-9

        retry = service.submit_batch(session, request_batch(bundle, 5e4))
        assert all(r.answer is not None for r in retry), \
            [r.error for r in retry if r.error]
    finally:
        service.close()


def test_ping_detects_and_replaces_dead_worker(bundle):
    service = build_mp_service(bundle)
    try:
        backend = service.mp_backend
        backend.ensure_started()
        first = backend.ping()
        assert len(first) == 1 and first[0] is not None
        backend._shards[0].process.kill()
        backend._shards[0].process.join(timeout=5)
        probe = backend.ping()
        assert probe == [None]
        healed = backend.ping()
        assert healed[0] is not None and healed[0] != first[0]
        assert backend.describe()["restarts"] == 1
    finally:
        service.close()


# -- scaling -----------------------------------------------------------------

@pytest.mark.skipif(usable_cpus() < 4,
                    reason="multi-core scaling needs >= 4 cores")
def test_four_workers_beat_one_by_1_5x():
    """The GIL-break claim, asserted where the hardware can express it."""
    bundle = load_adult(num_rows=8000, seed=0)
    streams = mixed_streams(bundle, make_service_analysts(8), 40)
    # best-of-3 rides out scheduler noise
    seconds = {workers: min(assert_mp_matches_threaded(
        bundle, streams, workers).seconds for _ in range(3))
        for workers in (1, 4)}
    assert seconds[1] >= 1.5 * seconds[4], \
        f"4 workers reached only {seconds[1] / seconds[4]:.2f}x of 1 worker"
