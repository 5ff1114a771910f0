"""Replay determinism: a single-client replay is a function of the seed.

Every release draws from the mechanism's one generator, and a batch runs
its per-view groups in plan order on the caller's thread, so the draw
order is fixed by the request stream alone.  The contract under test:

* a batched replay through :class:`QueryService` is bit-identical across
  fresh services, on the paper's mixed stream (RRQs, BFS dyadic ranges,
  GROUP BYs) and on the disjoint-view stream;
* that holds with a synopsis store smaller than the view count, where
  cross-view LRU eviction decides which answers are fresh: answers,
  epsilon, fresh releases, row totals and cache statistics all replay
  bit for bit;
* a stream driven past the analysts' constraints (the budget-exhaustion
  life cycle of Fig. 3) replays bit-identically and never overspends a
  row.
"""

from __future__ import annotations

import threading
from typing import NamedTuple

import numpy as np
import pytest

from repro.datasets import load_adult
from repro.exceptions import ReproError, ServiceClosed
from repro.service.service import QueryService
from repro.service.session import QueryRequest
from repro.workloads.rrq import generate_rrq, ordered_attributes
from repro.workloads.service import (
    bfs_style_queries,
    build_disjoint_workload,
    disjoint_view_attribute_sets,
    make_service_analysts,
)

ROWS = 2000
EPSILON = 48.0
SCALAR_SQL = "SELECT COUNT(*) FROM adult WHERE age >= 20 AND age <= 40"


@pytest.fixture(scope="module")
def bundle():
    return load_adult(num_rows=ROWS, seed=0)


def build_service(bundle, num_analysts=2, epsilon=EPSILON,
                  **kwargs) -> QueryService:
    kwargs.setdefault("seed", 0)
    return QueryService.build(bundle, make_service_analysts(num_analysts),
                              epsilon, **kwargs)


def request_batch(bundle, accuracy, attributes=2, depth=2):
    attrs = ordered_attributes(bundle)[:attributes]
    return [QueryRequest(sql, accuracy=accuracy)
            for attr in attrs
            for sql in bfs_style_queries(bundle, attr, depth=depth)]


def mixed_streams(bundle, analysts, per_analyst, pair=None):
    """The paper's mix: RRQs, ~20% BFS dyadic ranges, ~10% GROUP BYs,
    accuracy jittered from half to twice 4e4.  With ``pair`` (two ordered
    attributes of a registered two-attribute view) ~10% are conjunctive
    ranges over both, which only that view answers."""
    rng = np.random.default_rng(0)
    rrq = generate_rrq(bundle, analysts, per_analyst, seed=0)
    bfs = [sql for attr in ordered_attributes(bundle)[:2]
           for sql in bfs_style_queries(bundle, attr)]

    def sql(k: int, rrq_sql: str) -> str:
        if pair is not None and k % 10 == 4:
            first, second = pair
            return (f"SELECT COUNT(*) FROM adult WHERE {first} >= 20 "
                    f"AND {first} <= {40 + k % 7} AND {second} >= 0 "
                    f"AND {second} <= 10")
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
    row_totals: dict
    table_total: float
    cache: dict


def replay(bundle, streams, *, views=(), batch=16, epsilon=12.0,
           max_cached_synopses=None, **kwargs) -> Replay:
    """``streams`` batched on one caller thread with one integer seed."""
    service = build_service(bundle, len(streams), epsilon,
                            max_cached_synopses=max_cached_synopses,
                            **kwargs)
    try:
        for attrs in views:
            service.engine.register_view(attrs)
        outcomes = []
        for name, stream in streams.items():
            session = service.open_session(name)
            for start in range(0, len(stream), batch):
                outcomes += map(outcome, service.submit_batch(
                    session, stream[start:start + batch]))
        snap = service.snapshot()
        provenance = service.engine.provenance
        return Replay(outcomes, snap["service"]["epsilon_by_analyst"],
                      snap["service"]["fresh_releases"],
                      snap["service"]["failed"],
                      {name: provenance.row_total(name) for name in streams},
                      snap["provenance"]["table_total"],
                      snap["synopsis_cache"])
    finally:
        service.close()


def assert_replays_match(first: Replay, second: Replay) -> None:
    assert second.outcomes == first.outcomes        # bitwise: float ==
    assert second.epsilon == first.epsilon
    assert second.fresh == first.fresh
    assert second.failed == first.failed == 0
    assert second.row_totals == first.row_totals
    assert second.table_total == first.table_total
    assert second.cache == first.cache


@pytest.fixture(scope="module")
def mixed(bundle):
    return mixed_streams(bundle, make_service_analysts(4), 20)


@pytest.fixture(scope="module")
def disjoint(bundle):
    analysts = make_service_analysts(4)
    views = disjoint_view_attribute_sets(bundle, len(analysts))
    return build_disjoint_workload(bundle, analysts, 20, views), views


# -- bit-identical replays ---------------------------------------------------

def test_mixed_replay_is_bit_identical(bundle, mixed):
    first = replay(bundle, mixed)
    assert first.fresh > 0
    assert_replays_match(first, replay(bundle, mixed))


def test_disjoint_replay_is_bit_identical(bundle, disjoint):
    streams, views = disjoint
    first = replay(bundle, streams, views=views)
    assert first.fresh > 0
    assert_replays_match(first, replay(bundle, streams, views=views))


def test_cache_statistics_replay_identically(bundle):
    """Repeats come from the synopsis cache and the fast lane; a second
    service replaying the same stream counts the same hits and misses."""

    def run():
        service = build_service(bundle)
        try:
            values = []
            for name in ("analyst_00", "analyst_01"):
                session = service.open_session(name)
                for _ in range(2):
                    responses = service.submit_batch(
                        session, request_batch(bundle, 2e5))
                    responses.append(service.submit(session, SCALAR_SQL,
                                                    accuracy=2e5))
                    values += [r.answer.value for r in responses]
            snap = service.snapshot()
            return (values,
                    {key: snap["synopsis_cache"][key]
                     for key in ("hits", "misses", "evictions")},
                    (snap["fast_lane"]["hits"], snap["fast_lane"]["misses"]))
        finally:
            service.close()

    first = run()
    assert first[1]["hits"] > 0 and first[2][0] > 0
    assert run() == first


# -- driven to the cap (Fig. 3's exhaustion life cycle) ----------------------

@pytest.fixture(scope="module")
def to_the_cap(bundle):
    return mixed_streams(bundle, make_service_analysts(4), 80)


def test_stream_past_the_cap_replays_bit_identically(bundle, to_the_cap):
    first = replay(bundle, to_the_cap, epsilon=3.0)
    refusals = [o for o in first.outcomes if o[0] is True]
    assert refusals, "the stream never reached an analyst's constraint"
    assert all("exceed" in error for _, error in refusals)
    assert_replays_match(first, replay(bundle, to_the_cap, epsilon=3.0))


def test_bounded_store_replay_past_the_cap_is_bit_identical(bundle):
    """Three synopsis slots for many more views: cross-view LRU eviction
    decides which answers need a fresh release.  Groups run in plan
    order, so the eviction order, and with it every draw, is the same
    on every run."""
    pair = tuple(ordered_attributes(bundle)[:2])
    streams = mixed_streams(bundle, make_service_analysts(4), 80, pair=pair)
    runs = [replay(bundle, streams, views=(pair,), epsilon=3.0,
                   max_cached_synopses=3) for _ in range(2)]
    first = runs[0]
    assert first.cache["evictions"] > 0
    assert any(o[0] is True for o in first.outcomes), \
        "the stream never reached an analyst's constraint"
    assert any(isinstance(o[0], tuple) for o in first.outcomes)
    assert_replays_match(first, runs[1])


@pytest.mark.parametrize("mechanism", ["additive", "vanilla"])
def test_stream_past_the_cap_never_overspends_a_row(bundle, to_the_cap,
                                                    mechanism):
    service = build_service(bundle, 4, 3.0, max_cached_synopses=None,
                            mechanism=mechanism)
    try:
        refused = 0
        for name, stream in to_the_cap.items():
            session = service.open_session(name)
            for start in range(0, len(stream), 16):
                responses = service.submit_batch(session,
                                                 stream[start:start + 16])
                assert all(r.error is None or r.rejected
                           for r in responses), \
                    [r.error for r in responses if not r.rejected]
                refused += sum(r.rejected for r in responses)
        assert refused > 0
        constraints = service.engine.constraints
        provenance = service.engine.provenance
        for name in to_the_cap:
            assert provenance.row_total(name) <= \
                constraints.analyst_limit(name) + 1e-9
        assert service.snapshot()["service"]["failed"] == 0
    finally:
        service.close()


# -- serving surface ---------------------------------------------------------

def test_single_query_and_batch_answer(bundle):
    service = build_service(bundle)
    try:
        session = service.open_session("analyst_00")
        response = service.submit(session, SCALAR_SQL, accuracy=2e5)
        assert response.ok, response.error
        batch = service.submit_batch(session, request_batch(bundle, 2e5))
        assert all(r.answer is not None for r in batch), \
            [r.error for r in batch if r.error]
        assert "backend" not in service.snapshot()
    finally:
        service.close()


def test_group_by_answers(bundle):
    service = build_service(bundle)
    try:
        session = service.open_session("analyst_00")
        response = service.submit(
            session, "SELECT sex, COUNT(*) FROM adult GROUP BY sex",
            accuracy=1500.0)
        assert response.ok, response.error
        assert response.groups is not None and len(response.groups) >= 2
    finally:
        service.close()


def test_view_registered_after_traffic_answers(bundle):
    """A view added to a serving engine joins routing at once."""
    service = build_service(bundle)
    try:
        session = service.open_session("analyst_00")
        warm = service.submit_batch(session, request_batch(bundle, 2e5))
        assert all(r.answer is not None for r in warm)
        first, second = ordered_attributes(bundle)[:2]
        # A two-attribute marginal: only the late view can answer a
        # predicate over both attributes at once.
        name = service.engine.register_view((first, second))
        late = service.submit_batch(
            session, [QueryRequest(
                f"SELECT COUNT(*) FROM adult WHERE {first} >= 20 "
                f"AND {first} <= 40 AND {second} >= 0 "
                f"AND {second} <= 10", accuracy=2e5)])
        assert late[0].answer is not None, late[0].error
        assert late[0].answer.view_name == name
        assert late[0].lineage.source == "fresh"
    finally:
        service.close()


def test_batch_answers_come_back_in_request_order(bundle):
    """Requests over different views interleave in the batch; the plan
    regroups them per view, and each response still lands at its
    request's index."""
    group_by = "SELECT sex, COUNT(*) FROM adult GROUP BY sex"
    sqls = [SCALAR_SQL, group_by,
            "SELECT COUNT(*) FROM adult WHERE age >= 30 AND age <= 50",
            group_by, SCALAR_SQL]
    service = build_service(bundle)
    try:
        session = service.open_session("analyst_00")
        responses = service.submit_batch(
            session, [QueryRequest(sql, accuracy=2e5) for sql in sqls])
        assert [r.index for r in responses] == list(range(len(sqls)))
        for sql, response in zip(sqls, responses):
            assert response.error is None, response.error
            if sql == group_by:
                assert response.answer is None
                assert len(response.groups) >= 2
            else:
                assert response.groups is None
                assert response.answer is not None
    finally:
        service.close()


def test_batch_runs_its_view_groups_in_plan_order_on_the_caller(
        bundle, monkeypatch):
    from repro.service import service as service_module

    plans, calls = [], []
    plan_batch = service_module.plan_batch
    execute = service_module.execute_planned_group

    def recording_plan(engine, batch):
        plans.append(plan_batch(engine, batch))
        return plans[-1]

    def recording_execute(engine, analyst, view_name, items, responses):
        calls.append((view_name, threading.get_ident()))
        return execute(engine, analyst, view_name, items, responses)

    monkeypatch.setattr(service_module, "plan_batch", recording_plan)
    monkeypatch.setattr(service_module, "execute_planned_group",
                        recording_execute)
    service = build_service(bundle)
    try:
        session = service.open_session("analyst_00")
        responses = service.submit_batch(session, request_batch(bundle, 2e5))
        assert all(r.answer is not None for r in responses)
    finally:
        service.close()
    (plan,) = plans
    expected = list(dict.fromkeys(item.view_name for item in plan.ordered))
    assert len(expected) >= 2
    assert [view for view, _ in calls] == expected
    assert {ident for _, ident in calls} == {threading.get_ident()}


def test_an_error_in_a_view_group_reaches_the_caller(bundle, monkeypatch):
    """A group that raises stops its batch with that error; the service
    keeps answering afterwards."""
    from repro.service import service as service_module

    execute = service_module.execute_planned_group
    seen = []

    def failing_second_group(engine, analyst, view_name, items, responses):
        seen.append(view_name)
        if len(seen) == 2:
            raise RuntimeError("boom")
        return execute(engine, analyst, view_name, items, responses)

    service = build_service(bundle)
    try:
        session = service.open_session("analyst_00")
        with monkeypatch.context() as patch:
            patch.setattr(service_module, "execute_planned_group",
                          failing_second_group)
            with pytest.raises(RuntimeError, match="boom"):
                service.submit_batch(session, request_batch(bundle, 2e5))
        assert len(seen) == 2
        after = service.submit_batch(session, request_batch(bundle, 2e5))
        assert all(r.answer is not None for r in after), \
            [r.error for r in after if r.error]
    finally:
        service.close()


def test_closed_service_refuses_batches(bundle):
    service = build_service(bundle)
    session = service.open_session("analyst_00")
    service.close()
    with pytest.raises(ServiceClosed):
        service.submit_batch(session, request_batch(bundle, 2e5))


# -- construction -------------------------------------------------------------

def test_a_generator_seed_replays_like_its_int(bundle, mixed):
    """Every draw comes from the one seeded generator, so handing the
    engine ``default_rng(0)`` instead of ``0`` changes nothing."""
    assert_replays_match(replay(bundle, mixed),
                         replay(bundle, mixed, seed=np.random.default_rng(0)))


def test_releases_draw_from_the_generator_the_engine_was_given(bundle):
    rng = np.random.default_rng(0)
    service = build_service(bundle, seed=rng)
    try:
        assert service.engine.mechanism.rng is rng
        state = rng.bit_generator.state
        session = service.open_session("analyst_00")
        assert service.submit(session, SCALAR_SQL, accuracy=2e5).ok
        assert rng.bit_generator.state != state
    finally:
        service.close()


def test_another_seed_changes_the_answers_but_not_the_accounting(bundle,
                                                                 mixed):
    first, other = replay(bundle, mixed), replay(bundle, mixed, seed=1)
    answers = [o[0] for o in first.outcomes if isinstance(o[0], float)]
    assert answers
    assert [o[0] for o in other.outcomes
            if isinstance(o[0], float)] != answers
    assert other.epsilon == first.epsilon
    assert other.fresh == first.fresh


def test_combine_local_requires_the_additive_mechanism(bundle):
    with pytest.raises(ReproError, match="combine_local"):
        build_service(bundle, mechanism="vanilla", combine_local=True)
