"""Per-view noise streams: a replay is a function of the seed and of each
view's own release order.

``noise_streams="per_view"`` derives one generator per view from
``(seed, "noise-stream", view name, 0)`` (see
:meth:`repro.core.mechanism.MechanismBase._rng_for`).  The contract
under test:

* the derivation is pinned — every per-view draw is what it has always
  been, so recorded replays stay reproducible;
* a batched replay through :class:`QueryService` is bit-identical across
  fresh services and across shard counts, on the paper's mixed stream
  (RRQs, BFS dyadic ranges, GROUP BYs) and on the disjoint-view stream;
* traffic on one view never moves the draws of another;
* a stream driven past the analysts' constraints (the budget-exhaustion
  life cycle of Fig. 3) replays bit-identically on one shard and never
  overspends a row on many;
* construction refuses a seed whose per-view derivation is undefined.
"""

from __future__ import annotations

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
    kwargs.setdefault("noise_streams", "per_view")
    kwargs.setdefault("seed", 0)
    return QueryService.build(bundle, make_service_analysts(num_analysts),
                              epsilon, **kwargs)


def request_batch(bundle, accuracy, attributes=2, depth=2):
    attrs = ordered_attributes(bundle)[:attributes]
    return [QueryRequest(sql, accuracy=accuracy)
            for attr in attrs
            for sql in bfs_style_queries(bundle, attr, depth=depth)]


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
    row_totals: dict
    table_total: float


def replay(bundle, streams, *, views=(), batch=16, epsilon=12.0,
           **kwargs) -> Replay:
    """``streams`` batched on one caller thread: per-view noise streams,
    an unbounded store and one integer seed make every view's draws a
    function of its own release order."""
    service = build_service(bundle, len(streams), epsilon,
                            max_cached_synopses=None, **kwargs)
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
                      snap["provenance"]["table_total"])
    finally:
        service.close()


def assert_replays_match(first: Replay, second: Replay) -> None:
    assert second.outcomes == first.outcomes        # bitwise: float ==
    assert second.epsilon == pytest.approx(first.epsilon, rel=1e-12)
    assert second.fresh == first.fresh
    assert second.failed == first.failed == 0
    assert abs(second.table_total - first.table_total) <= 1e-9


@pytest.fixture(scope="module")
def mixed(bundle):
    return mixed_streams(bundle, make_service_analysts(4), 20)


@pytest.fixture(scope="module")
def disjoint(bundle):
    analysts = make_service_analysts(4)
    views = disjoint_view_attribute_sets(bundle, len(analysts))
    return build_disjoint_workload(bundle, analysts, 20, views), views


# -- the derivation is pinned ------------------------------------------------

#: ``stable_seed(0, "noise-stream", view, 0)`` as recorded when per-view
#: streams were introduced.  A change here changes every per-view draw.
PINNED_SEEDS = {
    "adult.age": 746574761404874701,
    "adult.sex": 5154438003588840784,
}


@pytest.mark.parametrize("view", sorted(PINNED_SEEDS))
def test_view_stream_seed_is_pinned(bundle, view):
    service = build_service(bundle)
    try:
        stream = service.engine.mechanism._rng_for(view)
        expected = np.random.default_rng(PINNED_SEEDS[view])
        assert stream.standard_normal(4).tolist() == \
            expected.standard_normal(4).tolist()
        assert service.engine.mechanism._rng_for(view) is stream
    finally:
        service.close()


def test_shared_mode_draws_from_the_seeded_generator(bundle):
    service = build_service(bundle, noise_streams="shared")
    try:
        mechanism = service.engine.mechanism
        assert mechanism._rng_for("adult.age") is mechanism.rng
        assert mechanism._rng_for("adult.sex") is mechanism.rng
    finally:
        service.close()


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


@pytest.mark.parametrize("shards", (1, 2, 4))
def test_mixed_replay_is_independent_of_shard_count(bundle, mixed, shards):
    """Per-view groups of one batch run on different shard threads; with
    per-view streams the interleaving cannot change a draw."""
    assert_replays_match(replay(bundle, mixed),
                         replay(bundle, mixed, shards=shards))


@pytest.mark.parametrize("shards", (1, 4))
def test_disjoint_replay_is_independent_of_shard_count(bundle, disjoint,
                                                       shards):
    streams, views = disjoint
    assert_replays_match(replay(bundle, streams, views=views),
                         replay(bundle, streams, views=views,
                                shards=shards))


def test_traffic_on_one_view_never_moves_another_views_draws(bundle):
    """The same scalar stream over ``age`` answers identically whether or
    not an interleaved GROUP BY stream releases noise on ``sex``."""
    age = [QueryRequest(SCALAR_SQL, accuracy=4e4 * 2.0 ** -k)
           for k in range(4)]
    sex = [QueryRequest("SELECT sex, COUNT(*) FROM adult GROUP BY sex",
                        accuracy=1500.0 * 2.0 ** -k) for k in range(4)]

    def age_values(interleave: bool) -> list:
        service = build_service(bundle, max_cached_synopses=None)
        try:
            session = service.open_session("analyst_00")
            values = []
            for k, request in enumerate(age):
                if interleave:
                    other = service.submit_batch(session, [sex[k]])[0]
                    assert other.groups is not None, other.error
                response = service.submit_batch(session, [request])[0]
                assert response.answer is not None, response.error
                values.append(response.answer.value)
            return values
        finally:
            service.close()

    assert age_values(interleave=True) == age_values(interleave=False)


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


def test_stream_past_the_cap_replays_bit_identically_on_one_shard(
        bundle, to_the_cap):
    first = replay(bundle, to_the_cap, epsilon=3.0, shards=1)
    refusals = [o for o in first.outcomes if o[0] is True]
    assert refusals, "the stream never reached an analyst's constraint"
    assert all("exceed" in error for _, error in refusals)
    assert_replays_match(first, replay(bundle, to_the_cap, epsilon=3.0,
                                       shards=1))


@pytest.mark.parametrize("shards", (1, 4))
def test_stream_past_the_cap_never_overspends_a_row(bundle, to_the_cap,
                                                    shards):
    service = build_service(bundle, 4, 3.0, max_cached_synopses=None,
                            shards=shards)
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
    """A view added to a serving engine joins routing at once, and its
    stream starts from its own pinned seed."""
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


def test_closed_service_refuses_batches(bundle):
    service = build_service(bundle)
    session = service.open_session("analyst_00")
    service.close()
    with pytest.raises(ServiceClosed):
        service.submit_batch(session, request_batch(bundle, 2e5))


# -- construction gates ------------------------------------------------------

def test_per_view_streams_refuse_a_generator_seed(bundle):
    with pytest.raises(ReproError, match="per-view"):
        build_service(bundle, seed=np.random.default_rng(0))


@pytest.mark.parametrize("layout", ("per_shard", "", "PER_VIEW"))
def test_unknown_noise_stream_layout_is_refused(bundle, layout):
    with pytest.raises(ReproError, match="noise_streams"):
        build_service(bundle, noise_streams=layout)


def test_combine_local_requires_the_additive_mechanism(bundle):
    with pytest.raises(ReproError, match="combine_local"):
        build_service(bundle, mechanism="vanilla", combine_local=True)
