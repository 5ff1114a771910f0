"""The request streams and roster in :mod:`repro.workloads.service`.

The service, server and concurrency suites replay these streams
and lean on their properties without restating them: the roster's names
and privilege ladder, the BFS tree the static BFS stream lays out, and
the disjoint-view workload's promise that analyst ``i``'s queries are
answerable by wide view ``i`` alone.  Each property is pinned here.
"""

from __future__ import annotations

import pytest

from repro import QueryService
from repro.datasets import load_adult
from repro.db.sql.parser import parse
from repro.exceptions import ReproError
from repro.workloads.rrq import ordered_attributes
from repro.workloads.service import (
    bfs_style_queries,
    build_disjoint_workload,
    disjoint_view_attribute_sets,
    make_service_analysts,
)

ROWS = 800


@pytest.fixture(scope="module")
def bundle():
    return load_adult(num_rows=ROWS, seed=0)


def ranges_of(queries: list[str]) -> list[tuple[int, int]]:
    """The ``BETWEEN`` bounds of single-range counting queries."""
    out = []
    for sql in queries:
        (cond,) = parse(sql).predicate.conditions
        out.append((cond.low, cond.high))
    return out


class TestMakeServiceAnalysts:
    def test_names_are_zero_padded_and_unique(self):
        analysts = make_service_analysts(12)
        assert [a.name for a in analysts] == \
            [f"analyst_{i:02d}" for i in range(12)]

    def test_privileges_cycle_the_ladder(self):
        ladder = (1, 2, 4, 6, 8, 10)
        analysts = make_service_analysts(8)
        assert [a.privilege for a in analysts] == \
            [ladder[i % len(ladder)] for i in range(8)]

    def test_zero_analysts_is_an_empty_roster(self):
        assert make_service_analysts(0) == []


class TestBfsStyleQueries:
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_one_query_per_tree_node(self, bundle, depth):
        # age spans 74 values: every node down to depth 3 still splits.
        assert len(bfs_style_queries(bundle, "age", depth=depth)) == \
            2 ** (depth + 1) - 1

    @pytest.mark.parametrize("attribute", ["age", "education_num",
                                           "hours_per_week"])
    def test_children_partition_their_parent(self, bundle, attribute):
        domain = bundle.database.table("adult").schema.domain(attribute)
        ranges = ranges_of(bfs_style_queries(bundle, attribute, depth=3))
        assert ranges[0] == (domain.low, domain.high)
        level, rest = [ranges[0]], ranges[1:]
        while rest:
            children, rest = rest[:2 * len(level)], rest[2 * len(level):]
            for (lo, hi), (a, b), (c, d) in zip(level, children[0::2],
                                                children[1::2]):
                assert (a, d) == (lo, hi)
                assert b + 1 == c and a <= b < d
            level = children

    def test_single_value_ranges_stop_splitting(self, bundle):
        # education_num spans 16 values: depth 5 bottoms out in leaves.
        ranges = ranges_of(bfs_style_queries(bundle, "education_num",
                                             depth=6))
        assert all(lo <= hi for lo, hi in ranges)
        leaves = [(lo, hi) for lo, hi in ranges if lo == hi]
        assert sorted(leaves) == [(v, v) for v in range(1, 17)]
        assert len(ranges) == len(set(ranges)) == 31

    def test_every_query_runs_on_the_database(self, bundle):
        queries = bfs_style_queries(bundle, "hours_per_week", depth=2)
        counts = [bundle.database.execute(sql).scalar() for sql in queries]
        assert counts[0] == ROWS
        assert counts[1] + counts[2] == counts[0]
        assert counts[3] + counts[4] == counts[1]


class TestDisjointViewAttributeSets:
    def test_sets_are_distinct_and_anchored(self, bundle):
        sets_ = disjoint_view_attribute_sets(bundle, 12)
        assert len(sets_) == 12
        assert len({frozenset(s) for s in sets_}) == 12
        ordered = set(ordered_attributes(bundle))
        for attrs in sets_:
            assert len(attrs) == len(set(attrs)) == 2
            assert attrs[0] in ordered
            assert set(attrs) <= set(bundle.view_attributes)

    def test_rebuilt_sets_are_identical(self, bundle):
        assert disjoint_view_attribute_sets(bundle, 9, width=3) == \
            disjoint_view_attribute_sets(bundle, 9, width=3)
        # A longer roster extends a shorter one: same prefix.
        assert disjoint_view_attribute_sets(bundle, 12)[:5] == \
            disjoint_view_attribute_sets(bundle, 5)

    def test_width_three(self, bundle):
        sets_ = disjoint_view_attribute_sets(bundle, 6, width=3)
        assert all(len(set(attrs)) == 3 for attrs in sets_)
        assert len({frozenset(s) for s in sets_}) == 6

    def test_width_below_two_rejected(self, bundle):
        with pytest.raises(ReproError, match="width >= 2"):
            disjoint_view_attribute_sets(bundle, 2, width=1)

    def test_more_views_than_combinations_rejected(self, bundle):
        with pytest.raises(ReproError, match="could not derive 70"):
            disjoint_view_attribute_sets(bundle, 70)


class TestBuildDisjointWorkload:
    def test_one_stream_per_analyst(self, bundle):
        analysts = make_service_analysts(3)
        sets_ = disjoint_view_attribute_sets(bundle, 3)
        streams = build_disjoint_workload(bundle, analysts, 7, sets_)
        assert list(streams) == [a.name for a in analysts]
        assert all(len(stream) == 7 for stream in streams.values())

    def test_seed_fixes_the_streams(self, bundle):
        analysts = make_service_analysts(2)
        sets_ = disjoint_view_attribute_sets(bundle, 2)

        def texts(seed):
            streams = build_disjoint_workload(bundle, analysts, 10, sets_,
                                              seed=seed)
            return [(r.sql, r.accuracy) for stream in streams.values()
                    for r in stream]

        assert texts(5) == texts(5)
        assert texts(5) != texts(6)

    def test_predicates_cover_the_analysts_set(self, bundle):
        analysts = make_service_analysts(5)
        sets_ = disjoint_view_attribute_sets(bundle, 5, width=3)
        streams = build_disjoint_workload(bundle, analysts, 8, sets_,
                                          seed=2)
        schema = bundle.database.table("adult").schema
        for attrs, stream in zip(sets_, streams.values()):
            for request in stream:
                predicate = parse(request.sql).predicate
                assert set(predicate.columns()) == set(attrs)
                anchor = predicate.conditions[0]
                domain = schema.domain(attrs[0])
                assert anchor.column == attrs[0]
                assert domain.low <= anchor.low <= anchor.high <= domain.high

    def test_accuracy_jitter_stays_within_half_to_double(self, bundle):
        analysts = make_service_analysts(2)
        sets_ = disjoint_view_attribute_sets(bundle, 2)
        streams = build_disjoint_workload(bundle, analysts, 50, sets_,
                                          accuracy=1000.0, seed=3)
        accuracies = [r.accuracy for s in streams.values() for r in s]
        assert all(500.0 <= a <= 2000.0 for a in accuracies)
        assert len(set(accuracies)) == len(accuracies)

    def test_analysts_beyond_the_sets_wrap_around(self, bundle):
        analysts = make_service_analysts(4)
        sets_ = disjoint_view_attribute_sets(bundle, 2)
        streams = build_disjoint_workload(bundle, analysts, 4, sets_,
                                          seed=1)
        for i, stream in enumerate(streams.values()):
            for request in stream:
                assert set(parse(request.sql).predicate.columns()) == \
                    set(sets_[i % 2])

    def test_only_the_analysts_view_answers(self, bundle):
        analysts = make_service_analysts(4)
        sets_ = disjoint_view_attribute_sets(bundle, 4)
        service = QueryService.build(bundle, analysts, 8.0, seed=0)
        try:
            views = [service.engine.register_view(attrs) for attrs in sets_]
            streams = build_disjoint_workload(bundle, analysts, 12, sets_,
                                              seed=4)
            for view, stream in zip(views, streams.values()):
                for request in stream:
                    compiled = service.engine.compile_statement(request.sql)
                    assert compiled.view.name == view
                    assert bundle.database.execute(
                        request.sql).scalar() >= 0
        finally:
            service.close()
