"""Tests for the multi-attribute (cross-product) BFS task."""

from __future__ import annotations

import pytest

from repro import Analyst, DProvDB
from repro.exceptions import ReproError
from repro.workloads.bfs import run_bfs_workload
from repro.workloads.bfs_grid import (
    BfsGridExplorer,
    _split,
    _widest_dimension,
    make_grid_explorers,
)


class TestRegionMechanics:
    def test_widest_dimension(self):
        region = (("a", 0, 9), ("b", 0, 99))
        assert _widest_dimension(region) == 1

    def test_widest_dimension_none_splittable(self):
        region = (("a", 3, 3), ("b", 7, 7))
        assert _widest_dimension(region) == -1

    def test_split_halves_widest(self):
        region = (("a", 0, 9), ("b", 0, 99))
        left, right = _split(region)
        assert left == (("a", 0, 9), ("b", 0, 49))
        assert right == (("a", 0, 9), ("b", 50, 99))

    def test_split_preserves_coverage(self):
        region = (("a", 0, 10),)
        left, right = _split(region)
        (_, l_lo, l_hi), = left
        (_, r_lo, r_hi), = right
        assert l_lo == 0 and r_hi == 10 and r_lo == l_hi + 1


class TestExplorer:
    def _explorer(self, threshold=10.0):
        return BfsGridExplorer(
            analyst="a", table="t", attributes=("x", "y"),
            root=(("x", 0, 7), ("y", 0, 3)),
            threshold=threshold, accuracy=1.0,
        )

    def test_sql_is_conjunctive_ranges(self):
        sql = self._explorer().next_sql()
        assert "x BETWEEN 0 AND 7" in sql
        assert "y BETWEEN 0 AND 3" in sql
        assert " AND " in sql

    def test_high_count_splits_widest(self):
        explorer = self._explorer()
        explorer.consume(100.0)
        assert list(explorer.frontier) == [
            (("x", 0, 3), ("y", 0, 3)),
            (("x", 4, 7), ("y", 0, 3)),
        ]

    def test_low_count_reports_region(self):
        explorer = self._explorer()
        explorer.consume(5.0)
        assert explorer.done
        assert explorer.regions_found == [(("x", 0, 7), ("y", 0, 3))]

    def test_rejection_kills_branch(self):
        explorer = self._explorer()
        explorer.consume(None)
        assert explorer.done
        assert explorer.queries_rejected == 1

    def test_unit_cell_never_splits(self):
        explorer = BfsGridExplorer(
            analyst="a", table="t", attributes=("x",),
            root=(("x", 5, 5),), threshold=1.0, accuracy=1.0,
        )
        explorer.consume(100.0)
        assert explorer.done

    def test_requires_attributes(self):
        with pytest.raises(ReproError):
            BfsGridExplorer(analyst="a", table="t", attributes=(),
                            root=(), threshold=1.0, accuracy=1.0)


class TestFactoryAndIntegration:
    def test_factory_uses_full_domains(self, adult_bundle, analysts):
        explorers = make_grid_explorers(
            adult_bundle, analysts, ("age", "education_num"),
        )
        assert len(explorers) == 2
        assert explorers[0].root == (("age", 17, 90), ("education_num", 1, 16))

    def test_factory_bounds_validated(self, adult_bundle, analysts):
        with pytest.raises(ReproError):
            make_grid_explorers(adult_bundle, analysts, ("age",),
                                bounds={"age": (0, 200)})

    def test_factory_rejects_categorical(self, adult_bundle, analysts):
        with pytest.raises(ReproError):
            make_grid_explorers(adult_bundle, analysts, ("sex",))

    def test_runs_against_engine_with_marginal_view(self, adult_bundle,
                                                    analysts):
        engine = DProvDB(adult_bundle, analysts, epsilon=6.4, seed=8)
        engine.register_view(("age", "education_num"))
        explorers = make_grid_explorers(
            adult_bundle, analysts, ("age", "education_num"),
            threshold=400.0, accuracy=90000.0,
        )
        trace = run_bfs_workload(engine, explorers, max_steps=400)
        assert trace.total_answered > 0
        # Found regions really are sparse (within noise) in the exact data.
        for explorer in explorers:
            for region in explorer.regions_found[:5]:
                conditions = " AND ".join(
                    f"{attr} BETWEEN {lo} AND {hi}"
                    for attr, lo, hi in region
                )
                exact = adult_bundle.database.execute(
                    f"SELECT COUNT(*) FROM adult WHERE {conditions}"
                ).scalar()
                assert exact <= 400.0 + 6 * 300.0  # threshold + noise slack

    def test_all_queries_share_one_view(self, adult_bundle, analysts):
        engine = DProvDB(adult_bundle, analysts, epsilon=6.4, seed=8)
        name = engine.register_view(("age", "education_num"))
        explorers = make_grid_explorers(
            adult_bundle, analysts, ("age", "education_num"),
            threshold=400.0, accuracy=90000.0,
        )
        answers = []
        try_submit = engine.try_submit

        def recording(*args, **kwargs):
            answer = try_submit(*args, **kwargs)
            if answer is not None:
                answers.append(answer)
            return answer

        engine.try_submit = recording
        run_bfs_workload(engine, explorers, max_steps=120)
        assert answers
        assert {answer.view_name for answer in answers} == {name}
