"""Tests for the experiment harness (tiny-scale runs of each regenerator)."""

from __future__ import annotations

import pytest

from repro.experiments.additive_vs_vanilla import (
    format_component,
    run_analyst_sweep,
    run_epsilon_sweep,
)
from repro.experiments.bfs_budget import format_bfs_budget, run_bfs_budget
from repro.experiments.cached_synopses import (
    format_cached_synopses,
    run_cached_synopses,
)
from repro.experiments.constraint_expansion import (
    format_constraint_expansion,
    run_constraint_expansion,
)
from repro.experiments.delta_sweep import format_delta_sweep, run_delta_sweep
from repro.experiments.end_to_end import (
    format_end_to_end,
    load_bundle,
    run_end_to_end,
)
from repro.experiments.reporting import format_table
from repro.experiments.runner import run_workload
from repro.experiments.runtime_table import format_runtime_table, run_runtime_table
from repro.experiments.systems import default_analysts, make_system
from repro.experiments.translation_validation import (
    format_translation_validation,
    run_translation_validation,
)
from repro.dp.gaussian import analytic_gaussian_sigma, minimal_epsilon
from repro.exceptions import ReproError
from repro.workloads.rrq import generate_rrq
from repro.workloads.scheduler import interleave_round_robin

ROWS = 3000


class TestSystemsFactory:
    @pytest.mark.parametrize("name", ["dprovdb", "dprovdb_lsum", "vanilla",
                                      "sprivatesql", "chorus", "chorus_p"])
    def test_factory_builds_every_system(self, adult_bundle, analysts, name):
        system = make_system(name, adult_bundle, analysts, epsilon=1.6, seed=0)
        assert system.name == name
        assert system.setup() >= 0.0

    def test_unknown_system(self, adult_bundle, analysts):
        with pytest.raises(ReproError):
            make_system("bogus", adult_bundle, analysts, 1.0)

    def test_default_analysts(self):
        pair = default_analysts()
        assert [a.privilege for a in pair] == [1, 4]
        six = default_analysts((1, 2, 3, 4, 5, 6))
        assert len(six) == 6

    def test_load_bundle_validates_name(self):
        with pytest.raises(ValueError):
            load_bundle("bogus", None, 0)


class TestRunner:
    def test_run_workload_counts(self, adult_bundle, analysts):
        system = make_system("dprovdb", adult_bundle, analysts, 3.2, seed=0)
        workload = generate_rrq(adult_bundle, analysts, 10, seed=0)
        items = interleave_round_robin(workload)
        result = run_workload(system, items, 3.2, "round_robin")
        assert result.total_answered + result.rejected == len(items)
        assert result.consumed >= 0
        assert 0 <= result.fairness(analysts) <= 10
        assert result.per_query_ms >= 0

    def test_keep_answers(self, adult_bundle, analysts):
        system = make_system("dprovdb", adult_bundle, analysts, 3.2, seed=0)
        workload = generate_rrq(adult_bundle, analysts, 4, seed=0)
        items = interleave_round_robin(workload)
        result = run_workload(system, items, 3.2, "round_robin",
                              keep_answers=True)
        assert len(result.answers) == result.total_answered


class TestEndToEnd:
    def test_cells_and_formatting(self):
        cells = run_end_to_end(
            epsilons=(1.6,), schedules=("round_robin",),
            systems=("dprovdb", "chorus"), queries_per_analyst=15,
            repeats=1, num_rows=ROWS, seed=0,
        )
        assert len(cells) == 2
        report = format_end_to_end(cells)
        assert "dprovdb" in report and "chorus" in report

    def test_view_system_beats_chorus_on_large_workload(self):
        cells = run_end_to_end(
            epsilons=(1.6,), schedules=("round_robin",),
            systems=("dprovdb", "chorus"), queries_per_analyst=80,
            repeats=1, num_rows=ROWS, seed=0,
        )
        by_name = {c.system: c.answered for c in cells}
        assert by_name["dprovdb"] > by_name["chorus"]


class TestPaperShapeColdVersusWarm:
    """The reproduced figures keep their shape, and do not depend on what
    the process translated before: each tiny-scale run is made twice, the
    calibration memo cold and then warm, and every cell must agree."""

    @staticmethod
    def _cold_then_warm(run):
        minimal_epsilon.cache_clear()
        analytic_gaussian_sigma.cache_clear()
        cold = run()
        searched = minimal_epsilon.cache_info().misses
        warm = run()
        assert warm == cold
        assert minimal_epsilon.cache_info().hits > 0
        # dprovdb/vanilla/chorus translate deterministically, so a warm
        # run searches for nothing new.
        assert minimal_epsilon.cache_info().misses == searched
        return cold

    def test_fig3_dprovdb_answers_at_least_each_chorus(self):
        cells = self._cold_then_warm(lambda: run_end_to_end(
            epsilons=(0.8, 3.2), schedules=("round_robin",),
            systems=("dprovdb", "vanilla", "chorus", "chorus_p"),
            queries_per_analyst=40, repeats=1, num_rows=ROWS, seed=0))
        assert len(cells) == 8
        for epsilon in (0.8, 3.2):
            answered = {c.system: c.answered for c in cells
                        if c.epsilon == epsilon}
            assert answered["dprovdb"] >= answered["chorus"]
            assert answered["dprovdb"] >= answered["chorus_p"]
            assert answered["dprovdb"] >= answered["vanilla"]
        assert all(c.consumed > 0 for c in cells)

    def test_fig6_additive_answers_at_least_vanilla(self):
        cells = self._cold_then_warm(lambda: run_epsilon_sweep(
            epsilons=(0.8, 3.2), queries_per_analyst=40, repeats=1,
            num_rows=ROWS, seed=0))
        for epsilon in (0.8, 3.2):
            answered = {c.system: c.answered for c in cells
                        if c.epsilon == epsilon}
            assert answered["dprovdb"] >= answered["vanilla"]


class TestBfsBudget:
    def test_series_shapes(self):
        series = run_bfs_budget(systems=("dprovdb", "chorus"),
                                num_rows=ROWS, max_steps=150, seed=0)
        assert {s.system for s in series} == {"dprovdb", "chorus"}
        for s in series:
            budgets = list(s.budgets)
            assert budgets == sorted(budgets)
        assert "BFS" in format_bfs_budget(series)

    def test_view_budget_flattens_vs_chorus(self):
        series = run_bfs_budget(systems=("dprovdb", "chorus"),
                                num_rows=ROWS, max_steps=400, seed=0)
        by_name = {s.system: s for s in series}
        dprov = by_name["dprovdb"].budgets
        # Second-half growth of DProvDB is tiny relative to first half.
        mid = len(dprov) // 2
        first_half_growth = dprov[mid] - dprov[0]
        second_half_growth = dprov[-1] - dprov[mid]
        assert second_half_growth <= first_half_growth


class TestOtherRegenerators:
    def test_cached_synopses(self):
        cells = run_cached_synopses(
            epsilons=(1.6,), sizes=(20, 60), systems=("dprovdb", "chorus"),
            repeats=1, num_rows=ROWS, seed=0,
        )
        assert len(cells) == 4
        assert "workload size" in format_cached_synopses(cells)

    def test_analyst_sweep(self):
        cells = run_analyst_sweep(analyst_counts=(2, 3),
                                  queries_per_analyst=20, repeats=1,
                                  num_rows=ROWS, seed=0)
        assert {c.num_analysts for c in cells} == {2, 3}
        assert "DProvDB-l_max" in format_component(cells)

    def test_epsilon_sweep(self):
        cells = run_epsilon_sweep(epsilons=(1.6,), queries_per_analyst=20,
                                  repeats=1, num_rows=ROWS, seed=0)
        assert all(c.epsilon == 1.6 for c in cells)
        format_component(cells, by="epsilon")

    def test_constraint_expansion(self):
        cells = run_constraint_expansion(
            taus=(1.0, 1.9), epsilons=(0.8,), schedules=("round_robin",),
            queries_per_analyst=40, repeats=1, num_rows=ROWS, seed=0,
        )
        assert len(cells) == 2
        assert "tau" in format_constraint_expansion(cells)

    def test_delta_sweep(self):
        cells = run_delta_sweep(deltas=(1e-9,), schedules=("round_robin",),
                                num_rows=ROWS, max_steps=120, seed=0)
        assert len(cells) == 2
        assert "delta" in format_delta_sweep(cells)

    def test_runtime_table(self):
        rows = run_runtime_table(dataset="adult",
                                 systems=("dprovdb", "chorus"),
                                 queries_per_analyst=10, repeats=1,
                                 num_rows=ROWS, seed=0)
        assert len(rows) == 2
        report = format_runtime_table(rows, "adult")
        assert "N/A" in report  # chorus has no setup phase

    def test_translation_validation_invariant(self):
        reports = run_translation_validation(
            systems=("dprovdb", "vanilla"), num_rows=ROWS, max_steps=120,
            seed=0,
        )
        for report in reports:
            assert report.answered > 0
            # Fig. 9(a): v_q <= v_i for every answered query.
            assert report.all_within_requirement
        assert "v_q <= v_i" in format_translation_validation(reports)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbb"], [[1, 2.5], ["x", 0.001]],
                            title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "a" in lines[1] and "bbb" in lines[1]
        assert len(lines) == 5
