"""The figure table: one entry per paper artifact.

Both ``repro <name>`` (:mod:`repro.cli`) and ``tests/test_paper_figures.py``
read :data:`FIGURES`, so an artifact's runner, its CLI options, its
bench-scale cases and its shape check are written down once.  Each check
docstring says exactly what the check asserts, no more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.experiments import ablations
from repro.experiments.additive_vs_vanilla import (
    format_additive_vs_vanilla,
    run_additive_vs_vanilla,
)
from repro.experiments.bfs_budget import format_bfs_budget, run_bfs_budget
from repro.experiments.cached_synopses import (
    format_cached_synopses,
    run_cached_synopses,
)
from repro.experiments.collusion import format_collusion, run_collusion
from repro.experiments.constraint_expansion import (
    format_constraint_expansion,
    run_constraint_expansion,
)
from repro.experiments.delta_sweep import format_delta_sweep, run_delta_sweep
from repro.experiments.end_to_end import format_end_to_end, run_end_to_end
from repro.experiments.runtime_table import (
    format_runtime_table,
    run_runtime_table,
)
from repro.experiments.scalability import format_scalability, run_scalability
from repro.experiments.translation_validation import (
    format_translation_validation,
    run_translation_validation,
)


@dataclass(frozen=True)
class Figure:
    """One paper artifact.

    ``run(**kwargs)`` regenerates it, ``format(result, kwargs)`` renders
    the result as text and ``check(result, kwargs)`` asserts its shape.
    ``cases`` maps a test id to the bench-scale ``run`` kwargs of that
    test.  ``cli`` maps the CLI options named by its parameters to ``run``
    kwargs; ``None`` means the artifact has no subcommand.
    """

    help: str
    run: Callable[..., Any]
    format: Callable[[Any, dict], str]
    check: Callable[[Any, dict], None]
    cases: dict[str, dict]
    cli: Callable[..., dict] | None = None


def _per_analyst(dataset, rows, queries, repeats, seed):
    return dict(dataset=dataset, num_rows=rows, queries_per_analyst=queries,
                repeats=repeats, seed=seed)


def _bfs(dataset, rows, queries, seed):
    """A BFS walk runs ten steps per CLI query."""
    return dict(dataset=dataset, num_rows=rows, max_steps=queries * 10,
                seed=seed)


def _rq1(dataset, rows, queries, seed):
    return dict(dataset=dataset, num_rows=rows, queries_per_analyst=queries,
                seed=seed)


def _fig5(dataset, rows, repeats, seed):
    return dict(dataset=dataset, num_rows=rows, repeats=repeats, seed=seed)


def _runtime_on(dataset):
    def cli(rows, queries, repeats, seed):
        return _per_analyst(dataset, rows, queries, repeats, seed)
    return cli


def _answered(cells, **fields):
    """``answered`` of the one cell whose ``fields`` have these values."""
    return next(c.answered for c in cells
                if all(getattr(c, k) == v for k, v in fields.items()))


def _check_collusion(cells, kwargs):
    """At 2, 4 and 6 analysts the additive bound is below vanilla's and
    vanilla's equals the sum of the row budgets; from 2 to 6 analysts the
    additive bound grows at most 1.5x and vanilla's more than 1.8x."""
    def cell(mechanism, count):
        return next(c for c in cells if c.mechanism == mechanism
                    and c.num_analysts == count)

    for count in (2, 4, 6):
        additive, vanilla = cell("dprovdb", count), cell("vanilla", count)
        assert additive.collusion_bound < vanilla.collusion_bound
        # Equal within pytest.approx's default tolerance.
        assert abs(vanilla.collusion_bound - vanilla.sum_rows) <= max(
            1e-6 * abs(vanilla.sum_rows), 1e-12)
    assert cell("dprovdb", 6).collusion_bound <= \
        cell("dprovdb", 2).collusion_bound * 1.5
    assert cell("vanilla", 6).collusion_bound > \
        cell("vanilla", 2).collusion_bound * 1.8


def _check_end_to_end(cells, kwargs):
    """At eps 0.4, 0.8 and 1.6, DProvDB answers at least 0.95x Vanilla and
    more than Chorus: on both schedules for Fig. 3 (Adult), round-robin
    only for Fig. 10 (TPC-H).  Nothing is asserted about sPrivateSQL or
    about eps >= 3.2; sPrivateSQL answering more than DProvDB there is
    open (ROADMAP item 2)."""
    schedules = (("round_robin", "random") if kwargs["dataset"] == "adult"
                 else ("round_robin",))
    for schedule in schedules:
        for eps in (0.4, 0.8, 1.6):
            dprovdb = _answered(cells, system="dprovdb", epsilon=eps,
                                schedule=schedule)
            assert dprovdb >= _answered(cells, system="vanilla", epsilon=eps,
                                        schedule=schedule) * 0.95
            assert dprovdb > _answered(cells, system="chorus", epsilon=eps,
                                       schedule=schedule)


def _check_bfs_budget(series, kwargs):
    """DProvDB's and Vanilla's budget grows no more over the second half of
    the BFS walk than over the first."""
    by_name = {s.system: s for s in series}
    for view_based in ("dprovdb", "vanilla"):
        budgets = by_name[view_based].budgets
        mid = len(budgets) // 2
        assert budgets[-1] - budgets[mid] <= max(
            budgets[mid] - budgets[0], 1e-9)


def _check_cached_synopses(cells, kwargs):
    """At eps 1.6 and 6.4, DProvDB answers more of 2400 queries than of
    100, and more than Chorus at 2400; Chorus answers at most 1.5x + 5 of
    what it answers at 400."""
    for eps in (1.6, 6.4):
        def answered(system, size):
            return _answered(cells, system=system, epsilon=eps,
                             workload_size=size)

        assert answered("dprovdb", 2400) > answered("dprovdb", 100)
        assert answered("dprovdb", 2400) > answered("chorus", 2400)
        assert answered("chorus", 2400) <= answered("chorus", 400) * 1.5 + 5


def _check_additive_vs_vanilla(panels, kwargs):
    """By #analysts: on Adult (Fig. 6) the DProvDB/Vanilla ratio is larger
    at 6 analysts than at 2 and DProvDB answers more than 1.5x Vanilla at
    6; on TPC-H (Fig. 11) DProvDB answers more than Vanilla at 6.  By eps,
    on Adult only: DProvDB answers at least 0.9x the best other system."""
    by_analysts, by_epsilon = panels
    adult = kwargs["dataset"] == "adult"
    if by_analysts:
        def answered(system, count):
            return _answered(by_analysts, system=system, num_analysts=count)

        if adult:
            ratio_2 = answered("dprovdb", 2) / max(1.0, answered("vanilla", 2))
            ratio_6 = answered("dprovdb", 6) / max(1.0, answered("vanilla", 6))
            assert ratio_6 > ratio_2
            assert answered("dprovdb", 6) > 1.5 * answered("vanilla", 6)
        else:
            assert answered("dprovdb", 6) > answered("vanilla", 6)
    if by_epsilon and adult:
        for eps in (0.8, 1.6, 3.2, 6.4):
            best = _answered(by_epsilon, system="dprovdb", epsilon=eps)
            others = [c.answered for c in by_epsilon
                      if c.system != "dprovdb" and c.epsilon == eps]
            assert best >= max(others) * 0.9


def _check_constraint_expansion(cells, kwargs):
    """Averaged over every eps and schedule, tau = 1.9 answers at least as
    many as tau = 1.0, with nDCFG at most 0.05 above tau = 1.0's."""
    def mean(metric, tau):
        return float(np.mean([getattr(c, metric) for c in cells
                              if c.tau == tau]))

    assert mean("answered", 1.9) >= mean("answered", 1.0)
    assert mean("ndcfg", 1.9) <= mean("ndcfg", 1.0) + 0.05


def _check_delta_sweep(cells, kwargs):
    """Averaged over schedules, DProvDB and Vanilla answer at least 0.95x
    as many at delta = 1e-9 as at delta = 1e-13."""
    def mean_answered(system, delta):
        return float(np.mean([c.answered for c in cells
                              if c.system == system and c.delta == delta]))

    for system in ("dprovdb", "vanilla"):
        assert mean_answered(system, 1e-9) >= \
            mean_answered(system, 1e-13) * 0.95


def _check_translation(reports, kwargs):
    """Every system answers something, every answer's variance v_q met its
    requirement v_i, and the cumulative mean of v_q - v_i ends <= 0."""
    for report in reports:
        assert report.answered > 0
        assert report.all_within_requirement
        assert report.final_gap <= 0.0


def _check_runtime_tpch(rows, kwargs):
    """Chorus and ChorusP have no setup phase; DProvDB and Vanilla answer a
    query faster than Chorus."""
    by_name = {r.system: r for r in rows}
    assert by_name["chorus"].setup_ms == 0.0
    assert by_name["chorus_p"].setup_ms == 0.0
    assert by_name["dprovdb"].per_query_ms < by_name["chorus"].per_query_ms
    assert by_name["vanilla"].per_query_ms < by_name["chorus"].per_query_ms


def _check_runtime_adult(rows, kwargs):
    """Chorus has no setup phase; DProvDB answers a query faster."""
    by_name = {r.system: r for r in rows}
    assert by_name["chorus"].setup_ms == 0.0
    assert by_name["dprovdb"].per_query_ms < by_name["chorus"].per_query_ms


def _check_accountants(rows, kwargs):
    """zCDP reports at most 1.5x + 1 of basic composition's eps for any
    sequence of more than one release; the additive mechanism touches the
    data no more often than vanilla."""
    for mechanism, releases, basic, zcdp_eps, rdp_eps in rows:
        if releases > 1:
            assert zcdp_eps <= basic * 1.5 + 1.0
    by_name = {r[0]: r for r in rows}
    assert by_name["additive"][1] <= by_name["vanilla"][1]


def _check_hierarchical(rows, kwargs):
    """Dyadic views answer at least as many wide ranges, and spend no more
    unless they answer more."""
    flat, dyadic = rows
    assert dyadic[1] >= flat[1]
    assert dyadic[2] <= flat[2] + 1e-9 or dyadic[1] > flat[1]


def _check_local_combine(rows, kwargs):
    """Combining local synopses gives a smaller mean realised/requested
    variance ratio and answers at least as many junior queries."""
    discard, combine = rows
    assert combine[2] < discard[2]
    assert combine[1] >= discard[1]


def _check_strawman(rows, kwargs):
    """DProvDB answers at least as many queries as the seeded cache."""
    by_name = {r[0]: r for r in rows}
    assert by_name["dprovdb"][1] >= by_name["seeded_cache"][1]


def _check_zcdp_composition(rows, kwargs):
    """zCDP-composed constraints answer more queries than basic ones."""
    basic, zcdp = rows
    assert zcdp[1] > basic[1]


def _check_scalability(rows, kwargs):
    """From 2 to 32 analysts per-query latency grows less than 4x (against
    a 0.05 ms floor) and the provenance matrix grows exactly 16x."""
    by_count = {r.num_analysts: r for r in rows}
    assert by_count[32].per_query_ms < 4 * max(by_count[2].per_query_ms,
                                               0.05)
    assert by_count[32].matrix_entries == 16 * by_count[2].matrix_entries


_EPSILONS = (0.4, 0.8, 1.6, 3.2, 6.4)
_ANALYSTS = (2, 3, 4, 5, 6)
_SCHEDULES = ("round_robin", "random")
_BENCH = dict(num_rows=12000, seed=0)
_SWEEP = dict(queries_per_analyst=150, repeats=2, **_BENCH)


def _ablation(help, run, format, check, case):
    return Figure(help, run, lambda rows, kwargs: format(rows), check,
                  {f"ablation_{case}": {}})


#: Every paper artifact, CLI figures first in ``repro list`` order.
FIGURES: dict[str, Figure] = {
    "rq1": Figure(
        "worst-case collusion bounds vs #analysts (RQ1)", run_collusion,
        lambda cells, kwargs: format_collusion(cells), _check_collusion,
        {"rq1_collusion_bounds": dict(
            dataset="adult", analyst_counts=_ANALYSTS, epsilon=20.0,
            queries_per_analyst=50, **_BENCH)},
        cli=_rq1),
    "fig3": Figure(
        "end-to-end RRQ comparison (Fig. 3 / Fig. 10)", run_end_to_end,
        lambda cells, kwargs: format_end_to_end(cells, kwargs["dataset"]),
        _check_end_to_end,
        {f"{name}_end_to_end_{dataset}": dict(
            dataset=dataset, epsilons=_EPSILONS, schedules=_SCHEDULES,
            **_SWEEP)
         for name, dataset in (("fig3", "adult"), ("fig10", "tpch"))},
        cli=_per_analyst),
    "fig4": Figure(
        "BFS cumulative budget (Fig. 4)", run_bfs_budget,
        lambda series, kwargs: format_bfs_budget(series), _check_bfs_budget,
        {f"fig4_bfs_budget_{dataset}": dict(dataset=dataset, max_steps=1500,
                                             **_BENCH)
         for dataset in ("adult", "tpch")},
        cli=_bfs),
    "fig5": Figure(
        "cached synopses vs workload size (Fig. 5)", run_cached_synopses,
        lambda cells, kwargs: format_cached_synopses(cells),
        _check_cached_synopses,
        {"fig5_cached_synopses": dict(
            dataset="adult", epsilons=(0.4, 1.6, 6.4),
            sizes=(100, 400, 1200, 2400), repeats=2, **_BENCH)},
        cli=_fig5),
    "fig6": Figure(
        "additive GM vs vanilla (Fig. 6 / Fig. 11)", run_additive_vs_vanilla,
        lambda panels, kwargs: format_additive_vs_vanilla(panels),
        _check_additive_vs_vanilla,
        {"fig6_analyst_sweep_adult": dict(
            dataset="adult", analyst_counts=_ANALYSTS, epsilons=(), **_SWEEP),
         "fig6_epsilon_sweep_adult": dict(
            dataset="adult", analyst_counts=(), epsilons=(0.8, 1.6, 3.2, 6.4),
            **_SWEEP),
         "fig11_analyst_sweep_tpch": dict(
            dataset="tpch", analyst_counts=_ANALYSTS, epsilons=(), **_SWEEP),
         "fig11_epsilon_sweep_tpch": dict(
            dataset="tpch", analyst_counts=(), epsilons=_EPSILONS, **_SWEEP)},
        cli=_per_analyst),
    "fig7": Figure(
        "constraint expansion tau (Fig. 7)", run_constraint_expansion,
        lambda cells, kwargs: format_constraint_expansion(cells),
        _check_constraint_expansion,
        {"fig7_constraint_expansion": dict(
            dataset="adult", taus=(1.0, 1.3, 1.6, 1.9),
            epsilons=(0.4, 0.8, 1.6, 3.2), schedules=_SCHEDULES, **_SWEEP)},
        cli=_per_analyst),
    "fig8": Figure(
        "delta sweep (Fig. 8)", run_delta_sweep,
        lambda cells, kwargs: format_delta_sweep(cells), _check_delta_sweep,
        # A reduced eps (the paper uses 6.4) so that the budget binds:
        # with slack budget the series is flat.
        {"fig8_delta_sweep": dict(
            dataset="adult", deltas=(1e-13, 1e-12, 1e-11, 1e-10, 1e-9),
            schedules=_SCHEDULES, epsilon=2.0, accuracy=20000.0,
            max_steps=2500, **_BENCH)},
        cli=_bfs),
    "fig9": Figure(
        "translation validation (Fig. 9)", run_translation_validation,
        lambda reports, kwargs: format_translation_validation(reports),
        _check_translation,
        {"fig9_translation_validation": dict(
            dataset="adult", systems=("dprovdb", "vanilla", "chorus",
                                      "chorus_p"),
            epsilon=6.4, max_steps=1500, **_BENCH)},
        cli=_bfs),
    "table1": Figure(
        "runtime comparison on TPC-H (Table 1)", run_runtime_table,
        lambda rows, kwargs: format_runtime_table(rows, kwargs["dataset"]),
        _check_runtime_tpch,
        {"table1_runtime_tpch": dict(
            dataset="tpch", queries_per_analyst=150, repeats=4,
            num_rows=60000, seed=0)},
        cli=_runtime_on("tpch")),
    "table3": Figure(
        "runtime comparison on Adult (Table 3)", run_runtime_table,
        lambda rows, kwargs: format_runtime_table(rows, kwargs["dataset"]),
        _check_runtime_adult,
        # The full 45,224-row Adult.
        {"table3_runtime_adult": dict(
            dataset="adult", queries_per_analyst=150, repeats=4,
            num_rows=None, seed=0)},
        cli=_runtime_on("adult")),
    "accountants": _ablation(
        "basic vs zCDP vs RDP accounting of one release sequence "
        "(Appendix A)", ablations.run_accountants,
        ablations.format_accountants, _check_accountants, "accountants"),
    "hierarchical": _ablation(
        "dyadic views on wide ranges", ablations.run_hierarchical,
        ablations.format_hierarchical, _check_hierarchical,
        "hierarchical_views"),
    "local_combine": _ablation(
        "local-synopsis combination (Sec. 5.2.6)",
        ablations.run_local_combine, ablations.format_local_combine,
        _check_local_combine, "local_combination"),
    "strawman": _ablation(
        "DProvDB vs the strawmen (Sec. 7.2)", ablations.run_strawman,
        ablations.format_strawman, _check_strawman, "strawman"),
    "zcdp_composition": _ablation(
        "basic vs zCDP constraint composition",
        ablations.run_zcdp_composition, ablations.format_zcdp_composition,
        _check_zcdp_composition, "zcdp_composition"),
    "scalability": Figure(
        "provenance overhead vs #analysts (Appendix C.1)", run_scalability,
        lambda rows, kwargs: format_scalability(rows), _check_scalability,
        {"scalability_analyst_count": dict(
            dataset="adult", analyst_counts=(2, 4, 8, 16, 32),
            queries_per_analyst=40, **_BENCH)}),
}


__all__ = ["FIGURES", "Figure"]
