"""E5 / E10 — Figures 6 and 11: additive GM vs vanilla, constraint settings.

Two sweeps: utility versus the number of analysts (fixed epsilon), and
utility versus epsilon (two analysts), comparing ``DProvDB-l_max`` (Def. 11),
``DProvDB-l_sum`` (additive mechanism with Def. 10 constraints) and
``Vanilla-l_sum`` (Def. 10).  The paper's headline: the additive approach's
advantage grows with the number of analysts (~2-4x at six analysts).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dp.rng import stable_seed
from repro.experiments.end_to_end import load_bundle
from repro.experiments.reporting import format_table
from repro.experiments.runner import run_workload
from repro.experiments.systems import default_analysts, make_system
from repro.workloads.rrq import generate_rrq
from repro.workloads.scheduler import interleave_round_robin

COMPARED = ("dprovdb", "dprovdb_lsum", "vanilla")
LEGEND = {"dprovdb": "DProvDB-l_max", "dprovdb_lsum": "DProvDB-l_sum",
          "vanilla": "Vanilla-l_sum"}


@dataclass(frozen=True)
class ComponentCell:
    system: str
    num_analysts: int
    epsilon: float
    answered: float


def _privileges_for(count: int) -> tuple[int, ...]:
    """Privilege ladder 1..count capped at 10 (2 analysts -> (1, 4) default)."""
    if count == 2:
        return (1, 4)
    return tuple(min(10, 1 + i) for i in range(count))


def run_analyst_sweep(dataset: str = "adult",
                      analyst_counts: tuple[int, ...] = (2, 3, 4, 5, 6),
                      epsilon: float = 3.2,
                      queries_per_analyst: int = 200,
                      accuracy: float = 10000.0, repeats: int = 2,
                      num_rows: int | None = None,
                      seed: int = 0) -> list[ComponentCell]:
    """Left panel of Fig. 6 / Fig. 11: utility vs #analysts."""
    cells: list[ComponentCell] = []
    for count in analyst_counts:
        analysts = default_analysts(_privileges_for(count))
        for system_name in COMPARED:
            counts = []
            for repeat in range(repeats):
                run_seed = stable_seed("fig6a", system_name, count, repeat,
                                       seed)
                bundle = load_bundle(dataset, num_rows, seed)
                workload = generate_rrq(
                    bundle, analysts, queries_per_analyst, accuracy=accuracy,
                    seed=stable_seed("rrq6", count, seed),
                )
                items = interleave_round_robin(workload)
                system = make_system(system_name, bundle, analysts, epsilon,
                                     seed=run_seed)
                result = run_workload(system, items, epsilon, "round_robin")
                counts.append(result.total_answered)
            cells.append(ComponentCell(system_name, count, epsilon,
                                       float(np.mean(counts))))
    return cells


def run_epsilon_sweep(dataset: str = "adult",
                      epsilons: tuple[float, ...] = (0.8, 1.6, 3.2, 6.4),
                      queries_per_analyst: int = 200,
                      accuracy: float = 10000.0, repeats: int = 2,
                      num_rows: int | None = None,
                      seed: int = 0) -> list[ComponentCell]:
    """Right panel of Fig. 6 / Fig. 11: utility vs epsilon, two analysts."""
    analysts = default_analysts((1, 4))
    cells: list[ComponentCell] = []
    for epsilon in epsilons:
        for system_name in COMPARED:
            counts = []
            for repeat in range(repeats):
                run_seed = stable_seed("fig6b", system_name, epsilon, repeat,
                                       seed)
                bundle = load_bundle(dataset, num_rows, seed)
                workload = generate_rrq(
                    bundle, analysts, queries_per_analyst, accuracy=accuracy,
                    seed=stable_seed("rrq6b", seed),
                )
                items = interleave_round_robin(workload)
                system = make_system(system_name, bundle, analysts, epsilon,
                                     seed=run_seed)
                result = run_workload(system, items, epsilon, "round_robin")
                counts.append(result.total_answered)
            cells.append(ComponentCell(system_name, 2, epsilon,
                                       float(np.mean(counts))))
    return cells


def run_additive_vs_vanilla(
        analyst_counts: tuple[int, ...] = (2, 3, 4, 5, 6),
        epsilons: tuple[float, ...] = (0.8, 1.6, 3.2, 6.4),
        **common) -> tuple[list[ComponentCell], list[ComponentCell]]:
    """Both panels of Fig. 6 / Fig. 11; an empty sweep leaves its panel
    empty.  ``common`` goes to both sweeps."""
    return (run_analyst_sweep(analyst_counts=analyst_counts, **common),
            run_epsilon_sweep(epsilons=epsilons, **common))


def format_additive_vs_vanilla(panels) -> str:
    return "\n\n".join(format_component(cells, by=by) for cells, by
                       in zip(panels, ("num_analysts", "epsilon")) if cells)


def format_component(cells: list[ComponentCell], by: str = "num_analysts") -> str:
    keys = sorted({getattr(c, by) for c in cells})
    systems = list(dict.fromkeys(c.system for c in cells))
    rows = []
    for system in systems:
        row = [LEGEND.get(system, system)]
        for key in keys:
            cell = next(c for c in cells
                        if c.system == system and getattr(c, by) == key)
            row.append(cell.answered)
        rows.append(row)
    label = "#analysts" if by == "num_analysts" else "eps"
    return format_table(
        ["system"] + [f"{label}={k}" for k in keys], rows,
        title=f"additive GM vs vanilla: #answered by {label}",
    )


__all__ = ["COMPARED", "ComponentCell", "format_additive_vs_vanilla",
           "format_component", "run_additive_vs_vanilla",
           "run_analyst_sweep", "run_epsilon_sweep"]
