"""Experiment harness: one regenerator per paper table/figure.

Every module exposes a ``run_*`` function returning structured results and a
``format_*`` function printing the same rows/series the paper reports.  The
``benchmarks/`` directory wires each of these into a pytest-benchmark target
(``benchmarks/bench_*.py``) that asserts the paper's qualitative shape; the
README's "Tests" section shows how to run them.

Index:

=======  ==========================================  =============================
Exp id   Paper artifact                              Module
=======  ==========================================  =============================
E1/E9    Fig. 3 / Fig. 10 end-to-end RRQ             ``end_to_end``
E2       Fig. 4 BFS cumulative budget                ``bfs_budget``
E3/E11   Table 1 / Table 3 runtime                   ``runtime_table``
E4       Fig. 5 cached synopses vs workload size     ``cached_synopses``
E5/E10   Fig. 6 / Fig. 11 additive GM vs vanilla     ``additive_vs_vanilla``
E6       Fig. 7 constraint expansion (tau)           ``constraint_expansion``
E7       Fig. 8 delta sweep                          ``delta_sweep``
E8       Fig. 9 translation validation + rel. error  ``translation_validation``
RQ1      collusion lower/upper bounds (Thm. 3.2)     ``collusion``
=======  ==========================================  =============================
"""

from repro.experiments.systems import SYSTEM_NAMES, default_analysts, make_system
from repro.experiments.runner import RunResult, run_workload

__all__ = [
    "RunResult",
    "SYSTEM_NAMES",
    "default_analysts",
    "make_system",
    "run_workload",
]
