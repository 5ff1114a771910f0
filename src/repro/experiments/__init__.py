"""Experiment harness: one regenerator per paper table/figure.

Every module exposes a ``run_*`` function returning structured results and a
``format_*`` function printing the same rows/series the paper reports.
:data:`FIGURES` (:mod:`repro.experiments.figures`) holds one entry per
artifact: its runner and formatter, its ``repro`` subcommand's options,
its bench-scale cases and its shape check.  ``tests/test_paper_figures.py``
runs every case and check; the README's "Tests" section shows how.

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
A1-A5    ablations: accountants (App. A), dyadic     ``ablations``
         views, local combination (Sec. 5.2.6),
         strawmen (Sec. 7.2), zCDP composition
C1       scalability in #analysts (App. C.1)         ``scalability``
=======  ==========================================  =============================
"""

from repro.experiments.systems import SYSTEM_NAMES, default_analysts, make_system
from repro.experiments.runner import RunResult, run_workload
from repro.experiments.figures import FIGURES, Figure

__all__ = [
    "FIGURES",
    "Figure",
    "RunResult",
    "SYSTEM_NAMES",
    "default_analysts",
    "make_system",
    "run_workload",
]
