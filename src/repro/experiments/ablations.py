"""Ablations: the paper's design choices and extensions, one at a time.

Each ``run_*`` function runs both arms of one ablation on the 12,000-row
Adult bundle and returns the rows its ``format_*`` function prints:

* ``accountants`` (Appendix A): the provenance table checks constraints
  with basic composition, but the realised loss of the same Gaussian
  release sequence can be *reported* much more tightly with zCDP or RDP.
* ``hierarchical``: dyadic tree views per ordered attribute let wide
  ranges decompose into O(log m) nodes, cutting the translated budget per
  query (the paper's future-work item on cached-synopsis structure).
* ``local_combine`` (Sec. 5.2.6): a high-privilege analyst drives the
  global synopses to high accuracy; a low-privilege analyst then asks the
  same queries with step-wise tightening accuracy.  Each local release is
  the global plus independent noise, so combining them averages the noise
  away and later requests hit the cache.
* ``strawman`` (Sec. 7.2): a one-shot synthetic-data release gives every
  analyst identical output, and a pre-computed seeded cache snaps queries
  to budget rungs and pre-splits budget across unused accuracy levels.
* ``zcdp_composition`` ("Other DP settings"): with independent Gaussian
  releases, checking constraints under zCDP composition admits ~sqrt(k)
  growth of the converted loss instead of linear.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.strawman import SeededCacheBaseline, SyntheticDataRelease
from repro.core.analyst import Analyst
from repro.core.engine import DProvDB
from repro.datasets import load_adult
from repro.dp.rdp import RdpAccountant
from repro.dp.zcdp import ZCdpAccountant
from repro.experiments.reporting import format_table
from repro.experiments.runner import run_workload
from repro.experiments.systems import default_analysts, make_system
from repro.workloads.bfs import make_explorers, run_bfs_workload
from repro.workloads.rrq import generate_rrq, ordered_attributes
from repro.workloads.scheduler import interleave_round_robin


class _RecordingAccountant:
    """Feeds every Gaussian release to zCDP and RDP accountants at once."""

    def __init__(self) -> None:
        self.zcdp = ZCdpAccountant()
        self.rdp = RdpAccountant()

    def record_gaussian(self, sigma: float, sensitivity: float = 1.0) -> None:
        self.zcdp.record_gaussian(sigma, sensitivity)
        self.rdp.record_gaussian(sigma, sensitivity)


def run_accountants() -> list[list]:
    delta = 1e-9
    rows = []
    for mechanism in ("vanilla", "additive"):
        bundle = load_adult(num_rows=12000, seed=0)
        analysts = [Analyst("low", 1), Analyst("high", 4)]
        recorder = _RecordingAccountant()
        engine = DProvDB(bundle, analysts, epsilon=6.4,
                         mechanism=mechanism, accountant=recorder, seed=4)
        engine.setup()
        explorers = make_explorers(bundle, analysts, threshold=500.0,
                                   accuracy=40000.0)
        run_bfs_workload(engine, explorers, max_steps=1200)
        rows.append([
            mechanism,
            recorder.zcdp.releases,
            engine.total_consumed(),          # basic composition (sum)
            recorder.zcdp.epsilon(delta),
            recorder.rdp.epsilon(delta),
        ])
    return rows


def format_accountants(rows: list[list]) -> str:
    return format_table(
        ["mechanism", "#data accesses", "basic eps", "zCDP eps", "RDP eps"],
        rows, title="ablation: accounting the same BFS release sequence")


def _wide_range_workload(bundle, rng, count):
    schema = bundle.database.table(bundle.fact_table).schema
    attributes = ordered_attributes(bundle)
    items = []
    for _ in range(count):
        attr = attributes[int(rng.integers(0, len(attributes)))]
        domain = schema.domain(attr)
        width = domain.high - domain.low
        # Wide ranges: cover 60-95% of the domain.
        span = int(width * rng.uniform(0.6, 0.95))
        start = int(rng.integers(domain.low, domain.high - span + 1))
        items.append(f"SELECT COUNT(*) FROM {bundle.fact_table} WHERE "
                     f"{attr} BETWEEN {start} AND {start + span}")
    return items


def run_hierarchical() -> list[list]:
    rows = []
    for label, use_dyadic in (("flat only", False), ("flat + dyadic", True)):
        bundle = load_adult(num_rows=12000, seed=0)
        engine = DProvDB(bundle, [Analyst("a", 4)], epsilon=2.0, seed=3)
        if use_dyadic:
            for attr in ordered_attributes(bundle):
                engine.register_hierarchical_view(attr)
        rng = np.random.default_rng(5)
        queries = _wide_range_workload(bundle, rng, 150)
        answered = sum(
            engine.try_submit("a", sql, accuracy=10000.0) is not None
            for sql in queries
        )
        rows.append([label, answered, engine.total_consumed(),
                     engine.collusion_bound()])
    return rows


def format_hierarchical(rows: list[list]) -> str:
    return format_table(
        ["views", "#answered (of 150)", "eps consumed", "collusion bound"],
        rows, title="ablation: dyadic views on wide-range workload (eps=2.0)")


def _base_queries(bundle):
    schema = bundle.database.table(bundle.fact_table).schema
    queries = []
    for attr in ordered_attributes(bundle):
        domain = schema.domain(attr)
        mid = (domain.low + domain.high) // 2
        span = (domain.high - domain.low) // 3
        queries.append(
            f"SELECT COUNT(*) FROM {bundle.fact_table} WHERE "
            f"{attr} BETWEEN {max(domain.low, mid - span)} AND "
            f"{min(domain.high, mid + span)}"
        )
    return queries


def run_local_combine() -> list[list]:
    rows = []
    for label, combine in (("discard (paper default)", False),
                           ("combine (Sec. 5.2.6)", True)):
        bundle = load_adult(num_rows=12000, seed=0)
        analysts = [Analyst("junior", 1), Analyst("power", 8)]
        engine = DProvDB(bundle, analysts, epsilon=3.2,
                         combine_local=combine, seed=9)
        queries = _base_queries(bundle)
        # The power analyst drives the globals to high accuracy.
        for sql in queries:
            engine.try_submit("power", sql, accuracy=900.0)
        # The junior tightens step-wise, always coarser than the global.
        answered = 0
        ratios = []
        accuracy = 2560000.0
        while accuracy >= 10000.0:
            for sql in queries:
                answer = engine.try_submit("junior", sql, accuracy=accuracy)
                if answer is not None:
                    answered += 1
                    ratios.append(answer.answer_variance / accuracy)
            accuracy /= 2.0
        rows.append([label, answered,
                     float(np.mean(ratios)) if ratios else 0.0,
                     engine.analyst_consumed("junior")])
    return rows


def format_local_combine(rows: list[list]) -> str:
    return format_table(
        ["mode", "junior #answered", "mean v_q/v_i", "junior eps"], rows,
        title="ablation: local-synopsis combination (tightening junior)")


def run_strawman() -> list[list]:
    epsilon = 1.6
    analysts = default_analysts((1, 4))
    rows = []
    for name in ("dprovdb", "synthetic_release", "seeded_cache"):
        bundle = load_adult(num_rows=12000, seed=0)
        workload = generate_rrq(bundle, analysts, 200, accuracy=10000.0,
                                seed=1)
        items = interleave_round_robin(workload)
        if name == "dprovdb":
            system = make_system(name, bundle, analysts, epsilon, seed=2)
        elif name == "synthetic_release":
            system = SyntheticDataRelease(bundle, analysts, epsilon, seed=2)
        else:
            system = SeededCacheBaseline(bundle, analysts, epsilon,
                                         levels=4, seed=2)
        r = run_workload(system, items, epsilon, "round_robin")
        rows.append([r.system, r.total_answered, r.rejected,
                     r.fairness(analysts), r.consumed])
    return rows


def format_strawman(rows: list[list]) -> str:
    return format_table(
        ["system", "#answered", "#rejected", "nDCFG", "eps consumed"],
        rows, title="ablation: DProvDB vs Sec. 7.2 strawmen (eps=1.6)")


def run_zcdp_composition() -> list[list]:
    queries = [
        f"SELECT COUNT(*) FROM adult WHERE age BETWEEN {17 + i} AND {19 + i}"
        for i in range(70)
    ]
    rows = []
    for mechanism in ("vanilla", "vanilla_zcdp"):
        bundle = load_adult(num_rows=12000, seed=0)
        engine = DProvDB(bundle, [Analyst("low", 1), Analyst("high", 4)],
                         epsilon=1.0, mechanism=mechanism, seed=6)
        answered = 0
        for i, sql in enumerate(queries):
            analyst = "high" if i % 2 == 0 else "low"
            accuracy = 40000.0 / (1 + i)  # escalate to defeat caching
            if engine.try_submit(analyst, sql, accuracy=accuracy) is not None:
                answered += 1
        rows.append([mechanism, answered, engine.provenance.table_total(),
                     engine.collusion_bound()])
    return rows


def format_zcdp_composition(rows: list[list]) -> str:
    return format_table(
        ["composition", "#answered (of 70)", "eps-sum ledger",
         "reported collusion loss"],
        rows, title="ablation: basic vs zCDP constraint composition (eps=1.0)")
