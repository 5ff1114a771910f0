"""Profile the fresh-release path: N halving rounds over the base views,
four analysts, one ``submit`` each per view and round; prints the top
cumulative rows and the calibration memos' hit counts.

    PYTHONPATH=src python scripts/profile_fresh_release.py [N]

cProfile inflates python-level calls and not numpy's: read the table for
*where*, then measure with ``perf/run.py --workload fresh_rounds``.
"""

from __future__ import annotations

import cProfile
import pstats
import sys

from repro import Analyst, QueryService, load_adult
from repro.dp import analytic_gaussian_sigma, minimal_epsilon

BASE_VARIANCE = 4e5


def main(rounds: int) -> None:
    bundle = load_adult(num_rows=12000, seed=0)
    schema = bundle.database.table(bundle.fact_table).schema
    analysts = [Analyst(f"a{i}", 1 + 3 * i) for i in range(4)]
    service = QueryService.build(bundle, analysts, 12.0, seed=0)
    statements = []
    for name in bundle.view_attributes:
        domain = schema.domain(name)
        if hasattr(domain, "values"):
            predicate = f"{name} = '{domain.values[0]}'"
        else:
            low, high = int(domain.low), int(domain.high)
            predicate = f"{name} BETWEEN {low} AND {(low + high) // 2}"
        statements.append(
            f"SELECT COUNT(*) FROM {bundle.fact_table} WHERE {predicate}")
    sessions = [service.open_session(analyst.name) for analyst in analysts]
    with cProfile.Profile() as profiler:
        for round_ in range(rounds):
            for sql in statements:
                for session in sessions:
                    service.submit(session, sql,
                                   accuracy=BASE_VARIANCE / 2.0 ** round_)
    print({key: service.snapshot()["service"][key]
           for key in ("fresh_releases", "answer_cache_hits", "rejected",
                       "failed")})
    print("minimal_epsilon        ", minimal_epsilon.cache_info())
    print("analytic_gaussian_sigma", analytic_gaussian_sigma.cache_info())
    service.close()
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(15)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 12)
