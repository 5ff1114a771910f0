"""Profile the compile-miss path: N fresh-literal two-predicate statements
through ``submit_batch`` on one service; prints the top cumulative rows.

    PYTHONPATH=src python scripts/profile_compile_miss.py [N]

cProfile inflates python-level calls and not numpy's: read the table for
*where*, then measure with ``perf/run.py --workload adhoc_batch``.
"""

from __future__ import annotations

import cProfile
import pstats
import sys

import numpy as np

from repro import Analyst, QueryRequest, QueryService, load_adult

PAIRS = (("age", "workclass"), ("hours_per_week", "education"))
BATCH = 32


def main(statements: int) -> None:
    bundle = load_adult(num_rows=12000, seed=0)
    schema = bundle.database.table(bundle.fact_table).schema
    service = QueryService.build(bundle, [Analyst("a", 4)], 64.0, seed=0)
    for pair in PAIRS:
        service.engine.register_view(pair)
    rng = np.random.default_rng(0)
    requests = []
    for i in range(statements):
        ordered, categorical = PAIRS[i % len(PAIRS)]
        domain, values = schema.domain(ordered), schema.domain(categorical).values
        low, high = sorted(map(int, rng.integers(domain.low, domain.high + 1, 2)))
        picks = sorted(rng.choice(len(values), int(rng.integers(1, 4)), False))
        members = ", ".join(f"'{values[int(p)]}'" for p in picks)
        requests.append(QueryRequest(
            f"SELECT COUNT(*) FROM {bundle.fact_table} WHERE {ordered} BETWEEN "
            f"{low} AND {high} AND {categorical} IN ({members})", accuracy=1e9))
    session = service.open_session("a")
    with cProfile.Profile() as profiler:
        for start in range(0, statements, BATCH):
            service.submit_batch(session, requests[start:start + BATCH])
    print(service.snapshot()["compiled_statements"])
    service.close()
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(15)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 3200)
