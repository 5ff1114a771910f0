"""Profile the compile-miss path: N fresh-literal two-predicate statements
through ``submit_batch`` on one service; prints the top 15 by cumulative
and by self time.

    PYTHONPATH=src python scripts/profile_compile_miss.py [N]

Exits 1 if the path left its shape: the per-character reference lexer
(``_scan_reference``) or a per-bin mask loop ran, or the parser
(``parse_tokens``) ran more often than there are distinct statement
shapes (every other statement binds into a remembered skeleton).
cProfile inflates python-level calls and not numpy's: read the tables
for *where*, then measure with ``perf/run.py --workload adhoc_batch``.
"""

from __future__ import annotations

import cProfile
import pstats
import sys

import numpy as np

from repro import Analyst, QueryRequest, QueryService, load_adult
from repro.db.sql.lexer import tokenize
from repro.db.sql.parser import split_literals

PAIRS = (("age", "workclass"), ("hours_per_week", "education"))
BATCH = 32

#: Functions that must not run on this path: the reference lexer, and
#: the per-bin mask code the bin-slice reduction replaced (kept as the
#: oracle in tests/test_transform_masks.py).
FORBIDDEN = {"_scan_reference", "evaluate", "wide_bin_inclusion",
             "_evaluate_array", "oracle_bin_mask"}


def main(statements: int) -> int:
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
    shapes = len({split_literals(tokenize(r.sql))[0] for r in requests})
    session = service.open_session("a")
    with cProfile.Profile() as profiler:
        for start in range(0, statements, BATCH):
            service.submit_batch(session, requests[start:start + BATCH])
    print(service.snapshot()["compiled_statements"])
    service.close()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(15)
    stats.sort_stats("tottime").print_stats(15)

    failures = sorted({name for _, _, name in stats.stats} & FORBIDDEN)
    if failures:
        print(f"FAIL: {', '.join(failures)} ran on the compile-miss path",
              file=sys.stderr)
    parses = sum(row[1] for (_, _, name), row in stats.stats.items()
                 if name == "parse_tokens")
    if parses > shapes:
        print(f"FAIL: parse_tokens ran {parses} times for {shapes} shapes",
              file=sys.stderr)
        failures.append("parse_tokens")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 3200))
