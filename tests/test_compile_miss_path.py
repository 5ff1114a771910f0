"""A statement whose shape has compiled before costs one regex pass and
the weight builders: no tokens, no parse, no AST, no per-bin loop.

An ad-hoc stream asks a few statement shapes with fresh literals, so
nearly every text misses the text-keyed cache and hits the shape table.
These tests run ~2k fresh-literal statements of known shapes — scalar
ranges on a two-attribute grid, ranges the dyadic view wins, AVG and
GROUP BY — under cProfile and pin the path down by call counts: the
lexer and the parser run once per shape, never per statement.
"""

from __future__ import annotations

import cProfile
import os
import pstats

import numpy as np

from repro import Analyst, DProvDB
from repro.db.sql.parser import parse
from repro.views.hierarchical import HierarchicalView

#: Functions that must not run on a shape hit: the token-stream shape
#: split / bind and the per-character scanner they needed (oracles in
#: tests/test_fuzz_invariants.py), and the per-bin mask code the slice
#: reduction replaced (oracle in tests/test_transform_masks.py).
FORBIDDEN = {"split_literals", "bind_literals", "_scan_reference",
             "evaluate", "wide_bin_inclusion", "_evaluate_array",
             "oracle_bin_mask"}


def _calls_by_function(profiler: cProfile.Profile) -> dict[tuple, int]:
    """``(file basename, function name) -> primitive call count``."""
    counts: dict[tuple, int] = {}
    for (path, _, name), (calls, *_rest) in \
            pstats.Stats(profiler).stats.items():
        key = (os.path.basename(path), name)
        counts[key] = counts.get(key, 0) + calls
    return counts


def fresh_statements(bundle, count: int) -> tuple[list[str], int]:
    """``count`` distinct texts cycling through a fixed set of shapes,
    every one answerable; returns them with the number of shapes."""
    table = bundle.fact_table
    schema = bundle.database.table(table).schema
    age = schema.domain("age")
    sexes = schema.domain("sex").values
    rng = np.random.default_rng(3)
    shapes = [
        lambda lo, hi, one, some: f"SELECT COUNT(*) FROM {table} WHERE age "
                                  f"BETWEEN {lo} AND {hi} AND sex IN ({some})",
        lambda lo, hi, one, some: f"SELECT COUNT(*) FROM {table} WHERE age "
                                  f"BETWEEN {lo} AND {hi}",
        lambda lo, hi, one, some: f"SELECT COUNT(*) FROM {table} WHERE age "
                                  f">= {lo} AND age < {hi + 1}",
        lambda lo, hi, one, some: f"SELECT COUNT(*) FROM {table} WHERE age "
                                  f"BETWEEN {lo} AND {hi} AND sex != {one}",
        lambda lo, hi, one, some: f"SELECT AVG(age) FROM {table} WHERE age "
                                  f"BETWEEN {lo} AND {hi}",
        lambda lo, hi, one, some: f"SELECT sex, COUNT(*) FROM {table} WHERE "
                                  f"age BETWEEN {lo} AND {hi} GROUP BY sex",
    ]
    texts: dict[str, None] = {}
    for attempt in range(20 * count):
        if len(texts) == count:
            break
        lo, hi = sorted(int(v) for v in rng.integers(age.low + 1, age.high,
                                                     2))
        picks = [f"'{sexes[int(i)]}'" for i in
                 rng.choice(len(sexes), int(rng.integers(1, 3)), False)]
        sql = shapes[attempt % len(shapes)](lo, hi, picks[0],
                                            ", ".join(picks))
        texts[sql] = None
    assert len(texts) == count
    return list(texts), len(shapes)


class TestShapeHitPath:
    def test_fresh_literals_never_lex_parse_or_loop_per_bin(
            self, adult_bundle):
        engine = DProvDB(adult_bundle, [Analyst("a", 4)], 64.0, seed=0)
        engine.register_view(("age", "sex"))
        engine.register_hierarchical_view("age")
        texts, shapes = fresh_statements(adult_bundle, 2000)

        profiler = cProfile.Profile()
        profiler.enable()
        entries = [engine.compile_statement(sql) for sql in texts]
        profiler.disable()
        counts = _calls_by_function(profiler)

        # The first statement of each shape parses; the rest use its plan.
        assert counts[("parser.py", "parse_tokens")] == shapes
        assert counts[("lexer.py", "tokenize")] == shapes
        assert counts[("lexer.py", "scan_slots")] == len(texts)
        assert engine.statement_cache.counters()["template_hits"] \
            == len(texts) - shapes
        # No statement is rebuilt or re-routed on a hit.
        assert ("parser.py", "parse") not in counts
        assert counts[("registry.py", "candidates")] == shapes
        assert counts.get(("registry.py", "compile"), 0) <= shapes
        ran = {name for _, name in counts}
        assert not ran & FORBIDDEN, sorted(ran & FORBIDDEN)

        # The hits chose views by cost: both the grid and the dyadic tree.
        kinds = {entry.kind for entry in entries}
        assert kinds == {"scalar", "avg", "group_by"}
        assert any(isinstance(entry.view, HierarchicalView)
                   for entry in entries)
        assert any(entry.view.name.endswith("age_sex") for entry in entries)

        # And compiled what the parsed path compiles.
        reference = DProvDB(adult_bundle, [Analyst("a", 4)], 64.0, seed=0,
                            statement_cache_size=0)
        reference.register_view(("age", "sex"))
        reference.register_hierarchical_view("age")
        for sql, entry in list(zip(texts, entries))[::97]:
            expected = reference.compile_statement(sql)
            assert (entry.kind, entry.view.name) \
                == (expected.kind, expected.view.name)
            parts = entry.group_parts or entry.avg_parts or [entry.query]
            expected_parts = expected.group_parts or expected.avg_parts \
                or [expected.query]
            for got, want in zip(parts, expected_parts):
                got = got[1] if entry.kind == "group_by" else got
                want = want[1] if entry.kind == "group_by" else want
                assert got.weights.tobytes() == want.weights.tobytes()
            assert entry.statement == parse(sql)
