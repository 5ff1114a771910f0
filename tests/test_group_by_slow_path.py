"""The GROUP BY slow path against its per-group oracle.

Under the view section, ``DProvDB.submit_group_by`` answers the groups
the current synopsis covers with one ``cached_answers_fast`` prefix
probe, runs the full ``answer`` template only for the first group that
needs a fresh release, and then probes the rest again.  The oracle here
is the plain loop it replaced — one ``mechanism.answer`` per non-empty
group under ``view_section`` — and the two must agree bit for bit:
answers, ε by analyst, the provenance matrix, fresh-release counts and
the synopsis cache's hit/miss/eviction tallies.  Cases cover both
submission modes, a WHERE that excludes groups, a pair view whose group
norms differ (so later groups need tighter synopses and releases happen
mid-loop), a budget rejection mid-loop, both mechanisms and the fast
lane on and off.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DProvDB
from repro.core.engine import Answer
from repro.exceptions import QueryRejected
from repro.service.cache import LruSynopsisStore

MECHANISMS = ("additive", "vanilla")

TABLE = "adult"
BY_SEX = f"SELECT sex, COUNT(*) FROM {TABLE} GROUP BY sex"
BY_AGE = f"SELECT age, COUNT(*) FROM {TABLE} GROUP BY age"
#: Groups outside 30..45 are excluded by the predicate.
BY_AGE_EXCLUDING = (f"SELECT age, COUNT(*) FROM {TABLE} "
                    f"WHERE age BETWEEN 30 AND 45 GROUP BY age")
#: Routes to the (age, sex) pair view; a group's ‖w‖² is age², so under
#: ``accuracy=`` each older group needs a tighter synopsis than the last.
SUM_BY_AGE_NARROW = (f"SELECT age, SUM(age) FROM {TABLE} "
                     f"WHERE sex = 'male' AND age BETWEEN 30 AND 33 "
                     f"GROUP BY age")
#: Groups run female 30..33, then male 30..33: ‖w‖² rises, then falls
#: back, so a male group the pre-loop synopsis already covers comes
#: *after* female groups that need fresh releases — only a prefix of the
#: groups may be answered before a release.
SUM_BY_SEX_AGE = (f"SELECT sex, age, SUM(age) FROM {TABLE} "
                  f"WHERE age BETWEEN 30 AND 33 GROUP BY sex, age")
SUM_BY_AGE_WIDE = (f"SELECT age, SUM(age) FROM {TABLE} "
                   f"WHERE sex = 'female' GROUP BY age")


def build(bundle, analysts, mechanism, epsilon, fast_lane) -> DProvDB:
    engine = DProvDB(bundle, analysts, epsilon=epsilon, mechanism=mechanism,
                     synopsis_store=LruSynopsisStore(None),
                     fast_lane=fast_lane, seed=11)
    engine.register_view(("age", "sex"))
    return engine


def oracle_group_by(engine, analyst, sql, accuracy=None, epsilon=None):
    """One full ``answer`` template per non-empty group."""
    compiled = engine.compile_statement(sql)
    view = compiled.view
    results = []
    with engine.view_section(view.name):
        for key, query in compiled.group_parts:
            if not np.any(query.weights):
                results.append((key, Answer(analyst, 0.0, 0.0, view.name,
                                            0.0, 0.0, True)))
                continue
            target = engine._accuracy_for(query, accuracy, epsilon, view)
            outcome = engine.mechanism.answer(analyst, view, query, target)
            results.append((key, Answer(
                analyst, outcome.value, outcome.epsilon_charged,
                outcome.view_name, outcome.per_bin_variance,
                outcome.answer_variance, outcome.cache_hit)))
    return results


def engine_group_by(engine, analyst, sql, accuracy=None, epsilon=None):
    return engine.submit_group_by(analyst, sql, accuracy=accuracy,
                                  epsilon=epsilon)


def bits(results) -> list:
    """Answers with every float as its exact bit pattern."""
    return [(key, answer.analyst, answer.view_name, answer.cache_hit,
             *(float(value).hex() for value in (
                 answer.value, answer.epsilon_charged,
                 answer.per_bin_variance, answer.answer_variance)))
            for key, answer in results]


def state(engine) -> tuple:
    stats = engine.mechanism.store.stats
    return (
        {name: float(engine.analyst_consumed(name)).hex()
         for name in engine.analysts},
        engine.provenance_matrix().tobytes(),
        dict(engine.mechanism._release_counts),
        (stats.hits, stats.misses, stats.evictions),
    )


def replay(engine, stream, group_by) -> list:
    """Run ``stream`` and record, per query, its answers (or rejection)
    and the release count it added."""
    log = []
    for analyst, sql, accuracy, epsilon in stream:
        before = sum(engine.mechanism._release_counts.values())
        try:
            outcome = bits(group_by(engine, analyst, sql, accuracy,
                                    epsilon))
        except QueryRejected as exc:
            outcome = ("rejected", exc.constraint, exc.reason)
        log.append((outcome,
                    sum(engine.mechanism._release_counts.values()) - before))
    return log


def mixed_stream() -> list:
    stream = []
    for round_, accuracy in enumerate((8e4, 2e4, 5e3)):
        for analyst in ("low", "high"):
            stream += [
                (analyst, BY_SEX, accuracy, None),
                (analyst, BY_AGE_EXCLUDING, accuracy, None),
                (analyst, SUM_BY_AGE_NARROW, accuracy * 400, None),
                (analyst, SUM_BY_SEX_AGE, accuracy * 360, None),
                (analyst, BY_AGE, None, 0.2 * (round_ + 1)),
                (analyst, BY_SEX, accuracy, None),  # all cached
                (analyst, SUM_BY_AGE_NARROW, None, 0.3),
            ]
    return stream


def assert_same(bundle, analysts, mechanism, epsilon, fast_lane, stream):
    expected_engine = build(bundle, analysts, mechanism, epsilon, fast_lane)
    actual_engine = build(bundle, analysts, mechanism, epsilon, fast_lane)
    expected = replay(expected_engine, stream, oracle_group_by)
    actual = replay(actual_engine, stream, engine_group_by)
    assert actual == expected
    assert state(actual_engine) == state(expected_engine)
    return expected


@pytest.mark.parametrize("fast_lane", [True, False])
@pytest.mark.parametrize("mechanism", MECHANISMS)
class TestSlowPathOracle:
    def test_mixed_stream_bit_identical(self, adult_bundle, analysts,
                                        mechanism, fast_lane):
        log = assert_same(adult_bundle, analysts, mechanism, 200.0,
                          fast_lane, mixed_stream())
        # The stream really exercises what it claims to.
        assert not any(outcome[0] == "rejected" for outcome, _ in log)
        narrow = [released for (outcome, released), query
                  in zip(log, mixed_stream())
                  if query[1] == SUM_BY_AGE_NARROW and query[3] is None]
        assert max(narrow) >= 2, "no second fresh release mid-loop"
        excluded = [outcome for (outcome, _), query
                    in zip(log, mixed_stream())
                    if query[1] == BY_AGE_EXCLUDING]
        assert all(sum(row[4] == (0.0).hex() and row[3] for row in rows)
                   == 74 - 16 for rows in excluded)

    def test_budget_rejection_mid_loop(self, adult_bundle, analysts,
                                       mechanism, fast_lane):
        stream = [(analyst, SUM_BY_AGE_WIDE, accuracy, None)
                  for accuracy in (4e6, 1e6, 2.5e5)
                  for analyst in ("low", "high")]
        log = assert_same(adult_bundle, analysts, mechanism, 3.0,
                          fast_lane, stream)
        rejected = [released for outcome, released in log
                    if outcome[0] == "rejected"]
        assert rejected, "the stream never reached the budget"
        assert max(rejected) >= 1, "no rejection after a release mid-loop"


class TestOnePass:
    def test_answer_template_runs_only_for_fresh_releases(
            self, adult_bundle, analysts):
        """A miss runs ``answer`` once per release it needs (plus one per
        rejection), never once per group."""
        engine = build(adult_bundle, analysts, "additive", 200.0, True)
        mechanism = engine.mechanism
        calls = []
        answer = mechanism.answer

        def counting(*args):
            calls.append(args[2])
            return answer(*args)

        mechanism.answer = counting
        for analyst, sql, accuracy, epsilon in mixed_stream():
            before = len(calls)
            released = sum(mechanism._release_counts.values())
            results = engine.submit_group_by(analyst, sql, accuracy=accuracy,
                                             epsilon=epsilon)
            fresh = sum(not a.cache_hit for _, a in results)
            assert len(calls) - before == fresh == \
                sum(mechanism._release_counts.values()) - released
