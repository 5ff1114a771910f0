"""A GROUP BY is answered and shipped in columns.

Every group of a GROUP BY is one linear query over the same synopsis
(Appendix D), so the per-group work is one ``np.dot`` and the
``(key, Answer)`` pair returned: requirements, adequacy, answer
variances, accounting and the wire codec are one pass per column.
These tests pin that down with counts and equalities only:

* **no per-group scalar path** — a cached 100-group GROUP BY through
  ``QueryService.submit`` and the protocol-3 codec runs
  ``per_bin_variance_for``, ``answer_variance``, ``CompensatedSum.add``
  and any ``NamedTuple`` constructor (``Outcome``'s included) a constant
  number of times per query, never once per group;
* **same values** — the columnar probe's per-group dots are bit-equal
  to ``LinearQuery.answer``;
* **lossless wire** — protocol-3 round trips are bit-equal to the
  in-process groups for 1, 2, 74, 100 and 148 groups, two-attribute
  keys, predicate-excluded groups, a fresh-plus-cached mix (columns
  that are not constant) and ``epsilon=`` targets.
"""

from __future__ import annotations

import cProfile
import json
import pstats

import pytest

from repro import Analyst, QueryService
from repro.core.mechanism import Outcome
from repro.metrics.runtime import CompensatedSum
from repro.server.protocol import decode_response, encode_response
from repro.service.session import QueryResponse
from repro.views.linear import LinearQuery

TABLE = "adult"
BY_CAPITAL_GAIN = (f"SELECT capital_gain, COUNT(*) FROM {TABLE} "
                   f"GROUP BY capital_gain")
BY_SEX = f"SELECT sex, COUNT(*) FROM {TABLE} GROUP BY sex"
BY_SEX_AGE = f"SELECT sex, age, COUNT(*) FROM {TABLE} GROUP BY sex, age"
#: Groups outside 30..45 are excluded by the predicate.
BY_AGE_EXCLUDING = (f"SELECT age, COUNT(*) FROM {TABLE} "
                    f"WHERE age BETWEEN 30 AND 45 GROUP BY age")
#: ‖w‖² rises with age, so the first ask releases mid-loop: fresh and
#: cached groups, and several per-bin variances, in one response.
SUM_BY_SEX_AGE = (f"SELECT sex, age, SUM(age) FROM {TABLE} "
                  f"WHERE age BETWEEN 30 AND 33 GROUP BY sex, age")
SUM_BY_AGE = (f"SELECT age, SUM(age) FROM {TABLE} WHERE sex = 'female' "
              f"GROUP BY age")

#: Columns a fully cached GROUP BY holds constant.
CONSTANT_WHEN_CACHED = ("analyst", "view_name", "epsilon_charged",
                        "per_bin_variance", "answer_variance", "cache_hit")


def service_for(bundle) -> QueryService:
    service = QueryService.build(bundle, [Analyst("a", 4)], 64.0, seed=0)
    service.engine.register_view(("age", "sex"))
    return service


def wire(response: QueryResponse) -> QueryResponse:
    """``response`` through the codec and strict JSON text."""
    text = json.dumps(encode_response(response), allow_nan=False)
    return decode_response(json.loads(text))


def bits(groups) -> list:
    """Groups with every float as its exact bit pattern."""
    return [(key, answer.analyst, answer.view_name, answer.cache_hit,
             *(float(value).hex() for value in (
                 answer.value, answer.epsilon_charged,
                 answer.per_bin_variance, answer.answer_variance)))
            for key, answer in groups]


def _code_key(function) -> tuple:
    code = function.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


class TestNoPerGroupScalarPath:
    def test_cached_100_group_query_costs_constant_scalar_calls(
            self, adult_bundle):
        service = service_for(adult_bundle)
        session = service.open_session("a")
        queries = 40
        try:
            for _ in range(2):
                response = service.submit(session, BY_CAPITAL_GAIN,
                                          accuracy=4e4)
            assert response.lineage.source == "fast_lane"
            assert len(response.groups) == 100
            hits_before = service.cache_stats.as_dict()["hits"]
            profiler = cProfile.Profile()
            profiler.enable()
            for _ in range(queries):
                decoded = wire(service.submit(session, BY_CAPITAL_GAIN,
                                              accuracy=4e4))
            profiler.disable()
            hits = service.cache_stats.as_dict()["hits"] - hits_before
        finally:
            service.close()

        assert len(decoded.groups) == 100
        assert hits == 100 * queries   # every group answered from cache
        calls = {key: stats[1]
                 for key, stats in pstats.Stats(profiler).stats.items()}
        watched = {
            "per_bin_variance_for": LinearQuery.per_bin_variance_for,
            "answer_variance": LinearQuery.answer_variance,
            "CompensatedSum.add": CompensatedSum.add,
            # Every NamedTuple constructor shares this code key
            # (``Outcome``, ``Answer``, ``Lineage``...).
            "NamedTuple constructors": Outcome.__new__,
        }
        for label, function in watched.items():
            count = calls.get(_code_key(function), 0)
            assert count <= 4 * queries, \
                f"{label} ran {count} times for {queries} queries"

    def test_zero_charges_skipped_bit_identically(self, adult_bundle):
        """Only non-zero charges are summed; the session's plain sum and
        the analyst's compensated sum equal sums over every answer's
        charge, zeros included, bit for bit."""
        service = service_for(adult_bundle)
        session = service.open_session("a")
        try:
            responses = [service.submit(session, sql, accuracy=4e4)
                         for sql in (SUM_BY_SEX_AGE, BY_SEX, SUM_BY_SEX_AGE,
                                     BY_SEX, SUM_BY_AGE)]
            plain, compensated = 0.0, CompensatedSum()
            for response in responses:
                assert response.ok, response.error
                for answer in response.answers():
                    plain += answer.epsilon_charged
                    compensated.add(answer.epsilon_charged)
            assert plain > 0
            assert session.epsilon_spent.hex() == plain.hex()
            assert service.stats.epsilon_terms["a"].value.hex() \
                == compensated.value.hex()
            lineage = sum(response.lineage.epsilon for response in responses)
            assert lineage == pytest.approx(plain, rel=1e-12)
        finally:
            service.close()


class TestColumnarProbe:
    """``cached_group_fast`` answers each group with the scalar path's
    own ddot (the synopsis dotted with the weights): bit-equal to
    ``LinearQuery.answer``, never a stacked GEMV."""

    @pytest.mark.parametrize("bins", [1, 2, 7, 100, 1001])
    def test_values_bit_identical_to_scalar_answers(self, rng, bins):
        from types import SimpleNamespace

        import numpy as np

        from repro.core.mechanism import MechanismBase
        from repro.core.synopsis import Synopsis

        values = rng.normal(size=bins) * 1000
        queries = tuple(LinearQuery("v", (rng.random(bins) > 0.5)
                                    * rng.normal(size=bins))
                        for _ in range(17))
        mechanism = MechanismBase(None, None, None)
        mechanism.store.put_local(Synopsis("v", values, epsilon=1.0,
                                           delta=1e-9, variance=1.0,
                                           analyst="a"))
        found = mechanism.cached_group_fast(
            "a", SimpleNamespace(name="v"), queries, np.full(17, 2.0))
        assert found is not None
        answered, variance = found
        assert variance == 1.0
        assert [value.hex() for value in answered] == \
            [query.answer(values).hex() for query in queries]


class TestProtocol3RoundTrips:
    @pytest.mark.parametrize("sql, accuracy, epsilon, size", [
        pytest.param(BY_SEX, 4e4, None, 2, id="2-groups"),
        pytest.param(BY_CAPITAL_GAIN, 4e4, None, 100, id="100-groups"),
        pytest.param(BY_SEX_AGE, 4e4, None, 148, id="sex-age-keys"),
        pytest.param(BY_AGE_EXCLUDING, 4e4, None, 74,
                     id="excluded-groups"),
        pytest.param(SUM_BY_SEX_AGE, 4e4, None, 148,
                     id="fresh-plus-cached"),
        pytest.param(SUM_BY_AGE, None, 2.0, 74, id="epsilon-target"),
    ])
    def test_wire_is_bit_equal_to_in_process(self, adult_bundle, sql,
                                             accuracy, epsilon, size):
        service = service_for(adult_bundle)
        session = service.open_session("a")
        try:
            for _ in range(2):   # a fresh ask, then a cached one
                response = service.submit(session, sql, accuracy=accuracy,
                                          epsilon=epsilon)
                assert response.ok, response.error
                assert len(response.groups) == size
                decoded = wire(response)
                assert type(decoded.groups) is tuple
                assert bits(decoded.groups) == bits(response.groups)
                one = QueryResponse(0, groups=response.groups[:1])
                assert bits(wire(one).groups) == bits(one.groups)
        finally:
            service.close()

    def test_mixed_response_sends_full_columns(self, adult_bundle):
        """A GROUP BY that released mid-loop has fresh and cached groups
        at several per-bin variances: those columns go as lists."""
        service = service_for(adult_bundle)
        session = service.open_session("a")
        try:
            response = service.submit(session, SUM_BY_SEX_AGE, accuracy=4e4)
        finally:
            service.close()
        hits = {answer.cache_hit for _, answer in response.groups}
        assert hits == {True, False}
        columns = encode_response(response)["groups"]
        for field in ("epsilon_charged", "per_bin_variance", "cache_hit"):
            assert isinstance(columns[field], list), field
        assert bits(wire(response).groups) == bits(response.groups)

    def test_cached_response_sends_constant_columns_once(self, adult_bundle):
        service = service_for(adult_bundle)
        session = service.open_session("a")
        try:
            for _ in range(2):
                response = service.submit(session, BY_CAPITAL_GAIN,
                                          accuracy=4e4)
        finally:
            service.close()
        columns = encode_response(response)["groups"]
        assert len(columns["keys"]) == 1 and len(columns["keys"][0]) == 100
        assert isinstance(columns["value"], list)
        for field in CONSTANT_WHEN_CACHED:
            assert not isinstance(columns[field], list), field
