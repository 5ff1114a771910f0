"""Wire-protocol properties: encode -> decode is the identity, malformed
payloads are refused with :class:`WireFormatError`, and everything the
encoders emit is strict JSON."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import Answer
from repro.server.protocol import (
    ERROR_KINDS,
    PROTOCOL_VERSION,
    WireFormatError,
    decode_error,
    decode_request,
    decode_response,
    encode_error,
    encode_request,
    encode_response,
    json_ready,
)
from repro.service.session import QueryRequest, QueryResponse

finite = st.floats(allow_nan=False, allow_infinity=False, width=32)
positive = st.floats(min_value=1e-6, max_value=1e9, allow_nan=False)
name = st.text(min_size=1, max_size=20)
sql_text = st.text(min_size=1, max_size=80).filter(lambda s: s.strip())


requests = st.builds(
    QueryRequest,
    sql=sql_text,
    accuracy=st.one_of(st.none(), positive),
    epsilon=st.one_of(st.none(), positive),
)

answers = st.builds(
    Answer,
    analyst=name,
    value=st.builds(float, finite),
    epsilon_charged=st.builds(float, finite),
    view_name=name,
    per_bin_variance=st.builds(float, finite),
    answer_variance=st.builds(float, finite),
    cache_hit=st.booleans(),
)

#: GROUP BY key parts: the scalar types the engine's full-domain
#: semantics produce (categorical labels, integer bins).
key_parts = st.one_of(name, st.integers(-1000, 1000))

scalar_responses = st.builds(
    QueryResponse, index=st.integers(0, 10_000), answer=answers)


def _group_lists(arity: int):
    """Groups whose keys all have ``arity`` parts (one per GROUP BY
    attribute, as the engine returns them)."""
    keys = st.tuples(*[key_parts] * arity)
    distinct = st.lists(st.tuples(keys, answers), min_size=1, max_size=6)
    # Groups sharing one answer but their value: the cached GROUP BY's
    # shape, where every other field column is constant.
    shared = st.builds(
        lambda base, rows: [(key, base._replace(value=value))
                            for key, value in rows],
        answers, st.lists(st.tuples(keys, st.builds(float, finite)),
                          min_size=1, max_size=6))
    return (distinct | shared).map(tuple)


group_responses = st.builds(
    QueryResponse,
    index=st.integers(0, 10_000),
    groups=st.integers(1, 2).flatmap(_group_lists),
)

failed_responses = st.builds(
    QueryResponse,
    index=st.integers(0, 10_000),
    error=st.text(min_size=1, max_size=60),
    rejected=st.booleans(),
)

responses = st.one_of(scalar_responses, group_responses, failed_responses)


class TestRoundTrip:
    @settings(max_examples=200)
    @given(requests)
    def test_request_round_trip(self, request):
        encoded = encode_request(request)
        json.dumps(encoded, allow_nan=False)
        assert decode_request(encoded) == request

    @settings(max_examples=200)
    @given(responses)
    def test_response_round_trip(self, response):
        encoded = encode_response(response)
        json.dumps(encoded, allow_nan=False)
        assert decode_response(encoded) == response

    @settings(max_examples=100)
    @given(st.text(min_size=1, max_size=80), st.sampled_from(ERROR_KINDS))
    def test_error_envelope_round_trip(self, message, kind):
        encoded = encode_error(message, kind)
        json.dumps(encoded, allow_nan=False)
        assert decode_error(encoded) == (message, kind)

    def test_group_by_multi_aggregate_round_trip(self):
        """A GROUP BY response with multi-attribute keys and several
        groups — the exact shape the engine returns — survives the wire
        bit-for-bit."""
        groups = tuple(
            ((sex, int(bin_)), Answer("alice", 10.5 * bin_, 0.25,
                                      "adult.sex_age", 1e4, 2e4, bin_ % 2
                                      == 0))
            for bin_ in range(3) for sex in ("female", "male")
        )
        response = QueryResponse(7, groups=groups)
        assert decode_response(encode_response(response)) == response

    def test_statement_objects_unparse_to_text(self):
        from repro.db.sql.parser import parse

        statement = parse("SELECT COUNT(*) FROM adult WHERE age "
                          "BETWEEN 20 AND 40")
        encoded = encode_request(QueryRequest(statement, accuracy=1.0))
        assert isinstance(encoded["sql"], str)
        assert "BETWEEN" in encoded["sql"]
        assert decode_request(encoded).sql == encoded["sql"]


class TestMalformed:
    @pytest.mark.parametrize("payload", [
        [],
        "text",
        {"sql": ""},
        {"sql": "   "},
        {"sql": 42},
        {"sql": "SELECT 1", "accuracy": "high"},
        {"sql": "SELECT 1", "epsilon": True},
        {"sql": "SELECT 1", "protocol": PROTOCOL_VERSION + 1},
        {"sql": "SELECT 1", "accuracy": float("nan")},
        {"sql": "SELECT 1", "accuracy": float("inf")},
        {"sql": "SELECT 1", "epsilon": float("-inf")},
        {"sql": "SELECT 1", "epsilon": 10 ** 400},
    ])
    def test_bad_requests_refused(self, payload):
        with pytest.raises(WireFormatError):
            decode_request(payload)

    @pytest.mark.parametrize("payload", [
        {},
        {"index": "zero"},
        {"index": True},
        {"index": 0, "error": 13},
        {"index": 0, "rejected": "yes"},
        {"index": 0, "answer": {"analyst": "a"}},
        {"index": 0, "groups": {"key": []}},
        {"index": 0, "groups": [{"key": "k", "answer": None}]},
        {"index": 0, "groups": [{"key": [[1]], "answer": None}]},
        {"index": 0, "protocol": 99},
    ])
    def test_bad_responses_refused(self, payload):
        with pytest.raises(WireFormatError):
            decode_response(payload)

    def test_bad_error_envelopes_refused(self):
        with pytest.raises(WireFormatError):
            decode_error({"kind": "internal"})
        with pytest.raises(WireFormatError):
            decode_error({"error": 404})
        with pytest.raises(WireFormatError):
            encode_error("boom", kind="not-a-kind")

    def test_unknown_kind_tolerated_on_decode(self):
        # Newer servers may add kinds; older clients must not choke.
        assert decode_error({"error": "x", "kind": "brand_new"}) == \
            ("x", "brand_new")


def _three_groups() -> QueryResponse:
    return QueryResponse(4, groups=(
        (("female", 20), Answer("alice", 12.5, 0.25, "adult.sex_age",
                                100.0, 200.0, False)),
        (("male", 20), Answer("alice", -3.0, 0.0, "adult.sex_age",
                              100.0, 200.0, True)),
        (("male", 30), Answer("alice", 0.0, 0.0, "adult.sex_age",
                              0.0, 0.0, True)),
    ))


def _mutated(edit):
    """A valid columnar GROUP BY payload with ``edit`` applied to it."""
    body = json.loads(json.dumps(encode_response(_three_groups())))
    edit(body)
    return body


class TestColumnarGroups:
    """Protocol 3: a GROUP BY's ``groups`` is one object of columns — a
    key column per GROUP BY attribute, and per answer field a list, or
    one scalar when every entry has the same type and bits — each
    checked once on decode."""

    def test_columnar_shape_is_pinned(self):
        body = encode_response(_three_groups())
        assert body["protocol"] == PROTOCOL_VERSION == 3
        assert body["groups"] == {
            "keys": [["female", "male", "male"], [20, 20, 30]],
            "analyst": "alice",
            "view_name": "adult.sex_age",
            "value": [12.5, -3.0, 0.0],
            "epsilon_charged": [0.25, 0.0, 0.0],
            "per_bin_variance": [100.0, 100.0, 0.0],
            "answer_variance": [200.0, 200.0, 0.0],
            "cache_hit": [False, True, True],
        }
        wire = json.loads(json.dumps(body, allow_nan=False))
        assert decode_response(wire) == _three_groups()

    def test_cached_groups_send_constant_columns_once(self):
        groups = tuple(((age,), Answer("alice", 1.5 * age, 0.0, "adult.age",
                                       100.0, 200.0, True))
                       for age in range(100))
        body = encode_response(QueryResponse(0, groups=groups))
        assert body["groups"] == {
            "keys": [list(range(100))],
            "analyst": "alice", "view_name": "adult.age",
            "value": [1.5 * age for age in range(100)],
            "epsilon_charged": 0.0, "per_bin_variance": 100.0,
            "answer_variance": 200.0, "cache_hit": True,
        }
        wire = json.loads(json.dumps(body, allow_nan=False))
        assert decode_response(wire).groups == groups

    def test_one_group_is_all_scalars(self):
        response = QueryResponse(1, groups=_three_groups().groups[:1])
        body = encode_response(response)
        assert body["groups"]["keys"] == [["female"], [20]]
        assert not any(isinstance(column, list)
                       for field, column in body["groups"].items()
                       if field != "keys")
        assert decode_response(json.loads(json.dumps(body))) == response

    def test_negative_zero_is_not_zero(self):
        """Constant means equal *bits*: ``0.0`` and ``-0.0`` compare
        equal, yet a column holding both is sent as a list, and each
        entry keeps its sign."""
        groups = tuple(((key,), Answer("a", value, 0.0, "v", 1.0, 2.0,
                                       True))
                       for key, value in ((1, 0.0), (2, -0.0)))
        body = encode_response(QueryResponse(0, groups=groups))
        assert body["groups"]["value"] == [0.0, -0.0]
        decoded = decode_response(json.loads(json.dumps(body)))
        assert [math.copysign(1.0, a.value) for _, a in decoded.groups] \
            == [1.0, -1.0]
        negative = encode_response(QueryResponse(0, groups=tuple(
            (key, answer._replace(value=-0.0)) for key, answer in groups)))
        assert math.copysign(1.0, negative["groups"]["value"]) == -1.0

    def test_mixed_key_arity_is_refused_on_encode(self):
        groups = ((("female", 20), Answer("a", 1.0, 0.0, "v", 1.0, 1.0,
                                          True)),
                  (("male",), Answer("a", 2.0, 0.0, "v", 1.0, 1.0, True)))
        with pytest.raises(WireFormatError):
            encode_response(QueryResponse(0, groups=groups))

    def test_empty_group_list_round_trips(self):
        response = QueryResponse(0, groups=())
        body = encode_response(response)
        assert len(body["groups"]) == 8
        assert all(column == [] for column in body["groups"].values())
        assert decode_response(body) == response

    def test_integer_numbers_decode_as_floats(self):
        body = _mutated(lambda b: b["groups"].update(
            value=[12, -3, 0], per_bin_variance=100))
        answers = [a for _, a in decode_response(body).groups]
        assert [a.value for a in answers] == [12.0, -3.0, 0.0]
        assert [a.per_bin_variance for a in answers] == [100.0] * 3
        assert all(type(a.value) is float and
                   type(a.per_bin_variance) is float for a in answers)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda b: b["groups"]["value"].pop(),
                     id="short-column"),
        pytest.param(lambda b: b["groups"]["cache_hit"].append(True),
                     id="long-column"),
        pytest.param(lambda b: [column.pop()
                                for column in b["groups"]["keys"]],
                     id="short-keys"),
        pytest.param(lambda b: b["groups"]["keys"][1].pop(),
                     id="key-column-wrong-length"),
        pytest.param(lambda b: b["groups"]["value"].__setitem__(1, True),
                     id="bool-number"),
        pytest.param(lambda b: b["groups"]["epsilon_charged"].__setitem__(
            0, float("nan")), id="nan-number"),
        pytest.param(lambda b: b["groups"]["answer_variance"].__setitem__(
            2, float("inf")), id="inf-number"),
        pytest.param(lambda b: b["groups"]["per_bin_variance"].__setitem__(
            0, 10 ** 400), id="huge-int-number"),
        pytest.param(lambda b: b["groups"]["value"].__setitem__(0, "1.5"),
                     id="string-number"),
        pytest.param(lambda b: b["groups"]["value"].__setitem__(0, None),
                     id="null-number"),
        pytest.param(lambda b: b["groups"]["cache_hit"].__setitem__(0, 1),
                     id="int-cache-hit"),
        pytest.param(lambda b: b["groups"]["cache_hit"].__setitem__(
            2, "true"), id="string-cache-hit"),
        pytest.param(lambda b: b["groups"].__setitem__(
            "analyst", ["alice", 7, "alice"]), id="int-analyst"),
        pytest.param(lambda b: b["groups"].__setitem__("view_name", None),
                     id="null-view-name"),
        pytest.param(lambda b: b["groups"]["keys"].__setitem__(0, "male"),
                     id="key-not-a-list"),
        pytest.param(lambda b: b["groups"]["keys"][0].__setitem__(
            0, ["nested"]), id="key-part-not-scalar"),
        pytest.param(lambda b: b["groups"].pop("answer_variance"),
                     id="missing-column"),
        pytest.param(lambda b: b["groups"].pop("keys"), id="missing-keys"),
        pytest.param(lambda b: b["groups"].__setitem__("value", {"0": 1.0}),
                     id="column-not-a-list"),
        # Scalar columns: one value, checked once, for every group.
        pytest.param(lambda b: b["groups"].__setitem__("value", True),
                     id="scalar-bool-number"),
        pytest.param(lambda b: b["groups"].__setitem__(
            "per_bin_variance", float("nan")), id="scalar-nan-number"),
        pytest.param(lambda b: b["groups"].__setitem__(
            "answer_variance", float("-inf")), id="scalar-inf-number"),
        pytest.param(lambda b: b["groups"].__setitem__(
            "epsilon_charged", 10 ** 400), id="scalar-huge-int-number"),
        pytest.param(lambda b: b["groups"].__setitem__("value", "1.5"),
                     id="scalar-string-number"),
        pytest.param(lambda b: b["groups"].__setitem__("cache_hit", "true"),
                     id="scalar-string-cache-hit"),
        pytest.param(lambda b: b["groups"].__setitem__("cache_hit", 1),
                     id="scalar-int-cache-hit"),
        pytest.param(lambda b: b["groups"].__setitem__("analyst", 7),
                     id="scalar-int-analyst"),
        pytest.param(lambda b: b["groups"].__setitem__("keys", "female"),
                     id="keys-not-a-list"),
        pytest.param(lambda b: b["groups"].__setitem__(
            "keys", [["female", 20], ["male", 20], ["male", 30]]),
            id="protocol-2-key-rows"),
        pytest.param(lambda b: b.__setitem__("groups", [
            {"key": ["female", 20],
             "answer": {"analyst": "alice", "value": 12.5,
                        "epsilon_charged": 0.25, "view_name": "v",
                        "per_bin_variance": 1.0, "answer_variance": 2.0,
                        "cache_hit": False}}]), id="protocol-1-row-list"),
        pytest.param(lambda b: b.__setitem__("protocol", 1),
                     id="protocol-1-envelope"),
        pytest.param(lambda b: b.__setitem__("protocol", 2),
                     id="protocol-2-envelope"),
    ])
    def test_malformed_columns_refused(self, edit):
        with pytest.raises(WireFormatError):
            decode_response(_mutated(edit))


class TestJsonReady:
    def test_numpy_scalars_and_tuples(self):
        cooked = json_ready({
            "count": np.int64(3),
            "spend": np.float64(1.5),
            "key": ("a", np.int32(2)),
            "nested": [{"deep": (np.float32(0.5),)}],
        })
        json.dumps(cooked, allow_nan=False)
        assert cooked == {"count": 3, "spend": 1.5, "key": ["a", 2],
                          "nested": [{"deep": [0.5]}]}
        assert all(type(v) in (int, float, str, list, dict)
                   for v in cooked.values())

    def test_non_finite_floats_become_null(self):
        assert json_ready(float("nan")) is None
        assert json_ready(float("inf")) is None

    def test_unserializable_rejected(self):
        with pytest.raises(WireFormatError):
            json_ready(object())
