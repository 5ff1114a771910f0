"""Wire-protocol properties: encode -> decode is the identity, malformed
payloads are refused with :class:`WireFormatError`, and everything the
encoders emit is strict JSON."""

from __future__ import annotations

import json

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

#: GROUP BY keys: multi-attribute tuples of the scalar types the engine's
#: full-domain semantics produce (categorical labels, integer bins).
group_keys = st.tuples(
    st.one_of(name, st.integers(-1000, 1000)),
    st.one_of(name, st.integers(-1000, 1000)),
).map(lambda t: t[:1]) | st.tuples(
    st.one_of(name, st.integers(-1000, 1000)),
    st.one_of(name, st.integers(-1000, 1000)),
)

scalar_responses = st.builds(
    QueryResponse, index=st.integers(0, 10_000), answer=answers)

group_responses = st.builds(
    QueryResponse,
    index=st.integers(0, 10_000),
    groups=st.lists(st.tuples(group_keys, answers),
                    min_size=1, max_size=6).map(tuple),
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
