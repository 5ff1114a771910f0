"""A statement the compiler cannot use is that item's error, never the
batch's: a malformed numeric literal (``1.5.2``, ``1..2``) is an
:class:`SQLError` naming its position whether or not a compiled shape's
plan met it first, and a string operand in an ordering comparison on an integer
attribute makes every view unanswerable.  Both used to escape as a raw
``ValueError`` / ``TypeError``: out of ``submit``, through all siblings
of a ``submit_batch``, and as an HTTP 500 over the wire."""

from __future__ import annotations

import http.client
import json

import pytest

from repro import Analyst, QueryRequest, QueryService, load_adult
from repro.db.sql.lexer import scan_slots
from repro.db.sql.parser import parse
from repro.exceptions import SQLError
from repro.server.daemon import ReproServer

TABLE = "adult"
GOOD = [f"SELECT COUNT(*) FROM {TABLE} WHERE age BETWEEN {lo} AND {hi}"
        for lo, hi in ((20, 40), (30, 65), (17, 90))]
MALFORMED = {
    f"SELECT COUNT(*) FROM {TABLE} WHERE age BETWEEN 1.5.2 AND 40":
        "malformed number '1.5.2' at position 45",
    f"SELECT COUNT(*) FROM {TABLE} WHERE age BETWEEN 20 AND 1..2":
        "malformed number '1..2' at position 52",
}
NON_NUMERIC = [
    f"SELECT COUNT(*) FROM {TABLE} WHERE age BETWEEN 'x' AND 40",
    f"SELECT COUNT(*) FROM {TABLE} WHERE age < 'x'",
]
ACCURACY = 2e5


@pytest.fixture(scope="module")
def bundle():
    return load_adult(num_rows=800, seed=0)


def build(bundle) -> QueryService:
    service = QueryService.build(bundle, [Analyst("a", 4)], 48.0, seed=0,
                                 noise_streams="per_view")
    # A dyadic view is a candidate for every range on age: it must find
    # the string operand unanswerable too, not crash on it.
    service.engine.register_hierarchical_view("age")
    return service


@pytest.mark.parametrize("sql, message", sorted(MALFORMED.items()))
def test_malformed_number_is_the_same_sql_error_parsed_or_bound(
        bundle, sql, message):
    with pytest.raises(SQLError) as parsed:
        parse(sql)
    assert str(parsed.value) == message
    # The text has the shape of a compiled statement, so its plan meets
    # the slot first; it cannot read it and hands over to the parser.
    assert scan_slots(sql)[0] == scan_slots(GOOD[0])[0]
    service = build(bundle)
    try:
        cache = service.engine.statement_cache
        service.engine.compile_statement(GOOD[0])
        with pytest.raises(SQLError) as bound:
            service.engine.compile_statement(sql)
        assert str(bound.value) == message
        assert cache.counters()["template_hits"] == 1
    finally:
        service.close()


def test_a_digit_string_past_the_int_limit_is_an_sql_error():
    with pytest.raises(SQLError, match="malformed number"):
        parse(f"SELECT COUNT(*) FROM t WHERE a = {'9' * 5000}")


@pytest.mark.parametrize("sql", sorted(MALFORMED) + NON_NUMERIC)
def test_single_submit_returns_an_error_response(bundle, sql):
    service = build(bundle)
    try:
        session = service.open_session("a")
        service.submit(session, GOOD[0], accuracy=ACCURACY)  # warm the shape
        before = service.engine.provenance.row_totals()
        response = service.submit(session, sql, accuracy=ACCURACY)
        assert not response.ok and not response.rejected
        expected = MALFORMED.get(sql, "no registered view answers")
        assert expected in response.error
        assert service.engine.provenance.row_totals() == before
        stats = service.snapshot()["service"]
        assert (stats["submitted"], stats["failed"]) == (2, 1)
    finally:
        service.close()


def test_batch_siblings_are_answered_as_if_the_bad_items_were_absent(bundle):
    bad = sorted(MALFORMED) + NON_NUMERIC
    mixed = [GOOD[0], bad[0], GOOD[1], bad[1], bad[2], GOOD[2], bad[3]]
    services = build(bundle), build(bundle)
    try:
        sessions = [s.open_session("a") for s in services]
        with_bad = services[0].submit_batch(
            sessions[0], [QueryRequest(q, accuracy=ACCURACY) for q in mixed])
        clean = services[1].submit_batch(
            sessions[1], [QueryRequest(q, accuracy=ACCURACY) for q in GOOD])
        answered = [r for q, r in zip(mixed, with_bad) if q in GOOD]
        assert [r.value() for r in answered] == [r.value() for r in clean]
        for sql, response in zip(mixed, with_bad):
            if sql not in GOOD:
                assert not response.ok
                assert MALFORMED.get(sql, "no registered view answers") \
                    in response.error
        assert services[0].engine.provenance.row_totals() == \
            services[1].engine.provenance.row_totals()
        stats = services[0].snapshot()["service"]
        assert (stats["submitted"], stats["failed"]) == (7, 4)
    finally:
        for service in services:
            service.close()


def test_over_the_wire_the_bad_item_is_an_envelope_not_a_500(bundle):
    server = ReproServer(build(bundle), port=0).start()
    try:
        def post(path: str, payload: dict):
            conn = http.client.HTTPConnection(server.host, server.port)
            conn.request("POST", path, body=json.dumps(payload),
                         headers={"Content-Type": "application/json"})
            reply = conn.getresponse()
            body = json.loads(reply.read())
            conn.close()
            return reply.status, body

        status, body = post("/v1/sessions", {"token": "a"})
        assert status == 200
        base = f"/v1/sessions/{body['session_id']}"
        for sql in sorted(MALFORMED) + NON_NUMERIC:
            status, body = post(f"{base}/query",
                                {"sql": sql, "accuracy": ACCURACY})
            assert status == 200, body
            assert MALFORMED.get(sql, "no registered view answers") \
                in body["error"]
        status, body = post(f"{base}/batch", {"requests": [
            {"sql": sql, "accuracy": ACCURACY}
            for sql in [GOOD[0], *MALFORMED, *NON_NUMERIC]]})
        assert status == 200
        errors = [entry.get("error") for entry in body["responses"]]
        assert errors[0] is None and all(errors[1:])
    finally:
        server.shutdown()
