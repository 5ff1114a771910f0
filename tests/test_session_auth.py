"""Session routes answer only the analyst who opened the session.

Reproduction: on a 2,000-row service with ``boss`` (privilege 4) and
``intern`` (privilege 1), the intern's own client — or a raw POST with no
token at all — used to submit on the boss's session 1, get answers stamped
``analyst: boss`` and spend the boss's budget; a tokenless ``DELETE`` then
closed the boss's session.  Every session route now carries the caller's
token as ``Authorization: Bearer <token>``: a missing or unknown token is
401, another analyst's session is the unknown-id 404, and either refusal
leaves ``row_totals()`` and the session counters untouched.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro import Analyst
from repro.client import RemoteAnalyst
from repro.client.remote import RemoteError
from repro.datasets import load_adult
from repro.exceptions import ReproError, UnknownAnalyst
from repro.server.daemon import ReproServer
from repro.service.service import QueryService
from repro.service.session import QueryRequest

SQL = "SELECT COUNT(*) FROM adult WHERE age BETWEEN 30 AND 40"
ACCURACY = 2e4


@pytest.fixture(scope="module")
def bundle():
    return load_adult(num_rows=2000, seed=0)


@pytest.fixture()
def live(bundle):
    service = QueryService.build(
        bundle, [Analyst("boss", privilege=4), Analyst("intern", privilege=1)],
        48.0, seed=0)
    server = ReproServer(service, port=0).start()
    yield server
    try:
        server.shutdown(drain_timeout=10.0)
    except ReproError:
        pass


def raw(server, method, path, payload=None, authorization=None):
    """One request from a plain ``http.client`` connection."""
    headers = {"Content-Type": "application/json"}
    if authorization is not None:
        headers["Authorization"] = authorization
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.request(method, path, headers=headers,
                     body=None if payload is None else json.dumps(payload))
        reply = conn.getresponse()
        return reply.status, json.loads(reply.read())
    finally:
        conn.close()


def ledger(server, session_id):
    service = server.service
    return (service.engine.provenance.row_totals(),
            service.snapshot()["service"]["submitted"],
            service._resolve_session(session_id).submitted)


ROUTES = (
    ("POST", "query", {"sql": SQL, "accuracy": ACCURACY}),
    ("POST", "batch", {"requests": [{"sql": SQL, "accuracy": ACCURACY}]}),
    ("DELETE", None, None),
)


def _path(session_id, action):
    base = f"/v1/sessions/{session_id}"
    return base if action is None else f"{base}/{action}"


@pytest.mark.parametrize("method,action,payload", ROUTES)
def test_missing_or_unknown_token_is_401_and_charges_nothing(
        live, method, action, payload):
    with RemoteAnalyst(live.url, token="boss") as boss:
        session = boss.open_session()
        assert boss.submit(session, SQL, accuracy=ACCURACY).ok
        before = ledger(live, session.session_id)
        for authorization in (None, "", "Bearer", "Bearer mallory", "boss",
                              "Basic boss", "Bearer  boss"):
            status, body = raw(live, method,
                               _path(session.session_id, action), payload,
                               authorization)
            assert (status, body["kind"]) == (401, "unauthorized")
            assert ledger(live, session.session_id) == before
        response = boss.submit(session, SQL, accuracy=ACCURACY / 2)
        assert response.ok and response.answer.analyst == "boss"


@pytest.mark.parametrize("method,action,payload", ROUTES)
def test_another_analysts_session_is_the_unknown_id_404(
        live, method, action, payload):
    with RemoteAnalyst(live.url, token="boss") as boss:
        session = boss.open_session()
        assert boss.submit(session, SQL, accuracy=ACCURACY).ok
        before = ledger(live, session.session_id)
        status, body = raw(live, method, _path(session.session_id, action),
                           payload, "Bearer intern")
        never_issued = raw(live, method, _path(999, action), payload,
                           "Bearer intern")
        assert (status, body) == (404, {
            **never_issued[1], "error": f"no open session "
                                        f"{session.session_id}"})
        assert never_issued[1]["error"] == "no open session 999"
        assert ledger(live, session.session_id) == before
        response = boss.submit(session, SQL, accuracy=ACCURACY / 2)
        assert response.ok and response.answer.analyst == "boss"


def test_interns_client_cannot_spend_or_close_the_boss_session(live):
    """The reproduction, through the intern's own ``RemoteAnalyst``."""
    with RemoteAnalyst(live.url, token="boss") as boss, \
            RemoteAnalyst(live.url, token="intern") as intern:
        session = boss.open_session()
        assert session.session_id == 1
        before = ledger(live, 1)
        for attempt in (lambda: intern.submit(1, SQL, accuracy=ACCURACY),
                        lambda: intern.submit_batch(
                            1, [QueryRequest(SQL, accuracy=ACCURACY)]),
                        lambda: intern.close_session(1)):
            with pytest.raises(RemoteError) as info:
                attempt()
            assert (info.value.status, info.value.kind) == (404, "not_found")
        assert ledger(live, 1) == before
        own = intern.open_session()
        answered = intern.submit(own, SQL, accuracy=ACCURACY)
        assert answered.ok and answered.answer.analyst == "intern"
        response = boss.submit(session, SQL, accuracy=ACCURACY)
        assert response.ok and response.answer.analyst == "boss"
        # A closed session stays the owner's: the intern still gets 404,
        # the boss the idempotent close.
        boss.close_session(session)
        with pytest.raises(RemoteError) as info:
            intern.close_session(1)
        assert info.value.status == 404
        boss.close_session(session)


def test_unknown_token_client_is_refused_on_session_routes(live):
    with RemoteAnalyst(live.url, token="boss") as boss:
        session = boss.open_session()
    with RemoteAnalyst(live.url, token="mallory") as mallory:
        with pytest.raises(UnknownAnalyst):
            mallory.submit(session, SQL, accuracy=ACCURACY)


def test_in_process_handle_stays_unauthenticated(live):
    with RemoteAnalyst(live.url, token="boss") as boss:
        session = boss.open_session()
    status, body = live.handle(
        "POST", f"/v1/sessions/{session.session_id}/query",
        json.dumps({"sql": SQL, "accuracy": ACCURACY}).encode())
    assert status == 200 and body["answer"]["analyst"] == "boss"


@pytest.mark.parametrize("token", ["two\nlines", " padded", "caf€"])
def test_client_refuses_a_token_no_header_can_carry(token):
    with pytest.raises(ReproError):
        RemoteAnalyst("http://127.0.0.1:1", token=token)


@pytest.mark.parametrize("digits", [19, 5000])
def test_an_id_no_service_issues_is_a_400_not_a_500(live, digits):
    """A 5000-digit id used to be an HTTP 500 (``int()`` refuses over
    4300 digits); checked before routing it would drop the connection."""
    for method, action, payload in ROUTES:
        status, body = raw(live, method, _path("9" * digits, action),
                           payload, "Bearer boss")
        assert (status, body["kind"]) == (400, "bad_request")
