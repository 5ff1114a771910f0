"""Tracing + lineage: the observability layer observes, never steers.

Four contracts under test:

* **Span trees** — the service nests plan/view-group spans under one
  request trace.
* **Lineage** — every answer carries a :class:`Lineage` record derived
  from what already happened (view, source, epsilon, mechanism,
  composition, synopsis generation), and the *accounting-bearing*
  fields are bit-identical whether tracing is on or off, fast lane on
  or off.
* **The wire** — lineage is an optional response field: servers omit
  the key when absent, old clients ignore it, and the codec
  round-trips every populated field exactly.
* **Telemetry** — :class:`Histogram` renders cumulative Prometheus
  ``_bucket`` series that :func:`parse_exposition` reads back, and the
  tracer's ``/v1/trace`` ring stays bounded.

The pure-logic alert conditions of ``repro monitor`` ride along at the
end — two parsed samples in, alert strings out, no server or clock.
"""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.client import RemoteAnalyst
from repro.datasets import load_adult
from repro.metrics import tracing
from repro.metrics.monitor import evaluate, family_total
from repro.metrics.telemetry import (
    DEFAULT_BUCKETS,
    Histogram,
    TelemetryRegistry,
    parse_exposition,
)
from repro.metrics.tracing import (
    MAX_SPANS_PER_TRACE,
    Trace,
    Tracer,
)
from repro.server.daemon import ReproServer
from repro.server.protocol import (
    decode_response,
    encode_response,
)
from repro.service.service import QueryService
from repro.service.session import Lineage, QueryRequest, QueryResponse
from repro.workloads.service import (
    disjoint_view_attribute_sets,
    make_service_analysts,
)

ROWS = 800
EPSILON = 48.0
ACCURACY = 2e5


@pytest.fixture(scope="module")
def bundle():
    return load_adult(num_rows=ROWS, seed=0)


def make_service(bundle, num_analysts=2, **kwargs) -> QueryService:
    analysts = make_service_analysts(num_analysts)
    service = QueryService.build(bundle, analysts, EPSILON, seed=0,
                                 **kwargs)
    sets_ = disjoint_view_attribute_sets(bundle, num_analysts)
    for attrs in sets_:
        service.engine.register_view(attrs)
    return service


def first_attribute_sql(bundle) -> str:
    from repro.workloads.rrq import ordered_attributes
    attr = ordered_attributes(bundle)[0]
    return (f"SELECT COUNT(*) FROM {bundle.fact_table} "
            f"WHERE {attr} >= 0")


def span_index(trace_dict: dict) -> dict[str, list[dict]]:
    by_name: dict[str, list[dict]] = {}
    for span in trace_dict["spans"]:
        by_name.setdefault(span["name"], []).append(span)
    return by_name


# ---------------------------------------------------------------------------
# Span trees
# ---------------------------------------------------------------------------

class TestSpanTrees:
    def test_threaded_submit_records_nested_spans(self, bundle):
        service = make_service(bundle)
        try:
            session = service.open_session("analyst_00")
            response = service.submit(session, first_attribute_sql(bundle),
                                      accuracy=ACCURACY)
            assert response.ok, response.error
            traces = service.tracer.recent()
            assert traces, "an enabled tracer must retain the trace"
            newest = traces[0]
            assert newest["trace_id"] == response.lineage.trace_id
            by_name = span_index(newest)
            assert "service.submit" in by_name
            root = by_name["service.submit"][0]
            assert root["parent"] is None
            # The first submission releases fresh noise, so the engine
            # records a decision span nested under the request root.
            decision = by_name["decision"][0]
            assert decision["parent"] == root["id"]
            assert decision["attrs"]["outcome"] == "fresh"
            assert decision["attrs"]["epsilon"] > 0.0
            ids = {span["id"] for span in newest["spans"]}
            for span in newest["spans"]:
                assert span["parent"] is None or span["parent"] in ids
        finally:
            service.close()

    def test_batch_shares_one_trace(self, bundle):
        service = make_service(bundle)
        try:
            session = service.open_session("analyst_00")
            sql = first_attribute_sql(bundle)
            requests = [QueryRequest(sql, accuracy=ACCURACY)
                        for _ in range(3)]
            responses = service.submit_batch(session, requests)
            ids = {r.lineage.trace_id for r in responses if r.ok}
            assert len(ids) == 1, \
                f"a batch must share one trace, got {ids}"
            by_name = span_index(service.tracer.recent()[0])
            assert "plan" in by_name
            assert by_name["plan"][0]["attrs"]["queries"] == 3
            assert "view_group" in by_name
            # The repeats after the fresh release show up as the
            # group-level outcome tally, not per-query spans.
            decisions = by_name["decisions"][0]["attrs"]
            assert decisions.get("fresh", 0) + decisions.get("cached", 0) \
                + decisions.get("fast_lane", 0) == 3
        finally:
            service.close()

    def test_disabled_tracer_records_nothing(self, bundle):
        service = make_service(bundle, tracer=Tracer(enabled=False))
        try:
            session = service.open_session("analyst_00")
            response = service.submit(session, first_attribute_sql(bundle),
                                      accuracy=ACCURACY)
            assert response.ok
            assert response.lineage is not None, \
                "lineage is unconditional; only the trace is optional"
            assert response.lineage.trace_id is None
            assert service.tracer.recent() == []
            assert service.tracer.counters()["started"] == 0
        finally:
            service.close()

    def test_span_noop_without_active_trace(self):
        with tracing.span("orphan") as span:
            assert span is None
        tracing.event("orphan")  # must not raise

    def test_trace_span_cap(self):
        trace = Trace("cap")
        for i in range(MAX_SPANS_PER_TRACE + 10):
            trace.begin_span(f"s{i}", None)
        assert len(trace.spans) == MAX_SPANS_PER_TRACE
        assert trace.dropped == 10


# ---------------------------------------------------------------------------
# Lineage equivalence
# ---------------------------------------------------------------------------

def replay_lineages(bundle, queries=6, **build_kwargs) -> list[Lineage]:
    service = make_service(bundle, **build_kwargs)
    try:
        session = service.open_session("analyst_00")
        sql = first_attribute_sql(bundle)
        lineages = []
        for _ in range(queries):
            response = service.submit(session, sql, accuracy=ACCURACY)
            assert response.ok, response.error
            assert response.lineage is not None, \
                "every answer must carry lineage"
            lineages.append(response.lineage)
        return lineages
    finally:
        service.close()


def accounting_fields(lineage: Lineage) -> tuple:
    """The bit-equality surface: everything except the label of the
    non-fresh lane taken and the ids that identify the run."""
    return (lineage.view, lineage.epsilon, lineage.mechanism,
            lineage.composition, lineage.synopsis_generation,
            lineage.source == "fresh")


class TestLineage:
    def test_first_fresh_then_memoized(self, bundle):
        lineages = replay_lineages(bundle)
        assert lineages[0].source == "fresh"
        assert lineages[0].epsilon > 0.0
        for repeat in lineages[1:]:
            assert repeat.source in ("cached", "fast_lane")
            assert repeat.epsilon == 0.0
        assert len({l.view for l in lineages}) == 1
        assert lineages[0].mechanism is not None
        assert lineages[0].composition is not None
        assert lineages[0].synopsis_generation == 1

    def test_lineage_identical_tracing_on_off(self, bundle):
        on = replay_lineages(bundle, tracer=Tracer(enabled=True, sample=1))
        off = replay_lineages(bundle, tracer=Tracer(enabled=False))
        assert [accounting_fields(l) for l in on] == \
            [accounting_fields(l) for l in off]
        assert all(l.trace_id for l in on)
        assert all(l.trace_id is None for l in off)

    def test_lineage_identical_fast_lane_on_off(self, bundle):
        fast = replay_lineages(bundle, fast_lane=True)
        slow = replay_lineages(bundle, fast_lane=False)
        assert [accounting_fields(l) for l in fast] == \
            [accounting_fields(l) for l in slow]
        assert all(l.source == "cached" for l in slow[1:]), \
            "without the fast lane repeats come from the slow-path cache"


# ---------------------------------------------------------------------------
# The wire
# ---------------------------------------------------------------------------

def wire_answer() -> "Answer":
    from repro.core.engine import Answer
    return Answer("analyst_00", 41.5, 0.25, "adult.age", 4.0, 4.0, False)


class TestWire:
    def test_lineage_roundtrip(self):
        lineage = Lineage(view="adult.age", source="fresh",
                          epsilon=0.25, mechanism="additive",
                          composition="max", synopsis_generation=3,
                          ledger_seq=17,
                          trace_id="c-abcd1234-00000001")
        response = QueryResponse(7, answer=wire_answer(), lineage=lineage)
        body = encode_response(response)
        assert "lineage" in body
        decoded = decode_response(body)
        assert decoded.lineage == lineage
        # Older servers sent two more lineage keys (the worker process and
        # its incarnation); the tolerant decoder drops unknown keys.
        body["lineage"].update(worker=1, incarnation=2)
        assert decode_response(body).lineage == lineage

    def test_wire_keys_are_exactly_the_lineage_fields(self):
        """Every field crosses the wire, and nothing else does."""
        response = QueryResponse(7, answer=wire_answer(),
                                 lineage=Lineage(view="adult.age"))
        assert set(encode_response(response)["lineage"]) == \
            set(Lineage._fields)

    def test_absent_lineage_omits_key(self):
        response = QueryResponse(7, answer=wire_answer())
        body = encode_response(response)
        assert "lineage" not in body, \
            "old clients must never see an unexpected key"
        assert decode_response(body).lineage is None

    def test_old_server_payload_decodes(self):
        # A payload shaped like the pre-lineage protocol (no key at all).
        body = encode_response(QueryResponse(3, answer=wire_answer()))
        body.pop("lineage", None)
        decoded = decode_response(body)
        assert decoded.lineage is None
        assert decoded.answer.value == 41.5

    def test_malformed_lineage_degrades(self):
        body = encode_response(QueryResponse(1, answer=wire_answer()))
        body["lineage"] = {"epsilon": "not-a-number", "source": 42}
        decoded = decode_response(body)
        assert decoded.lineage.epsilon == 0.0
        assert decoded.lineage.source == "fresh"


class TestPropagatedTraceIds:
    """The daemon adopts a client's ``"trace"`` id only when it is a
    short printable token.  Any other id is treated as absent: it is
    never kept in the tracer ring, echoed in ``lineage.trace_id`` or
    written to the ``--log-json`` line."""

    HOSTILE = ["x" * 129, "y" * (1 << 20), "line\nbreak", "tab\tid",
               "nul\x00id", "esc\x1b[31m", "caf\u00e9", ""]

    @staticmethod
    def _raw_queries(live, bundle, trace_ids) -> list:
        """POST one query per id over a raw connection; returns each
        response's decoded lineage trace id."""
        conn = http.client.HTTPConnection(live.host, live.port)

        def post(path, payload):
            conn.request("POST", path, body=json.dumps(payload),
                         headers={"Content-Type": "application/json",
                                  "Authorization": "Bearer analyst_00"})
            reply = conn.getresponse()
            return reply.status, json.loads(reply.read())

        try:
            status, opened = post("/v1/sessions", {"token": "analyst_00"})
            assert status == 200
            path = f"/v1/sessions/{opened['session_id']}/query"
            echoed = []
            for trace_id in trace_ids:
                status, body = post(path, {"sql": first_attribute_sql(bundle),
                                           "accuracy": ACCURACY,
                                           "trace": trace_id})
                assert status == 200
                echoed.append(decode_response(body).lineage.trace_id)
            return echoed
        finally:
            conn.close()

    def test_hostile_ids_neither_retained_nor_echoed(self, bundle, capsys):
        service = make_service(bundle)
        live = ReproServer(service, port=0, log_json=True).start()
        try:
            echoed = self._raw_queries(live, bundle, self.HOSTILE)
            retained = [trace["trace_id"]
                        for trace in service.tracer.recent()]
        finally:
            live.shutdown(drain_timeout=10.0)
        logged = [json.loads(line)["trace"] for line
                  in capsys.readouterr().err.splitlines()
                  if line.startswith("{")]
        assert len(echoed) == len(self.HOSTILE)
        for hostile in self.HOSTILE:
            assert hostile not in echoed
            assert hostile not in retained
            assert hostile not in logged
        # Every id the daemon did keep is one it minted itself.
        assert all(len(trace_id) <= 128 and trace_id.isprintable()
                   for trace_id in retained + [t for t in echoed if t])

    def test_well_formed_ids_are_adopted(self, bundle):
        service = make_service(bundle)
        live = ReproServer(service, port=0).start()
        try:
            longest = "a.b:c-d_" * 16  # exactly 128 characters
            echoed = self._raw_queries(live, bundle, [longest])
            assert echoed == [longest]
            with RemoteAnalyst(live.url, token="analyst_01") as client:
                session = client.open_session()
                response = client.submit(session,
                                         first_attribute_sql(bundle),
                                         accuracy=ACCURACY)
                minted = client.last_trace_id
                assert minted and response.lineage.trace_id == minted
                found = {trace["trace_id"]
                         for trace in client.traces()["traces"]}
        finally:
            live.shutdown(drain_timeout=10.0)
        assert {longest, minted} <= found


# ---------------------------------------------------------------------------
# Ring buffer bounds
# ---------------------------------------------------------------------------

class TestTracerRing:
    def test_ring_bounded(self):
        tracer = Tracer(capacity=4, sample=1)
        for i in range(10):
            tracer.finish(tracer.start())
        recent = tracer.recent()
        assert len(recent) == 4
        counters = tracer.counters()
        assert counters["started"] == 10
        assert counters["finished"] == 10
        assert counters["retained"] == 4

    def test_recent_newest_first_and_limited(self):
        tracer = Tracer(capacity=8, sample=1)
        ids = []
        for _ in range(5):
            trace = tracer.start()
            ids.append(trace.trace_id)
            tracer.finish(trace)
        recent = tracer.recent(limit=2)
        assert [t["trace_id"] for t in recent] == ids[-1:-3:-1]

    def test_self_minted_traces_sample(self):
        tracer = Tracer(sample=4)
        minted = [tracer.start() for _ in range(8)]
        # First request always records; then one in every `sample`.
        assert minted[0] is not None and minted[4] is not None
        assert [t for t in minted[1:4] + minted[5:8] if t is not None] == []
        assert tracer.counters()["started"] == 2
        # An explicitly propagated id is never sampled out.
        assert all(tracer.start(f"c-{i}") is not None for i in range(8))

    def test_trace_ids_unique_across_threads(self):
        tracer = Tracer()
        seen: list[str] = []
        def mint():
            for _ in range(200):
                seen.append(tracer.new_trace_id())
        threads = [threading.Thread(target=mint) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(seen) == len(set(seen))


# ---------------------------------------------------------------------------
# Histogram telemetry
# ---------------------------------------------------------------------------

class TestHistogram:
    def test_cumulative_bucket_math(self):
        hist = Histogram("repro_test_seconds", "t", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        counts = hist.bucket_counts()
        assert counts["0.1"] == 1
        assert counts["1"] == 3          # cumulative: 0.05 + both 0.5s
        assert counts["10"] == 4
        assert counts["+Inf"] == 5
        assert hist.count() == 5
        assert hist.sum() == pytest.approx(56.05)

    def test_boundary_is_le_inclusive(self):
        hist = Histogram("repro_test_seconds", "t", buckets=(1.0,))
        hist.observe(1.0)
        assert hist.bucket_counts()["1"] == 1, \
            "Prometheus buckets are le (inclusive) bounds"

    def test_labeled_series_independent(self):
        hist = Histogram("repro_test_seconds", "t", buckets=(1.0,))
        hist.observe(0.5, route="query")
        hist.observe(2.0, route="batch")
        assert hist.bucket_counts(route="query")["1"] == 1
        assert hist.bucket_counts(route="batch")["1"] == 0
        assert hist.count(route="batch") == 1

    def test_render_parse_roundtrip(self):
        registry = TelemetryRegistry()
        hist = registry.histogram("repro_request_seconds",
                                  "latency", buckets=(0.1, 1.0))
        hist.observe(0.05, route="query")
        hist.observe(0.7, route="query")
        parsed = parse_exposition(registry.render())
        buckets = parsed["repro_request_seconds_bucket"]
        assert buckets[(("le", "0.1"), ("route", "query"))] == 1.0
        assert buckets[(("le", "1"), ("route", "query"))] == 2.0
        assert buckets[(("le", "+Inf"), ("route", "query"))] == 2.0
        assert parsed["repro_request_seconds_count"][
            (("route", "query"),)] == 2.0
        assert parsed["repro_request_seconds_sum"][
            (("route", "query"),)] == pytest.approx(0.75)

    def test_inf_bucket_always_equals_count(self):
        hist = Histogram("repro_test_seconds", "t", buckets=DEFAULT_BUCKETS)
        for i in range(37):
            hist.observe(i * 0.31)
        assert hist.bucket_counts()["+Inf"] == hist.count() == 37

    def test_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("repro_bad", "t", buckets=())
        with pytest.raises(ValueError):
            Histogram("repro_bad", "t", buckets=(1.0, 0.5))
        with pytest.raises(ValueError):
            Histogram("repro_bad", "t", buckets=(1.0, 1.0))


# ---------------------------------------------------------------------------
# Monitor alert logic (pure)
# ---------------------------------------------------------------------------

def sample(**families) -> dict:
    return {name: {(): float(value)} for name, value in families.items()}


class TestMonitorEvaluate:
    def test_quiet_samples_no_alerts(self):
        prev = sample(repro_uptime_seconds=10.0,
                      repro_ledger_lag_records=5,
                      repro_rate_limited_total=0)
        cur = sample(repro_uptime_seconds=20.0,
                     repro_ledger_lag_records=5,
                     repro_rate_limited_total=2)
        assert evaluate(prev, cur) == []

    def test_absolute_lag_alert_needs_no_prev(self):
        cur = sample(repro_ledger_lag_records=50_000)
        alerts = evaluate(None, cur)
        assert len(alerts) == 1 and "ledger lag" in alerts[0]

    def test_stale_uptime(self):
        prev = sample(repro_uptime_seconds=30.0)
        cur = sample(repro_uptime_seconds=30.0)
        alerts = evaluate(prev, cur)
        assert any("did not advance" in a for a in alerts)

    def test_restart_detected_as_uptime_regression(self):
        prev = sample(repro_uptime_seconds=100.0)
        cur = sample(repro_uptime_seconds=3.0)
        assert any("did not advance" in a for a in evaluate(prev, cur))

    def test_lag_growth(self):
        prev = sample(repro_uptime_seconds=1.0,
                      repro_ledger_lag_records=0)
        cur = sample(repro_uptime_seconds=2.0,
                     repro_ledger_lag_records=5_000)
        alerts = evaluate(prev, cur)
        assert any("grew by 5000" in a for a in alerts)

    def test_429_spike_rate(self):
        prev = sample(repro_uptime_seconds=1.0,
                      repro_rate_limited_total=0)
        cur = sample(repro_uptime_seconds=11.0,
                     repro_rate_limited_total=200)
        alerts = evaluate(prev, cur, interval=10.0,
                          max_rate_limited_rate=5.0)
        assert any("refused 200 submissions" in a for a in alerts)
        assert evaluate(prev, cur, interval=10.0,
                        max_rate_limited_rate=25.0) == []

    def test_families_without_a_rule_raise_no_alert(self):
        # A counter the monitor has no rule for (say, one an older server
        # still exports) stays quiet even while it grows.
        prev = sample(repro_uptime_seconds=1.0,
                      repro_retired_failures_total=1)
        cur = sample(repro_uptime_seconds=2.0,
                     repro_retired_failures_total=3)
        assert evaluate(prev, cur) == []

    def test_family_total_sums_label_sets(self):
        cur = {"repro_rate_limited_total": {
            (("analyst", "a"),): 3.0, (("analyst", "b"),): 4.0}}
        assert family_total(cur, "repro_rate_limited_total") == 7.0
        assert family_total(cur, "missing") == 0.0

    def test_prev_without_uptime_is_not_stale(self):
        # A prior sample with no uptime family at all (e.g. a monitor
        # primed with an empty first sample) reads as 0.0 — there is no
        # evidence to compare against, so the very first real scrape
        # must not page "did not advance".
        prev: dict = {}
        cur = sample(repro_uptime_seconds=0.4)
        assert evaluate(prev, cur) == []
        prev = sample(repro_uptime_seconds=0.0)
        assert evaluate(prev, sample(repro_uptime_seconds=0.0)) == []

    def test_exhaustion_horizon_off_by_default(self):
        cur = {"repro_exhaustion_seconds": {(("analyst", "a"),): 12.0}}
        assert evaluate(None, cur) == []

    def test_exhaustion_alert_below_horizon(self):
        cur = {"repro_exhaustion_seconds": {
            (("analyst", "a"),): 90.0,
            (("analyst", "b"),): 7200.0}}
        alerts = evaluate(None, cur, exhaustion_horizon=600.0)
        assert len(alerts) == 1
        assert "'a'" in alerts[0] and "exhaust its budget in 90s" \
            in alerts[0]

    def test_exhaustion_idle_inf_never_alerts(self):
        cur = {"repro_exhaustion_seconds": {
            (("analyst", "idle"),): float("inf")}}
        assert evaluate(None, cur, exhaustion_horizon=1e9) == []


# ---------------------------------------------------------------------------
# Exposition escaping + the monitor's scrape path (pure telemetry)
# ---------------------------------------------------------------------------

class TestLabelEscaping:
    def test_counter_escaped_label_values_roundtrip(self):
        registry = TelemetryRegistry()
        counter = registry.counter("repro_weird_total", "w")
        gnarly = 'quote:" slash:\\ newline:\nend'
        counter.inc(3.0, analyst=gnarly)
        counter.inc(2.0, analyst="plain")
        rendered = registry.render()
        assert '\\"' in rendered and "\\n" in rendered
        values = parse_exposition(rendered)["repro_weird_total"]
        assert {dict(labels)["analyst"]: value
                for labels, value in values.items()} == \
            {gnarly: 3.0, "plain": 2.0}

    def test_counter_family_escaped_labels_roundtrip(self):
        registry = TelemetryRegistry()
        registry.counter_family(
            "repro_cells_total", "c",
            lambda: [({"analyst": 'a"b', "view": "x\ny"}, 1.5)])
        parsed = parse_exposition(registry.render())
        (labels, value), = parsed["repro_cells_total"].items()
        assert dict(labels) == {"analyst": 'a"b', "view": "x\ny"}
        assert value == 1.5

    def test_counter_family_refuses_push_counter_name(self):
        registry = TelemetryRegistry()
        registry.counter("repro_mixed_total", "m").inc()
        with pytest.raises(ValueError, match="push-style"):
            registry.counter_family("repro_mixed_total", "m",
                                    lambda: [])


class TestScrapePath:
    def test_histogram_roundtrip_through_monitor_scrape(self,
                                                        monkeypatch):
        """A Histogram survives the monitor's actual scrape path
        (URL normalisation -> HTTP body -> parse_exposition)."""
        import io

        from repro.metrics import monitor

        registry = TelemetryRegistry()
        hist = registry.histogram("repro_request_seconds", "latency",
                                  buckets=(0.1, 1.0))
        hist.observe(0.05, route="query")
        hist.observe(0.7, route="query")
        hist.observe(9.0, route="batch")
        seen: list[str] = []

        def fake_urlopen(url, timeout=None):
            seen.append(url)
            return io.BytesIO(registry.render().encode("utf-8"))

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        families = monitor.scrape("http://daemon.invalid:9")
        assert seen == ["http://daemon.invalid:9/v1/metrics"]
        buckets = families["repro_request_seconds_bucket"]
        assert buckets[(("le", "0.1"), ("route", "query"))] == 1.0
        assert buckets[(("le", "1"), ("route", "query"))] == 2.0
        assert buckets[(("le", "+Inf"), ("route", "batch"))] == 1.0
        assert families["repro_request_seconds_count"][
            (("route", "batch"),)] == 1.0
        assert families["repro_request_seconds_sum"][
            (("route", "query"),)] == pytest.approx(0.75)
