"""Budget-audit trail: ledger fold, live tailer, forecasts, CLI.

The contract every test here circles is **exact equality**: the offline
fold of checkpoint ⊕ sealed segments ⊕ active tail reproduces the live
provenance table's per-(analyst, view) totals bit-for-bit (both sides
execute the identical IEEE op sequence, and ``repr(float)`` round-trips
through the exposition), so ``repro audit --verify`` can demand ``==``
rather than ``approx``.  Around that core: the live tailer's event ring
and paging, deterministic burn-rate windows and exhaustion forecasts
(injected clock), the ``/v1/audit`` endpoint, the ``repro audit`` CLI
(including ``--verify`` against a live daemon through the lockless
fold), and the tailer's observe-only rule: answers are bitwise equal
with it on or off, and a warm (all-cache) replay adds no event.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import urllib.request

import pytest

from repro.client import RemoteAnalyst
from repro.datasets import load_adult
from repro.exceptions import DurabilityError, RecoveryError, ReproError
from repro.metrics.audit import (
    AuditTrail,
    classify_charge,
    fold_data_dir,
    format_audit_report,
    verify_report,
)
from repro.metrics.telemetry import TelemetryRegistry, parse_exposition
from repro.persistence import DurabilityManager, encode_record
from repro.persistence.recovery import LEDGER_FILE
from repro.server.daemon import ReproServer
from repro.service.service import QueryService
from repro.service.session import QueryRequest
from repro.workloads.service import bfs_style_queries, make_service_analysts

ROWS = 800
EPSILON = 32.0


@pytest.fixture(scope="module")
def bundle():
    return load_adult(num_rows=ROWS, seed=0)


def build_service(bundle, data_dir=None, *, fsync="off", recover="strict",
                  segment_bytes=None, **kwargs) -> QueryService:
    durability = None
    if data_dir is not None:
        durability = DurabilityManager(data_dir, fsync=fsync,
                                       recover=recover,
                                       segment_bytes=segment_bytes)
    return QueryService.build(bundle, make_service_analysts(2), EPSILON,
                              mechanism="additive", seed=0,
                              durability=durability, **kwargs)


def run_workload(service, queries_per_analyst=4) -> None:
    for i, analyst in enumerate(("analyst_00", "analyst_01")):
        session = service.open_session(analyst)
        for k in range(queries_per_analyst):
            response = service.submit(
                session,
                f"SELECT COUNT(*) FROM adult "
                f"WHERE age BETWEEN {20 + i} AND {50 + k}",
                accuracy=2000.0 / (k + 1))
            assert response.ok, response.error
        service.close_session(session)


def live_state(service) -> tuple[dict, float]:
    provenance = service.engine.provenance
    return dict(provenance.row_totals()), provenance.table_total()


def scrape_registry(service) -> dict:
    registry = TelemetryRegistry()
    service.bind_telemetry(registry)
    return parse_exposition(registry.render())


# ---------------------------------------------------------------------------
# classify_charge
# ---------------------------------------------------------------------------

class TestClassifyCharge:
    def test_zcdp_by_rho(self):
        assert classify_charge({"rho": 0.25}) == "vanilla_zcdp"

    def test_additive_by_global_after(self):
        assert classify_charge(
            {"releases": 1, "global_after": 2.0}) == "additive"

    def test_vanilla_otherwise(self):
        assert classify_charge({"releases": 1}) == "vanilla"
        assert classify_charge({}) == "vanilla"

    def test_agrees_with_live_mechanism_label(self, bundle, tmp_path):
        """Every mechanism's ledger meta classifies back to its name."""
        for mechanism in ("additive", "vanilla", "vanilla_zcdp"):
            data_dir = tmp_path / mechanism
            service = QueryService.build(
                bundle, make_service_analysts(2), EPSILON,
                mechanism=mechanism, seed=0,
                durability=DurabilityManager(data_dir, fsync="off"))
            run_workload(service, queries_per_analyst=2)
            name = service.engine.mechanism.name
            service.close()
            report = fold_data_dir(data_dir)
            assert report.charges > 0
            labels = {label for (_, _, label) in report.cells}
            assert labels == {name}


# ---------------------------------------------------------------------------
# Offline fold
# ---------------------------------------------------------------------------

class TestOfflineFold:
    def test_fold_reproduces_live_totals_exactly(self, bundle, tmp_path):
        service = build_service(bundle, tmp_path / "d")
        run_workload(service)
        rows, table = live_state(service)
        service.close()

        report = fold_data_dir(tmp_path / "d")
        assert report.locked is True
        assert report.row_totals == rows          # exact, not approx
        assert report.table_total == table
        assert report.mechanism is None           # no checkpoint yet
        assert {a for (a, _, _) in report.cells} == set(rows)
        for analyst, total in rows.items():
            cell_sum = math.fsum(eps for (a, _, _), eps
                                 in report.cells.items() if a == analyst)
            assert cell_sum == pytest.approx(total)

    def test_fold_across_segments_and_checkpoint(self, bundle, tmp_path):
        """Checkpoint ⊕ sealed segments ⊕ active tail, folded exactly."""
        service = build_service(bundle, tmp_path / "d", segment_bytes=512)
        run_workload(service, queries_per_analyst=3)
        service.checkpoint()
        run_workload(service, queries_per_analyst=5)
        rows, table = live_state(service)
        assert service.durability.sealed_segments() > 0
        service.close()

        report = fold_data_dir(tmp_path / "d")
        assert report.checkpoint_found
        assert report.checkpoint_seq > 0
        assert report.mechanism == "additive"
        assert report.row_totals == rows
        assert report.table_total == table
        # The timeline only re-narrates the post-checkpoint tail.
        assert all(e["seq"] > report.checkpoint_seq
                   for e in report.events)
        cumulative = {}
        for event in report.events:
            if event["kind"] == "charge":
                cumulative[event["analyst"]] = event["cumulative"]
        assert cumulative == rows

    def test_ordered_events_with_running_cumulative(self, bundle,
                                                    tmp_path):
        service = build_service(bundle, tmp_path / "d")
        run_workload(service, queries_per_analyst=2)
        service.close()
        report = fold_data_dir(tmp_path / "d")
        seqs = [event["seq"] for event in report.events]
        assert seqs == sorted(seqs)
        kinds = {event["kind"] for event in report.events}
        assert kinds == {"charge", "session"}
        running = 0.0
        for event in report.events:
            if event["kind"] == "charge" and \
                    event["analyst"] == "analyst_00":
                running += event["eps"]
                assert event["cumulative"] == pytest.approx(running)

    def test_strict_refuses_torn_tail_permissive_salvages(self, bundle,
                                                          tmp_path):
        service = build_service(bundle, tmp_path / "d")
        run_workload(service, queries_per_analyst=2)
        rows, _ = live_state(service)
        service.close()
        torn = encode_record({"t": "charge", "seq": 9999,
                              "analyst": "analyst_00",
                              "view": "adult.age", "eps": 0.125,
                              "mode": "max"})
        with open(tmp_path / "d" / LEDGER_FILE, "a",
                  encoding="utf-8") as handle:
            handle.write(torn)  # no newline: cut mid-append

        with pytest.raises(RecoveryError, match="torn tail"):
            fold_data_dir(tmp_path / "d", mode="strict")

        report = fold_data_dir(tmp_path / "d", mode="permissive")
        assert report.torn_tail and report.salvaged_charges == 1
        want = rows["analyst_00"] + 0.125
        assert report.row_totals["analyst_00"] == want
        assert report.events[-1]["salvaged"] is True

    def test_lockless_fold_while_daemon_holds_flock(self, bundle,
                                                    tmp_path):
        service = build_service(bundle, tmp_path / "d")
        try:
            run_workload(service)
            rows, table = live_state(service)
            report = fold_data_dir(tmp_path / "d")  # lock is held
            assert report.locked is False
            assert report.row_totals == rows
            assert report.table_total == table
        finally:
            service.close()

    def test_missing_dir_and_bad_mode_refused(self, tmp_path):
        with pytest.raises(DurabilityError, match="does not exist"):
            fold_data_dir(tmp_path / "nope")
        with pytest.raises(RecoveryError, match="unknown audit mode"):
            fold_data_dir(tmp_path, mode="sloppy")

    def test_format_report_human_table(self, bundle, tmp_path):
        service = build_service(bundle, tmp_path / "d")
        run_workload(service, queries_per_analyst=2)
        service.close()
        report = fold_data_dir(tmp_path / "d")
        text = format_audit_report(report, limit=5)
        assert "analyst_00" in text and "table total" in text
        only = format_audit_report(report, analyst="analyst_01")
        assert "analyst_00:" not in only and "analyst_01:" in only


# ---------------------------------------------------------------------------
# Exposition equality (the --verify contract)
# ---------------------------------------------------------------------------

class TestVerifyAgainstMetrics:
    def test_threaded_fold_matches_exposition_exactly(self, bundle,
                                                      tmp_path):
        service = build_service(bundle, tmp_path / "d")
        run_workload(service)
        families = scrape_registry(service)
        service.close()
        report = fold_data_dir(tmp_path / "d")
        assert verify_report(report, families) == []

    def test_verify_reports_divergence_per_cell(self, bundle, tmp_path):
        service = build_service(bundle, tmp_path / "d")
        run_workload(service, queries_per_analyst=2)
        families = scrape_registry(service)
        service.close()
        report = fold_data_dir(tmp_path / "d")

        (key, eps), = [next(iter(report.cells.items()))]
        report.cells[key] = eps + 1e-9
        problems = verify_report(report, families)
        assert any("cell" in p for p in problems)

    def test_verify_requires_a_repro_daemon(self, bundle, tmp_path):
        service = build_service(bundle, tmp_path / "d")
        run_workload(service, queries_per_analyst=2)
        service.close()
        report = fold_data_dir(tmp_path / "d")
        problems = verify_report(report, {})
        assert any("repro_epsilon_table_total" in p for p in problems)

    def test_spent_counter_family_reads_the_table(self, bundle):
        """The counter family is scrape-time, labeled, and sums to the
        row gauge exactly — no double bookkeeping to drift."""
        service = build_service(bundle)
        try:
            run_workload(service, queries_per_analyst=3)
            families = scrape_registry(service)
            spent = families["repro_epsilon_spent_total"]
            rows = families["repro_epsilon_row_total"]
            assert spent, "no spend cells exported"
            for labels in spent:
                by = dict(labels)
                assert set(by) == {"analyst", "view", "mechanism"}
                assert by["mechanism"] == "additive"
            live = service.engine.provenance.row_totals()
            for labels, value in rows.items():
                assert value == live[dict(labels)["analyst"]]
        finally:
            service.close()


# ---------------------------------------------------------------------------
# Live tailer: ring, paging, burn windows, forecasts
# ---------------------------------------------------------------------------

class TestAuditTrail:
    def test_session_and_charge_events_recorded(self, bundle):
        service = build_service(bundle)
        try:
            run_workload(service, queries_per_analyst=2)
            trail = service.audit
            desc = trail.describe()
            assert desc["enabled"] and desc["charges"] > 0
            assert desc["sessions"] == 4  # 2 opens + 2 closes
            events = trail.events(limit=1000)
            kinds = [e["kind"] for e in events]
            assert kinds[0] == "session" and "charge" in kinds
            charge = next(e for e in events if e["kind"] == "charge")
            assert charge["ledger_seq"] is None  # no durability bound
            assert charge["mechanism"] == "additive"
        finally:
            service.close()

    def test_events_page_and_filter(self, bundle):
        service = build_service(bundle)
        try:
            run_workload(service, queries_per_analyst=3)
            trail = service.audit
            page = trail.events(limit=2)
            assert len(page) == 2
            rest = trail.events(since_seq=page[-1]["audit_seq"],
                                limit=1000)
            assert rest[0]["audit_seq"] == page[-1]["audit_seq"] + 1
            mine = trail.events(analyst="analyst_01", limit=1000)
            assert mine and all(e["analyst"] == "analyst_01"
                                for e in mine)
        finally:
            service.close()

    def test_charge_events_carry_ledger_seq(self, bundle, tmp_path):
        service = build_service(bundle, tmp_path / "d")
        try:
            run_workload(service, queries_per_analyst=2)
            charges = [e for e in service.audit.events(limit=1000)
                       if e["kind"] == "charge"]
            seqs = [e["ledger_seq"] for e in charges]
            assert all(isinstance(s, int) for s in seqs)
            assert seqs == sorted(seqs)
        finally:
            service.close()

    def test_burn_rate_windows_deterministic_clock(self, bundle):
        service = build_service(bundle)
        try:
            clock = {"t": 1000.0}
            trail = AuditTrail(service.engine, None,
                               windows=(60.0, 300.0),
                               time_fn=lambda: clock["t"])
            trail.record_charge("analyst_00", "adult.age", 1.2, "max",
                                {"releases": 1, "global_after": 1.2})
            clock["t"] = 1030.0
            trail.record_charge("analyst_00", "adult.age", 0.6, "max",
                                {"releases": 1, "global_after": 1.8})
            # 1.8 eps inside the last 60s -> 1.8 eps/min.
            assert trail.burn_rates(60.0) == \
                {"analyst_00": pytest.approx(1.8)}
            # The 300s window sees the same spend at a fifth the rate.
            assert trail.burn_rates(300.0) == \
                {"analyst_00": pytest.approx(1.8 / 5)}
            # Advance past the short window: the first charge ages out
            # of the 60s cutoff, then past every window entirely.
            clock["t"] = 1080.0
            assert trail.burn_rates(60.0) == \
                {"analyst_00": pytest.approx(0.6)}
            clock["t"] = 2000.0
            assert trail.burn_rates(60.0) == {"analyst_00": 0.0}
        finally:
            service.close()

    def test_exhaustion_projects_linearly_and_idles_to_inf(self, bundle):
        service = build_service(bundle)
        try:
            clock = {"t": 0.0}
            trail = AuditTrail(service.engine, None, windows=(60.0,),
                               time_fn=lambda: clock["t"])
            trail.record_charge("analyst_00", "adult.age", 0.6, "max")
            forecasts = trail.exhaustion(60.0)
            constraints = service.engine.constraints
            remaining = constraints.analyst_limit("analyst_00")
            assert forecasts["analyst_00"] == \
                pytest.approx(remaining / (0.6 / 60.0))
            assert forecasts["analyst_01"] == math.inf  # idle
            table = trail.table_exhaustion(60.0)
            assert table == pytest.approx(
                constraints.table / (0.6 / 60.0))
        finally:
            service.close()

    def test_exhaustion_zero_at_cap(self):
        from repro.metrics.audit import _project
        assert _project(0.0, 1.0) == 0.0
        assert _project(-0.5, 1.0) == 0.0
        assert _project(1.0, 0.0) == math.inf
        assert _project(2.0, 0.5) == 4.0

    def test_ring_bounded(self, bundle):
        service = build_service(bundle)
        try:
            trail = AuditTrail(service.engine, None, ring=8,
                               time_fn=lambda: 0.0)
            for i in range(20):
                trail.record_session("open", i, "analyst_00")
            events = trail.events(limit=1000)
            assert len(events) == 8
            assert events[0]["audit_seq"] == 13  # oldest retained
            assert trail.describe()["next_seq"] == 21
        finally:
            service.close()

    def test_rejects_bad_windows(self, bundle):
        service = build_service(bundle)
        try:
            with pytest.raises(ValueError, match="positive"):
                AuditTrail(service.engine, None, windows=())
            with pytest.raises(ValueError, match="positive"):
                AuditTrail(service.engine, None, windows=(60.0, -1.0))
        finally:
            service.close()

    def test_audit_disabled_service(self, bundle):
        service = build_service(bundle, audit=False)
        try:
            run_workload(service, queries_per_analyst=2)
            assert service.audit is None
            assert service.snapshot()["audit"] == {"enabled": False}
        finally:
            service.close()

    def test_snapshot_carries_audit_block(self, bundle):
        service = build_service(bundle)
        try:
            run_workload(service, queries_per_analyst=2)
            block = service.snapshot()["audit"]
            assert block["enabled"] and block["charges"] > 0
        finally:
            service.close()

    def test_burn_and_forecast_gauges_exported(self, bundle):
        service = build_service(bundle)
        try:
            run_workload(service, queries_per_analyst=2)
            families = scrape_registry(service)
            burn = families["repro_epsilon_burn_rate_per_min"]
            windows = {dict(labels)["window"] for labels in burn}
            assert windows == {"60", "300"}
            forecasts = families["repro_exhaustion_seconds"]
            analysts = {dict(labels)["analyst"] for labels in forecasts}
            assert analysts == {"analyst_00", "analyst_01"}
            assert all(v > 0 for v in forecasts.values())
            assert families["repro_table_exhaustion_seconds"][()] > 0
        finally:
            service.close()

    def test_ledger_observability_gauges(self, bundle, tmp_path):
        service = build_service(bundle, tmp_path / "d", segment_bytes=512)
        try:
            run_workload(service, queries_per_analyst=3)
            service.checkpoint()
            run_workload(service, queries_per_analyst=2)
            families = scrape_registry(service)
            durability = service.durability
            assert families["repro_ledger_segments"][()] == \
                float(durability.sealed_segments())
            assert families["repro_ledger_active_bytes"][()] == \
                float(durability.active_ledger_bytes())
            assert families["repro_checkpoint_age_seconds"][()] >= 0.0
            assert families["repro_recovery_replayed_records"][()] == 0.0
        finally:
            service.close()


# ---------------------------------------------------------------------------
# GET /v1/audit
# ---------------------------------------------------------------------------

def get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10) as reply:
        return json.loads(reply.read().decode("utf-8"))


class TestAuditEndpoint:
    @pytest.fixture()
    def server(self, bundle):
        live = ReproServer(build_service(bundle), port=0).start()
        yield live
        try:
            live.shutdown(drain_timeout=10.0)
        except ReproError:
            pass

    def drive(self, server, queries=3) -> None:
        with RemoteAnalyst(server.url, token="analyst_00") as client:
            session = client.open_session()
            for k in range(queries):
                response = client.submit(
                    session,
                    "SELECT COUNT(*) FROM adult WHERE age >= 30",
                    accuracy=2000.0 / (k + 1))
                assert response.ok, response.error
            client.close_session(session)

    def test_endpoint_shape_and_paging(self, server):
        self.drive(server)
        payload = get_json(server.url + "/v1/audit?limit=2")
        assert payload["audit"]["enabled"]
        assert len(payload["events"]) == 2
        cursor = payload["next_since_seq"]
        assert cursor == payload["events"][-1]["audit_seq"]
        rest = get_json(server.url
                        + f"/v1/audit?since_seq={cursor}&limit=100")
        assert rest["events"][0]["audit_seq"] == cursor + 1
        assert set(payload["burn_rates"]) == {"60", "300"}

    def test_endpoint_analyst_filter_and_null_idle(self, server):
        self.drive(server)
        payload = get_json(server.url + "/v1/audit?analyst=analyst_00")
        assert all(e["analyst"] == "analyst_00"
                   for e in payload["events"])
        # analyst_01 never charged: inf forecast ships as JSON null.
        assert payload["exhaustion"]["analyst_01"] is None
        assert payload["exhaustion"]["analyst_00"] > 0
        assert payload["table_exhaustion"] > 0

    def test_endpoint_disabled_shape(self, bundle):
        live = ReproServer(build_service(bundle, audit=False),
                           port=0).start()
        try:
            payload = get_json(live.url + "/v1/audit")
            assert payload["audit"] == {"enabled": False}
            assert payload["events"] == []
        finally:
            live.shutdown(drain_timeout=10.0)


# ---------------------------------------------------------------------------
# repro audit CLI
# ---------------------------------------------------------------------------

def run_cli(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.path.join(root, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, "-m", "repro", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=180)


class TestAuditCli:
    @pytest.fixture(scope="class")
    def data_dir(self, bundle, tmp_path_factory):
        path = tmp_path_factory.mktemp("audit-cli") / "d"
        service = build_service(bundle, path)
        run_workload(service, queries_per_analyst=3)
        rows, table = live_state(service)
        service.close()
        return path, rows, table

    def test_human_report(self, data_dir):
        path, rows, _ = data_dir
        proc = run_cli("audit", "--data-dir", str(path))
        assert proc.returncode == 0, proc.stderr
        assert "analyst_00" in proc.stdout
        assert "table total" in proc.stdout

    def test_json_report_matches_live_totals(self, data_dir):
        path, rows, table = data_dir
        proc = run_cli("audit", "--data-dir", str(path), "--json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["row_totals"] == rows  # repr round-trip: exact
        assert payload["table_total"] == table
        assert payload["charges"] > 0

    def test_missing_dir_fails_loudly(self, tmp_path):
        proc = run_cli("audit", "--data-dir", str(tmp_path / "nope"))
        assert proc.returncode == 2
        assert "does not exist" in proc.stderr

    def test_verify_against_live_daemon(self, bundle, tmp_path):
        """--verify scrapes the daemon and demands exact equality (the
        daemon holds the flock, so the fold goes lockless)."""
        service = build_service(bundle, tmp_path / "d")
        live = ReproServer(service, port=0).start()
        try:
            with RemoteAnalyst(live.url, token="analyst_00") as client:
                session = client.open_session()
                client.submit(session,
                              "SELECT COUNT(*) FROM adult "
                              "WHERE age >= 25", accuracy=500.0)
                client.close_session(session)
            proc = run_cli("audit", "--data-dir", str(tmp_path / "d"),
                           "--verify", live.url)
            assert proc.returncode == 0, \
                f"{proc.stdout}\n{proc.stderr}"
            assert "totals match" in proc.stdout
            assert "lockless" in proc.stdout
        finally:
            live.shutdown(drain_timeout=10.0)


# ---------------------------------------------------------------------------
# The tailer observes, never steers (its cost is perf/'s
# metrics.observer_overhead_ratio)
# ---------------------------------------------------------------------------

def replay_batches(service, bundle) -> list[tuple]:
    """One batched BFS-style stream per analyst; every outcome, raw."""
    requests = [QueryRequest(sql, accuracy=2e4 * (1 + k % 3))
                for attr in ("age", "hours_per_week")
                for k, sql in enumerate(bfs_style_queries(bundle, attr,
                                                          depth=2))]
    outcomes = []
    for analyst in ("analyst_00", "analyst_01"):
        session = service.open_session(analyst)
        for start in range(0, len(requests), 4):
            for r in service.submit_batch(session,
                                          requests[start:start + 4]):
                outcomes.append(
                    (r.answer.value, r.answer.epsilon_charged)
                    if r.answer is not None else (r.error,))
        service.close_session(session)
    return outcomes


class TestAuditObservesOnly:
    def test_audit_on_and_off_answer_bitwise_equal(self, bundle):
        services = {audit: build_service(bundle, audit=audit)
                    for audit in (True, False)}
        try:
            on, off = (replay_batches(services[a], bundle)
                       for a in (True, False))
            assert on == off
            assert any(len(o) == 2 and o[1] > 0.0 for o in on)
            trail = services[True].audit
            assert services[False].audit is None
            charges = trail.describe()["charges"]
            assert charges >= 1
            # A warm replay is all cache: no charge, no trail event.
            warm = replay_batches(services[True], bundle)
            assert all(len(o) == 2 and o[1] == 0.0 for o in warm)
            assert trail.describe()["charges"] == charges
        finally:
            for service in services.values():
                service.close()


# ---------------------------------------------------------------------------
# serve --log-json (structured access log)
# ---------------------------------------------------------------------------

class TestLogJson:
    def test_access_log_lines(self, bundle, capsys):
        service = build_service(bundle)
        live = ReproServer(service, port=0, log_json=True).start()
        try:
            with RemoteAnalyst(live.url, token="analyst_00") as client:
                session = client.open_session()
                client.submit(session,
                              "SELECT COUNT(*) FROM adult "
                              "WHERE age >= 25", accuracy=500.0)
                client.close_session(session)
                client.metrics_text()
        finally:
            live.shutdown(drain_timeout=10.0)
        lines = [json.loads(line) for line
                 in capsys.readouterr().err.splitlines()
                 if line.startswith("{")]
        assert len(lines) >= 4
        by_route = {record["route"]: record for record in lines}
        assert set(by_route) >= {"POST /v1/sessions",
                                 "POST /v1/sessions/{id}/query",
                                 "DELETE /v1/sessions/{id}",
                                 "GET /v1/metrics"}
        query = by_route["POST /v1/sessions/{id}/query"]
        assert query["status"] == 200
        assert query["analyst"] == "analyst_00"
        assert query["trace"]  # correlated with the request trace id
        assert query["latency_ms"] >= 0.0
        assert query["path"] == "/v1/sessions/1/query"
        # Routes with no acting analyst log null, not a stale value.
        assert by_route["GET /v1/metrics"]["analyst"] is None

    def test_log_json_off_by_default(self, bundle, capsys):
        service = build_service(bundle)
        live = ReproServer(service, port=0).start()
        try:
            with RemoteAnalyst(live.url, token="analyst_00") as client:
                session = client.open_session()
                client.close_session(session)
        finally:
            live.shutdown(drain_timeout=10.0)
        assert not [line for line
                    in capsys.readouterr().err.splitlines()
                    if line.startswith("{")]
