"""Durable accounting: write-ahead ledger, checkpoints, crash recovery.

The invariant every test here circles is the safe direction: recovered
epsilon totals are **>=** the committed totals at any ledger prefix —
a restart may over-count (a charge whose answer was never delivered
stays spent) but must never under-count (re-granting spent budget is a
privacy violation, not data loss).
"""

from __future__ import annotations

import json
import os
import shutil
from collections import defaultdict

import pytest

from repro.datasets import load_adult
from repro.exceptions import (
    DurabilityError,
    QueryRejected,
    RecoveryError,
    ReproError,
)
from repro.persistence import (
    DurabilityManager,
    LedgerWriter,
    decode_line,
    encode_record,
    read_checkpoint,
    read_ledger,
)
from repro.persistence.recovery import LEDGER_FILE
from repro.server.daemon import load_token_table
from repro.service.service import QueryService
from repro.workloads.service import make_service_analysts

ROWS = 1200
EPSILON = 32.0


@pytest.fixture(scope="module")
def bundle():
    return load_adult(num_rows=ROWS, seed=0)


def build_service(bundle, data_dir=None, mechanism="additive",
                  fsync="off", recover="strict",
                  num_analysts=2) -> QueryService:
    durability = None
    if data_dir is not None:
        durability = DurabilityManager(data_dir, fsync=fsync,
                                       recover=recover)
    return QueryService.build(bundle, make_service_analysts(num_analysts),
                              EPSILON, mechanism=mechanism, seed=0,
                              durability=durability)


def run_workload(service, queries_per_analyst=6) -> None:
    """A few fresh releases per analyst (tightening accuracy forces
    refreshes) plus a GROUP BY, mixed across two analysts."""
    for i, analyst in enumerate(("analyst_00", "analyst_01")):
        session = service.open_session(analyst)
        for k in range(queries_per_analyst):
            accuracy = 2000.0 / (k + 1)
            response = service.submit(
                session,
                f"SELECT COUNT(*) FROM adult "
                f"WHERE age BETWEEN {20 + i} AND {50 + k}",
                accuracy=accuracy)
            assert response.ok, response.error
        response = service.submit(
            session, "SELECT sex, COUNT(*) FROM adult GROUP BY sex",
            accuracy=1500.0)
        assert response.ok, response.error
        service.close_session(session)


def provenance_state(service) -> dict:
    return service.snapshot()["provenance"]


# -- ledger encoding / writer -------------------------------------------------

def test_record_roundtrip_identity():
    record = {"t": "charge", "seq": 3, "ts": 1.5, "analyst": "a",
              "view": "adult.age", "eps": 0.25, "mode": "sum",
              "releases": 1}
    line = encode_record(record)
    decoded = decode_line(line)
    assert {k: v for k, v in decoded.items() if k != "crc"} == record
    assert encode_record(decoded) == line


def test_decode_rejects_damage():
    line = encode_record({"t": "charge", "seq": 1, "analyst": "a",
                          "view": "v", "eps": 0.1})
    with pytest.raises(ValueError, match="checksum"):
        decode_line(line.replace("0.1", "0.2"))
    with pytest.raises(ValueError, match="JSON"):
        decode_line(line[:-5])
    with pytest.raises(ValueError, match="type"):
        decode_line(encode_record({"t": "mystery", "seq": 1}))
    with pytest.raises(ValueError, match="sequence"):
        decode_line(encode_record({"t": "charge", "seq": 0, "analyst": "a",
                                   "view": "v", "eps": 0.1}))
    with pytest.raises(ValueError, match="eps"):
        decode_line(encode_record({"t": "charge", "seq": 1, "analyst": "a",
                                   "view": "v", "eps": -1.0}))


def test_ledger_writer_appends_and_reads_back(tmp_path):
    path = tmp_path / "ledger.jsonl"
    writer = LedgerWriter(path, fsync="always", next_seq=5)
    writer.append({"t": "session", "event": "open", "session_id": 1,
                   "analyst": "a"})
    writer.append({"t": "charge", "analyst": "a", "view": "v", "eps": 0.5,
                   "mode": "sum", "releases": 1})
    assert writer.last_seq == 6
    writer.close()
    with pytest.raises(DurabilityError, match="closed"):
        writer.append({"t": "session", "event": "close", "session_id": 1,
                       "analyst": "a"})
    records, tail = read_ledger(path)
    assert tail.status == "ok"
    assert [r["seq"] for r in records] == [5, 6]
    assert records[1]["eps"] == 0.5


def test_writer_rejects_bad_policy(tmp_path):
    with pytest.raises(DurabilityError, match="fsync"):
        LedgerWriter(tmp_path / "l", fsync="sometimes")
    with pytest.raises(DurabilityError, match="recovery mode"):
        DurabilityManager(tmp_path / "d", recover="yolo")
    with pytest.raises(DurabilityError, match="fsync"):
        DurabilityManager(tmp_path / "d", fsync="nope")


def test_read_ledger_torn_tail_and_salvage(tmp_path):
    path = tmp_path / "ledger.jsonl"
    lines = [encode_record({"t": "charge", "seq": s, "analyst": "a",
                            "view": "v", "eps": 0.1}) for s in (1, 2, 3)]
    # A cut-off final append: the classic crash artifact.
    path.write_text("\n".join(lines) + "\n" + lines[0][:17])
    records, tail = read_ledger(path)
    assert [r["seq"] for r in records] == [1, 2, 3]
    assert tail.status == "torn" and tail.line_no == 4
    assert tail.salvage is None  # unreadable fragment -> nothing to apply

    # A complete checksummed record that lost only its trailing newline
    # is torn (its append never finished) but provably intact: salvaged.
    intact = encode_record({"t": "charge", "seq": 4, "analyst": "a",
                            "view": "v", "eps": 0.7})
    path.write_text("\n".join(lines) + "\n" + intact)  # no trailing \n
    records, tail = read_ledger(path)
    assert [r["seq"] for r in records] == [1, 2, 3]
    assert tail.status == "torn"
    assert tail.salvage is not None and tail.salvage["eps"] == 0.7

    # Parseable JSON whose checksum fails is NOT trusted: its fields may
    # be damaged in either direction, and replaying a bit-flipped
    # smaller epsilon would under-count an acknowledged charge.
    unverifiable = json.dumps({"t": "charge", "seq": 4, "analyst": "a",
                               "view": "v", "eps": 0.7})
    path.write_text("\n".join(lines) + "\n" + unverifiable + "\n")
    records, tail = read_ledger(path)
    assert tail.status == "torn" and tail.salvage is None


def test_read_ledger_interior_corruption(tmp_path):
    path = tmp_path / "ledger.jsonl"
    lines = [encode_record({"t": "charge", "seq": s, "analyst": "a",
                            "view": "v", "eps": 0.1}) for s in (1, 2, 3)]
    damaged = [lines[0], "garbage{{{", lines[2]]
    path.write_text("\n".join(damaged) + "\n")
    records, tail = read_ledger(path)
    assert tail.status == "corrupt"
    assert [r["seq"] for r in records] == [1]


def test_compact_refuses_damaged_ledger(tmp_path):
    path = tmp_path / "ledger.jsonl"
    writer = LedgerWriter(path, fsync="off")
    writer.append({"t": "charge", "analyst": "a", "view": "v", "eps": 0.1})
    writer.close()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("torn-fragm")
    writer2 = LedgerWriter(path, fsync="off", next_seq=2)
    with pytest.raises(DurabilityError, match="damaged"):
        writer2.compact(keep_after_seq=0)
    writer2.close()


def test_batch_policy_deadline_flushes_idle_tail(tmp_path):
    """fsync=batch bounds the loss window by wall clock even when no
    further append arrives to trigger the threshold check."""
    import time as _time

    writer = LedgerWriter(tmp_path / "ledger.jsonl", fsync="batch",
                          batch_records=1000, batch_seconds=0.05)
    writer.append({"t": "charge", "analyst": "a", "view": "v", "eps": 0.1})
    deadline = _time.monotonic() + 2.0
    while writer._pending and _time.monotonic() < deadline:
        _time.sleep(0.01)
    assert writer._pending == 0, "idle tail never hit the deadline fsync"
    writer.close()


def test_zcdp_restore_refuses_snapshot_without_rho_ledgers(bundle):
    """A pre-durability snapshot has no rho block; restoring it would
    leave the zCDP constraint ledgers empty — budget re-granted."""
    from repro.core.persistence import engine_state, restore_engine_state

    service = build_service(bundle, None, mechanism="vanilla_zcdp")
    run_workload(service, queries_per_analyst=1)
    state = engine_state(service.engine)
    assert state["zcdp"]["total_rho"] > 0.0
    del state["zcdp"]  # what an older build wrote
    fresh = build_service(bundle, None, mechanism="vanilla_zcdp")
    with pytest.raises(ReproError, match="rho ledgers"):
        restore_engine_state(fresh.engine, state)
    service.close()
    fresh.close()


# -- provenance hook ----------------------------------------------------------

def test_commit_hook_fires_once_and_not_on_rollback():
    from repro.core.provenance import Constraints, ProvenanceTable

    table = ProvenanceTable(("a",), ("v",))
    constraints = Constraints(analyst={"a": 10.0}, view={"v": 10.0},
                              table=10.0)
    seen = []
    table.on_commit = lambda *args: seen.append(args)

    reservation = table.reserve("a", "v", 0.5, constraints,
                                meta={"releases": 1})
    reservation.commit()
    reservation.commit()  # idempotent: must not double-journal
    assert len(seen) == 1
    analyst, view, eps, mode, meta = seen[0]
    assert (analyst, view, eps, mode) == ("a", "v", 0.5, "sum")
    assert meta == {"releases": 1}

    with table.reserve("a", "v", 0.25, constraints):
        pass  # rolled back at __exit__ -> no record
    assert len(seen) == 1

    table.add("a", "v", 0.125, meta={"rho": 0.01})
    assert len(seen) == 2 and seen[1][3] == "add"
    table.set("a", "v", 2.0)  # restores don't journal
    assert len(seen) == 2


# -- crash recovery ----------------------------------------------------------

@pytest.mark.parametrize("mechanism",
                         ["additive", "vanilla", "vanilla_zcdp"])
def test_crash_recovery_rebuilds_accounting(bundle, tmp_path, mechanism):
    data_dir = tmp_path / "d"
    service = build_service(bundle, data_dir, mechanism=mechanism)
    run_workload(service)
    live = provenance_state(service)
    live_delta = {a: service.engine.mechanism.analyst_delta(a)
                  for a in service.engine.analysts}
    live_consumed = {a: service.engine.analyst_consumed(a)
                     for a in service.engine.analysts}
    assert live["table_total"] > 0.0
    del service  # crash: no close(), no checkpoint — ledger only

    recovered = build_service(bundle, data_dir, mechanism=mechanism)
    report = recovered.durability.last_recovery
    assert report.charges_applied > 0 and not report.torn_tail
    assert provenance_state(recovered) == live
    assert {a: recovered.engine.mechanism.analyst_delta(a)
            for a in recovered.engine.analysts} == live_delta
    # zCDP: the converted (rho-ledger) view must survive too, not just
    # the epsilon entries.
    assert {a: recovered.engine.analyst_consumed(a)
            for a in recovered.engine.analysts} == \
        pytest.approx(live_consumed)
    recovered.close()


def test_checkpoint_compaction_and_tail_replay(bundle, tmp_path):
    data_dir = tmp_path / "d"
    service = build_service(bundle, data_dir)
    run_workload(service, queries_per_analyst=4)
    payload = service.checkpoint()
    # Satellite: the checkpoint embeds the exact snapshot() schema.
    assert payload["provenance"] == provenance_state(service)
    records, tail = read_ledger(data_dir / LEDGER_FILE)
    assert tail.status == "ok" and records == []  # fully folded

    run_workload(service, queries_per_analyst=2)  # post-checkpoint tail
    live = provenance_state(service)
    records, _ = read_ledger(data_dir / LEDGER_FILE)
    assert records and all(r["seq"] > payload["ledger_seq"]
                           for r in records)
    del service  # crash

    recovered = build_service(bundle, data_dir)
    report = recovered.durability.last_recovery
    assert report.checkpoint_found
    assert provenance_state(recovered) == live
    # A second crash-free restart is a fixed point.
    recovered.close()
    again = build_service(bundle, data_dir)
    assert provenance_state(again) == live
    again.close()


def test_recovery_skips_records_already_in_checkpoint(bundle, tmp_path):
    """Crash between checkpoint rename and ledger compaction: the stale
    ledger records sit at or below the checkpoint's ledger_seq and must
    not be double-applied."""
    data_dir = tmp_path / "d"
    service = build_service(bundle, data_dir)
    run_workload(service, queries_per_analyst=3)
    live = provenance_state(service)
    ledger_before = (data_dir / LEDGER_FILE).read_text()
    service.checkpoint()
    # Undo the compaction, as if the crash hit right after the rename.
    (data_dir / LEDGER_FILE).write_text(ledger_before)
    del service

    recovered = build_service(bundle, data_dir)
    assert recovered.durability.last_recovery.charges_applied == 0
    assert provenance_state(recovered) == live
    recovered.close()


def test_strict_refuses_torn_tail_permissive_recovers(bundle, tmp_path):
    data_dir = tmp_path / "d"
    service = build_service(bundle, data_dir)
    run_workload(service, queries_per_analyst=3)
    live = provenance_state(service)
    del service
    ledger = data_dir / LEDGER_FILE
    with open(ledger, "a", encoding="utf-8") as handle:
        handle.write('{"t":"charge","analyst":"analyst')  # torn append

    with pytest.raises(RecoveryError, match="torn tail"):
        build_service(bundle, data_dir, recover="strict")

    recovered = build_service(bundle, data_dir, recover="permissive")
    report = recovered.durability.last_recovery
    assert report.torn_tail and report.salvaged_charges == 0
    assert provenance_state(recovered) == live
    # The repaired ledger must accept new appends cleanly: keep serving,
    # crash again, and recover *strict* — without the bind-time repair
    # the fragment + new records would read as interior corruption.
    run_workload(recovered, queries_per_analyst=2)
    live2 = provenance_state(recovered)
    del recovered
    records, tail = read_ledger(data_dir / LEDGER_FILE)
    assert tail.status == "ok"
    seqs = [r["seq"] for r in records]
    assert seqs == sorted(seqs)
    final = build_service(bundle, data_dir, recover="strict")
    assert provenance_state(final) == live2
    final.close()


def test_permissive_salvages_readable_torn_charge(bundle, tmp_path):
    data_dir = tmp_path / "d"
    service = build_service(bundle, data_dir)
    run_workload(service, queries_per_analyst=2)
    live = provenance_state(service)
    del service
    ledger = data_dir / LEDGER_FILE
    # A checksummed charge whose append lost only its newline: the line
    # is provably intact, so permissive recovery applies it —
    # over-counting is the allowed direction (its response was never
    # acknowledged, but the charge may well have stuck server-side).
    torn = encode_record({"t": "charge", "seq": 9999,
                          "analyst": "analyst_00", "view": "adult.age",
                          "eps": 0.125, "mode": "max"})
    with open(ledger, "a", encoding="utf-8") as handle:
        handle.write(torn)  # no newline: cut mid-append

    recovered = build_service(bundle, data_dir, recover="permissive")
    report = recovered.durability.last_recovery
    assert report.salvaged_charges == 1
    assert report.next_seq == 10000
    got = provenance_state(recovered)
    want = live["epsilon_by_analyst"]["analyst_00"] + 0.125
    assert got["epsilon_by_analyst"]["analyst_00"] == pytest.approx(want)
    for name, spent in live["epsilon_by_analyst"].items():
        assert got["epsilon_by_analyst"][name] >= spent - 1e-12
    # The repair re-encoded the salvaged charge as a valid record, so a
    # second (strict) recovery replays the same totals — the over-count
    # sticks instead of silently evaporating.
    del recovered
    records, tail = read_ledger(ledger)
    assert tail.status == "ok" and records[-1]["seq"] == 9999
    again = build_service(bundle, data_dir, recover="strict")
    assert provenance_state(again) == got
    again.close()


def test_lost_final_newline_is_torn_not_glued(bundle, tmp_path):
    """A crash that persists every byte of the final append except its
    newline must read as a torn tail — treating it as clean would let
    the reopened writer glue the next record onto the same line,
    manufacturing unrecoverable interior corruption."""
    data_dir = tmp_path / "d"
    service = build_service(bundle, data_dir)
    run_workload(service, queries_per_analyst=2)
    live = provenance_state(service)
    del service
    ledger = data_dir / LEDGER_FILE
    raw = ledger.read_bytes()
    assert raw.endswith(b"\n")
    ledger.write_bytes(raw[:-1])

    with pytest.raises(RecoveryError, match="torn"):
        build_service(bundle, data_dir, recover="strict")
    recovered = build_service(bundle, data_dir, recover="permissive")
    report = recovered.durability.last_recovery
    assert report.torn_tail
    # The unterminated line passed its checksum, so nothing was lost
    # (the final record here is a session close; a charge would have
    # been salvaged the same way).
    assert provenance_state(recovered) == live
    run_workload(recovered, queries_per_analyst=1)
    live2 = provenance_state(recovered)
    del recovered
    records, tail = read_ledger(ledger)
    assert tail.status == "ok"  # bind repaired before appending
    final = build_service(bundle, data_dir)
    assert provenance_state(final) == live2
    final.close()


def test_both_modes_refuse_interior_corruption(bundle, tmp_path):
    data_dir = tmp_path / "d"
    service = build_service(bundle, data_dir)
    run_workload(service, queries_per_analyst=2)
    del service
    ledger = data_dir / LEDGER_FILE
    lines = ledger.read_text().splitlines()
    assert len(lines) >= 3
    lines[1] = lines[1][:10] + "!!" + lines[1][12:]  # damage mid-file
    ledger.write_text("\n".join(lines) + "\n")
    for mode in ("strict", "permissive"):
        with pytest.raises(RecoveryError, match="interior corruption"):
            build_service(bundle, data_dir, recover=mode)


def test_recovery_refuses_roster_mismatch(bundle, tmp_path):
    data_dir = tmp_path / "d"
    service = build_service(bundle, data_dir, num_analysts=4)
    session = service.open_session("analyst_03")
    assert service.submit(session, "SELECT COUNT(*) FROM adult "
                          "WHERE age >= 40", accuracy=900.0).ok
    del service
    with pytest.raises(RecoveryError, match="analyst"):
        build_service(bundle, data_dir, num_analysts=2)


def test_recovery_requires_fresh_service(bundle, tmp_path):
    service = build_service(bundle, None)
    run_workload(service, queries_per_analyst=1)
    from repro.persistence import recover_service

    with pytest.raises(RecoveryError, match="freshly built"):
        recover_service(service, tmp_path)
    service.close()


def test_data_dir_exclusive_lock(bundle, tmp_path):
    """One journaling process per data directory: a second bind —
    another daemon, or an offline checkpoint cron'd against a live one —
    is refused instead of compacting the ledger out from under the
    first's writer handle."""
    first = build_service(bundle, tmp_path / "d")
    with pytest.raises(DurabilityError, match="locked"):
        build_service(bundle, tmp_path / "d")
    first.close()  # releases the lock
    second = build_service(bundle, tmp_path / "d")
    second.checkpoint()  # offline-style fold re-acquires transiently
    second.close()


def test_open_session_rolls_back_on_journal_failure(bundle, tmp_path):
    service = build_service(bundle, tmp_path / "d")
    service.durability.record_session_event = _raise_disk_full
    with pytest.raises(DurabilityError, match="disk full"):
        service.open_session("analyst_00")
    assert service.active_sessions() == ()
    service.close()


def _raise_disk_full(*args, **kwargs):
    raise DurabilityError("disk full")


def test_session_records_count_interrupted(bundle, tmp_path):
    data_dir = tmp_path / "d"
    service = build_service(bundle, data_dir)
    first = service.open_session("analyst_00")
    service.open_session("analyst_01")  # never closed -> interrupted
    service.close_session(first)
    del service
    recovered = build_service(bundle, data_dir)
    assert recovered.durability.last_recovery.sessions_interrupted == 1
    recovered.close()


def test_delegation_grants_survive_crash_and_cap_enforced(bundle, tmp_path):
    """Grant create/consume events are journaled and replayed: after a
    crash the grant's consumed total is restored, so its epsilon_cap
    keeps binding — a restart must never re-open delegated budget."""
    data_dir = tmp_path / "d"
    service = build_service(bundle, data_dir)
    engine = service.engine
    sql = "SELECT COUNT(*) FROM adult WHERE age BETWEEN 30 AND 40"
    quoted = engine.quote("analyst_00", sql, accuracy=900.0)
    grant_id = engine.grant_delegation("analyst_00", "analyst_01",
                                       epsilon_cap=quoted * 1.5)
    answer = engine.submit("analyst_01", sql, accuracy=900.0,
                           delegation=grant_id)
    assert answer.epsilon_charged > 0
    live = engine.delegations._grants[grant_id]
    assert live.consumed == pytest.approx(answer.epsilon_charged)
    live_consumed, live_queries = live.consumed, live.queries
    # The journal hooks point back at the durability manager, so the
    # engine reference must go too for the crash to release the lock.
    del service, engine, live

    recovered = build_service(bundle, data_dir)
    report = recovered.durability.last_recovery
    assert report.grants_replayed >= 2  # create + consume
    grant = recovered.engine.delegations._grants[grant_id]
    assert grant.grantor == "analyst_00"
    assert grant.grantee == "analyst_01"
    assert grant.epsilon_cap == pytest.approx(quoted * 1.5)
    assert grant.consumed == pytest.approx(live_consumed)
    assert grant.queries == live_queries
    # The restored consumption still counts against the cap: a refresh
    # needing more than the remaining headroom is refused.
    with pytest.raises(QueryRejected):
        recovered.engine.submit("analyst_01", sql, accuracy=50.0,
                                delegation=grant_id)
    # New grants mint fresh ids (the replayed counter advanced).
    assert recovered.engine.grant_delegation(
        "analyst_01", "analyst_00") > grant_id
    recovered.close()


def test_delegation_revoke_survives_crash_and_checkpoint_fold(
        bundle, tmp_path):
    """Revocations are durable both from the ledger tail and from a
    checkpoint that folded the grant records away."""
    data_dir = tmp_path / "d"
    service = build_service(bundle, data_dir)
    engine = service.engine
    revoked_id = engine.grant_delegation("analyst_00", "analyst_01",
                                         epsilon_cap=1.0)
    engine.revoke_delegation(revoked_id)
    kept_id = engine.grant_delegation("analyst_00", "analyst_01",
                                      epsilon_cap=0.25)
    del service, engine  # crash before any checkpoint

    recovered = build_service(bundle, data_dir)
    grants = recovered.engine.delegations._grants
    assert grants[revoked_id].revoked
    assert not grants[kept_id].revoked
    recovered.checkpoint()  # folds the grant records into the checkpoint
    records, _ = read_ledger(data_dir / LEDGER_FILE)
    assert not any(r["t"] == "grant" for r in records)
    recovered.close()

    again = build_service(bundle, data_dir)
    assert again.durability.last_recovery.grants_replayed == 0
    grants = again.engine.delegations._grants
    assert grants[revoked_id].revoked
    assert grants[kept_id].epsilon_cap == pytest.approx(0.25)
    with pytest.raises(ReproError, match="revoked"):
        again.engine.submit("analyst_01", "SELECT COUNT(*) FROM adult "
                            "WHERE age >= 40", accuracy=900.0,
                            delegation=revoked_id)
    again.close()


def test_grant_consume_on_unknown_grant_refuses_recovery(bundle, tmp_path):
    """A consume record for a grant the checkpoint doesn't know means the
    checkpoint and ledger are from different runs — refuse, never guess."""
    data_dir = tmp_path / "d"
    service = build_service(bundle, data_dir)
    run_workload(service, queries_per_analyst=1)
    del service
    writer = LedgerWriter(data_dir / LEDGER_FILE, fsync="off",
                          next_seq=10_000)
    writer.append({"t": "grant", "event": "consume", "grant_id": 77,
                   "eps": 0.5})
    writer.close()
    with pytest.raises(RecoveryError, match="same run"):
        build_service(bundle, data_dir)


def test_additive_global_base_banked_without_checkpoint(bundle, tmp_path):
    """A lost global synopsis's realised budget keeps counting against
    the view constraint after recovery (over-count, never re-grant)."""
    data_dir = tmp_path / "d"
    service = build_service(bundle, data_dir)
    session = service.open_session("analyst_00")
    assert service.submit(session, "SELECT COUNT(*) FROM adult "
                          "WHERE age BETWEEN 30 AND 40",
                          accuracy=900.0).ok
    records, _ = read_ledger(data_dir / LEDGER_FILE)
    charges = [r for r in records if r["t"] == "charge"]
    assert charges and charges[0]["global_after"] > 0.0
    realised = max(r["global_after"] for r in charges)
    del service

    recovered = build_service(bundle, data_dir)
    mechanism = recovered.engine.mechanism
    # The checkpoint-less store holds no global synopsis, so the whole
    # realised chain budget lands in the base.
    view = charges[0]["view"]
    assert mechanism.store.global_synopsis(view) is None
    assert mechanism._global_epsilon_base[view] == pytest.approx(realised)
    recovered.close()


def test_commit_hook_failure_never_frees_charged_budget(bundle, tmp_path):
    """A ledger append that fails *during* commit (disk full, closed
    writer) fails the request — but the epsilon charge AND the
    delta-ledger slot both stand: the noisy release is already
    published, so nothing may be refunded."""
    service = build_service(bundle, tmp_path / "d")
    session = service.open_session("analyst_00")
    assert service.submit(session, "SELECT COUNT(*) FROM adult "
                          "WHERE age >= 50", accuracy=900.0).ok
    mechanism = service.engine.mechanism
    spent = service.analyst_spent("analyst_00")
    delta = mechanism.analyst_delta("analyst_00")

    service.durability._writer.close()  # every further append raises
    response = service.submit(session, "SELECT COUNT(*) FROM adult "
                              "WHERE age >= 50", accuracy=150.0)
    assert not response.ok and not response.rejected
    assert "closed" in response.error
    assert service.analyst_spent("analyst_00") > spent
    assert mechanism.analyst_delta("analyst_00") > delta


def test_durable_snapshot_stays_json(bundle, tmp_path):
    service = build_service(bundle, tmp_path / "d")
    run_workload(service, queries_per_analyst=1)
    snapshot = service.snapshot()
    assert snapshot["durability"]["enabled"] is True
    assert snapshot["durability"]["fsync"] == "off"
    json.dumps(snapshot)  # strictly JSON, like the rest of the snapshot
    service.close()
    plain = build_service(bundle, None)
    assert plain.snapshot()["durability"] == {"enabled": False}
    plain.close()


# -- the prefix property (satellite) -----------------------------------------

def committed_totals(records) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for record in records:
        if record.get("t") == "charge":
            totals[record["analyst"]] += float(record["eps"])
    return dict(totals)


@pytest.mark.parametrize("mechanism", ["vanilla", "additive"])
def test_recovered_totals_never_undercount_any_prefix(
        bundle, tmp_path, mechanism):
    """For *any* prefix of ledger records, recovery from that prefix
    yields epsilon totals >= the totals committed in it — across both
    the sum-composition (vanilla) and max-composition (additive) modes.
    Byte-truncation inside the final line is covered too (permissive
    mode): the torn record either salvages (over-count) or drops (it was
    never acknowledged)."""
    data_dir = tmp_path / "full"
    service = build_service(bundle, data_dir, mechanism=mechanism)
    run_workload(service, queries_per_analyst=4)
    del service
    lines = (data_dir / LEDGER_FILE).read_text().splitlines()
    parsed = [decode_line(line) for line in lines]

    replay_dir = tmp_path / "replay"
    for k in range(len(lines) + 1):
        shutil.rmtree(replay_dir, ignore_errors=True)
        replay_dir.mkdir()
        body = "\n".join(lines[:k])
        (replay_dir / LEDGER_FILE).write_text(body + "\n" if body else "")
        recovered = build_service(bundle, replay_dir, mechanism=mechanism)
        got = provenance_state(recovered)["epsilon_by_analyst"]
        for analyst, spent in committed_totals(parsed[:k]).items():
            assert got[analyst] >= spent - 1e-9, \
                f"prefix {k}: {analyst} recovered {got[analyst]} < " \
                f"committed {spent}"
        recovered.close()

    # Torn mid-record: every complete record before the cut still counts.
    cut = len(lines[-1]) // 2
    shutil.rmtree(replay_dir, ignore_errors=True)
    replay_dir.mkdir()
    (replay_dir / LEDGER_FILE).write_text(
        "\n".join(lines[:-1]) + "\n" + lines[-1][:cut])
    recovered = build_service(bundle, replay_dir, mechanism=mechanism,
                              recover="permissive")
    got = provenance_state(recovered)["epsilon_by_analyst"]
    for analyst, spent in committed_totals(parsed[:-1]).items():
        assert got[analyst] >= spent - 1e-9
    recovered.close()


# -- token table (satellite) --------------------------------------------------

def test_token_table_rejects_world_readable(tmp_path):
    path = tmp_path / "tokens.json"
    path.write_text(json.dumps({"s3cret": "analyst_00"}))
    os.chmod(path, 0o644)
    with pytest.raises(ReproError, match="world-readable"):
        load_token_table(path)
    os.chmod(path, 0o600)
    assert load_token_table(path) == {"s3cret": "analyst_00"}


def test_token_table_validates_shape(tmp_path):
    path = tmp_path / "tokens.json"
    for bad in ("[]", "{}", '{"a": 3}', '{"": "x"}', "not json"):
        path.write_text(bad)
        os.chmod(path, 0o600)
        with pytest.raises(ReproError):
            load_token_table(path)
    with pytest.raises(ReproError, match="cannot read"):
        load_token_table(tmp_path / "absent.json")


def test_server_rejects_tokens_for_unknown_analysts(bundle, tmp_path):
    from repro.server.daemon import ReproServer

    service = build_service(bundle, None)
    with pytest.raises(ReproError, match="unregistered"):
        ReproServer(service, port=0, tokens={"tok": "nobody"})
    service.close()
