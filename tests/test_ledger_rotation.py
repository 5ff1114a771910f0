"""Ledger segment rotation: sealing, chained recovery, compaction.

Rotation (``segment_bytes=``) bounds the active write-ahead file: once
it crosses the threshold it is fsync'd, renamed to the next
``ledger.NNNNNN.jsonl`` segment, and a fresh active file opens.  The
invariants under test:

* the record stream read back through :func:`read_ledger_chain` is
  byte-for-byte the same as single-file mode — rotation is invisible to
  recovery (same totals, globally monotonic sequence numbers);
* only the *active* file may carry a torn tail — damage inside a sealed
  segment is storage corruption and fails closed;
* compaction after a checkpoint deletes only fully-folded segments (a
  partially folded one is kept whole — over-retention is safe,
  re-granting is not).
"""

from __future__ import annotations

import os
import shutil

import pytest

from repro.datasets import load_adult
from repro.exceptions import DurabilityError
from repro.persistence import DurabilityManager, LedgerWriter
from repro.persistence.ledger import (
    read_ledger_chain,
    segment_last_seq,
    segment_paths,
)
from repro.service.service import QueryService
from repro.workloads.service import make_service_analysts

ROWS = 1200
EPSILON = 32.0

#: Small enough that a handful of appends rolls several segments.
TINY_SEGMENT = 256


@pytest.fixture(scope="module")
def bundle():
    return load_adult(num_rows=ROWS, seed=0)


def charge(index: int) -> dict:
    return {"t": "charge", "analyst": f"analyst_{index % 2:02d}",
            "view": "adult.age", "eps": 0.125, "mode": "sum",
            "releases": 1}


def fill(writer: LedgerWriter, count: int) -> None:
    for index in range(count):
        writer.append(charge(index))


# -- writer-level rotation ---------------------------------------------------

def test_segment_bytes_must_be_positive(tmp_path):
    with pytest.raises(DurabilityError, match="segment_bytes"):
        LedgerWriter(tmp_path / "ledger.jsonl", segment_bytes=0)
    with pytest.raises(DurabilityError, match="segment_bytes"):
        DurabilityManager(tmp_path, segment_bytes=-1)


def test_rotation_seals_numbered_segments(tmp_path):
    path = tmp_path / "ledger.jsonl"
    writer = LedgerWriter(path, fsync="off", segment_bytes=TINY_SEGMENT)
    fill(writer, 30)
    writer.close()
    sealed = segment_paths(path)
    assert len(sealed) >= 2
    assert sealed == sorted(sealed)
    assert writer.segments_sealed == len(sealed)
    assert [p.name for p in sealed] == \
        [f"ledger.{i:06d}.jsonl" for i in range(1, len(sealed) + 1)]
    # Every sealed segment respects the byte bound's trigger: the roll
    # happens on the first append that crosses it, so no segment is
    # wildly larger than threshold + one record.
    for segment in sealed:
        assert os.path.getsize(segment) < TINY_SEGMENT + 200


def test_chain_reads_back_identical_to_single_file(tmp_path):
    rotated = LedgerWriter(tmp_path / "rotated.jsonl", fsync="off",
                           segment_bytes=TINY_SEGMENT)
    single = LedgerWriter(tmp_path / "single.jsonl", fsync="off")
    fill(rotated, 40)
    fill(single, 40)
    rotated.close()
    single.close()
    chain_records, chain_tail = read_ledger_chain(tmp_path / "rotated.jsonl")
    flat_records, flat_tail = read_ledger_chain(tmp_path / "single.jsonl")
    assert chain_tail.status == "ok" and flat_tail.status == "ok"

    def strip(records):
        return [{k: v for k, v in r.items() if k not in ("ts", "crc")}
                for r in records]

    assert strip(chain_records) == strip(flat_records)
    seqs = [r["seq"] for r in chain_records]
    assert seqs == list(range(1, 41))


def test_rotation_resumes_numbering_across_restarts(tmp_path):
    path = tmp_path / "ledger.jsonl"
    writer = LedgerWriter(path, fsync="off", segment_bytes=TINY_SEGMENT)
    fill(writer, 20)
    writer.close()
    sealed_before = len(segment_paths(path))
    records, _ = read_ledger_chain(path)
    reopened = LedgerWriter(path, fsync="off", segment_bytes=TINY_SEGMENT,
                            next_seq=records[-1]["seq"] + 1)
    fill(reopened, 20)
    reopened.close()
    sealed_after = segment_paths(path)
    assert len(sealed_after) > sealed_before
    records, tail = read_ledger_chain(path)
    assert tail.status == "ok"
    assert [r["seq"] for r in records] == list(range(1, 41))


def test_torn_tail_only_in_active_file(tmp_path):
    path = tmp_path / "ledger.jsonl"
    writer = LedgerWriter(path, fsync="off", segment_bytes=TINY_SEGMENT)
    fill(writer, 30)
    while path.stat().st_size < 40:  # a roll may have just emptied it
        writer.append(charge(0))
    writer.close()

    def tear(target):
        with open(target, "rb+") as handle:
            data = handle.read()
            handle.truncate(len(data.rstrip(b"\n")) - 10)

    # Tear the active file's last record: recovery shrugs (crash
    # artifact)...
    tear(path)
    records, tail = read_ledger_chain(path)
    assert tail.status == "torn"
    # ...but the same damage inside a *sealed* segment fails closed.
    tear(segment_paths(path)[0])
    records, tail = read_ledger_chain(path)
    assert tail.status == "corrupt"
    assert "storage damage" in tail.reason


def test_compaction_drops_only_fully_folded_segments(tmp_path):
    path = tmp_path / "ledger.jsonl"
    writer = LedgerWriter(path, fsync="off", segment_bytes=TINY_SEGMENT)
    fill(writer, 30)
    sealed = segment_paths(path)
    assert len(sealed) >= 2
    boundary = segment_last_seq(sealed[0])
    # A checkpoint that folded through the middle of the second segment:
    # the first is dropped whole, the second is kept whole.
    keep_after = boundary + 1
    assert segment_last_seq(sealed[1]) > keep_after
    writer.compact(keep_after)
    remaining = segment_paths(path)
    assert sealed[0] not in remaining
    assert sealed[1] in remaining
    records, tail = read_ledger_chain(path)
    assert tail.status == "ok"
    # Over-retention is allowed (the partially folded segment stays),
    # but nothing past the checkpoint may be missing.
    seqs = {r["seq"] for r in records}
    assert set(range(keep_after + 1, 31)) <= seqs
    writer.close()


# -- service-level rotation --------------------------------------------------

def run_workload(service, queries_per_analyst=6) -> None:
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


def test_recovery_replays_across_sealed_segments(bundle, tmp_path):
    data_dir = tmp_path / "data"
    service = QueryService.build(
        bundle, make_service_analysts(2), EPSILON, seed=0,
        durability=DurabilityManager(data_dir, fsync="off",
                                     segment_bytes=1024))
    run_workload(service)
    totals_before = service.snapshot()["provenance"]
    described = service.durability.describe()
    assert described["segment_bytes"] == 1024
    assert described["segments"] >= 1
    # Simulated crash: no close(), no checkpoint — the chained ledger
    # is the only record (dropping the service releases the dir lock).
    del service

    recovered = QueryService.build(
        bundle, make_service_analysts(2), EPSILON, seed=0,
        durability=DurabilityManager(data_dir, fsync="off",
                                     segment_bytes=1024))
    totals_after = recovered.snapshot()["provenance"]
    assert totals_after["table_total"] >= totals_before["table_total"] - 1e-9
    assert totals_after["epsilon_by_analyst"] == pytest.approx(
        totals_before["epsilon_by_analyst"])
    recovered.close()
    shutil.rmtree(data_dir)
