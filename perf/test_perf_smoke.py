"""Tier-1 smoke test of the benchmark itself.

Runs the one command at ``--scale smoke`` (same code paths, same output
checks, seconds instead of minutes) and asserts that every metric
``BENCHMARK.json`` names is emitted with its declared unit on every
workload, and that every check passed.  No timing is asserted.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_emits_every_declared_metric(tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--scale", "smoke",
         "--seed", "0", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    summary = json.loads(out.read_text())

    workloads = [w["name"] for w in declared["workloads"]]
    assert sorted(summary["workloads"]) == sorted(workloads)
    expected = {m["name"]: m["unit"]
                for m in declared["end_to_end"] + declared["per_layer"]}
    for workload in workloads:
        rows = summary["workloads"][workload]
        assert {name: row["unit"] for name, row in rows.items()} == expected
    for run in summary["runs"]:
        assert run["correct"] and run["failed"] == 0
        assert run["attempted"] >= 1
        if run["trace"]:
            assert run["detail"]["trace.missing"] == []
        else:
            assert run["detail"]["stream_sha256"]
            assert run["detail"]["epochs_replayed"] >= 1
