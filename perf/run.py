"""The benchmark's one command.

Driver form (one workload, one pass; the last stdout line is the result)::

    python3 perf/run.py --workload cached_hot --seed 3 --seconds 20 --trace 0

Full set (every workload, timed pass then traced pass, each in a fresh
child process so peak RSS and warm caches are per workload)::

    python3 perf/run.py --seed 0 --out perf/out/full.json [--repeats N]

``--scale smoke`` runs the same code paths and checks on tiny epochs, in
this process, in a few seconds.  Comparison of two full-set files against
the bounds in BENCHMARK.json::

    python3 perf/run.py --compare A.json B.json

See perf/README.md for what each workload stresses and how the layer
metrics map onto the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
OUT = PERF / "out"

#: Window seconds per pass at ``--scale smoke``.
SMOKE_SECONDS = 0.2


def _load_program() -> None:
    """Import the program from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(PERF))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perf/run.py: cannot import the program from "
                 f"{ROOT / 'src'}: {exc}")
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        sys.exit(f"perf/run.py: 'repro' resolved to {repro.__file__}, "
                 f"not to this checkout's src/")


def _pin_to_one_cpu() -> int | None:
    """Pin this process (and every thread the program starts) to the
    highest-numbered CPU it may use.

    The program is GIL-bound, so a second core buys it nothing; but left
    unpinned, its daemon-handler and shard-pool threads ping-pong across
    cores at the scheduler's whim, and on this 2-vCPU VM that alone swings
    ``mix_remote`` by 35% from run to run (18% pinned, and faster).  CPU 0
    is avoided because interrupts land there.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def calibration_seconds() -> float:
    """A fixed pure-Python loop, so numbers from different machines (or
    from a slow window on this one) can be told apart."""
    started = time.perf_counter()
    total = 0
    for i in range(500_000):
        total += i * i % 7
    return time.perf_counter() - started


def environment(seed: int, scale: str, seconds: float,
                cpu: int | None) -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():      # never search above the checkout
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "pinned_cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": commit,
            "seed": seed, "scale": scale, "seconds": seconds,
            "calibration_s": calibration_seconds()}


# -- one workload, one pass (the driver's form) -----------------------------------
def measure(workload: str, seed: int, seconds: float, trace: int,
            scale: str) -> dict:
    """Run one pass of one workload, print every metric by name with its
    unit, write the full record under ``perf/out/`` and return it."""
    cpu = _pin_to_one_cpu()     # before numpy sizes its thread pools
    _load_program()
    import harness
    from trace import traced_pass
    from workloads import SPECS

    declared = _benchmark_json()
    if workload not in SPECS:
        sys.exit(f"unknown workload {workload!r}; choose from {sorted(SPECS)}")
    spec = SPECS[workload]
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        body = (traced_pass if trace else harness.timed_pass)(
            spec, seed, seconds, scale, OUT)
        correct = True
    except harness.CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        body = {"metrics": {}, "attempted": 1, "failed": 1, "detail": {}}
        correct = False
    finally:
        for leftover in OUT.glob("data-*"):
            shutil.rmtree(leftover, ignore_errors=True)

    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if trace else "end_to_end"]}
    absent = sorted(set(units) - set(body["metrics"])) if correct else []
    if absent:
        sys.exit(f"declared in BENCHMARK.json but not measured: {absent}")
    record = {
        "correct": correct,
        "attempted": int(body["attempted"]),
        "failed": int(body["failed"]),
        "metrics": {name: {"value": float(body["metrics"][name]),
                           "unit": unit}
                    for name, unit in units.items()
                    if name in body["metrics"]},
        "workload": spec.name, "trace": trace, "detail": body["detail"],
        "environment": environment(seed, scale, seconds, cpu),
    }
    (OUT / f"{spec.name}.trace{trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    for name, metric in record["metrics"].items():
        print(f"{spec.name} {name} = {metric['value']:.6g} {metric['unit']}")
    for key, value in body["detail"].items():
        if not isinstance(value, (dict, list)):
            print(f"{spec.name} [{key}] {value}")
    return record


def run_workload(args) -> int:
    record = measure(args.workload, args.seed, args.seconds, args.trace,
                     args.scale)
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


# -- the full set -------------------------------------------------------------------
def run_full_set(args) -> int:
    workloads = [w["name"] for w in _benchmark_json()["workloads"]]
    smoke = args.scale == "smoke"
    seconds = args.seconds if args.seconds is not None else (
        SMOKE_SECONDS if smoke else _benchmark_json()["run_seconds"])
    runs = []
    for repeat in range(args.repeats):
        seed = args.seed + repeat
        for workload in workloads:
            for trace in (0, 1):
                if smoke:
                    runs.append(measure(workload, seed, seconds, trace,
                                        args.scale))
                    continue
                done = subprocess.run(
                    [sys.executable, str(PERF / "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)],
                    cwd=ROOT, capture_output=True, text=True)
                sys.stdout.write(done.stdout)
                sys.stderr.write(done.stderr)
                if done.returncode != 0:
                    runs.append({"correct": False, "workload": workload})
                    continue
                runs.append(json.loads(
                    (OUT / f"{workload}.trace{trace}.json").read_text(
                        encoding="utf-8")))
    failed = [run["workload"] for run in runs if not run["correct"]]
    summary = summarise([run for run in runs if run["correct"]])
    summary.update(seed=args.seed, scale=args.scale, repeats=args.repeats,
                   seconds=seconds, failed=failed)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1),
                                  encoding="utf-8")
    return 1 if failed else 0


def summarise(runs: list[dict]) -> dict:
    """Per (workload, metric): every value, their count, the median, and
    the quartile spread as a share of the median (needs >= 2 values)."""
    table: dict = {}
    hashes: dict = {}
    for run in runs:
        rows = table.setdefault(run["workload"], {})
        for name, metric in run["metrics"].items():
            row = rows.setdefault(name, {"unit": metric["unit"],
                                         "values": []})
            row["values"].append(metric["value"])
        if run["environment"]["seed"] == runs[0]["environment"]["seed"]:
            hashes[run["workload"]] = run["detail"]["stream_sha256"]
    for rows in table.values():
        for row in rows.values():
            values = row["values"]
            row["samples"] = len(values)
            row["median"] = statistics.median(values)
            row["spread"] = None
            if len(values) >= 2 and row["median"]:
                q = statistics.quantiles(values, n=4)
                row["spread"] = (q[2] - q[0]) / abs(row["median"])
    return {"workloads": table, "stream_sha256": hashes,
            "environment": runs[0]["environment"] if runs else {},
            "runs": runs}


# -- comparison ---------------------------------------------------------------------
def compare(path_a: str, path_b: str) -> int:
    """One row per (workload, end-to-end metric): B against A under the
    bounds of BENCHMARK.json.  ``unresolved`` means the run-to-run spread
    recorded in either file is wider than the bound."""
    declared = _benchmark_json()
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    for key in ("seed", "scale", "seconds", "stream_sha256"):
        if a.get(key) != b.get(key):
            sys.exit(f"refusing to compare: {key} differs "
                     f"({a.get(key)!r} vs {b.get(key)!r})")
    status = 0
    print(f"{'workload':<14}{'metric':<18}{'A':>12}{'B':>12}"
          f"{'change':>9}{'bound':>7}  verdict")
    for workload in a["workloads"]:
        for metric in declared["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row_a = a["workloads"][workload][name]
            row_b = b["workloads"][workload][name]
            base, new = row_a["median"], row_b["median"]
            change = (new - base) / abs(base)
            worse = -change if metric["better"] == "higher" else change
            spread = max(row_a["spread"] or 0.0, row_b["spread"] or 0.0)
            if worse > bound:
                verdict = "worse"
                status = 1
            elif spread > bound:
                verdict = "unresolved"
            elif worse < -bound:
                verdict = "better"
            else:
                verdict = "same"
            print(f"{workload:<14}{name:<18}{base:>12.5g}{new:>12.5g}"
                  f"{change:>+9.1%}{bound:>7.1%}  {verdict}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"),
                        default="full")
    parser.add_argument("--out")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        if args.seconds is None:
            args.seconds = float(_benchmark_json()["run_seconds"])
        return run_workload(args)
    return run_full_set(args)


if __name__ == "__main__":
    sys.exit(main())
