"""One benchmark process: set-up, timed rounds, checks.

Started by ``run.py`` in a fresh interpreter with ``src`` on the path.
``--mode setup`` sets up and reports how long that took; ``--mode run``
also repeats timed rounds for ``--seconds`` and reports the end-to-end
metrics; ``--mode trace`` alternates untraced and traced rounds and
reports the per-layer metrics.  The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from checks import Checks, compare_counts
from shims import NullRecorder, Recorder, install
from workloads import WORKLOADS, UnitTimer, per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: Per-unit medians need at least three rounds, whatever ``--seconds``;
#: the traced run, whose times have no bound, makes do with two pairs.
MIN_ROUNDS, MIN_TRACED_ROUNDS = 3, 2


def _is_timing(name: str) -> bool:
    return name.endswith(("_s", ".s", "_ms")) or name == "trace.overhead_pct"


def _source_digest() -> str:
    """Hash of the program and benchmark sources: counts recorded for
    one source tree are compared only against runs of the same tree."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _check_against_earlier_runs(checks: Checks, key: str, counts: dict) -> None:
    """Counts must repeat exactly across runs of the same seed and source."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "counts.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    compare_counts(checks, "across runs", known.get(key, {}), counts)
    known[key] = {**known.get(key, {}), **counts}
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(known, sort_keys=True, indent=1))
    os.replace(tmp, path)


def _threads() -> int | None:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _with_units(values: dict, section: str) -> dict:
    """Every metric ``BENCHMARK.json`` lists in ``section``, with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not produced: {missing}")
    return {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in spec
    }


def _timed_round(wl, rec, unit):
    t0 = time.perf_counter()
    out = wl.run_round(rec, unit)
    return time.perf_counter() - t0, out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    a = p.parse_args()

    wl = WORKLOADS[a.workload](a.seed)
    traced = a.mode == "trace"
    rec = Recorder() if traced else NullRecorder()
    uninstall = install(rec) if traced else None
    with rec.run("setup"):
        setup = wl.setup(rec)
    # CPU time since the interpreter started: start-up, imports, set-up.
    setup["setup_s"] = time.process_time()
    if uninstall:
        uninstall()
    if a.mode == "setup":
        print(json.dumps(setup))
        return 0
    probes = json.loads(sys.stdin.read() or "[]")

    # Timed rounds.  The traced run alternates untraced and traced
    # rounds, so its overhead is measured on the same process state.
    unit, traced_unit = UnitTimer(), UnitTimer()
    times: list[float] = []
    rounds = []
    traced_rounds = []
    start = time.perf_counter()
    while True:
        dt, out = _timed_round(wl, NullRecorder(), unit)
        times.append(dt)
        if rounds:
            out.data = {}  # only the first round's objects are checked
        rounds.append(out)
        if traced:
            undo = install(rec)
            with rec.run("round") as run_id:
                _, out = _timed_round(wl, rec, traced_unit)
            undo()
            out.data = {}
            traced_rounds.append((run_id, out))
        elapsed = time.perf_counter() - start
        enough = len(times) >= (MIN_TRACED_ROUNDS if traced else MIN_ROUNDS)
        if enough and elapsed >= a.seconds:
            break

    checks = Checks()
    wl.check(rounds[0], checks)
    for out in rounds[1:] + [o for _, o in traced_rounds]:
        compare_counts(checks, "across rounds", rounds[0].counts, out.counts)
    for probe in probes:
        compare_counts(
            checks, "across interpreters", setup["counts"], probe["counts"]
        )
    threads, cpus = _threads(), len(os.sched_getaffinity(0))
    if threads is not None:
        checks.check(
            "threads within nproc", threads <= cpus, f"{threads} > {cpus}"
        )
    counts = {f"setup.{k}": v for k, v in setup["counts"].items()}
    counts.update(rounds[0].counts)

    if traced:
        setup_spans = rec.run_spans(0)
        per_round = [
            per_layer_metrics(setup_spans + rec.run_spans(run_id), out)
            for run_id, out in traced_rounds
        ]
        for name in wl.expected_layers:
            n = sum(1 for s in setup_spans + rec.run_spans(traced_rounds[0][0])
                    if s.name == name)
            checks.check(f"trace covers {name}", n > 0, "no calls recorded")
        for later in per_round[1:]:
            compare_counts(
                checks, "across traced rounds",
                {k: v for k, v in per_round[0].items() if not _is_timing(k)},
                later,
            )
        metrics = {
            k: statistics.median(m[k] for m in per_round) for k in per_round[0]
        }
        metrics["trace.overhead_pct"] = (
            100.0 * (traced_unit.total() - unit.total()) / unit.total()
        )
        counts.update(
            {f"layer.{k}": v for k, v in per_round[0].items() if not _is_timing(k)}
        )
    key = f"{_source_digest()}/{a.workload}/seed{a.seed}"
    _check_against_earlier_runs(checks, key, counts)

    if traced:
        OUT.mkdir(exist_ok=True)
        rec.dump(OUT / f"trace-{a.workload}-seed{a.seed}.json")
        result_metrics = _with_units(metrics, "per_layer")
    else:
        setups = [setup] + probes
        e2e = wl.end_to_end(unit, rounds[0], setups)
        e2e["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        e2e["ok_ops_pct"] = 100.0 * (checks.attempted - checks.failed) / checks.attempted
        result_metrics = _with_units(e2e, "end_to_end")

    for failure in checks.failures[:20]:
        print("FAILED", failure, file=sys.stderr)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": result_metrics,
        "round_s": [round(t, 3) for t in times],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
