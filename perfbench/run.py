"""Benchmark entry point; run it from the root of a checkout.

    python3 perfbench/run.py --workload label_sweep --seed 0 --seconds 10 --trace 0

With ``--trace 0`` it sets the workload up in several fresh interpreters
(``setup_s`` is their median, counted from process start so it includes
``import repro``), then times rounds in one of them for ``--seconds`` and
prints the end-to-end metrics.  With ``--trace 1`` one process runs
untraced and traced rounds in turn and prints the per-layer metrics.
The last line of stdout is the JSON result; see ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Every run must end within 180 s; leave room to stop the children.
DEADLINE_S = 170
#: Keep NumPy's BLAS pool at one thread: the workloads are sequential.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p
    )
    for var in THREAD_VARS:
        env[var] = "1"
    # Each interpreter draws its own hash seed, so the cross-interpreter
    # determinism check sees any dependence on set or dict-of-str order.
    env.pop("PYTHONHASHSEED", None)
    return env


def _spawn(args: argparse.Namespace, mode: str, stdin: str, deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_child_env(), text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )
    try:
        out, _ = proc.communicate(stdin, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{mode} process exceeded the {DEADLINE_S} s budget")
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} process printed no result")
    return json.loads(lines[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            result = _spawn(args, "trace", "", deadline)
        else:
            probes = [
                _spawn(args, "setup", "", deadline)
                for _ in range(WORKLOADS[args.workload].setups - 1)
            ]
            result = _spawn(args, "run", json.dumps(probes), deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    round_s = result.pop("round_s")
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: untraced "
          f"rounds {round_s} s; {result['failed']} of {result['attempted']} "
          "checks failed")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
