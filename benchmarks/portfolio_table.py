"""Measure the placement portfolio on cnvW1A1 and decide which members are dominated.

Runs every portfolio member of :func:`repro.flow.placers.default_portfolio`
on the cnvW1A1 stitch over three regimes x four move budgets x five
seeds, and writes one row per run to ``docs/portfolio_table.json``:
placer, regime, budget, seed, ``n_unplaced``, ``final_cost``, kernel ops
spent and wall seconds.  Rows of placers the portfolio no longer has
(parallel tempering ``pt``, the analytic placer ``gp`` and its
warm-started anneal ``gp+sa``, deleted on this table's evidence) are
carried over from the existing table.

The deletion rule (:func:`dominated`): a member is dominated when, at
every budget in every regime, some other member has a strictly better
median ``pareto_key`` ``(n_unplaced, final_cost)`` at a median wall time
of at most ``WALL_SLACK`` times its own.  A placer that spends no kernel
ops (``gp``) has its one run per seed recorded at budget 0 and is
compared against every member at every budget.

Usage (a full run takes about two minutes on a 2-vCPU machine)::

    PYTHONPATH=src python benchmarks/portfolio_table.py
    PYTHONPATH=src python benchmarks/portfolio_table.py --decide  # rule only

Runs are serial so that wall times are comparable, and each run's wall
time is the fastest of ``REPEATS`` identical (seeded, deterministic) runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from pathlib import Path

from repro.cnv import cnv_design
from repro.device.parts import xc7z020, xc7z045
from repro.flow.placers import default_portfolio
from repro.flow.policy import FixedCF, MinimalCFPolicy
from repro.flow.preimpl import implement_design
from repro.flow.stitcher import SAParams

TABLE = Path(__file__).resolve().parent.parent / "docs" / "portfolio_table.json"

#: regime name -> (device, CF policy); FixedCF(1.3) is what the perf gates use.
REGIMES = {
    "xc7z020/min-cf": (xc7z020, MinimalCFPolicy),
    "xc7z020/cf1.3": (xc7z020, lambda: FixedCF(1.3)),
    "xc7z045/min-cf": (xc7z045, MinimalCFPolicy),
}
BUDGETS = (2000, 4000, 8000, 20000)
N_SEEDS = 5
#: A dominator may be at most this much slower (median wall) than its victim.
WALL_SLACK = 1.10
#: Timed repeats per run; the fastest counts (the result is the same each time).
REPEATS = 5


def _stitch_inputs(regime: str):
    """Pre-implement cnvW1A1 for ``regime``; the placeable design and footprints."""
    make_grid, make_policy = REGIMES[regime]
    grid = make_grid()
    design = cnv_design()
    pre = implement_design(design, grid, make_policy(), n_workers=2)
    footprints = {
        name: impl.outcome.result.footprint
        for name, impl in pre.items()
        if impl.outcome.result.footprint is not None
    }
    if any(i.module not in footprints for i in design.instances):
        design = design.subset(set(footprints))
    return design, footprints, grid


def _run(placer, design, footprints, grid) -> tuple:
    """One placement: its result and best-of-``REPEATS`` wall seconds."""
    walls = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = placer.place(design, footprints, grid)
        walls.append(time.perf_counter() - t0)
    return result, min(walls)


def _row(placer: str, regime: str, budget: int, seed: int, run) -> dict:
    result, wall = run
    return {
        "placer": placer, "regime": regime, "budget": budget, "seed": seed,
        "n_unplaced": result.n_unplaced, "final_cost": result.final_cost,
        "kernel_ops": result.iterations, "wall_s": round(wall, 4),
    }


def measure() -> list[dict]:
    """Every (regime, budget, seed, member) run."""
    rows = []
    for regime in REGIMES:
        design, footprints, grid = _stitch_inputs(regime)
        for seed in range(N_SEEDS):
            for budget in BUDGETS:
                portfolio = default_portfolio(SAParams(max_iters=budget, seed=seed))
                for placer in portfolio:
                    rows.append(_row(placer.name, regime, budget, seed,
                                     _run(placer, design, footprints, grid)))
                print(f"{regime} seed={seed} budget={budget}: "
                      + ", ".join(f"{r['placer']}={r['n_unplaced']}/"
                                  f"{r['final_cost']:.0f}/{r['wall_s']:.2f}s"
                                  for r in rows[-len(portfolio):]), flush=True)
    return rows


def _cells(rows: list[dict]) -> dict:
    """(regime, budget, placer) -> (median pareto key, median wall)."""
    runs: dict = {}
    for r in rows:
        runs.setdefault((r["regime"], r["budget"], r["placer"]), []).append(r)
    return {
        cell: (
            statistics.median_low([(r["n_unplaced"], r["final_cost"]) for r in group]),
            statistics.median(r["wall_s"] for r in group),
        )
        for cell, group in runs.items()
    }


def dominated(rows: list[dict]) -> dict[str, bool]:
    """placer -> True when it is dominated in every (regime, budget) cell.

    A budget-0 placer spends no kernel ops, so it meets every budget: it
    may dominate, and be dominated by, a member at any budget.
    """
    cells = _cells(rows)
    verdict = {placer: True for _regime, _budget, placer in cells}
    for (regime, budget, placer), (key, wall) in cells.items():
        beaten = any(
            k < key and w <= WALL_SLACK * wall
            for (reg, b, other), (k, w) in cells.items()
            if reg == regime and other != placer and (b == budget or 0 in (b, budget))
        )
        verdict[placer] = verdict[placer] and beaten
    return verdict


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-o", "--out", type=Path, default=TABLE)
    ap.add_argument("--decide", action="store_true",
                    help="apply the rule to the existing table; measure nothing")
    args = ap.parse_args(argv)
    if args.decide:
        rows = json.loads(args.out.read_text())["rows"]
    else:
        rows = measure()
        members = {r["placer"] for r in rows}
        if args.out.exists():
            old = json.loads(args.out.read_text())["rows"]
            rows += [r for r in old if r["placer"] not in members]
        args.out.write_text(json.dumps({
            "design": "cnvW1A1", "wall_slack": WALL_SLACK, "rows": rows,
        }, indent=1) + "\n")
    for placer, dom in sorted(dominated(rows).items()):
        print(f"{placer}: {'dominated -> delete' if dom else 'keep'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
