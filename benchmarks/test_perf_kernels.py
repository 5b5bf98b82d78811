"""Performance micro-benchmarks of the library's hot kernels.

Unlike the experiment benches (which run once), these use real
pytest-benchmark rounds: they track the throughput of the detailed
packer, the minimal-CF sweep, the tree fit and the stitcher move loop —
the four kernels every experiment's wall-clock depends on.
"""

import numpy as np
import pytest

from repro.device.parts import xc7z020
from repro.flow.blockdesign import BlockDesign
from repro.flow.stitcher import SAParams, stitch
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor
from repro.netlist.stats import compute_stats
from repro.pblock.cf_search import minimal_cf
from repro.pblock.generator import build_pblock
from repro.place.packer import pack
from repro.place.quick import quick_place
from repro.place.shapes import Footprint
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import RandomLogicCloud, SumOfSquares
from repro.synth.mapper import synthesize


@pytest.fixture(scope="module")
def grid():
    return xc7z020()


@pytest.fixture(scope="module")
def module_stats():
    m = RTLModule.make(
        "perf_mod",
        [RandomLogicCloud(n_luts=800, avg_inputs=4.5), SumOfSquares(width=16, n_terms=2)],
    )
    return compute_stats(synthesize(m))


def test_perf_pack(benchmark, grid, module_stats):
    """One detailed packing attempt (the CF sweep's inner loop)."""
    report = quick_place(module_stats)
    pb = build_pblock(module_stats, report, 1.4, grid)
    result = benchmark(pack, module_stats, pb)
    assert result.feasible


def test_perf_minimal_cf(benchmark, grid, module_stats):
    """A full minimal-CF sweep for a mid-size module."""
    report = quick_place(module_stats)
    result = benchmark(
        minimal_cf, module_stats, grid, report=report
    )
    assert result.cf >= 0.9


def test_perf_synthesize(benchmark):
    """Technology mapping of a 800-LUT module."""
    m = RTLModule.make(
        "perf_synth", [RandomLogicCloud(n_luts=800, avg_inputs=4.2)]
    )
    netlist = benchmark(synthesize, m)
    assert netlist.n_cells >= 800


def test_perf_tree_fit(benchmark):
    """CART fit at dataset scale (1,500 x 16)."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(1500, 16))
    y = X @ rng.normal(size=16) + 0.1 * rng.normal(size=1500)

    def fit():
        return DecisionTreeRegressor(max_depth=20, min_samples_leaf=2).fit(X, y)

    model = benchmark(fit)
    assert model.depth() > 2


def test_perf_forest_fit():
    """Lockstep forest growth must beat the per-tree grower 1.5x.

    This is the CI perf-smoke gate for the tree engine: a 60-tree forest
    on a fixed 400 x 9 quantized dataset (ties in x and in the gains) is
    grown by the library and by the per-tree fast path kept in
    ``tests/tree_reference.py``.  Both must give identical node arrays
    and importances, and the library must take at most two thirds of the
    oracle's time, measured on the same machine (best of three).
    """
    import time

    from tests.tree_reference import reference_forest

    rng = np.random.default_rng(0)
    X = np.round(rng.normal(size=(400, 9)) * 4) / 4
    y = np.round(X @ rng.normal(size=9) + rng.normal(size=400), 1)
    params = dict(n_estimators=60, max_depth=20, min_samples_leaf=1, seed=0)

    def best_of_three(fit):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            out = fit()
            times.append(time.perf_counter() - t0)
        return out, min(times)

    forest, t_new = best_of_three(lambda: RandomForestRegressor(**params).fit(X, y))
    (ref_trees, ref_importances), t_ref = best_of_three(
        lambda: reference_forest(X, y, **params)
    )
    for tree, ref in zip(forest.trees_, ref_trees, strict=True):
        for a, b in zip(tree._flat_arrays(), ref._flat_arrays(), strict=True):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(
            tree.feature_importances_, ref.feature_importances_
        )
    np.testing.assert_array_equal(forest.feature_importances_, ref_importances)
    speedup = t_ref / t_new
    print(
        f"forest fit: lockstep {t_new * 1e3:.0f} ms, per-tree "
        f"{t_ref * 1e3:.0f} ms ({speedup:.2f}x)"
    )
    assert speedup >= 1.5, f"lockstep forest fit only {speedup:.2f}x faster"


def test_perf_grid_queries(monkeypatch):
    """Table-driven grid queries must beat the column-scanning loops 5x.

    This is the CI perf-smoke gate for the device grid: it records every
    ``find_window`` / ``caps_in_rect`` call of one 30-module labeling,
    then replays the same argument tuples through the grid and through
    the reference loops kept in ``tests/grid_reference.py``.  Both must
    give equal answers, and the grid must take at most a fifth of the
    reference's time, measured on the same machine (best of three).
    """
    import time

    from repro.dataset.generate import generate_dataset
    from repro.device.grid import DeviceGrid
    from tests.grid_reference import reference_caps_in_rect, reference_find_window

    calls: dict[str, list] = {"find_window": [], "caps_in_rect": []}
    for name, recorded in calls.items():
        original = getattr(DeviceGrid, name)

        def record(self, *args, _log=recorded, _fn=original, **kwargs):
            _log.append((self, args, kwargs))
            return _fn(self, *args, **kwargs)

        monkeypatch.setattr(DeviceGrid, name, record)
    generate_dataset(30, seed=0)
    monkeypatch.undo()
    assert calls["find_window"] and calls["caps_in_rect"]

    def replay(find_window, caps_in_rect) -> tuple[list, list, float, float]:
        t_window, t_caps = [], []
        for _ in range(3):
            t0 = time.perf_counter()
            windows = [find_window(g, *a, **k) for g, a, k in calls["find_window"]]
            t1 = time.perf_counter()
            caps = [caps_in_rect(g, *a, **k) for g, a, k in calls["caps_in_rect"]]
            t_window.append(t1 - t0)
            t_caps.append(time.perf_counter() - t1)
        return windows, caps, min(t_window), min(t_caps)

    fast = replay(DeviceGrid.find_window, DeviceGrid.caps_in_rect)
    ref = replay(reference_find_window, reference_caps_in_rect)
    assert fast[:2] == ref[:2]
    speedup = (ref[2] + ref[3]) / (fast[2] + fast[3])
    print(
        f"grid queries: {len(calls['find_window'])} find_window "
        f"({ref[2] / fast[2]:.1f}x), {len(calls['caps_in_rect'])} caps_in_rect "
        f"({ref[3] / fast[3]:.1f}x), combined {speedup:.1f}x"
    )
    assert speedup >= 5.0, f"grid queries only {speedup:.1f}x faster than reference"


def _stitch_case() -> tuple[BlockDesign, dict[str, Footprint]]:
    """A 40-macro chain, the stitcher benchmarks' shared workload."""
    from repro.device.column import ColumnKind

    d = BlockDesign(name="perf")
    d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=8)]))
    fp = Footprint((ColumnKind.CLBLL, ColumnKind.CLBLM), (12, 12))
    for i in range(40):
        d.add_instance(f"i{i}", "m")
    for i in range(39):
        d.connect(f"i{i}", f"i{i + 1}", width=4)
    return d, {"m": fp}


def test_perf_stitch_small(benchmark, grid):
    """A short stitching run over 40 macros (fast kernel, the default)."""
    d, fps = _stitch_case()

    def run():
        return stitch(d, fps, grid, SAParams(max_iters=2000, seed=0))

    result = benchmark(run)
    assert result.n_unplaced == 0


def test_perf_stitch_fast_vs_reference(grid):
    """The fast kernel must beat the reference kernel on the same run.

    This is the CI perf-smoke gate: it fails if a regression makes the
    library's kernel slower than the straightforward one kept in
    ``tests/kernel_reference.py``, and doubles as an equivalence check
    on the benchmark workload.
    """
    import time

    from tests.kernel_reference import kernel_context

    d, fps = _stitch_case()
    params = SAParams(max_iters=2000, seed=0)

    def best_of(kernel: str, results: list) -> float:
        elapsed = []
        for _ in range(3):
            with kernel_context(kernel):
                t0 = time.perf_counter()
                results.append(stitch(d, fps, grid, params))
                elapsed.append(time.perf_counter() - t0)
        return min(elapsed)

    fast_results: list = []
    ref_results: list = []
    t_fast = best_of("fast", fast_results)
    t_ref = best_of("reference", ref_results)
    assert fast_results[0].placements == ref_results[0].placements
    assert fast_results[0].final_cost == ref_results[0].final_cost
    assert t_fast < t_ref, (
        f"fast kernel ({t_fast * 1e3:.1f} ms) slower than reference "
        f"({t_ref * 1e3:.1f} ms)"
    )


def test_perf_fused_move_loop_vs_reference():
    """The fast kernel's fused move loop must beat the reference 10x.

    This is the CI perf-smoke gate for the move loop: it stitches the
    cnvW1A1 footprints pre-implemented at minimal CF for the xc7z020 on
    the xc7z045 (the cnv_flow benchmark's slowest stitch) for exactly
    20k iterations with the library's kernel and with the reference
    kernel of ``tests/kernel_reference.py``.  They must give identical
    placements and cost, and the fast kernel must take at most a tenth
    of the reference's time, measured on the same machine (best of
    five, kernels alternating).
    """
    import time

    from tests.kernel_reference import kernel_context

    from repro.cnv import cnv_design
    from repro.device.parts import xc7z020, xc7z045
    from repro.flow.policy import MinimalCFPolicy
    from repro.flow.preimpl import implement_design

    z045 = xc7z045()
    design = cnv_design()
    pre = implement_design(design, xc7z020(), MinimalCFPolicy())
    footprints = {
        name: impl.outcome.result.footprint
        for name, impl in pre.items()
        if impl.outcome.result.footprint is not None
    }
    if any(i.module not in footprints for i in design.instances):
        design = design.subset(set(footprints))
    params = SAParams(max_iters=20000, patience=20000, seed=0)

    # Alternate the kernels so a drift in machine speed hits both.
    times: dict[str, list[float]] = {"fast": [], "reference": []}
    results = {}
    for _ in range(5):
        for kernel, elapsed in times.items():
            with kernel_context(kernel):
                t0 = time.perf_counter()
                results[kernel] = stitch(design, footprints, z045, params)
                elapsed.append(time.perf_counter() - t0)
    fast, ref = results["fast"], results["reference"]
    t_fast, t_ref = min(times["fast"]), min(times["reference"])
    assert fast.iterations == ref.iterations == 20000
    assert fast.placements == ref.placements
    assert fast.final_cost == ref.final_cost
    speedup = t_ref / t_fast
    print(
        f"move loop: fast {t_fast * 1e3:.0f} ms, reference "
        f"{t_ref * 1e3:.0f} ms ({speedup:.1f}x)"
    )
    assert speedup >= 10.0, f"fused move loop only {speedup:.1f}x faster"


def test_perf_ga_vs_sa_equal_budget(grid):
    """The GA must match or beat single-seed SA on the cnvW1A1 stitch.

    This is the CI perf-smoke gate for the optimizer portfolio: both
    placers spend the same kernel-operation budget (one GA unit == one
    SA iteration) on the same pre-implemented cnvW1A1 footprints, and
    the GA's (unplaced, cost) outcome must not be worse.  Set
    ``REPRO_GA_STATS`` to a path to write the comparison as a JSON
    artifact, and ``REPRO_BENCH_GA_BUDGET`` to change the shared budget.
    """
    import json
    import os
    import time

    from repro.cnv import cnv_design
    from repro.flow.evolve import GAParams, evolve
    from repro.flow.policy import FixedCF
    from repro.flow.preimpl import implement_design

    design = cnv_design()
    pre = implement_design(design, grid, FixedCF(1.3))
    footprints = {
        name: impl.outcome.result.footprint
        for name, impl in pre.items()
        if impl.outcome.result.footprint is not None
    }
    if any(i.module not in footprints for i in design.instances):
        design = design.subset(set(footprints))

    budget = int(os.environ.get("REPRO_BENCH_GA_BUDGET", "4000"))
    t0 = time.perf_counter()
    sa = stitch(design, footprints, grid, SAParams(max_iters=budget, seed=0))
    t_sa = time.perf_counter() - t0
    t0 = time.perf_counter()
    ga = evolve(design, footprints, grid,
                GAParams(move_budget=budget, seed=0))
    t_ga = time.perf_counter() - t0

    stats = {
        "budget": budget,
        "n_instances": len(design.instances),
        "sa": {"final_cost": sa.final_cost, "n_placed": sa.n_placed,
               "n_unplaced": sa.n_unplaced, "iterations": sa.iterations,
               "wall_s": round(t_sa, 4)},
        "ga": {"final_cost": ga.final_cost, "n_placed": ga.n_placed,
               "n_unplaced": ga.n_unplaced, "iterations": ga.iterations,
               "wall_s": round(t_ga, 4)},
    }
    out = os.environ.get("REPRO_GA_STATS")
    if out:
        with open(out, "w") as fh:
            json.dump(stats, fh, indent=2, sort_keys=True)
    print(json.dumps(stats, indent=2, sort_keys=True))

    assert ga.iterations <= budget
    assert (ga.n_unplaced, ga.final_cost) <= (sa.n_unplaced, sa.final_cost), (
        f"GA (unplaced={ga.n_unplaced}, cost={ga.final_cost}) worse than "
        f"SA (unplaced={sa.n_unplaced}, cost={sa.final_cost}) "
        f"at budget {budget}"
    )


def test_perf_tracer_overhead(grid):
    """Tracing must stay cheap on the stitch benchmark workload.

    This is the CI perf-smoke gate for the observability layer.  With
    tracing disabled (the ambient default) ``stitch`` builds the same
    private trace the bespoke timing code used to, so the run should
    cost the same; with an explicit enabled tracer the only extra work
    is keeping the span forest.  Both must land within a small factor of
    each other — the gate is ~2% plus a fixed epsilon that absorbs
    timer jitter on a sub-100 ms workload.
    """
    import time

    from repro.obs.tracer import Tracer

    d, fps = _stitch_case()
    params = SAParams(max_iters=2000, seed=0)

    def best_of(tracer) -> float:
        elapsed = []
        for _ in range(5):
            t0 = time.perf_counter()
            stitch(d, fps, grid, params, tracer=tracer)
            elapsed.append(time.perf_counter() - t0)
        return min(elapsed)

    stitch(d, fps, grid, params)  # warm caches before timing
    t_disabled = best_of(None)
    t_enabled = best_of(Tracer())
    budget = 1.02 * t_disabled + 0.005
    assert t_enabled <= budget, (
        f"enabled tracer ({t_enabled * 1e3:.1f} ms) exceeds the overhead "
        f"budget ({budget * 1e3:.1f} ms; disabled: {t_disabled * 1e3:.1f} ms)"
    )
