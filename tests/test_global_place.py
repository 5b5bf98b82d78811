"""Analytic global placer: legality, determinism and budget contract.

The gp output feeds the SA stitcher as a warm start, so the one
property everything downstream trusts is that the legalized placement
honors the same geometric contract as the move kernels — verified here
by round-tripping every gp anchor through a fresh kernel's ``fits``
check and the shared ``_assert_legal`` helper from the place-kernel
suite.  The descent itself is pinned by the gp goldens in
``tests/test_golden_costs.py``; this file covers the structural
invariants, the ``nearest_fit_y`` kernel primitive the legalizer snaps
through, and the process-wide site-table cache.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.column import ColumnKind
from repro.flow.blockdesign import BlockDesign
from repro.flow.global_place import GPParams, global_place
from repro.flow.placers import AnalyticPlacer, WarmStartedSAPlacer
from repro.flow.stitcher import SAParams, stitch
from repro.obs.tracer import Tracer
from repro.place.shapes import Footprint
from repro.place_kernel import (
    KERNELS,
    PlacementProblem,
    column_capacities,
    site_table,
)
from repro.place_kernel.result import pareto_key
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import RandomLogicCloud
from tests.test_place_kernel import (
    _GRID,
    _PATTERNS,
    _assert_legal,
    _footprints,
)

_LL = ColumnKind.CLBLL
_LM = ColumnKind.CLBLM

_kernels = pytest.mark.parametrize("kernel", list(KERNELS))


def _design_from_specs(fp_specs):
    """The place-kernel suite's fixture shape, kept as (design, fps)."""
    d = BlockDesign(name="gp")
    fps = {}
    for k, (kinds, h) in enumerate(fp_specs):
        name = f"m{fp_specs.index((kinds, h))}"
        if name not in fps:
            d.add_module(RTLModule.make(name, [RandomLogicCloud(n_luts=2)]))
            fps[name] = Footprint(kinds, (h,) * len(kinds))
        d.add_instance(f"i{k}", name)
        if k:
            d.connect(f"i{k - 1}", f"i{k}", width=2)
    return d, fps


class TestGlobalPlaceLegality:
    @_kernels
    @given(_footprints, st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_output_is_legal_and_reloadable(self, kernel, fp_specs, seed):
        """Every gp anchor passes a fresh kernel's own fit check."""
        d, fps = _design_from_specs(fp_specs)
        res = global_place(d, fps, _GRID, GPParams(n_iters=20, seed=seed),
                          kernel=kernel)
        problem = PlacementProblem.from_design(d, fps, _GRID)
        kb = problem.make_kernel(kernel, 40.0)
        kb.load_placements(problem.names, res.placements)
        # load_placements silently skips non-fitting anchors; exact
        # equality proves none were skipped, i.e. the output is legal.
        assert {problem.names[i]: kb.pos[i] for i in range(kb.n)} == \
            dict(res.placements)
        _assert_legal(problem, kb)
        assert res.occupancy.max(initial=0) <= 1
        assert res.iterations == 0
        assert res.illegal_moves == 0

    @given(_footprints, st.integers(0, 3))
    @settings(max_examples=15, deadline=None)
    def test_kernels_agree(self, fp_specs, seed):
        """Both legalization kernels produce bitwise-identical results."""
        d, fps = _design_from_specs(fp_specs)
        p = GPParams(n_iters=20, seed=seed)
        a = global_place(d, fps, _GRID, p, kernel="fast")
        b = global_place(d, fps, _GRID, p, kernel="reference")
        assert a.placements == b.placements
        assert a.final_cost == b.final_cost
        assert a.wirelength == b.wirelength

    def test_deterministic_across_calls(self):
        d, fps = _design_from_specs([(p, 8) for p in _PATTERNS[:4]])
        a = global_place(d, fps, _GRID, GPParams(seed=3))
        b = global_place(d, fps, _GRID, GPParams(seed=3))
        assert a.placements == b.placements
        assert a.final_cost == b.final_cost
        assert a.stats.temperature_trace == b.stats.temperature_trace

    def test_zero_iters_still_legalizes(self):
        """n_iters=0 skips the descent but still snaps a legal start."""
        d, fps = _design_from_specs([((_LL,), 6), ((_LM,), 6)])
        res = global_place(d, fps, _GRID, GPParams(n_iters=0))
        assert res.n_placed == 2
        assert res.occupancy.max(initial=0) <= 1


class TestGlobalPlaceValidation:
    def test_unknown_kernel_rejected(self):
        d, fps = _design_from_specs([((_LL,), 4)])
        with pytest.raises(ValueError, match="unknown kernel"):
            global_place(d, fps, _GRID, kernel="turbo")

    @pytest.mark.parametrize("bad", [
        GPParams(n_iters=-1),
        GPParams(gamma=0.0),
        GPParams(n_bands=0),
    ])
    def test_bad_params_rejected(self, bad):
        d, fps = _design_from_specs([((_LL,), 4)])
        with pytest.raises(ValueError):
            global_place(d, fps, _GRID, bad)


class TestGlobalPlaceTrace:
    def test_phase_spans_tile_root(self):
        d, fps = _design_from_specs([(p, 10) for p in _PATTERNS[:3]])
        tr = Tracer()
        global_place(d, fps, _GRID, GPParams(n_iters=10), tracer=tr)
        root = tr.roots[0]
        assert root.name == "gplace"
        assert [c.name for c in root.children] == [
            "gplace.init", "gplace.descent", "gplace.legalize"
        ]
        assert sum(c.dur_s for c in root.children) == pytest.approx(
            root.dur_s, rel=0.05
        )

    def test_stats_record_descent_trajectory(self):
        d, fps = _design_from_specs([((_LL,), 6), ((_LM,), 6)])
        res = global_place(d, fps, _GRID, GPParams(n_iters=7))
        assert len(res.stats.temperature_trace) == 7
        assert [t for t, _f in res.stats.temperature_trace] == list(range(7))


class TestWarmStartPipeline:
    def test_analytic_placer_equals_global_place(self):
        d, fps = _design_from_specs([(p, 8) for p in _PATTERNS[:4]])
        params = GPParams(seed=1)
        direct = global_place(d, fps, _GRID, params)
        via = AnalyticPlacer(params=params).place(d, fps, _GRID)
        assert via.placements == direct.placements
        assert via.final_cost == direct.final_cost

    def test_gp_warm_started_sa_budget_and_quality(self):
        """gp+sa spends at most sa_frac of the cap and never loses to
        its own warm start (the pareto-better of the two wins)."""
        d, fps = _design_from_specs([(p, 8) for p in _PATTERNS[:5]])
        placer = WarmStartedSAPlacer(
            params=SAParams(max_iters=1000, seed=0), warm="gp",
        )
        res = placer.place(d, fps, _GRID)
        warm = global_place(d, fps, _GRID, GPParams(seed=0))
        assert res.iterations <= 500
        assert pareto_key(res) <= pareto_key(warm)
        assert res.occupancy.max(initial=0) <= 1

    def test_unknown_warm_producer_rejected(self):
        d, fps = _design_from_specs([((_LL,), 4)])
        placer = WarmStartedSAPlacer(warm="magnetic")
        with pytest.raises(ValueError, match="warm-start producer"):
            placer.place(d, fps, _GRID)

    def test_stitch_restarts_accept_warm_start(self):
        """initial_placements forwards through the restart fan-out."""
        from repro.flow.placers import SAPlacer
        from repro.flow.restarts import best_of

        d, fps = _design_from_specs([(p, 8) for p in _PATTERNS[:4]])
        warm = global_place(d, fps, _GRID, GPParams(seed=0))
        placer = SAPlacer(SAParams(max_iters=300, seed=0),
                          initial_placements=warm.placements)
        serial = best_of(placer, d, fps, _GRID, n_seeds=2)
        pooled = best_of(placer, d, fps, _GRID, n_seeds=2, n_workers=2)
        assert serial.placements == pooled.placements
        assert serial.final_cost == pooled.final_cost


    def test_best_of_runs_the_warm_start_once(self):
        """Restarts share one analytic start and fan out only the polish."""
        from repro.flow.restarts import best_of

        d, fps = _design_from_specs([(p, 8) for p in _PATTERNS[:4]])
        placer = WarmStartedSAPlacer(
            params=SAParams(max_iters=600, seed=0), warm="gp", name="gp+sa",
        )
        tr = Tracer()
        best = best_of(placer, d, fps, _GRID, n_seeds=3, tracer=tr)
        assert [r.name for r in tr.roots] == ["gplace", "placer.restarts"]
        restarts = tr.roots[1]
        assert restarts.attrs["placer"] == "gp+sa"
        assert [c.name for c in restarts.children] == ["stitch"] * 3
        warm = global_place(d, fps, _GRID, GPParams(seed=0))
        assert pareto_key(best) <= pareto_key(warm)

    def test_best_of_runs_the_analytic_placer_once(self):
        from repro.flow.restarts import best_of

        d, fps = _design_from_specs([(p, 8) for p in _PATTERNS[:4]])
        placer = AnalyticPlacer(GPParams(seed=0))
        tr = Tracer()
        best = best_of(placer, d, fps, _GRID, n_seeds=3, tracer=tr)
        assert [r.name for r in tr.roots] == ["gplace"]
        single = placer.place(d, fps, _GRID)
        assert best.placements == single.placements
        assert best.stats.seed == 0


class TestNearestFitY:
    @_kernels
    @given(_footprints, st.integers(0, 200), st.integers(0, 7))
    @settings(max_examples=40, deadline=None)
    def test_result_fits_and_is_nearest(self, kernel, fp_specs, y_target,
                                        salt):
        """nearest_fit_y returns the closest fitting row (ties lower)."""
        d, fps = _design_from_specs(fp_specs)
        problem = PlacementProblem.from_design(d, fps, _GRID)
        kb = problem.make_kernel(kernel, 40.0)
        kb.greedy_initial()
        i = salt % kb.n
        xs = kb.anchors_x[i]
        if not xs or kb.y_max[i] < 0:
            return
        x = xs[salt % len(xs)]
        # Vacate the probe instance so self-overlap can't mask fits.
        if kb.pos[i] is not None:
            px, py = kb.pos[i]
            kb.paint(i, px, py, -1)
            kb.set_pos(i, None)
        got = kb.nearest_fit_y(i, x, y_target)
        step = kb.y_step[i]
        fitting = [y for y in range(0, kb.y_max[i] + 1, step)
                   if kb.fits(i, x, y)]
        if not fitting:
            assert got is None
        else:
            t = min(max(y_target, 0), kb.y_max[i])
            t -= t % step
            expect = min(fitting,
                         key=lambda y: (abs(y - t), y))
            assert got == expect

    @given(_footprints, st.integers(-5, 250), st.integers(0, 7))
    @settings(max_examples=30, deadline=None)
    def test_kernels_agree(self, fp_specs, y_target, salt):
        d, fps = _design_from_specs(fp_specs)
        results = []
        for kernel in KERNELS:
            problem = PlacementProblem.from_design(d, fps, _GRID)
            kb = problem.make_kernel(kernel, 40.0)
            kb.greedy_initial()
            i = salt % kb.n
            xs = kb.anchors_x[i]
            if not xs:
                return
            results.append(kb.nearest_fit_y(i, xs[salt % len(xs)], y_target))
        assert results[0] == results[1]


class TestSiteInfrastructure:
    def test_column_capacities_shape_and_clock(self, tiny_grid):
        caps = column_capacities(tiny_grid)
        assert caps.shape == (tiny_grid.n_cols,)
        assert caps[5] == 0.0  # the clock-spine column holds nothing
        assert all(caps[x] == tiny_grid.height_clbs
                   for x in range(tiny_grid.n_cols) if x != 5)

    def test_site_tables_cached_per_grid(self):
        """Rebuilding a kernel on the same grid reuses the same tables."""
        fp = Footprint((_LL, _LM), (6, 6))
        assert site_table(_GRID, fp) is site_table(_GRID, fp)
        d, fps = _design_from_specs([((_LL, _LM), 6)])
        problem = PlacementProblem.from_design(d, fps, _GRID)
        a = problem.make_kernel("fast", 40.0)
        b = problem.make_kernel("fast", 40.0)
        assert a.tables[0] is b.tables[0]

    def test_cache_survives_restore_clear_cycles(self):
        """Snapshot/restore churn never invalidates the shared tables."""
        d, fps = _design_from_specs([((_LL,), 5), ((_LM,), 5)])
        problem = PlacementProblem.from_design(d, fps, _GRID)
        kb = problem.make_kernel("fast", 40.0)
        tables = list(kb.tables)
        kb.greedy_initial()
        snap = list(kb.pos)
        kb.clear()
        kb.restore(snap)
        kb2 = problem.make_kernel("fast", 40.0)
        assert all(x is y for x, y in zip(tables, kb2.tables))

    def test_distinct_grids_do_not_share(self, tiny_grid):
        fp = Footprint((_LL,), (4,))
        assert site_table(_GRID, fp) is not site_table(tiny_grid, fp)


class TestDensityAccounting:
    def test_descent_monotone_without_density(self):
        """With the density term off the objective is pure smooth HPWL
        and Armijo backtracking guarantees a non-increasing trajectory."""
        d, fps = _design_from_specs([((_LL,), 4)] * 8)
        res = global_place(
            d, fps, _GRID,
            GPParams(n_iters=60, density_weight=0.0, seed=0),
        )
        fs = [f for _t, f in res.stats.temperature_trace]
        assert all(b <= a + 1e-9 for a, b in zip(fs, fs[1:]))

    def test_cost_matches_kernel_scoring(self):
        """The reported cost is exactly what a kernel scores the same
        placement at — gp and SA costs are directly comparable."""
        d, fps = _design_from_specs([(p, 8) for p in _PATTERNS[:4]])
        res = global_place(d, fps, _GRID, GPParams(seed=0))
        problem = PlacementProblem.from_design(d, fps, _GRID)
        kb = problem.make_kernel("fast", 40.0)
        kb.load_placements(problem.names, res.placements)
        assert res.final_cost == kb.total_cost()
        assert res.wirelength == kb.wirelength()
