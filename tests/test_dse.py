"""Tests for the DSE explorer."""

import pytest

from repro.dse.explorer import DSEExplorer, DSEPoint, pareto_front
from repro.flow.blockdesign import BlockDesign
from repro.flow.policy import FixedCF
from repro.flow.stitcher import SAParams
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import RandomLogicCloud


def _module(name: str, n_luts: int) -> RTLModule:
    return RTLModule.make(
        name, [RandomLogicCloud(n_luts=n_luts)], params={"n": n_luts}
    )


@pytest.fixture()
def explorer(z020):
    d = BlockDesign(name="dse-test")
    d.add_module(_module("pe", 240))
    d.add_module(_module("mem", 100))
    for i in range(3):
        d.add_instance(f"pe{i}", "pe")
    d.add_instance("mem0", "mem")
    d.connect("mem0", "pe0")
    d.connect("pe0", "pe1")
    d.connect("pe1", "pe2")
    return DSEExplorer(
        d, z020, FixedCF(1.7), sa_params=SAParams(max_iters=1500, seed=0)
    )


class TestEvaluate:
    def test_base_point(self, explorer):
        p = explorer.evaluate("base")
        assert p.n_unplaced == 0
        assert p.area_slices > 0
        assert p.worst_path_ns > 0
        assert p.cache_hits == 0  # cold cache
        assert p.implemented_effort > 0

    def test_cache_reuse_across_variants(self, explorer):
        base = explorer.evaluate("base")
        p2 = explorer.evaluate("smaller-pe", {"pe": _module("pe", 120)})
        # Only the changed module is re-implemented: mem is a cache hit and
        # the step effort covers just the new pe.
        assert p2.cache_hits == 1
        assert 0 < p2.implemented_effort < base.implemented_effort

    def test_identical_variant_all_hits(self, explorer):
        explorer.evaluate("base")
        p = explorer.evaluate("same")
        assert p.cache_hits == 2
        assert p.implemented_effort == 0

    def test_bigger_variant_costs_area(self, explorer):
        base = explorer.evaluate("base")
        big = explorer.evaluate("big", {"pe": _module("pe", 500)})
        assert big.area_slices > base.area_slices

    def test_unknown_override_rejected(self, explorer):
        with pytest.raises(KeyError):
            explorer.evaluate("bad", {"ghost": _module("ghost", 10)})

    def test_dict_params_override(self, explorer):
        # Regression: a directly-constructed module with dict params used
        # to crash the cache lookup with ``TypeError: unhashable type``.
        raw = RTLModule(
            "pe", (RandomLogicCloud(n_luts=240),), params={"n": 240}
        )
        base = explorer.evaluate("base")
        p = explorer.evaluate("raw-pe", {"pe": raw})
        # Same content, same cache entries: the variant is free.
        assert p.cache_hits == 2
        assert p.implemented_effort == 0
        assert p.area_slices == base.area_slices

    def test_render(self, explorer):
        explorer.evaluate("base")
        out = explorer.render()
        assert "base" in out and "pareto" in out


class TestPortfolio:
    def _design(self):
        d = BlockDesign(name="dse-portfolio")
        d.add_module(_module("pe", 240))
        d.add_module(_module("mem", 100))
        for i in range(3):
            d.add_instance(f"pe{i}", "pe")
        d.add_instance("mem0", "mem")
        d.connect("mem0", "pe0")
        d.connect("pe0", "pe1")
        d.connect("pe1", "pe2")
        return d

    def test_default_is_single_sa(self, explorer):
        assert [p.name for p in explorer.placers] == ["sa"]
        assert explorer.evaluate("base").placer == "sa"

    def test_portfolio_registers_every_member(self, z020):
        ex = DSEExplorer(
            self._design(), z020, FixedCF(1.7),
            sa_params=SAParams(max_iters=1200, seed=0),
            placers="portfolio",
        )
        assert [p.name for p in ex.placers] == ["sa", "ga", "warm-sa"]
        p = ex.evaluate("base")
        assert p.placer in {"sa", "ga", "warm-sa"}

    def test_portfolio_no_worse_than_sa_alone(self, z020):
        """The portfolio keeps the pareto-best placement per scenario."""
        sa_only = DSEExplorer(
            self._design(), z020, FixedCF(1.7),
            sa_params=SAParams(max_iters=1200, seed=0),
        )
        portfolio = DSEExplorer(
            self._design(), z020, FixedCF(1.7),
            sa_params=SAParams(max_iters=1200, seed=0),
            placers="portfolio",
        )
        assert portfolio.evaluate("base").n_unplaced <= (
            sa_only.evaluate("base").n_unplaced
        )

    def test_explicit_placer_list(self, z020):
        from repro.flow.placers import GAPlacer
        from repro.flow.evolve import GAParams

        ex = DSEExplorer(
            self._design(), z020, FixedCF(1.7),
            placers=[GAPlacer(params=GAParams(move_budget=1200, seed=0))],
        )
        assert ex.evaluate("base").placer == "ga"

    def test_bad_portfolio_name_rejected(self, z020):
        with pytest.raises(ValueError, match="unknown placer portfolio"):
            DSEExplorer(self._design(), z020, FixedCF(1.7), placers="zoo")

    def test_empty_placers_rejected(self, z020):
        with pytest.raises(ValueError, match="must not be empty"):
            DSEExplorer(self._design(), z020, FixedCF(1.7), placers=[])


class TestPareto:
    def _pt(self, label, area, ns, unplaced=0):
        return DSEPoint(
            label=label,
            area_slices=area,
            worst_path_ns=ns,
            n_unplaced=unplaced,
            implemented_effort=0,
            cache_hits=0,
        )

    def test_dominance(self):
        a = self._pt("a", 100, 5.0)
        b = self._pt("b", 120, 6.0)
        assert a.dominates(b)
        assert not b.dominates(a)

    def test_tradeoff_points_both_on_front(self):
        fast = self._pt("fast", 200, 4.0)
        small = self._pt("small", 100, 6.0)
        front = pareto_front([fast, small])
        assert {p.label for p in front} == {"fast", "small"}
        assert front[0].label == "small"  # sorted by area

    def test_infeasible_excluded(self):
        good = self._pt("good", 100, 5.0)
        broken = self._pt("broken", 50, 3.0, unplaced=4)
        front = pareto_front([good, broken])
        assert [p.label for p in front] == ["good"]

    def test_infeasible_never_dominates(self):
        broken = self._pt("broken", 50, 3.0, unplaced=1)
        good = self._pt("good", 100, 5.0)
        assert not broken.dominates(good)

    def test_equal_metrics_do_not_dominate(self):
        # Dominance requires a strict improvement on at least one metric;
        # in particular a feasible point must not dominate an infeasible
        # twin on merely-equal numbers.
        a = self._pt("a", 100, 5.0)
        twin = self._pt("twin", 100, 5.0)
        broken_twin = self._pt("broken", 100, 5.0, unplaced=2)
        assert not a.dominates(twin)
        assert not twin.dominates(a)
        assert not a.dominates(broken_twin)

    def test_front_dedupes_identical_metrics(self):
        first = self._pt("first", 100, 5.0)
        dup = self._pt("dup", 100, 5.0)
        other = self._pt("other", 200, 4.0)
        front = pareto_front([first, dup, other])
        # Earliest-explored duplicate kept, tie does not inflate the front.
        assert [p.label for p in front] == ["first", "other"]

    def test_front_dedupe_keeps_earliest(self):
        a = self._pt("a", 100, 5.0)
        b = self._pt("b", 100, 5.0)
        assert [p.label for p in pareto_front([b, a])] == ["b"]
