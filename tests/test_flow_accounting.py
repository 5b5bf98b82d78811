"""Regression tests pinning run accounting across execution paths.

``FlowStats`` and ``GenerationReport`` must report identical tool-run
and cache counters whether the work ran sequentially, over a process
pool, or through the OSError fallback (pool construction refused —
restricted sandboxes).  In particular the fallback must not *double*
count: it rebuilds the outcome list wholesale rather than appending to a
partial pool result.
"""

import pytest

from repro.dataset.generate import generate_dataset
from repro.flow.blockdesign import BlockDesign
from repro.flow.cache import ModuleCache
from repro.flow.policy import FixedCF
from repro.flow.preimpl import implement_design
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import RandomLogicCloud


def _design() -> BlockDesign:
    d = BlockDesign(name="accounting")
    for name, n in (("a", 150), ("b", 80), ("c", 60), ("d", 40)):
        d.add_module(RTLModule.make(name, [RandomLogicCloud(n_luts=n)]))
    for name in ("a", "b", "c", "d"):
        d.add_instance(f"{name}0", name)
    d.connect("a0", "b0", width=8)
    d.connect("c0", "d0", width=8)
    return d


class _RefusingPool:
    """Stand-in for ProcessPoolExecutor in a pool-less environment."""

    def __init__(self, *args, **kwargs):
        raise OSError("process pools unavailable")


def _flow_counters(stats):
    return {
        "total_tool_runs": stats.total_tool_runs,
        "new_tool_runs": stats.new_tool_runs,
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
        "hit_rate": stats.hit_rate,
        "per_module_runs": {m.module: m.n_runs for m in stats.modules},
    }


class TestPreimplAccounting:
    @pytest.fixture(scope="class")
    def sequential(self, z020):
        return implement_design(_design(), z020, FixedCF(1.5)).stats

    def test_pool_matches_sequential(self, z020, sequential):
        pooled = implement_design(
            _design(), z020, FixedCF(1.5), n_workers=2
        ).stats
        assert _flow_counters(pooled) == _flow_counters(sequential)

    def test_oserror_fallback_does_not_double_count(
        self, z020, sequential, monkeypatch
    ):
        import repro.flow.preimpl as preimpl_mod

        monkeypatch.setattr(
            preimpl_mod, "ProcessPoolExecutor", _RefusingPool
        )
        fallen = implement_design(
            _design(), z020, FixedCF(1.5), n_workers=2
        ).stats
        assert _flow_counters(fallen) == _flow_counters(sequential)

    def test_warm_cache_counts(self, z020, sequential):
        cache = ModuleCache()
        cold = implement_design(
            _design(), z020, FixedCF(1.5), cache=cache
        ).stats
        warm = implement_design(
            _design(), z020, FixedCF(1.5), cache=cache
        ).stats
        assert cold.cache_hits == 0
        assert warm.cache_hits == warm.n_modules == 4
        assert warm.hit_rate == 1.0
        assert warm.new_tool_runs == 0
        # cached outcomes keep reporting their original run counts
        assert warm.total_tool_runs == cold.total_tool_runs
        assert _flow_counters(cold) == _flow_counters(sequential)

    def test_warm_cache_under_pool_and_fallback(self, z020, monkeypatch):
        import repro.flow.preimpl as preimpl_mod

        cache = ModuleCache()
        implement_design(_design(), z020, FixedCF(1.5), cache=cache)
        warm_seq = implement_design(
            _design(), z020, FixedCF(1.5), cache=cache
        ).stats
        warm_pool = implement_design(
            _design(), z020, FixedCF(1.5), cache=cache, n_workers=2
        ).stats
        monkeypatch.setattr(
            preimpl_mod, "ProcessPoolExecutor", _RefusingPool
        )
        warm_fall = implement_design(
            _design(), z020, FixedCF(1.5), cache=cache, n_workers=2
        ).stats
        assert (
            _flow_counters(warm_seq)
            == _flow_counters(warm_pool)
            == _flow_counters(warm_fall)
        )


def _report_counters(report):
    return {
        "n_requested": report.n_requested,
        "n_labeled": report.n_labeled,
        "n_trivial": report.n_trivial,
        "n_infeasible": report.n_infeasible,
        "n_runs": report.n_runs,
    }


class TestDatasetAccounting:
    N = 6

    @pytest.fixture(scope="class")
    def sequential(self):
        return generate_dataset(self.N, seed=0)

    def test_pool_matches_sequential(self, sequential):
        seq_records, seq_report = sequential
        records, report = generate_dataset(self.N, seed=0, workers=2)
        assert records == seq_records
        assert _report_counters(report) == _report_counters(seq_report)

    def test_oserror_fallback_does_not_double_count(
        self, sequential, monkeypatch
    ):
        import repro.dataset.generate as gen_mod

        monkeypatch.setattr(gen_mod, "ProcessPoolExecutor", _RefusingPool)
        seq_records, seq_report = sequential
        records, report = generate_dataset(self.N, seed=0, workers=2)
        assert records == seq_records
        assert _report_counters(report) == _report_counters(seq_report)

    def test_warm_cache_preserves_counters(self, sequential, tmp_path):
        seq_records, seq_report = sequential
        cold_records, cold = generate_dataset(
            self.N, seed=0, cache_dir=str(tmp_path)
        )
        warm_records, warm = generate_dataset(
            self.N, seed=0, cache_dir=str(tmp_path)
        )
        assert not cold.cache_hit and warm.cache_hit
        assert warm_records == cold_records == seq_records
        # the cached report keeps the original sweep's accounting
        assert _report_counters(warm) == _report_counters(cold)
        assert _report_counters(cold) == _report_counters(seq_report)
