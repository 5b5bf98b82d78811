"""Detailed tests of the flat ("AMD EDA") flow model."""

from repro.cnv.design import cnv_design
from repro.flow.blockdesign import BlockDesign
from repro.flow.monolithic import monolithic_flow
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import RandomLogicCloud


def _design(n_luts: int, n_instances: int) -> BlockDesign:
    d = BlockDesign(name=f"mono{n_luts}x{n_instances}")
    d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=n_luts)]))
    for i in range(n_instances):
        d.add_instance(f"i{i}", "m")
    if n_instances > 1:
        d.connect("i0", "i1")
    return d


class TestOverheadModel:
    def test_slack_increases_overhead(self, z020):
        """The same module uses relatively more slices when the device has
        slack than when it is under pressure (paper: the flat flow is
        'forced to optimize area' at 99.98%)."""
        light = monolithic_flow(_design(400, 2), z020)
        heavy = monolithic_flow(_design(400, 120), z020)
        mean_light = light.total_slices / 2
        mean_heavy = heavy.total_slices / 120
        assert mean_light >= mean_heavy

    def test_instance_jitter_deterministic(self, z020):
        d = _design(300, 6)
        a = monolithic_flow(d, z020)
        b = monolithic_flow(d, z020)
        assert a.per_instance_slices == b.per_instance_slices

    def test_instances_vary(self, z020):
        res = monolithic_flow(_design(300, 8), z020)
        values = set(res.per_instance_slices.values())
        assert len(values) > 1  # per-instance placement variation

    def test_placed_flag(self, z020):
        small = monolithic_flow(_design(100, 2), z020)
        assert small.placed
        huge = monolithic_flow(_design(4000, 60), z020)
        assert not huge.placed
        assert huge.utilization > 1.0

    def test_module_slices_lookup(self, z020):
        d = _design(200, 3)
        res = monolithic_flow(d, z020)
        assert len(res.module_slices(d, "m")) == 3
        assert res.module_slices(d, "ghost") == []


class TestCnvBaseline:
    def test_cnv_fills_device(self, z020):
        res = monolithic_flow(cnv_design(), z020)
        # The paper's design uses 99.98%; the model lands within a point.
        assert 0.985 < res.utilization <= 1.0
        assert res.placed

    def test_cnv_on_bigger_device_has_slack(self, z045):
        res = monolithic_flow(cnv_design(), z045)
        assert res.placed
        assert res.utilization < 0.35
