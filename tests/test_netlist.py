"""Tests for the netlist model, builder and statistics."""

import math

import pytest

from repro.netlist.cells import CellKind
from repro.netlist.control_sets import ControlSet
from repro.netlist.netlist import NetlistBuilder
from repro.netlist.stats import compute_stats


class TestCells:
    def test_m_slice_kinds(self):
        assert CellKind.SRL.needs_m_slice
        assert CellKind.LUTRAM.needs_m_slice
        assert not CellKind.LUT.needs_m_slice


class TestNets:
    def test_negative_fanout_rejected(self):
        b = NetlistBuilder("n")
        cs = b.control_set("clk")
        for add in (
            lambda: b.add_lut(fanout=-1),
            lambda: b.add_luts(3, fanout=-1),
            lambda: b.add_ff(cs, fanout=-1),
            lambda: b.add_ffs(3, cs, fanout=-1),
            lambda: b.add_carry_chain(8, fanout=-1),
            lambda: b.add_srl(cs, fanout=-1),
            lambda: b.add_srls(3, cs, fanout=-1),
            lambda: b.add_lutram(cs, fanout=-1),
            lambda: b.add_lutrams(3, cs, fanout=-1),
            lambda: b.add_bram(2, fanout=-1),
            lambda: b.add_dsp(2, fanout=-1),
            lambda: b.add_broadcast_net(fanout=-1),
            lambda: b.add_broadcast_net(fanout=-1, is_control=True),
        ):
            with pytest.raises(ValueError, match="fanout"):
                add()


class TestControlSets:
    def test_key_identity(self):
        a = ControlSet("clk", "rst", "en")
        b = ControlSet("clk", "rst", "en")
        assert a.key() == b.key()

    def test_flags(self):
        cs = ControlSet("clk")
        assert not cs.has_reset and not cs.has_enable
        assert ControlSet("clk", reset="r").has_reset


class TestBuilder:
    def test_control_set_interning(self):
        b = NetlistBuilder("m")
        i1 = b.control_set("clk", "rst")
        i2 = b.control_set("clk", "rst")
        i3 = b.control_set("clk", "other")
        assert i1 == i2 != i3

    def test_carry_chain_cells(self):
        b = NetlistBuilder("m")
        b.add_carry_chain(bits=10)
        nl = b.build()
        assert nl.count(CellKind.CARRY4) == math.ceil(10 / 4)
        assert nl.carry_chains == (10,)

    def test_ff_requires_interned_cs(self):
        b = NetlistBuilder("m")
        with pytest.raises(IndexError):
            b.add_ff(0)

    def test_lut_input_bounds(self):
        b = NetlistBuilder("m")
        with pytest.raises(ValueError):
            b.add_lut(inputs=7)
        with pytest.raises(ValueError):
            b.add_lut(inputs=0)

    def test_srl_depth_bounds(self):
        b = NetlistBuilder("m")
        cs = b.control_set("clk")
        with pytest.raises(ValueError):
            b.add_srl(cs, depth=33)

    def test_depth_tracking(self):
        b = NetlistBuilder("m")
        b.bump_depth(3)
        b.bump_depth(2)
        b.set_min_depth(4)  # lower than current 5: no-op
        assert b.build().logic_depth == 5


class TestStats:
    def _sample(self):
        b = NetlistBuilder("m")
        cs1 = b.control_set("clk", "rst1")
        cs2 = b.control_set("clk", "rst2")
        b.add_luts(80, inputs=4)
        b.add_ffs(10, cs1)
        b.add_ffs(3, cs2)
        b.add_carry_chain(8)
        b.add_srls(2, cs1)
        b.add_broadcast_net(fanout=40)
        b.add_broadcast_net(fanout=100, is_control=True)
        b.set_min_depth(3)
        return b.build()

    def test_counts(self):
        s = compute_stats(self._sample())
        assert s.n_lut == 80
        assert s.n_ff == 13
        assert s.n_srl == 2
        assert s.n_carry4 == 2
        assert s.carry_chain_slices == (2,)
        assert s.n_control_sets == 2

    def test_ff_per_control_set_sorted(self):
        s = compute_stats(self._sample())
        assert s.ff_per_control_set == (10, 3)
        assert s.ff_slice_demand == math.ceil(10 / 8) + math.ceil(3 / 8)

    def test_control_nets_excluded_from_fanout(self):
        s = compute_stats(self._sample())
        assert s.max_fanout == 40  # not the 100-fanout control net

    def test_cached(self):
        nl = self._sample()
        assert compute_stats(nl) is compute_stats(nl)

    def test_trivial_detection(self):
        b = NetlistBuilder("t")
        b.add_lut()
        assert compute_stats(b.build()).is_trivial()

    def test_nontrivial(self):
        s = compute_stats(self._sample())
        assert not s.is_trivial()

    def test_total_sites(self):
        s = compute_stats(self._sample())
        assert s.total_sites == 80 + 13 + 2 + 2
