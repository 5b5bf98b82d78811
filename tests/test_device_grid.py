"""Tests for the device grid geometry and capacity queries."""

import pytest

from repro.device.column import Column, ColumnKind
from repro.device.grid import CLB_PER_REGION, DeviceGrid
from repro.device.resources import ResourceCaps


class TestConstruction:
    def test_from_kinds_numbers_columns(self, tiny_grid):
        for i, col in enumerate(tiny_grid.columns):
            assert col.x == i

    def test_misnumbered_columns_rejected(self):
        cols = (Column(ColumnKind.CLBLL, 1),)
        with pytest.raises(ValueError, match="numbered"):
            DeviceGrid(name="bad", columns=cols, n_regions=1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DeviceGrid(name="bad", columns=(), n_regions=1)

    def test_height(self, tiny_grid):
        assert tiny_grid.height_clbs == CLB_PER_REGION
        assert tiny_grid.height_slices == tiny_grid.height_clbs


class TestCapacity:
    def test_full_device_slices(self, tiny_grid):
        caps = tiny_grid.device_caps()
        n_clb = sum(1 for c in tiny_grid.columns if c.kind.is_clb)
        assert caps.slices == n_clb * 2 * 50

    def test_m_slices_from_lm_columns(self, tiny_grid):
        caps = tiny_grid.device_caps()
        n_lm = sum(1 for c in tiny_grid.columns if c.kind is ColumnKind.CLBLM)
        assert caps.m_slices == n_lm * 50

    def test_bram_pitch(self, tiny_grid):
        # 1 BRAM column, 10 per 50 rows.
        assert tiny_grid.device_caps().bram36 == 10

    def test_subrect_scaling(self, tiny_grid):
        full = tiny_grid.caps_in_rect(0, 3, 0, 50)
        half = tiny_grid.caps_in_rect(0, 3, 0, 25)
        assert half.slices * 2 == full.slices

    def test_partial_bram_rounds_down(self, tiny_grid):
        caps = tiny_grid.caps_in_rect(3, 1, 0, 4)  # 4 rows < 5-row pitch
        assert caps.bram36 == 0

    def test_out_of_bounds_rejected(self, tiny_grid):
        with pytest.raises(ValueError):
            tiny_grid.caps_in_rect(0, 99, 0, 10)
        with pytest.raises(ValueError):
            tiny_grid.caps_in_rect(0, 1, 0, 999)


class TestAnchors:
    def test_pattern_match(self, tiny_grid):
        pattern = (ColumnKind.CLBLM, ColumnKind.CLBLL)
        anchors = tiny_grid.compatible_x_anchors(pattern)
        kinds = tiny_grid.kinds()
        for x in anchors:
            assert kinds[x : x + 2] == pattern
        assert anchors  # tiny grid has at least one LM,LL pair

    def test_no_match(self, tiny_grid):
        anchors = tiny_grid.compatible_x_anchors((ColumnKind.BRAM,) * 3)
        assert anchors == []

    def test_cache_stable(self, tiny_grid):
        p = (ColumnKind.CLBLL,)
        assert tiny_grid.compatible_x_anchors(p) is tiny_grid.compatible_x_anchors(p)


class TestFindWindow:
    def test_basic(self, tiny_grid):
        window = tiny_grid.find_window(min_clb_cols=2)
        assert window is not None
        x0, width = window
        assert sum(1 for k in tiny_grid.kinds(x0, width) if k.is_clb) >= 2

    def test_requires_bram(self, tiny_grid):
        x0, width = tiny_grid.find_window(min_clb_cols=1, min_bram_cols=1)
        assert ColumnKind.BRAM in tiny_grid.kinds(x0, width)

    def test_never_spans_clock(self, tiny_grid):
        # Any window found must exclude the clock spine.
        for clb in range(1, 6):
            w = tiny_grid.find_window(min_clb_cols=clb)
            if w is not None:
                assert ColumnKind.CLOCK not in tiny_grid.kinds(*w)

    def test_impossible_returns_none(self, tiny_grid):
        assert tiny_grid.find_window(min_clb_cols=100) is None

    def test_narrowest_then_leftmost(self, z020):
        # (0, 8) is the leftmost feasible window, but the narrowest one
        # wins; the leftmost only breaks ties between equal widths.
        assert z020.find_window(1, min_bram_cols=1, min_dsp_cols=1) == (4, 4)

    def test_negative_start_x_rejected(self, z020):
        # Negative indexing used to wrap around to a window that does not
        # exist: (-3, 2) here.
        with pytest.raises(ValueError, match="start_x"):
            z020.find_window(1, min_dsp_cols=1, start_x=-3)

    def test_start_x_past_device_returns_none(self, z020):
        assert z020.find_window(1, start_x=z020.n_cols) is None
        assert z020.find_window(0, start_x=z020.n_cols + 5) is None


class TestRegions:
    def test_single_region_never_crosses(self, tiny_grid):
        assert not tiny_grid.crosses_region_boundary(0, 50)

    def test_crossing(self, z020):
        assert z020.crosses_region_boundary(45, 10)
        assert not z020.crosses_region_boundary(0, 50)

    def test_clock_columns_listed(self, tiny_grid):
        assert tiny_grid.clock_column_xs() == [5]


class TestResourceCaps:
    def test_add(self):
        a = ResourceCaps.for_slices(10, 2)
        b = ResourceCaps.for_slices(5, 1)
        c = a + b
        assert c.slices == 15 and c.m_slices == 3 and c.luts == 60

    def test_covers(self):
        big = ResourceCaps.for_slices(10, 4)
        small = ResourceCaps.for_slices(5, 2)
        assert big.covers(small)
        assert not small.covers(big)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ResourceCaps(slices=-1)

    def test_m_exceeding_total_rejected(self):
        with pytest.raises(ValueError):
            ResourceCaps(slices=1, m_slices=2)
