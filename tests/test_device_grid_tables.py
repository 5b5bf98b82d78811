"""Grid window queries agree with the column-scanning reference.

``find_window`` and ``caps_in_rect`` must answer exactly like the
straightforward per-column loops in :mod:`tests.grid_reference`, on the
four modeled parts and on random column sequences: clock columns at the
edges or next to each other, kinds that are absent, every ``start_x``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.column import ColumnKind
from repro.device.grid import DeviceGrid
from repro.device.parts import list_parts, make_part
from repro.pblock.pblock import PBlock
from tests.grid_reference import reference_caps_in_rect, reference_find_window

_CK = ColumnKind.CLOCK
_PARTS = {name: make_part(name) for name in list_parts()}

#: Hand-picked sequences for the clock-column corner cases.
_EDGE_KINDS = [
    [_CK],
    [_CK, _CK],
    [_CK, ColumnKind.CLBLL, ColumnKind.CLBLM, _CK],
    [ColumnKind.CLBLL, _CK, _CK, ColumnKind.CLBLM, ColumnKind.BRAM],
    [ColumnKind.DSP, ColumnKind.CLBLL, ColumnKind.CLBLL, _CK],
    [ColumnKind.CLBLL] * 5,
    [ColumnKind.BRAM, ColumnKind.DSP],
]

_kind_lists = st.lists(st.sampled_from(list(ColumnKind)), min_size=1, max_size=24)
_demands = st.tuples(*(st.integers(-1, 7) for _ in range(4)))


def _grid(kinds, n_regions=1) -> DeviceGrid:
    return DeviceGrid.from_kinds("rand", kinds, n_regions=n_regions)


def _check_find_window(grid: DeviceGrid, demands, start_xs=None) -> None:
    clb, m, bram, dsp = demands
    if start_xs is None:
        start_xs = range(grid.n_cols + 2)
    for start_x in start_xs:
        got = grid.find_window(clb, m, bram, dsp, start_x=start_x)
        want = reference_find_window(grid, clb, m, bram, dsp, start_x=start_x)
        assert got == want, (grid.name, demands, start_x)


def _check_caps(grid: DeviceGrid, data) -> None:
    x0 = data.draw(st.integers(0, grid.n_cols - 1))
    width = data.draw(st.integers(1, grid.n_cols - x0))
    y0 = data.draw(st.integers(0, grid.height_clbs - 1))
    height = data.draw(st.integers(1, grid.height_clbs - y0))
    assert grid.caps_in_rect(x0, width, y0, height) == reference_caps_in_rect(
        grid, x0, width, y0, height
    )


class TestFindWindowEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(part=st.sampled_from(sorted(_PARTS)), demands=_demands)
    def test_parts(self, part, demands):
        _check_find_window(_PARTS[part], demands)

    @settings(max_examples=200, deadline=None)
    @given(kinds=_kind_lists, demands=_demands)
    def test_random_grids(self, kinds, demands):
        _check_find_window(_grid(kinds), demands)

    @pytest.mark.parametrize("kinds", _EDGE_KINDS)
    def test_clock_edges(self, kinds):
        grid = _grid(kinds)
        for clb in range(-1, 4):
            for m in range(0, 3):
                for bram in range(0, 2):
                    for dsp in range(0, 2):
                        _check_find_window(grid, (clb, m, bram, dsp))

    def test_pblock_generator_demands_on_parts(self):
        # The demand shapes the PBlock generator issues, from x = 0.
        for grid in _PARTS.values():
            for clb in range(1, 25):
                for m in (0, clb // 2, clb):
                    for bram in range(4):
                        _check_find_window(grid, (clb, m, bram, bram), (0,))


class TestCapsEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(part=st.sampled_from(sorted(_PARTS)), data=st.data())
    def test_parts(self, part, data):
        _check_caps(_PARTS[part], data)

    @settings(max_examples=200, deadline=None)
    @given(kinds=_kind_lists, n_regions=st.integers(1, 3), data=st.data())
    def test_random_grids(self, kinds, n_regions, data):
        _check_caps(_grid(kinds, n_regions), data)

    @pytest.mark.parametrize("kinds", _EDGE_KINDS)
    def test_clock_edges(self, kinds):
        grid = _grid(kinds)
        for x0 in range(grid.n_cols):
            for width in range(1, grid.n_cols - x0 + 1):
                for height in (1, 4, 5, 9, 10, 50):
                    assert grid.caps_in_rect(x0, width, 0, height) == (
                        reference_caps_in_rect(grid, x0, width, 0, height)
                    )

    def test_out_of_bounds_rejected_like_reference(self):
        grid = _PARTS["xc7z020"]
        for args in ((-1, 2, 0, 5), (0, 0, 0, 5), (0, grid.n_cols + 1, 0, 5),
                     (0, 2, -1, 5), (0, 2, 0, 0), (0, 2, 0, grid.height_clbs + 1)):
            with pytest.raises(ValueError):
                reference_caps_in_rect(grid, *args)
            with pytest.raises(ValueError):
                grid.caps_in_rect(*args)


class TestPBlockColumnCounts:
    @settings(max_examples=200, deadline=None)
    @given(kinds=_kind_lists, data=st.data())
    def test_clock_check_and_clb_count(self, kinds, data):
        grid = _grid(kinds)
        x0 = data.draw(st.integers(0, grid.n_cols - 1))
        width = data.draw(st.integers(1, grid.n_cols - x0))
        window = kinds[x0 : x0 + width]
        if _CK in window:
            with pytest.raises(ValueError, match="clock"):
                PBlock(grid=grid, x0=x0, width=width, y0=0, height=10)
            return
        pb = PBlock(grid=grid, x0=x0, width=width, y0=0, height=10)
        assert pb.n_clb_cols == sum(1 for k in window if k.is_clb)
        assert pb.kinds == tuple(window)
