"""Column-scanning reference implementations of the grid's window queries.

These are the straightforward per-column loops :class:`DeviceGrid`
answered ``find_window`` and ``caps_in_rect`` with before it kept
prefix-count tables.  They survive only as test oracles: the equivalence
tests and the grid-query perf gate compare the table-driven answers to
them.
"""

from __future__ import annotations

from repro.device.column import ColumnKind
from repro.device.grid import CLB_PER_REGION, DeviceGrid
from repro.device.resources import (
    BRAM36_PER_REGION_COLUMN,
    DSP48_PER_REGION_COLUMN,
    SLICES_PER_CLB,
    ResourceCaps,
)

__all__ = ["reference_caps_in_rect", "reference_find_window"]


def reference_caps_in_rect(
    grid: DeviceGrid, x0: int, width: int, y0: int, height: int
) -> ResourceCaps:
    """Sum the capacities of the rectangle one column at a time."""
    if x0 < 0 or width <= 0 or x0 + width > grid.n_cols:
        raise ValueError(f"column window [{x0}, {x0 + width}) outside device")
    if y0 < 0 or height <= 0 or y0 + height > grid.height_clbs:
        raise ValueError(f"row window [{y0}, {y0 + height}) outside device")
    caps = ResourceCaps()
    for col in grid.columns[x0 : x0 + width]:
        if col.kind.is_clb:
            n_m = height if col.kind is ColumnKind.CLBLM else 0
            caps = caps + ResourceCaps.for_slices(height * SLICES_PER_CLB, n_m)
        elif col.kind is ColumnKind.BRAM:
            caps = caps + ResourceCaps(
                bram36=height * BRAM36_PER_REGION_COLUMN // CLB_PER_REGION
            )
        elif col.kind is ColumnKind.DSP:
            caps = caps + ResourceCaps(
                dsp48=height * DSP48_PER_REGION_COLUMN // CLB_PER_REGION
            )
    return caps


def reference_find_window(
    grid: DeviceGrid,
    min_clb_cols: int,
    min_m_cols: int = 0,
    min_bram_cols: int = 0,
    min_dsp_cols: int = 0,
    start_x: int = 0,
) -> tuple[int, int] | None:
    """Rescan the columns right of every ``x0 >= start_x`` (O(n^2)).

    Defined for ``start_x >= 0`` only: a negative ``start_x`` makes
    Python's negative indexing wrap around the device.
    """
    best: tuple[int, int] | None = None
    n = grid.n_cols
    for x0 in range(start_x, n):
        clb = m = bram = dsp = 0
        for x1 in range(x0, n):
            kind = grid.columns[x1].kind
            if kind is ColumnKind.CLOCK:
                break
            if kind.is_clb:
                clb += 1
                if kind is ColumnKind.CLBLM:
                    m += 1
            elif kind is ColumnKind.BRAM:
                bram += 1
            elif kind is ColumnKind.DSP:
                dsp += 1
            if (
                clb >= min_clb_cols
                and m >= min_m_cols
                and bram >= min_bram_cols
                and dsp >= min_dsp_cols
            ):
                width = x1 - x0 + 1
                if best is None or width < best[1]:
                    best = (x0, width)
                break
    return best
