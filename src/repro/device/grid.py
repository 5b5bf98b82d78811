"""The device grid: columns x CLB rows, with clock regions.

Coordinates
-----------
``x`` indexes columns (0-based, left to right); ``y`` indexes CLB rows
(0-based, bottom to top).  A rectangle is ``(x0, width_cols, y0,
height_clbs)``.  Heights of carry chains are measured in *slices*, which in
a CLB column correspond one-to-one to CLB rows (each CLB row contributes one
slice to each of the column's two slice columns).

Column tables
-------------
Columns are uniform vertically, so every window query reduces to counting
columns of a few *classes* (``clb``, its CLB-LM subset ``m``, ``bram``,
``dsp`` and ``clock``).  The grid builds two tables once, like VTR's
per-type availability tables: per-class prefix counts and the x of every
column of each class.  ``caps_in_rect`` is then a few subtractions and
``find_window`` one pass over the columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.device.column import Column, ColumnKind
from repro.device.resources import (
    BRAM36_PER_REGION_COLUMN,
    DSP48_PER_REGION_COLUMN,
    SLICES_PER_CLB,
    ResourceCaps,
)
from repro.utils.validation import check_positive

__all__ = ["DeviceGrid", "CLB_PER_REGION"]

#: 7-series clock regions are 50 CLBs tall.
CLB_PER_REGION = 50

#: The column classes the tables count, by the kinds each one covers.
_CLASSES: dict[str, tuple[ColumnKind, ...]] = {
    "clb": (ColumnKind.CLBLL, ColumnKind.CLBLM),
    "m": (ColumnKind.CLBLM,),
    "bram": (ColumnKind.BRAM,),
    "dsp": (ColumnKind.DSP,),
    "clock": (ColumnKind.CLOCK,),
}


@dataclass(frozen=True)
class DeviceGrid:
    """A rectangular fabric of columns.

    Parameters
    ----------
    name:
        Part name, e.g. ``"xc7z020"``.
    columns:
        Left-to-right column sequence.
    n_regions:
        Number of clock-region rows; the grid is ``50 * n_regions`` CLB rows
        tall.
    """

    name: str
    columns: tuple[Column, ...]
    n_regions: int
    _kind_cache: dict = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )
    #: ``_before[cls][x]``: class-``cls`` columns left of ``x`` (``x`` in
    #: ``0..n_cols``).
    _before: dict[str, tuple[int, ...]] = field(init=False, repr=False, compare=False)
    #: ``_xs[cls]``: x of every class-``cls`` column, left to right.
    _xs: dict[str, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_positive(self.n_regions, "n_regions")
        if not self.columns:
            raise ValueError("a device needs at least one column")
        for i, col in enumerate(self.columns):
            if col.x != i:
                raise ValueError(
                    f"column {i} has inconsistent x={col.x}; columns must be "
                    "numbered left to right"
                )
        before: dict[str, tuple[int, ...]] = {}
        xs: dict[str, tuple[int, ...]] = {}
        for cls, kinds in _CLASSES.items():
            counts = [0]
            for col in self.columns:
                counts.append(counts[-1] + (col.kind in kinds))
            before[cls] = tuple(counts)
            xs[cls] = tuple(c.x for c in self.columns if c.kind in kinds)
        object.__setattr__(self, "_before", before)
        object.__setattr__(self, "_xs", xs)

    # ------------------------------------------------------------------ geometry

    @property
    def n_cols(self) -> int:
        """Total number of columns (all kinds)."""
        return len(self.columns)

    @property
    def height_clbs(self) -> int:
        """Grid height in CLB rows."""
        return self.n_regions * CLB_PER_REGION

    @property
    def height_slices(self) -> int:
        """Height of one slice column, in slices (== CLB rows)."""
        return self.height_clbs

    def kinds(self, x0: int = 0, width: int | None = None) -> tuple[ColumnKind, ...]:
        """Column-kind pattern of the window ``[x0, x0+width)``."""
        if width is None:
            width = self.n_cols - x0
        self._check_window(x0, width)
        return tuple(c.kind for c in self.columns[x0 : x0 + width])

    def _check_window(self, x0: int, width: int) -> None:
        if x0 < 0 or width <= 0 or x0 + width > self.n_cols:
            raise ValueError(
                f"column window [{x0}, {x0 + width}) outside device "
                f"with {self.n_cols} columns"
            )

    def _check_rows(self, y0: int, height: int) -> None:
        if y0 < 0 or height <= 0 or y0 + height > self.height_clbs:
            raise ValueError(
                f"row window [{y0}, {y0 + height}) outside device "
                f"with {self.height_clbs} CLB rows"
            )

    # ------------------------------------------------------------------ capacity

    def n_columns(self, cls: str, x0: int, width: int) -> int:
        """Columns of one class in the window ``[x0, x0+width)``.

        ``cls`` is ``"clb"`` (either CLB kind), ``"m"`` (CLB-LM),
        ``"bram"``, ``"dsp"`` or ``"clock"``.
        """
        self._check_window(x0, width)
        before = self._before[cls]
        return before[x0 + width] - before[x0]

    def caps_in_rect(self, x0: int, width: int, y0: int, height: int) -> ResourceCaps:
        """Resource capacities inside a rectangle.

        BRAM/DSP counts use each column's 5-CLB site pitch; partial pitches
        round down (a site must lie fully inside the rectangle).
        """
        self._check_window(x0, width)
        self._check_rows(y0, height)
        x1 = x0 + width
        before = self._before
        clb = before["clb"][x1] - before["clb"][x0]
        m = before["m"][x1] - before["m"][x0]
        bram = before["bram"][x1] - before["bram"][x0]
        dsp = before["dsp"][x1] - before["dsp"][x0]
        return ResourceCaps.for_slices(
            clb * height * SLICES_PER_CLB,
            m * height,
            bram36=bram * (height * BRAM36_PER_REGION_COLUMN // CLB_PER_REGION),
            dsp48=dsp * (height * DSP48_PER_REGION_COLUMN // CLB_PER_REGION),
        )

    def device_caps(self) -> ResourceCaps:
        """Capacities of the full device."""
        return self.caps_in_rect(0, self.n_cols, 0, self.height_clbs)

    def crosses_region_boundary(self, y0: int, height: int) -> bool:
        """True if the row window spans more than one clock region.

        PBlocks crossing a region boundary pay a clock-skew timing penalty
        (paper §IV: compact PBlocks can avoid clock distribution columns).
        """
        self._check_rows(y0, height)
        return (y0 // CLB_PER_REGION) != ((y0 + height - 1) // CLB_PER_REGION)

    # ------------------------------------------------------------------ relocation

    def compatible_x_anchors(self, pattern: Sequence[ColumnKind]) -> list[int]:
        """All x where a block whose columns follow ``pattern`` can sit.

        A pre-implemented block can only be relocated to positions where
        every column kind matches exactly (paper §IV).  Results are cached
        per pattern because the stitcher queries the same footprints many
        times.
        """
        key = tuple(pattern)
        cached = self._kind_cache.get(key)
        if cached is not None:
            return cached
        width = len(key)
        anchors: list[int] = []
        if 0 < width <= self.n_cols:
            all_kinds = self.kinds()
            for x in range(self.n_cols - width + 1):
                if all_kinds[x : x + width] == key:
                    anchors.append(x)
        self._kind_cache[key] = anchors
        return anchors

    def find_window(
        self,
        min_clb_cols: int,
        min_m_cols: int = 0,
        min_bram_cols: int = 0,
        min_dsp_cols: int = 0,
        start_x: int = 0,
    ) -> tuple[int, int] | None:
        """Find the narrowest window from ``start_x`` satisfying column minima.

        Returns ``(x0, width)`` of the narrowest window with ``x0 >=
        start_x`` that contains at least the requested number of CLB,
        CLB-LM, BRAM and DSP columns and no clock column; among windows of
        equal width the leftmost wins.  It is not the leftmost feasible
        window: on the xc7z020, one CLB, BRAM and DSP column give
        ``(4, 4)``, not ``(0, 8)``.  Returns ``None`` if the device cannot
        satisfy the minima (or ``start_x >= n_cols``).  Used by the PBlock
        generator to snap a resource demand to the column grid.

        Raises
        ------
        ValueError
            If ``start_x`` is negative.
        """
        if start_x < 0:
            raise ValueError(f"start_x must be >= 0, got {start_x}")
        demands = [
            (self._before[cls], self._xs[cls], need)
            for cls, need in (
                ("clb", min_clb_cols),
                ("m", min_m_cols),
                ("bram", min_bram_cols),
                ("dsp", min_dsp_cols),
            )
            if need > 0
        ]
        clocks = self._before["clock"]
        best: tuple[int, int] | None = None
        for x0 in range(start_x, self.n_cols):
            # The window must reach the need-th column of every demanded
            # class at or after x0 ...
            x1 = x0
            for before, xs, need in demands:
                i = before[x0] + need - 1
                if i >= len(xs):
                    # ... and fewer remain right of x0 and every later x0.
                    return best
                if xs[i] > x1:
                    x1 = xs[i]
            # PBlocks cannot contain the clock spine.
            if clocks[x1 + 1] == clocks[x0] and (best is None or x1 - x0 + 1 < best[1]):
                best = (x0, x1 - x0 + 1)
        return best

    # ------------------------------------------------------------------ misc

    def clock_column_xs(self) -> list[int]:
        """x positions of clock spine columns."""
        return list(self._xs["clock"])

    def summary(self) -> str:
        """One-line human-readable description."""
        caps = self.device_caps()
        return (
            f"{self.name}: {self.n_cols} cols x {self.height_clbs} CLB rows, "
            f"{caps.slices} slices ({caps.m_slices} M), "
            f"{caps.bram36} BRAM36, {caps.dsp48} DSP48"
        )

    @staticmethod
    def from_kinds(name: str, kinds: Iterable[ColumnKind], n_regions: int) -> "DeviceGrid":
        """Build a grid from a simple kind sequence."""
        cols = tuple(Column(kind=k, x=i) for i, k in enumerate(kinds))
        return DeviceGrid(name=name, columns=cols, n_regions=n_regions)
