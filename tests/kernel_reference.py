"""The straightforward move kernel, kept as a test oracle.

This is the placement kernel the library ran before its primitives
moved to bitmask occupancy and its move loop was fused: numpy occupancy
slicing, per-edge Python sums, a from-scratch channel-demand recompute,
a loop-form timing cost and a per-primitive move loop over
:func:`try_place`, :func:`try_swap` and ``try_move``.  It draws from the
same uniform stream in the same order, so for a fixed seed it must give
the library's kernel's placements, costs, history and move counters bit
for bit.  Only the bookkeeping the two share (site tables, packing,
clear/restore and ``try_move``'s composition of primitives) is
inherited.

Tests reach it through :func:`reference_kernel`, which swaps it in at
``PlacementProblem.make_kernel``, the one construction seam ``stitch``
and ``evolve`` share.  The patch lives in this process only, so runs
under it must be serial.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from typing import Iterator, Sequence
from unittest import mock

import numpy as np

from repro.place_kernel import PlacementKernel, PlacementProblem, UniformBuffer
from repro.place_kernel.route_cost import RouteCostModel

__all__ = [
    "KERNELS",
    "ReferenceKernel",
    "build_kernel",
    "kernel_context",
    "reference_kernel",
    "scratch_congestion",
    "try_place",
    "try_swap",
]

#: The library's kernel and this oracle, as test parameter ids.
KERNELS = ("fast", "reference")


def scratch_congestion(k: PlacementKernel) -> tuple[np.ndarray, np.ndarray, int]:
    """From-scratch integer channel demand and total overflow of ``k``.

    The specification of the kernel's incremental overflow:
    ``(column_demand, row_demand, overflow)`` recomputed from the
    current positions.  All-integer, so it agrees with the incremental
    path exactly, not approximately.
    """
    route = k.route
    col = np.zeros(route.n_col_channels, dtype=np.int64)
    row = np.zeros(route.n_row_channels, dtype=np.int64)
    for ei, e in enumerate(k.edges):
        win = k._edge_window(ei)
        if win is None:
            continue
        c0, c1, r0, r1 = win
        w = e[2]
        if c1 >= c0:
            col[c0 : c1 + 1] += w
        if r1 >= r0:
            row[r0 : r1 + 1] += w
    cap = route.capacity
    over = int(np.maximum(col - cap, 0).sum()) + int(
        np.maximum(row - cap, 0).sum()
    )
    return col, row, over


def try_place(k: PlacementKernel, i: int, u: UniformBuffer) -> float:
    """Attempt to place unplaced instance ``i`` (always beneficial)."""
    k.place_attempts += 1
    cong_before = (
        k.route.congestion_weight * k.congestion_overflow() if k._cong else 0.0
    )
    for _ in range(8):
        site = k.random_site(i, u)
        if site is None:
            return 0.0
        x, y = site
        if k.fits(i, x, y):
            k.set_pos(i, (x, y))
            k.paint(i, x, y, +1)
            k.place_accepts += 1
            gain = k.incident_cost(i) - k.unplaced_weight * k.areas[i]
            if k._cong:
                gain += (
                    k.route.congestion_weight * k.congestion_overflow()
                    - cong_before
                )
            return gain
        k.illegal += 1
    return 0.0


def try_swap(
    k: PlacementKernel, i: int, j: int, temp: float, u: UniformBuffer
) -> float:
    """Swap two placed instances with identical footprints."""
    k.swap_attempts += 1
    pi, pj = k.pos[i], k.pos[j]
    if pi is None or pj is None or pi == pj:
        return 0.0
    before = k.incident_cost(i) + k.incident_cost(j)
    if k._cong:
        before += k.route.congestion_weight * k.congestion_overflow()
    k.set_pos(i, pj)
    k.set_pos(j, pi)
    after = k.incident_cost(i) + k.incident_cost(j)
    if k._cong:
        after += k.route.congestion_weight * k.congestion_overflow()
    delta = after - before
    if delta <= 0 or u.next() < math.exp(-delta / max(temp, 1e-9)):
        k.swap_accepts += 1
        return delta  # identical footprints: occupancy is unchanged
    k.set_pos(i, pi)
    k.set_pos(j, pj)
    return 0.0


class ReferenceKernel(PlacementKernel):
    """The original straightforward primitives and per-primitive move loop."""

    def __init__(
        self, grid, names, footprints, edges, unplaced_weight, route=None
    ) -> None:
        super().__init__(grid, names, footprints, edges, unplaced_weight, route)
        self.fps = footprints
        self.occ = np.zeros((grid.n_cols, grid.height_clbs), dtype=np.int16)
        self.heights = [self.tables[t].heights_arr for t in self.table_of]
        # Quantized timing weight per edge, and the effective (HPWL +
        # timing) weights the incident sums use; None when timing is off.
        self.tw = (
            list(route.timing_edge_weight)
            if route is not None and route.has_timing
            else None
        )
        self.effw = (
            None if self.tw is None
            else [float(e[2]) + self.tw[ei] for ei, e in enumerate(edges)]
        )

    # ------------------------------------------------------------ geometry

    def fits(self, i: int, x: int, y: int) -> bool:
        hs = self.heights[i]
        occ = self.occ
        for c in range(hs.shape[0]):
            h = hs[c]
            if h and occ[x + c, y : y + h].any():
                return False
        return True

    def paint(self, i: int, x: int, y: int, delta: int) -> None:
        hs = self.heights[i]
        for c in range(hs.shape[0]):
            h = hs[c]
            if h:
                self.occ[x + c, y : y + h] += delta

    def set_pos(self, i: int, p: tuple[int, int] | None) -> None:
        self.pos[i] = p

    def lowest_fit_y(self, i: int, x: int, bound: int | None = None) -> int | None:
        for y in range(0, self.y_max[i] + 1, self.y_step[i]):
            if bound is not None and y >= bound:
                return None
            if self.fits(i, x, y):
                return y
        return None

    def occupancy_array(self) -> np.ndarray:
        return self.occ.copy()

    # ------------------------------------------------------------ cost

    def center(self, i: int) -> tuple[float, float]:
        p = self.pos[i]
        assert p is not None
        fp = self.fps[i]
        return (p[0] + fp.width / 2.0, p[1] + fp.max_height / 2.0)

    def edge_cost(self, ei: int) -> float:
        a, b, w = self.edges[ei]
        if self.pos[a] is None or self.pos[b] is None:
            return 0.0
        ax, ay = self.center(a)
        bx, by = self.center(b)
        return w * (abs(ax - bx) + abs(ay - by))

    def incident_cost(self, i: int) -> float:
        effw = self.effw
        if effw is None:
            return sum(self.edge_cost(ei) for ei in self.incident[i])
        # Timing-aware: the same per-edge distances, weighted by the
        # effective (HPWL + quantized timing) weights.
        total = 0.0
        for ei in self.incident[i]:
            a, b, _w = self.edges[ei]
            if self.pos[a] is None or self.pos[b] is None:
                continue
            ax, ay = self.center(a)
            bx, by = self.center(b)
            total += effw[ei] * (abs(ax - bx) + abs(ay - by))
        return total

    def wirelength(self) -> float:
        return sum(self.edge_cost(ei) for ei in range(len(self.edges)))

    def congestion_overflow(self) -> int:
        return scratch_congestion(self)[2] if self._cong else 0

    def timing_cost(self) -> float:
        tw = self.tw
        if tw is None:
            return 0.0
        pos = self.pos
        hw = self.half_w
        hh = self.half_h
        total = 0.0
        for ei, (a, b, _w) in enumerate(self.edges):
            wt = tw[ei]
            if not wt:
                continue
            pa, pb = pos[a], pos[b]
            if pa is None or pb is None:
                continue
            dx = abs((pa[0] + hw[a]) - (pb[0] + hw[b]))
            dy = abs((pa[1] + hh[a]) - (pb[1] + hh[b]))
            total += wt * (dx + dy)
        return total

    # ------------------------------------------------------------ move loop

    try_place = try_place
    try_swap = try_swap

    def run_moves(
        self,
        swappable: Sequence[Sequence[int]],
        placed_list: list[int],
        unplaced_list: list[int],
        steps: int,
        temp: float,
        p_place: float,
        p_swap: float,
        u: UniformBuffer,
        cost: float,
        best: float,
    ) -> tuple[float, float, list[tuple[int, float]]]:
        """The SA move mix, one primitive call per move."""
        events: list[tuple[int, float]] = []
        p_either = p_place + p_swap
        for op in range(1, steps + 1):
            r = u.next()
            if unplaced_list and r < p_place:
                k = u.index(len(unplaced_list))
                i = unplaced_list[k]
                cost += self.try_place(i, u)
                if self.pos[i] is not None:
                    unplaced_list[k] = unplaced_list[-1]
                    unplaced_list.pop()
                    placed_list.append(i)
            elif swappable and r < p_either:
                g = swappable[u.index(len(swappable))]
                i = u.index(len(g))
                j = u.index(len(g) - 1)
                if j >= i:
                    j += 1
                cost += self.try_swap(g[i], g[j], temp, u)
            else:
                if not placed_list:
                    continue
                i = placed_list[u.index(len(placed_list))]
                cost += self.try_move(i, temp, u)
            if cost < best - 1e-9:
                best = cost
                events.append((op, best))
        return cost, best, events


def _reference_make_kernel(
    problem: PlacementProblem,
    unplaced_weight: float,
    route: RouteCostModel | None = None,
) -> ReferenceKernel:
    return ReferenceKernel(
        problem.grid,
        list(problem.names),
        list(problem.footprints),
        list(problem.edges),
        unplaced_weight,
        route,
    )


@contextmanager
def reference_kernel() -> Iterator[list[ReferenceKernel]]:
    """Run every placement in the block on :class:`ReferenceKernel`.

    Yields the list of reference kernels built inside the block.  A
    block that builds none fails, so a comparison against the oracle
    can never pass by running the library's kernel twice.
    """
    built: list[ReferenceKernel] = []

    def make(problem, unplaced_weight, route=None):
        k = _reference_make_kernel(problem, unplaced_weight, route)
        built.append(k)
        return k

    with mock.patch.object(PlacementProblem, "make_kernel", make):
        yield built
    assert built, "no placement ran on the reference kernel"


def kernel_context(kernel: str):
    """The library's kernel for ``"fast"``, :func:`reference_kernel` for
    ``"reference"``."""
    if kernel == "fast":
        return nullcontext([])
    if kernel == "reference":
        return reference_kernel()
    raise ValueError(f"unknown kernel {kernel!r}; choose from {KERNELS}")


def build_kernel(
    kernel: str,
    problem: PlacementProblem,
    unplaced_weight: float,
    route: RouteCostModel | None = None,
) -> PlacementKernel:
    """A fresh kernel of either kind over ``problem``."""
    if kernel == "fast":
        return problem.make_kernel(unplaced_weight, route)
    if kernel == "reference":
        return _reference_make_kernel(problem, unplaced_weight, route)
    raise ValueError(f"unknown kernel {kernel!r}; choose from {KERNELS}")
