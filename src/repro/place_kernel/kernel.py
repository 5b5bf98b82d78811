"""The move kernel: geometry/cost primitives and move loop of macro placement.

:class:`PlacementKernel` implements overlap probing, occupancy painting,
incremental HPWL, greedy packing and the SA move loop:

* per-column occupancy bitmasks stored as Python big-ints (an overlap
  probe is one shift+AND per column, and the greedy packer finds the
  lowest legal row with a logarithmic bit dilation instead of a row
  scan);
* per-footprint compatible-site tables shared by every instance of a
  module, and centers cached in Python lists;
* one fused move loop (:meth:`PlacementKernel.run_moves`) that inlines
  the uniform draws, site sampling, bitmask probe and cost delta of
  every move instead of calling a method per primitive.

Every random decision is drawn from one batched uniform stream (see
:class:`~repro.place_kernel.uniform.UniformBuffer`), so a fixed seed
produces identical placements, costs, history and move counters.  The
straightforward executable specification — numpy occupancy slicing,
per-edge Python sums and a per-primitive move loop — lives in the test
suite (``tests/kernel_reference.py``), and the kernel is held to it draw
for draw by ``tests/test_stitcher_equivalence.py``.  With the integer
edge widths ``BlockDesign`` produces, every HPWL term is a dyadic
rational that float64 evaluates exactly in any summation order, which is
what makes the equivalence bitwise rather than approximate.

The kernel is optimizer-agnostic: the SA stitcher
(:mod:`repro.flow.stitcher`) and the GA evolver
(:mod:`repro.flow.evolve`) both drive the same move loop and
primitives, which is what makes their costs directly comparable and
their legality guarantees shared (``tests/test_place_kernel.py``).
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.device.grid import DeviceGrid
from repro.place.shapes import Footprint
from repro.place_kernel.route_cost import RouteCostModel
from repro.place_kernel.sites import SiteTable, dilate_down, site_table
from repro.place_kernel.uniform import UniformBuffer

__all__ = ["PlacementKernel"]


class PlacementKernel:
    """State, primitives and move loop of one placement run.

    The primitives (``fits``, ``paint``, ``set_pos``, ``incident_cost``,
    ``wirelength``, ``lowest_fit_y``, ``occupancy_array``) work on
    bitmask occupancy and cached centers; :meth:`run_moves` is the SA
    move mix as one fused loop, and :meth:`try_move` the single
    relocation the GA's polish applies.
    """

    def __init__(
        self,
        grid: DeviceGrid,
        names: list[str],
        footprints: list[Footprint],
        edges: list[tuple[int, int, int]],
        unplaced_weight: float,
        route: RouteCostModel | None = None,
    ) -> None:
        self.grid = grid
        self.names = names
        self.edges = edges
        self.unplaced_weight = unplaced_weight
        self.n = len(names)
        # Per-footprint site tables, shared across same-module instances
        # *and* across kernel instances on the same grid (the process
        # cache in :func:`repro.place_kernel.sites.site_table`), so
        # restart fan-outs and ``clear()``/``restore()`` round-trips
        # never re-derive a compatible-site table.
        table_index: dict[Footprint, int] = {}
        self.tables: list[SiteTable] = []
        self.table_of: list[int] = []
        for fp in footprints:
            idx = table_index.get(fp)
            if idx is None:
                idx = len(self.tables)
                table_index[fp] = idx
                self.tables.append(site_table(grid, fp))
            self.table_of.append(idx)
        self.anchors_x = [self.tables[t].anchors_x for t in self.table_of]
        self.y_step = [self.tables[t].y_step for t in self.table_of]
        self.y_max = [self.tables[t].y_max for t in self.table_of]
        self.n_y = [self.tables[t].n_y for t in self.table_of]
        self.areas = [self.tables[t].area for t in self.table_of]
        self.masks = [self.tables[t].masks for t in self.table_of]
        # Center offsets of the trimmed footprints (HPWL, channel and
        # timing geometry all measure between these centers).
        self.half_w = [self.tables[t].half_w for t in self.table_of]
        self.half_h = [self.tables[t].half_h for t in self.table_of]
        self.pos: list[tuple[int, int] | None] = [None] * self.n
        # Incident edges per instance for O(deg) cost deltas.
        self.incident: list[list[int]] = [[] for _ in range(self.n)]
        for ei, (a, b, _w) in enumerate(edges):
            self.incident[a].append(ei)
            self.incident[b].append(ei)
        self.illegal = 0
        self.move_attempts = 0
        self.place_attempts = 0
        self.swap_attempts = 0
        self.move_accepts = 0
        self.place_accepts = 0
        self.swap_accepts = 0
        # Optional routing/timing cost terms.  With route=None (the
        # default) every code path below is byte-identical to the pure
        # HPWL kernel — the zero-weight neutrality the goldens pin.
        self.route = route
        self._cong = route is not None and route.has_congestion
        tw = (
            list(route.timing_edge_weight)
            if route is not None and route.has_timing
            else None
        )
        # Occupancy as one big-int bitmask per column: bit y set means CLB
        # row y is occupied.  fits() is then a shift+AND per column.
        self.colmask = [0] * grid.n_cols
        # What the fused move loop reads of an instance, in one tuple:
        # anchor columns and their count, row count and pitch, column
        # masks, column span (a relocation whose old and new spans are
        # disjoint probes legality without painting out) and center
        # offsets.  None for an instance with no compatible site.
        self.sites = [
            (xs, len(xs), ny, ys, m, fp.width, hw, hh)
            if xs and ymax >= 0
            else None
            for xs, ny, ys, ymax, m, fp, hw, hh in zip(
                self.anchors_x, self.n_y, self.y_step, self.y_max,
                self.masks, footprints, self.half_w, self.half_h,
            )
        ]
        # Cached centers, maintained by set_pos (stale while unplaced).
        self.cx = [0.0] * self.n
        self.cy = [0.0] * self.n
        # Flat edge endpoints for vectorized whole-design cost sums.
        self.ea = np.fromiter((e[0] for e in edges), dtype=np.intp, count=len(edges))
        self.eb = np.fromiter((e[1] for e in edges), dtype=np.intp, count=len(edges))
        self.ew = np.fromiter((e[2] for e in edges), dtype=np.float64, count=len(edges))
        # Neighbor lists (other endpoint, weight) per instance.  With the
        # timing term enabled the neighbor weights are the *effective*
        # (HPWL + quantized timing) weights, so the per-move incident
        # sums price both terms in one pass; both are dyadic, so folding
        # them keeps the sums exact.  Self-loops are left out: their
        # length is always 0.0, and a move prices its old and new center
        # against the neighbors' centers in one pass.
        self.nbrs: list[list[tuple[int, float]]] = [[] for _ in range(self.n)]
        for ei, (a, b, w) in enumerate(edges):
            if a == b:
                continue
            wc = w if tw is None else float(w) + tw[ei]
            self.nbrs[a].append((b, wc))
            self.nbrs[b].append((a, wc))
        # Timing weights as a flat array for the vectorized timing_cost.
        self._twa = np.array(tw, dtype=np.float64) if tw is not None else None
        # Incremental channel-demand state: integer demand per channel,
        # the running overflow, and the channel window each edge has
        # currently applied (so removal exactly undoes addition through
        # moves, swaps, clears and restores — O(deg) per set_pos).
        if self._cong:
            self._col_dem = np.zeros(route.n_col_channels, dtype=np.int64)
            self._row_dem = np.zeros(route.n_row_channels, dtype=np.int64)
            self._ovf = 0
            self._ewin: list[tuple[int, int, int, int] | None] = (
                [None] * len(edges)
            )

    # ------------------------------------------------------------ geometry

    def fits(self, i: int, x: int, y: int) -> bool:
        cm = self.colmask
        for c, m, _h in self.masks[i]:
            if cm[x + c] & (m << y):
                return False
        return True

    def paint(self, i: int, x: int, y: int, delta: int) -> None:
        cm = self.colmask
        if delta > 0:
            for c, m, _h in self.masks[i]:
                cm[x + c] |= m << y
        else:
            for c, m, _h in self.masks[i]:
                cm[x + c] &= ~(m << y)

    def set_pos(self, i: int, p: tuple[int, int] | None) -> None:
        self.pos[i] = p
        if p is not None:
            self.cx[i] = p[0] + self.half_w[i]
            self.cy[i] = p[1] + self.half_h[i]
        if self._cong:
            self._cong_update(i)

    def lowest_fit_y(self, i: int, x: int, bound: int | None = None) -> int | None:
        """Lowest legal anchor row for ``i`` in column ``x``.

        Rows at or above ``bound`` are rejected (the greedy packer's
        cannot-beat-the-best pruning).
        """
        t = self.tables[self.table_of[i]]
        allowed = t.allowed_mask
        if not allowed:
            return None
        bad = 0
        cm = self.colmask
        for c, _m, h in self.masks[i]:
            col = cm[x + c]
            if col:
                bad |= dilate_down(col, h)
        free = allowed & ~bad
        if not free:
            return None
        y = (free & -free).bit_length() - 1
        if bound is not None and y >= bound:
            return None
        return y

    def occupancy_array(self) -> np.ndarray:
        occ = np.zeros((self.grid.n_cols, self.grid.height_clbs), dtype=np.int16)
        for i in range(self.n):
            p = self.pos[i]
            if p is None:
                continue
            x, y = p
            for c, _m, h in self.masks[i]:
                occ[x + c, y : y + h] += 1
        return occ

    def clear(self) -> None:
        """Unplace every instance and empty the occupancy.

        The GA evolver decodes many genomes through one kernel; clearing
        reuses the site tables (the expensive part of construction)
        between decodes.
        """
        for i in range(self.n):
            p = self.pos[i]
            if p is not None:
                self.paint(i, p[0], p[1], -1)
            self.set_pos(i, None)

    def restore(self, positions: list[tuple[int, int] | None]) -> None:
        """Re-paint a snapshot of a legal placement onto an empty device.

        The GA evolver round-trips placements through position
        snapshots; restoring reuses the site tables (the expensive part
        of construction) between runs.
        """
        self.clear()
        for i, p in enumerate(positions):
            if p is not None:
                self.set_pos(i, p)
                self.paint(i, p[0], p[1], +1)

    def load_placements(
        self,
        names: Sequence[str],
        placements: Mapping[str, tuple[int, int] | None],
    ) -> None:
        """Apply a warm-start anchor mapping in instance order.

        ``None`` entries and missing names stay unplaced; an anchor
        that no longer fits (or overlaps an earlier one) leaves that
        instance unplaced rather than failing — the contract every
        warm-started optimizer shares.
        """
        for i, name in enumerate(names):
            p = placements.get(name)
            if p is None:
                continue
            x, y = p
            if self.fits(i, x, y):
                self.set_pos(i, (x, y))
                self.paint(i, x, y, +1)

    # ------------------------------------------------------------ cost

    def incident_cost(self, i: int) -> float:
        pos = self.pos
        if pos[i] is None:
            return 0.0
        cx = self.cx
        cy = self.cy
        xi = cx[i]
        yi = cy[i]
        total = 0.0
        for o, w in self.nbrs[i]:
            if pos[o] is not None:
                total += w * (abs(xi - cx[o]) + abs(yi - cy[o]))
        return total

    def _edge_lengths(self, weights: np.ndarray) -> float:
        """``sum_e weights_e * (|dx| + |dy|)`` over placed-placed edges."""
        if self.ea.size == 0:
            return 0.0
        placed = np.fromiter(
            (p is not None for p in self.pos), dtype=bool, count=self.n
        )
        cx = np.array(self.cx)
        cy = np.array(self.cy)
        ea, eb = self.ea, self.eb
        both = placed[ea] & placed[eb]
        dx = np.abs(cx[ea] - cx[eb])
        dy = np.abs(cy[ea] - cy[eb])
        return float(np.sum(np.where(both, weights * (dx + dy), 0.0)))

    def wirelength(self) -> float:
        return self._edge_lengths(self.ew)

    def total_cost(self) -> float:
        pen = self.unplaced_weight * sum(
            self.areas[i] for i in range(self.n) if self.pos[i] is None
        )
        if self.route is None:
            return self.wirelength() + pen
        return (
            self.wirelength() + pen + self.timing_cost()
            + self.congestion_cost()
        )

    # ------------------------------------------------------------ route cost

    def _edge_window(self, ei: int) -> tuple[int, int, int, int] | None:
        """Clipped channel windows ``(c0, c1, r0, r1)`` of edge ``ei``.

        ``None`` unless both endpoints are placed; either axis range may
        be empty (``c1 < c0``) for nets that cross no boundary there.
        """
        a, b, _w = self.edges[ei]
        pa, pb = self.pos[a], self.pos[b]
        if pa is None or pb is None:
            return None
        ax = pa[0] + self.half_w[a]
        bx = pb[0] + self.half_w[b]
        ay = pa[1] + self.half_h[a]
        by = pb[1] + self.half_h[b]
        if ax > bx:
            ax, bx = bx, ax
        if ay > by:
            ay, by = by, ay
        route = self.route
        c0 = max(0, math.floor(ax))
        c1 = min(route.n_col_channels - 1, math.ceil(bx) - 2)
        r0 = max(0, math.floor(ay))
        r1 = min(route.n_row_channels - 1, math.ceil(by) - 2)
        return c0, c1, r0, r1

    def _cong_apply(
        self, ei: int, win: tuple[int, int, int, int], sign: int
    ) -> None:
        """Add/remove edge ``ei``'s demand over ``win``, tracking overflow."""
        w = self.edges[ei][2] * sign
        cap = self.route.capacity
        c0, c1, r0, r1 = win
        if c1 >= c0:
            seg = self._col_dem[c0 : c1 + 1]
            over0 = int(np.maximum(seg - cap, 0).sum())
            seg += w
            self._ovf += int(np.maximum(seg - cap, 0).sum()) - over0
        if r1 >= r0:
            seg = self._row_dem[r0 : r1 + 1]
            over0 = int(np.maximum(seg - cap, 0).sum())
            seg += w
            self._ovf += int(np.maximum(seg - cap, 0).sum()) - over0

    def _cong_update(self, i: int) -> None:
        """Re-derive the applied channel windows of ``i``'s incident edges."""
        for ei in self.incident[i]:
            old = self._ewin[ei]
            if old is not None:
                self._cong_apply(ei, old, -1)
            win = self._edge_window(ei)
            self._ewin[ei] = win
            if win is not None:
                self._cong_apply(ei, win, +1)

    def congestion_overflow(self) -> int:
        """Total wires above channel capacity, summed over all channels.

        Maintained incrementally by :meth:`set_pos`; 0 when the
        congestion term is disabled.
        """
        return self._ovf if self._cong else 0

    def congestion_cost(self) -> float:
        """``congestion_weight * overflow`` (0.0 when disabled)."""
        if not self._cong:
            return 0.0
        return self.route.congestion_weight * self.congestion_overflow()

    def timing_cost(self) -> float:
        """Distance-proportional timing term (0.0 when disabled).

        ``sum_e tw_e * (|dx| + |dy|)`` over placed-placed edges with the
        quantized criticality weights — exact in any summation order.
        """
        if self._twa is None:
            return 0.0
        return self._edge_lengths(self._twa)

    # ------------------------------------------------------------ initial

    def greedy_initial(self) -> None:
        """Tallest-first best-fit packing.

        For each block, all compatible x anchors are scanned and the
        globally lowest fitting position is taken, which keeps the
        skyline level — the classic strip-packing heuristic.  Blocks are
        ordered by height, then area, so tall blocks claim full columns
        before shorter ones fragment them.
        """
        for i in self.greedy_order():
            best: tuple[int, int] | None = None
            for x in self.anchors_x[i]:
                y = self.lowest_fit_y(i, x, None if best is None else best[1])
                if y is not None and (best is None or y < best[1]):
                    best = (x, y)
            if best is not None:
                self.set_pos(i, best)
                self.paint(i, best[0], best[1], +1)

    def greedy_order(self) -> list[int]:
        """Tallest-first, then largest-area instance order (the packing
        heuristic's priority; also the GA's seeded elite permutation)."""
        return sorted(
            range(self.n),
            key=lambda i: (-self.tables[self.table_of[i]].max_height, -self.areas[i]),
        )

    def first_fit_fill(self) -> None:
        """Deterministic first-fit of any block the optimizer left
        unplaced (random place moves only sample a few sites per
        attempt)."""
        for i in range(self.n):
            if self.pos[i] is not None:
                continue
            for x in self.anchors_x[i]:
                y = self.lowest_fit_y(i, x)
                if y is not None:
                    self.set_pos(i, (x, y))
                    self.paint(i, x, y, +1)
                    break

    # ------------------------------------------------------------ moves

    def random_site(self, i: int, u: UniformBuffer) -> tuple[int, int] | None:
        xs = self.anchors_x[i]
        if not xs or self.y_max[i] < 0:
            return None
        x = xs[u.index(len(xs))]
        y = u.index(self.n_y[i]) * self.y_step[i]
        return x, y

    def try_move(self, i: int, temp: float, u: UniformBuffer) -> float:
        """Relocate instance ``i``; returns the accepted cost delta.

        ``temp`` is the Metropolis temperature; at ``temp=0.0`` the move
        is pure hill climbing (only improving relocations accepted),
        which is how the GA's polish phase applies it.
        """
        self.move_attempts += 1
        site = self.random_site(i, u)
        if site is None:
            return 0.0
        old = self.pos[i]
        assert old is not None
        self.paint(i, old[0], old[1], -1)
        x, y = site
        if not self.fits(i, x, y):
            self.paint(i, old[0], old[1], +1)
            self.illegal += 1
            return 0.0
        before = self.incident_cost(i)
        if self._cong:
            before += self.route.congestion_weight * self.congestion_overflow()
        self.set_pos(i, (x, y))
        after = self.incident_cost(i)
        if self._cong:
            after += self.route.congestion_weight * self.congestion_overflow()
        delta = after - before
        if delta <= 0 or u.next() < math.exp(-delta / max(temp, 1e-9)):
            self.paint(i, x, y, +1)
            self.move_accepts += 1
            return delta
        self.set_pos(i, old)
        self.paint(i, old[0], old[1], +1)
        return 0.0

    # ------------------------------------------------------------ move loop

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
        """Run ``steps`` operations of the shared SA move mix at ``temp``.

        This is *the* move loop every optimizer in the flow executes — the
        SA stitcher's anneal and the GA's polish/repair phase (at
        ``temp=0.0``) both call it, so their draw order and acceptance
        behavior are identical by construction.  One call consumes
        exactly ``steps`` units of the shared kernel-operation budget
        (one unit == one SA iteration == one GA budget unit).

        Each op draws the move choice, then: a *place* move (probability
        ``p_place`` while blocks are unplaced) samples up to 8 sites for
        a random unplaced block and takes the first legal one; a *swap*
        (probability ``p_swap``) exchanges two same-module blocks; any
        other op relocates a random placed block.  Uphill swaps and
        relocations pass the Metropolis test at ``temp``.

        The loop is fused: draws are read straight from the stream's
        upcoming values, a relocation prices its old and new center in
        one pass over the neighbor list, a relocation whose old and new
        column spans are disjoint probes legality without painting the
        block out and back, and a rejected move writes no state.  With
        the congestion term on, trial positions go through
        :meth:`set_pos` so the incremental overflow prices them.

        ``placed_list`` / ``unplaced_list`` are mutated in place
        (membership changes on successful place moves).  Returns
        ``(cost, best, events)`` where ``events`` lists every new best as
        a 1-based ``(op_offset, cost)`` pair within the batch.
        """
        pos = self.pos
        cx = self.cx
        cy = self.cy
        cm = self.colmask
        nbrs = self.nbrs
        sites = self.sites
        cong = self._cong
        cw = self.route.congestion_weight if cong else 0.0
        tmax = max(temp, 1e-9)
        exp = math.exp
        n_move = n_move_acc = n_swap = n_swap_acc = n_place = n_place_acc = 0
        n_illegal = 0
        events: list[tuple[int, float]] = []
        p_either = p_place + p_swap
        # Each draw is UniformBuffer.next() inlined (index(n) clamps
        # int(r * n) to n - 1); one op never takes more than
        # _MAX_DRAWS_PER_OP, so one check per op keeps them in reach.
        buf, bi = u.window(_MAX_DRAWS_PER_OP)
        nb = len(buf)
        for op in range(1, steps + 1):
            if bi + _MAX_DRAWS_PER_OP > nb:
                u.seek(bi)
                buf, bi = u.window(_MAX_DRAWS_PER_OP)
                nb = len(buf)
            r = buf[bi]
            if unplaced_list and r < p_place:
                # ------------------------------------------------- place
                nl = len(unplaced_list)
                k = int(buf[bi + 1] * nl)
                bi += 2
                if k >= nl:
                    k = nl - 1
                i = unplaced_list[k]
                n_place += 1
                site = sites[i]
                if site is not None:
                    xs, nx, ny, ys, mi, _wd, _hw, _hh = site
                    cong_before = cw * self._ovf if cong else 0.0
                    for _ in range(8):
                        kx = int(buf[bi] * nx)
                        ky = int(buf[bi + 1] * ny)
                        bi += 2
                        x = xs[nx - 1 if kx >= nx else kx]
                        y = (ny - 1 if ky >= ny else ky) * ys
                        for c, m, _h in mi:
                            if cm[x + c] & (m << y):
                                n_illegal += 1
                                break
                        else:
                            self.set_pos(i, (x, y))
                            self.paint(i, x, y, +1)
                            n_place_acc += 1
                            gain = (
                                self.incident_cost(i)
                                - self.unplaced_weight * self.areas[i]
                            )
                            if cong:
                                gain += cw * self._ovf - cong_before
                            cost += gain
                            unplaced_list[k] = unplaced_list[-1]
                            unplaced_list.pop()
                            placed_list.append(i)
                            break
            elif swappable and r < p_either:
                # -------------------------------------------------- swap
                ns = len(swappable)
                k = int(buf[bi + 1] * ns)
                g = swappable[ns - 1 if k >= ns else k]
                ng = len(g)
                a = int(buf[bi + 2] * ng)
                b = int(buf[bi + 3] * (ng - 1))
                bi += 4
                if a >= ng:
                    a = ng - 1
                if b >= ng - 1:
                    b = ng - 2
                if b >= a:
                    b += 1
                i = g[a]
                j = g[b]
                n_swap += 1
                pi = pos[i]
                pj = pos[j]
                if pi is not None and pj is not None and pi != pj:
                    # Same footprint, so the two exchange centers; the
                    # i-j distance itself is unchanged by the swap.
                    xi = cx[i]
                    yi = cy[i]
                    xj = cx[j]
                    yj = cy[j]
                    before_i = after_i = 0.0
                    for o, w in nbrs[i]:
                        if o == j:
                            t = w * (abs(xi - xj) + abs(yi - yj))
                            before_i += t
                            after_i += t
                        elif pos[o] is not None:
                            xo = cx[o]
                            yo = cy[o]
                            before_i += w * (abs(xi - xo) + abs(yi - yo))
                            after_i += w * (abs(xj - xo) + abs(yj - yo))
                    before_j = after_j = 0.0
                    for o, w in nbrs[j]:
                        if o == i:
                            t = w * (abs(xj - xi) + abs(yj - yi))
                            before_j += t
                            after_j += t
                        elif pos[o] is not None:
                            xo = cx[o]
                            yo = cy[o]
                            before_j += w * (abs(xj - xo) + abs(yj - yo))
                            after_j += w * (abs(xi - xo) + abs(yi - yo))
                    before = before_i + before_j
                    after = after_i + after_j
                    if cong:
                        before += cw * self._ovf
                        self.set_pos(i, pj)
                        self.set_pos(j, pi)
                        after += cw * self._ovf
                    delta = after - before
                    if delta <= 0:
                        accept = True
                    else:
                        accept = buf[bi] < exp(-delta / tmax)
                        bi += 1
                    if accept:
                        # Identical footprints: occupancy is unchanged.
                        n_swap_acc += 1
                        cost += delta
                        if not cong:
                            pos[i] = pj
                            pos[j] = pi
                            cx[i] = xj
                            cy[i] = yj
                            cx[j] = xi
                            cy[j] = yi
                    elif cong:
                        self.set_pos(i, pi)
                        self.set_pos(j, pj)
            else:
                # ------------------------------------------- move (relocate)
                if not placed_list:
                    bi += 1
                    continue
                nl = len(placed_list)
                k = int(buf[bi + 1] * nl)
                i = placed_list[nl - 1 if k >= nl else k]
                n_move += 1
                site = sites[i]
                if site is None:
                    bi += 2
                else:
                    xs, nx, ny, ys, mi, wd, hw, hh = site
                    kx = int(buf[bi + 2] * nx)
                    ky = int(buf[bi + 3] * ny)
                    bi += 4
                    x = xs[nx - 1 if kx >= nx else kx]
                    y = (ny - 1 if ky >= ny else ky) * ys
                    old = pos[i]
                    ox, oy = old
                    # Disjoint column spans: the block's own bits cannot
                    # collide with the probe, so it stays painted.
                    apart = x >= ox + wd or ox >= x + wd
                    if not apart:
                        for c, m, _h in mi:
                            cm[ox + c] &= ~(m << oy)
                    accept = False
                    for c, m, _h in mi:
                        if cm[x + c] & (m << y):
                            n_illegal += 1
                            break
                    else:
                        xc = cx[i]
                        yc = cy[i]
                        nxc = x + hw
                        nyc = y + hh
                        before = after = 0.0
                        for o, w in nbrs[i]:
                            if pos[o] is not None:
                                xo = cx[o]
                                yo = cy[o]
                                before += w * (abs(xc - xo) + abs(yc - yo))
                                after += w * (abs(nxc - xo) + abs(nyc - yo))
                        if cong:
                            before += cw * self._ovf
                            self.set_pos(i, (x, y))
                            after += cw * self._ovf
                        delta = after - before
                        if delta <= 0:
                            accept = True
                        else:
                            accept = buf[bi] < exp(-delta / tmax)
                            bi += 1
                        if accept:
                            n_move_acc += 1
                            cost += delta
                            if not cong:
                                pos[i] = (x, y)
                                cx[i] = nxc
                                cy[i] = nyc
                            if apart:
                                for c, m, _h in mi:
                                    cm[ox + c] &= ~(m << oy)
                            for c, m, _h in mi:
                                cm[x + c] |= m << y
                        elif cong:
                            self.set_pos(i, old)
                    if not accept and not apart:
                        for c, m, _h in mi:
                            cm[ox + c] |= m << oy
            if cost < best - 1e-9:
                best = cost
                events.append((op, best))
        u.seek(bi)
        self.move_attempts += n_move
        self.move_accepts += n_move_acc
        self.swap_attempts += n_swap
        self.swap_accepts += n_swap_acc
        self.place_attempts += n_place
        self.place_accepts += n_place_acc
        self.illegal += n_illegal
        return cost, best, events


#: Most uniform draws one move-loop operation takes: a place move reads
#: the move choice, the instance and 8 (column, row) site samples.
_MAX_DRAWS_PER_OP = 2 + 8 * 2
