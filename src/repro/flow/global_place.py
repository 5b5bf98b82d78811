"""Analytic global placement: gradient HPWL descent plus legalization.

:func:`global_place` casts macro placement as continuous optimization
over module "cluster boxes" — the DREAMPlaceFPGA-MP recipe at this
repo's scale, following the ``eval_f`` / ``eval_grad_f`` /
``line_search`` / ``legalize_box`` structure of cgra_pnr's thunder
``GlobalPlacer``:

* **Smooth wirelength** — every inter-block edge is 2-pin, so HPWL is
  ``w * (|dx| + |dy|)`` over box centers; the log-sum-exp smoothing
  ``sabs(d) = gamma * log(exp(d/gamma) + exp(-d/gamma))`` makes it
  differentiable with gradient ``w * tanh(d / gamma)``.
* **Column-aware density** — demand is binned into (device column x
  row band) cells by exact box/cell overlap; each cell's capacity
  comes from :func:`repro.place_kernel.sites.column_capacities`
  (clock-spine columns hold zero), and the penalty is the squared
  overflow ``0.5 * sum(max(0, demand - capacity)^2)``, whose gradient
  pushes boxes out of overfull cells.
* **Backtracking line search** — fixed-iteration gradient descent on
  ``f_wl + lambda_t * f_den`` with Armijo backtracking and a
  geometrically ramped density weight; the density scale is
  auto-balanced against the wirelength gradient at iteration 0, so
  one parameter set serves small fixtures and the cnvW1A1 design
  alike.
* **Legalize-to-column snap** — instances walk the greedy
  tallest-first order; each snaps to the compatible anchor column
  nearest its continuous x and the legal anchor row nearest its
  continuous y, through the move kernels' shared compatible-site
  tables (:meth:`~repro.place_kernel.kernel.PlacementKernel.nearest_fit_y`).
  Leftovers fall to the deterministic first-fit fill.

Budget contract: gradient steps and legalization snaps are *uncharged*
— ``result.iterations`` is 0 and no kernel move counters advance — so
a gp-warm-started anneal's kernel-op spend is exactly its own
``max_iters``.  Determinism: fixed iteration counts (no wall-clock
stopping), a single seeded jitter draw via
:func:`repro.utils.rng.stream`, and pure single-threaded numpy, so
results are bitwise identical across processes and worker counts and
on both move kernels (``tests/test_golden_costs.py`` pins them on
each).

The three phase spans ``gplace.init`` / ``gplace.descent`` /
``gplace.legalize`` tile the ``gplace`` root span, exactly like the
stitcher's phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.device.grid import DeviceGrid
from repro.flow.blockdesign import BlockDesign
from repro.obs.tracer import NullTracer, Tracer, current_tracer
from repro.place.shapes import Footprint
from repro.place_kernel.kernel import KERNELS
from repro.place_kernel.problem import PlacementProblem
from repro.place_kernel.result import StitchResult, StitchStats, converge_history
from repro.place_kernel.route_cost import build_route_model
from repro.place_kernel.sites import column_capacities
from repro.utils.rng import stream

__all__ = ["GPParams", "global_place"]


@dataclass(frozen=True)
class GPParams:
    """Analytic global-placement schedule and objective weights."""

    #: Fixed gradient-descent iteration count (the determinism contract
    #: forbids wall-clock stopping; DET003).
    n_iters: int = 100
    #: Log-sum-exp smoothing width of ``|d|`` in grid units; smaller is
    #: closer to true HPWL but stiffer.
    gamma: float = 2.0
    #: Final density-penalty multiplier (on top of the auto-balanced
    #: base scale); the weight ramps geometrically from 1/25 of this.
    density_weight: float = 4.0
    #: Vertical density bins; cells are (one column) x (height/bands).
    n_bands: int = 10
    #: Target fill fraction per density cell (< 1 leaves legalization
    #: slack).
    target_fill: float = 0.9
    #: Armijo backtracking halvings per line search before the step is
    #: skipped.
    backtracks: int = 12
    #: Armijo sufficient-decrease constant.
    armijo: float = 1e-4
    #: Uniform jitter amplitude (grid units) breaking the symmetry of
    #: the all-at-centroid start; one seeded vectorized draw.
    jitter: float = 0.5
    #: Cost charged per CLB of unplaced block area (same objective as
    #: ``SAParams.unplaced_weight`` — required for comparable costs).
    unplaced_weight: float = 40.0
    seed: int = 0
    #: Weight of the channel-overflow congestion cost term.  The descent
    #: itself stays pure HPWL + density; a nonzero weight makes the
    #: reported ``final_cost`` comparable to a congestion-aware anneal's
    #: (and a gp-warm-started anneal then optimizes the full objective).
    congestion_weight: float = 0.0
    #: Weight of the block-level critical-path cost term (same role).
    timing_weight: float = 0.0


def global_place(
    design: BlockDesign,
    footprints: dict[str, Footprint],
    grid: DeviceGrid,
    params: GPParams | None = None,
    *,
    kernel: str = "fast",
    module_delays: Mapping[str, float] | None = None,
    tracer: Tracer | NullTracer | None = None,
) -> StitchResult:
    """Analytically place all instances of ``design`` on ``grid``.

    Parameters
    ----------
    design, footprints, grid:
        As for :func:`~repro.flow.stitcher.stitch`.
    params:
        Descent schedule and objective weights.
    kernel:
        Move kernel used for the legalization snap (``"fast"`` or
        ``"reference"``); bitwise-identical results on either.
    tracer:
        Where the run's ``gplace`` span tree is recorded; defaults to
        the ambient tracer, with a private throwaway tracer when that
        is disabled so :class:`StitchStats` timings cost the same
        either way.

    Returns
    -------
    StitchResult
        A legal placement in the shared result shape.  ``iterations``
        is 0: gradient steps and legalization snaps are uncharged
        against the kernel-op budget (only a polishing anneal's moves
        count), which is what lets a gp warm start undercut a cold
        anneal's budget.
    """
    params = params or GPParams()
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; choose from {KERNELS}")
    if params.n_iters < 0:
        raise ValueError(f"n_iters must be >= 0, got {params.n_iters}")
    if params.gamma <= 0.0:
        raise ValueError(f"gamma must be > 0, got {params.gamma}")
    if params.n_bands < 1:
        raise ValueError(f"n_bands must be >= 1, got {params.n_bands}")
    ambient = tracer if tracer is not None else current_tracer()
    tr = ambient if ambient.enabled else Tracer()

    # The three phase spans tile the root span (every statement between
    # root entry and exit lives inside exactly one phase), mirroring the
    # stitcher's contract so trace summaries compare directly.
    with tr.span("gplace", kernel=kernel, seed=params.seed) as sp_root:
        with tr.span("gplace.init") as sp_init:
            problem = PlacementProblem.from_design(design, footprints, grid)
            names = problem.names
            route = build_route_model(
                problem,
                congestion_weight=params.congestion_weight,
                timing_weight=params.timing_weight,
                module_delays=module_delays,
            )
            st = problem.make_kernel(kernel, params.unplaced_weight, route)
            n = st.n
            height = float(grid.height_clbs)

            # Movable boxes: instances with at least one compatible site.
            movable = np.array(
                [bool(st.anchors_x[i]) and st.y_max[i] >= 0 for i in range(n)],
                dtype=bool,
            )
            half_w = np.array(
                [st.tables[st.table_of[i]].half_w for i in range(n)]
            )
            half_h = np.array(
                [st.tables[st.table_of[i]].half_h for i in range(n)]
            )
            # Continuous center bounds from the compatible anchor span.
            cx_lo = np.zeros(n)
            cx_hi = np.zeros(n)
            cy_lo = np.zeros(n)
            cy_hi = np.zeros(n)
            for i in range(n):
                if not movable[i]:
                    continue
                xs = st.anchors_x[i]
                cx_lo[i] = xs[0] + half_w[i]
                cx_hi[i] = xs[-1] + half_w[i]
                cy_lo[i] = half_h[i]
                cy_hi[i] = st.y_max[i] + half_h[i]

            # Edges with both endpoints movable drive the descent.
            edges = [
                (a, b, w)
                for a, b, w in problem.edges
                if movable[a] and movable[b]
            ]
            ea = np.fromiter((e[0] for e in edges), dtype=np.intp,
                             count=len(edges))
            eb = np.fromiter((e[1] for e in edges), dtype=np.intp,
                             count=len(edges))
            ew = np.fromiter((e[2] for e in edges), dtype=np.float64,
                             count=len(edges))

            # Density grid: device columns x row bands; capacities from
            # the shared per-column helper, scaled to the band height.
            col_caps = column_capacities(grid)
            band_h = height / params.n_bands
            cell_cap = params.target_fill * np.outer(
                col_caps / params.n_bands, np.ones(params.n_bands)
            )
            widths = 2.0 * half_w
            heights = 2.0 * half_h
            areas = np.array(st.areas, dtype=np.float64)
            sp_init.incr("n_instances", n)
            sp_init.incr("n_movable", int(movable.sum()))
            sp_init.incr("n_edges", len(edges))
            fill = float(areas[movable].sum()) / max(1.0, float(col_caps.sum()))
            sp_init.set_attr("device_fill", round(fill, 4))

            # Start at the anchor-span centroid with a seeded symmetry-
            # breaking jitter (one vectorized draw; fixed consumption).
            rng = stream(params.seed, "gplace", "init")
            jit = rng.uniform(-params.jitter, params.jitter, size=(2, n))
            cx = np.clip((cx_lo + cx_hi) / 2.0 + jit[0], cx_lo, cx_hi)
            cy = np.clip((cy_lo + cy_hi) / 2.0 + jit[1], cy_lo, cy_hi)
            cx[~movable] = 0.0
            cy[~movable] = 0.0

        with tr.span("gplace.descent") as sp_desc:
            mov = movable
            gamma = params.gamma
            cols = np.arange(grid.n_cols, dtype=np.float64)
            bands = np.arange(params.n_bands, dtype=np.float64)

            def wl_terms(px: np.ndarray, py: np.ndarray):
                """Smooth HPWL value and per-edge center deltas."""
                if ea.size == 0:
                    return 0.0, None, None
                dx = px[ea] - px[eb]
                dy = py[ea] - py[eb]
                sabs = gamma * (
                    np.logaddexp(dx / gamma, -dx / gamma)
                    + np.logaddexp(dy / gamma, -dy / gamma)
                )
                return float(np.sum(ew * sabs)), dx, dy

            def overlaps(px: np.ndarray, py: np.ndarray):
                """Exact box/cell overlap fractions (n x cols, n x bands)."""
                left = px - half_w
                right = px + half_w
                xov = np.clip(
                    np.minimum(right[:, None], cols[None, :] + 1.0)
                    - np.maximum(left[:, None], cols[None, :]),
                    0.0, None,
                )
                bot = py - half_h
                top = py + half_h
                yov = np.clip(
                    np.minimum(top[:, None], (bands[None, :] + 1.0) * band_h)
                    - np.maximum(bot[:, None], bands[None, :] * band_h),
                    0.0, None,
                )
                xov[~mov] = 0.0
                yov[~mov] = 0.0
                return xov, yov

            def den_value(px: np.ndarray, py: np.ndarray) -> float:
                xov, yov = overlaps(px, py)
                overflow = np.clip(xov.T @ yov - cell_cap, 0.0, None)
                return 0.5 * float(np.sum(overflow * overflow))

            def objective(px: np.ndarray, py: np.ndarray, lam: float) -> float:
                wl, _dx, _dy = wl_terms(px, py)
                return wl + lam * den_value(px, py)

            def gradients(px: np.ndarray, py: np.ndarray, lam: float):
                gx = np.zeros(n)
                gy = np.zeros(n)
                wl, dx, dy = wl_terms(px, py)
                if dx is not None:
                    tx = ew * np.tanh(dx / gamma)
                    ty = ew * np.tanh(dy / gamma)
                    np.add.at(gx, ea, tx)
                    np.add.at(gx, eb, -tx)
                    np.add.at(gy, ea, ty)
                    np.add.at(gy, eb, -ty)
                xov, yov = overlaps(px, py)
                overflow = np.clip(xov.T @ yov - cell_cap, 0.0, None)
                f_den = 0.5 * float(np.sum(overflow * overflow))
                if lam > 0.0 and f_den > 0.0:
                    # d(xov)/d(cx) is +-1 where the box edge lies inside
                    # the cell; interior fully-covered cells contribute 0.
                    left = px - half_w
                    right = px + half_w
                    live_x = xov > 0.0
                    dxov = (
                        (right[:, None] < cols[None, :] + 1.0).astype(float)
                        - (left[:, None] > cols[None, :]).astype(float)
                    ) * live_x
                    bot = py - half_h
                    top = py + half_h
                    live_y = yov > 0.0
                    dyov = (
                        (top[:, None] < (bands[None, :] + 1.0) * band_h)
                        .astype(float)
                        - (bot[:, None] > bands[None, :] * band_h)
                        .astype(float)
                    ) * live_y
                    gx += lam * np.einsum(
                        "ic,cb,ib->i", dxov, overflow, yov
                    )
                    gy += lam * np.einsum(
                        "ic,cb,ib->i", xov, overflow, dyov
                    )
                gx[~mov] = 0.0
                gy[~mov] = 0.0
                return wl + lam * f_den, gx, gy

            # Auto-balance the density scale against the wirelength
            # gradient at the start (DREAMPlace's weight initialization),
            # then ramp it geometrically: early iterations untangle
            # wirelength, late iterations resolve overlap.
            _f0, gx_wl, gy_wl = gradients(cx, cy, 0.0)
            xov0, yov0 = overlaps(cx, cy)
            ov0 = np.clip(xov0.T @ yov0 - cell_cap, 0.0, None)
            gd0 = np.einsum("ic,cb,ib->i", np.sign(xov0), ov0, yov0)
            wl_norm = float(np.abs(gx_wl).sum() + np.abs(gy_wl).sum())
            den_norm = float(np.abs(gd0).sum())
            lam_base = params.density_weight * (
                (wl_norm + 1.0) / (den_norm + 1.0)
            )
            span = float(grid.n_cols) + height
            step = 0.0
            traj: list[tuple[int, float]] = []
            for t in range(params.n_iters):
                ramp = 25.0 ** (
                    (t + 1) / params.n_iters - 1.0
                )  # 1/25 -> 1 geometric
                lam = lam_base * ramp
                f, gx, gy = gradients(cx, cy, lam)
                gnorm2 = float(gx @ gx + gy @ gy)
                if gnorm2 <= 1e-18:
                    traj.append((t, f))
                    continue
                gmax = max(float(np.max(np.abs(gx))),
                           float(np.max(np.abs(gy))))
                # First step moves the steepest box ~5% of the device
                # span; later searches start from twice the last
                # accepted step (classic grow/backtrack).
                cap = 0.05 * span / max(gmax, 1e-12)
                alpha = min(cap, step * 2.0) if step > 0.0 else cap
                accepted = False
                for _k in range(params.backtracks):
                    nx = np.clip(cx - alpha * gx, cx_lo, cx_hi)
                    ny = np.clip(cy - alpha * gy, cy_lo, cy_hi)
                    if objective(nx, ny, lam) <= f - params.armijo * alpha * gnorm2:
                        accepted = True
                        break
                    alpha *= 0.5
                if accepted:
                    cx, cy = nx, ny
                    step = alpha
                traj.append((t, f))
            sp_desc.incr("gd_iters", params.n_iters)
            if traj:
                sp_desc.set_attr("f_initial", round(traj[0][1], 3))
                sp_desc.set_attr("f_final", round(traj[-1][1], 3))

        with tr.span("gplace.legalize") as sp_leg:
            # Snap in the greedy tallest-first order so big blocks claim
            # space before small ones fragment it; each instance takes
            # the compatible column nearest its continuous x (ties
            # toward the left) and the legal row nearest its continuous
            # y.  Snaps are uncharged: no kernel move counters advance.
            n_snapped = 0
            for i in st.greedy_order():
                if not movable[i]:
                    continue
                xs = st.anchors_x[i]
                tx = cx[i] - half_w[i]
                ty = int(round(cy[i] - half_h[i]))
                for x in sorted(xs, key=lambda a: (abs(a - tx), a)):
                    y = st.nearest_fit_y(i, x, ty)
                    if y is not None:
                        st.set_pos(i, (x, y))
                        st.paint(i, x, y, +1)
                        n_snapped += 1
                        break
            st.first_fit_fill()
            wirelength = st.wirelength()
            final_cost = st.total_cost()
            congestion_cost = st.congestion_cost()
            timing_cost = st.timing_cost()
            occupancy = st.occupancy_array()
            placements = {names[i]: st.pos[i] for i in range(n)}
            n_placed = sum(1 for p in st.pos if p is not None)
            history, converged_at = converge_history(
                [(0, final_cost)], final_cost, 0
            )
            sp_leg.incr("n_snapped", n_snapped)
            sp_leg.incr("n_placed", n_placed)

        sp_root.set_attr("n_placed", n_placed)
        sp_root.set_attr("n_unplaced", n - n_placed)
        sp_root.set_attr("final_cost", final_cost)
        if route is not None:
            sp_root.set_attr("cost.congestion", congestion_cost)
            sp_root.set_attr("cost.timing", timing_cost)

    stats = StitchStats(
        kernel=kernel,
        seed=params.seed,
        setup_s=0.0,
        initial_s=sp_init.dur_s,
        anneal_s=sp_desc.dur_s,
        fill_s=sp_leg.dur_s,
        move_attempts=0,
        place_attempts=0,
        swap_attempts=0,
        move_accepts=0,
        place_accepts=0,
        swap_accepts=0,
        illegal_moves=0,
        # The descent trajectory rides the trace slot the SA schedule
        # uses: (iteration, smooth objective) per gradient step.
        temperature_trace=tuple(traj),
        phase_names=("", "init", "descent", "legalize"),
    )
    return StitchResult(
        placements=placements,
        n_placed=n_placed,
        n_unplaced=n - n_placed,
        wirelength=wirelength,
        final_cost=final_cost,
        iterations=0,
        converged_at=converged_at,
        illegal_moves=0,
        history=history,
        occupancy=occupancy,
        stats=stats,
        congestion_cost=congestion_cost,
        timing_cost=timing_cost,
    )
