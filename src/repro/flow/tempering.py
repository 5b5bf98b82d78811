"""Cooperative parallel tempering over the shared placement kernel.

:func:`temper` runs N simulated-annealing chains at staggered
temperatures over the same move kernel the SA stitcher and the GA
evolver drive (:mod:`repro.place_kernel`), exchanging configurations
between adjacent-temperature replicas on a deterministic round-based
schedule — the multicore-SA design of cgra_pnr's thunder engine, recast
onto this repo's determinism contract.  Cold chains refine, hot chains
explore, and two cooperation channels connect them:

* **Replica exchange** — every :attr:`PTParams.swap_period` rounds,
  adjacent-temperature pairs may swap placements under the classic
  Metropolis exchange criterion
  ``A = min(1, exp((1/T_cold - 1/T_hot) * (E_cold - E_hot)))``;
  the considered pair parity (``0-1, 2-3, ...`` vs ``1-2, 3-4, ...``)
  alternates per exchange event, so configurations can random-walk up
  and down the whole temperature ladder.
* **Best migration** — every :attr:`PTParams.migrate_every` exchange
  events the globally best placement seen so far replaces the hottest
  chain's state, re-heating the elite solution (thunder-style
  cooperation between annealing cores).

Determinism: *rounds are the synchronization unit*.  Chain ``k`` draws
its moves from a dedicated
:class:`~repro.place_kernel.uniform.UniformBuffer` seeded by
``stream(seed, "tempering", "chain", k)``; every exchange decision
draws from one dedicated exchange stream in fixed pair order — one
draw per considered pair, accepted or not — and never from worker
timing.  Chain segments are dispatched through
:class:`~repro.flow.fanout.FanOut` and merged in deterministic global
operation order, so the returned
:class:`~repro.place_kernel.result.StitchResult` is bitwise identical
for any ``n_workers`` (``tests/test_tempering.py``,
``tests/test_determinism_cross_process.py``).

Budget contract: the chains together execute exactly
``PTParams.max_iters`` kernel move operations (the round plan deals
``steps_per_round`` ops to each chain round-robin until the budget is
spent), so ``temper(max_iters=N)``, ``stitch(max_iters=N)`` and
``evolve(move_budget=N)`` spend the same number of kernel operations
and their costs are directly comparable — the equal-budget contract
the perf-smoke gate (``benchmarks/test_perf_tempering.py``) compares
tempering against SA restarts (:func:`~repro.flow.restarts.best_of`) under.
Like the SA stitcher's greedy initial and deterministic fill, exchange
bookkeeping (config swaps, migration repaints) is not charged against
the move budget.

Within one run the global best is tracked by *cost* — all chains score
the one shared objective (wirelength + unplaced penalty), exactly like
the SA stitcher's ``best`` and the GA's ``best_fit``.  Selection
*across* runs (:func:`~repro.flow.restarts.best_of`, the DSE portfolio)
uses the shared pareto key ``(n_unplaced, final_cost)`` from
:func:`~repro.place_kernel.result.pareto_key`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.device.grid import DeviceGrid
from repro.flow.blockdesign import BlockDesign
from repro.flow.fanout import FanOut
from repro.obs.tracer import NullTracer, Tracer, current_tracer
from repro.place.shapes import Footprint
from repro.place_kernel.kernel import KERNELS, PlacementKernel, run_move_batch
from repro.place_kernel.problem import PlacementProblem
from repro.place_kernel.result import StitchResult, StitchStats, converge_history
from repro.place_kernel.route_cost import build_route_model
from repro.place_kernel.uniform import UniformBuffer
from repro.utils.rng import stream

__all__ = ["PTParams", "temper"]


@dataclass(frozen=True)
class PTParams:
    """Parallel-tempering schedule, ladder and move mix."""

    #: Total kernel-operation budget across *all* chains (one unit = one
    #: SA iteration = one GA budget unit).
    max_iters: int = 60000
    #: Number of replica chains on the temperature ladder.
    n_chains: int = 4
    #: Kernel operations each chain runs per round (the synchronization
    #: quantum; exchange can only happen on round boundaries).
    steps_per_round: int = 250
    #: Rounds between exchange events.
    swap_period: int = 4
    #: Exchange events between migrations of the global best placement
    #: into the hottest chain (0 disables migration).
    migrate_every: int = 2
    #: Temperature ratio between adjacent chains (chain 0 is coldest;
    #: chain k starts at ``T_base * hot_ratio**k``).
    hot_ratio: float = 1.7
    #: Per-round geometric decay of the whole ladder (the coldest chain
    #: cools like a plain SA stitcher with ``steps_per_temp`` ==
    #: ``steps_per_round``).
    alpha: float = 0.95
    #: Cost charged per CLB of unplaced block area (same objective as
    #: ``SAParams.unplaced_weight`` — required for comparable costs).
    unplaced_weight: float = 40.0
    #: Probability of attempting to place an unplaced block per move.
    p_place: float = 0.15
    #: Probability of a same-module swap per move.
    p_swap: float = 0.15
    seed: int = 0
    #: Weight of the channel-overflow congestion cost term (0.0 = off).
    congestion_weight: float = 0.0
    #: Weight of the block-level critical-path cost term (0.0 = off).
    timing_weight: float = 0.0


class _ChainState:
    """One replica's placement, cost and private move stream.

    Plain attributes only, so the state pickles across the FanOut
    boundary; exchange swaps ``pos``/``cost`` between ladder slots while
    each slot keeps its own stream (chain identity follows the
    temperature, not the configuration).
    """

    __slots__ = ("pos", "cost", "u")

    def __init__(
        self,
        pos: list[tuple[int, int] | None],
        cost: float,
        u: UniformBuffer,
    ) -> None:
        self.pos = pos
        self.cost = cost
        self.u = u


#: Per-process kernel context, built once by the FanOut initializer and
#: reused across every round batch (the initializer runs before any task
#: is dispatched, so tasks only ever read this).
_WORKER: dict[str, object] = {}


def _build_kernel(
    design: BlockDesign,
    footprints: dict[str, Footprint],
    grid: DeviceGrid,
    kernel: str,
    unplaced_weight: float,
    congestion_weight: float = 0.0,
    timing_weight: float = 0.0,
    module_delays: Mapping[str, float] | None = None,
) -> tuple[PlacementKernel, tuple[tuple[int, ...], ...], int]:
    problem = PlacementProblem.from_design(design, footprints, grid)
    # Rebuilt identically in every process: build_route_model is a pure
    # function of the problem and the weights, so each worker scores the
    # same objective bit-for-bit.
    route = build_route_model(
        problem,
        congestion_weight=congestion_weight,
        timing_weight=timing_weight,
        module_delays=module_delays,
    )
    st = problem.make_kernel(kernel, unplaced_weight, route)
    return st, problem.swappable, len(problem.edges)


def _init_worker(
    design: BlockDesign,
    footprints: dict[str, Footprint],
    grid: DeviceGrid,
    kernel: str,
    unplaced_weight: float,
    congestion_weight: float = 0.0,
    timing_weight: float = 0.0,
    module_delays: Mapping[str, float] | None = None,
) -> None:
    """FanOut initializer: build this process's kernel exactly once."""
    _WORKER["ctx"] = _build_kernel(
        design, footprints, grid, kernel, unplaced_weight,
        congestion_weight, timing_weight, module_delays,
    )


_COUNTER_FIELDS = (
    "move_attempts",
    "place_attempts",
    "swap_attempts",
    "move_accepts",
    "place_accepts",
    "swap_accepts",
    "illegal",
)


def _counters(st: PlacementKernel) -> tuple[int, ...]:
    return tuple(getattr(st, f) for f in _COUNTER_FIELDS)


def _chain_task(
    args: tuple[_ChainState, list[tuple[int, float]], float, float],
) -> tuple[_ChainState, float, list | None, list[tuple[int, float]], tuple[int, ...]]:
    """Advance one chain through the rounds of an exchange block.

    Restores the chain's placement into the per-process kernel, runs the
    planned ``(steps, temp)`` rounds through the shared batch runner,
    and returns the updated chain plus everything the parent merges at
    the block barrier: the block-best cost, the block-best placement
    snapshot, per-round best events and the move-counter deltas.  A pure
    function of its arguments (plus the per-process kernel), so serial
    and pooled execution are bitwise identical.
    """
    state, specs, p_place, p_swap = args
    st, swappable, _n_edges = _WORKER["ctx"]  # type: ignore[misc]
    if not any(steps for steps, _temp in specs):
        return state, state.cost, None, [], (0,) * len(_COUNTER_FIELDS)
    st.restore(state.pos)
    cost = st.total_cost()
    placed_list = [i for i in range(st.n) if st.pos[i] is not None]
    unplaced_list = [i for i in range(st.n) if st.pos[i] is None]
    before = _counters(st)
    best = cost
    snap: list = []
    events: list[tuple[int, float]] = []
    for r, (steps, temp) in enumerate(specs):
        if steps <= 0:
            continue
        cost, new_best, _batch = run_move_batch(
            st, swappable, placed_list, unplaced_list,
            steps, temp, p_place, p_swap, state.u, cost, best,
            snapshot=snap,
        )
        if new_best < best:
            best = new_best
            events.append((r, best))
    state.pos = list(st.pos)
    state.cost = cost
    after = _counters(st)
    delta = tuple(a - b for a, b in zip(after, before))
    best_pos = snap[0] if snap else None
    return state, best, best_pos, events, delta


def _round_plan(
    max_iters: int, n_chains: int, steps_per_round: int
) -> list[list[int]]:
    """Deal the move budget into per-round, per-chain step counts.

    Chains are served round-robin in ladder order with up to
    ``steps_per_round`` ops each; the final round truncates so the grand
    total is exactly ``max_iters``.
    """
    rows: list[list[int]] = []
    remaining = max_iters
    while remaining > 0:
        row = []
        for _k in range(n_chains):
            take = min(steps_per_round, remaining)
            row.append(take)
            remaining -= take
        rows.append(row)
    return rows


def temper(
    design: BlockDesign,
    footprints: dict[str, Footprint],
    grid: DeviceGrid,
    params: PTParams | None = None,
    *,
    kernel: str = "fast",
    n_workers: int | None = None,
    initial_placements: Mapping[str, tuple[int, int] | None] | None = None,
    module_delays: Mapping[str, float] | None = None,
    tracer: Tracer | NullTracer | None = None,
) -> StitchResult:
    """Place all instances of ``design`` with cooperative replica exchange.

    Parameters
    ----------
    design, footprints, grid:
        As for :func:`~repro.flow.stitcher.stitch`.
    params:
        Ladder, schedule and move-mix configuration;
        ``params.max_iters`` is the SA-comparable total kernel-operation
        budget across all chains.
    kernel:
        Move-kernel choice (``"fast"`` or ``"reference"``); identical
        results on either for a fixed seed.
    initial_placements:
        Optional warm start every chain begins from (same contract as
        :func:`~repro.flow.stitcher.stitch`: anchors apply in instance
        order, non-fitting anchors stay unplaced).  Without it the
        ladder starts from the greedy tallest-first packing.
    module_delays:
        Per-module delays (ns) seeding the timing cost term; ignored
        unless ``params.timing_weight`` is nonzero.  Shipped to every
        worker so all chains score the identical objective.
    n_workers:
        Worker processes to fan the chains over per exchange block.
        ``None``, 0 or 1 runs serially in-process; the result is
        bitwise identical for any value (rounds are the synchronization
        unit, and chain segments merge in deterministic operation
        order, never completion order).
    tracer:
        Where the run's ``tempering`` span tree is recorded
        (``tempering.init`` / ``tempering.rounds`` /
        ``tempering.exchange`` — the three phase names tile the run);
        defaults to the ambient tracer, with a private throwaway tracer
        when that is disabled so :class:`StitchStats` timings cost the
        same either way.

    Returns
    -------
    StitchResult
        The same result shape the SA stitcher returns, extracted from
        the globally best placement any chain ever reached (plus the
        deterministic first-fit fill).  ``result.iterations`` equals
        ``params.max_iters``; ``result.stats.temperature_trace`` holds
        the coldest chain's per-round ``(ops_done, temperature)``.
    """
    params = params or PTParams()
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; choose from {KERNELS}")
    if params.max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {params.max_iters}")
    if params.n_chains < 1:
        raise ValueError(f"n_chains must be >= 1, got {params.n_chains}")
    if params.steps_per_round < 1:
        raise ValueError(
            f"steps_per_round must be >= 1, got {params.steps_per_round}"
        )
    if params.swap_period < 1:
        raise ValueError(f"swap_period must be >= 1, got {params.swap_period}")
    if params.migrate_every < 0:
        raise ValueError(
            f"migrate_every must be >= 0, got {params.migrate_every}"
        )
    if params.hot_ratio <= 0.0:
        raise ValueError(f"hot_ratio must be > 0, got {params.hot_ratio}")
    ambient = tracer if tracer is not None else current_tracer()
    tr = ambient if ambient.enabled else Tracer()

    n_chains = params.n_chains
    rounds_s = 0.0
    exchange_s = 0.0

    # The three phase names tile the root span: everything between root
    # entry and exit lives inside an init, rounds or exchange span
    # (finalization — restoring the winner, the fill and the result
    # extraction — is the terminal exchange event), so the phase
    # durations sum to the run's wall time
    # (tests/test_tempering.py::test_phase_timings_tile_wall_time).
    with tr.span(
        "tempering",
        kernel=kernel,
        seed=params.seed,
        n_chains=n_chains,
        max_iters=params.max_iters,
    ) as sp_root:
        fan: FanOut | None = None
        try:
            with tr.span("tempering.init") as sp_init:
                delays = dict(module_delays) if module_delays else None
                fan = FanOut(
                    n_workers,
                    n_chains,
                    initializer=_init_worker,
                    initargs=(
                        design, footprints, grid, kernel,
                        params.unplaced_weight,
                        params.congestion_weight, params.timing_weight,
                        delays,
                    ),
                )
                if fan.pooled:
                    st, swappable, n_edges = _build_kernel(
                        design, footprints, grid, kernel,
                        params.unplaced_weight,
                        params.congestion_weight, params.timing_weight,
                        delays,
                    )
                else:
                    # Serial: the parent shares the single in-process
                    # kernel with the chain tasks.
                    fan.prepare()
                    st, swappable, n_edges = _WORKER["ctx"]  # type: ignore[misc]
                names = st.names
                if initial_placements is None:
                    st.greedy_initial()
                else:
                    st.load_placements(names, initial_placements)
                cost0 = st.total_cost()
                g_best_cost = cost0
                g_best_pos: list[tuple[int, int] | None] = list(st.pos)
                history: list[tuple[int, float]] = [(0, cost0)]
                # Same base temperature heuristic as the SA stitcher:
                # accept about half of typical uphill deltas.
                t_base = max(1.0, 0.05 * cost0 / max(1, n_edges))
                block = max(256, min(8192, 4 * params.steps_per_round))
                chains = [
                    _ChainState(
                        pos=list(st.pos),
                        cost=cost0,
                        u=UniformBuffer(
                            stream(params.seed, "tempering", "chain", k),
                            block=block,
                        ),
                    )
                    for k in range(n_chains)
                ]
                u_ex = UniformBuffer(
                    stream(params.seed, "tempering", "exchange"), block=256
                )
                rows = _round_plan(
                    params.max_iters, n_chains, params.steps_per_round
                )
                # Global op index before each round, for attributing
                # chain events to an absolute budget position.
                row_start: list[int] = []
                acc = 0
                for row in rows:
                    row_start.append(acc)
                    acc += sum(row)
                blocks = [
                    rows[b : b + params.swap_period]
                    for b in range(0, len(rows), params.swap_period)
                ]
                sp_init.incr("n_instances", st.n)
                sp_init.incr("n_rounds", len(rows))
                sp_init.incr("n_blocks", len(blocks))

            counters = [0] * len(_COUNTER_FIELDS)
            temp_trace: list[tuple[int, float]] = []
            n_exchanges = 0
            n_swaps = 0
            n_migrations = 0
            round_idx = 0
            for bi, blk in enumerate(blocks):
                with tr.span(
                    "tempering.rounds", phase="rounds", n_rounds=len(blk)
                ) as sp_r:
                    payloads = []
                    for k in range(n_chains):
                        specs = [
                            (
                                row[k],
                                t_base
                                * params.hot_ratio**k
                                * params.alpha ** (round_idx + j),
                            )
                            for j, row in enumerate(blk)
                        ]
                        payloads.append(
                            (chains[k], specs, params.p_place, params.p_swap)
                        )
                    outs = fan.run(_chain_task, payloads)
                    # Merge in deterministic global-op order: every
                    # chain event is stamped with the op index ending
                    # its round segment, then scanned lowest-first
                    # (ties are impossible — segments are disjoint).
                    candidates: list[tuple[int, float, int]] = []
                    for k, (state, _bb, _bp, events, delta) in enumerate(outs):
                        chains[k] = state
                        counters = [c + d for c, d in zip(counters, delta)]
                        for r_local, c in events:
                            r_glob = round_idx + r_local
                            op = row_start[r_glob] + sum(
                                rows[r_glob][: k + 1]
                            )
                            candidates.append((op, c, k))
                    candidates.sort(key=lambda e: (e[0], e[2]))
                    for op, c, k in candidates:
                        if c < g_best_cost - 1e-9:
                            g_best_cost = c
                            g_best_pos = outs[k][2]
                            history.append((op, c))
                    for j, row in enumerate(blk):
                        temp_trace.append(
                            (
                                row_start[round_idx + j] + sum(row),
                                t_base * params.alpha ** (round_idx + j),
                            )
                        )
                    round_idx += len(blk)
                    sp_r.incr("ops", sum(sum(row) for row in blk))
                rounds_s += sp_r.dur_s

                if bi == len(blocks) - 1:
                    break
                with tr.span("tempering.exchange", phase="exchange") as sp_x:
                    n_exchanges += 1
                    # Adjacent-pair Metropolis exchange; the considered
                    # parity alternates per event.  Temperatures are the
                    # ladder values entering the next round.  One stream
                    # draw per considered pair, accepted or not, keeps
                    # the schedule independent of outcomes.
                    decay = params.alpha**round_idx
                    start = (n_exchanges - 1) % 2
                    for a in range(start, n_chains - 1, 2):
                        b = a + 1
                        ta = t_base * params.hot_ratio**a * decay
                        tb = t_base * params.hot_ratio**b * decay
                        x = u_ex.next()
                        d = (1.0 / max(ta, 1e-9) - 1.0 / max(tb, 1e-9)) * (
                            chains[a].cost - chains[b].cost
                        )
                        if d >= 0.0 or x < math.exp(d):
                            chains[a].pos, chains[b].pos = (
                                chains[b].pos,
                                chains[a].pos,
                            )
                            chains[a].cost, chains[b].cost = (
                                chains[b].cost,
                                chains[a].cost,
                            )
                            n_swaps += 1
                        sp_x.incr("exchange_attempts", 1)
                    if (
                        params.migrate_every > 0
                        and n_exchanges % params.migrate_every == 0
                        and g_best_cost < chains[-1].cost - 1e-9
                    ):
                        chains[-1].pos = list(g_best_pos)
                        chains[-1].cost = g_best_cost
                        n_migrations += 1
                        sp_x.incr("migrations", 1)
                exchange_s += sp_x.dur_s

            # Terminal exchange event: the global best migrates into the
            # result (restore + deterministic fill + extraction).
            with tr.span("tempering.exchange", phase="final") as sp_fin:
                st.restore(g_best_pos)
                st.first_fit_fill()
                wirelength = st.wirelength()
                final_cost = st.total_cost()
                congestion_cost = st.congestion_cost()
                timing_cost = st.timing_cost()
                occupancy = st.occupancy_array()
                placements = {names[i]: st.pos[i] for i in range(st.n)}
                n_placed = sum(1 for p in st.pos if p is not None)
                hist, converged_at = converge_history(
                    history, final_cost, params.max_iters
                )
                sp_fin.incr("n_placed", n_placed)
            exchange_s += sp_fin.dur_s
        finally:
            if fan is not None:
                fan.close()

        for name, value in zip(_COUNTER_FIELDS, counters):
            key = "illegal_moves" if name == "illegal" else name
            sp_root.incr(key, value)
        sp_root.set_attr("n_placed", n_placed)
        sp_root.set_attr("n_unplaced", st.n - n_placed)
        sp_root.set_attr("final_cost", final_cost)
        sp_root.set_attr("converged_at", converged_at)
        sp_root.set_attr("n_exchanges", n_exchanges)
        sp_root.set_attr("n_exchange_accepts", n_swaps)
        sp_root.set_attr("n_migrations", n_migrations)
        if st.route is not None:
            sp_root.set_attr("cost.congestion", congestion_cost)
            sp_root.set_attr("cost.timing", timing_cost)

    # Counters come from the aggregated per-task deltas, never from raw
    # parent-kernel counters, so serial and pooled runs report the same
    # numbers (the parent kernel only sees greedy-initial + restore).
    cdict = dict(zip(_COUNTER_FIELDS, counters))
    stats = StitchStats(
        kernel=kernel,
        seed=params.seed,
        setup_s=0.0,
        initial_s=sp_init.dur_s,
        anneal_s=rounds_s,
        fill_s=exchange_s,
        move_attempts=cdict["move_attempts"],
        place_attempts=cdict["place_attempts"],
        swap_attempts=cdict["swap_attempts"],
        move_accepts=cdict["move_accepts"],
        place_accepts=cdict["place_accepts"],
        swap_accepts=cdict["swap_accepts"],
        illegal_moves=cdict["illegal"],
        temperature_trace=tuple(temp_trace),
        phase_names=("", "init", "rounds", "exchange"),
    )
    return StitchResult(
        placements=placements,
        n_placed=n_placed,
        n_unplaced=st.n - n_placed,
        wirelength=wirelength,
        final_cost=final_cost,
        iterations=params.max_iters,
        converged_at=converged_at,
        illegal_moves=cdict["illegal"],
        history=hist,
        occupancy=occupancy,
        stats=stats,
        congestion_cost=congestion_cost,
        timing_cost=timing_cost,
    )
