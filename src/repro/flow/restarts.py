"""Multi-seed placement restarts for any :class:`~repro.place_kernel.protocol.Placer`.

Stochastic placers are cheap to restart and their final cost varies
with the seed, so the classic quality lever (RapidLayout-style
stochastic placement) is to run several independent seeds and keep the
best run.  :func:`best_of` does that for every placer in the portfolio:
seed ``s`` of the family runs ``replace(placer, params=replace(
placer.params, seed=s))``, fanned out over worker processes through the
shared :class:`~repro.flow.fanout.FanOut`.

A placer that starts from a warm start
(:class:`~repro.place_kernel.protocol.WarmStartPlacer`) computes it
once; only the polish placer it hands back is restarted, and the
pipeline keeps the pareto-better of the warm start and the best polish.

Winner selection is the shared pareto path
(:func:`~repro.flow.fanout.best_result`): fewest unplaced blocks first,
then lowest ``final_cost`` — the same key
:class:`~repro.dse.explorer.DSEExplorer` ranks portfolio placements by.
Ranking on ``final_cost`` alone (the old behavior) was a bug: a seed
that leaves a block unplaced can undercut a fully-placed seed on cost
alone (``tests/test_stitcher_restarts.py`` pins the regression).

Determinism: the winner depends only on the seed list — results are
collected in seed order and ties break toward the earliest seed — so the
same seeds produce the same :class:`~repro.place_kernel.result.StitchResult`
regardless of ``n_workers`` (enforced by
``tests/test_determinism_cross_process.py``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Sequence

from repro.device.grid import DeviceGrid
from repro.flow.blockdesign import BlockDesign
from repro.flow.fanout import FanOut, best_result, graft_traces
from repro.obs.tracer import NullTracer, Tracer, current_tracer
from repro.place.shapes import Footprint
from repro.place_kernel.protocol import Placer, WarmStartPlacer
from repro.place_kernel.result import StitchResult, pareto_key

__all__ = ["best_of"]


def _run_seed(
    args: tuple[
        Placer, BlockDesign, Mapping[str, Footprint], DeviceGrid,
        Mapping[str, float] | None, bool
    ],
) -> tuple[StitchResult, list[dict]]:
    """Worker entry point (module-level so it pickles).

    When ``want_trace`` is set the seed's span trees are recorded into a
    worker-local tracer and returned alongside the result, so the parent
    can graft every restart's phase breakdown into its own trace exactly
    once regardless of worker count.
    """
    placer, design, footprints, grid, delays, want_trace = args
    tr = Tracer() if want_trace else None
    result = placer.place(design, footprints, grid, module_delays=delays,
                          tracer=tr)
    traces = [root.to_json_dict() for root in tr.roots] if tr else []
    return result, traces


def _seed_family(
    base_seed: int, n_seeds: int, seeds: Sequence[int] | None
) -> list[int]:
    """Expand the restart family's seed list."""
    if seeds is None:
        if n_seeds < 1:
            raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
        return [base_seed + k for k in range(n_seeds)]
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must not be empty")
    return seeds


def best_of(
    placer: Placer,
    design: BlockDesign,
    footprints: Mapping[str, Footprint],
    grid: DeviceGrid,
    *,
    seeds: Sequence[int] | None = None,
    n_seeds: int = 4,
    n_workers: int | None = None,
    module_delays: Mapping[str, float] | None = None,
    tracer: Tracer | NullTracer | None = None,
) -> StitchResult:
    """Run ``placer`` over several independent seeds and return the best run.

    Parameters
    ----------
    placer:
        Any portfolio placer (:mod:`repro.flow.placers`): a frozen
        dataclass whose ``params.seed`` is the base seed of the family.
    design, footprints, grid, module_delays:
        As for :meth:`~repro.place_kernel.protocol.Placer.place`.
    seeds:
        Explicit seed list, overriding ``n_seeds``.
    n_seeds:
        Number of restarts when ``seeds`` is not given; seed ``k`` of the
        family is ``placer.params.seed + k``.
    n_workers:
        Worker processes to fan the seeds over.  ``None``, 0 or 1 runs
        serially in-process; the winner is identical either way.
    tracer:
        Where the ``placer.restarts`` span (attribute ``placer=<name>``)
        is recorded, with one child placer span per seed (merged back
        from the workers when the seeds fan out); defaults to the
        ambient tracer.  A warm start is recorded before that span.

    Returns
    -------
    StitchResult
        The pareto-best run — fewest unplaced blocks, then lowest
        ``final_cost`` (the same key ``DSEExplorer`` selects by); ties
        break toward the earliest seed in the list, and toward the warm
        start for a warm-started placer.  ``result.stats.seed`` records
        the winning seed.
    """
    seeds = _seed_family(placer.params.seed, n_seeds, seeds)
    ambient = tracer if tracer is not None else current_tracer()
    name = placer.name
    warm = None
    if isinstance(placer, WarmStartPlacer):
        warm, polish = placer.warm_start(
            design, footprints, grid, module_delays=module_delays,
            tracer=ambient,
        )
        if polish is None:
            return warm
        placer = polish
    want_trace = ambient.enabled
    jobs = [
        (replace(placer, params=replace(placer.params, seed=s)), design,
         footprints, grid, module_delays, want_trace)
        for s in seeds
    ]
    with ambient.span("placer.restarts", placer=name,
                      n_seeds=len(jobs)) as sp:
        with FanOut(n_workers, len(jobs)) as fan:
            outcomes = fan.run(_run_seed, jobs)
        if want_trace:
            graft_traces(ambient, [t for _res, traces in outcomes for t in traces])

        best = best_result([result for result, _traces in outcomes])
        sp.set_attr("winner_seed", best.stats.seed if best.stats else None)
        sp.set_attr("best_cost", best.final_cost)
        sp.set_attr("best_unplaced", best.n_unplaced)
    return best if warm is None else min(warm, best, key=pareto_key)
