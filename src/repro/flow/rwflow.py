"""End-to-end RapidWright-style flow.

``run_rw_flow`` = pre-implement all unique modules under a CF policy, then
stitch every instance onto the device.  The result bundles everything the
paper's evaluation reads off: tool runs, per-module CFs, placement counts,
SA convergence and cost, plus the :class:`~repro.flow.preimpl.FlowStats`
observability of the pre-implementation pass.

Infeasible modules degrade gracefully: the flow stitches the placeable
subset of the design, reports every instance of a failed module as
unplaced, and attaches the
:class:`~repro.flow.preimpl.FlowInfeasibleReport` instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.device.grid import DeviceGrid
from repro.flow.blockdesign import BlockDesign
from repro.flow.cache import ModuleCache
from repro.flow.policy import CFPolicy
from repro.flow.preimpl import (
    FlowInfeasibleReport,
    FlowStats,
    ImplementedModule,
    implement_design,
)
from repro.flow.placers import SAPlacer
from repro.flow.restarts import best_of
from repro.flow.stitcher import SAParams, StitchResult
from repro.obs.tracer import NullTracer, Tracer, current_tracer
from repro.place_kernel.protocol import Placer

__all__ = ["RWFlowResult", "run_rw_flow"]


@dataclass(frozen=True)
class RWFlowResult:
    """Everything produced by one RW-style compilation.

    Attributes
    ----------
    implemented:
        Pre-implementation cache (per unique module; infeasible modules
        are absent — see ``infeasible``).
    stitch:
        Stitched full-device placement.  Instances of infeasible modules
        appear with ``None`` placements and count toward ``n_unplaced``.
    total_tool_runs:
        Place-and-route attempts across all modules (the §VIII run-time
        proxy; stitching is one additional run, not counted here).
        Includes the attempts spent on infeasible modules.
    flow_stats:
        Pre-implementation observability (cache hits, new tool runs, per
        module wall time and prediction error).
    infeasible:
        Report of modules no CF could implement (empty when the whole
        design implemented).
    """

    implemented: dict[str, ImplementedModule]
    stitch: StitchResult
    total_tool_runs: int
    flow_stats: FlowStats = field(default_factory=FlowStats)
    infeasible: FlowInfeasibleReport = field(default_factory=FlowInfeasibleReport)

    @property
    def ok(self) -> bool:
        """True when every unique module implemented."""
        return not self.infeasible

    @property
    def mean_cf(self) -> float:
        """Average implemented CF over modules."""
        cfs = [m.outcome.cf for m in self.implemented.values()]
        return sum(cfs) / len(cfs) if cfs else 0.0

    @property
    def total_pblock_slices(self) -> int:
        """Sum of PBlock capacities — the area budget the stitcher packs."""
        return sum(m.outcome.pblock.caps.slices for m in self.implemented.values())


def run_rw_flow(
    design: BlockDesign,
    grid: DeviceGrid,
    policy: CFPolicy,
    *,
    stitch_grid: DeviceGrid | None = None,
    sa_params: SAParams | None = None,
    placer: Placer | None = None,
    n_seeds: int = 1,
    n_workers: int | None = None,
    preimpl_workers: int | None = None,
    cache: ModuleCache | None = None,
    cache_dir: str | None = None,
    tracer: Tracer | NullTracer | None = None,
) -> RWFlowResult:
    """Compile ``design`` with pre-implemented blocks.

    Parameters
    ----------
    design:
        The block design.
    grid:
        Device used for per-module pre-implementation (PBlock sizing).
    policy:
        CF selection policy.
    stitch_grid:
        Device for the final stitching; defaults to ``grid``.  The paper
        sizes modules against the xc7z020 but evaluates estimator-driven
        stitching on the xc7z045 (§VIII).
    sa_params:
        Stitcher annealing parameters for the default placer.
    placer:
        The portfolio optimizer that places the design (any
        :class:`~repro.place_kernel.protocol.Placer`, see
        :mod:`repro.flow.placers`); ``None`` anneals with
        ``SAPlacer(sa_params)``.
    n_seeds:
        Restarts; values > 1 run ``n_seeds`` independent seeds of
        ``placer`` via :func:`~repro.flow.restarts.best_of` and keep the
        pareto-best run.
    n_workers:
        Worker processes for the restarts (``None``/1 = serial).
    preimpl_workers:
        Worker processes for the per-module pre-implementation fan-out
        (``None``/1 = serial; results are worker-count independent).
    cache:
        Shared :class:`~repro.flow.cache.ModuleCache`; a warm cache skips
        tool runs for unchanged modules.
    cache_dir:
        Disk-persistent cache root when ``cache`` is not given.
    tracer:
        Where the flow's span tree is recorded: a ``flow`` root whose
        children are the pre-implementation's ``preimpl`` span and the
        placer's span (``placer.restarts`` when restarting).  Defaults
        to the ambient tracer; a disabled tracer makes every flow-level
        span a no-op while the nested stages keep deriving their stats
        from private traces.
    """
    placer = placer or SAPlacer(sa_params or SAParams())
    ambient = tracer if tracer is not None else current_tracer()
    with ambient.span("flow", design=design.name, grid=grid.name) as sp:
        pre = implement_design(
            design,
            grid,
            policy,
            n_workers=preimpl_workers,
            cache=cache,
            cache_dir=cache_dir,
            tracer=ambient,
        )
        footprints = {
            name: impl.outcome.result.footprint
            for name, impl in pre.items()
            if impl.outcome.result.footprint is not None
        }
        # Per-module intra-block delays seed the placers' optional timing
        # cost term (inert at the default timing_weight == 0.0).
        module_delays = {
            name: impl.timing.total_ns for name, impl in pre.items()
        }
        target = stitch_grid or grid

        missing = [i for i in design.instances if i.module not in footprints]
        stitchable = design if not missing else design.subset(set(footprints))
        if stitchable.instances:
            if n_seeds > 1:
                result = best_of(
                    placer, stitchable, footprints, target, n_seeds=n_seeds,
                    n_workers=n_workers, module_delays=module_delays,
                    tracer=ambient,
                )
            else:
                result = placer.place(
                    stitchable, footprints, target,
                    module_delays=module_delays, tracer=ambient,
                )
        else:  # nothing placeable: synthesize an empty stitching outcome
            result = StitchResult(
                placements={},
                n_placed=0,
                n_unplaced=0,
                wirelength=0.0,
                final_cost=0.0,
                iterations=0,
                converged_at=0,
                illegal_moves=0,
            )
        if missing:
            placements = dict(result.placements)
            placements.update({i.name: None for i in missing})
            result = replace(
                result,
                placements=placements,
                n_unplaced=result.n_unplaced + len(missing),
            )

        runs = pre.stats.total_tool_runs
        sp.incr("total_tool_runs", runs)
        sp.set_attr("n_placed", result.n_placed)
        sp.set_attr("n_unplaced", result.n_unplaced)
    return RWFlowResult(
        implemented=dict(pre.modules),
        stitch=result,
        total_tool_runs=runs,
        flow_stats=pre.stats,
        infeasible=pre.report,
    )
