"""Concrete :class:`~repro.place_kernel.protocol.Placer` implementations.

The optimizer portfolio: interchangeable placers behind one protocol,
all driving the same move kernel and scoring the same objective, so
their results are directly comparable —

* :class:`SAPlacer` — the simulated-annealing stitcher;
* :class:`GAPlacer` — the evolutionary placer;
* :class:`AnalyticPlacer` — the gradient HPWL global placer
  (:mod:`repro.flow.global_place`) alone, zero kernel-op spend;
* :class:`WarmStartedSAPlacer` — a warm-start producer (a short GA
  pass, or the analytic placer with ``warm="gp"``) feeding a
  budget-shrunken anneal, the classic global-then-local pipeline;
* :class:`TemperedSAPlacer` — cooperative parallel tempering (replica
  exchange across a temperature ladder of SA chains).

``default_portfolio`` builds the five portfolio members at one total
move budget *cap* each (the gp+sa member spends only half — the warm
start is uncharged), which is what
:class:`~repro.dse.explorer.DSEExplorer` runs per variant when
portfolio mode is enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.device.grid import DeviceGrid
from repro.flow.blockdesign import BlockDesign
from repro.flow.evolve import GAParams, evolve
from repro.flow.global_place import GPParams, global_place
from repro.flow.stitcher import SAParams, stitch
from repro.flow.tempering import PTParams, temper
from repro.obs.tracer import NullTracer, Tracer
from repro.place.shapes import Footprint
from repro.place_kernel.result import StitchResult, pareto_key

__all__ = [
    "AnalyticPlacer",
    "GAPlacer",
    "SAPlacer",
    "TemperedSAPlacer",
    "WarmStartedSAPlacer",
    "default_portfolio",
]


@dataclass(frozen=True)
class SAPlacer:
    """The SA stitcher as a portfolio member.

    ``initial_placements`` warm starts the anneal (the polish stage of
    :class:`WarmStartedSAPlacer`); ``None`` anneals from the stitcher's
    own initial placement.
    """

    params: SAParams = field(default_factory=SAParams)
    kernel: str = "fast"
    name: str = "sa"
    initial_placements: Mapping[str, tuple[int, int] | None] | None = None

    def place(
        self,
        design: BlockDesign,
        footprints: Mapping[str, Footprint],
        grid: DeviceGrid,
        *,
        module_delays: Mapping[str, float] | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> StitchResult:
        return stitch(
            design, dict(footprints), grid, self.params,
            kernel=self.kernel, initial_placements=self.initial_placements,
            module_delays=module_delays, tracer=tracer,
        )


@dataclass(frozen=True)
class GAPlacer:
    """The evolutionary placer as a portfolio member."""

    params: GAParams = field(default_factory=GAParams)
    kernel: str = "fast"
    name: str = "ga"

    def place(
        self,
        design: BlockDesign,
        footprints: Mapping[str, Footprint],
        grid: DeviceGrid,
        *,
        module_delays: Mapping[str, float] | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> StitchResult:
        return evolve(
            design, dict(footprints), grid, self.params,
            kernel=self.kernel, module_delays=module_delays, tracer=tracer,
        )


@dataclass(frozen=True)
class AnalyticPlacer:
    """The analytic global placer as a portfolio member.

    Runs :func:`~repro.flow.global_place.global_place` alone — gradient
    HPWL descent plus legalization, zero kernel-op spend (gradient
    steps and snaps are uncharged).  Mostly useful as the warm-start
    producer; on its own it trades polish quality for near-zero budget.
    It is a :class:`~repro.place_kernel.protocol.WarmStartPlacer` with
    nothing to polish, so :func:`~repro.flow.restarts.best_of` runs it
    once rather than restarting a deterministic descent.
    """

    params: GPParams = field(default_factory=GPParams)
    kernel: str = "fast"
    name: str = "gp"

    def place(
        self,
        design: BlockDesign,
        footprints: Mapping[str, Footprint],
        grid: DeviceGrid,
        *,
        module_delays: Mapping[str, float] | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> StitchResult:
        return global_place(
            design, dict(footprints), grid, self.params,
            kernel=self.kernel, module_delays=module_delays, tracer=tracer,
        )

    def warm_start(
        self,
        design: BlockDesign,
        footprints: Mapping[str, Footprint],
        grid: DeviceGrid,
        *,
        module_delays: Mapping[str, float] | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> tuple[StitchResult, None]:
        return self.place(design, footprints, grid,
                          module_delays=module_delays, tracer=tracer), None


@dataclass(frozen=True)
class WarmStartedSAPlacer:
    """A warm-start producer feeding a budget-shrunken anneal.

    Two producers are supported:

    * ``warm="ga"`` (the historical default) — the GA spends
      ``warm_frac`` of the SA move budget finding a good global
      placement; the anneal's iteration budget is reduced by what the
      GA consumed, so the *total* kernel-operation spend still equals
      ``params.max_iters`` (the portfolio's equal-budget contract).
    * ``warm="gp"`` — the analytic global placer
      (:mod:`repro.flow.global_place`) produces the start for *free*
      (gradient steps and legalization snaps are uncharged), and the
      polishing anneal runs at only ``sa_frac`` of ``params.max_iters``
      — the total spend is *half* the budget cap, which is the
      warm-start perf gate's contract
      (``benchmarks/test_perf_warmstart.py``).

    Either way the pipeline returns the pareto-better of the warm
    start and the polished result (fewer unplaced blocks first, then
    lower cost; a tie keeps the warm start).
    """

    params: SAParams = field(default_factory=SAParams)
    kernel: str = "fast"
    #: Warm-start producer: ``"ga"`` or ``"gp"``.
    warm: str = "ga"
    #: GA warm-start budget fraction (``warm="ga"`` only).
    warm_frac: float = 0.3
    #: Polish-anneal budget fraction (``warm="gp"`` only).
    sa_frac: float = 0.5
    #: Analytic-placer overrides (``warm="gp"``); ``None`` derives them
    #: from ``params`` (seed and unplaced weight must match for
    #: comparable costs).
    gp_params: GPParams | None = None
    name: str = "warm-sa"

    def warm_start(
        self,
        design: BlockDesign,
        footprints: Mapping[str, Footprint],
        grid: DeviceGrid,
        *,
        module_delays: Mapping[str, float] | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> tuple[StitchResult, SAPlacer]:
        """Run the warm-start producer; return it and the polish anneal."""
        if self.warm not in ("ga", "gp"):
            raise ValueError(
                f"unknown warm-start producer {self.warm!r}; "
                "choose from ('ga', 'gp')"
            )
        if self.warm == "gp":
            gp = self.gp_params or GPParams(
                unplaced_weight=self.params.unplaced_weight,
                seed=self.params.seed,
                congestion_weight=self.params.congestion_weight,
                timing_weight=self.params.timing_weight,
            )
            warm = global_place(
                design, dict(footprints), grid, gp,
                kernel=self.kernel, module_delays=module_delays,
                tracer=tracer,
            )
            max_iters = int(self.params.max_iters * self.sa_frac)
        else:
            warm = evolve(
                design,
                dict(footprints),
                grid,
                GAParams(
                    move_budget=max(1, int(self.params.max_iters * self.warm_frac)),
                    unplaced_weight=self.params.unplaced_weight,
                    seed=self.params.seed,
                    congestion_weight=self.params.congestion_weight,
                    timing_weight=self.params.timing_weight,
                ),
                kernel=self.kernel,
                module_delays=module_delays,
                tracer=tracer,
            )
            max_iters = self.params.max_iters - warm.iterations
        polish = SAPlacer(
            params=replace(self.params, max_iters=max(1, max_iters)),
            kernel=self.kernel,
            initial_placements=warm.placements,
        )
        return warm, polish

    def place(
        self,
        design: BlockDesign,
        footprints: Mapping[str, Footprint],
        grid: DeviceGrid,
        *,
        module_delays: Mapping[str, float] | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> StitchResult:
        warm, polish = self.warm_start(
            design, footprints, grid, module_delays=module_delays,
            tracer=tracer,
        )
        result = polish.place(design, footprints, grid,
                              module_delays=module_delays, tracer=tracer)
        # A converged warm start can be better than the re-annealed
        # result; the pipeline returns the pareto-better of the two.
        return min(warm, result, key=pareto_key)


@dataclass(frozen=True)
class TemperedSAPlacer:
    """Cooperative parallel tempering as a portfolio member.

    Runs :func:`~repro.flow.tempering.temper`'s replica-exchange ladder
    with its chains fanned over ``n_workers`` processes (``None`` runs
    them in-process, as the DSE explorer does — it already fans variants
    out over processes).  The result is bitwise identical either way.
    """

    params: PTParams = field(default_factory=PTParams)
    kernel: str = "fast"
    name: str = "pt"
    n_workers: int | None = None

    def place(
        self,
        design: BlockDesign,
        footprints: Mapping[str, Footprint],
        grid: DeviceGrid,
        *,
        module_delays: Mapping[str, float] | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> StitchResult:
        return temper(
            design, dict(footprints), grid, self.params,
            kernel=self.kernel, n_workers=self.n_workers,
            module_delays=module_delays, tracer=tracer,
        )


def default_portfolio(
    sa_params: SAParams | None = None, kernel: str = "fast"
) -> tuple[
    SAPlacer,
    GAPlacer,
    WarmStartedSAPlacer,
    TemperedSAPlacer,
    WarmStartedSAPlacer,
]:
    """SA, GA, GA-warm-started SA, parallel tempering and gp-warm-started
    SA at the same total move-budget *cap* each.

    The ``gp+sa`` member spends only half the cap — its analytic warm
    start is uncharged and its polish anneal runs at ``sa_frac=0.5`` —
    so it can only make the portfolio cheaper, never over-budget.
    """
    params = sa_params or SAParams()
    ga = GAParams(
        move_budget=params.max_iters,
        unplaced_weight=params.unplaced_weight,
        seed=params.seed,
        congestion_weight=params.congestion_weight,
        timing_weight=params.timing_weight,
    )
    pt = PTParams(
        max_iters=params.max_iters,
        unplaced_weight=params.unplaced_weight,
        p_place=params.p_place,
        p_swap=params.p_swap,
        seed=params.seed,
        congestion_weight=params.congestion_weight,
        timing_weight=params.timing_weight,
    )
    return (
        SAPlacer(params=params, kernel=kernel),
        GAPlacer(params=ga, kernel=kernel),
        WarmStartedSAPlacer(params=params, kernel=kernel),
        TemperedSAPlacer(params=pt, kernel=kernel),
        WarmStartedSAPlacer(params=params, kernel=kernel, warm="gp",
                            name="gp+sa"),
    )
