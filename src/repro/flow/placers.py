"""Concrete :class:`~repro.place_kernel.protocol.Placer` implementations.

The optimizer portfolio: interchangeable placers behind one protocol,
all driving the same move kernel and scoring the same objective, so
their results are directly comparable —

* :class:`SAPlacer` — the simulated-annealing stitcher;
* :class:`GAPlacer` — the evolutionary placer;
* :class:`WarmStartedSAPlacer` — a short GA pass feeding a
  budget-shrunken anneal, the classic global-then-local pipeline.

``default_portfolio`` builds the three members at one total move
budget each, which is what :class:`~repro.dse.explorer.DSEExplorer`
runs per variant when portfolio mode is enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.device.grid import DeviceGrid
from repro.flow.blockdesign import BlockDesign
from repro.flow.evolve import GAParams, evolve
from repro.flow.stitcher import SAParams, stitch
from repro.obs.tracer import NullTracer, Tracer
from repro.place.shapes import Footprint
from repro.place_kernel.result import StitchResult, warm_start_winner

__all__ = [
    "GAPlacer",
    "SAPlacer",
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
            initial_placements=self.initial_placements,
            module_delays=module_delays, tracer=tracer,
        )


@dataclass(frozen=True)
class GAPlacer:
    """The evolutionary placer as a portfolio member."""

    params: GAParams = field(default_factory=GAParams)
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
            module_delays=module_delays, tracer=tracer,
        )


@dataclass(frozen=True)
class WarmStartedSAPlacer:
    """A GA warm start feeding a budget-shrunken anneal.

    The GA spends ``warm_frac`` of the SA move budget finding a good
    global placement; the anneal's iteration budget is reduced by what
    the GA consumed, so the *total* kernel-operation spend still equals
    ``params.max_iters`` (the portfolio's equal-budget contract).  The
    pipeline returns the pareto-better of the warm start and the
    polished result (fewer unplaced blocks first, then lower cost; a tie
    keeps the warm start), charged for both stages.
    """

    params: SAParams = field(default_factory=SAParams)
    #: GA warm-start budget fraction.
    warm_frac: float = 0.3
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
        """Run the GA warm start; return it and the polish anneal."""
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
            module_delays=module_delays,
            tracer=tracer,
        )
        polish = SAPlacer(
            params=replace(
                self.params,
                max_iters=max(1, self.params.max_iters - warm.iterations),
            ),
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
        return warm_start_winner(warm, result)


def default_portfolio(
    sa_params: SAParams | None = None,
) -> tuple[SAPlacer, GAPlacer, WarmStartedSAPlacer]:
    """SA, GA and GA-warm-started SA at the same total move budget each."""
    params = sa_params or SAParams()
    ga = GAParams(
        move_budget=params.max_iters,
        unplaced_weight=params.unplaced_weight,
        seed=params.seed,
        congestion_weight=params.congestion_weight,
        timing_weight=params.timing_weight,
    )
    return (
        SAPlacer(params=params),
        GAPlacer(params=ga),
        WarmStartedSAPlacer(params=params),
    )
