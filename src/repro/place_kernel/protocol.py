"""The ``Placer`` protocol: one contract for every placement optimizer.

Anything that turns (design, footprints, grid) into a
:class:`~repro.place_kernel.result.StitchResult` is a placer.  The SA
stitcher, the GA evolver and the warm-started SA pipeline all satisfy
it (see :mod:`repro.flow.placers`), which is what lets
:class:`~repro.dse.explorer.DSEExplorer` run an optimizer *portfolio*
and keep the best placement per scenario, and
:func:`~repro.flow.restarts.best_of` restart any of them over seeds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Protocol, runtime_checkable

from repro.device.grid import DeviceGrid
from repro.place.shapes import Footprint
from repro.place_kernel.result import StitchResult

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a flow cycle
    from repro.flow.blockdesign import BlockDesign
    from repro.obs.tracer import NullTracer, Tracer

__all__ = ["Placer", "WarmStartPlacer"]


@runtime_checkable
class Placer(Protocol):
    """A macro-placement optimizer.

    Implementations must be deterministic for a fixed configuration
    (seeded RNG, fixed iteration/generation counts, no wall-clock
    stopping) — the repo-wide reproducibility guarantee — and should
    honor ``tracer`` by recording their span tree into it.
    """

    #: Short optimizer name (``"sa"``, ``"ga"``, ``"warm-sa"``, ...) used
    #: in portfolio reports and span attributes.
    name: str

    def place(
        self,
        design: "BlockDesign",
        footprints: Mapping[str, Footprint],
        grid: DeviceGrid,
        *,
        module_delays: Mapping[str, float] | None = None,
        tracer: "Tracer | NullTracer | None" = None,
    ) -> StitchResult:
        """Place all instances of ``design`` on ``grid``.

        ``module_delays`` (module name -> intra-block delay in ns) seeds
        the optional timing cost term; placers whose configuration has
        ``timing_weight == 0.0`` ignore it.
        """
        ...


@runtime_checkable
class WarmStartPlacer(Placer, Protocol):
    """A placer whose run is a warm start followed by an optional polish.

    :func:`~repro.flow.restarts.best_of` computes the warm start once and
    restarts only the polish placer, so every seed of the family starts
    from the same placement.
    """

    def warm_start(
        self,
        design: "BlockDesign",
        footprints: Mapping[str, Footprint],
        grid: DeviceGrid,
        *,
        module_delays: Mapping[str, float] | None = None,
        tracer: "Tracer | NullTracer | None" = None,
    ) -> tuple[StitchResult, Placer | None]:
        """Run the warm start; return it and the placer that polishes it.

        ``None`` as the polish placer means the warm start is the whole
        run.  ``place`` returns the pareto-better of the warm start and
        the polished result.
        """
        ...
