"""Incremental design-space exploration over a block design.

A *variant* is a mapping from module names to replacement
:class:`~repro.rtlgen.base.RTLModule` objects (e.g. different MVAU
foldings).  The explorer compiles each variant with the RW-style flow but
reuses pre-implementations of unchanged modules from a shared
:class:`~repro.flow.cache.ModuleCache`, so the cost of a DSE step is
proportional to what changed — the paper's §I argument, operationalized.
With a ``cache_dir`` the cache persists on disk and a DSE session
warm-starts from every earlier run against the same directory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.device.grid import DeviceGrid
from repro.flow.blockdesign import BlockDesign
from repro.flow.cache import ModuleCache
from repro.flow.placers import SAPlacer, default_portfolio
from repro.flow.policy import CFPolicy, FixedCF, FlowInfeasibleError
from repro.flow.preimpl import ImplementedModule, implement_module
from repro.flow.stitcher import SAParams, StitchResult
from repro.obs.tracer import NullTracer, Tracer, current_tracer
from repro.place_kernel.protocol import Placer
from repro.place_kernel.result import pareto_key
from repro.rtlgen.base import RTLModule
from repro.utils.tables import Table

__all__ = ["DSEPoint", "DSEExplorer", "pareto_front"]


@dataclass(frozen=True)
class DSEPoint:
    """One explored variant.

    Attributes
    ----------
    label:
        Variant name.
    area_slices:
        Total used slices over all instances.
    worst_path_ns:
        Slowest module's longest path (the design's clock limiter).
    n_unplaced:
        Blocks the stitcher could not place, plus every instance of a
        module the policy could not implement (0 = fully implementable).
    implemented_effort:
        Slice demand actually (re)implemented for this variant — the
        incremental cost of the step.
    cache_hits:
        Modules served from the cache.
    placer:
        Name of the portfolio optimizer whose placement won this
        scenario (``"sa"`` when the portfolio is the default single SA).
    """

    label: str
    area_slices: int
    worst_path_ns: float
    n_unplaced: int
    implemented_effort: int
    cache_hits: int
    placer: str = "sa"

    def dominates(self, other: "DSEPoint") -> bool:
        """Pareto dominance on (area, worst path), requiring feasibility.

        An infeasible point never dominates, and dominance over any other
        point requires a *strict* improvement on at least one metric — a
        feasible point does not dominate an infeasible one on merely
        equal metrics.
        """
        if self.n_unplaced > 0:
            return False
        better_or_equal = (
            self.area_slices <= other.area_slices
            and self.worst_path_ns <= other.worst_path_ns
        )
        strictly = (
            self.area_slices < other.area_slices
            or self.worst_path_ns < other.worst_path_ns
        )
        return better_or_equal and strictly


def pareto_front(points: Sequence[DSEPoint]) -> list[DSEPoint]:
    """Non-dominated feasible points, sorted by area.

    Points landing on identical ``(area_slices, worst_path_ns)`` metrics
    are deduplicated (the earliest-explored one is kept), so ties do not
    inflate the front.
    """
    feasible = [p for p in points if p.n_unplaced == 0]
    front = [
        p
        for p in feasible
        if not any(q is not p and q.dominates(p) for q in feasible)
    ]
    seen: set[tuple[int, float]] = set()
    unique: list[DSEPoint] = []
    for p in front:
        metrics = (p.area_slices, p.worst_path_ns)
        if metrics not in seen:
            seen.add(metrics)
            unique.append(p)
    return sorted(unique, key=lambda p: p.area_slices)


class DSEExplorer:
    """Explores variants of one block design with an implementation cache.

    Parameters
    ----------
    base:
        The starting design; its modules seed the cache.
    grid:
        Pre-implementation device.
    policy:
        CF policy for module implementation (a trained
        :class:`~repro.estimator.strategy.EstimatedCF` is the paper's
        recommendation; a constant works too).
    stitch_grid:
        Device for full-design stitching (defaults to ``grid``).
    sa_params:
        Stitcher budget per variant.
    kernel:
        Stitcher move-kernel (``"fast"`` or ``"reference"``).
    cache:
        Shared :class:`~repro.flow.cache.ModuleCache`.  Passing the same
        cache to several explorers (or to :func:`~repro.flow.rwflow.run_rw_flow`)
        shares pre-implementations between them; the default is a private
        in-memory cache.
    cache_dir:
        Disk-persistent cache root when ``cache`` is not given, so DSE
        sessions warm-start across process restarts.
    placers:
        The optimizer portfolio run per variant: a sequence of
        :class:`~repro.place_kernel.protocol.Placer` objects, or the
        string ``"portfolio"`` for the five default members — SA, GA,
        GA-warm-started SA, parallel tempering and gp-warm-started SA
        (:func:`~repro.flow.placers.default_portfolio`) — at the
        ``sa_params`` move budget.  Every placer stitches each variant
        and the best placement (fewest unplaced, then lowest cost; ties
        break toward the earliest placer) is kept —
        :attr:`DSEPoint.placer` records the winner.  Default: SA only,
        matching the pre-portfolio behavior exactly.
    tracer:
        Where each :meth:`evaluate` records its ``dse.evaluate`` span
        (module implementation + the nested ``stitch`` phase breakdown).
        Defaults to the tracer ambient at evaluate time, so one
        ``use_tracer`` block around an exploration captures every step.
    """

    def __init__(
        self,
        base: BlockDesign,
        grid: DeviceGrid,
        policy: CFPolicy | None = None,
        *,
        stitch_grid: DeviceGrid | None = None,
        sa_params: SAParams | None = None,
        kernel: str = "fast",
        cache: ModuleCache | None = None,
        cache_dir: str | None = None,
        placers: Sequence[Placer] | str | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> None:
        base.validate()
        self.base = base
        self.grid = grid
        self.policy = policy or FixedCF(1.7)
        self.stitch_grid = stitch_grid or grid
        self.sa_params = sa_params or SAParams(max_iters=8000, seed=0)
        self.kernel = kernel
        self.cache = cache if cache is not None else ModuleCache(cache_dir)
        if placers is None:
            self.placers: tuple[Placer, ...] = (
                SAPlacer(params=self.sa_params, kernel=self.kernel),
            )
        elif placers == "portfolio":
            self.placers = default_portfolio(self.sa_params, self.kernel)
        elif isinstance(placers, str):
            raise ValueError(
                f"unknown placer portfolio {placers!r}; "
                "pass 'portfolio' or a sequence of Placer objects"
            )
        else:
            if not placers:
                raise ValueError("placers must not be empty")
            self.placers = tuple(placers)
        self.tracer = tracer
        self.points: list[DSEPoint] = []

    # ------------------------------------------------------------------ cache

    def _implement(
        self, module: RTLModule
    ) -> tuple[ImplementedModule | None, bool]:
        """Implement via the shared cache; ``(None, False)`` if infeasible."""
        key = self.cache.key(module, self.grid, self.policy)
        impl = self.cache.get(key)
        if impl is not None:
            return impl, True
        try:
            impl = implement_module(module, self.grid, self.policy)
        except FlowInfeasibleError:
            return None, False
        self.cache.put(key, impl)
        return impl, False

    # ------------------------------------------------------------------ explore

    def evaluate(
        self, label: str, overrides: Mapping[str, RTLModule] | None = None
    ) -> DSEPoint:
        """Compile one variant and record its point.

        A variant with an infeasible module does not raise: its
        implementable subset is stitched and every instance of the failed
        module counts as unplaced, so the point lands off the Pareto
        front instead of aborting the exploration.

        Parameters
        ----------
        label:
            Variant name for reporting.
        overrides:
            Module replacements relative to the base design; names must
            exist in the base design.
        """
        overrides = dict(overrides or {})
        unknown = set(overrides) - set(self.base.modules)
        if unknown:
            raise KeyError(f"overrides for unknown modules: {sorted(unknown)}")

        tr = self.tracer if self.tracer is not None else current_tracer()
        with tr.span("dse.evaluate", label=label) as sp:
            impls: dict[str, ImplementedModule] = {}
            effort = 0
            hits = 0
            infeasible: list[str] = []
            for name, module in self.base.modules.items():
                chosen = overrides.get(name, module)
                impl, hit = self._implement(chosen)
                if impl is None:
                    infeasible.append(name)
                    continue
                impls[name] = impl
                if hit:
                    hits += 1
                else:
                    effort += impl.outcome.result.demand_slices

            footprints = {
                name: impl.outcome.result.footprint
                for name, impl in impls.items()
            }
            # Seed the portfolio's optional timing cost term; placers
            # with timing_weight == 0.0 (the default) ignore it.
            module_delays = {
                name: impl.timing.total_ns for name, impl in impls.items()
            }
            counts = self.base.instance_counts()
            stitchable = (
                self.base if not infeasible else self.base.subset(set(impls))
            )
            winner_name = self.placers[0].name
            if stitchable.instances:
                # Run the whole portfolio and keep the pareto-best
                # placement: fewest unplaced blocks first, then lowest
                # final cost; ties break toward the earliest placer.
                best_stitched: StitchResult | None = None
                for placer in self.placers:
                    res = placer.place(
                        stitchable, footprints, self.stitch_grid,
                        module_delays=module_delays, tracer=tr,
                    )
                    if best_stitched is None or pareto_key(res) < pareto_key(
                        best_stitched
                    ):
                        best_stitched = res
                        winner_name = placer.name
                n_unplaced = best_stitched.n_unplaced
            else:
                n_unplaced = 0
            n_unplaced += sum(counts[m] for m in infeasible)

            area = sum(impls[m].used_slices * counts[m] for m in impls)
            worst = max(
                (impl.timing.total_ns for impl in impls.values()), default=0.0
            )
            sp.incr("cache_hits", hits)
            sp.incr("implemented_effort", effort)
            sp.set_attr("n_unplaced", n_unplaced)
            sp.set_attr("n_infeasible", len(infeasible))
            sp.set_attr("winner_placer", winner_name)
            point = DSEPoint(
                label=label,
                area_slices=area,
                worst_path_ns=worst,
                n_unplaced=n_unplaced,
                implemented_effort=effort,
                cache_hits=hits,
                placer=winner_name,
            )
        self.points.append(point)
        return point

    # ------------------------------------------------------------------ report

    def render(self) -> str:
        """Summary table of all explored points, Pareto-marked."""
        front = set(id(p) for p in pareto_front(self.points))
        t = Table(
            [
                "variant",
                "area (slices)",
                "worst path (ns)",
                "unplaced",
                "step effort",
                "cache hits",
                "pareto",
            ],
            float_fmt="{:.2f}",
            title=f"DSE over {self.base.name}",
        )
        for p in self.points:
            t.add_row(
                [
                    p.label,
                    p.area_slices,
                    p.worst_path_ns,
                    p.n_unplaced,
                    p.implemented_effort,
                    p.cache_hits,
                    "*" if id(p) in front else "",
                ]
            )
        return t.render()
