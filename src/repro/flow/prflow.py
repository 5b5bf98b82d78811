"""Partial-reconfiguration baseline (the paper's §II comparison).

PRFlow-style systems fix reconfigurable partitions at compile time; at
run time a module update must fit its assigned partition.  The paper's
§I/§II critique: "the updated module might have a much higher or lower
resource usage than the assigned FPGA area. In the first case, the
reconfiguration is unfeasible. In the latter one, the module uses fewer
resources than assigned, wasting area."

This module implements that baseline so the critique can be measured:
partitions are provisioned once (with a headroom factor over the initial
modules), and a DSE step either fits — wasting the headroom — or fails
and forces a full re-floorplan.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.device.grid import DeviceGrid
from repro.flow.blockdesign import BlockDesign
from repro.flow.cache import ModuleCache
from repro.flow.placers import SAPlacer
from repro.flow.policy import CFPolicy
from repro.flow.rwflow import RWFlowResult, run_rw_flow
from repro.flow.stitcher import SAParams
from repro.netlist.stats import NetlistStats, compute_stats
from repro.place.packer import slice_demand
from repro.synth.mapper import opt_design, synthesize
from repro.utils.validation import check_positive

__all__ = [
    "Partition",
    "PRPlan",
    "plan_partitions",
    "apply_update",
    "refloorplan",
]


@dataclass(frozen=True)
class Partition:
    """One fixed reconfigurable partition."""

    module: str
    capacity_slices: int

    def fits(self, demand: int) -> bool:
        """Whether a module with ``demand`` slices reconfigures into it."""
        return demand <= self.capacity_slices


@dataclass(frozen=True)
class PRPlan:
    """A compile-time partition plan for a block design."""

    partitions: dict[str, Partition]
    headroom: float

    @property
    def total_capacity(self) -> int:
        """Reserved device area (the static cost of the PR approach)."""
        return sum(p.capacity_slices for p in self.partitions.values())

    def waste_for(self, demands: dict[str, int]) -> int:
        """Reserved-but-unused slices for the given module demands."""
        waste = 0
        for name, p in self.partitions.items():
            waste += max(0, p.capacity_slices - demands.get(name, 0))
        return waste


@dataclass(frozen=True)
class UpdateOutcome:
    """Result of reconfiguring one module update into a fixed plan."""

    module: str
    demand: int
    fits: bool
    wasted_slices: int

    @property
    def requires_refloorplan(self) -> bool:
        """True when the update cannot be loaded (paper: 'unfeasible')."""
        return not self.fits


def plan_partitions(
    design: BlockDesign, grid: DeviceGrid, headroom: float = 1.25
) -> PRPlan:
    """Provision one partition per unique module, sized offline.

    Parameters
    ----------
    design:
        The initial design.
    grid:
        Target device (the plan must fit it).
    headroom:
        Capacity multiplier over each module's initial demand — the
        designer's guess at future growth.

    Raises
    ------
    ValueError
        If the provisioned partitions exceed the device (the PR approach
        cannot even be planned for near-full designs with headroom).
    """
    check_positive(headroom, "headroom")
    partitions: dict[str, Partition] = {}
    for name, module in design.modules.items():
        stats = compute_stats(opt_design(synthesize(module)))
        demand = slice_demand(stats)
        partitions[name] = Partition(
            module=name, capacity_slices=int(demand * headroom) + 1
        )
    plan = PRPlan(partitions=partitions, headroom=headroom)
    counts = design.instance_counts()
    reserved = sum(
        p.capacity_slices * counts[p.module] for p in partitions.values()
    )
    if reserved > grid.device_caps().slices:
        raise ValueError(
            f"PR plan needs {reserved} slices but {grid.name} has "
            f"{grid.device_caps().slices} — cannot provision headroom "
            f"{headroom} for this design"
        )
    return plan


def apply_update(plan: PRPlan, module_stats: NetlistStats) -> UpdateOutcome:
    """Reconfigure an updated module into its fixed partition."""
    name = module_stats.name
    if name not in plan.partitions:
        raise KeyError(f"no partition for module {name!r}")
    demand = slice_demand(module_stats)
    partition = plan.partitions[name]
    fits = partition.fits(demand)
    return UpdateOutcome(
        module=name,
        demand=demand,
        fits=fits,
        wasted_slices=max(0, partition.capacity_slices - demand) if fits else 0,
    )


def refloorplan(
    design: BlockDesign,
    grid: DeviceGrid,
    policy: CFPolicy,
    *,
    sa_params: SAParams | None = None,
    kernel: str = "fast",
    n_seeds: int = 1,
    n_workers: int | None = None,
    preimpl_workers: int | None = None,
    cache: "ModuleCache | None" = None,
    cache_dir: str | None = None,
) -> RWFlowResult:
    """Full re-floorplan after an unfeasible update (the PR failure path).

    When :func:`apply_update` reports ``requires_refloorplan``, the only
    recovery in a fixed-partition system is a complete recompile of the
    updated design — exactly the cost the paper's RW-style flow avoids.
    This delegates to :func:`~repro.flow.rwflow.run_rw_flow`, exposing
    the stitcher kernel and multi-seed restart knobs so the expensive
    recovery can at least use the best placement of several seeds, and
    the pre-implementation cache/worker knobs so the recompile reuses
    every module the update did not touch.
    """
    return run_rw_flow(
        design,
        grid,
        policy,
        placer=SAPlacer(sa_params or SAParams(), kernel=kernel),
        n_seeds=n_seeds,
        n_workers=n_workers,
        preimpl_workers=preimpl_workers,
        cache=cache,
        cache_dir=cache_dir,
    )
