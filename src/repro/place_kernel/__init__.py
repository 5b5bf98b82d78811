"""Shared placement kernel: geometry, cost and legality for macro placers.

Extracted from ``repro.flow.stitcher`` so that every placement
optimizer — the SA stitcher, the GA evolver, and whatever comes next —
drives the *same* primitives:

* :mod:`repro.place_kernel.sites` — per-footprint compatible-site
  tables (anchor columns, hard-block pitch, occupancy bitmasks);
* :mod:`repro.place_kernel.kernel` — the move kernel: bitmask
  occupancy, the packing and HPWL primitives and one fused move loop,
  held bit for bit to the straightforward oracle in
  ``tests/kernel_reference.py``;
* :mod:`repro.place_kernel.uniform` — the batched uniform stream all
  optimizer randomness flows through;
* :mod:`repro.place_kernel.problem` — the flattened
  :class:`PlacementProblem` instance both optimizers score;
* :mod:`repro.place_kernel.result` — the shared
  :class:`StitchResult`/:class:`StitchStats` outcome shape;
* :mod:`repro.place_kernel.protocol` — the :class:`Placer` protocol the
  optimizer portfolio is built on, and its :class:`WarmStartPlacer`
  refinement.

Invariants (no overlap, in-bounds anchors, column-kind compatibility,
hard-block pitch) are enforced across optimizers by
``tests/test_place_kernel.py``.
"""

from repro.place_kernel.kernel import PlacementKernel
from repro.place_kernel.problem import PlacementProblem
from repro.place_kernel.protocol import Placer, WarmStartPlacer
from repro.place_kernel.result import StitchResult, StitchStats
from repro.place_kernel.route_cost import (
    CHANNEL_CAPACITY,
    RouteCostModel,
    build_route_model,
    channel_window,
    edge_criticality,
)
from repro.place_kernel.sites import (
    HARD_KINDS,
    HARD_PITCH,
    SiteTable,
    dilate_down,
    site_table,
)
from repro.place_kernel.uniform import UniformBuffer

__all__ = [
    "CHANNEL_CAPACITY",
    "HARD_KINDS",
    "HARD_PITCH",
    "Placer",
    "PlacementKernel",
    "PlacementProblem",
    "RouteCostModel",
    "SiteTable",
    "StitchResult",
    "StitchStats",
    "UniformBuffer",
    "WarmStartPlacer",
    "build_route_model",
    "channel_window",
    "dilate_down",
    "edge_criticality",
    "site_table",
]
