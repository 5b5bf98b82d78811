"""Compilation flows.

* :mod:`repro.flow.blockdesign` — the multi-block design model RapidWright
  expects as input (modules, instances, inter-block connections);
* :mod:`repro.flow.preimpl` — per-module pre-implementation (synthesis →
  quick place → PBlock → detailed place) with caching of unique modules;
* :mod:`repro.flow.policy` — correction-factor selection policies
  (fixed, sweep-from-0.9, ground-truth minimal; the learned policy lives
  in :mod:`repro.estimator`);
* :mod:`repro.flow.stitcher` — the simulated-annealing macro placer that
  assembles pre-implemented blocks into a full-device placement (two
  equivalence-tested move kernels: ``"fast"`` and ``"reference"``,
  shared via :mod:`repro.place_kernel`);
* :mod:`repro.flow.evolve` — the evolutionary (GA) macro placer driving
  the same move kernel and objective as the stitcher;
* :mod:`repro.flow.tempering` — cooperative parallel tempering (replica
  exchange across a ladder of SA chains over the same kernel);
* :mod:`repro.flow.global_place` — the analytic global placer (smooth
  HPWL gradient descent + column-aware legalization) feeding the SA
  stitcher a near-legal warm start at zero kernel-op spend;
* :mod:`repro.flow.placers` — the optimizer portfolio (SA, GA,
  warm-started SA, parallel tempering, analytic-warm-started SA) behind
  the :class:`~repro.place_kernel.protocol.Placer` protocol;
* :mod:`repro.flow.fanout` — the shared order-preserving process
  fan-out and pareto winner selection;
* :mod:`repro.flow.restarts` — multi-seed restarts of any placer
  (:func:`~repro.flow.restarts.best_of`);
* :mod:`repro.flow.monolithic` — the flat "AMD EDA"-style whole-device
  flow used as the paper's baseline (Table I, Fig. 5a);
* :mod:`repro.flow.rwflow` — the end-to-end RapidWright-style flow;
* :mod:`repro.flow.bitgen` — bitstream assembly of a stitched placement;
* :mod:`repro.flow.prflow` — the fixed-partition PR baseline the paper's
  §II argues against;
* :mod:`repro.flow.design_io` / :mod:`repro.flow.analysis_graph` — design
  persistence and structural diagnostics;
* :mod:`repro.flow.results` — cross-policy comparisons.
"""

from repro.flow.bitgen import Bitstream, generate_bitstream
from repro.flow.analysis_graph import DesignGraphStats, analyze_design
from repro.flow.blockdesign import BlockDesign, Edge, Instance
from repro.flow.cache import (
    CacheStats,
    ModuleCache,
    cache_key,
    grid_fingerprint,
    module_fingerprint,
    policy_fingerprint,
)
from repro.flow.design_io import load_design, save_design
from repro.flow.evolve import GAParams, evolve
from repro.flow.global_place import GPParams, global_place
from repro.flow.monolithic import MonolithicResult, monolithic_flow
from repro.flow.placers import (
    AnalyticPlacer,
    GAPlacer,
    SAPlacer,
    TemperedSAPlacer,
    WarmStartedSAPlacer,
    default_portfolio,
)
from repro.flow.policy import (
    CFOutcome,
    CFPolicy,
    FixedCF,
    FlowInfeasibleError,
    MinimalCFPolicy,
    SweepCF,
)
from repro.flow.preimpl import (
    FlowInfeasibleReport,
    FlowStats,
    ImplementedModule,
    ModuleFailure,
    ModuleFlowStats,
    PreImplResult,
    implement_design,
    implement_module,
)
from repro.flow.prflow import (
    PRPlan,
    Partition,
    apply_update,
    plan_partitions,
    refloorplan,
)
from repro.flow.restarts import best_of
from repro.flow.results import FlowComparison, compare_flows
from repro.flow.rwflow import RWFlowResult, run_rw_flow
from repro.flow.stitcher import (
    KERNELS,
    SAParams,
    StitchResult,
    StitchStats,
    stitch,
)
from repro.flow.tempering import PTParams, temper

__all__ = [
    "AnalyticPlacer",
    "Bitstream",
    "BlockDesign",
    "CacheStats",
    "DesignGraphStats",
    "CFOutcome",
    "CFPolicy",
    "Edge",
    "FixedCF",
    "FlowComparison",
    "FlowInfeasibleError",
    "FlowInfeasibleReport",
    "FlowStats",
    "GAParams",
    "GAPlacer",
    "GPParams",
    "ImplementedModule",
    "Instance",
    "KERNELS",
    "MinimalCFPolicy",
    "ModuleCache",
    "ModuleFailure",
    "ModuleFlowStats",
    "MonolithicResult",
    "PRPlan",
    "PTParams",
    "Partition",
    "PreImplResult",
    "RWFlowResult",
    "SAParams",
    "SAPlacer",
    "StitchResult",
    "StitchStats",
    "SweepCF",
    "TemperedSAPlacer",
    "WarmStartedSAPlacer",
    "analyze_design",
    "apply_update",
    "best_of",
    "cache_key",
    "compare_flows",
    "default_portfolio",
    "evolve",
    "generate_bitstream",
    "global_place",
    "grid_fingerprint",
    "implement_design",
    "implement_module",
    "load_design",
    "module_fingerprint",
    "monolithic_flow",
    "plan_partitions",
    "policy_fingerprint",
    "refloorplan",
    "run_rw_flow",
    "save_design",
    "stitch",
    "temper",
]
