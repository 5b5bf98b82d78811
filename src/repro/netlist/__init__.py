"""Technology-mapped netlist model.

A :class:`~repro.netlist.netlist.Netlist` is what the synthesis simulator
produces for a module and what the placer consumes.  It is kept as
aggregates rather than one object per cell or net: cell counts per
:class:`CellKind` (LUTs, FFs, CARRY4 chains, SRLs, LUTRAMs, BRAMs, DSPs),
the LUT-input sum, a signal-net fanout histogram, the carry-chain widths,
and flip-flop *control sets* (clock/reset/enable groups, paper §V-B) with
their FF counts.  Aggregate statistics used by placement and feature
extraction live in :class:`~repro.netlist.stats.NetlistStats` and are
computed once per netlist.
"""

from repro.netlist.cells import CellKind
from repro.netlist.control_sets import ControlSet
from repro.netlist.netlist import Netlist, NetlistBuilder
from repro.netlist.stats import NetlistStats, compute_stats

__all__ = [
    "CellKind",
    "ControlSet",
    "Netlist",
    "NetlistBuilder",
    "NetlistStats",
    "compute_stats",
]
