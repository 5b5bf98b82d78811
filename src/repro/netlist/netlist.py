"""Netlist container and builder.

The builder is the only way the synthesis simulator constructs netlists; it
merges duplicate control sets and records carry chains, so every
:class:`Netlist` is well formed by construction.

A netlist keeps the aggregates its statistics are made of, not one object
per cell or net: everything downstream reads a module only through
:class:`~repro.netlist.stats.NetlistStats`, so adding ``n`` identical
cells is one counter update.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from repro.netlist.cells import CellKind
from repro.netlist.control_sets import ControlSet
from repro.utils.validation import check_non_negative, check_positive

__all__ = ["Netlist", "NetlistBuilder"]

_CARRY_BITS = 4


@dataclass(eq=False)
class Netlist:
    """A technology-mapped module netlist, as aggregates.

    Attributes
    ----------
    name:
        Module name (unique within a block design).
    cell_counts:
        Number of cells of each kind (kinds without cells are absent).
    lut_input_sum:
        Used input pins summed over all LUT cells.
    ff_per_control_set:
        Flip-flop count of every control set holding at least one FF.
    used_control_sets:
        Indices of the control sets referenced by any FF, SRL or LUTRAM.
    signal_fanouts:
        Histogram of signal-net fanouts: ``fanout -> number of nets``.
    n_control_nets:
        Clock/reset/enable nets; they ride dedicated routing and are kept
        out of the fanout histogram.
    control_sets:
        De-duplicated control-set table, indexed by the ints above.
    carry_chains:
        Bit width of each carry chain (a chain of ``b`` bits occupies
        ``ceil(b / 4)`` vertically contiguous slices).
    logic_depth:
        Estimated combinational LUT levels on the longest path (set by the
        synthesis simulator; feeds the timing model).
    """

    name: str
    cell_counts: dict[CellKind, int]
    lut_input_sum: int
    ff_per_control_set: dict[int, int]
    used_control_sets: frozenset[int]
    signal_fanouts: dict[int, int]
    n_control_nets: int
    control_sets: tuple[ControlSet, ...]
    carry_chains: tuple[int, ...]
    logic_depth: int
    _stats: object = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        check_non_negative(self.logic_depth, "logic_depth")

    @property
    def n_cells(self) -> int:
        """Number of primitive cells."""
        return sum(self.cell_counts.values())

    @property
    def n_nets(self) -> int:
        """Number of nets (signal and control)."""
        return sum(self.signal_fanouts.values()) + self.n_control_nets

    def count(self, kind: CellKind) -> int:
        """Number of cells of one kind."""
        return self.cell_counts.get(kind, 0)


class NetlistBuilder:
    """Incrementally assembles a :class:`Netlist`.

    Every cell-adding method also adds each cell's output net.  Fanouts
    default to 1 and can be overridden to model broadcast signals; a
    negative fanout is rejected.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._cells: Counter[CellKind] = Counter()
        self._lut_inputs = 0
        self._ff_by_cs: Counter[int] = Counter()
        self._cs_used: set[int] = set()
        self._fanouts: Counter[int] = Counter()
        self._n_control_nets = 0
        self._control_sets: list[ControlSet] = []
        self._cs_index: dict[tuple[str, str, str], int] = {}
        self._carry_chains: list[int] = []
        self._depth = 0

    # ------------------------------------------------------------------ control

    def control_set(self, clock: str, reset: str = "", enable: str = "") -> int:
        """Intern a control set; returns its index (merging duplicates)."""
        cs = ControlSet(clock=clock, reset=reset, enable=enable)
        idx = self._cs_index.get(cs.key())
        if idx is None:
            idx = len(self._control_sets)
            self._control_sets.append(cs)
            self._cs_index[cs.key()] = idx
        return idx

    # ------------------------------------------------------------------ cells

    def _add(self, kind: CellKind, n: int, fanout: int, cs_index: int = -1) -> None:
        """Add ``n`` cells of ``kind``, each driving one ``fanout`` net."""
        check_non_negative(n, "n")
        check_non_negative(fanout, "fanout")
        if n == 0:
            return
        self._cells[kind] += n
        self._fanouts[fanout] += n
        if cs_index >= 0:
            self._cs_used.add(cs_index)

    def add_lut(self, inputs: int = 4, fanout: int = 1) -> None:
        """Add one LUT and its output net."""
        self.add_luts(1, inputs=inputs, fanout=fanout)

    def add_luts(self, n: int, inputs: int = 4, fanout: int = 1) -> None:
        """Add ``n`` identical LUTs."""
        if not 1 <= inputs <= 6:
            raise ValueError(f"LUT inputs must be 1..6, got {inputs}")
        self._add(CellKind.LUT, n, fanout)
        self._lut_inputs += n * inputs

    def add_ff(self, cs_index: int, fanout: int = 1) -> None:
        """Add one flip-flop in control set ``cs_index``."""
        self.add_ffs(1, cs_index, fanout=fanout)

    def add_ffs(self, n: int, cs_index: int, fanout: int = 1) -> None:
        """Add ``n`` flip-flops sharing one control set."""
        if not 0 <= cs_index < len(self._control_sets):
            raise IndexError(f"control set {cs_index} not interned")
        self._add(CellKind.FF, n, fanout, cs_index)
        if n:
            self._ff_by_cs[cs_index] += n

    def add_carry_chain(self, bits: int, fanout: int = 1) -> int:
        """Add a carry chain of ``bits`` bits; returns the chain id.

        Emits one CARRY4 cell per started 4-bit segment and one output net;
        the placer keeps a chain's segments vertically contiguous.
        """
        check_positive(bits, "bits")
        check_non_negative(fanout, "fanout")
        chain_id = len(self._carry_chains)
        self._carry_chains.append(bits)
        self._cells[CellKind.CARRY4] += math.ceil(bits / _CARRY_BITS)
        self._fanouts[fanout] += 1
        return chain_id

    def add_srl(self, cs_index: int, depth: int = 16, fanout: int = 1) -> None:
        """Add one shift-register LUT (M-slice site)."""
        self.add_srls(1, cs_index, depth=depth, fanout=fanout)

    def add_srls(self, n: int, cs_index: int, depth: int = 16, fanout: int = 1) -> None:
        """Add ``n`` SRLs sharing one control set."""
        if not 1 <= depth <= 32:
            raise ValueError(f"SRL depth must be 1..32, got {depth}")
        self._add(CellKind.SRL, n, fanout, cs_index)

    def add_lutram(self, cs_index: int, fanout: int = 1) -> None:
        """Add one distributed-RAM LUT (M-slice site)."""
        self.add_lutrams(1, cs_index, fanout=fanout)

    def add_lutrams(self, n: int, cs_index: int, fanout: int = 1) -> None:
        """Add ``n`` LUTRAMs sharing one control set."""
        self._add(CellKind.LUTRAM, n, fanout, cs_index)

    def add_bram(self, n: int = 1, fanout: int = 2) -> None:
        """Add ``n`` BRAM36 instances."""
        self._add(CellKind.BRAM36, n, fanout)

    def add_dsp(self, n: int = 1, fanout: int = 1) -> None:
        """Add ``n`` DSP48 instances."""
        self._add(CellKind.DSP48, n, fanout)

    def add_broadcast_net(self, fanout: int, is_control: bool = False) -> None:
        """Add a net without a cell (module input / global broadcast)."""
        check_non_negative(fanout, "fanout")
        if is_control:
            self._n_control_nets += 1
        else:
            self._fanouts[fanout] += 1

    # ------------------------------------------------------------------ meta

    def bump_depth(self, levels: int) -> None:
        """Extend the longest combinational path by ``levels`` LUT levels."""
        check_non_negative(levels, "levels")
        self._depth += levels

    def set_min_depth(self, levels: int) -> None:
        """Ensure the depth estimate is at least ``levels``."""
        self._depth = max(self._depth, levels)

    def build(self) -> Netlist:
        """Finalize and return the netlist."""
        return Netlist(
            name=self.name,
            cell_counts=dict(self._cells),
            lut_input_sum=self._lut_inputs,
            ff_per_control_set=dict(self._ff_by_cs),
            used_control_sets=frozenset(self._cs_used),
            signal_fanouts=dict(self._fanouts),
            n_control_nets=self._n_control_nets,
            control_sets=tuple(self._control_sets),
            carry_chains=tuple(self._carry_chains),
            logic_depth=self._depth,
        )
