"""Cell kinds of the technology-mapped netlist."""

from __future__ import annotations

import enum

__all__ = ["CellKind"]


class CellKind(enum.Enum):
    """Primitive kinds emitted by the synthesis simulator."""

    LUT = "LUT"          # combinational 6-input LUT
    FF = "FF"            # flip-flop (belongs to a control set)
    CARRY4 = "CARRY4"    # one 4-bit carry segment (part of a chain)
    SRL = "SRL"          # shift register in an M-slice LUT site
    LUTRAM = "LUTRAM"    # distributed RAM in an M-slice LUT site
    BRAM36 = "BRAM36"    # 36-kbit block RAM
    DSP48 = "DSP48"      # DSP slice

    @property
    def needs_m_slice(self) -> bool:
        """True for cells that only map to M-type slices (paper §V-A)."""
        return self in (CellKind.SRL, CellKind.LUTRAM)
