"""Slice macros: fixed routing across the static/PRR boundary.

On the Early-Access PR flow every signal crossing between the static region
and a PRR must pass through a *slice macro* (a pre-placed, pre-routed pair
of slices straddling the region boundary).  VAPRES uses them for the module
interface buses and control signals, and the PRSocket ``SM_en`` DCR bit
(Table 1, bit 0) tri-states them during reconfiguration so that garbage
from a half-written PRR never reaches the static region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

#: Each slice macro carries this many signals (Xilinx EAPR bus macro width).
SIGNALS_PER_MACRO = 8
#: Slices consumed per macro (one on each side of the boundary).
SLICES_PER_MACRO = 2


@dataclass
class SliceMacro:
    """One bus macro crossing a PRR boundary.

    The macro transports up to :data:`SIGNALS_PER_MACRO` signals.  While
    disabled (``SM_en`` = 0) the static-side outputs are isolated: reads
    return the idle value and drives are dropped, which is what protects
    the static region during partial reconfiguration.
    """

    name: str
    col: int
    row: int
    enabled: bool = False
    idle_value: int = 0
    _value: int = field(default=0, repr=False)

    def drive(self, value: int) -> None:
        """Drive the PRR-side value onto the macro."""
        self._value = value

    def read(self) -> int:
        """Read the static-side value; isolated macros read idle."""
        return self._value if self.enabled else self.idle_value

    def set_enabled(self, enabled: bool) -> None:
        self.enabled = bool(enabled)


def macros_for_signals(signal_count: int) -> int:
    """Number of slice macros needed to carry ``signal_count`` signals."""
    if signal_count <= 0:
        return 0
    return -(-signal_count // SIGNALS_PER_MACRO)


def macro_slice_cost(signal_count: int) -> int:
    """Total slices consumed by the macros for ``signal_count`` signals."""
    return macros_for_signals(signal_count) * SLICES_PER_MACRO


def boundary_sites(
    prr_col: int, prr_row: int, prr_height: int, count: int
) -> List[Tuple[int, int]]:
    """Evenly spaced macro sites along a PRR's left boundary column."""
    if count <= 0:
        return []
    step = max(1, prr_height // count)
    sites = []
    row = prr_row
    for _ in range(count):
        sites.append((prr_col, min(row, prr_row + prr_height - 1)))
        row += step
    return sites
