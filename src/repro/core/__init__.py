"""The characterization toolkit — the paper's primary contribution.

Everything needed to regenerate the paper's evaluation: the figure of merit
(Section III-A), parameter sweeps (Sections IV-A..IV-E and V), the Table III
microarchitecture builder, the Section VIII-B memory-footprint model, the
Fig. 13 opcode analysis, optimization ablations (Section VIII), and plain-
text rendering of every figure/table.
"""

from repro.core.fom import zone_cycles, zone_cycles_per_second
from repro.core.memory_footprint import (
    aux_memory_bytes_per_block,
    aux_memory_post_optimization,
    aux_memory_pre_optimization,
)

__all__ = [
    "zone_cycles",
    "zone_cycles_per_second",
    "aux_memory_bytes_per_block",
    "aux_memory_pre_optimization",
    "aux_memory_post_optimization",
]
