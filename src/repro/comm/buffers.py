"""Boundary-buffer cache accounting: the work each rebuild charges.

Section VIII-A of the paper singles out two serial hot spots here; the
cost model charges both from the buffer count alone:

* ``InitializeBufferCache`` sorts the boundary keys and then applies a
  (deterministic, seeded) randomization — Parthenon shuffles buffer order to
  improve communication load balance, at the price of serial overhead every
  ``SendBoundBufs`` invocation.
* ``RebuildBufferCache`` repopulates ViewsOfViews metadata (sizes,
  restriction/prolongation flags) with per-buffer allocations and
  host-to-device copies whenever the topology changes.

No reported quantity depends on the key order itself, so none is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Metadata carried per buffer in the ViewsOfViews structure: sizes,
#: offsets, restriction/prolongation flags, neighbor ids (~6 x 8B words).
METADATA_BYTES_PER_BUFFER = 48


@dataclass
class CacheStats:
    """Work performed by cache maintenance, for the serial cost model."""

    keys_sorted: int = 0
    keys_shuffled: int = 0
    views_rebuilt: int = 0
    h2d_copies: int = 0
    metadata_bytes: int = 0


def cache_stats(nbuffers: int) -> CacheStats:
    """Cache work of one rebuild over ``nbuffers`` boundary buffers: every
    key sorted and shuffled, every ViewsOfViews entry populated and
    copied to the device."""
    return CacheStats(
        keys_sorted=nbuffers,
        keys_shuffled=nbuffers,
        views_rebuilt=nbuffers,
        h2d_copies=nbuffers,
        metadata_bytes=nbuffers * METADATA_BYTES_PER_BUFFER,
    )
