"""Boundary-buffer bookkeeping: keys, cache initialization, rebuild accounting.

Section VIII-A of the paper singles out two serial hot spots here, both of
which this module reproduces functionally so the cost model can charge them:

* ``InitializeBufferCache`` sorts the boundary keys and then applies a
  (deterministic, seeded) randomization — Parthenon shuffles buffer order to
  improve communication load balance, at the price of serial overhead every
  ``SendBoundBufs`` invocation.
* ``RebuildBufferCache`` repopulates ViewsOfViews metadata (sizes,
  restriction/prolongation flags) with per-buffer allocations and
  host-to-device copies whenever the topology changes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.mesh.logical_location import LogicalLocation

Offset = Tuple[int, int, int]


@dataclass(frozen=True, order=True)
class BufferKey:
    """Identity of one directed boundary buffer (sender → receiver)."""

    sender: LogicalLocation
    receiver: LogicalLocation
    offset: Offset  # from the receiver's perspective


@dataclass
class CacheStats:
    """Work performed by cache maintenance, for the serial cost model."""

    keys_sorted: int = 0
    keys_shuffled: int = 0
    views_rebuilt: int = 0
    h2d_copies: int = 0
    metadata_bytes: int = 0


class BufferCache:
    """Ordered registry of boundary buffers for one mesh configuration."""

    # Metadata carried per buffer in the ViewsOfViews structure: sizes,
    # offsets, restriction/prolongation flags, neighbor ids (~6 x 8B words).
    METADATA_BYTES_PER_BUFFER = 48

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.order: List[BufferKey] = []
        self.sizes: Dict[BufferKey, int] = {}
        self.stale: Dict[BufferKey, bool] = {}

    def __len__(self) -> int:
        return len(self.order)

    @staticmethod
    def _sort_key(key: BufferKey):
        """Plain-tuple sort key (dataclass comparisons are slow in bulk)."""
        s, r = key.sender, key.receiver
        return (
            s.level, s.lx1, s.lx2, s.lx3,
            r.level, r.lx1, r.lx2, r.lx3,
            key.offset,
        )

    def initialize(self, keys_with_sizes: Dict[BufferKey, int]) -> CacheStats:
        """(Re)build the ordered buffer list: sort, then shuffle.

        Returns the work counters the serial cost model charges for
        ``InitializeBufferCache``.
        """
        keys = sorted(keys_with_sizes, key=self._sort_key)
        rng = random.Random(self.seed)
        rng.shuffle(keys)
        self.order = keys
        self.sizes = dict(keys_with_sizes)
        self.stale = {k: False for k in keys}
        return CacheStats(
            keys_sorted=len(keys),
            keys_shuffled=len(keys),
        )

    def initialize_counts(self, nbuffers: int) -> CacheStats:
        """Count-only initialization for the modeled execution mode.

        The platform model only needs the amount of sorting/shuffling work;
        maintaining a million-entry ordered list in Python would just slow
        the simulation down without changing any reported quantity.
        """
        self.order = []
        self.sizes = {}
        self.stale = {}
        self._count = nbuffers
        return CacheStats(keys_sorted=nbuffers, keys_shuffled=nbuffers)

    def rebuild_views(self) -> CacheStats:
        """Account for ViewsOfViews metadata population (RebuildBufferCache)."""
        n = len(self.order)
        return CacheStats(
            views_rebuilt=n,
            h2d_copies=n,
            metadata_bytes=n * self.METADATA_BYTES_PER_BUFFER,
        )

    def mark_stale(self) -> int:
        """Mark every buffer stale after SetBounds consumed it (§II-D)."""
        # fromkeys over a dict reuses the stored hashes: no key is rehashed.
        self.stale = dict.fromkeys(self.stale, True)
        return len(self.stale)

    def total_buffer_bytes(self) -> int:
        return sum(self.sizes.values())
