"""The four-phase ghost-cell exchange (Section II-D of the paper).

Phases, matching Parthenon's function decomposition exactly (the driver
times each one separately to regenerate Figs. 11/12):

1. ``start_receive_bound_bufs`` — register the expected incoming messages.
2. ``send_bound_bufs`` — pack slabs (restricting fine→coarse data *before*
   sending, which shrinks those messages by 2**ndim), refresh the buffer
   cache, and post sends (remote) or local copies.
3. ``receive_bound_bufs`` — poll for arrivals (``MPI_Iprobe`` / ``MPI_Test``
   activity is recorded for the cost model).
4. ``set_bounds`` — unpack into fine ghost zones or into the coarse store,
   fill physical-boundary ghosts, restrict local fine data into the coarse
   store, then prolongate coarse-neighbor regions into the fine ghosts.

In numeric mode every :meth:`BoundaryExchange.rebuild` compiles an
:class:`ExchangePlan`: messages, restrictions, prolongations and physical
fills grouped by geometry, each group one fancy-indexed NumPy operation on
``(nblocks, ncomp, x3, x2, x1)`` pack storage — the Python analogue of
Parthenon packing every boundary buffer in one kernel from cached buffer
metadata.

Index conventions: all ranges are half-open cell-index intervals in the
(x1, x2, x3) order of :class:`repro.mesh.block.IndexShape`; array slices are
built in (x3, x2, x1) order.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.buffers import CacheStats, cache_stats
from repro.comm.mpi import SimMPI
from repro.comm.topology import NeighborInfo, build_neighbor_table
from repro.mesh.logical_location import LogicalLocation
from repro.mesh.mesh import Mesh
from repro.mesh.prolongation import prolong
from repro.mesh.restriction import restrict
from repro.mesh.tree import neighbor_offsets
from repro.solver.packs import MeshBlockPack

Offset = Tuple[int, int, int]
Range = Tuple[int, int]


def _key(rows: Sequence[int], ranges: Sequence[Range]) -> tuple:
    """Fancy index over ``(rows, all components, x3, x2, x1)`` storage
    selecting the (x1, x2, x3) cell ``ranges`` of every row."""
    r1, r2, r3 = ranges
    return (
        np.array(rows, dtype=np.intp),
        slice(None),
        slice(r3[0], r3[1]),
        slice(r2[0], r2[1]),
        slice(r1[0], r1[1]),
    )


@lru_cache(maxsize=65536)
def _message_geometry(
    nx: Tuple[int, int, int],
    ng: int,
    ndim: int,
    offset: Offset,
    delta: int,
    sender_parity: Tuple[int, int, int],
    receiver_parity: Tuple[int, int, int],
) -> Tuple[Tuple[Range, Range, Range], Tuple[Range, Range, Range], bool, bool]:
    """Sender and receiver cell ranges of one neighbor message, whether it
    lands in the receiver's coarse store, and whether the sender restricts
    it before sending.

    ``offset`` points from the receiver toward the sender.  ``delta`` is
    the sender's level minus the receiver's; the parities are each
    block's logical coordinates mod 2.  The geometry depends only on
    these, so it is memoized — modeled runs rebuild hundreds of
    thousands of links per cycle.
    """
    hg = ng // 2
    send: List[Range] = []
    recv: List[Range] = []
    for a in range(3):
        if a >= ndim:
            send.append((0, 1))
            recv.append((0, 1))
            continue
        o = offset[a]
        nxa = nx[a]
        ncx = nxa // 2
        if delta == 0:
            if o == -1:
                send.append((ng + nxa - ng, ng + nxa))
                recv.append((0, ng))
            elif o == 1:
                send.append((ng, 2 * ng))
                recv.append((ng + nxa, ng + nxa + ng))
            else:
                send.append((ng, ng + nxa))
                recv.append((ng, ng + nxa))
        elif delta == 1:
            # Sender is finer; send ranges are at the sender's resolution and
            # get restricted by 2x before transmission.
            if o == -1:
                send.append((ng + nxa - 2 * ng, ng + nxa))
                recv.append((0, ng))
            elif o == 1:
                send.append((ng, ng + 2 * ng))
                recv.append((ng + nxa, ng + nxa + ng))
            else:
                fi = sender_parity[a]
                send.append((ng, ng + nxa))
                recv.append((ng + fi * ncx, ng + (fi + 1) * ncx))
        elif delta == -1:
            # Sender is coarser; data lands in the receiver's coarse buffer
            # (same resolution as the sender).  Normal depth hg+1 provides
            # the extra margin cell prolongation slopes need.  ``ci`` is the
            # child index of the region adjacent to the receiver *within the
            # coarse sender* — for edge/corner offsets the coarse block can
            # wrap around the fine block, putting that region in the
            # sender's interior rather than at its boundary.
            ci = (receiver_parity[a] + o) & 1
            if o == -1:
                hi = ng + (ci + 1) * ncx
                send.append((hi - (hg + 1), hi))
                recv.append((ng - hg - 1, ng))
            elif o == 1:
                lo = ng + ci * ncx
                send.append((lo, lo + hg + 1))
                recv.append((ng + ncx, ng + ncx + hg + 1))
            else:
                send.append((ng + ci * ncx, ng + (ci + 1) * ncx))
                recv.append((ng, ng + ncx))
        else:  # pragma: no cover - 2:1 rule forbids it
            raise ValueError(f"invalid level delta {delta}")
    return tuple(send), tuple(recv), delta == -1, delta == 1


def prolong_ranges(
    nx: Tuple[int, int, int], ng: int, ndim: int, offset: Offset
) -> Tuple[Tuple[Range, Range, Range], Tuple[Range, Range, Range]]:
    """Coarse-buffer source (with 1-cell margins) and fine ghost target for
    prolongating the ghost region facing a coarser neighbor at ``offset``."""
    hg = ng // 2
    src: List[Range] = []
    tgt: List[Range] = []
    for a in range(3):
        if a >= ndim:
            src.append((0, 1))
            tgt.append((0, 1))
            continue
        o = offset[a]
        nxa = nx[a]
        ncx = nxa // 2
        if o == -1:
            src.append((ng - hg - 1, ng + 1))
            tgt.append((0, ng))
        elif o == 1:
            src.append((ng + ncx - 1, ng + ncx + hg + 1))
            tgt.append((ng + nxa, ng + nxa + ng))
        else:
            src.append((ng - 1, ng + ncx + 1))
            tgt.append((ng, ng + nxa))
    return tuple(src), tuple(tgt)


def restrict_target_ranges(
    nx: Tuple[int, int, int],
    ng: int,
    ndim: int,
    fine_ranges: Tuple[Range, Range, Range],
) -> Tuple[Range, Range, Range]:
    """Coarse-buffer ranges covered by a fine-cell region of the same block.

    Fine interior cell ``ng + i`` maps to coarse interior cell ``ng + i//2``;
    ghost cells map symmetrically.  Every fine range must be 2-aligned
    relative to the interior start, which the MeshGeometry constraints
    (block size % 4, even ng) guarantee.
    """
    out: List[Range] = []
    for a in range(3):
        if a >= ndim:
            out.append((0, 1))
            continue
        lo, hi = fine_ranges[a]
        rel_lo = lo - ng
        rel_hi = hi - ng
        if rel_lo % 2 or rel_hi % 2:
            raise ValueError(
                f"fine range {fine_ranges[a]} along dim {a} is not 2-aligned"
            )
        out.append((ng + rel_lo // 2, ng + rel_hi // 2))
    return tuple(out)


@dataclass
class ExchangeStats:
    """One exchange's communication volume, fed to the cost models."""

    messages_remote: int = 0
    messages_local: int = 0
    cells_communicated: int = 0
    bytes_communicated: int = 0
    buffers_packed: int = 0
    prolongations: int = 0
    restrictions: int = 0


@dataclass
class RebuildStats:
    """Topology/cache rebuild work (RedistributeAndRefineMeshBlocks costs)."""

    nblocks: int = 0
    nbuffers: int = 0
    cache: CacheStats = field(default_factory=CacheStats)


@dataclass
class ExchangePlan:
    """One mesh generation's numeric exchange, compiled to index groups.

    Each entry holds :func:`_key` fancy indices over pack storage (rows =
    positions in ``mesh.block_list``) or over the coarse store (rows =
    blocks with a coarser neighbor, ``ncoarse`` of them), and runs as one
    NumPy operation for all blocks that share its geometry.
    """

    #: (restrict before send, lands in the coarse store, send key,
    #: receive key), one per (level delta, send ranges, receive ranges).
    copies: List[Tuple[bool, bool, tuple, tuple]]
    #: (ghost key, edge-cell key) per physical face, in axis order.
    physical: List[Tuple[tuple, tuple]]
    #: (fine key, coarse key) per restricted fine region.
    restricts: List[Tuple[tuple, tuple]]
    #: (coarse key, fine ghost key) per coarse-neighbor offset.
    prolongs: List[Tuple[tuple, tuple]]
    ncoarse: int
    #: Messages per transmitted cell count (the message-size histogram).
    message_cells: Dict[int, int]


class BoundaryExchange:
    """Ghost-cell communication engine over a :class:`Mesh` and a SimMPI."""

    def __init__(
        self,
        mesh: Mesh,
        mpi: SimMPI,
        bytes_per_value: int = 8,
        metrics=None,
    ) -> None:
        self.mesh = mesh
        self.mpi = mpi
        self.bytes_per_value = bytes_per_value
        #: Optional :class:`repro.observability.MetricsRegistry`; when
        #: attached, per-message ghost-traffic distributions are observed.
        self.metrics = metrics
        self.neighbor_table: Dict[LogicalLocation, List[NeighborInfo]] = {}
        #: Pack whose storage the numeric exchange reads and writes; see
        #: :meth:`bind`.
        self.pack: Optional[MeshBlockPack] = None
        self._owns_pack = False
        self.plan: Optional[ExchangePlan] = None
        self._coarse: Dict[str, np.ndarray] = {}
        self._payloads: List[List[np.ndarray]] = []
        self._remote_pending = 0
        self.rebuild()

    # ------------------------------------------------------------- rebuild

    def _total_ncomp(self) -> int:
        return sum(s.ncomp for s in self.mesh.field_specs)

    def rebuild(self) -> RebuildStats:
        """Recompute neighbor lists, the buffer cache and the exchange plan.

        Must be called after every remesh or load-balance — this is the
        ``BuildTagMapAndBoundaryBuffers`` + ``SetMeshBlockNeighbors`` work
        Section II-E describes.  Both execution modes keep the same
        aggregates (per rank-pair traffic, restriction and prolongation
        counts); the modeled mode stops there, since its meshes reach
        hundreds of thousands of links, and the numeric mode also compiles
        the :class:`ExchangePlan`.
        """
        self.neighbor_table = build_neighbor_table(self.mesh)
        if not self.mesh.allocate:
            return self._rebuild_modeled()
        return self._rebuild_numeric()

    def _rebuild_numeric(self) -> RebuildStats:
        """Compile the plan and the aggregates from the neighbor table."""
        nx = self.mesh.geometry.block_size
        ng = self.mesh.geometry.ng
        ndim = self.mesh.ndim
        ncomp = self._total_ncomp()
        bpv = self.bytes_per_value
        blocks = self.mesh.block_list
        row = {blk.lloc: i for i, blk in enumerate(blocks)}
        interior = tuple(
            (ng, ng + nx[a]) if a < ndim else (0, 1) for a in range(3)
        )
        # Group key -> (rows read, rows written).
        copies = defaultdict(lambda: ([], []))
        restricts = defaultdict(lambda: ([], []))
        prolongs = defaultdict(lambda: ([], []))
        physical = defaultdict(list)
        pairs: Dict[Tuple[int, int], List[int]] = {}
        message_cells: Counter = Counter()
        nbuffers = 0
        per_rank: Dict[int, int] = {r: 0 for r in range(self.mpi.nranks)}
        restricted = 0
        ncoarse = 0
        even = (0, 0, 0)
        for r, blk in enumerate(blocks):
            nbrs = self.neighbor_table[blk.lloc]
            present = {nbr.offset for nbr in nbrs}
            coarse_offsets = {nbr.offset for nbr in nbrs if nbr.delta == -1}
            c = ncoarse
            if coarse_offsets:
                ncoarse += 1
                # Physical ghost slabs: a same-level message's receive
                # ranges for the missing offsets.
                regions = [interior] + [
                    _message_geometry(nx, ng, ndim, o, 0, even, even)[1]
                    for o in neighbor_offsets(ndim)
                    if o not in present
                ]
            rparity = (blk.lloc.lx1 & 1, blk.lloc.lx2 & 1, blk.lloc.lx3 & 1)
            nbuffers += len(nbrs)
            for nbr in nbrs:
                s = nbr.nloc
                send, recv, to_coarse, restrict_bs = _message_geometry(
                    nx, ng, ndim, nbr.offset, nbr.delta,
                    (s.lx1 & 1, s.lx2 & 1, s.lx3 & 1), rparity,
                )
                group = copies[(nbr.delta, send, recv)]
                group[0].append(row[s])
                group[1].append(c if to_coarse else r)
                cells = math.prod(hi - lo for lo, hi in recv)
                message_cells[cells] += 1
                src = blocks[row[s]].rank
                entry = pairs.setdefault((src, blk.rank), [0, 0])
                entry[0] += 1
                entry[1] += cells
                if src != blk.rank:
                    size = cells * ncomp * bpv
                    per_rank[src] += size
                    per_rank[blk.rank] += size
                restricted += restrict_bs
                if coarse_offsets and nbr.delta >= 0:
                    regions.append(recv)
            for a in range(ndim):
                for o in (-1, 1):
                    face = tuple(o if b == a else 0 for b in range(3))
                    if face not in present:
                        physical[(a, o)].append(r)
            if coarse_offsets:
                for fine in regions:
                    restricts[fine][0].append(r)
                    restricts[fine][1].append(c)
                for offset in coarse_offsets:
                    prolongs[offset][0].append(r)
                    prolongs[offset][1].append(c)
        self._agg_pairs = pairs
        self._agg_restricted_msgs = restricted
        self._agg_prolongs = sum(len(rows) for rows, _ in prolongs.values())
        self._agg_restricts = sum(len(rows) for rows, _ in restricts.values())
        self._agg_nbuffers = nbuffers
        self.plan = ExchangePlan(
            copies=[
                (delta == 1, delta == -1, _key(src, send), _key(dst, recv))
                for (delta, send, recv), (src, dst) in copies.items()
            ],
            physical=[
                self._physical_keys(rows, a, o)
                for (a, o), rows in sorted(physical.items())
            ],
            restricts=[
                (
                    _key(rows, fine),
                    _key(crows, restrict_target_ranges(nx, ng, ndim, fine)),
                )
                for fine, (rows, crows) in restricts.items()
            ],
            prolongs=[
                (_key(crows, src), _key(rows, tgt))
                for offset, (rows, crows) in prolongs.items()
                for src, tgt in [prolong_ranges(nx, ng, ndim, offset)]
            ],
            ncoarse=ncoarse,
            message_cells=dict(message_cells),
        )
        self._coarse = {}
        if self.pack is not None and self.pack.blocks != blocks:
            self.pack = None
        # Persistent send+receive buffers registered per rank for remote
        # links (the MPI part of Fig. 10's memory breakdown).
        self.mpi.set_registered_buffer_bytes(per_rank)
        return RebuildStats(
            nblocks=self.mesh.num_blocks,
            nbuffers=nbuffers,
            cache=cache_stats(nbuffers),
        )

    def _physical_keys(self, rows: List[int], a: int, o: int):
        """(ghost key, edge key) of the outflow fill of face (``a``, ``o``).

        The fill spans the full tangential extent (ghost columns included),
        so edge and corner regions bordered by physical boundaries are
        covered by the axis-ordered sequence of face fills.
        """
        ng = self.mesh.geometry.ng
        n = self.mesh.geometry.block_size[a] + 2 * ng
        ghost = [(0, t) for t in self.mesh.block_list[0].shape.total]
        edge = list(ghost)
        if o == -1:
            ghost[a], edge[a] = (0, ng), (ng, ng + 1)
        else:
            ghost[a], edge[a] = (n - ng, n), (n - ng - 1, n - ng)
        return _key(rows, ghost), _key(rows, edge)

    def _rebuild_modeled(self) -> RebuildStats:
        """Aggregate rebuild for cost-only runs: same counts, no objects."""
        nx = self.mesh.geometry.block_size
        ng = self.mesh.geometry.ng
        ndim = self.mesh.ndim
        ncomp = self._total_ncomp()
        bpv = self.bytes_per_value
        pairs: Dict[Tuple[int, int], List[int]] = {}
        restricted = 0
        prolongs = 0
        restricts = 0
        nbuffers = 0
        noffsets = len(neighbor_offsets(ndim))
        per_rank: Dict[int, int] = {r: 0 for r in range(self.mpi.nranks)}
        block_at = self.mesh.blocks_by_loc
        for blk in self.mesh.block_list:
            rparity = (blk.lloc.lx1 & 1, blk.lloc.lx2 & 1, blk.lloc.lx3 & 1)
            coarse_offsets = set()
            fine_or_same = 0
            nbrs = self.neighbor_table[blk.lloc]
            for nbr in nbrs:
                s = nbr.nloc
                _, recv, _, restrict_bs = _message_geometry(
                    nx,
                    ng,
                    ndim,
                    nbr.offset,
                    nbr.delta,
                    (s.lx1 & 1, s.lx2 & 1, s.lx3 & 1),
                    rparity,
                )
                cells = (
                    (recv[0][1] - recv[0][0])
                    * (recv[1][1] - recv[1][0])
                    * (recv[2][1] - recv[2][0])
                )
                src = block_at[s].rank
                key = (src, blk.rank)
                entry = pairs.get(key)
                if entry is None:
                    pairs[key] = [1, cells]
                else:
                    entry[0] += 1
                    entry[1] += cells
                nbuffers += 1
                if restrict_bs:
                    restricted += 1
                if nbr.delta == -1:
                    coarse_offsets.add(nbr.offset)
                else:
                    fine_or_same += 1
                if src != blk.rank:
                    size = cells * ncomp * bpv
                    per_rank[src] += size
                    per_rank[blk.rank] += size
            if coarse_offsets:
                prolongs += len(coarse_offsets)
                # The interior, each same-level or finer message's ghost
                # region, and each physical ghost slab (an offset with no
                # neighbor) are restricted into the coarse store.
                missing = noffsets - len({nbr.offset for nbr in nbrs})
                restricts += 1 + fine_or_same + missing
        self._agg_pairs = pairs
        self._agg_restricted_msgs = restricted
        self._agg_prolongs = prolongs
        self._agg_restricts = restricts
        self._agg_nbuffers = nbuffers
        self.mpi.set_registered_buffer_bytes(per_rank)
        return RebuildStats(
            nblocks=self.mesh.num_blocks,
            nbuffers=nbuffers,
            cache=cache_stats(nbuffers),
        )

    # -------------------------------------------------------------- phases

    def bind(self, pack: MeshBlockPack) -> None:
        """Exchange over ``pack``'s contiguous storage.

        ``pack`` must hold the mesh's blocks in ``mesh.block_list`` order
        with their field arrays aliasing it (:func:`build_numeric_pack`);
        a rebuild after a remesh drops it.  Without a bound pack the
        exchange packs every mesh field itself on the next send, and
        repacks whenever the blocks stop aliasing that pack.
        """
        self.pack = pack
        self._owns_pack = False

    def _field_views(self, field_names: Sequence[str]) -> List[np.ndarray]:
        """Pack-wide ``(nblocks, ncomp, x3, x2, x1)`` view of each field."""
        pack = self.pack
        if pack is not None and not (
            pack.blocks == self.mesh.block_list
            and all(
                name in pack.field_names
                and np.may_share_memory(blk.fields[name], pack.data)
                for name in field_names
                for blk in pack.blocks
            )
        ):
            if not self._owns_pack:
                raise ValueError(
                    "the bound pack does not alias the mesh's blocks for "
                    f"fields {list(field_names)}; bind the current pack"
                )
            pack = None
        if pack is None:
            pack = self.pack = MeshBlockPack(
                self.mesh.block_list,
                [s.name for s in self.mesh.field_specs],
                contiguous=True,
            )
            pack.adopt_blocks()
            self._owns_pack = True
        return [pack.field(name) for name in field_names]

    def _coarse_store(self, name: str, ncomp: int) -> np.ndarray:
        """The plan's coarse buffer for field ``name``: one row per block
        with a coarser neighbor, at the block's half-resolution shape."""
        store = self._coarse.get(name)
        if store is None:
            shape = self.mesh.block_list[0].coarse_shape.array_shape
            store = self._coarse[name] = np.zeros(
                (self.plan.ncoarse, ncomp) + shape
            )
        return store

    def start_receive_bound_bufs(self) -> int:
        """Phase 1: register expected incoming messages."""
        return self._agg_nbuffers

    def send_bound_bufs(self, field_names: Sequence[str]) -> ExchangeStats:
        """Phase 2: pack (restricting where needed) and post all messages."""
        stats = ExchangeStats()
        ncomp_by_name = {s.name: s.ncomp for s in self.mesh.field_specs}
        ncomp = sum(ncomp_by_name[name] for name in field_names)
        numeric = self.mesh.allocate
        if numeric:
            ndim = self.mesh.ndim
            self._payloads = [
                [
                    restrict(f[send], ndim) if restrict_bs else f[send]
                    for restrict_bs, _, send, _ in self.plan.copies
                ]
                for f in self._field_views(field_names)
            ]
            if self.metrics is not None:
                for cells, count in self.plan.message_cells.items():
                    self.metrics.observe(
                        "ghost_message_bytes",
                        cells * ncomp * self.bytes_per_value,
                        count=count,
                    )
        for (src, dst), (count, cells) in self._agg_pairs.items():
            nbytes = cells * ncomp * self.bytes_per_value
            self.mpi.send_bulk(src, dst, count, nbytes)
            if not numeric and self.metrics is not None and count:
                # Aggregate path: one observation per rank pair, at
                # the pair's mean message size.
                self.metrics.observe("ghost_message_bytes", nbytes / count)
            if src == dst:
                stats.messages_local += count
            else:
                stats.messages_remote += count
            stats.cells_communicated += cells
            stats.bytes_communicated += nbytes
            stats.buffers_packed += count
        # Numeric runs restrict each field of a message separately.
        stats.restrictions += self._agg_restricted_msgs * (
            len(field_names) if numeric else 1
        )
        self._remote_pending = stats.messages_remote
        return stats

    def receive_bound_bufs(self) -> int:
        """Phase 3: poll for arrivals.

        In the simulation all messages are already present; what matters for
        the cost model is the polling activity: one ``MPI_Iprobe`` nudge and
        one ``MPI_Test`` completion check per remote message.
        """
        self.mpi.iprobe(self._remote_pending)
        self.mpi.test(self._remote_pending)
        return self._agg_nbuffers

    def set_bounds(self, field_names: Sequence[str]) -> ExchangeStats:
        """Phase 4: unpack, fill physical ghosts, restrict, prolongate."""
        stats = ExchangeStats(
            prolongations=self._agg_prolongs, restrictions=self._agg_restricts
        )
        if self.mesh.allocate:
            plan = self.plan
            ndim = self.mesh.ndim
            payloads = self._payloads or [[]] * len(field_names)
            views = self._field_views(field_names)
            for name, f, payload in zip(field_names, views, payloads):
                coarse = self._coarse_store(name, f.shape[1])
                for (_, to_coarse, _, recv), slab in zip(plan.copies, payload):
                    (coarse if to_coarse else f)[recv] = slab
                for ghost, edge in plan.physical:
                    f[ghost] = f[edge]
                for fine, target in plan.restricts:
                    coarse[target] = restrict(f[fine], ndim)
                for source, ghost in plan.prolongs:
                    f[ghost] = prolong(coarse[source], ndim)
            self._payloads = []
        return stats

    def exchange(self, field_names: Sequence[str]) -> ExchangeStats:
        """Run all four phases; convenience for tests and examples."""
        self.start_receive_bound_bufs()
        stats = self.send_bound_bufs(field_names)
        self.receive_bound_bufs()
        set_stats = self.set_bounds(field_names)
        stats.prolongations += set_stats.prolongations
        stats.restrictions += set_stats.restrictions
        return stats
