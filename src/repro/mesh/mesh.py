"""The Mesh: geometry, the block tree, and the live MeshBlock registry.

Follows Section II-F of the paper: a Mesh is composed of MeshBlocks, the
MeshBlock is the unit of refinement, the total mesh size must be an exact
multiple of the MeshBlock size, and ``#AMR Levels`` caps the tree depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.mesh.block import FieldSpec, MeshBlock
from repro.mesh.logical_location import LogicalLocation
from repro.mesh.prolongation import prolong
from repro.mesh.restriction import restrict
from repro.mesh.tree import BlockTree


@dataclass(frozen=True)
class MeshGeometry:
    """Static description of the computational domain and its tiling.

    ``mesh_size`` and ``block_size`` are cells per dimension; unused
    dimensions must be 1.  ``ng`` is the ghost-zone depth (4 for WENO5,
    2 for PLM reconstruction).
    """

    ndim: int
    mesh_size: Tuple[int, int, int]
    block_size: Tuple[int, int, int]
    ng: int = 4
    num_levels: int = 1
    domain: Tuple[Tuple[float, float], ...] = (
        (0.0, 1.0),
        (0.0, 1.0),
        (0.0, 1.0),
    )
    periodic: Tuple[bool, bool, bool] = (True, True, True)

    def __post_init__(self) -> None:
        if self.ndim not in (1, 2, 3):
            raise ValueError(f"ndim must be 1, 2 or 3, got {self.ndim}")
        if self.num_levels < 1:
            raise ValueError(f"num_levels must be >= 1, got {self.num_levels}")
        for a in range(3):
            n, b = self.mesh_size[a], self.block_size[a]
            if a >= self.ndim:
                if n != 1 or b != 1:
                    raise ValueError(
                        f"unused dimension {a} must have mesh and block size 1"
                    )
                continue
            if b < 1 or n < 1:
                raise ValueError("mesh and block sizes must be positive")
            if n % b != 0:
                raise ValueError(
                    f"mesh size {n} is not a multiple of block size {b} "
                    f"along dimension {a} (Section II-F rule)"
                )
            if self.num_levels > 1:
                if b % 4 != 0:
                    raise ValueError(
                        f"block size {b} must be a multiple of 4 for AMR "
                        "restriction and fine-neighbor ghost alignment"
                    )
                if self.ng % 2 != 0:
                    raise ValueError(
                        f"ghost depth {self.ng} must be even for AMR "
                        "restriction before send"
                    )
                if b < 2 * self.ng:
                    raise ValueError(
                        f"block size {b} must be >= 2*ng = {2 * self.ng} so a "
                        "fine block can fill a coarse neighbor's ghost zones"
                    )
            elif b < self.ng:
                raise ValueError(f"block size {b} must be >= ng = {self.ng}")

    @property
    def nroot(self) -> Tuple[int, int, int]:
        """Base-grid blocks per dimension."""
        return tuple(
            self.mesh_size[a] // self.block_size[a] for a in range(3)
        )

    def block_bounds(
        self, lloc: LogicalLocation
    ) -> Tuple[Tuple[float, float], ...]:
        """Physical bounds of the block at ``lloc``."""
        out = []
        for a in range(3):
            lo, hi = self.domain[a]
            if a >= self.ndim:
                out.append((lo, hi))
                continue
            nblocks = self.nroot[a] << lloc.level
            width = (hi - lo) / nblocks
            x0 = lo + lloc.coord(a) * width
            out.append((x0, x0 + width))
        return tuple(out)

    def finest_dx(self, axis: int) -> float:
        """Cell width along ``axis`` at the finest allowed level."""
        lo, hi = self.domain[axis]
        cells = self.mesh_size[axis] << (self.num_levels - 1)
        return (hi - lo) / cells


@dataclass
class RemeshStats:
    """Bookkeeping from one remesh, consumed by the platform cost model."""

    created: int = 0
    destroyed: int = 0
    refined_parents: int = 0
    derefined_parents: int = 0
    moved_cost: float = 0.0


class Mesh:
    """The live mesh: tree + blocks + field registry.

    Parameters
    ----------
    geometry:
        Domain/tiling description.
    field_specs:
        Cell-centered fields every block carries.
    allocate:
        False selects the platform-model execution mode: blocks carry no
        NumPy data, but all tree/topology/cost bookkeeping still runs.
    """

    def __init__(
        self,
        geometry: MeshGeometry,
        field_specs: Sequence[FieldSpec] = (),
        allocate: bool = True,
    ) -> None:
        self.geometry = geometry
        self.field_specs: List[FieldSpec] = list(field_specs)
        self.allocate = allocate
        self.tree = BlockTree(
            nroot=geometry.nroot,
            ndim=geometry.ndim,
            num_levels=geometry.num_levels,
            periodic=geometry.periodic,
        )
        self.blocks_by_loc: Dict[LogicalLocation, MeshBlock] = {}
        self.block_list: List[MeshBlock] = []
        self._next_uid = 0
        #: Bumped on every :meth:`remesh` — refinement policies compare it
        #: against the generation they last cleaned up after, turning a
        #: missed ``forget_stale`` into a loud error instead of a leak.
        self.remesh_generation = 0
        for lloc in self.tree.leaves_sorted():
            self.blocks_by_loc[lloc] = self._make_block(lloc)
        self._renumber()

    # ------------------------------------------------------------- queries

    @property
    def ndim(self) -> int:
        return self.geometry.ndim

    @property
    def num_blocks(self) -> int:
        return len(self.block_list)

    def block(self, gid: int) -> MeshBlock:
        return self.block_list[gid]

    def block_at(self, lloc: LogicalLocation) -> MeshBlock:
        return self.blocks_by_loc[lloc]

    def total_interior_cells(self) -> int:
        """Total cell count over all blocks — one cycle's 'cell updates'."""
        return sum(b.interior_cells for b in self.block_list)

    def blocks_on_rank(self, rank: int) -> List[MeshBlock]:
        return [b for b in self.block_list if b.rank == rank]

    def level_counts(self) -> Dict[int, int]:
        return self.tree.level_counts()

    # ------------------------------------------------------------ plumbing

    def _make_block(self, lloc: LogicalLocation) -> MeshBlock:
        blk = MeshBlock(
            lloc=lloc,
            gid=-1,
            nx=self.geometry.block_size,
            ng=self.geometry.ng,
            ndim=self.geometry.ndim,
            bounds=self.geometry.block_bounds(lloc),
            field_specs=self.field_specs,
            allocate=self.allocate,
        )
        blk.uid = self._next_uid
        self._next_uid += 1
        return blk

    def _renumber(self) -> None:
        """Reassign dense gids in Morton order after any tree change."""
        self.block_list = [
            self.blocks_by_loc[lloc] for lloc in self.tree.leaves_sorted()
        ]
        for gid, blk in enumerate(self.block_list):
            blk.gid = gid

    # -------------------------------------------------------------- remesh

    def remesh(
        self,
        refine: Iterable[LogicalLocation],
        derefine: Iterable[LogicalLocation],
    ) -> RemeshStats:
        """Apply refinement flags and rebuild the block registry.

        In numeric mode, new fine blocks are filled by slope-limited
        prolongation from their parent and merged blocks by restriction from
        their children, so conserved totals are preserved exactly.  Ghost
        zones of new blocks are garbage until the next exchange — same as
        Parthenon, which always re-communicates after remeshing.
        """
        self.remesh_generation += 1
        refined, derefined = self.tree.apply_flags(refine, derefine)
        stats = RemeshStats(
            refined_parents=len(refined), derefined_parents=len(derefined)
        )
        nchild = 2 ** self.ndim
        for parent_loc in refined:
            parent = self.blocks_by_loc.pop(parent_loc)
            stats.destroyed += 1
            for child_loc in parent_loc.children(self.ndim):
                child = self._make_block(child_loc)
                if self.allocate:
                    self._fill_child_from_parent(child, parent)
                self.blocks_by_loc[child_loc] = child
                stats.created += 1
        for parent_loc in derefined:
            children = [
                self.blocks_by_loc.pop(c) for c in parent_loc.children(self.ndim)
            ]
            stats.destroyed += nchild
            parent = self._make_block(parent_loc)
            if self.allocate:
                self._fill_parent_from_children(parent, children)
            self.blocks_by_loc[parent_loc] = parent
            stats.created += 1
        self._renumber()
        return stats

    def _fill_child_from_parent(self, child: MeshBlock, parent: MeshBlock) -> None:
        ci = child.lloc.child_index(self.ndim)
        ng = self.geometry.ng
        half = tuple(
            self.geometry.block_size[a] // 2 if a < self.ndim else 1
            for a in range(3)
        )
        for name in parent.fields:
            src = parent.fields[name]
            # Coarse source region covering the child, plus a 1-cell margin
            # (available because the parent carries ghost zones).
            sl = [slice(None)]
            for a in (2, 1, 0):
                if a >= self.ndim:
                    sl.append(slice(0, 1))
                    continue
                start = ng + ci[a] * half[a] - 1
                sl.append(slice(start, start + half[a] + 2))
            fine = prolong(src[tuple(sl)], self.ndim)
            child.interior(name)[...] = fine

    def _fill_parent_from_children(
        self, parent: MeshBlock, children: Sequence[MeshBlock]
    ) -> None:
        ng = self.geometry.ng
        half = tuple(
            self.geometry.block_size[a] // 2 if a < self.ndim else 1
            for a in range(3)
        )
        for child in children:
            ci = child.lloc.child_index(self.ndim)
            for name in parent.fields:
                coarse = restrict(
                    child.fields[name][
                        (slice(None),) + child.shape.interior_slices()
                    ],
                    self.ndim,
                )
                sl = [slice(None)]
                for a in (2, 1, 0):
                    if a >= self.ndim:
                        sl.append(slice(0, 1))
                        continue
                    start = ng + ci[a] * half[a]
                    sl.append(slice(start, start + half[a]))
                parent.fields[name][tuple(sl)] = coarse
