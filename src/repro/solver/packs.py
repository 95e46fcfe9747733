"""Variable and MeshBlock packing (Section II-C).

Parthenon "supports logical packing of variables and mesh blocks, reducing
kernel launch overhead": instead of one CUDA launch per block per variable,
a MeshBlockPack gathers every block's arrays behind one indexable view and
launches once per pack.  This module implements the pack abstraction for
the numeric mode and quantifies the launch-overhead effect for the platform
model (the ``per_block_kernels`` ablation disables packing and watches GPU
time explode at small block sizes — the paper's Fig. 1c mechanism at the
launch level).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.mesh.block import MeshBlock
from repro.mesh.mesh import Mesh


@dataclass
class PackDescriptor:
    """What a pack contains: which blocks and which variables."""

    gids: Tuple[int, ...]
    field_names: Tuple[str, ...]
    ncomp_total: int


class MeshBlockPack:
    """An indexable bundle of per-block arrays for one rank's blocks.

    ``pack[b]`` returns the stacked ``(ncomp_total, x3, x2, x1)`` view of
    block ``b``'s packed variables.  Blocks in one pack share a common shape
    (guaranteed by the Mesh); the pack exposes iteration so a "kernel" can
    sweep all blocks from a single dispatch — exactly the launch-count
    reduction Parthenon gets on the GPU.

    With ``contiguous=True`` the pack additionally *owns* one dense
    ``(nblocks, ncomp_total, x3, x2, x1)`` array (``self.data``) holding
    every block's packed variables — the memory layout fused pack kernels
    sweep in a single NumPy dispatch.  :meth:`gather` copies per-block
    storage into it; :meth:`adopt_blocks` then re-points each block's field
    arrays at the corresponding pack views, so ghost exchange, flux
    correction and prolongation mutate pack storage directly and no
    steady-state scatter/gather is needed (the Python analogue of Kokkos'
    view-of-views aliasing).
    """

    def __init__(
        self,
        blocks: Sequence[MeshBlock],
        field_names: Sequence[str],
        contiguous: bool = False,
    ):
        if not blocks:
            raise ValueError("a pack needs at least one block")
        self.blocks = list(blocks)
        self.field_names = tuple(field_names)
        shapes = {b.shape.array_shape for b in self.blocks}
        if len(shapes) != 1:
            raise ValueError(f"blocks in a pack must share a shape, got {shapes}")
        ncomp = 0
        self._slices: Dict[str, slice] = {}
        for name in self.field_names:
            spec = self.blocks[0].field_specs[name]
            self._slices[name] = slice(ncomp, ncomp + spec.ncomp)
            ncomp += spec.ncomp
        self.ncomp_total = ncomp
        self.contiguous = contiguous
        self.data: Optional[np.ndarray] = None
        #: Pack-owned face-flux storage per field: axis -> (nblocks, ...) array.
        self.flux_data: Dict[str, List[Optional[np.ndarray]]] = {}
        if contiguous:
            self.data = np.zeros(
                (len(self.blocks), ncomp) + self.blocks[0].shape.array_shape
            )
            self.gather()

    def describe(self) -> PackDescriptor:
        return PackDescriptor(
            gids=tuple(b.gid for b in self.blocks),
            field_names=self.field_names,
            ncomp_total=self.ncomp_total,
        )

    def __len__(self) -> int:
        return len(self.blocks)

    def component_slice(self, name: str) -> slice:
        """Where field ``name``'s components sit within the packed axis."""
        return self._slices[name]

    def __getitem__(self, b: int) -> np.ndarray:
        """Packed view of block ``b``: concatenated along the component axis.

        Contiguous packs return a true view into :attr:`data`.  Otherwise
        NumPy cannot alias separate arrays into one view, so this stacks —
        callers that mutate must use :meth:`scatter` to write back (the real
        Kokkos implementation uses a view-of-views; the semantics match).
        """
        if self.data is not None:
            return self.data[b]
        blk = self.blocks[b]
        return np.concatenate(
            [blk.fields[name] for name in self.field_names], axis=0
        )

    # ------------------------------------------------- contiguous storage

    def _require_contiguous(self) -> np.ndarray:
        if self.data is None:
            raise ValueError("pack was not built with contiguous=True")
        return self.data

    def gather(self) -> None:
        """Copy every block's fields into the pack's contiguous storage."""
        data = self._require_contiguous()
        for b, blk in enumerate(self.blocks):
            for name in self.field_names:
                data[b, self._slices[name]] = blk.fields[name]

    def scatter_all(self) -> None:
        """Copy pack storage back into every block's field arrays.

        After :meth:`adopt_blocks` the block arrays *are* pack views and
        this is a no-op; it exists for packs used in copy-in/copy-out mode.
        """
        data = self._require_contiguous()
        for b, blk in enumerate(self.blocks):
            for name in self.field_names:
                dst = blk.fields[name]
                src = data[b, self._slices[name]]
                if dst.base is not self.data:
                    dst[...] = src

    def adopt_blocks(self) -> None:
        """Re-point each block's field arrays at views into pack storage.

        Downstream code that mutates ``block.fields`` (ghost exchange,
        physical-boundary fills, prolongation targets) then writes straight
        into the pack, keeping the fused kernels and the per-block world
        coherent with zero copies.
        """
        data = self._require_contiguous()
        for b, blk in enumerate(self.blocks):
            for name in self.field_names:
                blk.fields[name] = data[b, self._slices[name]]

    def adopt_fluxes(self, name: str) -> None:
        """Allocate pack-level face-flux arrays and alias block fluxes to them.

        Axis ``a``'s array is ``(nblocks, ncomp, dims[2], dims[1], dims[0])``
        with ``nx[a] + 1`` faces along ``a`` — the per-block layout of
        :meth:`MeshBlock.allocate_fluxes` with a leading block axis.
        """
        blk0 = self.blocks[0]
        spec = blk0.field_specs[name]
        shape = blk0.shape
        per_axis: List[Optional[np.ndarray]] = []
        for a in range(3):
            if a >= blk0.ndim:
                per_axis.append(None)
                continue
            dims = [
                shape.nx[ax] + (1 if ax == a else 0) if ax < blk0.ndim else 1
                for ax in range(3)
            ]
            per_axis.append(
                np.zeros(
                    (len(self.blocks), spec.ncomp, dims[2], dims[1], dims[0])
                )
            )
        self.flux_data[name] = per_axis
        for b, blk in enumerate(self.blocks):
            blk.fluxes[name] = [
                None if arr is None else arr[b] for arr in per_axis
            ]

    def field(self, name: str) -> np.ndarray:
        """Pack-wide view of one field: ``(nblocks, ncomp, x3, x2, x1)``."""
        return self._require_contiguous()[:, self._slices[name]]

    def dx_array(self, axis: int) -> np.ndarray:
        """Per-block cell width along ``axis`` (refined blocks differ)."""
        return np.array([blk.dx(axis) for blk in self.blocks])

    def scatter(self, b: int, packed: np.ndarray) -> None:
        """Write a packed array back into block ``b``'s fields."""
        blk = self.blocks[b]
        if packed.shape[0] != self.ncomp_total:
            raise ValueError(
                f"packed array has {packed.shape[0]} components, "
                f"expected {self.ncomp_total}"
            )
        for name in self.field_names:
            blk.fields[name][...] = packed[self._slices[name]]

    def __iter__(self) -> Iterator[MeshBlock]:
        return iter(self.blocks)

    @property
    def total_cells(self) -> int:
        return sum(b.interior_cells for b in self.blocks)


def build_packs(
    mesh: Mesh, field_names: Sequence[str], nranks: int
) -> List[MeshBlockPack]:
    """One pack per rank over its local blocks (Parthenon's default)."""
    packs = []
    for rank in range(nranks):
        blocks = mesh.blocks_on_rank(rank)
        if blocks:
            packs.append(MeshBlockPack(blocks, field_names))
    return packs


def build_numeric_pack(
    mesh: Mesh,
    field_names: Sequence[str],
    flux_field: Optional[str] = None,
    metrics=None,
) -> MeshBlockPack:
    """One contiguous, view-adopted pack over every block of the mesh.

    This is the packed execution engine's entry point: after this call the
    mesh's blocks alias pack storage (fields and, when ``flux_field`` is
    given, face fluxes), so fused kernels and per-block code see one
    coherent state.  A :class:`repro.observability.MetricsRegistry` passed
    as ``metrics`` records each rebuild and the pack's population (rebuild
    frequency is the remesh-churn signal the pack cache exists to bound).
    """
    pack = MeshBlockPack(mesh.block_list, field_names, contiguous=True)
    pack.adopt_blocks()
    if flux_field is not None:
        pack.adopt_fluxes(flux_field)
    if metrics is not None:
        metrics.count("pack_rebuilds")
        metrics.gauge("pack_blocks", len(pack))
    return pack


def launch_count(
    num_blocks: int, num_packs: int, packed: bool
) -> int:
    """Kernel launches one sweep costs, with and without packing.

    The quantity behind the paper's launch-overhead discussion: packed
    execution launches once per pack; unpacked launches once per block.
    """
    if num_blocks < num_packs or num_packs < 1:
        raise ValueError("need at least one block per pack")
    return num_packs if packed else num_blocks
