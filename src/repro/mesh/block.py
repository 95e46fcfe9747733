"""MeshBlock: a regular array of cells, the unit of refinement.

Field arrays are always stored with a uniform 4-axis layout
``(ncomp, n3, n2, n1)`` where inactive dimensions have size 1 and carry no
ghost zones.  This keeps every kernel and every ghost-exchange slice
dimension-agnostic.

``coarse_shape`` describes the block's own extent sampled at half
resolution — the shape of the coarse buffer that receives data from
coarser neighbors before prolongation fills the fine ghost zones, exactly
as in Athena++/Parthenon (Section II-D).  The numeric ghost exchange keeps
those buffers in one coarse store per field, for the blocks that have a
coarser neighbor (:class:`repro.comm.bvals.ExchangePlan`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mesh.logical_location import LogicalLocation


@dataclass(frozen=True)
class FieldSpec:
    """Declaration of one cell-centered field on a block."""

    name: str
    ncomp: int = 1


class IndexShape:
    """Cell-index bookkeeping for one block resolution.

    ``nx`` are interior cell counts per dimension (x1, x2, x3 order); unused
    dimensions have ``nx == 1`` and no ghost zones.
    """

    def __init__(self, nx: Sequence[int], ng: int, ndim: int) -> None:
        self.ndim = ndim
        self.ng = ng
        self.nx = tuple(nx)
        if len(self.nx) != 3:
            raise ValueError("nx must have 3 entries")
        for a in range(3):
            if a >= ndim and self.nx[a] != 1:
                raise ValueError(f"nx[{a}] must be 1 for an unused dimension")
            if a < ndim and self.nx[a] < 1:
                raise ValueError(f"nx[{a}] must be >= 1")

    def ghosts(self, axis: int) -> int:
        """Ghost-zone depth along ``axis`` (0 for inactive dimensions)."""
        return self.ng if axis < self.ndim else 0

    @property
    def total(self) -> Tuple[int, int, int]:
        """Cells per dimension including ghosts, (x1, x2, x3) order."""
        return tuple(self.nx[a] + 2 * self.ghosts(a) for a in range(3))

    @property
    def array_shape(self) -> Tuple[int, int, int]:
        """NumPy array shape (x3, x2, x1 order)."""
        t = self.total
        return (t[2], t[1], t[0])

    def interior(self, axis: int) -> slice:
        """Slice of interior cells along ``axis``."""
        g = self.ghosts(axis)
        return slice(g, g + self.nx[axis])

    def interior_slices(self) -> Tuple[slice, slice, slice]:
        """Array slices (x3, x2, x1 order) selecting the interior."""
        return (self.interior(2), self.interior(1), self.interior(0))

    @property
    def interior_cells(self) -> int:
        return self.nx[0] * self.nx[1] * self.nx[2]

    @property
    def total_cells(self) -> int:
        t = self.total
        return t[0] * t[1] * t[2]


class MeshBlock:
    """A sub-volume of the domain at one refinement level.

    Parameters
    ----------
    lloc:
        Logical location in the tree.
    gid:
        Global block id (dense, re-assigned after every tree change).
    nx:
        Interior cells per dimension.
    ng:
        Ghost-zone depth in active dimensions.
    bounds:
        Physical ``((x1min, x1max), (x2min, x2max), (x3min, x3max))``.
    allocate:
        When False (the platform-model execution mode) no NumPy arrays are
        created; geometry, sizes and costs remain available.
    """

    def __init__(
        self,
        lloc: LogicalLocation,
        gid: int,
        nx: Sequence[int],
        ng: int,
        ndim: int,
        bounds: Sequence[Tuple[float, float]],
        field_specs: Sequence[FieldSpec] = (),
        allocate: bool = True,
    ) -> None:
        self.lloc = lloc
        self.gid = gid
        self.ndim = ndim
        self.shape = IndexShape(nx, ng, ndim)
        cnx = tuple(max(1, nx[a] // 2) if a < ndim else 1 for a in range(3))
        self.coarse_shape = IndexShape(cnx, ng, ndim)
        self.bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
        self.field_specs: Dict[str, FieldSpec] = {}
        self.fields: Dict[str, np.ndarray] = {}
        # Face-centered fluxes per axis, allocated on demand by the solver.
        self.fluxes: Dict[str, List[Optional[np.ndarray]]] = {}
        self.allocated = allocate
        self.cost = 1.0
        self.rank = 0
        for spec in field_specs:
            self.add_field(spec)

    # ------------------------------------------------------------ geometry

    def dx(self, axis: int) -> float:
        """Cell width along ``axis``."""
        lo, hi = self.bounds[axis]
        return (hi - lo) / self.shape.nx[axis]

    def cell_centers(self, axis: int, include_ghosts: bool = True) -> np.ndarray:
        """Physical cell-center coordinates along ``axis``."""
        lo, _ = self.bounds[axis]
        d = self.dx(axis)
        g = self.shape.ghosts(axis) if include_ghosts else 0
        n = self.shape.nx[axis] + 2 * g
        return lo + (np.arange(n) - g + 0.5) * d

    def center(self) -> Tuple[float, float, float]:
        """Physical center of the block."""
        return tuple(0.5 * (lo + hi) for lo, hi in self.bounds)

    @property
    def cell_volume(self) -> float:
        vol = 1.0
        for a in range(self.ndim):
            vol *= self.dx(a)
        return vol

    # -------------------------------------------------------------- fields

    def add_field(self, spec: FieldSpec) -> None:
        """Register (and in numeric mode allocate) a cell-centered field."""
        if spec.name in self.field_specs:
            raise ValueError(f"field {spec.name!r} already exists")
        self.field_specs[spec.name] = spec
        if self.allocated:
            self.fields[spec.name] = np.zeros(
                (spec.ncomp,) + self.shape.array_shape
            )

    def allocate_fluxes(self, name: str) -> None:
        """Allocate face-centered flux arrays for field ``name``.

        Axis ``a``'s flux array has ``nx[a] + 1`` faces along ``a`` and
        interior extent in the other active dimensions.
        """
        spec = self.field_specs[name]
        per_axis: List[Optional[np.ndarray]] = []
        for a in range(3):
            if a >= self.ndim:
                per_axis.append(None)
                continue
            dims = [
                self.shape.nx[ax] + (1 if ax == a else 0) if ax < self.ndim else 1
                for ax in range(3)
            ]
            per_axis.append(np.zeros((spec.ncomp, dims[2], dims[1], dims[0])))
        self.fluxes[name] = per_axis

    def interior(self, name: str) -> np.ndarray:
        """View of the interior cells of field ``name``."""
        return self.fields[name][(slice(None),) + self.shape.interior_slices()]

    # ------------------------------------------------------------- metrics

    @property
    def interior_cells(self) -> int:
        return self.shape.interior_cells

    def data_bytes(self, bytes_per_value: int = 8) -> int:
        """Bytes of cell-centered storage this block requires (fine + coarse)."""
        ncomp = sum(s.ncomp for s in self.field_specs.values())
        return ncomp * bytes_per_value * (
            self.shape.total_cells + self.coarse_shape.total_cells
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MeshBlock(gid={self.gid}, {self.lloc!r}, nx={self.shape.nx})"
