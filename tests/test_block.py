"""Tests for MeshBlock storage and geometry."""

import numpy as np
import pytest

from repro.mesh.block import FieldSpec, IndexShape, MeshBlock
from repro.mesh.logical_location import LogicalLocation


def make_block(ndim=2, nx=8, ng=2, allocate=True, ncomp=3):
    sizes = tuple(nx if a < ndim else 1 for a in range(3))
    bounds = tuple((0.0, 1.0) if a < ndim else (0.0, 1.0) for a in range(3))
    return MeshBlock(
        lloc=LogicalLocation(0, 0, 0, 0),
        gid=0,
        nx=sizes,
        ng=ng,
        ndim=ndim,
        bounds=bounds,
        field_specs=[FieldSpec("u", ncomp)],
        allocate=allocate,
    )


class TestIndexShape:
    def test_total_includes_ghosts_only_on_active_dims(self):
        shape = IndexShape((8, 8, 1), ng=2, ndim=2)
        assert shape.total == (12, 12, 1)
        assert shape.array_shape == (1, 12, 12)

    def test_interior_slice(self):
        shape = IndexShape((8, 1, 1), ng=3, ndim=1)
        assert shape.interior(0) == slice(3, 11)
        assert shape.interior(1) == slice(0, 1)

    def test_cell_counts(self):
        shape = IndexShape((4, 6, 1), ng=2, ndim=2)
        assert shape.interior_cells == 24
        assert shape.total_cells == 8 * 10

    def test_rejects_nonunit_inactive(self):
        with pytest.raises(ValueError):
            IndexShape((4, 4, 4), ng=2, ndim=2)


class TestFields:
    def test_field_array_shape(self):
        blk = make_block(ndim=2, nx=8, ng=2, ncomp=3)
        assert blk.fields["u"].shape == (3, 1, 12, 12)
        assert blk.coarse_shape.array_shape == (1, 8, 8)

    def test_3d_field_shape(self):
        blk = make_block(ndim=3, nx=8, ng=4)
        assert blk.fields["u"].shape == (3, 16, 16, 16)

    def test_duplicate_field_rejected(self):
        blk = make_block()
        with pytest.raises(ValueError):
            blk.add_field(FieldSpec("u", 1))

    def test_no_alloc_mode_has_no_arrays(self):
        blk = make_block(allocate=False)
        assert blk.fields == {}
        assert blk.interior_cells == 64
        assert blk.data_bytes() > 0

    def test_interior_view_writes_through(self):
        blk = make_block()
        blk.interior("u")[...] = 7.0
        total = blk.fields["u"].sum()
        assert total == pytest.approx(7.0 * 3 * 64)

    def test_flux_shapes(self):
        blk = make_block(ndim=2, nx=8, ng=2, ncomp=3)
        blk.allocate_fluxes("u")
        fx, fy, fz = blk.fluxes["u"]
        assert fx.shape == (3, 1, 8, 9)
        assert fy.shape == (3, 1, 9, 8)
        assert fz is None


class TestGeometry:
    def test_dx(self):
        blk = make_block(ndim=2, nx=8)
        assert blk.dx(0) == pytest.approx(1.0 / 8)

    def test_cell_centers_interior(self):
        blk = make_block(ndim=1, nx=4, ng=2)
        xs = blk.cell_centers(0, include_ghosts=False)
        assert np.allclose(xs, [0.125, 0.375, 0.625, 0.875])

    def test_cell_centers_with_ghosts_extend_outside(self):
        blk = make_block(ndim=1, nx=4, ng=1)
        xs = blk.cell_centers(0)
        assert xs[0] == pytest.approx(-0.125)
        assert xs[-1] == pytest.approx(1.125)

    def test_cell_volume(self):
        blk = make_block(ndim=2, nx=8)
        assert blk.cell_volume == pytest.approx((1.0 / 8) ** 2)

    def test_center(self):
        blk = make_block(ndim=2)
        assert blk.center()[:2] == (0.5, 0.5)

    def test_data_bytes_counts_fine_and_coarse(self):
        blk = make_block(ndim=1, nx=8, ng=2, ncomp=1)
        # fine: 12 cells, coarse: 8 cells, 8 bytes each
        assert blk.data_bytes() == (12 + 8) * 8
