"""Tests for the four-phase ghost-cell exchange.

The heavyweight validator here is linear-function exactness: volume-averaged
restriction and slope-limited linear prolongation are both exact on linear
data, so after one exchange every ghost cell of every block — across
same-level, fine→coarse, and coarse→fine boundaries — must reproduce a
global linear function to machine precision.
"""

import math

import numpy as np
import pytest

from repro.comm.bvals import (
    BoundaryExchange,
    _message_geometry,
    prolong_ranges,
    restrict_target_ranges,
)
from repro.comm.mpi import SimMPI
from repro.comm.topology import NeighborInfo, neighbors_of_block
from repro.mesh.block import FieldSpec
from repro.mesh.loadbalance import balance
from repro.mesh.logical_location import LogicalLocation
from repro.mesh.mesh import Mesh, MeshGeometry


def make_mesh(
    ndim=2, mesh=32, block=8, ng=2, levels=3, periodic=True, allocate=True,
    ncomp=1,
):
    geo = MeshGeometry(
        ndim=ndim,
        mesh_size=tuple(mesh if a < ndim else 1 for a in range(3)),
        block_size=tuple(block if a < ndim else 1 for a in range(3)),
        ng=ng,
        num_levels=levels,
        periodic=(periodic,) * 3,
    )
    return Mesh(geo, field_specs=[FieldSpec("q", ncomp)], allocate=allocate)


def fill_linear(mesh, coeffs=(2.0, -3.0, 5.0), const=10.0):
    """Set every block's *interior* to a global linear function."""
    for blk in mesh.block_list:
        xs = [blk.cell_centers(a, include_ghosts=False) for a in range(3)]
        q = np.full((1,) + tuple(len(x) for x in reversed(xs)), const)
        q += coeffs[0] * xs[0][None, None, None, :]
        if mesh.ndim >= 2:
            q += coeffs[1] * xs[1][None, None, :, None]
        if mesh.ndim >= 3:
            q += coeffs[2] * xs[2][None, :, None, None]
        blk.fields["q"][...] = 0.0
        blk.interior("q")[...] = q


def check_linear_ghosts(mesh, coeffs=(2.0, -3.0, 5.0), const=10.0, atol=1e-12):
    """Every cell (incl. ghosts) physically inside the domain must match."""
    checked = 0
    for blk in mesh.block_list:
        xs = [blk.cell_centers(a) for a in range(3)]
        expected = np.full(
            (1,) + tuple(len(x) for x in reversed(xs)), const
        )
        expected += coeffs[0] * xs[0][None, None, None, :]
        if mesh.ndim >= 2:
            expected += coeffs[1] * xs[1][None, None, :, None]
        if mesh.ndim >= 3:
            expected += coeffs[2] * xs[2][None, :, None, None]
        inside = np.ones_like(expected, dtype=bool)
        for a in range(mesh.ndim):
            x = xs[a]
            mask = (x > 0.0) & (x < 1.0)
            shape = [1, 1, 1, 1]
            shape[3 - a] = len(x)
            inside &= mask.reshape(shape)
        got = blk.fields["q"]
        np.testing.assert_allclose(got[inside], expected[inside], atol=atol)
        checked += int(inside.sum())
    return checked


def message_geometry(nx, ng, ndim, nbr, receiver):
    """``_message_geometry`` of one neighbor message: (send ranges,
    receive ranges, lands in the coarse store, restricted before send)."""
    return _message_geometry(
        nx,
        ng,
        ndim,
        nbr.offset,
        nbr.delta,
        tuple(nbr.nloc.coord(a) & 1 for a in range(3)),
        tuple(receiver.coord(a) & 1 for a in range(3)),
    )


def cells(ranges):
    """Cells transmitted (post-restriction) — the paper's comm metric."""
    return math.prod(hi - lo for lo, hi in ranges)


#: Periodic and outflow meshes in 2D and 3D for the numeric-vs-modeled
#: count comparisons.
COUNT_CASES = [
    dict(ndim=ndim, mesh=mesh, block=block, periodic=periodic)
    for ndim, mesh, block in ((2, 32, 8), (3, 16, 4))
    for periodic in (True, False)
]


def refined_pair(**kwargs):
    """A numeric and a modeled two-level mesh with the same two blocks
    refined: a corner block (bordering the domain faces) and an interior
    one."""
    pair = []
    for allocate in (True, False):
        mesh = make_mesh(levels=2, allocate=allocate, **kwargs)
        refine = [mesh.block_list[0].lloc, mesh.block_list[5].lloc]
        mesh.remesh(refine=refine, derefine=[])
        pair.append(mesh)
    return pair


class TestMessageSpec:
    def _nbr(self, offset, nloc, delta):
        return NeighborInfo(offset=offset, nloc=nloc, delta=delta)

    def test_same_level_face(self):
        nbr = self._nbr((-1, 0, 0), LogicalLocation(0, 0, 0, 0), 0)
        send, recv, _, _ = message_geometry(
            (8, 8, 1), 2, 2, nbr, LogicalLocation(0, 1, 0, 0)
        )
        assert send[0] == (8, 10)
        assert recv[0] == (0, 2)
        assert send[1] == (2, 10)
        assert cells(recv) == 16

    def test_same_level_corner(self):
        nbr = self._nbr((1, 1, 0), LogicalLocation(0, 2, 2, 0), 0)
        send, recv, _, _ = message_geometry(
            (8, 8, 1), 2, 2, nbr, LogicalLocation(0, 1, 1, 0)
        )
        assert cells(recv) == 4
        assert recv[0] == (10, 12)
        assert send[0] == (2, 4)

    def test_fine_sender_restricts(self):
        # Receiver at level 0, fine sender is child (1, 2, 1) across +x.
        nbr = self._nbr((1, 0, 0), LogicalLocation(1, 2, 1, 0), 1)
        send, recv, to_coarse, restrict_bs = message_geometry(
            (8, 8, 1), 2, 2, nbr, LogicalLocation(0, 0, 0, 0)
        )
        assert restrict_bs
        assert not to_coarse
        # Send 2*ng=4 fine cells normal, full 8 tangential -> 2x4 after.
        assert send[0] == (2, 6)
        assert recv[0] == (10, 12)
        # Tangential: sender's lx2=1 -> odd half of receiver's face.
        assert recv[1] == (6, 10)
        assert cells(recv) == 2 * 4

    def test_coarse_sender_targets_coarse_buffer(self):
        # Receiver is fine child (1, 2, 2); coarse neighbor across -x.
        nbr = self._nbr((-1, 0, 0), LogicalLocation(0, 0, 1, 0), -1)
        send, recv, to_coarse, _ = message_geometry(
            (8, 8, 1), 2, 2, nbr, LogicalLocation(1, 2, 2, 0)
        )
        assert to_coarse
        # Normal depth hg+1 = 2.
        assert send[0] == (8, 10)
        assert recv[0] == (0, 2)
        # Tangential: receiver lx2=2 -> even half of the coarse sender.
        assert send[1] == (2, 6)
        assert recv[1] == (2, 6)

    def test_cells_metric_shrinks_with_restriction(self):
        fine = self._nbr((1, 0, 0), LogicalLocation(1, 2, 0, 0), 1)
        _, recv, _, _ = message_geometry(
            (8, 8, 1), 4, 2, fine, LogicalLocation(0, 0, 0, 0)
        )
        same = self._nbr((1, 0, 0), LogicalLocation(0, 1, 0, 0), 0)
        _, recv_same, _, _ = message_geometry(
            (8, 8, 1), 4, 2, same, LogicalLocation(0, 0, 0, 0)
        )
        assert cells(recv) < cells(recv_same)


class TestRanges:
    def test_prolong_ranges_sizes(self):
        src, tgt = prolong_ranges((8, 8, 1), 2, 2, (-1, 0, 0))
        # Coarse source with margins: hg+2 = 3 normal, ncx+2 tangential.
        assert src[0] == (2 - 1 - 1, 3)
        assert tgt[0] == (0, 2)
        assert src[1] == (1, 7)
        assert tgt[1] == (2, 10)

    def test_restrict_target_interior(self):
        coarse = restrict_target_ranges((8, 8, 1), 2, 2, ((2, 10), (2, 10), (0, 1)))
        assert coarse == ((2, 6), (2, 6), (0, 1))

    def test_restrict_target_ghost_slab(self):
        coarse = restrict_target_ranges((8, 8, 1), 2, 2, ((0, 2), (2, 10), (0, 1)))
        assert coarse[0] == (1, 2)

    def test_restrict_target_rejects_misaligned(self):
        with pytest.raises(ValueError):
            restrict_target_ranges((8, 8, 1), 2, 2, ((1, 3), (2, 10), (0, 1)))


class TestUniformExchange:
    def test_message_counts_2d_periodic(self):
        mesh = make_mesh(levels=1, allocate=False)
        mpi = SimMPI(1)
        bx = BoundaryExchange(mesh, mpi)
        bx.start_receive_bound_bufs()
        stats = bx.send_bound_bufs(["q"])
        # 16 blocks x 8 neighbors, all local on one rank.
        assert stats.messages_local == 128
        assert stats.messages_remote == 0
        # Per block: 4 faces (2*8) + 4 corners (2*2) = 80 cells.
        assert stats.cells_communicated == 16 * 80

    def test_remote_messages_with_ranks(self):
        mesh = make_mesh(levels=1, allocate=False)
        balance(mesh, 4)
        mpi = SimMPI(4)
        bx = BoundaryExchange(mesh, mpi)
        bx.start_receive_bound_bufs()
        stats = bx.send_bound_bufs(["q"])
        assert stats.messages_remote > 0
        assert stats.messages_local > 0
        assert stats.messages_remote + stats.messages_local == 128
        assert mpi.total_registered_bytes() > 0

    def test_single_rank_registers_no_buffers(self):
        mesh = make_mesh(levels=1, allocate=False)
        mpi = SimMPI(1)
        BoundaryExchange(mesh, mpi)
        assert mpi.total_registered_bytes() == 0

    def test_ghosts_match_neighbors_same_level(self):
        mesh = make_mesh(levels=1)
        for blk in mesh.block_list:
            blk.interior("q")[...] = float(blk.gid)
        mpi = SimMPI(1)
        bx = BoundaryExchange(mesh, mpi)
        bx.exchange(["q"])
        blk = mesh.block_list[0]
        nbrs = neighbors_of_block(mesh, blk.lloc)
        right = next(n for n in nbrs if n.offset == (1, 0, 0))
        rgid = mesh.block_at(right.nloc).gid
        assert np.all(blk.fields["q"][0, 0, 2:10, 10:] == float(rgid))

    def test_periodic_wraparound_1d(self):
        mesh = make_mesh(ndim=1, mesh=16, block=8, levels=1)
        mesh.block_list[0].interior("q")[...] = 1.0
        mesh.block_list[1].interior("q")[...] = 2.0
        mpi = SimMPI(1)
        BoundaryExchange(mesh, mpi).exchange(["q"])
        # Block 0's left ghosts wrap to block 1.
        assert np.all(mesh.block_list[0].fields["q"][0, 0, 0, :2] == 2.0)
        assert np.all(mesh.block_list[1].fields["q"][0, 0, 0, 10:] == 1.0)

    def test_iprobe_activity_recorded(self):
        mesh = make_mesh(levels=1, allocate=False)
        balance(mesh, 4)
        mpi = SimMPI(4)
        bx = BoundaryExchange(mesh, mpi)
        bx.start_receive_bound_bufs()
        bx.send_bound_bufs(["q"])
        bx.receive_bound_bufs()
        assert mpi.cycle.iprobe_calls > 0
        assert mpi.cycle.iprobe_calls == mpi.cycle.test_calls


def interior_block(mesh, coords):
    """The block at base-grid ``coords`` (must not touch the boundary)."""
    loc = LogicalLocation(0, *coords)
    return mesh.block_at(loc)


class TestMultiLevelExchange:
    """Linear exactness on refined meshes.

    Refined blocks are chosen away from the (non-periodic) domain boundary:
    outflow ghost fill is constant extrapolation, which legitimately breaks
    linear exactness in cells whose prolongation stencil touches it.
    """

    def test_linear_exact_2d_one_refined_block(self):
        mesh = make_mesh(ndim=2, mesh=32, block=8, ng=2, levels=2, periodic=False)
        mesh.remesh(refine=[interior_block(mesh, (1, 1, 0)).lloc], derefine=[])
        fill_linear(mesh)
        BoundaryExchange(mesh, SimMPI(1)).exchange(["q"])
        assert check_linear_ghosts(mesh) > 0

    def test_linear_exact_2d_two_levels_deep(self):
        mesh = make_mesh(ndim=2, mesh=64, block=8, ng=2, levels=3, periodic=False)
        loc = interior_block(mesh, (3, 3, 0)).lloc
        mesh.remesh(refine=[loc], derefine=[])
        # Refine the child farthest from the domain boundary region.
        child = LogicalLocation(1, 7, 7, 0)
        mesh.remesh(refine=[child], derefine=[])
        fill_linear(mesh)
        BoundaryExchange(mesh, SimMPI(1)).exchange(["q"])
        check_linear_ghosts(mesh)

    def test_linear_exact_2d_weno_ghosts(self):
        mesh = make_mesh(ndim=2, mesh=32, block=8, ng=4, levels=2, periodic=False)
        mesh.remesh(refine=[interior_block(mesh, (2, 1, 0)).lloc], derefine=[])
        fill_linear(mesh)
        BoundaryExchange(mesh, SimMPI(1)).exchange(["q"])
        check_linear_ghosts(mesh)

    def test_linear_exact_3d(self):
        mesh = make_mesh(ndim=3, mesh=32, block=8, ng=2, levels=2, periodic=False)
        mesh.remesh(refine=[interior_block(mesh, (1, 1, 1)).lloc], derefine=[])
        fill_linear(mesh)
        BoundaryExchange(mesh, SimMPI(1)).exchange(["q"])
        check_linear_ghosts(mesh)

    def test_linear_exact_1d(self):
        mesh = make_mesh(ndim=1, mesh=32, block=8, ng=2, levels=2, periodic=False)
        mesh.remesh(refine=[interior_block(mesh, (1, 0, 0)).lloc], derefine=[])
        fill_linear(mesh)
        BoundaryExchange(mesh, SimMPI(1)).exchange(["q"])
        check_linear_ghosts(mesh)

    def test_constant_exact_periodic_multilevel(self):
        mesh = make_mesh(ndim=2, mesh=32, block=8, ng=2, levels=2, periodic=True)
        mesh.remesh(refine=[mesh.block_list[5].lloc], derefine=[])
        for blk in mesh.block_list:
            blk.fields["q"][...] = 0.0
            blk.interior("q")[...] = 7.25
        BoundaryExchange(mesh, SimMPI(1)).exchange(["q"])
        for blk in mesh.block_list:
            np.testing.assert_allclose(blk.fields["q"], 7.25)

    def test_model_mode_counts_match_numeric(self):
        """Traffic, restriction and prolongation counts agree between the
        modes, also where fine blocks border an outflow face."""
        for kwargs in COUNT_CASES:
            num, mod = refined_pair(**kwargs)
            sn = BoundaryExchange(num, SimMPI(1)).exchange(["q"])
            sm = BoundaryExchange(mod, SimMPI(1)).exchange(["q"])
            assert sn.restrictions > 0 and sn.prolongations > 0, kwargs
            assert sn == sm, kwargs


class TestRebuild:
    def test_rebuild_counts_buffers(self):
        mesh = make_mesh(levels=1, allocate=False)
        bx = BoundaryExchange(mesh, SimMPI(1))
        stats = bx.rebuild()
        assert stats.nblocks == 16
        assert stats.nbuffers == 128
        assert stats.cache.keys_sorted == 128

    def test_rebuild_after_refinement_grows_buffers(self):
        mesh = make_mesh(levels=2, allocate=False)
        bx = BoundaryExchange(mesh, SimMPI(1))
        before = bx.rebuild().nbuffers
        mesh.remesh(refine=[mesh.block_list[0].lloc], derefine=[])
        after = bx.rebuild().nbuffers
        assert after > before

    def test_modeled_rebuild_counts_match_numeric(self):
        for kwargs in COUNT_CASES:
            num, mod = refined_pair(**kwargs)
            bn = BoundaryExchange(num, SimMPI(1))
            bm = BoundaryExchange(mod, SimMPI(1))
            assert bn.rebuild() == bm.rebuild(), kwargs
            # set_bounds reports the rebuild's restriction and
            # prolongation aggregates.
            assert bn.set_bounds(["q"]) == bm.set_bounds(["q"]), kwargs


class TestExchangePlan:
    """The compiled plan, its coarse store and the storage it exchanges."""

    def test_coarse_store_covers_only_blocks_with_a_coarser_neighbor(self):
        mesh = make_mesh(ndim=2, levels=2, ncomp=3)
        mesh.remesh(refine=[mesh.block_list[5].lloc], derefine=[])
        bx = BoundaryExchange(mesh, SimMPI(1))
        bx.exchange(["q"])
        with_coarser = [
            blk for blk in mesh.block_list
            if any(n.delta == -1 for n in bx.neighbor_table[blk.lloc])
        ]
        assert 0 < len(with_coarser) < mesh.num_blocks
        shape = mesh.block_list[0].coarse_shape.array_shape
        assert shape == (1, 8, 8)
        assert bx._coarse["q"].shape == (len(with_coarser), 3) + shape
        assert bx.plan.ncoarse == len(with_coarser)

    def test_groups_share_geometry_across_blocks(self):
        mesh = make_mesh(ndim=2, levels=1)
        bx = BoundaryExchange(mesh, SimMPI(1))
        # A periodic uniform 4x4 mesh: one copy group per offset, each
        # holding all 16 receivers; nothing to restrict or prolongate.
        assert len(bx.plan.copies) == 8
        assert all(len(recv[0]) == 16 for _, _, _, recv in bx.plan.copies)
        assert not (bx.plan.restricts or bx.plan.prolongs or bx.plan.physical)

    def test_repacks_when_blocks_adopt_another_pack(self):
        from repro.solver.packs import build_numeric_pack

        mesh = make_mesh(ndim=2, levels=2)
        mesh.remesh(refine=[interior_block(mesh, (1, 1, 0)).lloc], derefine=[])
        bx = BoundaryExchange(mesh, SimMPI(1))
        bx.exchange(["q"])
        build_numeric_pack(mesh, ["q"])  # the blocks leave bx's own pack
        fill_linear(mesh)
        bx.exchange(["q"])
        assert check_linear_ghosts(mesh) > 0

    def test_bound_pack_that_lost_its_blocks_raises(self):
        from repro.solver.packs import build_numeric_pack

        mesh = make_mesh(ndim=2, levels=1)
        bx = BoundaryExchange(mesh, SimMPI(1))
        bx.bind(build_numeric_pack(mesh, ["q"]))
        bx.exchange(["q"])
        build_numeric_pack(mesh, ["q"])
        with pytest.raises(ValueError, match="bound pack"):
            bx.exchange(["q"])
