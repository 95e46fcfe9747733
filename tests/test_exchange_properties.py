"""Property-based tests on ghost-exchange invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm.bvals import BoundaryExchange, _message_geometry
from repro.comm.mpi import SimMPI
from repro.mesh.block import FieldSpec
from repro.mesh.logical_location import LogicalLocation
from repro.mesh.mesh import Mesh, MeshGeometry
from repro.mesh.tree import neighbor_offsets


def make_mesh(levels=2, allocate=True):
    geo = MeshGeometry(
        ndim=2,
        mesh_size=(32, 32, 1),
        block_size=(8, 8, 1),
        ng=2,
        num_levels=levels,
    )
    return Mesh(geo, field_specs=[FieldSpec("q", 1)], allocate=allocate)


@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(0, 10_000), min_size=0, max_size=4))
def test_exchange_is_idempotent(seeds):
    """Property: a second exchange after convergence changes nothing —
    ghost fill is a projection."""
    mesh = make_mesh()
    for seed in seeds:
        leaves = mesh.tree.leaves_sorted()
        loc = leaves[seed % len(leaves)]
        if loc.level < mesh.tree.max_level:
            mesh.remesh(refine=[loc], derefine=[])
    rng = np.random.default_rng(0)
    for blk in mesh.block_list:
        blk.interior("q")[...] = rng.normal(size=blk.interior("q").shape)
    bx = BoundaryExchange(mesh, SimMPI(1))
    bx.exchange(["q"])
    snapshot = {b.gid: b.fields["q"].copy() for b in mesh.block_list}
    bx.exchange(["q"])
    for blk in mesh.block_list:
        np.testing.assert_allclose(
            blk.fields["q"], snapshot[blk.gid], atol=1e-13
        )


@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(0, 10_000), min_size=0, max_size=4))
def test_interior_untouched_by_exchange(seeds):
    """Property: the exchange never modifies interior cells."""
    mesh = make_mesh()
    for seed in seeds:
        leaves = mesh.tree.leaves_sorted()
        loc = leaves[seed % len(leaves)]
        if loc.level < mesh.tree.max_level:
            mesh.remesh(refine=[loc], derefine=[])
    rng = np.random.default_rng(1)
    for blk in mesh.block_list:
        blk.interior("q")[...] = rng.normal(size=blk.interior("q").shape)
    before = {b.gid: b.interior("q").copy() for b in mesh.block_list}
    BoundaryExchange(mesh, SimMPI(1)).exchange(["q"])
    for blk in mesh.block_list:
        np.testing.assert_array_equal(blk.interior("q"), before[blk.gid])


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(neighbor_offsets(2)),
    st.integers(-1, 1),
    st.integers(0, 7),
    st.integers(0, 7),
)
def test_message_sizes_consistent(offset, delta, sx, sy):
    """Property: for any legal message geometry, the transmitted volume
    (after optional restriction) equals the receive volume."""
    if delta == 1:
        sender = LogicalLocation(2, sx, sy, 0)
        receiver = LogicalLocation(1, max(sx // 2 - offset[0], 0), max(sy // 2 - offset[1], 0), 0)
    elif delta == -1:
        sender = LogicalLocation(1, sx // 2, sy // 2, 0)
        receiver = LogicalLocation(2, sx, sy, 0)
    else:
        sender = LogicalLocation(1, sx, sy, 0)
        receiver = LogicalLocation(1, sx - offset[0], sy - offset[1], 0)
    send, recv, _, restrict_bs = _message_geometry(
        (8, 8, 1),
        2,
        2,
        offset,
        delta,
        tuple(sender.coord(a) & 1 for a in range(3)),
        tuple(receiver.coord(a) & 1 for a in range(3)),
    )
    send_cells = 1
    for lo, hi in send:
        assert hi > lo
        send_cells *= hi - lo
    recv_cells = math.prod(hi - lo for lo, hi in recv)
    if restrict_bs:
        assert send_cells == recv_cells * 4  # 2D restriction is 4:1
    else:
        assert send_cells == recv_cells


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 4))
def test_rank_count_does_not_change_traffic_volume(nranks):
    """Property: rank layout moves bytes between local/remote categories
    but total cells are invariant."""
    from repro.mesh.loadbalance import balance

    mesh = make_mesh(allocate=False)
    mesh.remesh(refine=[mesh.block_list[5].lloc], derefine=[])
    balance(mesh, nranks)
    bx = BoundaryExchange(mesh, SimMPI(nranks))
    bx.start_receive_bound_bufs()
    stats = bx.send_bound_bufs(["q"])
    mesh2 = make_mesh(allocate=False)
    mesh2.remesh(refine=[mesh2.block_list[5].lloc], derefine=[])
    bx2 = BoundaryExchange(mesh2, SimMPI(1))
    bx2.start_receive_bound_bufs()
    stats2 = bx2.send_bound_bufs(["q"])
    assert stats.cells_communicated == stats2.cells_communicated
    assert (
        stats.messages_local + stats.messages_remote
        == stats2.messages_local + stats2.messages_remote
    )


@settings(max_examples=15, deadline=None)
@given(
    ndim=st.integers(1, 3),
    ng=st.sampled_from([2, 4]),
    periodic=st.booleans(),
    picks=st.lists(st.integers(0, 10_000), max_size=6),
    c=st.floats(-1e300, 1e300, allow_nan=False),
)
def test_constant_survives_exchange_at_every_level_property(
    ndim, ng, periodic, picks, c
):
    """Property (the firedrake ``test_restriction`` check, on the block
    hierarchy): after any refine sequence, one exchange of a constant
    field leaves every cell inside the domain, ghosts included and on
    every level, equal to the constant; a second exchange does the same
    for every cell.  Restriction averages equal values and minmod slopes
    of a constant are zero, so no rounding is allowed.

    Physical ghosts are filled before prolongation, so a corner ghost
    outside the domain, next to both a physical face and a coarser
    neighbor, holds the previous exchange's data until the next one."""
    n = {1: 64, 2: 32, 3: 16}[ndim]
    geo = MeshGeometry(
        ndim=ndim,
        mesh_size=tuple(n if a < ndim else 1 for a in range(3)),
        block_size=tuple(8 if a < ndim else 1 for a in range(3)),
        ng=ng,
        num_levels=3,
        periodic=(periodic,) * 3,
    )
    mesh = Mesh(geo, field_specs=[FieldSpec("q", 2)], allocate=True)
    for pick in picks:
        leaves = mesh.tree.leaves_sorted()
        mesh.remesh(refine=[leaves[pick % len(leaves)]], derefine=[])
    for blk in mesh.block_list:
        blk.interior("q")[...] = c
    bx = BoundaryExchange(mesh, SimMPI(1))
    stats = bx.exchange(["q"])
    levels = {blk.lloc.level for blk in mesh.block_list}
    assert (stats.prolongations > 0) == (len(levels) > 1)
    for blk in mesh.block_list:
        inside = np.ones(blk.shape.array_shape, dtype=bool)
        for a in range(ndim):
            x = blk.cell_centers(a)
            shape = [1, 1, 1]
            shape[2 - a] = len(x)
            inside &= ((x > 0.0) & (x < 1.0)).reshape(shape)
        assert np.all(blk.fields["q"][:, inside] == c), blk.lloc
    bx.exchange(["q"])
    for blk in mesh.block_list:
        assert np.all(blk.fields["q"] == c), blk.lloc
