"""Golden parity: packed vs per-block kernel execution (ISSUE 1 tentpole).

The packed engine re-associates reconstruction and Riemann arithmetic (GEMM
stencils, coefficient-form HLL), so the two modes are not bitwise identical
— but they must agree to rounding level.  These tests pin that contract at
``atol = 1e-13`` for the conserved state, face fluxes, and history
reductions after several full driver cycles, across block sizes {8, 16, 32}
with AMR both on and off, in 2D and 3D.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.driver.driver import ParthenonDriver
from repro.driver.execution import ExecutionConfig
from repro.driver.params import SimulationParams
from repro.solver.burgers import CONSERVED, DERIVED
from repro.solver.initial_conditions import gaussian_blob

ATOL = 1e-13
NCYCLES = 3


@lru_cache(maxsize=None)
def run_driver(kernel_mode, block_size, levels, ndim=2, mesh=32):
    params = SimulationParams(
        ndim=ndim,
        mesh_size=mesh,
        block_size=block_size,
        num_levels=levels,
        num_scalars=2,
    )
    cfg = ExecutionConfig(
        backend="gpu",
        num_gpus=1,
        ranks_per_gpu=1,
        mode="numeric",
        kernel_mode=kernel_mode,
    )
    driver = ParthenonDriver(
        params,
        cfg,
        initial_conditions=lambda mesh_, pkg: gaussian_blob(
            mesh_, pkg, amplitude=0.8, width=0.15
        ),
    )
    driver.run(NCYCLES)
    return driver


def run_pair(block_size, levels, ndim=2, mesh=32):
    return (
        run_driver("packed", block_size, levels, ndim, mesh),
        run_driver("per_block", block_size, levels, ndim, mesh),
    )


def assert_parity(dp, db):
    """Full-state comparison between a packed and a per-block driver."""
    bp = {b.lloc: b for b in dp.mesh.block_list}
    bb = {b.lloc: b for b in db.mesh.block_list}
    # Identical refinement decisions: same block population.
    assert set(bp) == set(bb)
    for lloc, blk in bp.items():
        other = bb[lloc]
        np.testing.assert_allclose(
            blk.fields[CONSERVED], other.fields[CONSERVED], atol=ATOL, rtol=0
        )
        np.testing.assert_allclose(
            blk.fields[DERIVED], other.fields[DERIVED], atol=ATOL, rtol=0
        )
        for fa, fb in zip(blk.fluxes[CONSERVED], other.fluxes[CONSERVED]):
            if fa is None:
                assert fb is None
                continue
            np.testing.assert_allclose(fa, fb, atol=ATOL, rtol=0)
    assert len(dp.history) == len(db.history) == NCYCLES
    for ha, hb in zip(dp.history, db.history):
        assert ha.cycle == hb.cycle
        assert ha.time == pytest.approx(hb.time, abs=ATOL)
        np.testing.assert_allclose(
            ha.scalar_totals, hb.scalar_totals, atol=ATOL, rtol=0
        )
        np.testing.assert_allclose(
            ha.momentum_totals, hb.momentum_totals, atol=ATOL, rtol=0
        )
        assert ha.total_d == pytest.approx(hb.total_d, abs=ATOL)
        assert ha.max_speed == pytest.approx(hb.max_speed, abs=ATOL)


@pytest.mark.parametrize("block_size", [8, 16, 32])
@pytest.mark.parametrize("levels", [1, 3], ids=["uniform", "amr"])
def test_parity_2d(block_size, levels):
    dp, db = run_pair(block_size, levels)
    assert_parity(dp, db)


def test_parity_3d_amr():
    dp, db = run_pair(8, 2, ndim=3, mesh=16)
    assert_parity(dp, db)


class TestLaunchAccounting:
    """Packed mode dispatches once per pack; per-block once per MeshBlock."""

    def test_packed_flux_launches_one_per_pack(self):
        dp = run_driver("packed", 8, 3)
        records = [
            n for l, n in dp.launch_records if l.name == "CalculateFluxes"
        ]
        assert records and all(n == 1 for n in records)

    def test_per_block_flux_launches_one_per_block(self):
        db = run_driver("per_block", 8, 3)
        records = [
            n for l, n in db.launch_records if l.name == "CalculateFluxes"
        ]
        # The mesh refines past the root grid, so per-block launch counts
        # must exceed one launch per rank (and track the block population).
        assert records and max(records) > 1
        assert max(records) <= db.max_blocks


class TestSteadyStateCaching:
    """Packs and ghost buffers are rebuilt only when the mesh changes."""

    def test_pack_reused_without_amr_changes(self):
        dp = run_driver("packed", 16, 1)
        assert dp.pack_rebuilds == 1

    def test_pack_rebuilt_only_on_remesh(self):
        dp = run_driver("packed", 8, 3)
        # With refine_every=1 every cycle *may* remesh; rebuilds must never
        # exceed one per cycle (+1 for the initial build) and the run must
        # have reused at least one pack across stages within a cycle.
        assert 1 <= dp.pack_rebuilds <= NCYCLES + 1

    def test_exchange_plan_compiles_only_on_rebuild(self, monkeypatch):
        from repro.comm.bvals import BoundaryExchange

        compiles = []
        original = BoundaryExchange._rebuild_numeric

        def counting(bx):
            compiles.append(bx)
            return original(bx)

        monkeypatch.setattr(BoundaryExchange, "_rebuild_numeric", counting)
        driver = ParthenonDriver(
            SimulationParams(
                ndim=2, mesh_size=32, block_size=16, num_levels=1,
                num_scalars=2,
            ),
            ExecutionConfig(
                backend="gpu", num_gpus=1, ranks_per_gpu=1, mode="numeric",
            ),
            initial_conditions=lambda mesh_, pkg: gaussian_blob(
                mesh_, pkg, amplitude=0.8, width=0.15
            ),
        )
        plan = driver.bx.plan
        driver.run(NCYCLES)
        # Steady topology: set-up compiles the plan once and the exchanges
        # of every stage and cycle reuse it over the driver's pack.
        assert len(compiles) == 1
        assert driver.bx.plan is plan
        assert driver.bx.pack is driver._pack


def test_packed_is_default_kernel_mode():
    assert ExecutionConfig().kernel_mode == "packed"
    with pytest.raises(ValueError, match="kernel_mode"):
        ExecutionConfig(kernel_mode="fused")
