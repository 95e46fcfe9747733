"""Tests for the instrumented Parthenon driver."""

import numpy as np
import pytest

from repro.driver.driver import NumericalError, ParthenonDriver
from repro.driver.execution import ExecutionConfig, OptimizationFlags
from repro.driver.params import SimulationParams
from repro.solver.burgers import CONSERVED
from repro.solver.initial_conditions import gaussian_blob


def small_params(**kw):
    defaults = dict(
        ndim=2,
        mesh_size=64,
        block_size=16,
        num_levels=2,
        num_scalars=1,
        wavefront_width=0.05,
    )
    defaults.update(kw)
    return SimulationParams(**defaults)


def gpu_config(**kw):
    defaults = dict(backend="gpu", num_gpus=1, ranks_per_gpu=1, mode="modeled")
    defaults.update(kw)
    return ExecutionConfig(**defaults)


class TestParams:
    def test_geometry_respects_reconstruction_ghosts(self):
        assert small_params(reconstruction="weno5").geometry().ng == 4
        assert small_params(reconstruction="plm").geometry().ng == 2

    def test_ncomp(self):
        assert SimulationParams(ndim=3, num_scalars=8).ncomp == 11


class TestExecutionConfig:
    def test_total_ranks_gpu(self):
        c = ExecutionConfig(backend="gpu", num_gpus=4, ranks_per_gpu=3)
        assert c.total_ranks == 12
        assert c.devices_total == 4

    def test_total_ranks_cpu(self):
        c = ExecutionConfig(backend="cpu", cpu_ranks=48)
        assert c.total_ranks == 48
        assert c.devices_total == 0

    def test_multinode_ranks(self):
        c = ExecutionConfig(backend="gpu", num_gpus=8, ranks_per_gpu=1, num_nodes=2)
        assert c.total_ranks == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutionConfig(backend="tpu")
        with pytest.raises(ValueError):
            ExecutionConfig(mode="real")
        with pytest.raises(ValueError):
            ExecutionConfig(backend="cpu", cpu_ranks=200)

    def test_describe(self):
        assert "1 GPU - 4R" in gpu_config(ranks_per_gpu=4).describe()


class TestModeledRun:
    def test_run_produces_positive_times(self):
        d = ParthenonDriver(small_params(), gpu_config())
        r = d.run(3)
        assert r.cycles == 3
        assert r.wall_seconds > 0
        assert r.kernel_seconds > 0
        assert r.serial_seconds > 0
        assert r.fom > 0
        assert r.zone_cycles == r.cell_updates > 0

    def test_function_breakdown_has_paper_functions(self):
        d = ParthenonDriver(small_params(), gpu_config())
        r = d.run(2)
        for fn in (
            "CalculateFluxes",
            "SendBoundBufs",
            "ReceiveBoundBufs",
            "SetBounds",
            "RedistributeAndRefineMeshBlocks",
            "UpdateMeshBlockTree",
            "Refinement::Tag",
            "EstimateTimeStep",
        ):
            assert fn in r.function_breakdown, fn

    def test_refinement_front_grows_blocks(self):
        d = ParthenonDriver(small_params(num_levels=3), gpu_config())
        before = d.mesh.num_blocks
        d.run(3)
        assert d.mesh.num_blocks > before

    def test_warmup_resets_metrics(self):
        d = ParthenonDriver(small_params(), gpu_config())
        r = d.run(2, warmup=2)
        assert r.cycles == 2
        assert d.cycle == 4

    def test_deterministic(self):
        a = ParthenonDriver(small_params(), gpu_config()).run(3)
        b = ParthenonDriver(small_params(), gpu_config()).run(3)
        assert a.wall_seconds == b.wall_seconds
        assert a.cells_communicated == b.cells_communicated

    def test_memory_breakdown_labels(self):
        d = ParthenonDriver(small_params(), gpu_config())
        r = d.run(2)
        assert set(r.memory_breakdown) == {
            "kokkos_mesh",
            "kokkos_aux",
            "mpi_buffers",
            "mpi_driver",
        }
        assert r.device_memory_peak > 0

    def test_cpu_backend_runs(self):
        d = ParthenonDriver(
            small_params(), ExecutionConfig(backend="cpu", cpu_ranks=16)
        )
        r = d.run(2)
        assert r.fom > 0


class TestScalingTrends:
    """The paper's headline qualitative findings, as assertions."""

    def test_smaller_blocks_hurt_gpu_fom(self):
        """Fig. 5: GPU FOM declines as MeshBlockSize shrinks."""
        foms = {}
        for block in (8, 16):
            p = SimulationParams(
                ndim=2, mesh_size=64, block_size=block, num_levels=2,
                num_scalars=1, wavefront_width=0.05,
            )
            foms[block] = ParthenonDriver(p, gpu_config()).run(3).fom
        assert foms[16] > foms[8]

    def test_more_levels_hurt_gpu_fom(self):
        """Fig. 6: deeper AMR reduces GPU FOM."""
        foms = {}
        for lvl in (1, 3):
            p = small_params(num_levels=lvl)
            foms[lvl] = ParthenonDriver(p, gpu_config()).run(3).fom
        assert foms[1] > foms[3]

    def test_more_ranks_help_then_hurt_gpu(self):
        """Fig. 8: a sweet spot exists in ranks per GPU."""
        foms = {}
        for r in (1, 8, 64):
            p = small_params(num_levels=3)
            foms[r] = ParthenonDriver(p, gpu_config(ranks_per_gpu=r)).run(3).fom
        assert foms[8] > foms[1]
        assert foms[8] > foms[64]

    def test_cpu_scales_with_ranks(self):
        """Fig. 7: CPU runtime falls with core count."""
        times = {}
        for r in (4, 48):
            p = small_params()
            d = ParthenonDriver(p, ExecutionConfig(backend="cpu", cpu_ranks=r))
            times[r] = d.run(2).wall_seconds
        assert times[48] < times[4]

    def test_gpu_kernel_fraction_small_at_one_rank(self):
        """Fig. 9: 1-rank GPU runs are dominated by serial time."""
        p = small_params(num_levels=3, block_size=16)
        r = ParthenonDriver(p, gpu_config()).run(3)
        assert r.serial_seconds > r.kernel_seconds

    def test_redistribute_dominates_gpu_1r_serial(self):
        """Fig. 11: RedistributeAndRefineMeshBlocks is the largest function
        in low-concurrency GPU runs."""
        p = small_params(num_levels=3, block_size=16)
        r = ParthenonDriver(p, gpu_config()).run(3)
        top = next(iter(r.function_breakdown))
        assert top == "RedistributeAndRefineMeshBlocks"


class TestNumericMode:
    def test_numeric_run_conserves_mass(self):
        p = SimulationParams(
            ndim=2, mesh_size=32, block_size=8, num_levels=2,
            num_scalars=1, reconstruction="plm",
        )
        d = ParthenonDriver(
            p, gpu_config(mode="numeric"), initial_conditions=gaussian_blob
        )
        r = d.run(4)
        assert len(r.history) == 4
        first, last = r.history[0], r.history[-1]
        assert last.scalar_totals[0] == pytest.approx(
            first.scalar_totals[0], rel=1e-10
        )

    def test_numeric_refinement_follows_the_pulse(self):
        p = SimulationParams(
            ndim=2, mesh_size=32, block_size=8, num_levels=2,
            num_scalars=1, reconstruction="plm",
        )
        d = ParthenonDriver(
            p, gpu_config(mode="numeric"), initial_conditions=gaussian_blob
        )
        d.run(2)
        assert d.mesh.num_blocks > 16  # the blob triggered refinement

    @pytest.mark.parametrize("kernel_mode", ["packed", "per_block"])
    def test_nan_velocity_raises_naming_the_cycle(self, kernel_mode):
        def poisoned(mesh, pkg):
            gaussian_blob(mesh, pkg)
            # The last block: a running min over blocks must not drop it.
            mesh.block_list[-1].interior(CONSERVED)[0, 0, 0, 0] = np.nan

        d = ParthenonDriver(
            small_params(mesh_size=32, block_size=8),
            gpu_config(mode="numeric", kernel_mode=kernel_mode),
            initial_conditions=poisoned,
        )
        with pytest.raises(NumericalError, match="cycle 0: non-finite"):
            d.run(2)

    @pytest.mark.parametrize("kernel_mode", ["packed", "per_block"])
    def test_nan_passive_scalar_raises_naming_block_and_component(
        self, kernel_mode
    ):
        uids = []

        def poisoned(mesh, pkg):
            gaussian_blob(mesh, pkg)
            # A scalar does not reach dt: only the history check sees it.
            # By the check the NaN has spread to neighbours; the first
            # block in gid order is still the one named.
            blk = mesh.block_list[0]
            blk.interior(CONSERVED)[pkg.nvel + 1, 0, 1, 2] = np.nan
            uids.append(blk.uid)

        d = ParthenonDriver(
            small_params(mesh_size=32, block_size=8, num_scalars=2),
            gpu_config(mode="numeric", kernel_mode=kernel_mode),
            initial_conditions=poisoned,
        )
        component = d.pkg.nvel + 1
        with pytest.raises(
            NumericalError,
            match=(
                f"cycle 0: non-finite state in {CONSERVED} component "
                f"{component} of block uid {uids[0]}$"
            ),
        ):
            d.run(2)
        assert d.history == []

    def test_nan_campaign_point_is_an_error_and_never_cached(
        self, tmp_path, monkeypatch
    ):
        import json

        import repro.api as api
        from repro.api import RunSpec
        from repro.orchestration.campaign import run_campaign

        def poisoned(mesh, pkg):
            gaussian_blob(mesh, pkg)
            mesh.block_list[0].interior(CONSERVED)[pkg.nvel, 0, 0, 0] = np.nan

        class PoisonedDriver(ParthenonDriver):
            def __init__(self, *args, **kwargs):
                kwargs["initial_conditions"] = poisoned
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(api, "ParthenonDriver", PoisonedDriver)
        spec = RunSpec(
            small_params(mesh_size=32, block_size=8),
            gpu_config(mode="numeric"),
            ncycles=2,
            warmup=0,
            label="nan",
        )
        summary = run_campaign([spec], tmp_path, workers=1, retries=0)
        assert summary.failed == 1
        assert not list((tmp_path / "points").glob("*.json"))
        (error,) = (tmp_path / "errors").glob("*.json")
        message = json.loads(error.read_text())["error"]["message"]
        assert message.startswith("cycle 0: non-finite state in")

    @pytest.mark.parametrize("kernel_mode", ["packed", "per_block"])
    def test_fluid_at_rest_takes_the_fixed_step(self, kernel_mode):
        d = ParthenonDriver(
            small_params(mesh_size=32, block_size=8),
            gpu_config(mode="numeric", kernel_mode=kernel_mode),
        )
        assert d._current_dt() == 1e-3


class TestOptimizations:
    def test_integer_indexing_reduces_serial(self):
        p = small_params(num_levels=3)
        base = ParthenonDriver(p, gpu_config()).run(3)
        opt = ParthenonDriver(
            p,
            gpu_config(
                optimizations=OptimizationFlags(integer_variable_indexing=True)
            ),
        ).run(3)
        assert opt.serial_seconds < base.serial_seconds

    def test_pooled_allocation_reduces_serial(self):
        p = small_params(num_levels=3)
        base = ParthenonDriver(p, gpu_config()).run(3)
        opt = ParthenonDriver(
            p,
            gpu_config(
                optimizations=OptimizationFlags(pooled_block_allocation=True)
            ),
        ).run(3)
        assert opt.serial_seconds < base.serial_seconds

    def test_restructured_kernels_reduce_memory(self):
        p = SimulationParams(
            ndim=3, mesh_size=64, block_size=8, num_levels=2, num_scalars=8,
        )
        base = ParthenonDriver(p, gpu_config()).run(2)
        opt = ParthenonDriver(
            p,
            gpu_config(
                optimizations=OptimizationFlags(restructured_kernels=True)
            ),
        ).run(2)
        assert (
            opt.memory_breakdown["kokkos_aux"]
            < base.memory_breakdown["kokkos_aux"]
        )

    def test_parallel_host_tasks_reduce_serial(self):
        p = small_params(num_levels=3, wavefront_speed=0.08)
        base = ParthenonDriver(p, gpu_config()).run(4)
        opt = ParthenonDriver(
            p,
            gpu_config(
                optimizations=OptimizationFlags(parallel_host_tasks=True)
            ),
        ).run(4)
        assert opt.serial_seconds < base.serial_seconds
        assert opt.rebuild_buffer_cache_seconds < base.rebuild_buffer_cache_seconds

    def test_restructured_kernels_rename_flux_kernel(self):
        p = small_params()
        d = ParthenonDriver(
            p,
            gpu_config(
                optimizations=OptimizationFlags(restructured_kernels=True)
            ),
        )
        r = d.run(2)
        assert "CalculateFluxes3D" in r.kernel_seconds_by_name
        assert "CalculateFluxes" not in r.kernel_seconds_by_name
