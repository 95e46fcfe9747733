"""Regression pins: canonical configurations with frozen expectations.

These guard the calibrated figure *shapes* against accidental model drift:
they assert ranges (not exact floats) wide enough to survive benign
refactors but tight enough to catch a broken cost model or workload change.
"""

import pytest

from repro.api import RunSpec, Simulation
from repro.core.characterize import kernel_fraction
from repro.driver.execution import ExecutionConfig
from repro.driver.params import SimulationParams

GPU1 = ExecutionConfig(backend="gpu", num_gpus=1, ranks_per_gpu=1)
GPU12 = ExecutionConfig(backend="gpu", num_gpus=1, ranks_per_gpu=12)
CPU96 = ExecutionConfig(backend="cpu", cpu_ranks=96)


@pytest.fixture(scope="module")
def anchor():
    """The paper's anchor config at reduced mesh (tractable in tests)."""
    params = SimulationParams(ndim=3, mesh_size=64, block_size=8, num_levels=3)
    return {
        "gpu1": Simulation(RunSpec(params, GPU1, 2, 2)).run(),
        "gpu12": Simulation(RunSpec(params, GPU12, 2, 2)).run(),
        "cpu96": Simulation(RunSpec(params, CPU96, 2, 2)).run(),
    }


class TestAnchorPins:
    def test_gpu1_serial_dominates(self, anchor):
        r = anchor["gpu1"]
        ratio = r.serial_seconds / r.kernel_seconds
        # Paper's 21.8 at mesh 128; the reduced mesh sits lower but the
        # serial portion must still dominate by an order of magnitude.
        assert 5.0 < ratio < 40.0

    def test_ranks_help_several_fold(self, anchor):
        speedup = anchor["gpu12"].fom / anchor["gpu1"].fom
        assert 2.0 < speedup < 10.0

    def test_cpu_beats_gpu_at_block8(self, anchor):
        assert anchor["cpu96"].fom > anchor["gpu12"].fom

    def test_kernel_fraction_low_at_one_rank(self, anchor):
        assert kernel_fraction(anchor["gpu1"]) < 0.25

    def test_redistribute_is_top_function(self, anchor):
        top = next(iter(anchor["gpu1"].function_breakdown))
        assert top == "RedistributeAndRefineMeshBlocks"

    def test_memory_scales_with_ranks(self, anchor):
        assert (
            anchor["gpu12"].device_memory_peak
            > anchor["gpu1"].device_memory_peak
        )

    def test_comm_cells_identical_across_configs(self, anchor):
        """Traffic volume is workload-determined, not platform-determined."""
        cells = {r.cells_communicated for r in anchor.values()}
        assert len(cells) == 1


class TestBlockSizePins:
    def test_block32_gpu_advantage(self):
        params = SimulationParams(
            ndim=3, mesh_size=64, block_size=32, num_levels=3
        )
        gpu = Simulation(RunSpec(params, GPU12, 2, 2)).run()
        cpu = Simulation(RunSpec(params, CPU96, 2, 2)).run()
        # Fig 1(b): GPU wins by roughly 2-4x at block 32.
        assert 1.3 < gpu.fom / cpu.fom < 6.0


GPU1_PER_BLOCK = ExecutionConfig(
    backend="gpu", num_gpus=1, ranks_per_gpu=1, kernel_mode="per_block"
)


@pytest.fixture(scope="module")
def kernel_mode_pair():
    """The anchor config run packed vs per-block (the Fig. 1c ablation)."""
    params = SimulationParams(ndim=3, mesh_size=64, block_size=8, num_levels=3)
    return {
        "packed": Simulation(RunSpec(params, GPU1, 2, 2)).run(),
        "per_block": Simulation(RunSpec(params, GPU1_PER_BLOCK, 2, 2)).run(),
    }


class TestPackedModePins:
    """FOM pins for the packed execution engine (kernel_mode)."""

    def test_per_block_inflates_kernel_time(self, kernel_mode_pair):
        packed = kernel_mode_pair["packed"]
        per_block = kernel_mode_pair["per_block"]
        # At block 8 the mesh holds hundreds of blocks per rank; paying a
        # launch per block instead of one per pack must cost several-fold
        # kernel time (Section II-C launch-overhead mechanism).
        assert per_block.kernel_seconds > 1.5 * packed.kernel_seconds

    def test_per_block_degrades_fom(self, kernel_mode_pair):
        assert (
            kernel_mode_pair["packed"].fom
            > 1.2 * kernel_mode_pair["per_block"].fom
        )

    def test_comm_identical_across_kernel_modes(self, kernel_mode_pair):
        """Launch granularity must not change ghost traffic."""
        packed = kernel_mode_pair["packed"]
        per_block = kernel_mode_pair["per_block"]
        assert packed.cells_communicated == per_block.cells_communicated
        assert packed.remote_messages == per_block.remote_messages

    def test_numeric_packed_fom_pin(self):
        """The numeric path reports a finite FOM and the same launch
        accounting advantage as the modeled path."""
        from repro.driver.driver import ParthenonDriver
        from repro.solver.initial_conditions import gaussian_blob

        params = SimulationParams(
            ndim=2, mesh_size=32, block_size=8, num_levels=2, num_scalars=1
        )
        results = {}
        for mode in ("packed", "per_block"):
            cfg = ExecutionConfig(
                backend="gpu",
                num_gpus=1,
                ranks_per_gpu=1,
                mode="numeric",
                kernel_mode=mode,
            )
            driver = ParthenonDriver(
                params,
                cfg,
                initial_conditions=lambda mesh, pkg: gaussian_blob(
                    mesh, pkg, amplitude=0.8, width=0.15
                ),
            )
            results[mode] = driver.run(3)
        assert results["packed"].fom > 0
        assert results["packed"].fom > results["per_block"].fom
        # Same physics either way: identical history reductions.
        for ha, hb in zip(
            results["packed"].history, results["per_block"].history
        ):
            assert ha.total_d == pytest.approx(hb.total_d, abs=1e-13)
            assert ha.max_speed == pytest.approx(hb.max_speed, abs=1e-13)
