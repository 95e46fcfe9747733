"""Tests for the Section V multi-node behaviors."""

import pytest

from repro.core.sweeps import multinode_comparison
from repro.driver.driver import ParthenonDriver
from repro.driver.execution import ExecutionConfig
from repro.driver.params import SimulationParams


def params(**kw):
    defaults = dict(
        ndim=2,
        mesh_size=64,
        block_size=8,
        num_levels=2,
        num_scalars=1,
        wavefront_width=0.05,
    )
    defaults.update(kw)
    return SimulationParams(**defaults)


class TestInternodeTraffic:
    def test_two_nodes_produce_internode_messages(self):
        config = ExecutionConfig(
            backend="gpu", num_gpus=2, ranks_per_gpu=2, num_nodes=2
        )
        d = ParthenonDriver(params(), config)
        d.run(2)
        assert d.mpi.internode_messages > 0

    def test_single_node_has_no_internode_traffic(self):
        config = ExecutionConfig(backend="gpu", num_gpus=4, ranks_per_gpu=2)
        d = ParthenonDriver(params(), config)
        d.run(2)
        assert d.mpi.internode_messages == 0

    def test_rank_to_node_assignment_contiguous(self):
        config = ExecutionConfig(
            backend="cpu", cpu_ranks=8, num_nodes=2
        )
        d = ParthenonDriver(params(), config)
        nodes = [d.mpi.node_of(r) for r in range(16)]
        assert nodes == [0] * 8 + [1] * 8


class TestSectionVFindings:
    """Section V's qualitative claims, at rank counts the small test meshes
    can feed (the paper-scale numbers come from the benchmark suite)."""

    def test_cpu_scales_across_nodes_better_than_gpu(self):
        """Section V: CPU two-node speedup exceeds the GPU's."""
        from repro.api import RunSpec, Simulation

        p = SimulationParams(
            ndim=3, mesh_size=32, block_size=8, num_levels=2
        )
        speedups = {}
        for name, make in (
            (
                "CPU",
                lambda n: ExecutionConfig(
                    backend="cpu", cpu_ranks=16, num_nodes=n
                ),
            ),
            (
                "GPU",
                lambda n: ExecutionConfig(
                    backend="gpu", num_gpus=8, ranks_per_gpu=1, num_nodes=n
                ),
            ),
        ):
            one = Simulation(RunSpec(p, make(1), 3)).run()
            two = Simulation(RunSpec(p, make(2), 3)).run()
            speedups[name] = two.fom / one.fom
        assert speedups["CPU"] > speedups["GPU"]

    def test_block_size_drop_worse_on_gpu_two_nodes(self):
        """Section V: shrinking blocks costs GPUs far more than CPUs."""
        from repro.api import RunSpec, Simulation

        drops = {}
        for name, config in (
            (
                "CPU",
                ExecutionConfig(backend="cpu", cpu_ranks=16, num_nodes=2),
            ),
            (
                "GPU",
                ExecutionConfig(
                    backend="gpu", num_gpus=8, ranks_per_gpu=1, num_nodes=2
                ),
            ),
        ):
            big = Simulation(RunSpec(
                SimulationParams(ndim=3, mesh_size=64, block_size=16, num_levels=2),
                config, 2,
            )).run()
            small = Simulation(RunSpec(
                SimulationParams(ndim=3, mesh_size=64, block_size=8, num_levels=2),
                config, 2,
            )).run()
            drops[name] = big.fom / small.fom
        assert drops["GPU"] > drops["CPU"]

    def test_internode_collectives_cost_more(self):
        from repro.hardware.serial import SerialCostModel

        m = SerialCostModel()
        assert m.collective(16, 4096, internode=True) > m.collective(
            16, 4096, internode=False
        )
