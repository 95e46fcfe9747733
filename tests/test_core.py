"""Tests for the characterization toolkit (FOM, sweeps, tables, reports)."""

import pytest

from repro.api import RunSpec, Simulation
from repro.core.characterize import (
    comm_to_comp_ratio,
    growth_factor,
    kernel_fraction,
)
from repro.core.fom import zone_cycles, zone_cycles_per_second
from repro.core.memory_footprint import (
    aux_memory_bytes_per_block,
    aux_memory_post_optimization,
    aux_memory_pre_optimization,
)
from repro.core.microarch import build_microarch_table
from repro.core.opcode_analysis import opcode_breakdown
from repro.core.optimizations import ABLATIONS, run_ablations
from repro.core.report import (
    render_breakdown,
    render_memory,
    render_microarch,
    render_sweep,
    render_table,
)
from repro.core.sweeps import (
    SweepPoint,
    amr_level_sweep,
    block_size_sweep,
    gpu_rank_sweep,
)
from repro.driver.driver import ParthenonDriver
from repro.driver.execution import ExecutionConfig
from repro.driver.params import SimulationParams
from repro.hardware.gpu import GPUModel


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


GPU1R = ExecutionConfig(backend="gpu", num_gpus=1, ranks_per_gpu=1)


class TestFom:
    def test_zone_cycles(self):
        assert zone_cycles([10, 12], (16, 16, 16)) == 22 * 4096

    def test_zone_cycles_per_second(self):
        assert zone_cycles_per_second(1000, 2.0) == 500.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            zone_cycles([1], (0, 16, 16))
        with pytest.raises(ValueError):
            zone_cycles_per_second(100, 0.0)


class TestMemoryFootprint:
    def test_paper_worked_example(self):
        """Section VIII-B: 8.858 GB -> 0.138 GB."""
        pre = aux_memory_pre_optimization(4096, nx1=8, ng=4, num_scalar=8)
        post = aux_memory_post_optimization(1024, nx1=8, ng=4, num_scalar=8)
        assert pre / 1e9 == pytest.approx(8.858, abs=0.01)
        assert post / 1e9 == pytest.approx(0.138, abs=0.001)
        assert pre / post == pytest.approx(64.0, rel=0.01)

    def test_per_block_formula(self):
        # B * 6 * (8 + 8)^3 * 11
        assert aux_memory_bytes_per_block(8, 4, 8) == 8 * 6 * 16**3 * 11

    def test_validation(self):
        with pytest.raises(ValueError):
            aux_memory_bytes_per_block(0, 4, 8)
        with pytest.raises(ValueError):
            aux_memory_pre_optimization(-1, 8, 4, 8)


class TestCharacterize:
    def test_returns_result_with_metrics(self):
        r = Simulation(RunSpec(small_params(), GPU1R, 2, 1)).run()
        assert r.cycles == 2
        assert comm_to_comp_ratio(r) > 0
        assert 0 < kernel_fraction(r) < 1

    def test_growth_factor(self):
        a, b = (
            Simulation(RunSpec(small_params(mesh_size=m), GPU1R, 2, 0)).run()
            for m in (32, 64)
        )
        assert growth_factor(a, b, "cell_updates") > 1.5

    def test_rejects_bad_cycles(self):
        with pytest.raises(ValueError):
            RunSpec(small_params(), GPU1R, ncycles=0)


class TestSweeps:
    def test_block_size_sweep_shape(self):
        out = block_size_sweep(
            small_params(),
            {"GPU-1R": GPU1R},
            block_sizes=(8, 16),
            ncycles=2,
        )
        pts = out["GPU-1R"]
        assert [p.x for p in pts] == [8, 16]
        assert pts[1].fom > pts[0].fom  # larger blocks faster on GPU

    def test_level_sweep_declines_on_gpu(self):
        # A fast front keeps the remesher churning every measured cycle —
        # the sustained-AMR regime where deeper levels hurt the GPU.
        out = amr_level_sweep(
            small_params(wavefront_speed=0.08),
            {"GPU-1R": GPU1R},
            levels=(1, 3),
            ncycles=3,
        )
        pts = out["GPU-1R"]
        assert pts[0].fom > pts[1].fom

    def test_rank_sweep_has_interior_optimum(self):
        pts = gpu_rank_sweep(
            small_params(num_levels=3),
            ranks_per_gpu=(1, 8, 64),
            ncycles=2,
        )
        foms = [p.fom for p in pts]
        assert foms[1] > foms[0] and foms[1] > foms[2]

    def test_sweep_point_oom_fom_zero(self):
        pt = SweepPoint(label="x", x=1, result=None, oom=True)
        assert pt.fom == 0.0


class TestMicroarch:
    def test_table_built_from_run(self):
        d = ParthenonDriver(small_params(), GPU1R)
        d.run(2)
        table = build_microarch_table(d.launch_records, GPUModel(), per_cycle_of=2)
        names = [m.name for m in table.rows]
        assert "CalculateFluxes" in names
        assert table.total.duration_s == pytest.approx(
            sum(m.duration_s for m in table.rows)
        )
        for m in table.rows:
            assert 0 <= m.sm_occupancy <= 1
            assert 0 <= m.bw_utilization <= 1

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            build_microarch_table([], GPUModel())

    def test_calculate_fluxes_row_matches_paper_character(self):
        d = ParthenonDriver(small_params(block_size=16), GPU1R)
        d.run(2)
        table = build_microarch_table(d.launch_records, GPUModel())
        cf = next(m for m in table.rows if m.name == "CalculateFluxes")
        assert cf.sm_occupancy == pytest.approx(0.25, abs=0.02)
        assert cf.warp_utilization == pytest.approx(0.67, abs=0.06)
        assert 2.0 < cf.arithmetic_intensity < 5.0


class TestOpcodeAnalysis:
    def test_breakdown_matches_paper_findings(self):
        # A 3D configuration like the paper's Fig. 13 run (16 CPU ranks).
        r = Simulation(RunSpec(
            SimulationParams(
                ndim=3, mesh_size=32, block_size=8, num_levels=2,
                num_scalars=8,
            ),
            ExecutionConfig(backend="cpu", cpu_ranks=16),
            ncycles=2,
        )).run()
        b = opcode_breakdown(r)
        assert b.kernel.fraction("vector") > 0.4
        ls = b.serial.fraction("load") + b.serial.fraction("store")
        assert 0.35 < ls < 0.45
        # The paper reports >99%; the model lands high but not as extreme.
        assert b.kernel_instruction_share > 0.7

    def test_vector_share_falls_with_block_size(self):
        r32 = Simulation(RunSpec(
            small_params(block_size=32, mesh_size=128),
            ExecutionConfig(backend="cpu", cpu_ranks=16),
            ncycles=2,
        )).run()
        r16 = Simulation(RunSpec(
            small_params(block_size=16, mesh_size=128),
            ExecutionConfig(backend="cpu", cpu_ranks=16),
            ncycles=2,
        )).run()
        assert (
            opcode_breakdown(r32).kernel.fraction("vector")
            > opcode_breakdown(r16).kernel.fraction("vector")
        )


class TestAblations:
    def test_all_ablations_run_and_improve(self):
        # A fast-moving front keeps the remesher busy during the measured
        # cycles so allocation costs are visible.
        rows = run_ablations(
            small_params(num_levels=3, wavefront_speed=0.08),
            GPU1R,
            ncycles=4,
            which=["integer-indexing", "pooled-allocation", "all"],
        )
        by_name = {r.name: r for r in rows}
        assert by_name["baseline"].fom_speedup == pytest.approx(1.0)
        assert by_name["integer-indexing"].serial_reduction > 0
        assert by_name["pooled-allocation"].serial_reduction > 0
        assert by_name["all"].fom_speedup > 1.0

    def test_ablation_registry_complete(self):
        assert {"baseline", "integer-indexing", "pooled-allocation",
                "restructured-kernels", "no-buffer-shuffle",
                "parallel-host-tasks", "no-packing", "all"} == set(ABLATIONS)


class TestReport:
    def test_render_table_basic(self):
        out = render_table(["a", "bb"], [[1, 2], [30, 4]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_render_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])

    def test_render_sweep_marks_oom(self):
        series = {
            "GPU": [
                SweepPoint("GPU", 8, None, oom=True),
            ]
        }
        out = render_sweep(series, "block", "Fig")
        assert "OOM" in out

    def test_render_run_reports(self):
        r = Simulation(RunSpec(small_params(), GPU1R, ncycles=2)).run()
        assert "CalculateFluxes" in render_breakdown(r, "bd")
        assert "kokkos_mesh" in render_memory(r, "mem")
        d = ParthenonDriver(small_params(), GPU1R)
        d.run(2)
        table = build_microarch_table(d.launch_records, GPUModel())
        assert "SM Occ." in render_microarch(table, "t3")
