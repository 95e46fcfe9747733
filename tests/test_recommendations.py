"""Tests for the automatic bottleneck advisor."""

import pytest

from repro.api import RunSpec, Simulation
from repro.core.recommendations import (
    analyze,
    max_rank_scaling_speedup,
    render_recommendations,
    serial_fraction,
)
from repro.driver.execution import ExecutionConfig
from repro.driver.params import SimulationParams

GPU1R = ExecutionConfig(backend="gpu", num_gpus=1, ranks_per_gpu=1)


@pytest.fixture(scope="module")
def result():
    params = SimulationParams(
        ndim=2, mesh_size=64, block_size=8, num_levels=3,
        num_scalars=1, wavefront_width=0.05, wavefront_speed=0.05,
    )
    return Simulation(RunSpec(params, GPU1R, ncycles=3, warmup=1)).run()


class TestAnalyze:
    def test_findings_ranked_by_seconds(self, result):
        findings = analyze(result)
        secs = [f.seconds for f in findings]
        assert secs == sorted(secs, reverse=True)
        assert len(findings) > 2

    def test_redistribute_gets_pooling_advice(self, result):
        findings = analyze(result, top=10)
        redis = next(
            f for f in findings
            if f.component == "RedistributeAndRefineMeshBlocks"
        )
        assert "pool" in redis.advice

    def test_amdahl_speedups_sane(self, result):
        for f in analyze(result):
            assert f.amdahl_speedup_if_removed >= 1.0
            assert 0.0 < f.share_of_total < 1.0

    def test_shares_below_unity_total(self, result):
        findings = analyze(result, top=20)
        assert sum(f.share_of_total for f in findings) <= 1.0


class TestSummaries:
    def test_serial_fraction_dominates_at_one_rank(self, result):
        assert serial_fraction(result) > 0.5

    def test_rank_scaling_bound_exceeds_one(self, result):
        assert max_rank_scaling_speedup(result) > 2.0

    def test_render_contains_paper_sections(self, result):
        text = render_recommendations(result)
        assert "VIII" in text
        assert "Amdahl" in text
        assert "RedistributeAndRefineMeshBlocks" in text
