"""Unit tests for the tracing + metrics subsystem."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import ConfigError, RunSpec, Simulation
from repro.driver.execution import ExecutionConfig
from repro.driver.params import SimulationParams
from repro.kokkos.profiler import Profiler
from repro.observability import (
    Histogram,
    MetricsRegistry,
    NULL_RECORDER,
    TraceError,
    TraceRecorder,
    diff_region_totals,
    to_canonical_dict,
    to_canonical_json,
    to_chrome_trace,
)
from repro.observability.exporters import (
    render_trace_diff,
    render_trace_summary,
    within_tolerance,
)

MODELED = dict(
    params=SimulationParams(
        ndim=2, mesh_size=32, block_size=8, num_levels=2, num_scalars=1
    ),
    config=ExecutionConfig(backend="gpu", num_gpus=1, ranks_per_gpu=2),
    ncycles=2,
    warmup=1,
)


def traced_profiler():
    rec = TraceRecorder()
    return Profiler(recorder=rec), rec


class TestTraceRecorder:
    def test_span_tree_nesting(self):
        prof, rec = traced_profiler()
        with prof.region("Step"):
            with prof.region("CalculateFluxes"):
                prof.add_serial(1.0)
                prof.add_kernel("CalculateFluxes", 2.0, cells=100)
            prof.add_serial(0.5)
        trace = rec.to_trace()
        (step,) = trace.spans
        assert step.name == "Step" and step.cat == "region"
        assert step.t0 == 0.0 and step.t1 == 3.5
        flux, tail = step.children
        assert flux.cat == "region" and len(flux.children) == 2
        assert flux.children[1].meta == {"cells": 100}
        assert tail.cat == "serial" and tail.dur == 0.5

    def test_region_totals_match_profiler(self):
        prof, rec = traced_profiler()
        with prof.region("A"):
            prof.add_serial(1.0)
            with prof.region("B"):
                prof.add_kernel("K", 2.0)
        prof.add_serial(0.25)  # top-level charge -> "other"
        totals = rec.to_trace().region_totals()
        assert totals["A"] == {"serial": 1.0, "kernel": 0.0}
        assert totals["B"] == {"serial": 0.0, "kernel": 2.0}
        assert totals["other"] == {"serial": 0.25, "kernel": 0.0}
        for name, times in totals.items():
            assert times["serial"] == prof.regions[name].serial
            assert times["kernel"] == prof.regions[name].kernel

    def test_misnested_close_raises(self):
        rec = TraceRecorder()
        rec.open_region("A", 0.0, 0)
        with pytest.raises(TraceError, match="misnested"):
            rec.close_region("B", 1.0, 0)
        with pytest.raises(TraceError, match="no open region"):
            TraceRecorder().close_region("A", 0.0, 0)

    def test_to_trace_rejects_open_regions(self):
        rec = TraceRecorder()
        rec.open_region("A", 0.0, 0)
        with pytest.raises(TraceError, match="still open"):
            rec.to_trace()

    def test_negative_duration_rejected(self):
        rec = TraceRecorder()
        with pytest.raises(TraceError):
            rec.record("serial", "A", None, 0.0, -1.0, 0)

    def test_clear_resets_everything(self):
        prof, rec = traced_profiler()
        with prof.region("A"):
            prof.add_serial(1.0)
        rec.clear()
        assert rec.roots == [] and rec.depth == 0
        trace = rec.to_trace()
        assert trace.spans == [] and trace.total_seconds == 0.0

    def test_null_recorder_is_inert(self):
        NULL_RECORDER.open_region("A", 0.0, 0)
        NULL_RECORDER.close_region("B", 1.0, 0)  # no misnesting check
        NULL_RECORDER.record("serial", "A", None, 0.0, 1.0, 0)
        NULL_RECORDER.clear()
        assert not NULL_RECORDER.active


class TestExporters:
    def run_traced(self):
        prof, rec = traced_profiler()
        with prof.region("Step"):
            prof.add_kernel("CalculateFluxes", 0.5, cells=64, launches=2)
            prof.add_serial(0.25)
        return rec.to_trace(meta={"kernel_mode": "packed"})

    def test_chrome_lanes_and_microseconds(self):
        trace = self.run_traced()
        doc = to_chrome_trace(trace)
        events = doc["traceEvents"]
        by_name = {e["name"]: e for e in events}
        assert by_name["Step"]["tid"] == 1  # host lane
        assert by_name["CalculateFluxes"]["tid"] == 2  # device lane
        assert by_name["CalculateFluxes"]["dur"] == pytest.approx(0.5e6)
        assert by_name["CalculateFluxes"]["args"]["launches"] == 2
        assert all(e["ph"] == "X" for e in events)
        json.dumps(doc)  # serializable

    def test_canonical_json_is_stable_and_newline_final(self):
        trace = self.run_traced()
        text = to_canonical_json(trace)
        assert text == to_canonical_json(trace)
        assert text.endswith("\n")
        doc = json.loads(text)
        assert doc["schema"] == "repro.trace"
        assert doc["schema_version"] == 5
        assert doc["meta"]["kernel_mode"] == "packed"
        assert doc["regions"]["Step"]["kernel"] == 0.5
        assert doc["kernels"]["CalculateFluxes"] == 0.5
        assert doc["total_seconds"] == pytest.approx(0.75)

    def test_diff_rejects_non_canonical_docs(self):
        with pytest.raises(ValueError, match="not a canonical"):
            diff_region_totals({"schema": "nope"}, {"schema": "repro.trace"})

    def test_diff_reports_missing_regions_as_zero(self):
        a = to_canonical_dict(self.run_traced())
        b = json.loads(json.dumps(a))
        b["regions"]["Extra"] = {"serial": 1.0, "kernel": 0.0}
        deltas = {d.name: d for d in diff_region_totals(a, b)}
        assert deltas["Extra"].a == 0.0 and deltas["Extra"].b == 1.0
        assert deltas["Extra"].rel == 1.0
        assert not within_tolerance(list(deltas.values()), 0.5)
        assert "Extra" in render_trace_diff(list(deltas.values()), 0.5)

    def test_summary_renders(self):
        doc = to_canonical_dict(self.run_traced())
        text = render_trace_summary(doc)
        assert "Per-region breakdown" in text
        assert "CalculateFluxes" in text


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        m = MetricsRegistry()
        m.count("launches", 3)
        m.count("launches")
        m.gauge("blocks", 7)
        m.observe("bytes", 100.0)
        m.observe("bytes", 1e6)
        doc = m.to_dict()
        assert doc["counters"]["launches"] == 4
        assert doc["gauges"]["blocks"] == 7
        assert doc["histograms"]["bytes"]["count"] == 2
        assert doc["histograms"]["bytes"]["min"] == 100.0
        assert doc["histograms"]["bytes"]["max"] == 1e6
        json.dumps(doc)

    def test_cycle_snapshots_are_cumulative(self):
        m = MetricsRegistry()
        m.count("x", 1)
        m.end_cycle(1)
        m.count("x", 2)
        m.end_cycle(2)
        snaps = m.to_dict()["per_cycle"]
        assert snaps == [
            {"cycle": 1, "counters": {"x": 1}},
            {"cycle": 2, "counters": {"x": 3}},
        ]

    def test_merge_gauges_take_max(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("blocks", 5)
        b.gauge("blocks", 9)
        a.merge(b)
        assert a.gauges["blocks"] == 9

    def test_histogram_merge_requires_same_bounds(self):
        a, b = Histogram([1.0, 2.0]), Histogram([1.0, 3.0])
        with pytest.raises(ValueError):
            a.merge(b)

    @settings(max_examples=60, deadline=None)
    @given(
        prior=st.lists(st.integers(0, 10**7), max_size=5),
        value=st.integers(0, 10**9) | st.floats(-1e9, 1e9, allow_nan=False),
        count=st.integers(0, 40),
    )
    def test_observe_count_equals_repeated_observes_property(
        self, prior, value, count
    ):
        """Property: ``observe(v, count=n)`` leaves a histogram as ``n``
        single observations would: same buckets, count, min and max, and
        the same sum — exactly for integer values such as byte sizes."""
        bulk, single = Histogram(), Histogram()
        for v in prior:
            bulk.observe(v)
            single.observe(v)
        bulk.observe(value, count=count)
        for _ in range(count):
            single.observe(value)
        assert bulk.counts == single.counts
        assert (bulk.count, bulk.min, bulk.max) == (
            single.count, single.min, single.max
        )
        if isinstance(value, int):
            assert bulk.sum == single.sum
        else:
            assert bulk.sum == pytest.approx(single.sum, rel=1e-12, abs=1e-6)

    def test_clear_preserves_identity(self):
        m = MetricsRegistry()
        m.count("x")
        alias = m
        m.clear()
        assert alias.counters == {} and alias.cycle_snapshots == []


class TestDriverIntegration:
    def test_driver_populates_metrics(self):
        result = Simulation(RunSpec(**MODELED)).run()
        counters = result.metrics["counters"]
        assert counters["kernel_launches"] > 0
        assert counters["ghost_cells"] > 0
        assert counters["ghost_bytes"] > 0
        assert result.metrics["gauges"]["blocks"] > 0
        assert len(result.metrics["per_cycle"]) == MODELED["ncycles"]
        hist = result.metrics["histograms"]["ghost_message_bytes"]
        assert hist["count"] > 0

    def test_numeric_packed_counts_pack_rebuilds(self):
        from repro.solver.initial_conditions import gaussian_blob

        spec = RunSpec(
            params=SimulationParams(
                ndim=2, mesh_size=16, block_size=8, num_levels=1,
                num_scalars=1,
            ),
            config=ExecutionConfig(
                backend="gpu", num_gpus=1, ranks_per_gpu=1, mode="numeric",
                kernel_mode="packed",
            ),
            ncycles=2,
            warmup=0,
        )
        sim = Simulation(
            spec,
            initial_conditions=lambda mesh, pkg: gaussian_blob(
                mesh, pkg, amplitude=0.8, width=0.15
            ),
        )
        result = sim.run()
        assert result.metrics["counters"]["pack_rebuilds"] >= 1
        assert result.metrics["gauges"]["pack_blocks"] >= 1

    def test_trace_covers_measured_cycles_only(self):
        sim = Simulation(RunSpec(**MODELED), trace=True)
        result = sim.run()
        trace = sim.trace()
        # warmup spans were discarded: trace wall == measured wall
        assert trace.total_seconds == pytest.approx(
            result.wall_seconds, abs=1e-12
        )
        cycles = {s.cycle for s in trace.walk()}
        assert cycles <= set(range(MODELED["ncycles"]))

    def test_trace_requires_opt_in(self):
        sim = Simulation(RunSpec(**MODELED))
        sim.run()
        with pytest.raises(ConfigError, match="trace=True"):
            sim.trace()

    def test_artifact_carries_metrics(self):
        sim = Simulation(RunSpec(**MODELED))
        art = sim.artifact()
        assert art["schema_version"] == 7
        assert art["metrics"]["counters"]["kernel_launches"] > 0
        json.dumps(art)


class TestTraceCLI:
    DECK = "examples/mini.in"

    def run_cli(self, argv, capsys):
        from repro.cli import main

        code = main(argv)
        return code, capsys.readouterr().out

    def test_canonical_matches_golden(self, capsys):
        code, out = self.run_cli(["trace", self.DECK], capsys)
        assert code == 0
        golden = open("tests/golden/trace_mini_packed.json").read()
        assert out == golden

    def test_chrome_format_and_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "trace.json"
        code, out = self.run_cli(
            ["trace", self.DECK, "--format", "chrome", "-o", str(out_file)],
            capsys,
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["traceEvents"]
        assert "chrome trace written to" in out

    def test_summary_format(self, capsys):
        code, out = self.run_cli(
            ["trace", self.DECK, "--format", "summary"], capsys
        )
        assert code == 0
        assert "Per-region breakdown" in out

    def test_diff_identical_exits_zero(self, tmp_path, capsys):
        code, out = self.run_cli(["trace", self.DECK], capsys)
        a = tmp_path / "a.json"
        a.write_text(out)
        code, out = self.run_cli(
            ["trace", "--diff", str(a), str(a)], capsys
        )
        assert code == 0
        assert "largest relative delta: 0.00%" in out

    def test_diff_kernel_modes_reports_nonzero_delta(self, capsys):
        code, out = self.run_cli(
            [
                "trace", "--diff",
                "tests/golden/trace_mini_packed.json",
                "tests/golden/trace_mini_per_block.json",
            ],
            capsys,
        )
        assert code == 1
        assert "CalculateFluxes" in out
        assert "+0.000000" not in out.split("CalculateFluxes")[1].split("\n")[0]

    def test_diff_tolerance_allows_close_traces(self, tmp_path, capsys):
        golden = json.loads(
            open("tests/golden/trace_mini_packed.json").read()
        )
        nudged = json.loads(json.dumps(golden))
        name = next(iter(nudged["regions"]))
        nudged["regions"][name]["serial"] *= 1.0001
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(golden))
        b.write_text(json.dumps(nudged))
        code, _ = self.run_cli(
            ["trace", "--diff", str(a), str(b), "--tolerance", "0.01"], capsys
        )
        assert code == 0

    def test_trace_without_input_errors(self, capsys):
        from repro.cli import main

        assert main(["trace"]) == 2
        assert "input deck" in capsys.readouterr().err
