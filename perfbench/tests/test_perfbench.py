"""Self-tests of the benchmark at the small scale (seconds per test).

    python3 -m pytest perfbench/tests -q
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from amrbench import harness, spans
from amrbench.harness import run_benchmark
from amrbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_runs_and_passes_its_checks(workload, trace):
    detail = run_benchmark(workload, 0, 0.1, trace, scale="small")
    result = detail["result"]
    assert detail["failures"] == []
    assert result["correct"] and result["failed"] == 0
    # A traced run holds an untraced and a traced episode; their equal
    # outcomes are one of the checks that just passed.
    assert result["attempted"] >= (2 if trace else 1)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_reported_with_its_unit(
    trace, kind, tmp_path, monkeypatch, capsys
):
    # run.main with every workload at the small scale, leaving the test
    # process's import path and thread settings as they were.
    monkeypatch.setattr(
        harness, "run_benchmark", functools.partial(run_benchmark, scale="small")
    )
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    code = run.main([
        "--workload", "blast3d-amr", "--seed", "1", "--seconds", "0.1",
        "--trace", str(trace), "--out", str(tmp_path),
    ])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    declared = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if trace:
        chrome = json.loads(next(tmp_path.glob("*.trace.json")).read_text())
        names = {ev["name"] for ev in chrome["traceEvents"]}
        assert "comm.set_bounds" in names and "cycle 0" in names


def test_nan_in_the_initial_condition_fails_every_episode():
    detail = run_benchmark(
        "blast3d-amr", 0, 0.1, False, scale="small", corrupt=True
    )
    result = detail["result"]
    assert result["correct"] is False
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert any("non-finite" in f for f in detail["failures"])


def test_an_output_that_differs_from_its_pin_fails(monkeypatch):
    pin = harness.load_pins("small", "uniform3d-b16")
    wrong = dict(pin, zone_cycles=pin["zone_cycles"] + 1)
    monkeypatch.setattr(harness, "load_pins", lambda *args: wrong)
    detail = run_benchmark("uniform3d-b16", 0, 0.1, False, scale="small")
    result = detail["result"]
    assert result["failed"] == result["attempted"] >= 1


def test_instrumentation_restores_every_patched_name():
    before = [vars(owner)[attr] for owner, attr, _, _ in spans.LAYERS]
    with spans.instrumented(spans.SpanRecorder("test")):
        patched = [vars(owner)[attr] for owner, attr, _, _ in spans.LAYERS]
    after = [vars(owner)[attr] for owner, attr, _, _ in spans.LAYERS]
    assert after == before
    assert all(p is not b for p, b in zip(patched, before))


def test_without_program_sources_it_exits_nonzero_silently(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = _cli(
        "--workload", "blast3d-amr", "--seed", "0", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
