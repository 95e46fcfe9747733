"""Episodes, output checks and metrics of one benchmark run.

A run repeats *episodes* until its time is spent.  An episode builds a
fresh driver from the seed's inputs through ``repro.api.Simulation``,
steps the workload's measured cycles (each timed), and checks the
outputs.  Between episodes the run times a fixed number of set-up-only
driver builds, spread evenly over its time.  Every episode of a run starts from the same inputs,
so all of them must produce the same deterministic outcome; an episode
that fails any check counts as one failed operation.

Untraced episodes give the end-to-end metrics.  With tracing on, untraced
and traced episodes alternate: the traced ones give the per-layer metrics
and the pair gives the tracing overhead.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from itertools import cycle
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Dict, List, Optional

import numpy as np

from repro.api import Simulation
from repro.solver.burgers import CONSERVED
from repro.solver.history import reduce_history

from amrbench.spans import (
    SpanRecorder,
    chrome_events,
    instrumented,
    layer_metrics,
    write_chrome_trace,
)
from amrbench.workloads import REPO_ROOT, WORKLOADS, Inputs

PINS_PATH = Path(__file__).resolve().parents[1] / "pins.json"
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"

#: Timed set-up-only driver builds per run, after one untimed warm-up
#: build that fills the process's caches.  The count is fixed, so the
#: host's speed does not decide how many samples the median gets; they are
#: spread over the run because the host's speed drifts for seconds at a
#: time, and a burst of samples would see only one of its states.
SETUP_SAMPLES = 15
#: Passive-scalar totals must stay within this relative drift.
CONSERVATION_RTOL = 1e-12
#: Relative tolerance on a pinned modeled FOM.
FOM_RTOL = 1e-9


@dataclass
class Episode:
    traced: bool
    cycle_s: List[float] = field(default_factory=list)
    zone_cycles: int = 0
    #: Deterministic outcome; equal across every episode of one run.
    outcome: Dict[str, object] = field(default_factory=dict)
    kernel_backend: str = ""
    failures: List[str] = field(default_factory=list)
    recorder: Optional[SpanRecorder] = None
    marks_ns: List[int] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def cycle_wall_s(self) -> float:
        return sum(self.cycle_s)


def _scalar_totals(driver) -> List[float]:
    row = reduce_history(driver.mesh, driver.pkg, driver.cycle, driver.time)
    return row.scalar_totals


def _outcome(driver, result) -> Dict[str, object]:
    """The run's deterministic results: every integer of the RunResult,
    blocks per level, the modeled FOM, the history rows and, with field
    data, a digest of the final conserved state."""
    out: Dict[str, object] = {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if isinstance(getattr(result, f.name), int)
    }
    out["mpi_counters"] = dict(result.mpi_counters)
    out["blocks_per_level"] = {
        str(k): v for k, v in sorted(driver.mesh.level_counts().items())
    }
    out["modeled_fom"] = result.fom
    out["history"] = [dataclasses.astuple(row) for row in result.history]
    if driver.numeric:
        digest = hashlib.sha256()
        for blk in driver.mesh.block_list:
            interior = np.ascontiguousarray(blk.interior(CONSERVED))
            digest.update(interior.tobytes())
        out["state_sha256"] = digest.hexdigest()
    return out


def _check_fields(driver, initial_totals: List[float]) -> List[str]:
    failures = []
    for blk in driver.mesh.block_list:
        if not np.all(np.isfinite(blk.interior(CONSERVED))):
            failures.append(
                f"non-finite conserved state in block uid {blk.uid}"
            )
            break
    for row_totals in [r.scalar_totals for r in driver.history] + [
        _scalar_totals(driver)
    ]:
        for j, (t0, t) in enumerate(zip(initial_totals, row_totals)):
            drift = abs(t - t0) / abs(t0) if t0 else abs(t)
            if not drift <= CONSERVATION_RTOL:
                failures.append(
                    f"scalar {j} total drifted by {drift:.3e} "
                    f"(limit {CONSERVATION_RTOL:g})"
                )
                return failures
    return failures


def run_episode(
    inputs: Inputs, recorder: Optional[SpanRecorder] = None
) -> Episode:
    """One set-up plus the measured cycles, with the per-episode checks."""
    ep = Episode(traced=recorder is not None, recorder=recorder)
    t_start = perf_counter()
    try:
        sim = Simulation(
            inputs.spec, initial_conditions=inputs.initial_conditions
        )
        driver = sim.driver
        initial = _scalar_totals(driver) if inputs.numeric else []
        ep.marks_ns = [perf_counter_ns()]

        def mark(_driver) -> None:
            ep.marks_ns.append(perf_counter_ns())

        if recorder is None:
            result = sim.run(on_cycle=mark)
        else:
            with instrumented(recorder):
                result = sim.run(on_cycle=mark)
        ep.cycle_s = [
            (b - a) / 1e9 for a, b in zip(ep.marks_ns, ep.marks_ns[1:])
        ]
        ep.zone_cycles = result.zone_cycles
        ep.kernel_backend = result.kernel_backend
        ep.outcome = _outcome(driver, result)
        if result.cycles != inputs.spec.ncycles or result.oom:
            ep.failures.append(
                f"ran {result.cycles} of {inputs.spec.ncycles} cycles "
                f"(oom={result.oom})"
            )
        try:
            driver.mesh.tree.check_valid()
        except AssertionError as exc:
            ep.failures.append(f"tree invalid: {exc}")
        if inputs.numeric:
            ep.failures.extend(_check_fields(driver, initial))
    except Exception as exc:  # one failed operation; the run goes on
        traceback.print_exc(file=sys.stderr)
        ep.failures.append(f"{type(exc).__name__}: {exc}")
    ep.wall_s = perf_counter() - t_start
    return ep


def time_setup(inputs: Inputs) -> float:
    gc.collect()
    sim = Simulation(inputs.spec, initial_conditions=inputs.initial_conditions)
    t0 = perf_counter()
    sim.driver
    return perf_counter() - t0


def load_pins(scale: str, workload: str) -> dict:
    """The workload's pinned outcome, the same for every seed."""
    return json.loads(PINS_PATH.read_text())[scale][workload]


def pin_failures(outcome: Dict[str, object], pin: dict) -> List[str]:
    failures = []
    for key in ("zone_cycles", "blocks_per_level"):
        if outcome.get(key) != pin[key]:
            failures.append(f"{key} {outcome.get(key)} != pinned {pin[key]}")
    if "modeled_fom" in pin:
        got, want = outcome.get("modeled_fom"), pin["modeled_fom"]
        if not math.isclose(got, want, rel_tol=FOM_RTOL):
            failures.append(f"modeled FOM {got!r} != pinned {want!r}")
    return failures


def pin_record(outcome: Dict[str, object], numeric: bool) -> dict:
    """The subset of an outcome that ``pins.json`` holds."""
    pin = {
        "zone_cycles": outcome["zone_cycles"],
        "blocks_per_level": outcome["blocks_per_level"],
    }
    if not numeric:
        pin["modeled_fom"] = outcome["modeled_fom"]
    return pin


def environment() -> Dict[str, object]:
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = REPO_ROOT / ".git" / "HEAD"
    commit = None
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = REPO_ROOT / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.exists() else None
        commit = ref
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": commit,
    }


def _with_units(values: Dict[str, float], kind: str) -> Dict[str, dict]:
    """Attach each metric's unit from ``BENCHMARK.json``, which must name
    exactly the metrics measured."""
    declared = json.loads(BENCHMARK_JSON.read_text())[kind]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        raise RuntimeError(
            f"BENCHMARK.json {kind} names {sorted(set(units) ^ set(values))} "
            "disagree with the measured metrics"
        )
    return {
        name: {"value": values[name], "unit": units[name]} for name in units
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _median_dict(dicts: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def _zone_cycles_per_s(episodes: List[Episode]) -> float:
    wall = sum(e.cycle_wall_s for e in episodes)
    return sum(e.zone_cycles for e in episodes) / wall if wall else 0.0


def run_benchmark(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "full",
    out_dir: Optional[Path] = None,
    corrupt: bool = False,
) -> Dict[str, object]:
    """Run one workload for about ``seconds`` and return the report.

    The report's ``result`` entry is the benchmark's final output line;
    the rest is detail (inputs, environment, sample counts, failures).
    """
    inputs = WORKLOADS[workload].inputs(seed, scale, corrupt)
    run_id = f"{workload}-seed{seed}-{os.getpid()}"
    start = perf_counter()
    time_setup(inputs)
    setup_samples: List[float] = []

    def take_setups(due: int) -> None:
        while len(setup_samples) < min(due, SETUP_SAMPLES):
            setup_samples.append(time_setup(inputs))

    episodes: List[Episode] = []
    kinds = cycle([False, True] if trace else [False])
    minimum = 2 if trace else 1
    while True:
        elapsed = perf_counter() - start
        take_setups(1 + int(SETUP_SAMPLES * elapsed / seconds))
        # Free the previous drivers first, so no episode's peak memory
        # includes another's garbage.
        gc.collect()
        traced = next(kinds)
        rec = SpanRecorder(run_id) if traced else None
        episodes.append(run_episode(inputs, rec))
        if len(episodes) == 1:
            # Peak through two set-ups and one episode.  Later episodes
            # repeat the same work; the allocator's heap then grows with
            # their number, which the host's speed decides.
            peak_rss_mb = _peak_rss_mb()
        if len(episodes) >= minimum:
            per_episode = statistics.mean(e.wall_s for e in episodes)
            if perf_counter() - start + per_episode > seconds:
                break
    take_setups(SETUP_SAMPLES)

    # Cross-episode checks: one outcome, matching the workload's pin.
    reference = episodes[0].outcome
    for ep in episodes[1:]:
        if ep.outcome != reference and not ep.failures:
            kind = "traced" if ep.traced else "untraced"
            ep.failures.append(
                f"{kind} episode outcome differs from the first"
            )
    if reference:
        mismatch = pin_failures(reference, load_pins(scale, workload))
        for ep in episodes:
            ep.failures.extend(mismatch)
    failed = sum(1 for e in episodes if e.failures)

    untraced = [e for e in episodes if not e.traced]
    traced_eps = [e for e in episodes if e.traced]
    cycle_samples = [s for e in untraced for s in e.cycle_s]
    zcps = _zone_cycles_per_s(untraced)
    if trace:
        layers = _median_dict(
            [layer_metrics(e.recorder, e.cycle_wall_s) for e in traced_eps]
        )
        traced_zcps = _zone_cycles_per_s(traced_eps)
        layers["trace.overhead_frac"] = (
            1.0 - traced_zcps / zcps if zcps else 0.0
        )
        metrics = _with_units(layers, "per_layer")
    else:
        metrics = _with_units(
            {
                "zone_cycles_per_s": zcps,
                "cycle_s_p50": (
                    statistics.median(cycle_samples) if cycle_samples else 0.0
                ),
                "setup_s": statistics.median(setup_samples),
                "peak_rss_mb": peak_rss_mb,
            },
            "end_to_end",
        )
    result = {
        "correct": failed == 0,
        "attempted": len(episodes),
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "workload": workload,
        "scale": scale,
        "run_id": run_id,
        "inputs": inputs.record,
        "environment": dict(
            environment(),
            kernel_backend=episodes[0].kernel_backend or None,
        ),
        "samples": {
            "episodes_untraced": len(untraced),
            "episodes_traced": len(traced_eps),
            "cycles": len(cycle_samples),
            "setups": len(setup_samples),
            "setup_s": setup_samples,
            "cycle_s": [e.cycle_s for e in untraced],
        },
        "tail_percentile": (
            "none: the end-to-end metrics report the median only; a run's "
            f"{len(cycle_samples)} cycle samples are too few for p90 to "
            "have ten samples beyond it on the full-scale workloads"
        ),
        "outcome": {k: v for k, v in reference.items() if k != "history"},
        "failures": [f for e in episodes for f in e.failures],
        "elapsed_s": perf_counter() - start,
        "result": result,
    }
    if out_dir is not None:
        stem = f"{workload}-seed{seed}-{scale}"
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{stem}-trace{int(trace)}.json").write_text(
            json.dumps(detail, indent=1, default=str)
        )
        if trace and traced_eps:
            t0 = traced_eps[0].marks_ns[0]
            events = [
                ev
                for k, e in enumerate(traced_eps)
                for ev in chrome_events(e.recorder, e.marks_ns, k, t0)
            ]
            write_chrome_trace(
                out_dir / f"{stem}.trace.json",
                events,
                {"run_id": run_id, "workload": workload, "seed": seed},
            )
    return detail

