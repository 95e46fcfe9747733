"""Ablation harness for Section VIII's optimization recommendations.

Runs a configuration with each optimization enabled in isolation (and all
together) and reports the change in FOM, serial time, and device memory —
the design-choice studies DESIGN.md calls out.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

from repro.api import RunSpec, Simulation
from repro.driver.driver import RunResult
from repro.driver.execution import ExecutionConfig, OptimizationFlags
from repro.driver.params import SimulationParams

ABLATIONS: Dict[str, OptimizationFlags] = {
    "baseline": OptimizationFlags(),
    "integer-indexing": OptimizationFlags(integer_variable_indexing=True),
    "pooled-allocation": OptimizationFlags(pooled_block_allocation=True),
    "restructured-kernels": OptimizationFlags(restructured_kernels=True),
    "no-buffer-shuffle": OptimizationFlags(skip_buffer_shuffle=True),
    "parallel-host-tasks": OptimizationFlags(parallel_host_tasks=True),
    "no-packing": OptimizationFlags(disable_packing=True),
    "all": OptimizationFlags(
        integer_variable_indexing=True,
        pooled_block_allocation=True,
        restructured_kernels=True,
        skip_buffer_shuffle=True,
        parallel_host_tasks=True,
    ),
}


@dataclass
class AblationRow:
    """One optimization's effect relative to the baseline."""

    name: str
    result: RunResult
    fom_speedup: float
    serial_reduction: float  # fraction of baseline serial time removed
    memory_reduction_bytes: int


def run_ablations(
    params: SimulationParams,
    config: ExecutionConfig,
    ncycles: int = 3,
    which: List[str] = None,
) -> List[AblationRow]:
    """Run each ablation and compare against the baseline."""
    names = which or list(ABLATIONS)
    if "baseline" not in names:
        names = ["baseline"] + names
    results: Dict[str, RunResult] = {}
    for name in names:
        flags = ABLATIONS[name]
        spec = RunSpec(
            params=params,
            config=replace(config, optimizations=flags),
            ncycles=ncycles,
        )
        results[name] = Simulation(spec).run()
    base = results["baseline"]
    rows = []
    for name in names:
        r = results[name]
        rows.append(
            AblationRow(
                name=name,
                result=r,
                fom_speedup=r.fom / base.fom if base.fom else 0.0,
                serial_reduction=(
                    1.0 - r.serial_seconds / base.serial_seconds
                    if base.serial_seconds
                    else 0.0
                ),
                memory_reduction_bytes=(
                    base.device_memory_peak - r.device_memory_peak
                ),
            )
        )
    return rows
