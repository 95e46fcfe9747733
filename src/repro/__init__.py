"""Python reproduction of the IISWC 2025 Parthenon-VIBE AMR characterization study.

The package has two halves:

* the *workload*: a from-scratch block-structured AMR framework and
  Burgers (VIBE) solver (:mod:`repro.mesh`, :mod:`repro.comm`,
  :mod:`repro.solver`, :mod:`repro.driver`), and
* the *platform*: Kokkos-style instrumentation plus simulated H100 / Sapphire
  Rapids / Open MPI cost models (:mod:`repro.kokkos`, :mod:`repro.hardware`),

tied together by the characterization toolkit in :mod:`repro.core`, which
regenerates every figure and table in the paper.
"""

__version__ = "1.0.0"

from repro.driver.params import SimulationParams
from repro.driver.execution import ExecutionConfig, OptimizationFlags
from repro.driver.driver import ParthenonDriver, RunResult
from repro.api import (
    RunSpec,
    Simulation,
    build_execution_config,
    build_optimization_flags,
    build_simulation_params,
)

__all__ = [
    "SimulationParams",
    "ExecutionConfig",
    "OptimizationFlags",
    "ParthenonDriver",
    "RunResult",
    "RunSpec",
    "Simulation",
    "build_execution_config",
    "build_optimization_flags",
    "build_simulation_params",
    "__version__",
]
