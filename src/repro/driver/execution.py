"""Execution configuration: which simulated platform runs the workload.

Mirrors the paper's hardware axes: CPU runs use N MPI ranks on the 96-core
Sapphire Rapids node (1 rank per core); GPU runs use G H100s with R MPI
ranks per GPU (the Fig. 8 sweep); Section V uses two such nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.calibration import DEFAULT_CALIBRATION, Calibration
from repro.hardware.specs import (
    CPUSpec,
    GPUSpec,
    H100_SXM,
    SAPPHIRE_RAPIDS_8468,
)


@dataclass(frozen=True)
class OptimizationFlags:
    """Section VIII's recommended software optimizations, as toggles.

    Each flag enables one recommendation so the ablation benchmarks can
    quantify it in isolation:

    * ``integer_variable_indexing`` — replace GetVariablesByFlag's string
      hashing with the prebuilt integer index (Section VIII-A).
    * ``pooled_block_allocation`` — batch block allocations through a
      software memory pool instead of per-block cudaMalloc (Section VIII-A).
    * ``restructured_kernels`` — 2D/3D Kokkos loop structure: removes the
      wasted warps and line divergence of CalculateFluxes and shrinks the
      auxiliary buffers from per-MeshBlock volumes to per-ThreadBlock slices
      (Section VIII-B).
    * ``skip_buffer_shuffle`` — drop the randomization pass of
      InitializeBufferCache (the tradeoff Section VIII-A discusses).
    * ``parallel_host_tasks`` — OpenMP-parallelize the buffer-cache sort and
      ViewsOfViews metadata population across host threads (Section VIII-A:
      "parallel sorting algorithms may offer gains"; "parallel iteration
      over boundaries using OpenMP is feasible").
    """

    integer_variable_indexing: bool = False
    pooled_block_allocation: bool = False
    restructured_kernels: bool = False
    skip_buffer_shuffle: bool = False
    parallel_host_tasks: bool = False
    #: DISABLES Parthenon's MeshBlockPack launch batching (Section II-C):
    #: every pack kernel becomes one launch per MeshBlock.  A negative
    #: ablation — it shows why Parthenon packs (launch overhead swamps small
    #: blocks).
    disable_packing: bool = False

    #: Allocation-cost reduction from pooling (batched vs per-block malloc).
    POOL_SPEEDUP: float = 10.0
    #: Effective speedup of OpenMP host parallelization (8 threads at ~50%
    #: parallel efficiency on metadata-bound loops).
    HOST_PARALLEL_SPEEDUP: float = 4.0


@dataclass(frozen=True)
class ExecutionConfig:
    """Platform and parallelism for one run."""

    backend: str = "gpu"  # "gpu" | "cpu"
    num_gpus: int = 1
    ranks_per_gpu: int = 1
    cpu_ranks: int = 96
    num_nodes: int = 1
    #: "modeled" runs the synthetic workload with cost-only kernels;
    #: "numeric" runs real PDE data (small configurations only).
    mode: str = "modeled"
    #: How numeric kernels execute: "packed" sweeps one contiguous
    #: MeshBlockPack per dispatch (Parthenon's launch-amortized default,
    #: Section II-C); "per_block" loops blocks one kernel call each — the
    #: launch-overhead ablation.  Modeled runs use it for launch accounting.
    kernel_mode: str = "packed"
    #: Which engine executes the packed numeric kernels: "numpy"
    #: (vectorized reference) or "numba" (JIT fused stencils).  This is
    #: the *requested* backend; without numba installed the driver falls
    #: back to "numpy" with a one-time warning
    #: (``ParthenonDriver.kernel_backend`` records the effective engine).
    #: Ignored outside numeric+packed execution.
    kernel_backend: str = "numpy"
    gpu_spec: GPUSpec = H100_SXM
    cpu_spec: CPUSpec = SAPPHIRE_RAPIDS_8468
    calibration: Calibration = DEFAULT_CALIBRATION
    optimizations: OptimizationFlags = OptimizationFlags()
    #: Write a crash-consistent checkpoint every N completed cycles
    #: (0 disables).  Cadence never changes the simulated outcome — the
    #: bitwise-resume guarantee, DESIGN §9 — so this field is excluded
    #: from :meth:`repro.api.RunSpec.cache_key`.
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        from repro.options import check_fields

        check_fields(self)
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if self.backend == "gpu":
            if self.num_gpus < 1 or self.ranks_per_gpu < 1:
                raise ValueError("GPU runs need num_gpus, ranks_per_gpu >= 1")
        else:
            if self.cpu_ranks < 1:
                raise ValueError("CPU runs need cpu_ranks >= 1")
            if self.cpu_ranks > self.cpu_spec.cores * self.num_nodes:
                raise ValueError(
                    f"cpu_ranks {self.cpu_ranks} exceeds "
                    f"{self.cpu_spec.cores * self.num_nodes} cores"
                )

    @property
    def is_gpu(self) -> bool:
        return self.backend == "gpu"

    @property
    def total_ranks(self) -> int:
        """MPI ranks across all nodes."""
        if self.is_gpu:
            return self.num_gpus * self.ranks_per_gpu * self.num_nodes
        return self.cpu_ranks * self.num_nodes

    @property
    def devices_total(self) -> int:
        """GPUs across all nodes (0 for CPU runs)."""
        return self.num_gpus * self.num_nodes if self.is_gpu else 0

    def describe(self) -> str:
        nodes = f" x {self.num_nodes} nodes" if self.num_nodes > 1 else ""
        if self.is_gpu:
            return (
                f"{self.num_gpus} GPU - {self.ranks_per_gpu}R{nodes} "
                f"({self.gpu_spec.name})"
            )
        return f"CPU {self.cpu_ranks}R{nodes} ({self.cpu_spec.name})"
