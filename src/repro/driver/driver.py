"""The instrumented timestep loop (Fig. 3 of the paper).

Every cycle runs ``Step`` → ``LoadBalancingAndAMR`` → ``EstimateTimeStep``
with the same sub-function decomposition the paper profiles.  All framework
bookkeeping (tree, neighbor lists, buffer caches, message counts, block
distribution) is *real*; the platform clock converts the recorded work into
simulated seconds on the configured hardware.  In ``numeric`` mode the
physics kernels also execute real NumPy math; in ``modeled`` mode they only
contribute cost records, and refinement follows the synthetic expanding
wavefront (the paper's ripple picture).

Wall-time accounting: divisible host work (per-block, per-buffer) is divided
across ranks and scaled by the measured load imbalance; undividable work
(tree update over all blocks, collectives, GPU-sharing contention) is charged
in full.  GPU kernels launched by the ranks sharing one device serialize on
it; the per-launch overhead is paid per rank-launch.  Function times are
additive (no overlap modeling), matching the paper's stacked breakdowns.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.comm.bvals import BoundaryExchange
from repro.comm.flux_correction import FluxCorrection
from repro.comm.mpi import SimMPI
from repro.driver.execution import ExecutionConfig
from repro.driver.params import SimulationParams
from repro.hardware.cpu import CPUModel
from repro.hardware.gpu import GPUModel
from repro.hardware.serial import SerialCostModel, mpi_driver_memory_bytes
from repro.kokkos.kernel import (
    KERNEL_PROFILES,
    KernelLaunch,
    launch_plan,
    make_launch,
)
from repro.kokkos.memory import (
    KOKKOS_AUX,
    KOKKOS_MESH,
    MPI_BUFFERS,
    MPI_DRIVER,
    MemoryTracker,
    OutOfMemoryError,
)
from repro.kokkos.profiler import Profiler
from repro.kokkos.space import ExecutionSpace
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import NullRecorder
from repro.resilience.faults import FaultInjector, NULL_INJECTOR
from repro.mesh.loadbalance import RedistributionPlan, balance
from repro.mesh.mesh import Mesh
from repro.mesh.refinement import SphericalWavefrontTagger, build_policy
from repro.kernels.backends import build_kernels
from repro.solver.advance import RK2_STAGES
from repro.solver.burgers import (
    BASE,
    BurgersPackage,
    CONSERVED,
    DERIVED,
)
from repro.solver.history import HistoryRow, reduce_history
from repro.solver.packs import MeshBlockPack, build_numeric_pack
from repro.solver.state import Metadata


class NumericalError(ArithmeticError):
    """The numeric state went non-finite (NaN), so no time step exists."""


@dataclass
class RunResult:
    """Everything the characterization toolkit needs from one run."""

    params: SimulationParams
    config: ExecutionConfig
    cycles: int
    zone_cycles: int
    wall_seconds: float
    kernel_seconds: float
    serial_seconds: float
    fom: float  # zone-cycles per second
    function_breakdown: Dict[str, Tuple[float, float]]  # name -> (serial, kernel)
    kernel_seconds_by_name: Dict[str, float]
    cells_communicated: int
    cell_updates: int
    remote_messages: int
    final_blocks: int
    max_blocks: int
    rebuild_buffer_cache_seconds: float
    memory_breakdown: Dict[str, int]  # per label, max-loaded device
    device_memory_peak: int
    oom: bool
    history: List[HistoryRow] = field(default_factory=list)
    #: Whole-run MPI traffic counters (every :class:`MPICounters` field),
    #: as recorded by the simulated communicator — the run-artifact's
    #: ``communication.mpi_counters`` section.
    mpi_counters: Dict[str, int] = field(default_factory=dict)
    #: :meth:`MetricsRegistry.to_dict` snapshot (counters, gauges,
    #: histograms, per-cycle counter series) — the run-artifact's
    #: ``metrics`` section.
    metrics: Dict[str, object] = field(default_factory=dict)
    #: *Effective* kernel backend the numeric packed kernels ran on
    #: ("numpy" after a fallback, and always "numpy" for per_block or
    #: modeled runs); ``config.kernel_backend`` records the request.
    kernel_backend: str = "numpy"


class ParthenonDriver:
    """Drives one Parthenon-VIBE run on the simulated platform."""

    def __init__(
        self,
        params: SimulationParams,
        config: ExecutionConfig,
        initial_conditions: Optional[Callable[[Mesh, BurgersPackage], None]] = None,
        raise_on_oom: bool = False,
        recorder: Optional[NullRecorder] = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        self.params = params
        self.config = config
        self.raise_on_oom = raise_on_oom
        #: Resilience-test hook (DESIGN §9): a no-op null injector unless
        #: a test or campaign arms a FaultPlan.
        self.fault_injector = fault_injector or NULL_INJECTOR
        #: False until the warmup boundary has been crossed; checkpointed
        #: so a resumed run knows whether reset_metrics already happened.
        self._measuring = False
        self.pkg = BurgersPackage(params.ndim, params.burgers_config())
        numeric = config.mode == "numeric"
        self.mesh = Mesh(
            params.geometry(), self.pkg.field_specs(), allocate=numeric
        )
        self.metrics = MetricsRegistry()
        self.mpi = SimMPI(config.total_ranks, nnodes=config.num_nodes)
        self._plan: RedistributionPlan = balance(self.mesh, config.total_ranks)
        self.bx = BoundaryExchange(self.mesh, self.mpi, metrics=self.metrics)
        self.fc = FluxCorrection(self.mesh, self.mpi)
        self.fc.set_neighbor_table(self.bx.neighbor_table)
        cfg = params.burgers_config()
        wavefront = None
        if not numeric:
            wavefront = SphericalWavefrontTagger(
                center=tuple(
                    0.5 if a < params.ndim else 0.0 for a in range(3)
                ),
                r0=params.wavefront_r0,
                speed=params.wavefront_speed,
                width=params.wavefront_width,
            )
        # Numeric criteria scan the same single component the legacy
        # driver tagger used (q0, the first scalar) so the default policy
        # stays bitwise identical to the seed behavior.
        self.policy = build_policy(
            params.refinement_policy,
            numeric=numeric,
            refine_tol=cfg.refine_tol,
            derefine_tol=cfg.derefine_tol,
            derefine_gap=params.derefine_gap,
            block_budget=params.block_budget,
            field_name=CONSERVED,
            component=self.pkg.nvel if numeric else None,
            wavefront=wavefront,
        )
        self.prof = Profiler(recorder=recorder)
        self.gpu_model = GPUModel(config.gpu_spec, config.calibration)
        self.cpu_model = CPUModel(config.cpu_spec, config.calibration)
        self.serial_model = SerialCostModel(config.calibration)
        capacity = config.gpu_spec.memory_bytes if config.is_gpu else None
        self.mem = MemoryTracker(device_capacity_bytes=capacity)
        self.launch_records: List[Tuple[KernelLaunch, int]] = []
        self.time = 0.0
        self.cycle = 0
        self.zone_cycles = 0
        self.cell_updates = 0
        self.cells_communicated = 0
        self.max_blocks = self.mesh.num_blocks
        self.rebuild_seconds = 0.0
        self.oom = False
        self.history: List[HistoryRow] = []
        #: Cached contiguous pack for the packed execution engine; rebuilt
        #: lazily and only when the mesh's block population changes.
        self._pack: Optional[MeshBlockPack] = None
        self.pack_rebuilds = 0
        self.create_kernels()
        if numeric and initial_conditions is not None:
            initial_conditions(self.mesh, self.pkg)
        self._update_memory()

    # ----------------------------------------------------------- plumbing

    def create_kernels(self) -> None:
        """(Re)create the packed kernel engine against ``self.pkg``.

        Sets ``kernel_backend``, the effective backend: the engine
        :func:`build_kernels` built for ``config.kernel_backend`` ("numpy"
        when numba was requested but is not installed).  Per-block and
        modeled runs always execute the reference math, hence "numpy".
        """
        self.kernel_backend = "numpy"
        self._packed = None
        if self.numeric and self.config.kernel_mode == "packed":
            self._packed, self.kernel_backend = build_kernels(
                self.config.kernel_backend, self.pkg
            )

    @property
    def numeric(self) -> bool:
        return self.config.mode == "numeric"

    @property
    def use_packed(self) -> bool:
        """True when numeric kernels run through the packed engine."""
        return self._packed is not None

    def _get_pack(self) -> MeshBlockPack:
        """The contiguous whole-mesh pack, rebuilt only after remeshing.

        After a rebuild every block's field and flux arrays alias pack
        storage, so ghost exchange, flux correction, prolongation and the
        per-block diagnostics all see packed data without copies.
        """
        if self._pack is None:
            self._pack = self._build_pack(metrics=self.metrics)
            self.pack_rebuilds += 1
        return self._pack

    def _build_pack(self, metrics=None) -> MeshBlockPack:
        """Build one contiguous pack and bind the ghost exchange to it.

        The single pack-construction path shared by the lazy cache above
        and checkpoint restore.
        """
        pack = build_numeric_pack(
            self.mesh,
            (CONSERVED, BASE, DERIVED),
            flux_field=CONSERVED,
            metrics=metrics,
        )
        self.bx.bind(pack)
        return pack

    @property
    def _exchange_fields(self) -> List[str]:
        return [CONSERVED]

    def _imbalance(self) -> float:
        return max(self._plan.imbalance, 1.0)

    def _charge_divisible(self, seconds_total: float) -> None:
        """Per-block/per-buffer host work, parallel across ranks."""
        self.prof.add_serial(
            seconds_total / self.config.total_ranks * self._imbalance()
        )

    def _charge_fixed(self, seconds: float) -> None:
        """Host work every rank performs in full (Amdahl floor)."""
        self.prof.add_serial(seconds)

    def _charge_lookup(self) -> None:
        """Charge GetVariablesByFlag string work since the last reset.

        Each rank performs these lookups independently, so one call's cost
        *is* the per-rank wall cost.  With integer variable indexing
        (Section VIII-A's recommendation) the string work disappears.
        """
        counters = self.pkg.registry.reset_counters()
        if self.config.optimizations.integer_variable_indexing:
            return
        self._charge_fixed(self.serial_model.variable_lookup(counters))

    def _kernel(self, name: str, cells: int, region_block_nx: int = -1) -> None:
        """Launch the named kernel over ``cells`` total cells.

        Pack kernels launch once per rank over the rank's local share;
        per-block kernels (refinement tagging, per-block reductions) launch
        once per MeshBlock.  Launches sharing a GPU serialize, so device
        wall time multiplies by the launches mapped to one GPU; on CPU every
        rank's core runs its own launches in parallel.
        """
        self.fault_injector.check("kernel_launch", self.cycle)
        if cells <= 0:
            return
        if (
            name == "CalculateFluxes"
            and self.config.optimizations.restructured_kernels
        ):
            name = "CalculateFluxes3D"
        profile = KERNEL_PROFILES[name]
        ranks = self.config.total_ranks
        block_nx = (
            region_block_nx if region_block_nx > 0 else self.params.block_size
        )
        space = (
            ExecutionSpace.CUDA
            if self.config.is_gpu
            else ExecutionSpace.HOST_OPENMP
        )
        per_block = (
            profile.per_block_launch
            or self.config.optimizations.disable_packing
            or self.config.kernel_mode == "per_block"
        )
        block_cells = self.params.block_size ** self.params.ndim
        nlaunches, launch_cells = launch_plan(
            cells, block_cells, ranks, per_block
        )
        launch = make_launch(
            name, space, cells=launch_cells, block_nx=block_nx,
            ncomp=self.pkg.ncomp,
        )
        self.launch_records.append((launch, nlaunches))
        if self.config.is_gpu:
            per_launch = self.gpu_model.kernel_duration(launch)
            launches_per_gpu = math.ceil(
                nlaunches / self.config.devices_total
            )
            wall = per_launch * launches_per_gpu
        else:
            per_launch = self.cpu_model.kernel_duration(
                launch, ncores=1, total_ranks=ranks
            )
            wall = per_launch * math.ceil(nlaunches / ranks)
        wall *= self._imbalance()
        self.metrics.count("kernel_launches", nlaunches)
        self.metrics.observe("kernel_wall_seconds", wall)
        self.prof.add_kernel(
            name,
            wall,
            cells=cells,
            bytes=launch.bytes * nlaunches,
            launches=nlaunches,
            space=space.name,
        )

    # -------------------------------------------------------------- cycle

    def run(
        self,
        ncycles: int,
        warmup: int = 0,
        checkpointer: Optional[object] = None,
        on_cycle: Optional[Callable[["ParthenonDriver"], None]] = None,
    ) -> RunResult:
        """Advance ``ncycles`` measured cycles (after ``warmup`` unmeasured
        ones) and report.

        Warmup cycles let the refinement front develop so the measured
        cycles reflect the steady-state block population; their time,
        traffic and zone-cycles are discarded, like the paper's practice of
        reporting steady per-cycle rates.

        ``checkpointer`` (a :class:`repro.resilience.CheckpointManager`)
        is offered the driver after every completed cycle; it persists
        state on its own cadence.  The loop is resume-aware: a driver
        restored from a checkpoint continues from its saved ``cycle`` /
        ``prof.cycles`` — warmup cycles already done are not re-run, the
        warmup-boundary metrics reset replays only if the checkpoint
        predates it (``_measuring``), and exactly the remaining measured
        cycles execute.  Checkpointing itself touches no profiler region
        and no metric, so cadence cannot perturb the result.

        ``on_cycle`` is an observation hook called with the driver after
        every completed cycle (and after the checkpointer, so a hook
        that crashes never loses a checkpoint).  It runs outside every
        profiler region — like checkpointing, observing progress cannot
        perturb the simulated outcome.
        """
        if not self._measuring:
            while self.cycle < warmup and not self.oom:
                self.do_cycle()
                if checkpointer is not None:
                    checkpointer.save(self)
                if on_cycle is not None:
                    on_cycle(self)
            if warmup:
                self.reset_metrics()
            self._measuring = True
        while self.prof.cycles < ncycles and not self.oom:
            self.do_cycle()
            if checkpointer is not None:
                checkpointer.save(self)
            if on_cycle is not None:
                on_cycle(self)
        return self.result()

    def reset_metrics(self) -> None:
        """Zero all accumulated metrics; the mesh state stays."""
        measured = self.cycle
        recorder = self.prof.recorder
        recorder.clear()
        self.prof = Profiler(recorder=recorder)
        self.metrics.clear()
        self.launch_records = []
        self.zone_cycles = 0
        self.cell_updates = 0
        self.cells_communicated = 0
        self.rebuild_seconds = 0.0
        self.history = []
        self.mpi.total = type(self.mpi.total)()
        self.mpi.end_cycle()
        self._warmup_cycles = measured

    def do_cycle(self) -> None:
        try:
            self._step()
            self._load_balancing_and_amr()
            self._estimate_timestep()
        except OutOfMemoryError:
            self.oom = True
            if self.raise_on_oom:
                raise
            return
        cells = self.mesh.total_interior_cells()
        self.zone_cycles += cells
        self.cell_updates += cells
        self.max_blocks = max(self.max_blocks, self.mesh.num_blocks)
        self.mpi.end_cycle()
        self.prof.end_cycle()
        self.cycle += 1
        self._update_memory()
        self.metrics.gauge("blocks", self.mesh.num_blocks)
        self.metrics.gauge(
            "device_peak_bytes", getattr(self, "_worst_device_bytes", 0)
        )
        self.metrics.end_cycle(self.prof.cycles)

    # ---------------------------------------------------------------- Step

    def _step(self) -> None:
        total_cells = self.mesh.total_interior_cells()
        dt = self._current_dt()
        for istage, (gam0, gam1, beta) in enumerate(RK2_STAGES):
            if istage == 0:
                with self.prof.region("WeightedSumData"):
                    if self.use_packed:
                        self._packed.save_base(self._get_pack())
                    elif self.numeric:
                        for blk in self.mesh.block_list:
                            self.pkg.save_base(blk)
                    self._kernel("WeightedSumData", total_cells)
            self._run_stage_tasks(total_cells, gam0, gam1, beta * dt)
        with self.prof.region("FillDerived"):
            self.pkg.registry.get_by_flag(Metadata.DERIVED)
            self._charge_lookup()
            if self.use_packed:
                self._packed.fill_derived(self._get_pack())
            elif self.numeric:
                for blk in self.mesh.block_list:
                    self.pkg.fill_derived(blk)
            self._kernel("CalculateDerived", total_cells)
        with self.prof.region("MassHistory"):
            if self.numeric:
                row = reduce_history(
                    self.mesh, self.pkg, self.cycle, self.time
                )
                self._check_finite(row)
                self.history.append(row)
            self._kernel("MassHistory", total_cells)
            self.mpi.allreduce(8 * (self.pkg.ncomp + 2))
            self._charge_fixed(
                self.serial_model.collective(
                    self.config.total_ranks,
                    8 * (self.pkg.ncomp + 2),
                    internode=self.config.num_nodes > 1,
                )
            )
        self.time += dt

    def _run_stage_tasks(
        self, total_cells: int, gam0: float, gam1: float, beta_dt: float
    ) -> None:
        """One RK stage as a dependency-ordered task list (Section II-C's
        hierarchical tasking): communication phases feed the flux pipeline,
        which feeds the update."""
        from repro.driver.tasks import TaskList, TaskRegion, TaskStatus

        def as_task(fn):
            def run():
                fn()
                return TaskStatus.COMPLETE

            return run

        tl = TaskList("stage")
        t_comm = tl.add_task(
            as_task(self._communicate_ghosts), label="GhostExchange"
        )
        t_flux = tl.add_task(
            as_task(lambda: self._calculate_fluxes(total_cells)),
            dependency=t_comm,
            label="CalculateFluxes",
        )
        t_corr = tl.add_task(
            as_task(self._flux_correction),
            dependency=t_flux,
            label="FluxCorrection",
        )

        def flux_divergence_and_update():
            with self.prof.region("FluxDivergence"):
                self._charge_lookup()
                if self.use_packed:
                    self._packed.flux_divergence_and_update(
                        self._get_pack(), gam0, gam1, beta_dt
                    )
                elif self.numeric:
                    for blk in self.mesh.block_list:
                        dudt = self.pkg.flux_divergence(blk)
                        self.pkg.weighted_sum(blk, dudt, gam0, gam1, beta_dt)
                self._kernel("FluxDivergence", total_cells)
            with self.prof.region("WeightedSumData"):
                self._kernel("WeightedSumData", total_cells)

        tl.add_task(
            as_task(flux_divergence_and_update),
            dependency=t_flux & t_corr,
            label="FluxDivergence",
        )
        TaskRegion([tl]).execute()

    def _communicate_ghosts(self) -> None:
        fields = self._exchange_fields
        ng = self.mesh.geometry.ng
        nx = self.params.block_size
        ndim = self.params.ndim
        with self.prof.region("StartRecvBoundBufs"):
            self.bx.start_receive_bound_bufs()
            # One receive-setup task per block, not per message.
            self._charge_divisible(
                self.serial_model.task_overhead(self.mesh.num_blocks)
            )
        with self.prof.region("SendBoundBufs"):
            self.fault_injector.check("ghost_pack", self.cycle)
            self.pkg.registry.get_by_flag(Metadata.FILL_GHOST)
            self._charge_lookup()
            stats = self.bx.send_bound_bufs(fields)
            opt = self.config.optimizations
            cache_init = self.serial_model.buffer_cache_init(
                stats.buffers_packed,
                include_shuffle=not opt.skip_buffer_shuffle,
            )
            if opt.parallel_host_tasks:
                cache_init /= opt.HOST_PARALLEL_SPEEDUP
            self._charge_divisible(
                self.serial_model.send_setup(stats) + cache_init
            )
            self._kernel("SendBoundBufs", stats.cells_communicated)
            self.cells_communicated += stats.cells_communicated
            self.metrics.count("ghost_cells", stats.cells_communicated)
            self.metrics.count("ghost_bytes", stats.bytes_communicated)
            self.metrics.count("ghost_messages_remote", stats.messages_remote)
            self.metrics.count("ghost_messages_local", stats.messages_local)
        with self.prof.region("ReceiveBoundBufs"):
            self.bx.receive_bound_bufs()
            counters = self.mpi.cycle
            self._charge_divisible(
                self.serial_model.receive_polling(
                    counters.iprobe_calls, counters.test_calls
                )
            )
            # Message transfer wait: remote bytes across the interconnect.
            coll = self.config.calibration.collective
            transfer = stats.bytes_communicated / coll.bandwidth_bytes_s
            self._charge_divisible(transfer)
        with self.prof.region("SetBounds"):
            self.fault_injector.check("ghost_unpack", self.cycle)
            set_stats = self.bx.set_bounds(fields)
            self._charge_divisible(
                self.serial_model.set_bounds_setup(stats)
            )
            self._kernel("SetBounds", stats.cells_communicated)
            ghost_region_cells = ng * nx ** (ndim - 1)
            self._kernel(
                "ProlongationRestrictionLoop",
                (set_stats.prolongations + set_stats.restrictions)
                * ghost_region_cells,
            )

    def _calculate_fluxes(self, total_cells: int) -> None:
        with self.prof.region("CalculateFluxes"):
            self.pkg.registry.get_by_flag(Metadata.WITH_FLUXES)
            self._charge_lookup()
            if self.use_packed:
                self._packed.calculate_fluxes(self._get_pack())
            elif self.numeric:
                for blk in self.mesh.block_list:
                    self.pkg.calculate_fluxes(blk)
            self._kernel("CalculateFluxes", total_cells)

    def _flux_correction(self) -> None:
        with self.prof.region("FluxCorrection"):
            stats = self.fc.correct(self._exchange_fields)
            self._charge_divisible(
                stats.corrections
                * self.config.calibration.serial.per_buffer_pack_setup_s
                + stats.messages_remote
                * self.config.calibration.serial.per_remote_message_s
            )
            self.cells_communicated += stats.cells_communicated
            self.metrics.count("flux_corrections", stats.corrections)

    # ----------------------------------------------- LoadBalancingAndAMR

    def _load_balancing_and_amr(self) -> None:
        if self.cycle % self.params.refine_every != 0:
            return
        total_blocks = self.mesh.num_blocks
        total_cells = self.mesh.total_interior_cells()
        with self.prof.region("Refinement::Tag"):
            report = self.policy.collect_flags(self.mesh, self.cycle)
            refine, derefine, checked = (
                report.refine, report.derefine, report.checked,
            )
            self.metrics.count("refine_flags", report.refine_requests)
            self.metrics.count("derefine_flags", report.derefine_requests)
            self.metrics.count(
                "derefine_blocked_gap", report.derefine_blocked
            )
            self.metrics.gauge(
                "refinement_indicator_max", report.indicator_max
            )
            self._charge_divisible(
                self.serial_model.refinement_tagging(checked)
            )
            # The tag pass is charged as the FirstDerivative kernel for
            # every policy: the cost model prices one indicator sweep over
            # all cells, and each registered criterion is exactly that.
            self._kernel("FirstDerivative", total_cells)
        with self.prof.region("UpdateMeshBlockTree"):
            self.mpi.allgather(bytes_per_rank=max(1, total_blocks))
            self._charge_fixed(
                self.serial_model.collective(
                    self.config.total_ranks,
                    total_blocks,
                    internode=self.config.num_nodes > 1,
                )
            )
            self.fault_injector.check("remesh", self.cycle)
            remesh_stats = self.mesh.remesh(refine, derefine)
            changes = remesh_stats.refined_parents + remesh_stats.derefined_parents
            if changes:
                self.metrics.count("remesh_events")
                self.metrics.count(
                    "remesh_blocks_created", remesh_stats.created
                )
                self.metrics.count(
                    "remesh_blocks_destroyed", remesh_stats.destroyed
                )
            self._charge_fixed(
                self.serial_model.tree_update(total_blocks, changes)
            )
            # Rank-sharing contention: the cost that turns Fig. 8 over.
            if self.config.is_gpu:
                self._charge_fixed(
                    self.serial_model.gpu_rank_contention(
                        total_blocks, self.config.ranks_per_gpu
                    )
                )
            else:
                self._charge_fixed(
                    self.serial_model.cpu_rank_contention(
                        total_blocks, self.config.total_ranks
                    )
                )
        with self.prof.region("RedistributeAndRefineMeshBlocks"):
            bytes_per_block = self._bytes_per_block()
            opt = self.config.optimizations
            alloc_scale = (
                1.0 / opt.POOL_SPEEDUP if opt.pooled_block_allocation else 1.0
            )
            self._charge_divisible(
                self.serial_model.remesh_allocation(
                    remesh_stats, bytes_per_block, alloc_scale=alloc_scale
                )
            )
            do_lb = self.cycle % self.params.load_balance_every == 0
            moved = 0
            if do_lb:
                self._plan = balance(self.mesh, self.config.total_ranks)
                moved = self._plan.moved_blocks
                self.metrics.count("lb_blocks_moved", moved)
                self._charge_divisible(
                    self.serial_model.redistribution(moved, bytes_per_block)
                )
            if remesh_stats.created or remesh_stats.destroyed or moved:
                if remesh_stats.created or remesh_stats.destroyed:
                    # The block population changed: the contiguous pack's
                    # views are stale.  (Pure load-balance moves only remap
                    # ranks; surviving block arrays — pack views — persist.)
                    self._pack = None
                rebuild = self.bx.rebuild()
                self.fc.set_neighbor_table(self.bx.neighbor_table)
                rebuild_cost = (
                    self.serial_model.rebuild_buffer_cache(rebuild)
                    + self.serial_model.build_tag_map(rebuild)
                ) / self.config.total_ranks * self._imbalance()
                if opt.parallel_host_tasks:
                    rebuild_cost /= opt.HOST_PARALLEL_SPEEDUP
                self.prof.add_serial(rebuild_cost)
                self.rebuild_seconds += rebuild_cost
                self._kernel(
                    "ProlongationRestrictionLoop",
                    remesh_stats.created
                    * self.params.block_size ** self.params.ndim,
                )
            self.policy.forget_stale(self.mesh)
            assert self.policy.consistent_with(self.mesh), (
                "refinement policy retains dead block uids after remesh"
            )

    # ------------------------------------------------- EstimateTimeStep

    def _estimate_timestep(self) -> None:
        with self.prof.region("EstimateTimeStep"):
            self._kernel(
                "EstimateTimestepMesh", self.mesh.total_interior_cells()
            )
            self.mpi.allreduce(8)
            self._charge_fixed(
                self.serial_model.collective(
                    self.config.total_ranks,
                    8,
                    internode=self.config.num_nodes > 1,
                )
            )

    def _current_dt(self) -> float:
        if not self.numeric:
            return 1.0
        if self.use_packed:
            dts = self._packed.estimate_timestep(self._get_pack())
        else:
            dts = [self.pkg.estimate_timestep(b) for b in self.mesh.block_list]
        dt = float(np.min(dts))  # propagates a NaN block's dt
        if math.isnan(dt):
            raise NumericalError(
                f"cycle {self.cycle}: non-finite time step "
                "(NaN velocity in the conserved state)"
            )
        if dt == math.inf:
            # Every block's velocity is zero, so the CFL condition sets
            # no limit: take a fixed step.
            dt = 1e-3
        return dt

    def _check_finite(self, row: HistoryRow) -> None:
        """Raise :class:`NumericalError` when a history total is not finite.

        Every total sums all interior cells, so a non-finite cell cannot
        leave them finite and a normal cycle scans nothing; only a failing
        cycle searches the blocks to name the first offending one.
        """
        totals = row.scalar_totals + row.momentum_totals + [row.total_d]
        if all(math.isfinite(t) for t in totals):
            return
        for blk in self.mesh.block_list:
            for name in (CONSERVED, DERIVED):
                bad = np.argwhere(~np.isfinite(blk.interior(name)))
                if len(bad):
                    raise NumericalError(
                        f"cycle {self.cycle}: non-finite state in {name} "
                        f"component {bad[0][0]} of block uid {blk.uid}"
                    )
        raise NumericalError(
            f"cycle {self.cycle}: non-finite history totals {totals}"
        )

    # ------------------------------------------------------------- memory

    def _bytes_per_block(self) -> int:
        blk = self.mesh.block_list[0]
        return blk.data_bytes() + self._flux_bytes_per_block()

    def _flux_bytes_per_block(self) -> int:
        nx = self.params.block_size
        ndim = self.params.ndim
        faces = ndim * (nx + 1) * nx ** (ndim - 1)
        return self.pkg.ncomp * 8 * faces

    def aux_bytes_per_block(self) -> int:
        """Section VIII-B's per-MeshBlock auxiliary buffer footprint:
        ``B * 6 * (nx1 + 2 ng)^dim * (3 + num_scalar)``."""
        nx = self.params.block_size
        ng = self.mesh.geometry.ng
        return int(
            8
            * 6
            * (nx + 2 * ng) ** self.params.ndim
            * (3 + self.params.num_scalars)
        )

    def aux_bytes_per_device_restructured(self) -> int:
        """Post-optimization aux footprint: per-ThreadBlock 2D slices
        instead of per-MeshBlock volumes (Section VIII-B)."""
        nx = self.params.block_size
        ng = self.mesh.geometry.ng
        thread_blocks = 1024  # typical concurrent thread blocks on an H100
        return int(
            thread_blocks
            * 8
            * 6
            * (nx + 2 * ng) ** min(2, self.params.ndim)
            * (3 + self.params.num_scalars)
        )

    def _update_memory(self) -> None:
        """Refresh per-device memory levels; flag OOM at the HBM wall."""
        ndev = max(self.config.devices_total, 1)
        ranks_per_dev = self.config.total_ranks // ndev
        blocks_per_dev = [0] * ndev
        for blk in self.mesh.block_list:
            dev = min(blk.rank // max(ranks_per_dev, 1), ndev - 1)
            blocks_per_dev[dev] += 1
        per_block = self._bytes_per_block()
        aux = self.aux_bytes_per_block()
        worst = 0
        worst_dev = 0
        restructured = self.config.optimizations.restructured_kernels
        residency = self.config.calibration.kokkos_memory.aux_residency
        for dev in range(ndev):
            mesh_bytes = blocks_per_dev[dev] * per_block
            if restructured:
                aux_bytes = self.aux_bytes_per_device_restructured()
            else:
                aux_bytes = int(blocks_per_dev[dev] * aux * residency)
            self.mem.set_level(KOKKOS_MESH, mesh_bytes, rank=dev)
            self.mem.set_level(KOKKOS_AUX, aux_bytes, rank=dev)
            lo = dev * ranks_per_dev
            hi = min((dev + 1) * ranks_per_dev, self.config.total_ranks)
            buf = sum(
                self.mpi.registered_buffer_bytes(r) for r in range(lo, hi)
            )
            factor = self.config.calibration.mpi_memory.buffer_overhead_factor
            self.mem.set_level(MPI_BUFFERS, int(buf * factor), rank=dev)
            npeers = min(self.config.total_ranks - 1, 16)
            self.mem.set_level(
                MPI_DRIVER,
                mpi_driver_memory_bytes(
                    ranks_per_dev, npeers, self.cycle, self.config.calibration
                ),
                rank=dev,
            )
            used = sum(
                self.mem.current(lbl, rank=dev)
                for lbl in (KOKKOS_MESH, KOKKOS_AUX, MPI_BUFFERS, MPI_DRIVER)
            )
            if used > worst:
                worst = used
                worst_dev = dev
        self._worst_device = worst_dev
        self._worst_device_bytes = worst
        if (
            self.config.is_gpu
            and self.mem.device_capacity_bytes is not None
            and worst > self.mem.device_capacity_bytes
        ):
            self.oom = True
            if self.raise_on_oom:
                raise OutOfMemoryError(
                    f"device {worst_dev} needs {worst / 2**30:.1f} GiB "
                    f"> {self.mem.device_capacity_bytes / 2**30:.1f} GiB HBM"
                )

    # ------------------------------------------------------------- result

    def result(self) -> RunResult:
        total = self.prof.total_seconds
        dev = getattr(self, "_worst_device", 0)
        breakdown = {
            lbl: self.mem.current(lbl, rank=dev)
            for lbl in (KOKKOS_MESH, KOKKOS_AUX, MPI_BUFFERS, MPI_DRIVER)
        }
        return RunResult(
            params=self.params,
            config=self.config,
            cycles=self.prof.cycles,
            zone_cycles=self.zone_cycles,
            wall_seconds=total,
            kernel_seconds=self.prof.total_kernel_seconds,
            serial_seconds=self.prof.total_serial_seconds,
            fom=self.zone_cycles / total if total > 0 else 0.0,
            function_breakdown={
                name: (t.serial, t.kernel)
                for name, t in self.prof.function_breakdown().items()
            },
            kernel_seconds_by_name=dict(self.prof.kernel_seconds),
            cells_communicated=self.cells_communicated,
            cell_updates=self.cell_updates,
            remote_messages=self.mpi.total.remote_messages,
            final_blocks=self.mesh.num_blocks,
            max_blocks=self.max_blocks,
            rebuild_buffer_cache_seconds=self.rebuild_seconds,
            memory_breakdown=breakdown,
            device_memory_peak=getattr(self, "_worst_device_bytes", 0),
            oom=self.oom,
            history=list(self.history),
            mpi_counters={
                f.name: getattr(self.mpi.total, f.name)
                for f in dataclasses.fields(self.mpi.total)
            },
            metrics=self.metrics.to_dict(),
            kernel_backend=self.kernel_backend,
        )
