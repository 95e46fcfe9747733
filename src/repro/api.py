"""The typed front door: ``RunSpec`` + ``Simulation``.

Every way of running one Parthenon-VIBE configuration — CLI, sweeps,
campaigns, benchmarks, examples — goes through this module:

* :class:`RunSpec` is the single serializable description of a run
  (deck-expressible parameters + platform + cycle counts).  It pickles
  cleanly (the worker-pool requirement), round-trips through the
  Parthenon deck format, and hashes to a stable content address
  (:meth:`RunSpec.cache_key`) used by the run cache for resumable
  campaigns.
* :class:`Simulation` is the facade that executes a spec:
  ``Simulation.from_deck(...)``, ``.run()``, ``.result()``.
* :func:`build_simulation_params` / :func:`build_execution_config` /
  :func:`build_optimization_flags` are the validating builders — they
  reject typos in *both* option names and option values with an
  actionable error listing the valid choices, instead of failing deep in
  the driver.  They, the deck format, the JSON wire schema and the
  cache key all read one option table, :mod:`repro.options`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import queue as queue_module
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    Optional,
    Sequence,
    Union,
)

from repro import __version__
from repro.driver.driver import ParthenonDriver, RunResult
from repro.driver.execution import ExecutionConfig, OptimizationFlags
from repro.driver.input import parse_input, params_from_input, render_input
from repro.driver.params import SimulationParams
from repro.observability import Trace, TraceRecorder
from repro.options import (
    NOT_IN_CACHE_KEY,
    ConfigError,
    build_execution_config,
    build_optimization_flags,
    build_simulation_params,
    check_names,
    outcome_config,
    wire_fields,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.faults import FaultInjector

__all__ = [
    "ConfigError",
    "ProgressEvent",
    "RunSpec",
    "Simulation",
    "Trace",
    "build_execution_config",
    "build_optimization_flags",
    "build_simulation_params",
    "iter_progress",
    "run",
]


# --------------------------------------------------------------- RunSpec

#: Top-level keys of the RunSpec JSON document.
JSON_SPEC_FIELDS: Sequence[str] = (
    "deck",
    "params",
    "config",
    "ncycles",
    "warmup",
    "label",
)


@dataclass(frozen=True)
class RunSpec:
    """One fully-specified run: what to solve, where, and for how long.

    The unit of work for sweeps and campaigns.  Frozen, hashable,
    picklable (workers receive a ``RunSpec``, not a bag of kwargs), and
    deck-round-trippable.  ``label`` is presentation-only and excluded
    from the cache identity, so relabeling a point never invalidates its
    cached artifact.
    """

    params: SimulationParams = SimulationParams()
    config: ExecutionConfig = ExecutionConfig()
    ncycles: int = 4
    warmup: int = 2
    label: str = ""

    def __post_init__(self) -> None:
        if self.ncycles < 1:
            raise ConfigError(f"ncycles must be >= 1, got {self.ncycles}")
        if self.warmup < 0:
            raise ConfigError(f"warmup must be >= 0, got {self.warmup}")

    # ------------------------------------------------------------- decks

    def to_deck(self) -> str:
        """Render as a Parthenon-style input deck (with a ``<campaign>``
        section carrying the cycle counts and label)."""
        deck = render_input(self.params, self.config)
        lines = [
            "",
            "<campaign>",
            f"ncycles = {self.ncycles}",
            f"warmup = {self.warmup}",
        ]
        if self.label:
            lines.append(f"label = {self.label}")
        return deck + "\n".join(lines) + "\n"

    @classmethod
    def from_deck(
        cls,
        text: str,
        ncycles: Optional[int] = None,
        warmup: Optional[int] = None,
        label: Optional[str] = None,
    ) -> "RunSpec":
        """Parse a deck; explicit arguments override the ``<campaign>``
        section, which overrides the defaults."""
        try:
            params, config = params_from_input(text)
        except ValueError as exc:  # bad deck values -> one error type
            raise ConfigError(f"invalid input deck: {exc}") from exc
        camp = parse_input(text).get("campaign", {})
        return cls(
            params=params,
            config=config,
            ncycles=int(camp.get("ncycles", 4)) if ncycles is None else ncycles,
            warmup=int(camp.get("warmup", 2)) if warmup is None else warmup,
            label=str(camp.get("label", "")) if label is None else label,
        )

    @classmethod
    def from_file(cls, path: Union[str, Path], **overrides) -> "RunSpec":
        return cls.from_deck(Path(path).read_text(), **overrides)

    # -------------------------------------------------------------- JSON

    def to_json(self) -> dict:
        """JSON-dict form of the spec — the service wire schema.

        Round-trips through :meth:`from_json` for every wire-expressible
        spec (anything built from the validating builders' primitive
        options).  Optimization flags appear only when enabled, so the
        common case is compact.
        """
        config = {
            name: getattr(self.config, name)
            for name in wire_fields(ExecutionConfig)
        }
        flags = {
            f.name: getattr(self.config.optimizations, f.name)
            for f in dataclasses.fields(OptimizationFlags)
            if isinstance(f.default, bool)
            and getattr(self.config.optimizations, f.name)
        }
        if flags:
            config["optimizations"] = flags
        doc = {
            "params": dataclasses.asdict(self.params),
            "config": config,
            "ncycles": self.ncycles,
            "warmup": self.warmup,
        }
        if self.label:
            doc["label"] = self.label
        return doc

    @classmethod
    def from_json(cls, doc: object) -> "RunSpec":
        """Build a spec from its JSON-dict form, validating every layer.

        Two shapes are accepted: ``{"deck": "...", ...}`` (a rendered
        input deck, exclusive with ``params``/``config``) and the
        structured form ``{"params": {...}, "config": {...}, "ncycles":
        N, "warmup": N, "label": "..."}``.  Unknown field names anywhere
        — top level, params, config — raise :class:`ConfigError` with
        the valid options listed, exactly like the builders.
        """
        if not isinstance(doc, dict):
            raise ConfigError(
                f"RunSpec JSON must be an object, got {type(doc).__name__}"
            )
        check_names("RunSpec", doc, JSON_SPEC_FIELDS)
        if "deck" in doc:
            if "params" in doc or "config" in doc:
                raise ConfigError(
                    "RunSpec JSON takes either 'deck' or "
                    "'params'/'config', not both"
                )
            if not isinstance(doc["deck"], str):
                raise ConfigError("RunSpec 'deck' must be a string")
            kwargs = {}
            for field in ("ncycles", "warmup", "label"):
                if field in doc:
                    kwargs[field] = doc[field]
            try:
                return cls.from_deck(doc["deck"], **kwargs)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"invalid RunSpec JSON: {exc}") from exc
        params_doc = doc.get("params", {})
        config_doc = doc.get("config", {})
        for name, value in (("params", params_doc), ("config", config_doc)):
            if not isinstance(value, dict):
                raise ConfigError(
                    f"RunSpec {name!r} must be an object, "
                    f"got {type(value).__name__}"
                )
        config_doc = dict(config_doc)
        optimizations = config_doc.pop("optimizations", None)
        if optimizations is not None and not isinstance(optimizations, dict):
            raise ConfigError("RunSpec 'config.optimizations' must be an object")
        # build_execution_config drops the num_shards=1 of older specs.
        check_names(
            "execution", config_doc, wire_fields(ExecutionConfig) + ("num_shards",)
        )
        check_names("simulation", params_doc, wire_fields(SimulationParams))
        params = build_simulation_params(**params_doc)
        config = build_execution_config(
            optimizations=optimizations, **config_doc
        )
        try:
            return cls(
                params=params,
                config=config,
                ncycles=doc.get("ncycles", 4),
                warmup=doc.get("warmup", 2),
                label=str(doc.get("label", "")),
            )
        except TypeError as exc:
            raise ConfigError(f"invalid RunSpec JSON: {exc}") from exc

    # ---------------------------------------------------------- identity

    def cache_key(self) -> str:
        """Content address of this run: a sha256 over the canonical JSON
        of (deck, full ExecutionConfig including specs/calibration/
        OptimizationFlags, cycle counts, code version).

        Any field that changes the simulated outcome changes the key;
        ``label`` does not participate, and neither does the option
        table's ``cache_key=False`` row, ``checkpoint_every``: checkpoint
        cadence is observability, not physics (the bitwise-resume
        guarantee).
        """
        outcome = outcome_config(self.config)
        config_fields = {
            name: value
            for name, value in dataclasses.asdict(outcome).items()
            if name not in NOT_IN_CACHE_KEY
        }
        payload = {
            "code_version": __version__,
            "deck": render_input(self.params, outcome),
            "params": dataclasses.asdict(self.params),
            "config": config_fields,
            "ncycles": self.ncycles,
            "warmup": self.warmup,
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def replace(self, **changes) -> "RunSpec":
        """A copy with fields replaced (``dataclasses.replace`` sugar)."""
        return replace(self, **changes)

    def describe(self) -> str:
        base = self.label or (
            f"mesh{self.params.mesh_size}-block{self.params.block_size}"
            f"-lv{self.params.num_levels}"
        )
        return f"{base} [{self.config.describe()}]"


# ------------------------------------------------------------ Simulation


class Simulation:
    """Facade over :class:`ParthenonDriver` for one :class:`RunSpec`.

    ``run()`` executes the spec's warmup + measured cycles and returns
    the :class:`RunResult`; ``result()`` returns the last result, running
    first if needed.  The underlying driver stays reachable via
    ``.driver`` for callers that need mesh/profiler internals.

    With ``trace=True`` a :class:`repro.observability.TraceRecorder` is
    attached to the driver's profiler and :meth:`trace` returns the
    measured cycles' span tree as a :class:`Trace` (warmup spans are
    discarded at the warmup boundary, like every other metric).  Tracing
    never changes the simulated outcome — the profiler-invariance test
    pins the traced and untraced ``RunResult`` equal to 0 ULP.

    Resilience (DESIGN §9): ``checkpoint_dir`` enables crash-consistent
    periodic checkpoints (cadence from ``config.checkpoint_every``, or
    every cycle when the config leaves it 0); ``restart_from`` resumes
    from a checkpoint directory / manifest instead of cycle 0, and the
    resumed run's ``RunResult`` and canonical trace are bitwise identical
    to an uninterrupted run's; ``fault_injector`` arms deterministic
    fault sites inside the driver for resilience tests.
    """

    def __init__(
        self,
        spec: RunSpec,
        initial_conditions: Optional[Callable] = None,
        trace: bool = False,
        checkpoint_dir: Union[str, Path, None] = None,
        restart_from: Union[str, Path, None] = None,
        fault_injector: Optional["FaultInjector"] = None,
    ) -> None:
        if not isinstance(spec, RunSpec):
            raise ConfigError(
                f"Simulation expects a RunSpec, got {type(spec).__name__}"
            )
        self.spec = spec
        self._initial_conditions = initial_conditions
        self._recorder: Optional[TraceRecorder] = (
            TraceRecorder() if trace else None
        )
        self._driver: Optional[ParthenonDriver] = None
        self._result: Optional[RunResult] = None
        self._checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self._restart_from = Path(restart_from) if restart_from else None
        self._fault_injector = fault_injector
        #: Cycle the driver resumed from (``restart_from``), else None.
        self.resumed_from_cycle: Optional[int] = None
        #: The :class:`repro.resilience.CheckpointManager` of the last
        #: run, when checkpointing was enabled.
        self.checkpointer = None

    @classmethod
    def from_deck(
        cls,
        deck: Union[str, Path],
        initial_conditions: Optional[Callable] = None,
        trace: bool = False,
        checkpoint_dir: Union[str, Path, None] = None,
        restart_from: Union[str, Path, None] = None,
        fault_injector: Optional["FaultInjector"] = None,
        **overrides,
    ) -> "Simulation":
        """Build from deck text or a deck file path."""
        if isinstance(deck, Path):
            spec = RunSpec.from_file(deck, **overrides)
        elif "\n" in deck or "<" in deck:
            spec = RunSpec.from_deck(deck, **overrides)
        else:
            spec = RunSpec.from_file(deck, **overrides)
        return cls(
            spec,
            initial_conditions=initial_conditions,
            trace=trace,
            checkpoint_dir=checkpoint_dir,
            restart_from=restart_from,
            fault_injector=fault_injector,
        )

    def _restore_driver(self) -> ParthenonDriver:
        from repro.driver.outputs import RestartError
        from repro.resilience.checkpoint import read_checkpoint, restore_driver
        from repro.observability.trace import TraceRecorder as _Recorder

        payload = read_checkpoint(self._restart_from)
        if payload["params"] != self.spec.params:
            raise RestartError(
                f"checkpoint {self._restart_from} was written for different "
                f"simulation parameters than this spec"
            )
        saved = outcome_config(payload["config"])
        if saved != outcome_config(self.spec.config):
            raise RestartError(
                f"checkpoint {self._restart_from} was written for a "
                f"different execution config than this spec"
            )
        driver = restore_driver(payload, fault_injector=self._fault_injector)
        if self._recorder is not None:
            if not isinstance(driver.prof.recorder, _Recorder):
                raise RestartError(
                    "cannot trace a resume from an untraced checkpoint; "
                    "run the checkpointing simulation with trace=True"
                )
            # Adopt the restored recorder: it already holds the spans of
            # the cycles that ran before the checkpoint.
            self._recorder = driver.prof.recorder
        self.resumed_from_cycle = payload["cycle"]
        return driver

    @property
    def driver(self) -> ParthenonDriver:
        if self._driver is None:
            if self._restart_from is not None:
                self._driver = self._restore_driver()
            else:
                self._driver = ParthenonDriver(
                    self.spec.params,
                    self.spec.config,
                    initial_conditions=self._initial_conditions,
                    recorder=self._recorder,
                    fault_injector=self._fault_injector,
                )
        return self._driver

    def run(
        self, on_cycle: Optional[Callable[[ParthenonDriver], None]] = None
    ) -> RunResult:
        """Execute the spec and return the result.

        The first call consumes the lazily-built driver (so pre-run
        inspection of ``.driver`` sees the same mesh the run uses);
        calling ``run()`` again executes a fresh driver.

        ``on_cycle`` is invoked with the driver after every completed
        cycle (warmup cycles included) — the per-cycle progress hook
        behind :func:`iter_progress` and the service event stream.  It
        runs outside every profiler region and after the cycle's metrics
        snapshot, so observing progress never perturbs the simulated
        outcome.
        """
        if self._result is not None:
            self._driver = None
        if self._recorder is not None and self._restart_from is None:
            self._recorder.clear()
        checkpointer = None
        if self._checkpoint_dir is not None:
            from repro.resilience.checkpoint import CheckpointManager

            checkpointer = CheckpointManager(
                self._checkpoint_dir,
                every=self.spec.config.checkpoint_every or 1,
            )
        self.checkpointer = checkpointer
        self._result = self.driver.run(
            self.spec.ncycles,
            warmup=self.spec.warmup,
            checkpointer=checkpointer,
            on_cycle=on_cycle,
        )
        return self._result

    def trace(self) -> Trace:
        """The last run's span tree (running first if needed).

        Only available when the simulation was created with
        ``trace=True`` — tracing is an explicit opt-in, so untraced runs
        retain no per-event state at all.
        """
        if self._recorder is None:
            raise ConfigError(
                "tracing is not enabled; construct with "
                "Simulation(spec, trace=True)"
            )
        self.result()
        p, c = self.spec.params, self.spec.config
        meta = {
            "backend": c.backend,
            "block_size": p.block_size,
            # Effective engine (post-fallback), not the request: golden
            # traces must be invariant to which backends are installed
            # apart from this one field.
            "kernel_backend": self.driver.kernel_backend,
            "kernel_mode": c.kernel_mode,
            "label": self.spec.label,
            "mesh_size": p.mesh_size,
            "mode": c.mode,
            "ncycles": self.spec.ncycles,
            "ndim": p.ndim,
            "num_levels": p.num_levels,
            "num_scalars": p.num_scalars,
            "refinement_policy": p.refinement_policy,
            "total_ranks": c.total_ranks,
            "warmup": self.spec.warmup,
        }
        if p.block_budget:
            meta["block_budget"] = p.block_budget
        return self._recorder.to_trace(
            meta=meta, metrics=self.driver.metrics.to_dict()
        )

    def result(self) -> RunResult:
        """The last run's result, running the simulation first if needed."""
        if self._result is None:
            return self.run()
        return self._result

    def artifact(self) -> dict:
        """The run-artifact JSON document for this simulation's result."""
        from repro.orchestration.artifacts import result_to_artifact

        return result_to_artifact(self.spec, self.result())


def run(
    spec: RunSpec, initial_conditions: Optional[Callable] = None
) -> RunResult:
    """One-call convenience: execute ``spec`` and return its result."""
    return Simulation(spec, initial_conditions=initial_conditions).run()


# -------------------------------------------------------------- progress


@dataclass(frozen=True)
class ProgressEvent:
    """One completed cycle's cumulative progress.

    Derived from the :class:`~repro.observability.MetricsRegistry`
    per-cycle snapshot the driver appends at every cycle boundary —
    simulated quantities only, no wall-clock — so a progress stream is
    deterministic for a deterministic spec.
    """

    #: Cycles completed since the start of the run, warmup included.
    cycle: int
    #: Measured cycles completed (0 while the warmup front develops).
    measured: int
    #: Measured-cycle target — ``done`` when ``measured`` reaches it.
    ncycles: int
    #: True while this is still a warmup cycle (discarded from metrics).
    warmup: bool
    #: Current block count — the AMR activity signal.
    blocks: int
    #: Cumulative counter snapshot (kernel launches, ghost traffic,
    #: remesh events, ...) as of this cycle.
    counters: Dict[str, float]

    @property
    def done(self) -> bool:
        return self.measured >= self.ncycles

    def to_dict(self) -> dict:
        """JSON-clean dict (the service event-stream line format)."""
        return {
            "cycle": self.cycle,
            "measured": self.measured,
            "ncycles": self.ncycles,
            "warmup": self.warmup,
            "blocks": self.blocks,
            "counters": dict(self.counters),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ProgressEvent":
        return cls(
            cycle=int(doc["cycle"]),
            measured=int(doc["measured"]),
            ncycles=int(doc["ncycles"]),
            warmup=bool(doc["warmup"]),
            blocks=int(doc["blocks"]),
            counters=dict(doc["counters"]),
        )

    @classmethod
    def from_driver(
        cls, driver: ParthenonDriver, ncycles: int
    ) -> "ProgressEvent":
        """Snapshot the driver's registry right after a completed cycle."""
        metrics = driver.metrics
        if metrics.cycle_snapshots:
            counters = dict(metrics.cycle_snapshots[-1]["counters"])
        else:  # pragma: no cover — end_cycle always precedes the hook
            counters = dict(sorted(metrics.counters.items()))
        in_warmup = not driver._measuring
        return cls(
            cycle=driver.cycle,
            measured=0 if in_warmup else driver.prof.cycles,
            ncycles=ncycles,
            warmup=in_warmup,
            blocks=int(metrics.gauges.get("blocks", 0)),
            counters=counters,
        )


def iter_progress(sim: Simulation) -> Iterator[ProgressEvent]:
    """Run ``sim`` and yield a :class:`ProgressEvent` per completed cycle.

    The simulation executes on a background thread while events are
    consumed; the final event has ``done == True`` (unless the run hit
    OOM first), and by the time the iterator is exhausted
    ``sim.result()`` is available without re-running.  An exception
    inside the run is re-raised here, after any events that preceded it.

    Abandoning the iterator early does not cancel the run — it completes
    in the background and remaining events are discarded.
    """
    if not isinstance(sim, Simulation):
        raise ConfigError(
            f"iter_progress expects a Simulation, got {type(sim).__name__}"
        )
    events: "queue_module.Queue[object]" = queue_module.Queue()
    finished = object()

    def pump() -> None:
        try:
            sim.run(
                on_cycle=lambda driver: events.put(
                    ProgressEvent.from_driver(driver, sim.spec.ncycles)
                )
            )
        except BaseException as exc:  # re-raised on the consumer side
            events.put(exc)
        else:
            events.put(finished)

    worker = threading.Thread(
        target=pump, name="repro-iter-progress", daemon=True
    )
    worker.start()
    while True:
        item = events.get()
        if item is finished:
            worker.join()
            return
        if isinstance(item, BaseException):
            worker.join()
            raise item
        yield item
