"""Seeded, deterministic fault injection for resilience testing.

Production AMR frameworks treat restart as a correctness surface
(Parthenon's ``REQUIRES_RESTART`` metadata; AMReX's native checkpoint
layer), which means the recovery paths themselves need exercising.  This
module injects faults at *named sites* — the places a real campaign
worker dies: inside a kernel launch, while packing/unpacking ghost
buffers, during remeshing, while persisting an artifact, or anywhere in
the worker process — on a schedule that is a pure function of the plan's
seed, so every failure a test provokes is exactly reproducible.

Determinism is counter-based (Philox-style): the decision for the
``i``-th check of site ``s`` under seed ``q`` is derived from
``sha256(q:s:i)``, never from stateful RNG objects.  Two consequences:

* the same :class:`FaultPlan` always yields the same fault schedule, and
* an injector whose counters were restored from a checkpoint continues
  the *same* stream — resume never shifts the schedule.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

#: Every place the toolkit can inject a fault.  Sites are threaded
#: through the driver (kernel launches, ghost pack/unpack, remesh),
#: and the campaign worker (whole-worker crash, artifact persistence).
FAULT_SITES: Tuple[str, ...] = (
    "kernel_launch",
    "ghost_pack",
    "ghost_unpack",
    "remesh",
    "artifact_write",
    "campaign_worker",
)


class FaultError(RuntimeError):
    """A misconfigured fault plan (unknown site, bad probability)."""


class InjectedFault(RuntimeError):
    """The exception an armed fault site raises when it fires."""

    def __init__(self, site: str, cycle: int, invocation: int) -> None:
        super().__init__(
            f"injected fault at site {site!r} "
            f"(cycle {cycle}, invocation {invocation})"
        )
        self.site = site
        self.cycle = cycle
        self.invocation = invocation


@dataclass(frozen=True)
class FaultSpec:
    """Arm one site: fire at a cycle and/or with a probability.

    ``cycle`` of ``None`` matches every cycle; ``probability`` scales
    each matching check's chance of firing (1.0 = always); ``max_fires``
    bounds total fires so a recovered-and-retried site does not fail
    forever (the default, one fire, models a transient fault).
    """

    site: str
    cycle: Optional[int] = None
    probability: float = 1.0
    max_fires: int = 1

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise FaultError(
                f"unknown fault site {self.site!r}; "
                f"registered sites: {', '.join(FAULT_SITES)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise FaultError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.max_fires < 0:
            raise FaultError(f"max_fires must be >= 0, got {self.max_fires}")


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the armed sites — picklable, shippable to workers."""

    seed: int = 0
    specs: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    @classmethod
    def single(cls, site: str, seed: int = 0, **kwargs) -> "FaultPlan":
        """A plan arming exactly one site (the common test shape)."""
        return cls(seed=seed, specs=(FaultSpec(site=site, **kwargs),))


@dataclass
class FaultCounters:
    """Per-site check/fire tallies with an associative+commutative merge.

    ``merge`` adds counts per site, so folding a campaign's worker
    counters together yields the same totals in any order or grouping —
    the same contract :class:`repro.observability.MetricsRegistry` keeps.
    """

    checks: Dict[str, int] = field(default_factory=dict)
    fired: Dict[str, int] = field(default_factory=dict)

    def merge(self, other: "FaultCounters") -> "FaultCounters":
        out = FaultCounters(checks=dict(self.checks), fired=dict(self.fired))
        for name, n in other.checks.items():
            out.checks[name] = out.checks.get(name, 0) + n
        for name, n in other.fired.items():
            out.fired[name] = out.fired.get(name, 0) + n
        return out

    def to_dict(self) -> dict:
        return {
            "checks": dict(sorted(self.checks.items())),
            "fired": dict(sorted(self.fired.items())),
        }

    def total_fired(self) -> int:
        return sum(self.fired.values())


def _stream_draw(seed: int, site: str, invocation: int) -> float:
    """Uniform [0, 1) draw for one (seed, site, invocation) triple."""
    digest = hashlib.sha256(
        f"{seed}:{site}:{invocation}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at every instrumented site.

    ``check(site, cycle)`` raises :class:`InjectedFault` when an armed
    spec matches and its per-site stream draw clears the probability;
    otherwise it only advances the site's invocation counter.  The
    counter state (and nothing else) is the injector's mutable state, so
    checkpointing it — :meth:`state_dict` / :meth:`load_state_dict` —
    resumes the exact schedule.
    """

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        self.plan = plan or FaultPlan()
        self.counters = FaultCounters()
        self._fires_by_spec: Dict[int, int] = {}

    @property
    def armed(self) -> bool:
        return bool(self.plan.specs)

    def check(self, site: str, cycle: int = -1) -> None:
        """One pass through an instrumented site; may raise."""
        if not self.armed:
            return
        invocation = self.counters.checks.get(site, 0)
        self.counters.checks[site] = invocation + 1
        for ispec, spec in enumerate(self.plan.specs):
            if spec.site != site:
                continue
            if spec.cycle is not None and spec.cycle != cycle:
                continue
            if self._fires_by_spec.get(ispec, 0) >= spec.max_fires:
                continue
            if _stream_draw(self.plan.seed, site, invocation) >= spec.probability:
                continue
            self._fires_by_spec[ispec] = self._fires_by_spec.get(ispec, 0) + 1
            self.counters.fired[site] = self.counters.fired.get(site, 0) + 1
            raise InjectedFault(site, cycle, invocation)

    # ------------------------------------------------------ checkpointing

    def state_dict(self) -> dict:
        return {
            "checks": dict(self.counters.checks),
            "fired": dict(self.counters.fired),
            "fires_by_spec": dict(self._fires_by_spec),
        }

    def load_state_dict(self, state: dict) -> None:
        self.counters = FaultCounters(
            checks=dict(state["checks"]), fired=dict(state["fired"])
        )
        self._fires_by_spec = {
            int(k): v for k, v in state["fires_by_spec"].items()
        }


class _NullInjector(FaultInjector):
    """Shared no-op injector for undisturbed runs (null-object pattern)."""

    def check(self, site: str, cycle: int = -1) -> None:
        return


#: The driver's default: checks cost one attribute load + call, nothing
#: is counted, nothing can fire.
NULL_INJECTOR = _NullInjector()
