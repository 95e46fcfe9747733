"""The option table: every run option declared once.

Each :class:`Option` row names one field of :class:`SimulationParams` or
:class:`ExecutionConfig` and says how it travels: its value type and
choices, its input-deck section and key, its CLI flag and the
subcommands that take it, and whether it enters
:meth:`repro.api.RunSpec.cache_key`.  Defaults stay on the dataclass
fields.  The deck parser and renderer (:mod:`repro.driver.input`), the
validating builders below, ``ExecutionConfig.__post_init__``, the JSON
wire schema, the cache key and the CLI all read :data:`OPTIONS`, so
adding an option means adding one row.

Not every mapping is 1:1, and those few stay hand-written where they
are used: the deck's ``nx1/nx2/nx3`` carry ``ndim`` and ``mesh_size``,
the CLI's ``--ranks`` sets ``ranks_per_gpu`` or ``cpu_ranks`` by
backend, and ``campaign`` takes list-valued ``--mesh``/``--block``.
"""

from __future__ import annotations

import dataclasses
import difflib
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.driver.execution import ExecutionConfig, OptimizationFlags
from repro.driver.params import SimulationParams
from repro.kernels.backends import KNOWN_BACKENDS
from repro.mesh.refinement import KNOWN_POLICIES
from repro.solver.reconstruction import STENCIL_GHOSTS
from repro.solver.riemann import RIEMANN_SOLVERS


class ConfigError(ValueError):
    """A run configuration that could never be valid (typo, bad choice)."""


#: Subcommands that build one configuration from flags alone.
SINGLE = ("characterize", "deck", "sweep", "recommend")
#: ...plus ``campaign``, whose mesh and block flags are lists.
CONFIGURE = SINGLE + ("campaign",)

#: Deck sections in the order :func:`repro.driver.input.render_input`
#: writes them.
DECK_SECTIONS = (
    "parthenon/mesh",
    "parthenon/meshblock",
    "parthenon/time",
    "burgers",
    "platform",
    "refinement",
    "checkpoint",
)
#: Sections written only when one of their options is non-default, so
#: decks from before the section existed render byte-identically.
OPTIONAL_SECTIONS = ("refinement", "checkpoint")


@dataclass(frozen=True)
class Option:
    """One run option: a dataclass field and every way it is spelled."""

    #: Field name on ``owner``.
    name: str
    #: :class:`SimulationParams` or :class:`ExecutionConfig`.
    owner: type
    #: ``int``, ``float`` or ``str``.  A float option also takes an int.
    type: type
    #: The valid values; empty for any value of ``type``.
    choices: Tuple = ()
    #: Deck section and key; empty when the option has no 1:1 deck key.
    section: str = ""
    key: str = ""
    #: When the key is written: "always", "non_default", or "gpu"/"cpu"
    #: (only for that backend).
    render: str = "always"
    #: CLI flag, and the subcommands that take it.  ``run`` and
    #: ``trace`` take it as an override of the deck's value.
    flag: str = ""
    commands: Tuple[str, ...] = ()
    help: Optional[str] = None
    #: False for options that never change the simulated outcome.
    cache_key: bool = True

    @property
    def default(self):
        return _DEFAULTS[self.name]

    def get(self, params: SimulationParams, config: ExecutionConfig):
        """This option's value in a configuration."""
        owner = config if self.owner is ExecutionConfig else params
        return getattr(owner, self.name)

    @property
    def dest(self) -> str:
        """The argparse attribute of :attr:`flag`."""
        return self.flag[2:].replace("-", "_")


P, C = SimulationParams, ExecutionConfig

#: Rows in deck order within each section.
OPTIONS: Tuple[Option, ...] = (
    Option("ndim", P, int, (1, 2, 3), flag="--ndim", commands=CONFIGURE),
    Option("mesh_size", P, int, flag="--mesh", commands=SINGLE,
           help="cells per dimension"),
    Option("block_size", P, int, section="parthenon/meshblock", key="nx1",
           flag="--block", commands=SINGLE, help="MeshBlock size"),
    Option("num_levels", P, int, section="parthenon/mesh", key="numlevel",
           flag="--levels", commands=CONFIGURE, help="#AMR levels"),
    Option("num_scalars", P, int, section="burgers", key="num_scalars",
           flag="--scalars", commands=CONFIGURE, help="passive scalars"),
    Option("reconstruction", P, str, tuple(STENCIL_GHOSTS),
           section="burgers", key="recon"),
    Option("riemann", P, str, tuple(RIEMANN_SOLVERS),
           section="burgers", key="riemann"),
    Option("cfl", P, float, section="parthenon/time", key="cfl"),
    Option("refine_every", P, int, section="parthenon/mesh",
           key="refine_every"),
    Option("derefine_gap", P, int, section="parthenon/mesh",
           key="derefine_count"),
    Option("load_balance_every", P, int),
    Option("refine_tol", P, float, section="burgers", key="refine_tol"),
    Option("derefine_tol", P, float, section="burgers", key="derefine_tol"),
    Option("refinement_policy", P, str, KNOWN_POLICIES,
           section="refinement", key="policy",
           flag="--refinement-policy", commands=CONFIGURE + ("run",),
           help="named refinement policy from the repro.mesh.refinement "
           "registry"),
    Option("block_budget", P, int, section="refinement", key="block_budget",
           render="non_default",
           flag="--block-budget", commands=CONFIGURE + ("run",),
           help="leaf-count target for --refinement-policy block_budget "
           "(required >= 1 for that policy; ignored otherwise)"),
    Option("wavefront_speed", P, float),
    Option("wavefront_width", P, float),
    Option("wavefront_r0", P, float),
    Option("backend", C, str, ("gpu", "cpu"), section="platform",
           key="backend", flag="--backend", commands=CONFIGURE),
    Option("mode", C, str, ("modeled", "numeric"), section="platform",
           key="mode", flag="--mode", commands=CONFIGURE,
           help="cost-only synthetic run, or real PDE math (small configs)"),
    Option("kernel_mode", C, str, ("packed", "per_block"),
           section="platform", key="kernel_mode",
           flag="--kernel-mode", commands=CONFIGURE + ("trace",),
           help="one fused launch per MeshBlockPack, or one per block "
           "(the launch-overhead ablation)"),
    Option("kernel_backend", C, str, KNOWN_BACKENDS,
           section="platform", key="kernel_backend", render="non_default",
           flag="--kernel-backend", commands=CONFIGURE + ("trace",),
           help="engine for packed numeric kernels; numba falls back to "
           "numpy with a one-time warning when it is not installed"),
    Option("num_nodes", C, int, section="platform", key="num_nodes",
           flag="--nodes", commands=CONFIGURE),
    Option("num_gpus", C, int, section="platform", key="num_gpus",
           render="gpu", flag="--gpus", commands=CONFIGURE),
    Option("ranks_per_gpu", C, int, section="platform", key="ranks_per_gpu",
           render="gpu"),
    Option("cpu_ranks", C, int, section="platform", key="cpu_ranks",
           render="cpu"),
    Option("checkpoint_every", C, int, section="checkpoint", key="every",
           flag="--checkpoint-every", commands=("run",),
           help="write a crash-consistent checkpoint every N cycles "
           "(0 disables)",
           cache_key=False),
)

OPTION: Dict[str, Option] = {o.name: o for o in OPTIONS}

_DEFAULTS = {
    f.name: f.default for owner in (P, C) for f in dataclasses.fields(owner)
}

_KINDS = {int: "an integer", float: "a number", str: "a string"}


def _suggest(given: str, valid: Sequence[str]) -> str:
    close = difflib.get_close_matches(given, list(valid), n=1, cutoff=0.5)
    return f" (did you mean {close[0]!r}?)" if close else ""


def check_names(kind: str, given: Dict[str, object], valid: Sequence[str]) -> None:
    for name in given:
        if name not in valid:
            raise ConfigError(
                f"unknown {kind} option {name!r}; valid options: "
                f"{', '.join(sorted(valid))}{_suggest(name, valid)}"
            )


def check(option: Option, value: object) -> object:
    """``value`` checked against the option's type and choices; an int
    given for a float option comes back as a float."""
    if option.type is float and type(value) is int:
        value = float(value)
    if not isinstance(value, option.type) or isinstance(value, bool):
        raise ConfigError(
            f"{option.name} must be {_KINDS[option.type]}, got {value!r}"
        )
    if option.choices and value not in option.choices:
        valid = [str(c) for c in option.choices]
        raise ConfigError(
            f"invalid {option.name} {value!r}; valid choices: "
            f"{', '.join(valid)}{_suggest(str(value), valid)}"
        )
    return value


def check_fields(obj: object) -> None:
    """Check every table option of a constructed dataclass."""
    for option in OPTIONS:
        if option.owner is type(obj):
            check(option, getattr(obj, option.name))


def wire_fields(owner: type) -> Tuple[str, ...]:
    """The fields of ``owner`` the JSON wire schema carries, in field
    order: exactly its table options."""
    return tuple(f.name for f in dataclasses.fields(owner) if f.name in OPTION)


#: Options that never change the simulated outcome, so
#: :meth:`repro.api.RunSpec.cache_key` leaves them out.
NOT_IN_CACHE_KEY = tuple(o.name for o in OPTIONS if not o.cache_key)


def outcome_config(config: ExecutionConfig) -> ExecutionConfig:
    """``config`` with every option outside the cache key at its default."""
    return dataclasses.replace(
        config, **{name: _DEFAULTS[name] for name in NOT_IN_CACHE_KEY}
    )


def build_optimization_flags(**flags: bool) -> OptimizationFlags:
    """Validating builder for :class:`OptimizationFlags`.

    Accepts only the boolean toggles (the ``*_SPEEDUP`` calibration
    constants are not settable here) and rejects misspelled flags with a
    suggestion.
    """
    valid = [
        f.name
        for f in dataclasses.fields(OptimizationFlags)
        if isinstance(f.default, bool)
    ]
    check_names("optimization", flags, valid)
    for name, value in flags.items():
        if not isinstance(value, bool):
            raise ConfigError(
                f"optimization flag {name!r} must be a bool, got {value!r}"
            )
    return OptimizationFlags(**flags)


def build_execution_config(
    optimizations: Union[OptimizationFlags, Dict[str, bool], None] = None,
    **options: object,
) -> ExecutionConfig:
    """Validating builder for :class:`ExecutionConfig`.

    One funnel for every caller that assembles a platform configuration:
    unknown option names and invalid values fail *here*, with the valid
    choices spelled out, rather than deep inside the driver.
    ``optimizations`` may be an :class:`OptimizationFlags` or a plain
    dict of flag names (routed through :func:`build_optimization_flags`).
    """
    # Specs stored before sharded execution was removed carry
    # num_shards=1, which changes nothing; any other count cannot run.
    shards = options.pop("num_shards", 1)
    if type(shards) is not int or shards != 1:
        raise ConfigError(
            f"num_shards={shards!r}: sharded execution was removed; "
            "runs are single-process (drop num_shards)"
        )
    valid = [f.name for f in dataclasses.fields(C) if f.name != "optimizations"]
    check_names("execution", options, valid)
    if isinstance(optimizations, dict):
        optimizations = build_optimization_flags(**optimizations)
    elif optimizations is None:
        optimizations = OptimizationFlags()
    try:
        return ExecutionConfig(optimizations=optimizations, **options)
    except ValueError as exc:  # range errors from __post_init__
        raise ConfigError(str(exc)) from exc


def build_simulation_params(**options: object) -> SimulationParams:
    """Validating builder for :class:`SimulationParams`.

    The mesh geometry is built here once, so a shape the mesh would
    reject fails before a run is queued.
    """
    check_names("simulation", options, [f.name for f in dataclasses.fields(P)])
    params = SimulationParams(
        **{name: check(OPTION[name], value) for name, value in options.items()}
    )
    try:
        params.geometry()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not (math.isfinite(params.cfl) and params.cfl > 0.0):
        raise ConfigError(f"cfl must be finite and > 0, got {params.cfl!r}")
    if params.refinement_policy == "block_budget" and params.block_budget < 1:
        raise ConfigError(
            "refinement_policy 'block_budget' needs block_budget >= 1 "
            f"(got {params.block_budget})"
        )
    return params


def build(values: Dict[str, object]) -> Tuple[SimulationParams, ExecutionConfig]:
    """Both dataclasses from table options, through the builders."""
    split: Dict[type, Dict[str, object]] = {P: {}, C: {}}
    for name, value in values.items():
        split[OPTION[name].owner][name] = value
    return build_simulation_params(**split[P]), build_execution_config(**split[C])
