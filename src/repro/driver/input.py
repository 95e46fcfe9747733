"""Parthenon-style input decks.

Parthenon (and VIBE) configure runs from ini-like input files with
``<block>`` section headers::

    <parthenon/mesh>
    nx1 = 128
    nx2 = 128
    nx3 = 128
    numlevel = 3

    <parthenon/meshblock>
    nx1 = 16

    <burgers>
    num_scalars = 8
    recon = weno5        # or plm

    <platform>
    backend = gpu
    num_gpus = 1
    ranks_per_gpu = 12
    mode = modeled

This module parses that format into :class:`SimulationParams` and
:class:`ExecutionConfig`, so runs are reproducible from a deck exactly like
the original benchmark.  Which key carries which option, and when it is
written, comes from the option table in :mod:`repro.options`.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, Tuple, Union

from repro.driver.execution import ExecutionConfig
from repro.driver.params import SimulationParams
from repro.options import (
    DECK_SECTIONS,
    OPTION,
    OPTIONAL_SECTIONS,
    OPTIONS,
    ConfigError,
    build,
    check,
)

_SECTION_RE = re.compile(r"^<([^>]+)>$")

Value = Union[int, float, bool, str]


class InputError(ConfigError):
    """Malformed or invalid input deck."""


def _coerce(raw: str) -> Value:
    raw = raw.strip()
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def parse_input(text: str) -> Dict[str, Dict[str, Value]]:
    """Parse deck text into ``{section: {key: value}}``."""
    sections: Dict[str, Dict[str, Value]] = {}
    current: Dict[str, Value] = {}
    current_name = ""
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SECTION_RE.match(line)
        if m:
            current_name = m.group(1).strip()
            current = sections.setdefault(current_name, {})
            continue
        if "=" not in line:
            raise InputError(f"line {lineno}: expected 'key = value', got {line!r}")
        if not current_name:
            raise InputError(
                f"line {lineno}: key/value before any <section> header"
            )
        key, _, raw = line.partition("=")
        current[key.strip()] = _coerce(raw)
    return sections


def params_from_input(text: str) -> Tuple[SimulationParams, ExecutionConfig]:
    """Build run configuration from a deck.

    Every key of the option table is checked for type and choice like
    the builders' arguments; other keys are ignored (like Parthenon,
    which lets packages read their own sections).  Bad values and
    inconsistent meshes raise :class:`InputError`.
    """
    s = parse_input(text)
    values = {
        o.name: s[o.section][o.key]
        for o in OPTIONS
        if o.key in s.get(o.section, {})
    }
    mesh, size = s.get("parthenon/mesh", {}), OPTION["mesh_size"]
    try:
        nx1 = check(size, mesh.get("nx1", size.default))
        nx2 = check(size, mesh.get("nx2", nx1))
        nx3 = check(size, mesh.get("nx3", nx1))
        ndim = 3 if nx3 > 1 else (2 if nx2 > 1 else 1)
        if ndim == 3 and not (nx1 == nx2 == nx3):
            raise InputError(
                "anisotropic meshes are not supported: "
                f"nx1={nx1} nx2={nx2} nx3={nx3}"
            )
        return build(dict(values, ndim=ndim, mesh_size=nx1))
    except ConfigError as exc:
        raise InputError(str(exc)) from exc


def load_input(path: Union[str, Path]) -> Tuple[SimulationParams, ExecutionConfig]:
    """Parse a deck from disk."""
    return params_from_input(Path(path).read_text())


def _renders(option, value, config: ExecutionConfig) -> bool:
    if option.render == "non_default":
        return value != option.default
    if option.render in OPTION["backend"].choices:
        return config.backend == option.render
    return True


def render_input(params: SimulationParams, config: ExecutionConfig) -> str:
    """The inverse: write a deck reproducing this configuration."""
    lines = []
    for section in DECK_SECTIONS:
        rows = [
            (o, o.get(params, config)) for o in OPTIONS if o.section == section
        ]
        if section in OPTIONAL_SECTIONS and all(v == o.default for o, v in rows):
            continue
        body = [f"{o.key} = {v}" for o, v in rows if _renders(o, v, config)]
        if section == "parthenon/mesh":
            n = params.mesh_size
            body = [
                f"nx1 = {n}",
                f"nx2 = {n if params.ndim >= 2 else 1}",
                f"nx3 = {n if params.ndim >= 3 else 1}",
            ] + body
        lines += [f"<{section}>", *body, ""]
    return "\n".join(lines[:-1]) + "\n"
