"""Ratio helpers for the paper's text.

Runs go through :mod:`repro.api` (``Simulation`` / ``RunSpec``).  The
helpers here compute the derived quantities the paper's prose
quotes (communication-to-computation ratios, growth factors between
configurations) and accept either an in-memory
:class:`~repro.driver.driver.RunResult` or a campaign run-artifact dict
(:mod:`repro.orchestration.artifacts`), so figures regenerate from a
campaign directory without re-running anything.
"""

from __future__ import annotations

from typing import Mapping, Union

from repro.driver.driver import RunResult

ResultLike = Union[RunResult, Mapping]

#: artifact paths for each RunResult attribute the helpers read
_ARTIFACT_PATHS = {
    "fom": ("fom",),
    "cell_updates": ("communication", "cell_updates"),
    "cells_communicated": ("communication", "cells_communicated"),
    "remote_messages": ("communication", "remote_messages"),
    "wall_seconds": ("timings", "wall_seconds"),
    "kernel_seconds": ("timings", "kernel_seconds"),
    "serial_seconds": ("timings", "serial_seconds"),
    "zone_cycles": ("zone_cycles",),
    "cycles": ("cycles",),
    "device_memory_peak": ("memory", "device_peak_bytes"),
    "final_blocks": ("blocks", "final"),
    "max_blocks": ("blocks", "max"),
}


def metric(result: ResultLike, attr: str):
    """Read one metric off a :class:`RunResult` *or* a run-artifact dict."""
    if isinstance(result, Mapping):
        node = result
        for step in _ARTIFACT_PATHS[attr]:
            node = node[step]
        return node
    return getattr(result, attr)


def comm_to_comp_ratio(result: ResultLike) -> float:
    """Communicated cells per cell update (Section IV-B's 10.9x metric)."""
    if metric(result, "cell_updates") == 0:
        return float("inf")
    return metric(result, "cells_communicated") / metric(result, "cell_updates")


def growth_factor(base: ResultLike, other: ResultLike, attr: str) -> float:
    """``other.attr / base.attr`` — the paper's "grows by N x" statements."""
    b = metric(base, attr)
    o = metric(other, attr)
    if b == 0:
        raise ValueError(f"base {attr} is zero")
    return o / b


def kernel_fraction(result: ResultLike) -> float:
    """Fraction of wall time inside Kokkos kernels (Section IV-C's
    31.2% / 23.4% / 17.9% series)."""
    if metric(result, "wall_seconds") == 0:
        return 0.0
    return metric(result, "kernel_seconds") / metric(result, "wall_seconds")
