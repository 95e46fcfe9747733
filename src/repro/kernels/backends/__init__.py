"""Packed kernel engines: ``numpy`` (reference) and ``numba``.

An engine sweeps one contiguous :class:`repro.solver.packs.MeshBlockPack`
per call through the pack-stage protocol::

    calculate_fluxes(pack)
    flux_divergence_and_update(pack, gam0, gam1, beta_dt)
    fill_derived(pack)
    save_base(pack)
    estimate_timestep(pack) -> per-block dt array

:func:`build_kernels` builds the engine a configured ``kernel_backend``
names.  A ``numba`` request on a host without numba runs the ``numpy``
engine and warns once per process (graceful degradation, not an error —
the same deck must run on every platform).

Numerical contract (pinned by ``tests/test_backend_parity.py``): the
numba engine agrees with the numpy reference at ``atol = 1e-13`` on the
flux stage, is *bitwise* identical on the non-flux stages, and leaves
the canonical golden trace byte-identical apart from the
``kernel_backend`` metadata field.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Tuple

from repro.kernels.backends.numba_backend import (
    NUMBA_AVAILABLE,
    NumbaBurgersKernels,
)
from repro.kernels.backends.numpy_backend import PackedBurgersKernels

if TYPE_CHECKING:  # pragma: no cover
    from repro.solver.burgers import BurgersPackage

#: Backend names the configuration layer accepts.  Membership here means
#: "a valid choice", not "importable right now".
KNOWN_BACKENDS: Tuple[str, ...] = ("numpy", "numba")


class BackendUnavailableWarning(UserWarning):
    """``numba`` was requested but is not installed; the run proceeds on
    the ``numpy`` engine."""


#: Whether the fallback has warned — process-global so repeated driver
#: construction (campaign workers, pack rebuilds, checkpoint restores)
#: warns exactly once per process.
_warned = False


def build_kernels(
    name: str, pkg: "BurgersPackage"
) -> Tuple[PackedBurgersKernels, str]:
    """The packed engine for backend ``name`` and the name of the engine
    actually built (``"numpy"`` after a fallback).

    ``name`` must be one of :data:`KNOWN_BACKENDS`; the configuration
    layer rejects anything else before a driver exists.
    """
    global _warned
    if name == "numba":
        if NUMBA_AVAILABLE:
            return NumbaBurgersKernels(pkg), "numba"
        if not _warned:
            _warned = True
            warnings.warn(
                "kernel_backend 'numba' is unavailable (numba is not "
                "installed); falling back to 'numpy'. This warning fires "
                "once per process.",
                BackendUnavailableWarning,
                stacklevel=2,
            )
    return PackedBurgersKernels(pkg), "numpy"
