"""The ``numba`` backend: JIT-compiled fused stencil loops.

Where the ``numpy`` engine streams whole-pack arrays through a dozen
vectorized passes (one GEMM, one coefficient-form Riemann solve, several
elementwise epilogues), this backend fuses reconstruction and the Riemann
solve into *one* pass per face: a single ``@njit(parallel=True)`` sweep
walks every pencil of every block, keeps the 5-cell stencil window in
registers, and writes the finished flux — no intermediate face-state
arrays at all.  ``cache=True`` persists the compiled machine code across
processes so steady-state dispatch costs one dict lookup.

Import is always safe: when numba is missing, ``njit`` degrades to an
identity decorator and ``prange`` to ``range``, so the loop bodies below
remain plain Python — the differential tests exercise them (slowly but
exactly) in numpy-only environments, while ``NUMBA_AVAILABLE`` keeps
:func:`repro.kernels.backends.build_kernels` from selecting the engine
for real runs.  (Calling
``numba.prange`` outside a jitted context returns ``range`` too, so the
same tests cover the source lines when numba *is* installed.)

Numerical contract: the scalar algebra below restates
:func:`repro.solver.reconstruction.weno5_states_along` /
``plm_states_along`` and the textbook HLL/LLF solvers term for term, so
agreement with the ``numpy`` engine is at rounding level — pinned at
``atol = 1e-13`` by ``tests/test_backend_parity.py``.  All non-flux
stages are inherited from :class:`PackedBurgersKernels` unchanged and
stay bitwise-identical.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.backends.numpy_backend import PackedBurgersKernels
from repro.solver.burgers import CONSERVED
from repro.solver.reconstruction import WENO_EPS

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit, prange

    NUMBA_AVAILABLE = True
except ImportError:  # numpy-only environment: keep pure-Python bodies
    NUMBA_AVAILABLE = False
    prange = range

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def decorate(fn):
            return fn

        return decorate


@njit(cache=True, inline="always")
def _weno5_edge(qm2, qm1, q0, qp1, qp2):
    """Upwind-biased WENO5 edge value of one 5-cell window (Jiang & Shu).

    Forward orientation gives the right-edge (i+1/2) value; callers get
    the mirrored left-edge value by passing the window reversed.
    """
    p0 = (2.0 * qm2 - 7.0 * qm1 + 11.0 * q0) / 6.0
    p1 = (-qm1 + 5.0 * q0 + 2.0 * qp1) / 6.0
    p2 = (2.0 * q0 + 5.0 * qp1 - qp2) / 6.0
    b0 = (13.0 / 12.0) * (qm2 - 2.0 * qm1 + q0) ** 2 + 0.25 * (
        qm2 - 4.0 * qm1 + 3.0 * q0
    ) ** 2
    b1 = (13.0 / 12.0) * (qm1 - 2.0 * q0 + qp1) ** 2 + 0.25 * (
        qm1 - qp1
    ) ** 2
    b2 = (13.0 / 12.0) * (q0 - 2.0 * qp1 + qp2) ** 2 + 0.25 * (
        3.0 * q0 - 4.0 * qp1 + qp2
    ) ** 2
    a0 = 0.1 / (WENO_EPS + b0) ** 2
    a1 = 0.6 / (WENO_EPS + b1) ** 2
    a2 = 0.3 / (WENO_EPS + b2) ** 2
    return (a0 * p0 + a1 * p1 + a2 * p2) / (a0 + a1 + a2)


@njit(cache=True, inline="always")
def _minmod(a, b):
    """Scalar minmod: 0 on sign disagreement, else the smaller magnitude."""
    if a * b <= 0.0:
        return 0.0
    if abs(a) < abs(b):
        return a
    return b


@njit(cache=True, inline="always")
def _load_cell(u, b, c, direction, i_hi, i_lo, s):
    """One strided pencil load: position ``s`` along ``direction``.

    ``i_hi``/``i_lo`` are the ghost-offset positions along the two
    tangential array axes (slower- and faster-varying respectively).
    """
    if direction == 0:
        return u[b, c, i_hi, i_lo, s]
    if direction == 1:
        return u[b, c, i_hi, s, i_lo]
    return u[b, c, s, i_hi, i_lo]


@njit(cache=True, inline="always")
def _store_flux(fx, b, c, direction, t_hi, t_lo, f, val):
    """Write one face flux; the face index sits on ``direction``'s axis."""
    if direction == 0:
        fx[b, c, t_hi, t_lo, f] = val
    elif direction == 1:
        fx[b, c, t_hi, f, t_lo] = val
    else:
        fx[b, c, f, t_hi, t_lo] = val


@njit(parallel=True, cache=True)
def _flux_sweep_pack(
    u, fx, direction, ng, nxa, g_hi, g_lo, nt_hi, nt_lo, nvel, use_weno, use_hll
):
    """Fused reconstruction + Riemann solve directly over pack storage.

    ``u`` is the pack-wide conserved view ``(nb, ncomp, x3, x2, x1)``
    *including ghosts* — no recon-last staging copy; pencils are walked
    with strided loads.  ``fx`` is the pack-level face-flux array for
    ``direction`` (interior-only tangential extents, ``nxa + 1`` faces).
    ``g_hi``/``nt_hi`` are the ghost depth and interior extent of the
    slower-varying tangential array axis, ``g_lo``/``nt_lo`` of the
    faster-varying one.  Every (block, pencil) pair is independent, so
    the flattened outer loop parallelizes with no synchronization.
    """
    nb = u.shape[0]
    ncomp = u.shape[1]
    nfaces = nxa + 1
    for idx in prange(nb * nt_hi * nt_lo):
        b = idx // (nt_hi * nt_lo)
        rem = idx % (nt_hi * nt_lo)
        t_hi = rem // nt_lo
        t_lo = rem % nt_lo
        i_hi = g_hi + t_hi
        i_lo = g_lo + t_lo
        ql = np.empty(ncomp)
        qr = np.empty(ncomp)
        for f in range(nfaces):
            s0 = ng + f  # cell right of the face; s0 - 1 is left
            for c in range(ncomp):
                # Window cells around the face (a2 left, a3 right); the
                # outermost pair exists only at WENO's ghost depth.
                a1 = _load_cell(u, b, c, direction, i_hi, i_lo, s0 - 2)
                a2 = _load_cell(u, b, c, direction, i_hi, i_lo, s0 - 1)
                a3 = _load_cell(u, b, c, direction, i_hi, i_lo, s0)
                a4 = _load_cell(u, b, c, direction, i_hi, i_lo, s0 + 1)
                if use_weno:
                    a0 = _load_cell(u, b, c, direction, i_hi, i_lo, s0 - 3)
                    a5 = _load_cell(u, b, c, direction, i_hi, i_lo, s0 + 2)
                    ql[c] = _weno5_edge(a0, a1, a2, a3, a4)
                    qr[c] = _weno5_edge(a5, a4, a3, a2, a1)
                else:
                    ql[c] = a2 + 0.5 * _minmod(a2 - a1, a3 - a2)
                    qr[c] = a3 - 0.5 * _minmod(a3 - a2, a4 - a3)
            unl = ql[direction]
            unr = qr[direction]
            if use_hll:
                sl = min(min(unl, unr), 0.0)
                sr = max(max(unl, unr), 0.0)
                width = sr - sl
                if width > 0.0:
                    for c in range(ncomp):
                        scale = 0.5 if c < nvel else 1.0
                        fl = scale * ql[c] * unl
                        fr = scale * qr[c] * unr
                        val = (
                            sr * fl - sl * fr + sl * sr * (qr[c] - ql[c])
                        ) / width
                        _store_flux(fx, b, c, direction, t_hi, t_lo, f, val)
                else:
                    for c in range(ncomp):
                        _store_flux(fx, b, c, direction, t_hi, t_lo, f, 0.0)
            else:
                smax = max(abs(unl), abs(unr))
                for c in range(ncomp):
                    scale = 0.5 if c < nvel else 1.0
                    fl = scale * ql[c] * unl
                    fr = scale * qr[c] * unr
                    val = 0.5 * (fl + fr) - 0.5 * smax * (qr[c] - ql[c])
                    _store_flux(fx, b, c, direction, t_hi, t_lo, f, val)


#: direction -> (slower, faster) tangential dimension indices: the two
#: spatial dims that are *not* the sweep direction, ordered by array axis.
_TANGENTIAL = ((2, 1), (2, 0), (1, 0))


class NumbaBurgersKernels(PackedBurgersKernels):
    """Packed engine with the flux stage rerouted through the JIT sweep.

    Only ``calculate_fluxes`` differs from the numpy engine; divergence/
    update, FillDerived, save-base and the timestep reduce are inherited,
    keeping those stages bitwise-identical across backends.

    The sweep reads pack storage in place with strided pencil loads and
    writes finished fluxes straight into the pack's face arrays — no
    recon-last staging copy in, no moveaxis copy out, and no per-axis
    scratch arrays (the former ``numba_w{a}``/``numba_f{a}`` buffers).
    """

    def __init__(self, pkg) -> None:
        super().__init__(pkg)
        self._use_hll = pkg.config.riemann == "hll"

    def calculate_fluxes(self, pack) -> None:
        u = pack.field(CONSERVED)
        shape = pack.blocks[0].shape
        nx = shape.nx
        for a in range(self.ndim):
            d_hi, d_lo = _TANGENTIAL[a]
            _flux_sweep_pack(
                u,
                pack.flux_data[CONSERVED][a],
                a,
                shape.ng,
                nx[a],
                shape.ghosts(d_hi),
                shape.ghosts(d_lo),
                nx[d_hi],
                nx[d_lo],
                self.nvel,
                self._use_weno,
                self._use_hll,
            )

