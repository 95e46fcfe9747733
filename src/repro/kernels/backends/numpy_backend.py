"""The ``numpy`` reference backend: vectorized whole-pack kernels.

This is the packed execution engine — one reconstruction GEMM, one
coefficient-form Riemann evaluation, one divergence update for every
block at once, with a leading block axis.
Within CalculateFluxes blocks are processed in cache-sized chunks (one
16^3 block's state already fills L2-scale working sets; batching tiny
blocks recovers the dispatch amortization that matters at small block
sizes).

Numerical contract: flux divergence, the RK weighted sum, FillDerived and
the timestep reduce replicate the per-block operation order exactly, so
those stages are bitwise-identical to the per-block loop.  Reconstruction
and the Riemann solver use algebraically identical but re-associated
expressions (gemm-fused stencils, coefficient-form HLL), so full-step
agreement is at rounding level (~1e-15), well inside the parity suite's
1e-13 tolerance.  The numba engine is measured against *this* one.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.solver.burgers import BASE, CONSERVED, DERIVED
from repro.solver.reconstruction import FusedWeno5, plm_states_along
from repro.solver.riemann import HLLScratch, RIEMANN_SOLVERS_FUSED

#: Target interior cells per CalculateFluxes chunk.
PACK_CHUNK_CELLS = 4096


class _FluxScratch:
    """Preallocated recon-last workspace for one chunk geometry."""

    __slots__ = ("w", "flux_t", "riemann")

    def __init__(self, chunk_shape: Tuple[int, ...], nfaces: int) -> None:
        self.w = np.empty(chunk_shape)
        self.flux_t = np.empty(chunk_shape[:-1] + (nfaces,))
        self.riemann = HLLScratch(self.flux_t.shape)


class PackedBurgersKernels:
    """Fused whole-pack kernels over a contiguous :class:`MeshBlockPack`.

    Each method is one "launch": it consumes the pack's dense
    ``(nblocks, ncomp, x3, x2, x1)`` storage (see
    :meth:`repro.solver.packs.build_numeric_pack`) and updates it in place.
    All scratch is cached by shape, so steady-state cycles allocate nothing.
    """

    def __init__(self, pkg) -> None:
        self.pkg = pkg
        self.ndim = pkg.ndim
        self.nvel = pkg.nvel
        self._weno = FusedWeno5()
        self._use_weno = pkg.config.reconstruction == "weno5"
        self._riemann = RIEMANN_SOLVERS_FUSED[pkg.config.riemann]
        self._flux_scratch: Dict[Tuple[Tuple[int, ...], int], _FluxScratch] = {}
        self._buffers: Dict[Tuple[str, Tuple[int, ...]], np.ndarray] = {}

    # ------------------------------------------------------------- scratch

    def _get_flux_scratch(
        self, chunk_shape: Tuple[int, ...], nfaces: int
    ) -> _FluxScratch:
        key = (chunk_shape, nfaces)
        s = self._flux_scratch.get(key)
        if s is None:
            s = _FluxScratch(chunk_shape, nfaces)
            self._flux_scratch[key] = s
        return s

    def _scratch(self, name: str, shape: Tuple[int, ...]) -> np.ndarray:
        key = (name, shape)
        arr = self._buffers.get(key)
        if arr is None:
            arr = np.empty(shape)
            self._buffers[key] = arr
        return arr

    @staticmethod
    def _interior(pack, name: str) -> np.ndarray:
        sl = pack.blocks[0].shape.interior_slices()
        return pack.field(name)[(slice(None), slice(None)) + sl]

    # ------------------------------------------------------------- kernels

    def calculate_fluxes(self, pack) -> None:
        """Reconstruction + Riemann fluxes for every block in one sweep."""
        u = pack.field(CONSERVED)
        shape = pack.blocks[0].shape
        ng = shape.ng
        nx = shape.nx
        step = max(1, PACK_CHUNK_CELLS // pack.blocks[0].interior_cells)
        nb = u.shape[0]
        for a in range(self.ndim):
            arr_axis = 4 - a
            # Tangential dimensions to the interior, recon axis full (the
            # per-block kernel's slicing with a leading block axis).
            sl: List[slice] = [slice(None), slice(None)]
            for d in (2, 1, 0):
                if d == a or d >= self.ndim:
                    sl.append(slice(None))
                else:
                    g = shape.ghosts(d)
                    sl.append(slice(g, g + nx[d]))
            qm = np.moveaxis(u[tuple(sl)], arr_axis, -1)
            fx = pack.flux_data[CONSERVED][a]
            for i0 in range(0, nb, step):
                i1 = min(nb, i0 + step)
                chunk = qm[i0:i1]
                s = self._get_flux_scratch(chunk.shape, nx[a] + 1)
                np.copyto(s.w, chunk)  # one contiguous recon-last copy
                if self._use_weno:
                    ql, qr = self._weno.faces(s.w, ng, nx[a])
                else:
                    ql, qr = plm_states_along(s.w, ng, nx[a])
                self._riemann(ql, qr, a, self.nvel, s.flux_t, s.riemann)
                fx[i0:i1] = np.moveaxis(s.flux_t, -1, arr_axis)

    def flux_divergence_and_update(
        self, pack, gam0: float, gam1: float, beta_dt: float
    ) -> None:
        """``U ← gam0·U + gam1·U0 − beta·dt·∇·F`` over every interior.

        Fuses the per-block ``flux_divergence`` + ``weighted_sum`` pair with
        the identical association order, so results match bitwise.
        """
        shape = pack.blocks[0].shape
        nx = shape.nx
        u = self._interior(pack, CONSERVED)
        u0 = self._interior(pack, BASE)
        dudt = self._scratch("dudt", u.shape)
        diff = self._scratch("diff", u.shape)
        for a in range(self.ndim):
            axis = 4 - a
            flux = pack.flux_data[CONSERVED][a]
            lo = [slice(None)] * 5
            hi = [slice(None)] * 5
            lo[axis] = slice(0, nx[a])
            hi[axis] = slice(1, nx[a] + 1)
            np.subtract(flux[tuple(hi)], flux[tuple(lo)], out=diff)
            dx = pack.dx_array(a).reshape((-1, 1, 1, 1, 1))
            np.divide(diff, dx, out=diff)
            if a == 0:
                np.negative(diff, out=dudt)
            else:
                np.subtract(dudt, diff, out=dudt)
        np.multiply(u, gam0, out=u)
        np.multiply(u0, gam1, out=diff)
        np.add(u, diff, out=u)
        np.multiply(dudt, beta_dt, out=dudt)
        np.add(u, dudt, out=u)

    def fill_derived(self, pack) -> None:
        """``d = 1/2 q0 u·u`` for every block at once (CalculateDerived)."""
        u = self._interior(pack, CONSERVED)
        d = self._interior(pack, DERIVED)[:, 0]
        q0 = u[:, self.nvel]
        ke = self._scratch("ke", q0.shape)
        tmp = self._scratch("ke_tmp", q0.shape)
        np.multiply(u[:, 0], u[:, 0], out=ke)
        for i in range(1, self.nvel):
            np.multiply(u[:, i], u[:, i], out=tmp)
            np.add(ke, tmp, out=ke)
        np.multiply(q0, 0.5, out=d)
        np.multiply(d, ke, out=d)

    @staticmethod
    def save_base(pack) -> None:
        """``U0 ← U`` for the whole pack in one slab copy."""
        data = pack._require_contiguous()
        np.copyto(
            data[:, pack.component_slice(BASE)],
            data[:, pack.component_slice(CONSERVED)],
        )

    def estimate_timestep(self, pack) -> np.ndarray:
        """Per-block ``cfl·dt`` (``inf`` where a block is quiescent, NaN
        where a velocity is NaN).

        The driver reduces this with ``min`` exactly as the per-block loop
        does; each entry reproduces ``BurgersPackage.estimate_timestep``
        bitwise.
        """
        u = self._interior(pack, CONSERVED)
        nb = u.shape[0]
        dt = np.full(nb, np.inf)
        scr = self._scratch("absu", u.shape[:1] + u.shape[2:])
        for a in range(self.ndim):
            np.absolute(u[:, a], out=scr)
            vmax = scr.max(axis=(1, 2, 3))
            safe = np.where(vmax > 0.0, vmax, 1.0)
            cand = pack.dx_array(a) / safe
            cand[vmax <= 0.0] = np.inf
            cand[np.isnan(vmax)] = np.nan
            np.minimum(dt, cand, out=dt)
        return self.pkg.config.cfl * dt

