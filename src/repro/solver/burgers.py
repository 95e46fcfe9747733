"""The Burgers (VIBE) package: per-block physics kernels.

Each method here corresponds to one of the named kernels the paper profiles
(Table III / Figs. 11-12): ``CalculateFluxes``, ``FluxDivergence``,
``CalculateDerived`` (FillDerived), ``EstimateTimestepMesh``, and the
refinement indicator ``FirstDerivative``.  The driver wraps each call in a
Kokkos-style instrumented launch; this module holds the pure NumPy math.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.mesh.block import FieldSpec, MeshBlock
from repro.solver.reconstruction import STENCIL_GHOSTS, face_states
from repro.solver.riemann import RIEMANN_SOLVERS
from repro.solver.state import Metadata, StateDescriptor, VariableRegistry

CONSERVED = "cons"
BASE = "cons_base"
DERIVED = "derived_d"


@dataclass(frozen=True)
class BurgersConfig:
    """Physics configuration of the VIBE benchmark.

    ``num_scalars`` matches the paper's ``num_scalar`` (8 in the Section
    VIII-B memory example); the state has ``ndim`` velocity components plus
    the scalars.
    """

    num_scalars: int = 1
    reconstruction: str = "weno5"
    riemann: str = "hll"
    cfl: float = 0.4
    refine_tol: float = 0.15
    derefine_tol: float = 0.03

    def required_ghosts(self) -> int:
        """Ghost depth the reconstruction stencil needs (4 for WENO5 —
        rounded up to the even depth AMR restriction requires)."""
        ng = STENCIL_GHOSTS[self.reconstruction]
        return ng + (ng % 2)


class BurgersPackage:
    """State registration and per-block kernels for the Burgers system."""

    def __init__(self, ndim: int, config: BurgersConfig = BurgersConfig()) -> None:
        if config.reconstruction not in STENCIL_GHOSTS:
            raise ValueError(
                f"unknown reconstruction {config.reconstruction!r}"
            )
        if config.riemann not in RIEMANN_SOLVERS:
            raise ValueError(f"unknown riemann solver {config.riemann!r}")
        if config.num_scalars < 1:
            raise ValueError("need at least one passive scalar (q0)")
        self.ndim = ndim
        self.config = config
        self.nvel = ndim
        self.ncomp = self.nvel + config.num_scalars
        self._riemann = RIEMANN_SOLVERS[config.riemann]
        self.registry = VariableRegistry(
            [
                StateDescriptor(
                    CONSERVED,
                    self.ncomp,
                    Metadata.INDEPENDENT
                    | Metadata.FILL_GHOST
                    | Metadata.WITH_FLUXES,
                ),
                StateDescriptor(BASE, self.ncomp, Metadata.REQUIRES_RESTART),
                StateDescriptor(DERIVED, 1, Metadata.DERIVED),
            ]
        )

    # ----------------------------------------------------------- plumbing

    def field_specs(self) -> List[FieldSpec]:
        """Cell-centered fields every MeshBlock must carry."""
        return [
            FieldSpec(CONSERVED, self.ncomp),
            FieldSpec(BASE, self.ncomp),
            FieldSpec(DERIVED, 1),
        ]

    def exchange_fields(self) -> List[str]:
        """Fields participating in ghost exchange (string-lookup path)."""
        return [CONSERVED]

    def prepare_block(self, block: MeshBlock) -> None:
        if block.allocated and CONSERVED not in block.fluxes:
            block.allocate_fluxes(CONSERVED)

    # ------------------------------------------------------------- kernels

    def calculate_fluxes(self, block: MeshBlock) -> None:
        """WENO5/PLM reconstruction + Riemann fluxes on every face (kernel
        ``CalculateFluxes`` — the paper's hottest kernel)."""
        self.prepare_block(block)
        u = block.fields[CONSERVED]
        ng = block.shape.ng
        nx = block.shape.nx
        for a in range(self.ndim):
            axis = 3 - a
            # Slice tangential dimensions to the interior; keep the
            # reconstruction axis full so the stencil sees ghosts.
            sl: List[slice] = [slice(None)]
            for arr_axis, dim in ((1, 2), (2, 1), (3, 0)):
                if dim == a or dim >= self.ndim:
                    sl.append(slice(None))
                else:
                    g = block.shape.ghosts(dim)
                    sl.append(slice(g, g + nx[dim]))
            q = u[tuple(sl)]
            ql, qr = face_states(
                q, axis, ng, nx[a], scheme=self.config.reconstruction
            )
            block.fluxes[CONSERVED][a][...] = self._riemann(
                ql, qr, direction=a, nvel=self.nvel
            )

    def flux_divergence(self, block: MeshBlock) -> np.ndarray:
        """``dU/dt = -∇·F`` over the interior (kernel ``FluxDivergence``)."""
        nx = block.shape.nx
        dudt = np.zeros((self.ncomp,) + tuple(
            nx[d] if d < self.ndim else 1 for d in (2, 1, 0)
        ))
        for a in range(self.ndim):
            axis = 3 - a
            flux = block.fluxes[CONSERVED][a]
            lo = [slice(None)] * 4
            hi = [slice(None)] * 4
            lo[axis] = slice(0, nx[a])
            hi[axis] = slice(1, nx[a] + 1)
            dudt -= (flux[tuple(hi)] - flux[tuple(lo)]) / block.dx(a)
        return dudt

    def fill_derived(self, block: MeshBlock) -> None:
        """``d = 1/2 q0 u·u`` (kernel ``CalculateDerived``)."""
        u = block.interior(CONSERVED)
        q0 = u[self.nvel]
        ke = np.zeros_like(q0)
        for i in range(self.nvel):
            ke += u[i] * u[i]
        block.interior(DERIVED)[0] = 0.5 * q0 * ke

    def estimate_timestep(self, block: MeshBlock) -> float:
        """CFL-limited timestep of one block (``EstimateTimestepMesh``);
        NaN when a velocity is NaN, ``inf`` when the block is at rest."""
        u = block.interior(CONSERVED)
        dt = np.inf
        for a in range(self.ndim):
            vmax = float(np.max(np.abs(u[a])))
            if np.isnan(vmax):
                return np.nan
            if vmax > 0.0:
                dt = min(dt, block.dx(a) / vmax)
        return self.config.cfl * dt

    def first_derivative_indicator(self, block: MeshBlock) -> float:
        """Refinement indicator: normalized first derivative of q0
        (kernel ``FirstDerivative`` / ``Refinement::Tag``)."""
        q = block.fields[CONSERVED][self.nvel]
        sl = block.shape.interior_slices()
        interior = q[sl]
        worst = 0.0
        for a in range(self.ndim):
            axis = 2 - a  # q is 3-axis (x3, x2, x1)
            hi = np.roll(q, -1, axis=axis)[sl]
            lo = np.roll(q, 1, axis=axis)[sl]
            denom = np.abs(interior) + 1e-10
            worst = max(worst, float(np.max(np.abs(hi - lo) / (2 * denom))))
        return worst

    # ------------------------------------------------- integrator support

    @staticmethod
    def save_base(block: MeshBlock) -> None:
        """Copy U → U0 at the start of a cycle."""
        block.fields[BASE][...] = block.fields[CONSERVED]

    def weighted_sum(
        self,
        block: MeshBlock,
        dudt: np.ndarray,
        gam0: float,
        gam1: float,
        beta_dt: float,
    ) -> None:
        """``U ← gam0·U + gam1·U0 + beta·dt·(dU/dt)`` over the interior
        (kernels ``WeightedSumData`` / ``UpdateIndependentData``)."""
        u = block.interior(CONSERVED)
        u0 = block.interior(BASE)
        u[...] = gam0 * u + gam1 * u0 + beta_dt * dudt

    # ----------------------------------------------------------- reporting

    def flops_per_cell_flux(self) -> int:
        """Approximate FLOPs/cell of CalculateFluxes, for the cost model."""
        from repro.solver.reconstruction import FLOPS_PER_FACE

        per_face = FLOPS_PER_FACE[self.config.reconstruction] + 20  # + HLL
        return per_face * self.ncomp * self.ndim

