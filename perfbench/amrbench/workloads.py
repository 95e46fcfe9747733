"""The benchmark's workloads and the inputs each seed generates.

Every workload runs one process, serial (``num_shards=1``), on the numpy
kernel backend.  The seed only jitters the physical inputs; the mesh,
block size, level count and cycle count are fixed per workload, so two
seeds do comparable work.  Why each workload was chosen is recorded in
``BENCHMARK.json`` and ``perfbench/layers.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, Optional

import numpy as np

from repro.api import (
    RunSpec,
    build_execution_config,
    build_simulation_params,
)
from repro.solver.burgers import CONSERVED
from repro.solver.initial_conditions import gaussian_blob

REPO_ROOT = Path(__file__).resolve().parents[2]
VIBE_DECK = REPO_ROOT / "examples" / "vibe_128.in"

SCALES = ("full", "small")

#: Half-widths of the seeded jitter.
CENTRE_JITTER = 0.01
AMPLITUDE_JITTER = 0.05
WAVEFRONT_R0_JITTER = 0.0005

BLAST_WIDTH = 0.1


@dataclass(frozen=True)
class Inputs:
    """What one workload hands the program for one seed."""

    spec: RunSpec
    initial_conditions: Optional[Callable]
    #: The generated parameters and the seed, as recorded in the output.
    record: Dict[str, object]

    @property
    def numeric(self) -> bool:
        return self.spec.config.mode == "numeric"


def _params_record(params) -> Dict[str, object]:
    return {
        name: getattr(params, name)
        for name in (
            "mesh_size",
            "block_size",
            "num_levels",
            "num_scalars",
            "reconstruction",
            "riemann",
        )
    }


def _blast_inputs(
    seed: int,
    mesh_size: int,
    block_size: int,
    num_levels: int,
    ncycles: int,
    corrupt: bool,
) -> Inputs:
    rng = np.random.default_rng(seed)
    centre = tuple(
        float(c) for c in 0.5 + rng.uniform(-CENTRE_JITTER, CENTRE_JITTER, 3)
    )
    amplitude = float(1.0 + rng.uniform(-AMPLITUDE_JITTER, AMPLITUDE_JITTER))
    params = build_simulation_params(
        ndim=3,
        mesh_size=mesh_size,
        block_size=block_size,
        num_levels=num_levels,
        num_scalars=2,
        reconstruction="weno5",
        riemann="hll",
    )
    config = build_execution_config(
        mode="numeric",
        kernel_mode="packed",
        kernel_backend="numpy",
        num_shards=1,
    )

    def initial_conditions(mesh, pkg) -> None:
        gaussian_blob(
            mesh, pkg, amplitude=amplitude, width=BLAST_WIDTH, center=centre
        )
        if corrupt:
            # Self-test hook: one poisoned cell must fail the run's checks.
            mesh.block_list[0].interior(CONSERVED)[pkg.nvel, 0, 0, 0] = np.nan

    record = {
        "seed": seed,
        **_params_record(params),
        "ncycles": ncycles,
        "blast_centre": list(centre),
        "blast_amplitude": amplitude,
        "blast_width": BLAST_WIDTH,
        "corrupt_initial_condition": corrupt,
    }
    spec = RunSpec(params=params, config=config, ncycles=ncycles, warmup=0)
    return Inputs(spec, initial_conditions, record)


def _blast(full, small) -> Callable[..., Inputs]:
    """Input builder for a blast workload; ``full``/``small`` are
    ``(mesh_size, block_size, num_levels)``."""

    def build(seed: int, scale: str, ncycles: int, corrupt: bool) -> Inputs:
        mesh_size, block_size, num_levels = full if scale == "full" else small
        return _blast_inputs(
            seed, mesh_size, block_size, num_levels, ncycles, corrupt
        )

    return build


def _vibe_inputs(seed: int, scale: str, ncycles: int, corrupt: bool) -> Inputs:
    if corrupt:
        raise ValueError("a modeled workload has no field data to corrupt")
    rng = np.random.default_rng(seed)
    spec = RunSpec.from_file(VIBE_DECK, ncycles=ncycles, warmup=0)
    r0 = float(
        spec.params.wavefront_r0
        + rng.uniform(-WAVEFRONT_R0_JITTER, WAVEFRONT_R0_JITTER)
    )
    params = replace(spec.params, wavefront_r0=r0)
    if scale == "small":
        params = replace(params, mesh_size=32, block_size=8, num_levels=2)
    spec = spec.replace(params=params)
    record = {
        "seed": seed,
        "deck": "examples/vibe_128.in",
        **_params_record(params),
        "ncycles": ncycles,
        "wavefront_r0": r0,
        "total_ranks": spec.config.total_ranks,
    }
    return Inputs(spec, None, record)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Measured cycles per episode at each scale.
    cycles: Dict[str, int]
    build: Callable[[int, str, int, bool], Inputs]

    def inputs(
        self, seed: int, scale: str = "full", corrupt: bool = False
    ) -> Inputs:
        """The seed's inputs; ``corrupt`` poisons the initial condition."""
        if scale not in SCALES:
            raise ValueError(
                f"unknown scale {scale!r}; expected one of {SCALES}"
            )
        return self.build(seed, scale, self.cycles[scale], corrupt)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "blast3d-amr",
            {"full": 6, "small": 2},
            _blast(full=(32, 8, 3), small=(16, 8, 2)),
        ),
        Workload(
            "uniform3d-b16",
            {"full": 6, "small": 2},
            _blast(full=(48, 16, 1), small=(16, 8, 1)),
        ),
        Workload(
            "modeled-vibe128",
            {"full": 5, "small": 2},
            _vibe_inputs,
        ),
    )
}
