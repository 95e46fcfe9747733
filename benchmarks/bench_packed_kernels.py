"""Packed vs per-block numeric kernel execution (the Fig. 1c mechanism),
swept across the installed kernel backends.

The paper attributes the GPU's collapse at small MeshBlock sizes to per-block
kernel-launch overhead, which Parthenon's MeshBlockPack amortizes by sweeping
every block from one dispatch (Section II-C).  The numeric mode reproduces
that mechanism in Python: per-block kernels pay interpreter and NumPy
dispatch overhead once per block, the packed engine once per pack.  This
benchmark measures the real wall-clock effect on the CalculateFluxes stage
(reconstruction + Riemann — the paper's hottest kernel) across the Fig. 5
block-size sweep, verifies every engine agrees numerically, and emits the
machine-readable ``BENCH_kernels.json`` perf-trajectory file at the repo
root: one entry per (engine, block size) with the flux-stage time, the
speedup against the packed numpy reference, and the cell throughput.

When numba is not installed the JSON records it as
``"unmeasured (not installed)"`` and does not time it (the unjitted
numba loops would measure the Python interpreter, not the engine).

Acceptance: >= 2x packed-vs-per-block speedup at block size 16^3 at paper
scale, and — when numba is importable — >= 6x numba-vs-packed-numpy
flux-stage speedup at block size 32^3.
"""

from __future__ import annotations

import json
import os
import platform
import time

import numpy as np

from conftest import bench_json_path, bench_scale, run_once

from repro.comm.bvals import BoundaryExchange
from repro.comm.mpi import SimMPI
from repro.core.report import render_table
from repro.driver.params import SimulationParams
from repro.kernels.backends import build_kernels
from repro.kernels.backends.numba_backend import NUMBA_AVAILABLE
from repro.mesh.mesh import Mesh
from repro.solver.burgers import BASE, BurgersPackage, CONSERVED, DERIVED
from repro.solver.initial_conditions import gaussian_blob
from repro.solver.packs import build_numeric_pack

SCALE = bench_scale()
MESH = 32
BLOCK_SIZES = (8, 16, 32)
REPS = 3 if SCALE["quick"] else 9
#: Required flux-stage speedup at block 16 (relaxed at quick scale, where the
#: tiny rep count makes timings noisy).
MIN_SPEEDUP_B16 = 1.2 if SCALE["quick"] else 2.0
#: Required numba-over-numpy flux-stage speedup at block 32 (single-block
#: pack: pure kernel arithmetic, no pack-traversal overhead in either path).
#: Tightened from 5.0 when the sweep went direct-strided — dropping the
#: moveaxis staging copies removed the stage's remaining memcpy traffic.
MIN_NUMBA_SPEEDUP_B32 = 6.0

BENCH_JSON = bench_json_path("kernels")

#: The backends this host can time.
MEASURED = ("numpy", "numba") if NUMBA_AVAILABLE else ("numpy",)


def _setup(block_size: int):
    """A ghost-filled single-level mesh with the seed example's blob ICs."""
    params = SimulationParams(
        ndim=3,
        mesh_size=MESH,
        block_size=block_size,
        num_levels=1,
        num_scalars=8,
    )
    pkg = BurgersPackage(params.ndim, params.burgers_config())
    mesh = Mesh(params.geometry(), pkg.field_specs(), allocate=True)
    gaussian_blob(mesh, pkg, amplitude=0.8, width=0.15)
    bx = BoundaryExchange(mesh, SimMPI(1))
    bx.exchange([CONSERVED])
    return mesh, pkg


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _measure(block_size: int):
    """Flux-stage times for one block size.

    Returns ``(times, worst)``: ``times`` maps ``per_block`` and every
    measured backend name to its best-of-REPS flux-stage seconds;
    ``worst`` is the worst per-engine flux deviation from the per-block
    reference.
    """
    mesh, pkg = _setup(block_size)

    def per_block():
        for blk in mesh.block_list:
            pkg.calculate_fluxes(blk)

    per_block()  # warm caches and per-block flux allocations
    reference = [
        [np.array(f) for f in blk.fluxes[CONSERVED] if f is not None]
        for blk in mesh.block_list
    ]

    pack = build_numeric_pack(
        mesh, (CONSERVED, BASE, DERIVED), flux_field=CONSERVED
    )
    engines = {name: build_kernels(name, pkg)[0] for name in MEASURED}

    def packed(engine):
        return lambda: engine.calculate_fluxes(pack)

    worst = 0.0
    runners = {"per_block": per_block}
    runners.update({name: packed(eng) for name, eng in engines.items()})
    times = {}
    for name, fn in runners.items():
        fn()  # warm scratch allocations (and the numba JIT compile)
        times[name] = _timed(fn)
        if name != "per_block":
            # Block flux views alias the pack flux storage the engine
            # just wrote, so the per-block reference checks every engine.
            for b, blk in enumerate(mesh.block_list):
                for ref, got in zip(reference[b], blk.fluxes[CONSERVED]):
                    worst = max(worst, float(np.max(np.abs(ref - got))))
    # Interleave the remaining reps so clock drift and background noise hit
    # every path symmetrically; keep the per-path minimum.
    for _ in range(REPS - 1):
        for name, fn in runners.items():
            times[name] = min(times[name], _timed(fn))
    return times, worst


def _write_bench_json(entries: list) -> None:
    doc = {
        "schema": "repro.bench_kernels",
        "schema_version": 1,
        "scale": "quick" if SCALE["quick"] else "paper",
        "mesh": MESH,
        "ndim": 3,
        "reps": REPS,
        "timing": "min over reps of one CalculateFluxes sweep (seconds)",
        "host": (
            f"{platform.machine()}, {os.cpu_count()} cpus, "
            f"{platform.python_implementation()} {platform.python_version()}, "
            f"numpy {np.__version__}"
        ),
        "backends": {
            "numpy": True,
            "numba": NUMBA_AVAILABLE or "unmeasured (not installed)",
        },
        "entries": entries,
    }
    BENCH_JSON.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def test_packed_flux_speedup(benchmark, save_report):
    def run():
        rows = []
        entries = []
        speedups = {}  # packed numpy over per_block, per block size
        numba_speedups = {}  # numba over packed numpy, per block size
        for block in BLOCK_SIZES:
            times, dev = _measure(block)
            assert dev < 1e-12, (
                f"packed fluxes diverge from per-block at block {block}: {dev}"
            )
            nblocks = (MESH // block) ** 3
            cells = MESH**3  # interior zones swept per flux call
            t_ref = times["numpy"]
            speedups[block] = times["per_block"] / t_ref
            if "numba" in times:
                numba_speedups[block] = t_ref / times["numba"]
            for name, seconds in times.items():
                entries.append(
                    {
                        "engine": name,
                        "kernel_mode": (
                            "per_block" if name == "per_block" else "packed"
                        ),
                        "block_size": block,
                        "nblocks": nblocks,
                        "seconds": seconds,
                        "speedup_vs_packed_numpy": t_ref / seconds,
                        "cells_per_s": cells / seconds,
                        "max_flux_deviation": dev,
                    }
                )
                rows.append(
                    [
                        block,
                        name,
                        f"{seconds * 1e3:.2f}",
                        f"{t_ref / seconds:.2f}x",
                        f"{cells / seconds:.3e}",
                    ]
                )
        _write_bench_json(entries)
        assert speedups[16] >= MIN_SPEEDUP_B16, (
            f"packed CalculateFluxes speedup at 16^3 is {speedups[16]:.2f}x, "
            f"need >= {MIN_SPEEDUP_B16}x"
        )
        if NUMBA_AVAILABLE and not SCALE["quick"]:
            assert numba_speedups[32] >= MIN_NUMBA_SPEEDUP_B32, (
                f"numba flux-stage speedup at 32^3 is "
                f"{numba_speedups[32]:.2f}x over packed numpy, "
                f"need >= {MIN_NUMBA_SPEEDUP_B32}x"
            )
        return render_table(
            ["block", "engine", "flux_ms", "vs_packed_numpy", "cells_per_s"],
            rows,
            title=(
                f"CalculateFluxes by engine (mesh {MESH}^3, numeric, min of "
                f"{REPS} reps; launch amortization per Section II-C; "
                f"JSON trajectory at {BENCH_JSON.name})"
            ),
        )

    save_report("packed_kernels", run_once(benchmark, run))
