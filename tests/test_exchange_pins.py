"""Bitwise pins of the numeric ghost exchange and of small numeric runs.

Each exchange case builds a mesh with random interior data, walks it
through a seeded sequence of refine/derefine remeshes (rebuilding and
exchanging after each), and pins, after the last exchange:

* the sha256 of every field array of every block, ghost zones included;
* the exchange's :class:`ExchangeStats`;
* the cycle's MPI counters, the inter-node totals and the registered
  buffer bytes per rank;
* the ``ghost_message_bytes`` histogram over every exchange of the case.

The run cases pin the integer fields of :class:`RunResult`, the history
rows, the metrics and the full conserved state of short numeric blast
runs in both kernel modes.

Regenerate deliberately with::

    PYTHONPATH=src python -m pytest tests/test_exchange_pins.py --update-goldens
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.comm.bvals import BoundaryExchange
from repro.comm.mpi import SimMPI
from repro.driver.driver import ParthenonDriver
from repro.driver.execution import ExecutionConfig
from repro.driver.params import SimulationParams
from repro.mesh.block import FieldSpec
from repro.mesh.loadbalance import balance
from repro.mesh.mesh import Mesh, MeshGeometry
from repro.observability.metrics import MetricsRegistry
from repro.solver.burgers import CONSERVED
from repro.solver.initial_conditions import gaussian_blob

GOLDEN = Path(__file__).resolve().parent / "golden" / "exchange_pins.json"

FIELDS = [FieldSpec("u", 3), FieldSpec("v", 1), FieldSpec("w", 2)]
EXCHANGED = ["u", "v"]  # "w" is never exchanged: its ghosts must stay put

#: name -> (ndim, ng, num_levels, periodic, ranks, remeshes)
EXCHANGE_CASES = {
    "1d-ng2-uniform-periodic-r1": (1, 2, 1, True, 1, 0),
    "1d-ng4-3level-outflow-r4": (1, 4, 3, False, 4, 3),
    "2d-ng2-uniform-outflow-r4": (2, 2, 1, False, 4, 0),
    "2d-ng2-2level-periodic-r4": (2, 2, 2, True, 4, 2),
    "2d-ng4-3level-outflow-r1": (2, 4, 3, False, 1, 3),
    "3d-ng2-uniform-periodic-r1": (3, 2, 1, True, 1, 0),
    "3d-ng2-2level-outflow-r4": (3, 2, 2, False, 4, 2),
    "3d-ng4-3level-periodic-r4": (3, 4, 3, True, 4, 3),
}

MESH_CELLS = {1: 64, 2: 32, 3: 16}

#: name -> (ndim, num_levels, reconstruction, kernel_mode, ranks)
RUN_CASES = {
    "2d-plm-3level-packed-r1": (2, 3, "plm", "packed", 1),
    "2d-plm-3level-per_block-r1": (2, 3, "plm", "per_block", 1),
    "3d-weno5-2level-packed-r4": (3, 2, "weno5", "packed", 4),
    "3d-weno5-2level-per_block-r4": (3, 2, "weno5", "per_block", 4),
}


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _json_digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _remesh_flags(mesh, rng):
    """Random refinement of ~1/4 of the leaves below the top level, and
    derefinement requests for every child of ~1/3 of the parents."""
    leaves = mesh.tree.leaves_sorted()
    refine = [
        loc for loc in leaves
        if loc.level < mesh.tree.max_level and rng.random() < 0.25
    ]
    parents = sorted({loc.parent() for loc in leaves if loc.level > 0})
    derefine = []
    for parent in parents:
        if rng.random() < 0.33:
            derefine.extend(parent.children(mesh.ndim))
    return refine, derefine


def exchange_outcome(ndim, ng, levels, periodic, nranks, remeshes):
    n = MESH_CELLS[ndim]
    geo = MeshGeometry(
        ndim=ndim,
        mesh_size=tuple(n if a < ndim else 1 for a in range(3)),
        block_size=tuple(8 if a < ndim else 1 for a in range(3)),
        ng=ng,
        num_levels=levels,
        periodic=(periodic,) * 3,
    )
    mesh = Mesh(geo, field_specs=FIELDS, allocate=True)
    rng = np.random.default_rng(1234 + 10 * ndim + ng + levels)
    if levels > 1:
        # Start from a refined mesh so the first exchange already has
        # every level delta.
        first = mesh.tree.leaves_sorted()
        mesh.remesh(refine=first[: max(1, len(first) // 2)], derefine=[])
        if levels > 2:
            second = [
                loc for loc in mesh.tree.leaves_sorted() if loc.level == 1
            ]
            mesh.remesh(refine=second[::3], derefine=[])
    for blk in mesh.block_list:
        for spec in FIELDS:
            interior = blk.interior(spec.name)
            interior[...] = rng.normal(size=interior.shape)
    mpi = SimMPI(nranks)
    metrics = MetricsRegistry()
    balance(mesh, nranks)
    bx = BoundaryExchange(mesh, mpi, metrics=metrics)
    bx.exchange(EXCHANGED)
    for _ in range(remeshes):
        mesh.remesh(*_remesh_flags(mesh, rng))
        balance(mesh, nranks)
        bx.rebuild()
        mpi.end_cycle()
        bx.exchange(EXCHANGED)
    stats = bx.exchange(EXCHANGED)
    mesh.tree.check_valid()
    return {
        "blocks": mesh.num_blocks,
        "levels": {str(k): v for k, v in sorted(mesh.level_counts().items())},
        "fields_sha256": _digest(
            blk.fields[spec.name]
            for blk in mesh.block_list
            for spec in FIELDS
        ),
        "stats": dataclasses.asdict(stats),
        "mpi_cycle": dataclasses.asdict(mpi.cycle),
        "internode": [mpi.internode_messages, mpi.internode_bytes],
        "registered_bytes": [
            mpi.registered_buffer_bytes(r) for r in range(nranks)
        ],
        "ghost_message_bytes": metrics.histograms[
            "ghost_message_bytes"
        ].to_dict(),
    }


def run_outcome(ndim, levels, recon, kernel_mode, nranks):
    params = SimulationParams(
        ndim=ndim,
        mesh_size=32,
        block_size=8,
        num_levels=levels,
        num_scalars=2,
        reconstruction=recon,
    )
    config = ExecutionConfig(
        backend="cpu", cpu_ranks=nranks, mode="numeric",
        kernel_mode=kernel_mode,
    )
    driver = ParthenonDriver(
        params,
        config,
        initial_conditions=lambda mesh, pkg: gaussian_blob(
            mesh, pkg, amplitude=0.9, width=0.12, center=(0.45, 0.55, 0.5)
        ),
    )
    result = driver.run(3, warmup=1)
    return {
        "ints": {
            f.name: getattr(result, f.name)
            for f in dataclasses.fields(result)
            if type(getattr(result, f.name)) is int
        },
        "mpi_counters": result.mpi_counters,
        "levels": {
            str(k): v for k, v in sorted(driver.mesh.level_counts().items())
        },
        "history": [dataclasses.astuple(row) for row in result.history],
        "metrics_sha256": _json_digest(result.metrics),
        "state_sha256": _digest(
            blk.fields[CONSERVED] for blk in driver.mesh.block_list
        ),
    }


def _golden():
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def _check(section, name, outcome, update_goldens):
    # Round-trip through JSON so tuples compare like the stored lists.
    outcome = json.loads(json.dumps(outcome))
    if update_goldens:
        doc = _golden()
        doc.setdefault(section, {})[name] = outcome
        GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        return
    assert outcome == _golden()[section][name]


@pytest.mark.parametrize("name", sorted(EXCHANGE_CASES))
def test_exchange_matches_pin(name, update_goldens):
    outcome = exchange_outcome(*EXCHANGE_CASES[name])
    _check("exchange", name, outcome, update_goldens)


@pytest.mark.parametrize("name", sorted(RUN_CASES))
def test_numeric_run_matches_pin(name, update_goldens):
    outcome = run_outcome(*RUN_CASES[name])
    _check("run", name, outcome, update_goldens)
