"""Host-time spans around the calls the driver makes into each layer.

The spans are recorded from outside the program: :func:`instrumented`
replaces class methods, and the functions that ``repro.driver.driver`` and
``repro.comm.bvals`` bind at import, with timing wrappers, and puts the
originals back on exit.  Nothing under ``src/`` knows about them.

A layer's time is *self* time: a span's duration minus the time its child
spans cover (``BoundaryExchange.rebuild`` minus ``build_neighbor_table``).
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import repro.comm.bvals as bvals_module
import repro.driver.driver as driver_module
from repro.comm.bvals import BoundaryExchange
from repro.comm.flux_correction import FluxCorrection
from repro.hardware.gpu import GPUModel
from repro.kernels.backends.numpy_backend import PackedBurgersKernels
from repro.mesh.mesh import Mesh
from repro.mesh.refinement import RefinementPolicy
from repro.solver.burgers import CONSERVED

Counts = Dict[str, float]


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    #: Index of the enclosing span in :attr:`SpanRecorder.spans`, -1 at top.
    parent: int = -1
    child_ns: int = 0

    @property
    def self_ns(self) -> int:
        return self.end_ns - self.start_ns - self.child_ns


class SpanRecorder:
    """In-memory spans and counts of one traced episode."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counts: Counts = collections.Counter()
        self._stack: List[int] = []

    def call(self, name: str, fn: Callable, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, perf_counter_ns(), parent=parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end_ns = perf_counter_ns()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].child_ns += span.end_ns - span.start_ns

    def self_seconds(self) -> Dict[str, float]:
        out: Dict[str, float] = collections.defaultdict(float)
        for span in self.spans:
            out[span.name] += span.self_ns / 1e9
        return out

    def calls(self) -> Dict[str, int]:
        return collections.Counter(span.name for span in self.spans)


# ------------------------------------------------------------ counters
#
# Each takes (counts, call args, return value) and records the work the
# call did, from its arguments or the stats object it returned.


def _count_fluxes(counts: Counts, args, result) -> None:
    pack = args[1]
    u = pack.field(CONSERVED)
    counts["kernels.calculate_fluxes.cells"] += sum(
        b.interior_cells for b in pack.blocks
    )
    # Computed from array sizes, not measured: the conserved state read
    # plus every face-flux array written.
    counts["kernels.calculate_fluxes.bytes_computed"] += u.nbytes + sum(
        f.nbytes for f in pack.flux_data[CONSERVED] if f is not None
    )


def _count_send(counts: Counts, args, stats) -> None:
    counts["comm.ghost.messages"] += (
        stats.messages_local + stats.messages_remote
    )
    counts["comm.ghost.bytes"] += stats.bytes_communicated
    counts["comm.ghost.restrictions"] += stats.restrictions


def _count_set_bounds(counts: Counts, args, stats) -> None:
    counts["comm.ghost.prolongations"] += stats.prolongations
    counts["comm.ghost.restrictions"] += stats.restrictions


def _count_flux_correction(counts: Counts, args, stats) -> None:
    counts["comm.flux_correction.corrections"] += stats.corrections


def _count_rebuild(counts: Counts, args, stats) -> None:
    counts["comm.rebuild.buffers"] += stats.nbuffers


def _count_remesh(counts: Counts, args, stats) -> None:
    counts["mesh.remesh.blocks_created"] += stats.created
    counts["mesh.remesh.blocks_destroyed"] += stats.destroyed
    counts["mesh.remesh.effective"] += bool(stats.created or stats.destroyed)


def _count_flags(counts: Counts, args, report) -> None:
    counts["mesh.collect_flags.requests"] += (
        report.refine_requests + report.derefine_requests
    )
    counts["mesh.collect_flags.checked"] += report.checked


def _count_balance(counts: Counts, args, plan) -> None:
    counts["mesh.balance.blocks_moved"] += plan.moved_blocks


#: (owner, attribute, span name, counter).  Several attributes may share
#: one span name; ``kernels.pointwise`` covers three cheap kernels.
LAYERS: Sequence[tuple] = (
    (PackedBurgersKernels, "calculate_fluxes",
     "kernels.calculate_fluxes", _count_fluxes),
    (PackedBurgersKernels, "flux_divergence_and_update",
     "kernels.flux_divergence_and_update", None),
    (PackedBurgersKernels, "save_base", "kernels.pointwise", None),
    (PackedBurgersKernels, "fill_derived", "kernels.pointwise", None),
    (PackedBurgersKernels, "estimate_timestep", "kernels.pointwise", None),
    (BoundaryExchange, "send_bound_bufs", "comm.send_bound_bufs", _count_send),
    (BoundaryExchange, "receive_bound_bufs", "comm.receive_bound_bufs", None),
    (BoundaryExchange, "set_bounds", "comm.set_bounds", _count_set_bounds),
    (FluxCorrection, "correct",
     "comm.flux_correction", _count_flux_correction),
    (BoundaryExchange, "rebuild", "comm.rebuild", _count_rebuild),
    (bvals_module, "build_neighbor_table", "comm.build_neighbor_table", None),
    (Mesh, "remesh", "mesh.remesh", _count_remesh),
    (RefinementPolicy, "collect_flags", "mesh.collect_flags", _count_flags),
    (driver_module, "balance", "mesh.balance", _count_balance),
    (driver_module, "build_numeric_pack", "solver.build_numeric_pack", None),
    (driver_module, "reduce_history", "solver.reduce_history", None),
    (GPUModel, "kernel_duration", "hardware.kernel_duration", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in LAYERS))


def _wrap(original, name: str, count: Optional[Callable], rec: SpanRecorder):
    is_static = isinstance(original, staticmethod)
    fn = original.__func__ if is_static else original

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = rec.call(name, fn, args, kwargs)
        if count is not None:
            count(rec.counts, args, result)
        return result

    return staticmethod(traced) if is_static else traced


@contextlib.contextmanager
def instrumented(rec: SpanRecorder) -> Iterator[SpanRecorder]:
    """Route every :data:`LAYERS` call through ``rec`` inside the block."""
    saved = []
    try:
        for owner, attr, name, count in LAYERS:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(original, name, count, rec))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ------------------------------------------------------------- metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: SpanRecorder, cycle_wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced episode's measured cycles."""
    s = {name: 0.0 for name in SPAN_NAMES}
    s.update(rec.self_seconds())
    calls = rec.calls()
    c = rec.counts
    covered = sum(s.values())
    ghost_s = (
        s["comm.send_bound_bufs"]
        + s["comm.receive_bound_bufs"]
        + s["comm.set_bounds"]
    )
    return {
        "kernels.calculate_fluxes.s": s["kernels.calculate_fluxes"],
        "kernels.calculate_fluxes.calls": calls["kernels.calculate_fluxes"],
        "kernels.calculate_fluxes.cells_per_s": _ratio(
            c["kernels.calculate_fluxes.cells"], s["kernels.calculate_fluxes"]
        ),
        "kernels.calculate_fluxes.bytes_computed": c[
            "kernels.calculate_fluxes.bytes_computed"
        ],
        "kernels.flux_divergence_and_update.s": s[
            "kernels.flux_divergence_and_update"
        ],
        "kernels.pointwise.s": s["kernels.pointwise"],
        "comm.send_bound_bufs.s": s["comm.send_bound_bufs"],
        "comm.receive_bound_bufs.s": s["comm.receive_bound_bufs"],
        "comm.set_bounds.s": s["comm.set_bounds"],
        "comm.ghost.messages": c["comm.ghost.messages"],
        "comm.ghost.bytes": c["comm.ghost.bytes"],
        "comm.ghost.prolongations": c["comm.ghost.prolongations"],
        "comm.ghost.restrictions": c["comm.ghost.restrictions"],
        "comm.ghost.bytes_per_s": _ratio(c["comm.ghost.bytes"], ghost_s),
        "comm.flux_correction.s": s["comm.flux_correction"],
        "comm.flux_correction.corrections": c[
            "comm.flux_correction.corrections"
        ],
        "comm.rebuild.s": s["comm.rebuild"],
        "comm.rebuild.calls": calls["comm.rebuild"],
        "comm.rebuild.buffers": c["comm.rebuild.buffers"],
        "comm.build_neighbor_table.s": s["comm.build_neighbor_table"],
        "mesh.remesh.s": s["mesh.remesh"],
        "mesh.remesh.calls": calls["mesh.remesh"],
        "mesh.remesh.blocks_created": c["mesh.remesh.blocks_created"],
        "mesh.remesh.blocks_destroyed": c["mesh.remesh.blocks_destroyed"],
        "mesh.remesh.effective_ratio": _ratio(
            c["mesh.remesh.effective"], calls["mesh.remesh"]
        ),
        "mesh.collect_flags.s": s["mesh.collect_flags"],
        "mesh.collect_flags.flag_ratio": _ratio(
            c["mesh.collect_flags.requests"], c["mesh.collect_flags.checked"]
        ),
        "mesh.balance.s": s["mesh.balance"],
        "mesh.balance.blocks_moved": c["mesh.balance.blocks_moved"],
        "solver.build_numeric_pack.s": s["solver.build_numeric_pack"],
        "solver.build_numeric_pack.calls": calls["solver.build_numeric_pack"],
        "solver.reduce_history.s": s["solver.reduce_history"],
        "driver.self.s": cycle_wall_s - covered,
        "hardware.kernel_duration.s": s["hardware.kernel_duration"],
        "hardware.kernel_duration.calls": calls["hardware.kernel_duration"],
        "trace.span_coverage": _ratio(covered, cycle_wall_s),
    }


# -------------------------------------------------------------- export


def chrome_events(
    rec: SpanRecorder, cycle_marks_ns: Sequence[int], episode: int, t0_ns: int
) -> List[dict]:
    """Chrome/Perfetto complete events: one ``cycle`` span per measured
    cycle, with every top-level layer span parented to its cycle."""
    prefix = f"e{episode}"
    ncycles = len(cycle_marks_ns) - 1
    events = [
        _event(rec, f"cycle {i}", cycle_marks_ns[i], cycle_marks_ns[i + 1],
               t0_ns, f"{prefix}c{i}", None)
        for i in range(ncycles)
    ]
    cycle = 0
    for idx, span in enumerate(rec.spans):
        if span.parent >= 0:
            parent = f"{prefix}s{span.parent}"
        else:
            while (
                cycle < ncycles - 1
                and span.start_ns >= cycle_marks_ns[cycle + 1]
            ):
                cycle += 1
            parent = f"{prefix}c{cycle}"
        events.append(
            _event(rec, span.name, span.start_ns, span.end_ns, t0_ns,
                   f"{prefix}s{idx}", parent)
        )
    return events


def _event(rec, name, start_ns, end_ns, t0_ns, span_id, parent) -> dict:
    return {
        "name": name,
        "ph": "X",
        "ts": (start_ns - t0_ns) / 1e3,
        "dur": (end_ns - start_ns) / 1e3,
        "pid": 1,
        "tid": 1,
        "args": {"run_id": rec.run_id, "span_id": span_id, "parent": parent},
    }


def write_chrome_trace(path: Path, events: List[dict], meta: dict) -> None:
    doc = {"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))
