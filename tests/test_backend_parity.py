"""Cross-backend differential harness.

The ``numba`` engine must reproduce the ``numpy`` reference engine on
the packed Burgers path:

* full-driver state parity at ``atol = 1e-13`` — conserved state,
  derived field, face fluxes and history reductions after several
  cycles, on a smooth (Gaussian blob) and a shock (Riemann) deck, in
  both kernel modes (per_block runs never touch the backend, so its
  result must be backend-independent *exactly*);
* flux-stage parity of the numba engine against the reference engine on
  one shared pack, across all four reconstruction x Riemann combinations;
* 0-ULP golden-trace invariance: the canonical trace of a numeric run
  is byte-identical across backends apart from the ``kernel_backend``
  metadata field.

Without numba installed the numba loop bodies run unjitted, so this file
tests the engine's real algebra even on a numpy-only machine; the CI
backend-matrix job repeats it with numba actually installed.
"""

import dataclasses
import json
from functools import lru_cache

import numpy as np
import pytest

from repro.api import RunSpec, Simulation, build_execution_config
from repro.comm.bvals import BoundaryExchange
from repro.comm.mpi import SimMPI
from repro.driver.driver import ParthenonDriver
from repro.driver.params import SimulationParams
from repro.kernels.backends import KNOWN_BACKENDS
from repro.kernels.backends.numba_backend import (
    NUMBA_AVAILABLE,
    NumbaBurgersKernels,
    _flux_sweep_pack,
)
from repro.kernels.backends.numpy_backend import PackedBurgersKernels
from repro.mesh.mesh import Mesh
from repro.observability import to_canonical_json
from repro.solver.burgers import BASE, BurgersPackage, CONSERVED, DERIVED
from repro.solver.initial_conditions import gaussian_blob, shock_tube
from repro.solver.packs import build_numeric_pack
from repro.solver.reconstruction import face_states
from repro.solver.riemann import RIEMANN_SOLVERS

ATOL = 1e-13
NCYCLES = 3

DECKS = {
    "smooth": lambda mesh, pkg: gaussian_blob(
        mesh, pkg, amplitude=0.8, width=0.15
    ),
    "shock": lambda mesh, pkg: shock_tube(mesh, pkg),
}


def effective(backend):
    """The engine a request for ``backend`` runs on this host."""
    return "numba" if backend == "numba" and NUMBA_AVAILABLE else "numpy"


# ------------------------------------------------------------ driver level


@lru_cache(maxsize=None)
def run_driver(kernel_backend, deck, kernel_mode="packed"):
    params = SimulationParams(
        ndim=2, mesh_size=32, block_size=16, num_levels=2, num_scalars=2
    )
    cfg = build_execution_config(
        backend="gpu",
        mode="numeric",
        kernel_mode=kernel_mode,
        kernel_backend=kernel_backend,
    )
    driver = ParthenonDriver(params, cfg, initial_conditions=DECKS[deck])
    driver.run(NCYCLES)
    return driver


def assert_driver_parity(da, db):
    ba = {b.lloc: b for b in da.mesh.block_list}
    bb = {b.lloc: b for b in db.mesh.block_list}
    assert set(ba) == set(bb)  # identical refinement decisions
    for lloc, blk in ba.items():
        other = bb[lloc]
        np.testing.assert_allclose(
            blk.fields[CONSERVED], other.fields[CONSERVED], atol=ATOL, rtol=0
        )
        np.testing.assert_allclose(
            blk.fields[DERIVED], other.fields[DERIVED], atol=ATOL, rtol=0
        )
        for fa, fb in zip(blk.fluxes[CONSERVED], other.fluxes[CONSERVED]):
            if fa is None:
                assert fb is None
                continue
            np.testing.assert_allclose(fa, fb, atol=ATOL, rtol=0)
    assert len(da.history) == len(db.history) == NCYCLES
    for ha, hb in zip(da.history, db.history):
        assert ha.time == pytest.approx(hb.time, abs=ATOL)
        np.testing.assert_allclose(
            ha.scalar_totals, hb.scalar_totals, atol=ATOL, rtol=0
        )
        assert ha.max_speed == pytest.approx(hb.max_speed, abs=ATOL)


@pytest.mark.parametrize("deck", sorted(DECKS))
@pytest.mark.parametrize("backend", KNOWN_BACKENDS)
def test_driver_parity_vs_numpy(backend, deck):
    """Every backend matches the reference run at 1e-13.

    Without numba installed a numba request falls back to numpy, making
    this a (still meaningful) fallback-equivalence check; with numba
    installed (CI backend-matrix) it is the real cross-engine gate.
    """
    db = run_driver(backend, deck)
    da = run_driver("numpy", deck)
    assert db.kernel_backend == effective(backend)
    assert_driver_parity(da, db)


@pytest.mark.parametrize("backend", KNOWN_BACKENDS)
def test_per_block_mode_ignores_backend(backend):
    """kernel_mode=per_block never builds a packed engine, so
    its state must be *bitwise* independent of the requested backend."""
    da = run_driver("numpy", "smooth", kernel_mode="per_block")
    db = run_driver(backend, "smooth", kernel_mode="per_block")
    assert db.kernel_backend == "numpy"
    for blk, other in zip(da.mesh.block_list, db.mesh.block_list):
        np.testing.assert_array_equal(
            blk.fields[CONSERVED], other.fields[CONSERVED]
        )


# ------------------------------------------------------------ engine level


def make_pack(recon="weno5", riemann="hll", deck="smooth", ndim=2):
    params = SimulationParams(
        ndim=ndim,
        mesh_size=16,
        block_size=8,
        num_levels=1,
        num_scalars=2,
        reconstruction=recon,
        riemann=riemann,
    )
    pkg = BurgersPackage(params.ndim, params.burgers_config())
    mesh = Mesh(params.geometry(), pkg.field_specs(), allocate=True)
    DECKS[deck](mesh, pkg)
    BoundaryExchange(mesh, SimMPI(1)).exchange([CONSERVED])
    for blk in mesh.block_list:
        pkg.prepare_block(blk)
    pack = build_numeric_pack(
        mesh, (CONSERVED, BASE, DERIVED), flux_field=CONSERVED
    )
    return pkg, pack


def reference_fluxes(pkg, pack):
    """Flux arrays of the numpy reference engine, copied out.

    Inactive axes (beyond ``ndim``) carry ``None`` and stay ``None``.
    """
    PackedBurgersKernels(pkg).calculate_fluxes(pack)
    return [
        None if f is None else np.array(f)
        for f in pack.flux_data[CONSERVED]
    ]


ENGINES = {
    # Pure-Python numba bodies (or the JIT when numba is installed).
    "numba": lambda pkg: NumbaBurgersKernels(pkg),
}


@pytest.mark.parametrize("riemann", sorted(RIEMANN_SOLVERS))
@pytest.mark.parametrize("recon", ["weno5", "plm"])
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_flux_stage_parity(engine, recon, riemann):
    pkg, pack = make_pack(recon, riemann, deck="shock")
    ref = reference_fluxes(pkg, pack)
    ENGINES[engine](pkg).calculate_fluxes(pack)
    assert_flux_parity(pack, ref)


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_flux_stage_parity_3d(engine):
    pkg, pack = make_pack(ndim=3)
    ref = reference_fluxes(pkg, pack)
    ENGINES[engine](pkg).calculate_fluxes(pack)
    assert_flux_parity(pack, ref)


def assert_flux_parity(pack, ref):
    assert any(f is not None for f in ref)
    for a, expected in enumerate(ref):
        got = pack.flux_data[CONSERVED][a]
        if expected is None:
            assert got is None
            continue
        np.testing.assert_allclose(got, expected, atol=ATOL, rtol=0)


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_non_flux_stages_bitwise(engine):
    """Divergence/update, FillDerived, save-base and the dt reduce are
    inherited/bitwise across engines — zero tolerance."""
    pkg, pack_a = make_pack()
    _, pack_b = make_pack()
    ref = PackedBurgersKernels(pkg)
    alt = ENGINES[engine](pkg)
    for eng, pack in ((ref, pack_a), (alt, pack_b)):
        eng.save_base(pack)
        eng.calculate_fluxes(pack)
        eng.flux_divergence_and_update(pack, 0.0, 1.0, 1e-3)
        eng.fill_derived(pack)
    np.testing.assert_allclose(
        pack_b.field(CONSERVED), pack_a.field(CONSERVED), atol=ATOL, rtol=0
    )
    # FillDerived consumes the (1e-13-close) updated state; save_base and
    # the dt reduce are bitwise on identical inputs.
    np.testing.assert_allclose(
        pack_b.field(DERIVED), pack_a.field(DERIVED), atol=ATOL, rtol=0
    )
    np.testing.assert_array_equal(pack_b.field(BASE), pack_a.field(BASE))
    np.testing.assert_allclose(
        alt.estimate_timestep(pack_b),
        ref.estimate_timestep(pack_a),
        atol=ATOL,
        rtol=0,
    )


def test_flux_sweep_matches_textbook_reference():
    """The numba sweep against the per-block textbook kernels directly
    (independent of the packed engines), both solvers and schemes."""
    rng = np.random.default_rng(7)
    ng, nxa, ncomp, nvel = 4, 6, 4, 2
    w = rng.normal(size=(2, ncomp, 1, 3, nxa + 2 * ng))
    for use_weno in (True, False):
        for use_hll, solver in ((True, "hll"), (False, "llf")):
            fx = np.zeros((2, ncomp, 1, 3, nxa + 1))
            # direction 0: tangential axes carry no ghosts in this fixture
            _flux_sweep_pack(
                w, fx, 0, ng, nxa, 0, 0, 1, 3, nvel, use_weno, use_hll
            )
            scheme = "weno5" if use_weno else "plm"
            for b in range(2):
                for r in range(3):
                    q = w[b, :, 0, r, :]
                    ql, qr = face_states(
                        q[:, None, None, :], 3, ng, nxa, scheme=scheme
                    )
                    expected = RIEMANN_SOLVERS[solver](
                        ql[:, 0, 0], qr[:, 0, 0], direction=0, nvel=nvel
                    )
                    np.testing.assert_allclose(
                        fx[b, :, 0, r], expected, atol=ATOL, rtol=0
                    )


# ----------------------------------------------------- golden invariance


def numeric_canonical(kernel_backend: str) -> str:
    spec = RunSpec(
        params=SimulationParams(
            ndim=2, mesh_size=32, block_size=16, num_levels=2, num_scalars=2
        ),
        config=build_execution_config(
            mode="numeric", kernel_backend=kernel_backend
        ),
        ncycles=2,
        warmup=1,
    )
    sim = Simulation(
        spec, initial_conditions=DECKS["smooth"], trace=True
    )
    sim.run()
    return to_canonical_json(sim.trace())


@pytest.mark.parametrize("backend", KNOWN_BACKENDS)
def test_golden_trace_invariance(backend):
    """Canonical traces are byte-identical across backends apart from the
    backend-identity metadata field (0 ULP on every simulated quantity)."""
    base = numeric_canonical("numpy")
    alt = numeric_canonical(backend)
    doc_base = json.loads(base)
    doc_alt = json.loads(alt)
    assert doc_alt["meta"].pop("kernel_backend") == effective(backend)
    assert doc_base["meta"].pop("kernel_backend") == "numpy"
    canon = lambda d: json.dumps(d, sort_keys=True, indent=2)
    assert canon(doc_alt) == canon(doc_base)


def test_requested_vs_effective_in_artifact():
    """The run artifact records both identities: the requested backend in
    the config section, the effective engine at top level."""
    spec = RunSpec(
        params=SimulationParams(
            ndim=2, mesh_size=16, block_size=8, num_levels=1, num_scalars=1
        ),
        config=build_execution_config(mode="numeric", kernel_backend="numba"),
        ncycles=1,
        warmup=0,
    )
    sim = Simulation(spec, initial_conditions=DECKS["smooth"])
    art = sim.artifact()
    assert art["config"]["kernel_backend"] == "numba"
    assert art["kernel_backend"] == effective("numba")
