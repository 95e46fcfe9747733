"""Kernel-backend selection: the engine factory and the config layer.

Contracts:

* :func:`build_kernels` is deterministic — the same name always builds
  the same engine type and reports the same effective name;
* names outside :data:`KNOWN_BACKENDS` (``cupy`` included) are rejected
  as :class:`ConfigError` by every way a run is configured — builder,
  deck, JSON spec, CLI flag — naming the valid choices;
* falling back from numba to numpy never changes the simulated
  ``RunResult`` bytes (only the requested-backend field in the config
  differs), and the fallback warning fires exactly once per process.

Plus the config-threading contracts: ExecutionConfig validation, deck
round-trips that keep old decks byte-identical, cache-key sensitivity
and the requested/effective split in run artifacts.
"""

import dataclasses
import pickle
import warnings
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import ConfigError, RunSpec, build_execution_config
from repro.cli import main
from repro.driver.driver import ParthenonDriver
from repro.driver.execution import ExecutionConfig
from repro.driver.input import params_from_input, render_input
from repro.driver.params import SimulationParams
from repro.kernels.backends import (
    BackendUnavailableWarning,
    KNOWN_BACKENDS,
    build_kernels,
)
from repro.kernels.backends.numba_backend import (
    NUMBA_AVAILABLE,
    NumbaBurgersKernels,
)
from repro.kernels.backends.numpy_backend import PackedBurgersKernels
from repro.solver.burgers import BurgersPackage
from repro.solver.initial_conditions import gaussian_blob

VALID = "numpy, numba"


def effective(name):
    """The engine a request for ``name`` runs on this host."""
    return "numba" if name == "numba" and NUMBA_AVAILABLE else "numpy"


def make_pkg():
    params = SimulationParams(ndim=2, mesh_size=16, block_size=8)
    return BurgersPackage(params.ndim, params.burgers_config())


# -------------------------------------------------------------- factory


def test_known_backends_all_registered():
    """Exactly numpy and numba are valid, and each builds an engine."""
    assert KNOWN_BACKENDS == ("numpy", "numba")
    pkg = make_pkg()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BackendUnavailableWarning)
        for name in KNOWN_BACKENDS:
            engine, built = build_kernels(name, pkg)
            assert built == effective(name)
            assert isinstance(engine, PackedBurgersKernels)
            assert engine.pkg is pkg


@given(name=st.sampled_from(KNOWN_BACKENDS))
def test_selection_is_deterministic(name):
    """Same name -> same engine type and effective name, every call."""
    pkg = make_pkg()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BackendUnavailableWarning)
        a, name_a = build_kernels(name, pkg)
        b, name_b = build_kernels(name, pkg)
    assert name_a == name_b == effective(name)
    assert a is not b  # one engine (and its scratch) per driver
    engines = {"numpy": PackedBurgersKernels, "numba": NumbaBurgersKernels}
    assert type(a) is type(b) is engines[effective(name)]


@given(
    name=st.text(min_size=0, max_size=24).filter(
        lambda s: s not in KNOWN_BACKENDS
    )
)
def test_unknown_names_raise_with_choices(name):
    with pytest.raises(ConfigError) as err:
        build_execution_config(kernel_backend=name)
    assert VALID in str(err.value)


@pytest.mark.parametrize(
    "typo, suggestion", [("numpa", "numpy"), ("nmba", "numba")]
)
def test_did_you_mean_suggestion(typo, suggestion):
    with pytest.raises(ConfigError, match=f"did you mean '{suggestion}'"):
        build_execution_config(kernel_backend=typo)


def test_unknown_backend_error_is_value_error():
    """Callers that guard on ValueError keep working."""
    with pytest.raises(ValueError):
        build_execution_config(kernel_backend="fortran")


# ------------------------------------------------------- cupy is gone


def test_builder_rejects_cupy():
    with pytest.raises(ConfigError, match=VALID):
        build_execution_config(kernel_backend="cupy")


def test_deck_rejects_cupy():
    deck = render_input(
        SimulationParams(), ExecutionConfig(kernel_backend="numba")
    ).replace("kernel_backend = numba", "kernel_backend = cupy")
    assert "kernel_backend = cupy" in deck
    with pytest.raises(ConfigError, match=VALID):
        params_from_input(deck)
    with pytest.raises(ConfigError, match=VALID):
        RunSpec.from_deck(deck)


def test_json_spec_rejects_cupy():
    doc = RunSpec(config=build_execution_config(mode="numeric")).to_json()
    doc["config"]["kernel_backend"] = "cupy"
    with pytest.raises(ConfigError, match=VALID):
        RunSpec.from_json(doc)


def test_cli_flag_rejects_cupy(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["characterize", "--mode", "numeric", "--kernel-backend", "cupy"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "cupy" in err
    assert "numpy" in err and "numba" in err


# ------------------------------------------------------- warning policy


@pytest.fixture
def fresh_warning_state(monkeypatch):
    from repro.kernels import backends

    monkeypatch.setattr(backends, "_warned", False)


def test_unavailable_warning_fires_exactly_once(
    fresh_warning_state, monkeypatch
):
    if NUMBA_AVAILABLE:  # full-dependency environment
        pytest.skip("numba is importable here")
    from repro.kernels import backends

    pkg = make_pkg()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(3):  # later builds must stay silent
            assert build_kernels("numba", pkg)[1] == "numpy"
    ours = [w for w in caught if w.category is BackendUnavailableWarning]
    assert len(ours) == 1
    assert "numba" in str(ours[0].message)
    # The once-per-process state re-arms only with a fresh process.
    monkeypatch.setattr(backends, "_warned", False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build_kernels("numba", pkg)
    assert sum(
        w.category is BackendUnavailableWarning for w in caught
    ) == 1


def test_available_backend_resolves_silently(fresh_warning_state):
    with warnings.catch_warnings():
        warnings.simplefilter("error", BackendUnavailableWarning)
        engine, name = build_kernels("numpy", make_pkg())
    assert name == "numpy"
    assert type(engine) is PackedBurgersKernels


# ------------------------------------------------- fallback result bytes


@lru_cache(maxsize=None)
def fallback_result(kernel_backend):
    params = SimulationParams(
        ndim=2, mesh_size=16, block_size=8, num_levels=2, num_scalars=2
    )
    cfg = ExecutionConfig(
        backend="gpu",
        num_gpus=1,
        ranks_per_gpu=1,
        mode="numeric",
        kernel_mode="packed",
        kernel_backend=kernel_backend,
    )
    driver = ParthenonDriver(
        params,
        cfg,
        initial_conditions=lambda mesh_, pkg: gaussian_blob(
            mesh_, pkg, amplitude=0.8, width=0.15
        ),
    )
    return driver.run(2)


def test_fallback_never_changes_run_result_bytes():
    """Requesting numba without numba installed falls back to numpy and
    yields a RunResult that is byte-identical to the numpy run, apart
    from the *requested* backend recorded in the config."""
    if NUMBA_AVAILABLE:
        pytest.skip("numba is importable here")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BackendUnavailableWarning)
        res_fb = fallback_result("numba")
    res_np = fallback_result("numpy")
    assert res_fb.kernel_backend == "numpy"  # effective engine
    assert res_fb.config.kernel_backend == "numba"  # the request
    normalized = dataclasses.replace(
        res_fb, config=dataclasses.replace(res_fb.config, kernel_backend="numpy")
    )
    assert pickle.dumps(normalized) == pickle.dumps(res_np)


# --------------------------------------------------- config validation


def test_execution_config_rejects_unknown_backend():
    with pytest.raises(ValueError, match="kernel_backend"):
        ExecutionConfig(kernel_backend="fortran")


def test_builder_rejects_with_suggestion():
    with pytest.raises(ConfigError, match="numpy"):
        build_execution_config(kernel_backend="numpa")


@given(name=st.sampled_from(KNOWN_BACKENDS))
def test_builder_accepts_every_known_backend(name):
    cfg = build_execution_config(kernel_backend=name)
    assert cfg.kernel_backend == name


# ------------------------------------------------------ deck round-trip


@settings(max_examples=30)
@given(
    name=st.sampled_from(KNOWN_BACKENDS),
    kernel_mode=st.sampled_from(["packed", "per_block"]),
)
def test_deck_round_trip_preserves_backend(name, kernel_mode):
    cfg = ExecutionConfig(kernel_backend=name, kernel_mode=kernel_mode)
    _, parsed = params_from_input(render_input(SimulationParams(), cfg))
    assert parsed.kernel_backend == name
    assert parsed.kernel_mode == kernel_mode


def test_default_backend_not_rendered():
    """Decks only mention kernel_backend when it differs from the default,
    so every pre-existing deck renders byte-identically."""
    deck = render_input(SimulationParams(), ExecutionConfig())
    assert "kernel_backend" not in deck
    deck = render_input(
        SimulationParams(), ExecutionConfig(kernel_backend="numba")
    )
    assert "kernel_backend = numba" in deck


def test_old_decks_default_to_numpy():
    deck = render_input(SimulationParams(), ExecutionConfig())
    _, parsed = params_from_input(deck)
    assert parsed.kernel_backend == "numpy"


# ------------------------------------------------- identity propagation


def test_cache_key_differs_by_backend():
    base = RunSpec(config=build_execution_config(mode="numeric"))
    alt = RunSpec(
        config=build_execution_config(mode="numeric", kernel_backend="numba")
    )
    assert base.cache_key() != alt.cache_key()


def test_modeled_runs_never_resolve_backends(fresh_warning_state):
    """Modeled (cost-model) runs have no numeric kernels: requesting numba
    is recorded but never resolved — no warning, effective numpy."""
    cfg = ExecutionConfig(mode="modeled", kernel_backend="numba")
    with warnings.catch_warnings():
        warnings.simplefilter("error", BackendUnavailableWarning)
        driver = ParthenonDriver(SimulationParams(), cfg)
        driver.run(2)
    assert driver.kernel_backend == "numpy"
    assert driver._packed is None
