"""The repro.api surface: RunSpec identity, Simulation facade, builders."""

import pickle

import pytest

from repro.api import (
    ConfigError,
    ProgressEvent,
    RunSpec,
    Simulation,
    build_execution_config,
    build_optimization_flags,
    build_simulation_params,
    iter_progress,
    run,
)
from repro.driver.execution import ExecutionConfig, OptimizationFlags
from repro.driver.params import SimulationParams


def small_spec(**overrides) -> RunSpec:
    fields = dict(
        params=SimulationParams(
            ndim=2, mesh_size=32, block_size=8, num_levels=2, num_scalars=1
        ),
        config=ExecutionConfig(backend="gpu", num_gpus=1, ranks_per_gpu=1),
        ncycles=2,
        warmup=1,
        label="small",
    )
    fields.update(overrides)
    return RunSpec(**fields)


class TestRunSpecRoundTrips:
    def test_pickle_round_trip(self):
        """Worker pools ship RunSpecs between processes."""
        spec = small_spec()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.cache_key() == spec.cache_key()

    def test_deck_round_trip(self):
        spec = small_spec()
        clone = RunSpec.from_deck(spec.to_deck())
        assert clone.params == spec.params
        assert clone.config == spec.config
        assert (clone.ncycles, clone.warmup) == (2, 1)
        assert clone.label == "small"
        assert clone.cache_key() == spec.cache_key()

    def test_deck_round_trip_cpu(self):
        spec = small_spec(
            config=ExecutionConfig(backend="cpu", cpu_ranks=4), label=""
        )
        clone = RunSpec.from_deck(spec.to_deck())
        assert clone.config == spec.config
        assert clone.cache_key() == spec.cache_key()

    def test_deck_num_shards_is_an_unknown_key(self):
        """Decks rendered for sharded runs carry ``num_shards = N``; the
        deck reader ignores it like any key outside the option table."""
        deck = small_spec().to_deck()
        for extra in ("num_shards = 2", "no_such_key = 2"):
            stored = deck.replace("<platform>", f"<platform>\n{extra}")
            assert RunSpec.from_deck(stored).cache_key() == small_spec().cache_key()

    def test_from_file(self, tmp_path):
        path = tmp_path / "spec.vibe"
        path.write_text(small_spec().to_deck())
        assert RunSpec.from_file(path) == small_spec()

    def test_explicit_overrides_beat_deck(self):
        clone = RunSpec.from_deck(small_spec().to_deck(), ncycles=7, warmup=0)
        assert (clone.ncycles, clone.warmup) == (7, 0)

    def test_invalid_cycles_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(ncycles=0)
        with pytest.raises(ConfigError):
            small_spec(warmup=-1)


class TestCacheKey:
    def test_stable_across_instances(self):
        assert small_spec().cache_key() == small_spec().cache_key()

    @pytest.mark.parametrize(
        "change",
        [
            {"ncycles": 3},
            {"warmup": 0},
            {"params": SimulationParams(
                ndim=2, mesh_size=64, block_size=8, num_levels=2, num_scalars=1
            )},
            {"params": SimulationParams(
                ndim=2, mesh_size=32, block_size=16, num_levels=2, num_scalars=1
            )},
            {"params": SimulationParams(
                ndim=2, mesh_size=32, block_size=8, num_levels=3, num_scalars=1
            )},
            {"config": ExecutionConfig(backend="cpu", cpu_ranks=4)},
            {"config": ExecutionConfig(ranks_per_gpu=2)},
            {"config": ExecutionConfig(kernel_mode="per_block")},
            {"config": ExecutionConfig(
                optimizations=OptimizationFlags(pooled_block_allocation=True)
            )},
        ],
        ids=[
            "ncycles", "warmup", "mesh", "block", "levels",
            "backend", "ranks", "kernel_mode", "optimizations",
        ],
    )
    def test_any_field_change_changes_key(self, change):
        assert small_spec(**change).cache_key() != small_spec().cache_key()

    def test_label_is_identity_neutral(self):
        """Relabeling must not invalidate cached artifacts."""
        assert (
            small_spec(label="renamed").cache_key() == small_spec().cache_key()
        )


class TestBuilders:
    def test_happy_path_matches_direct_construction(self):
        built = build_execution_config(
            backend="cpu", cpu_ranks=8, kernel_mode="per_block"
        )
        assert built == ExecutionConfig(
            backend="cpu", cpu_ranks=8, kernel_mode="per_block"
        )

    def test_kernel_mode_typo_lists_choices(self):
        with pytest.raises(ConfigError, match="packed, per_block"):
            build_execution_config(kernel_mode="paked")
        with pytest.raises(ConfigError, match="did you mean 'packed'"):
            build_execution_config(kernel_mode="paked")

    def test_unknown_option_suggests_fix(self):
        with pytest.raises(ConfigError, match="did you mean 'kernel_mode'"):
            build_execution_config(kernal_mode="packed")

    def test_mode_and_backend_typos(self):
        with pytest.raises(ConfigError, match="modeled, numeric"):
            build_execution_config(mode="modelled")
        with pytest.raises(ConfigError, match="gpu, cpu"):
            build_execution_config(backend="gpus")

    def test_range_errors_still_config_errors(self):
        with pytest.raises(ConfigError):
            build_execution_config(backend="cpu", cpu_ranks=0)

    @pytest.mark.parametrize(
        "options,message",
        [
            ({"mesh_size": 20, "block_size": 8}, "not a multiple of block size"),
            ({"num_levels": 0}, "num_levels must be >= 1"),
            ({"mesh_size": 0}, "must be positive"),
            ({"mesh_size": 24, "block_size": 6, "num_levels": 2},
             "multiple of 4"),
            ({"cfl": 0.0}, "cfl must be finite and > 0"),
            ({"cfl": -0.5}, "cfl must be finite and > 0"),
            ({"cfl": float("nan")}, "cfl must be finite and > 0"),
            ({"cfl": float("inf")}, "cfl must be finite and > 0"),
        ],
    )
    def test_unrunnable_mesh_or_cfl_is_a_config_error(self, options, message):
        with pytest.raises(ConfigError, match=message):
            build_simulation_params(**options)
        with pytest.raises(ConfigError, match=message):
            RunSpec.from_json({"params": options, "config": {}})

    def test_num_shards_one_is_dropped(self):
        """Specs stored before sharded execution was removed carry
        ``num_shards: 1``; it still builds the default config."""
        assert build_execution_config(num_shards=1) == build_execution_config()

    @pytest.mark.parametrize("shards", [0, 2, 4, True, "1"])
    def test_other_shard_counts_are_config_errors(self, shards):
        with pytest.raises(ConfigError, match="sharded execution was removed"):
            build_execution_config(num_shards=shards)

    def test_optimizations_dict_and_typo(self):
        cfg = build_execution_config(
            optimizations={"pooled_block_allocation": True}
        )
        assert cfg.optimizations.pooled_block_allocation
        with pytest.raises(ConfigError, match="pooled_block_allocation"):
            build_optimization_flags(pooled_blok_allocation=True)
        with pytest.raises(ConfigError, match="must be a bool"):
            build_optimization_flags(pooled_block_allocation=1)

    def test_speedup_constants_not_settable(self):
        with pytest.raises(ConfigError):
            build_optimization_flags(POOL_SPEEDUP=2.0)

    def test_simulation_params_builder(self):
        with pytest.raises(ConfigError, match="did you mean 'mesh_size'"):
            build_simulation_params(mesh_sze=64)
        with pytest.raises(ConfigError, match="weno5, plm"):
            build_simulation_params(reconstruction="weno")


class TestSimulationFacade:
    def test_run_and_result(self):
        sim = Simulation(small_spec())
        result = sim.run()
        assert result.fom > 0
        assert sim.result() is result  # cached, no rerun

    def test_result_runs_lazily(self):
        sim = Simulation(small_spec())
        assert sim.result().fom > 0

    def test_from_deck_text(self):
        sim = Simulation.from_deck(small_spec().to_deck())
        assert sim.spec == small_spec()

    def test_from_deck_path(self, tmp_path):
        path = tmp_path / "a.vibe"
        path.write_text(small_spec().to_deck())
        assert Simulation.from_deck(str(path)).spec == small_spec()

    def test_rejects_non_spec(self):
        with pytest.raises(ConfigError, match="RunSpec"):
            Simulation({"mesh": 64})

    def test_run_convenience_matches_facade(self):
        assert run(small_spec()).fom == Simulation(small_spec()).run().fom

    def test_mpi_counters_populated(self):
        result = run(small_spec())
        assert result.mpi_counters["allreduce_calls"] > 0
        assert "remote_bytes" in result.mpi_counters


class TestJsonWire:
    """RunSpec.to_json / from_json — the service's submission schema."""

    def test_round_trip(self):
        spec = small_spec()
        clone = RunSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.cache_key() == spec.cache_key()

    def test_round_trip_with_optimizations(self):
        spec = small_spec(
            config=build_execution_config(
                backend="gpu",
                num_gpus=1,
                ranks_per_gpu=2,
                optimizations={"parallel_host_tasks": True},
            )
        )
        doc = spec.to_json()
        assert doc["config"]["optimizations"] == {"parallel_host_tasks": True}
        assert RunSpec.from_json(doc) == spec

    def test_deck_form(self):
        spec = small_spec()
        clone = RunSpec.from_json(
            {"deck": spec.to_deck(), "ncycles": 7}
        )
        assert clone.ncycles == 7
        assert clone.params == spec.params

    def test_deck_form_excludes_structured_form(self):
        with pytest.raises(ConfigError, match="not both"):
            RunSpec.from_json(
                {"deck": "x", "params": {"mesh_size": 32}}
            )

    def test_unknown_fields_rejected_at_every_layer(self):
        base = small_spec().to_json()
        for sabotage in (
            {"bogus": 1},
            {"params": dict(base["params"], bogus=1)},
            {"config": dict(base["config"], bogus=1)},
        ):
            doc = dict(base)
            doc.update(sabotage)
            with pytest.raises(ConfigError, match="bogus"):
                RunSpec.from_json(doc)

    def test_stored_spec_with_num_shards_still_loads(self):
        """A document ``to_json`` wrote while ``num_shards`` existed loads
        to the same spec, under the same cache key."""
        doc = {
            "params": {
                "ndim": 2, "mesh_size": 32, "block_size": 8, "num_levels": 2,
                "num_scalars": 1, "reconstruction": "weno5", "riemann": "hll",
                "cfl": 0.4, "refine_every": 1, "derefine_gap": 10,
                "load_balance_every": 1, "refine_tol": 0.15,
                "derefine_tol": 0.03, "refinement_policy": "first_derivative",
                "block_budget": 0, "wavefront_speed": 0.01,
                "wavefront_width": 0.014, "wavefront_r0": 0.11,
            },
            "config": {
                "backend": "cpu", "num_gpus": 1, "ranks_per_gpu": 1,
                "cpu_ranks": 8, "num_nodes": 1, "mode": "modeled",
                "kernel_mode": "packed", "kernel_backend": "numpy",
                "checkpoint_every": 0, "num_shards": 1,
            },
            "ncycles": 2,
            "warmup": 1,
        }
        spec = RunSpec.from_json(doc)
        assert spec == small_spec(
            config=ExecutionConfig(backend="cpu", cpu_ranks=8), label=""
        )
        assert spec.cache_key() == (
            "c465fd0924d85251b138f566813a7e1dbc4aedcf7f1f74f70e70cc22aa260d30"
        )
        assert "num_shards" not in spec.to_json()["config"]
        doc["config"]["num_shards"] = 2
        with pytest.raises(ConfigError, match="sharded execution was removed"):
            RunSpec.from_json(doc)

    def test_bad_types_become_config_errors(self):
        with pytest.raises(ConfigError):
            RunSpec.from_json("not an object")
        doc = small_spec().to_json()
        doc["ncycles"] = "three"
        with pytest.raises(ConfigError):
            RunSpec.from_json(doc)


class TestProgress:
    """iter_progress(): per-cycle events from MetricsRegistry snapshots."""

    def test_events_cover_warmup_and_measured_cycles(self):
        spec = small_spec()  # ncycles=2, warmup=1
        events = list(iter_progress(Simulation(spec)))
        assert len(events) == 3
        assert [e.cycle for e in events] == [1, 2, 3]
        assert events[0].warmup and not events[-1].warmup
        assert events[0].measured == 0
        assert events[-1].measured == spec.ncycles
        assert events[-1].done and not events[0].done

    def test_events_carry_metrics_counters(self):
        events = list(iter_progress(Simulation(small_spec())))
        final = events[-1]
        assert final.blocks > 0
        assert isinstance(final.counters, dict) and final.counters

    def test_observed_run_matches_plain_run(self):
        spec = small_spec()
        sim = Simulation(spec)
        for _ in iter_progress(sim):
            pass
        assert sim.result() == Simulation(spec).run()

    def test_event_dict_round_trip(self):
        event = list(iter_progress(Simulation(small_spec())))[-1]
        clone = ProgressEvent.from_dict(event.to_dict())
        assert clone == event

    def test_run_exception_surfaces_on_consumer(self, monkeypatch):
        sim = Simulation(small_spec())

        def explode(on_cycle=None):
            raise RuntimeError("mid-run failure")

        monkeypatch.setattr(sim, "run", explode)
        with pytest.raises(RuntimeError, match="mid-run failure"):
            list(iter_progress(sim))
