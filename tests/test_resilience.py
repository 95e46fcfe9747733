"""Resilience subsystem: checkpoint invariants, fault determinism,
restart-archive validation.

Property tests (Hypothesis) pin the load-bearing invariants:

* checkpoint save → load → save is **byte-stable** — the canonical
  pickler's identity-insensitivity, without which the bitwise-resume
  differential harness could not compare runs;
* any corruption of the payload bytes makes ``read_checkpoint`` raise
  (the sha256 self-check never adopts bad state);
* a :class:`FaultInjector` is a pure function of its plan — same seed,
  same schedule, every time;
* :class:`FaultCounters.merge` is associative and commutative, so a
  campaign can fold worker counters in any order.
"""

import dataclasses
import json
import pickle
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    RunSpec,
    build_execution_config,
    build_simulation_params,
)
from repro.driver.driver import ParthenonDriver
from repro.driver.outputs import (
    RESTART_SCHEMA_VERSION,
    RestartError,
    load_restart,
    save_restart,
)
from repro.mesh.mesh import Mesh
from repro.resilience import (
    CheckpointError,
    CheckpointManager,
    FaultCounters,
    FaultError,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    NULL_INJECTOR,
    FAULT_SITES,
    capture_state,
    latest_checkpoint,
    list_checkpoints,
    read_checkpoint,
    restore_driver,
    serialize_state,
    write_checkpoint,
)


def _driver(mode="modeled", kernel_mode="packed", cycles=2, warmup=1):
    params = build_simulation_params(
        ndim=2, mesh_size=16, block_size=8, num_levels=2, num_scalars=1
    )
    config = build_execution_config(
        mode=mode, kernel_mode=kernel_mode, num_gpus=1, ranks_per_gpu=2
    )
    drv = ParthenonDriver(params, config)
    drv.run(cycles, warmup=warmup)
    return drv


class TestExchangeBuilds:
    @pytest.mark.parametrize("mode", ["modeled", "numeric"])
    def test_setup_and_restore_build_the_exchange_once_each(
        self, mode, tmp_path, monkeypatch
    ):
        from repro.comm.bvals import BoundaryExchange

        drv = _driver(mode=mode)
        payload = read_checkpoint(write_checkpoint(tmp_path, drv))
        builds = []
        original = BoundaryExchange.rebuild

        def counting(bx):
            builds.append(bx)
            return original(bx)

        monkeypatch.setattr(BoundaryExchange, "rebuild", counting)
        fresh = ParthenonDriver(drv.params, drv.config)
        assert builds == [fresh.bx]
        builds.clear()
        restored = restore_driver(payload)
        # One build in the set-up of the driver the restore starts from,
        # one for the restored mesh.
        assert len(builds) == 2 and builds[-1] is restored.bx


# ------------------------------------------------------- byte stability


class TestCheckpointByteStability:
    @pytest.mark.parametrize(
        "mode,kernel_mode",
        [("modeled", "packed"), ("numeric", "packed"), ("numeric", "per_block")],
    )
    def test_save_load_save_is_byte_stable(self, mode, kernel_mode, tmp_path):
        drv = _driver(mode=mode, kernel_mode=kernel_mode)
        first = serialize_state(capture_state(drv))
        manifest = write_checkpoint(tmp_path, drv)
        restored = restore_driver(read_checkpoint(manifest))
        second = serialize_state(capture_state(restored))
        assert first == second

    @settings(max_examples=8, deadline=None)
    @given(cycles=st.integers(1, 3), warmup=st.integers(0, 2))
    def test_byte_stable_across_run_lengths(self, cycles, warmup):
        drv = _driver(cycles=cycles, warmup=warmup)
        payload = capture_state(drv)
        raw = serialize_state(payload)
        assert serialize_state(pickle.loads(raw)) == raw

    def test_identical_state_identical_bytes(self, tmp_path):
        a = serialize_state(capture_state(_driver()))
        b = serialize_state(capture_state(_driver()))
        assert a == b


# ------------------------------------------------- corruption detection


@pytest.fixture(scope="module")
def intact_checkpoint(tmp_path_factory):
    """One checkpoint written once; corruption tests copy it per case."""
    directory = tmp_path_factory.mktemp("intact")
    manifest = write_checkpoint(directory, _driver())
    return directory, manifest.name


class TestCorruptionDetection:
    @settings(max_examples=20, deadline=None)
    @given(offset=st.integers(0, 10_000), flip=st.integers(1, 255))
    def test_any_payload_corruption_raises(
        self, offset, flip, intact_checkpoint, tmp_path_factory
    ):
        src, manifest_name = intact_checkpoint
        work = tmp_path_factory.mktemp("corrupt")
        for p in src.iterdir():
            shutil.copy(p, work / p.name)
        manifest = work / manifest_name
        payload_path = work / json.loads(manifest.read_text())["payload"]
        blob = bytearray(payload_path.read_bytes())
        offset %= len(blob)
        blob[offset] ^= flip
        payload_path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="sha256"):
            read_checkpoint(manifest)

    def test_truncated_payload_raises(self, tmp_path):
        manifest = write_checkpoint(tmp_path, _driver())
        payload_path = tmp_path / json.loads(manifest.read_text())["payload"]
        payload_path.write_bytes(payload_path.read_bytes()[:100])
        with pytest.raises(CheckpointError):
            read_checkpoint(manifest)

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no valid checkpoint"):
            read_checkpoint(tmp_path)

    def test_bad_schema_version_raises(self, tmp_path):
        manifest = write_checkpoint(tmp_path, _driver())
        doc = json.loads(manifest.read_text())
        doc["schema_version"] = 999
        manifest.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="schema_version"):
            read_checkpoint(manifest)

    def test_latest_checkpoint_skips_torn_write(self, tmp_path):
        """Crash debris — a newer payload whose bytes are torn — must be
        skipped in favor of the last intact checkpoint."""
        drv = _driver(cycles=1, warmup=0)
        mgr = CheckpointManager(tmp_path, every=1)
        drv2 = _driver(cycles=3, warmup=0)
        write_checkpoint(tmp_path, drv)
        newest = write_checkpoint(tmp_path, drv2)
        assert latest_checkpoint(tmp_path) == newest
        payload_path = tmp_path / json.loads(newest.read_text())["payload"]
        payload_path.write_bytes(b"torn")
        survivor = latest_checkpoint(tmp_path)
        assert survivor is not None and survivor != newest
        assert read_checkpoint(survivor)["cycle"] == drv.cycle
        assert len(list_checkpoints(tmp_path)) == 2
        assert mgr.latest() == survivor


# ------------------------------------------------- injector determinism


_site = st.sampled_from(FAULT_SITES)
_plans = st.builds(
    FaultPlan,
    seed=st.integers(0, 2**31),
    specs=st.lists(
        st.builds(
            FaultSpec,
            site=_site,
            cycle=st.one_of(st.none(), st.integers(0, 5)),
            probability=st.floats(0.0, 1.0, allow_nan=False),
            max_fires=st.integers(0, 3),
        ),
        max_size=3,
    ).map(tuple),
)


def _schedule(injector, checks):
    fired = []
    for site, cycle in checks:
        try:
            injector.check(site, cycle)
        except InjectedFault as f:
            fired.append((f.site, f.cycle, f.invocation))
    return fired


class TestFaultInjectorDeterminism:
    @settings(max_examples=50, deadline=None)
    @given(
        plan=_plans,
        checks=st.lists(
            st.tuples(_site, st.integers(0, 5)), max_size=40
        ),
    )
    def test_same_plan_same_schedule(self, plan, checks):
        a = _schedule(FaultInjector(plan), checks)
        b = _schedule(FaultInjector(plan), checks)
        assert a == b

    @settings(max_examples=30, deadline=None)
    @given(
        plan=_plans,
        checks=st.lists(st.tuples(_site, st.integers(0, 5)), max_size=40),
        split=st.integers(0, 40),
    )
    def test_counter_restore_continues_the_stream(self, plan, checks, split):
        """Checkpoint the counters mid-stream; the restored injector must
        fire exactly where the uninterrupted one does — resume never
        shifts the fault schedule."""
        split = min(split, len(checks))
        whole = _schedule(FaultInjector(plan), checks)
        first = FaultInjector(plan)
        head = _schedule(first, checks[:split])
        second = FaultInjector(plan)
        second.load_state_dict(first.state_dict())
        tail = _schedule(second, checks[split:])
        assert head + tail == whole

    def test_unarmed_injector_never_counts(self):
        inj = FaultInjector()
        inj.check("kernel_launch", 0)
        assert not inj.armed
        assert inj.counters.checks == {} and inj.counters.fired == {}

    def test_null_injector_is_inert(self):
        NULL_INJECTOR.check("kernel_launch", 0)
        assert NULL_INJECTOR.counters.total_fired() == 0

    def test_unknown_site_rejected(self):
        with pytest.raises(FaultError, match="unknown fault site"):
            FaultSpec(site="gamma_ray")

    def test_bad_probability_rejected(self):
        with pytest.raises(FaultError, match="probability"):
            FaultSpec(site="remesh", probability=1.5)


# -------------------------------------------------- counter merge laws


_counters = st.builds(
    FaultCounters,
    checks=st.dictionaries(_site, st.integers(0, 100), max_size=4),
    fired=st.dictionaries(_site, st.integers(0, 100), max_size=4),
)


class TestFaultCounterMerge:
    @settings(max_examples=50, deadline=None)
    @given(a=_counters, b=_counters)
    def test_commutative(self, a, b):
        assert a.merge(b).to_dict() == b.merge(a).to_dict()

    @settings(max_examples=50, deadline=None)
    @given(a=_counters, b=_counters, c=_counters)
    def test_associative(self, a, b, c):
        assert (
            a.merge(b).merge(c).to_dict() == a.merge(b.merge(c)).to_dict()
        )

    @settings(max_examples=20, deadline=None)
    @given(a=_counters)
    def test_identity(self, a):
        assert a.merge(FaultCounters()).to_dict() == a.to_dict()


# ------------------------------------------- restart archive (satellite)


def _numeric_mesh():
    drv = _driver(mode="numeric", cycles=2, warmup=0)
    return drv


class TestRestartArchive:
    def test_round_trip(self, tmp_path):
        drv = _numeric_mesh()
        path = tmp_path / "restart.npz"
        save_restart(path, drv.mesh, cycle=drv.cycle, time=drv.time)
        mesh, cycle, time = load_restart(
            path, expected_geometry=drv.mesh.geometry
        )
        assert cycle == drv.cycle and time == drv.time
        assert len(mesh.block_list) == len(drv.mesh.block_list)
        for a, b in zip(mesh.block_list, drv.mesh.block_list):
            for name in a.fields:
                np.testing.assert_array_equal(a.fields[name], b.fields[name])

    def test_atomic_no_tmp_left_behind(self, tmp_path):
        drv = _numeric_mesh()
        save_restart(tmp_path / "r.npz", drv.mesh)
        assert [p.name for p in tmp_path.iterdir()] == ["r.npz"]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(RestartError, match="not found"):
            load_restart(tmp_path / "nope.npz")

    def test_truncated_archive_raises(self, tmp_path):
        drv = _numeric_mesh()
        path = tmp_path / "r.npz"
        save_restart(path, drv.mesh)
        path.write_bytes(path.read_bytes()[:64])
        with pytest.raises(RestartError):
            load_restart(path)

    def test_garbage_archive_raises(self, tmp_path):
        path = tmp_path / "r.npz"
        path.write_bytes(b"not a zip archive at all")
        with pytest.raises(RestartError, match="corrupt"):
            load_restart(path)

    def test_geometry_mismatch_raises(self, tmp_path):
        drv = _numeric_mesh()
        path = tmp_path / "r.npz"
        save_restart(path, drv.mesh)
        other = build_simulation_params(
            ndim=2, mesh_size=32, block_size=8, num_levels=2, num_scalars=1
        )
        other_mesh = ParthenonDriver(
            other,
            build_execution_config(mode="numeric", num_gpus=1, ranks_per_gpu=2),
        ).mesh
        with pytest.raises(RestartError, match="geometry"):
            load_restart(path, expected_geometry=other_mesh.geometry)

    def test_schema_version_is_stored(self, tmp_path):
        drv = _numeric_mesh()
        path = tmp_path / "r.npz"
        save_restart(path, drv.mesh)
        with np.load(path, allow_pickle=False) as data:
            assert int(data["schema_version"][0]) == RESTART_SCHEMA_VERSION

    def test_modeled_mesh_rejected(self, tmp_path):
        drv = _driver(mode="modeled")
        with pytest.raises(ValueError, match="numeric"):
            save_restart(tmp_path / "r.npz", drv.mesh)


# ---------------------------------------------------- cadence semantics


class TestCheckpointManager:
    def test_cadence(self, tmp_path):
        drv = _driver(cycles=6, warmup=0)
        mgr = CheckpointManager(tmp_path, every=2)
        for cycle in (1, 2, 3, 4):
            drv.cycle = cycle
            mgr.save(drv)
        names = [p.name for p in mgr.written]
        assert names == ["ckpt_000002.json", "ckpt_000004.json"]

    def test_force_bypasses_cadence(self, tmp_path):
        drv = _driver(cycles=1, warmup=0)
        mgr = CheckpointManager(tmp_path, every=0)
        assert mgr.save(drv) is None
        assert mgr.save(drv, force=True) is not None

    def test_checkpoint_every_excluded_from_cache_key(self):
        params = build_simulation_params(
            ndim=2, mesh_size=16, block_size=8, num_levels=2, num_scalars=1
        )
        config = build_execution_config(mode="modeled")
        a = RunSpec(params=params, config=config, ncycles=2, warmup=1)
        b = a.replace(
            config=dataclasses.replace(config, checkpoint_every=3)
        )
        assert a.cache_key() == b.cache_key()

    def test_negative_checkpoint_every_rejected(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            build_execution_config(checkpoint_every=-1)
