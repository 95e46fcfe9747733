"""Fault-site matrix: every registered site × {fires once, fires never}.

The contract for each cell: the point either *recovers* (an ``ok``
artifact whose simulated quantities are identical to a fault-free run,
with honest ``attempts``/``resilience`` metadata) or fails *structurally*
(an ``error`` artifact naming the injected fault) — never silent
corruption, never a hang.  Determinism of the schedule itself is pinned
by ``tests/test_resilience.py``; this file pins the recovery paths.
"""

import pytest

from repro.api import RunSpec, build_execution_config, build_simulation_params
from repro.orchestration import PointTask, execute_point, run_campaign
from repro.resilience import FAULT_SITES, FaultPlan

#: Keys that legitimately differ between a faulted/recovered run and the
#: clean baseline; every other key — every simulated quantity — must be
#: byte-identical.
_METADATA_KEYS = {"attempts", "resilience", "spec"}


def _spec() -> RunSpec:
    params = build_simulation_params(
        ndim=2, mesh_size=16, block_size=8, num_levels=2, num_scalars=1
    )
    config = build_execution_config(
        mode="modeled", kernel_mode="packed", num_gpus=1, ranks_per_gpu=2
    )
    return RunSpec(params=params, config=config, ncycles=2, warmup=1, label="pt")


@pytest.fixture(scope="module")
def clean_artifact():
    """Fault-free baseline."""
    return execute_point(PointTask(spec=_spec()))


def _assert_simulated_quantities_match(artifact, clean):
    for key in set(artifact) | set(clean):
        if key in _METADATA_KEYS:
            continue
        assert artifact.get(key) == clean.get(key), (
            f"silent corruption: field {key!r} differs from the "
            "fault-free baseline"
        )


class TestFiresNever:
    @pytest.mark.parametrize("site", FAULT_SITES)
    def test_armed_but_silent_site_changes_nothing(self, site, clean_artifact):
        plan = FaultPlan.single(site, probability=0.0, max_fires=1)
        artifact = execute_point(PointTask(spec=_spec(), fault_plan=plan))
        assert artifact["status"] == "ok"
        assert artifact["attempts"] == 1
        faults = artifact["resilience"]["faults"]
        assert faults["fired"] == {}
        _assert_simulated_quantities_match(artifact, clean_artifact)


class TestFiresOnce:
    @pytest.mark.parametrize("site", FAULT_SITES)
    def test_recovered_with_retry(self, site, clean_artifact, tmp_path):
        """One transient fault + one retry: the point must recover, the
        artifact must record the fault honestly, and every simulated
        quantity must match the fault-free baseline."""
        plan = FaultPlan.single(site, probability=1.0, max_fires=1)
        artifact = execute_point(
            PointTask(
                spec=_spec(),
                retries=1,
                checkpoint_dir=str(tmp_path / site),
                fault_plan=plan,
            )
        )
        assert artifact["status"] == "ok"
        assert artifact["attempts"] == 2
        faults = artifact["resilience"]["faults"]
        assert faults["fired"] == {site: 1}
        _assert_simulated_quantities_match(artifact, clean_artifact)

    @pytest.mark.parametrize("site", FAULT_SITES)
    def test_structured_error_without_retry(self, site):
        """No retry budget: the fault must surface as a structured error
        artifact naming the injected fault — never a raise, never a hang."""
        plan = FaultPlan.single(site, probability=1.0, max_fires=1)
        artifact = execute_point(PointTask(spec=_spec(), fault_plan=plan))
        assert artifact["status"] == "error"
        assert artifact["attempts"] == 1
        assert artifact["error"]["type"] == "InjectedFault"
        assert site in artifact["error"]["message"]
        assert artifact["resilience"]["faults"]["fired"] == {site: 1}


class TestCampaignResume:
    def test_crashed_point_resumes_from_checkpoint(self, tmp_path, clean_artifact):
        """The acceptance-criteria path: a campaign point crashed by an
        injected worker fault resumes from its per-point checkpoint tree
        with ``resumed_from_cycle > 0`` recorded in the artifact."""
        plan = FaultPlan.single("kernel_launch", cycle=2)
        summary = run_campaign(
            [_spec()],
            tmp_path,
            workers=1,
            retries=1,
            checkpoint_every=1,
            fault_plan=plan,
        )
        assert summary.executed == 1 and summary.failed == 0
        artifact = summary.artifacts[0]
        assert artifact["status"] == "ok"
        assert artifact["attempts"] == 2
        assert artifact["resilience"]["resumed_from_cycle"] > 0
        assert artifact["resilience"]["faults"]["fired"] == {"kernel_launch": 1}
        # Per-point checkpoints live under <campaign>/checkpoints/<key>.
        key = artifact["cache_key"]
        assert any((tmp_path / "checkpoints" / key).glob("ckpt_*.json"))
        _assert_simulated_quantities_match(artifact, clean_artifact)

    def test_faulted_campaign_caches_like_a_clean_one(self, tmp_path):
        """Resumed artifacts keep the spec's cache key, so a re-run of
        the same campaign without faults is served from cache."""
        plan = FaultPlan.single("kernel_launch", cycle=2)
        run_campaign(
            [_spec()], tmp_path, workers=1, retries=1,
            checkpoint_every=1, fault_plan=plan,
        )
        again = run_campaign([_spec()], tmp_path, workers=1)
        assert again.cached == 1 and again.executed == 0
