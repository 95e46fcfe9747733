"""Policy-differential gate (DESIGN §14, the ISSUE 10 tentpole contract).

What each named refinement policy ships under:

* the **default** policy (``first_derivative``) is the seed behavior —
  selecting it explicitly is indistinguishable from not selecting
  anything: ``RunResult`` equal at 0 ULP and the canonical trace
  byte-identical, in both modeled and numeric modes.  The criterion
  class itself reproduces the legacy in-driver tagger bitwise (pinned
  against ``pkg.first_derivative_indicator`` below).
* every **new** policy passes the same cross-engine gates the seed
  passes: packed vs per-block kernels agree to ``atol = 1e-13``.
* every registry name survives a deck round trip, and the default deck
  rendering is unchanged (no ``<refinement>`` section — byte-stable
  decks and cache keys for all existing runs).
* the ``block_budget`` policy holds its target: on the mini deck with a
  budget of 120 the final population lands within 10% of the target and
  the cap is never exceeded, cascades included.
"""

import dataclasses
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    ConfigError,
    RunSpec,
    Simulation,
    build_execution_config,
    build_simulation_params,
)
from repro.driver.driver import ParthenonDriver
from repro.driver.execution import ExecutionConfig
from repro.driver.input import (
    InputError,
    params_from_input,
    render_input,
)
from repro.driver.params import SimulationParams
from repro.mesh.mesh import Mesh, MeshGeometry
from repro.mesh.refinement import (
    KNOWN_POLICIES,
    FirstDerivativeCriterion,
)
from repro.observability import to_canonical_json
from repro.solver.burgers import CONSERVED, DERIVED, BurgersPackage
from repro.solver.initial_conditions import gaussian_blob

REPO = Path(__file__).resolve().parent.parent
MINI_DECK = REPO / "examples" / "mini.in"

ATOL = 1e-13
NCYCLES = 3

NEW_POLICIES = [
    ("second_derivative", 0),
    ("recovered_gradient", 0),
    ("block_budget", 30),
]


def _blob(mesh, pkg):
    gaussian_blob(mesh, pkg, amplitude=0.8, width=0.15)


def _run(spec: RunSpec):
    sim = Simulation(spec, initial_conditions=_blob, trace=True)
    result = sim.run()
    return result, to_canonical_json(sim.trace())


def _assert_identical(run_a, run_b):
    """0-ULP RunResult equality plus byte-identical canonical trace."""
    result_a, trace_a = run_a
    result_b, trace_b = run_b
    assert dataclasses.asdict(result_a) == dataclasses.asdict(result_b)
    assert trace_a == trace_b


# ------------------------------------------------ default is the seed


class TestDefaultPolicyIsSeed:
    def test_modeled_explicit_default_is_bitwise_identical(self):
        base = RunSpec.from_file(MINI_DECK)
        explicit = base.replace(
            params=dataclasses.replace(
                base.params, refinement_policy="first_derivative"
            )
        )
        sim_a = Simulation(base, trace=True)
        sim_b = Simulation(explicit, trace=True)
        result_a, result_b = sim_a.run(), sim_b.run()
        assert dataclasses.asdict(result_a) == dataclasses.asdict(result_b)
        assert to_canonical_json(sim_a.trace()) == to_canonical_json(
            sim_b.trace()
        )

    def test_numeric_explicit_default_is_bitwise_identical(self):
        def spec(**overrides):
            params = build_simulation_params(
                ndim=2, mesh_size=32, block_size=8, num_levels=2,
                num_scalars=1, **overrides,
            )
            config = build_execution_config(mode="numeric")
            return RunSpec(params=params, config=config, ncycles=3, warmup=1)

        _assert_identical(
            _run(spec()),
            _run(spec(refinement_policy="first_derivative")),
        )

    def test_criterion_matches_legacy_package_indicator_bitwise(self):
        """The registry criterion IS the legacy tagger, to the last ULP."""
        geo = MeshGeometry(
            ndim=2, mesh_size=(32, 32, 1), block_size=(8, 8, 1),
            ng=2, num_levels=2,
        )
        pkg = BurgersPackage(ndim=2)
        mesh = Mesh(geo, field_specs=pkg.field_specs())
        gaussian_blob(mesh, pkg, amplitude=0.8, width=0.15)
        rng = np.random.default_rng(7)
        crit = FirstDerivativeCriterion(CONSERVED, component=pkg.nvel)
        for blk in mesh.block_list:
            blk.fields[CONSERVED] += rng.normal(
                scale=0.05, size=blk.fields[CONSERVED].shape
            )
            assert crit.indicator(blk) == pkg.first_derivative_indicator(blk)


# --------------------------------------- packed vs per-block, per policy


@lru_cache(maxsize=None)
def run_driver(kernel_mode, policy, budget):
    params = SimulationParams(
        ndim=2, mesh_size=32, block_size=8, num_levels=2, num_scalars=1,
        refinement_policy=policy, block_budget=budget,
    )
    cfg = ExecutionConfig(
        backend="gpu", num_gpus=1, ranks_per_gpu=1,
        mode="numeric", kernel_mode=kernel_mode,
    )
    driver = ParthenonDriver(params, cfg, initial_conditions=_blob)
    driver.run(NCYCLES)
    return driver


@pytest.mark.parametrize("policy,budget", NEW_POLICIES)
def test_packed_vs_per_block_parity(policy, budget):
    dp = run_driver("packed", policy, budget)
    db = run_driver("per_block", policy, budget)
    bp = {b.lloc: b for b in dp.mesh.block_list}
    bb = {b.lloc: b for b in db.mesh.block_list}
    # Identical refinement decisions under the policy: same population.
    assert set(bp) == set(bb)
    for lloc, blk in bp.items():
        other = bb[lloc]
        np.testing.assert_allclose(
            blk.fields[CONSERVED], other.fields[CONSERVED], atol=ATOL, rtol=0
        )
        np.testing.assert_allclose(
            blk.fields[DERIVED], other.fields[DERIVED], atol=ATOL, rtol=0
        )
    for ha, hb in zip(dp.history, db.history):
        assert ha.total_d == pytest.approx(hb.total_d, abs=ATOL)
        assert ha.max_speed == pytest.approx(hb.max_speed, abs=ATOL)


# --------------------------------------------------- deck round tripping


class TestDeckRoundTrip:
    @pytest.mark.parametrize("name", KNOWN_POLICIES)
    def test_every_registry_name_round_trips(self, name):
        budget = 64 if name == "block_budget" else 0
        params = build_simulation_params(
            refinement_policy=name, block_budget=budget
        )
        text = render_input(params, ExecutionConfig())
        parsed, _config = params_from_input(text)
        assert parsed.refinement_policy == name
        assert parsed.block_budget == budget
        assert parsed == params

    def test_default_deck_has_no_refinement_section(self):
        """Decks for existing runs must not change byte-wise."""
        text = render_input(build_simulation_params(), ExecutionConfig())
        assert "<refinement>" not in text
        assert "policy" not in text

    def test_unknown_deck_policy_is_loud(self):
        deck = "<refinement>\npolicy = blok_budget\n"
        with pytest.raises(InputError, match="did you mean"):
            params_from_input(deck)

    def test_budget_policy_deck_requires_budget(self):
        deck = "<refinement>\npolicy = block_budget\n"
        with pytest.raises(InputError, match="block_budget"):
            params_from_input(deck)

    def test_builder_rejects_unknown_policy(self):
        with pytest.raises(ConfigError, match="refinement_policy"):
            build_simulation_params(refinement_policy="nope")

    def test_builder_rejects_budget_policy_without_budget(self):
        with pytest.raises(ConfigError, match="block_budget"):
            build_simulation_params(refinement_policy="block_budget")

    def test_policy_rides_through_runspec_deck(self):
        spec = RunSpec(
            params=build_simulation_params(
                refinement_policy="block_budget", block_budget=96
            ),
            config=build_execution_config(),
            ncycles=2,
        )
        again = RunSpec.from_deck(spec.to_deck())
        assert again.params.refinement_policy == "block_budget"
        assert again.params.block_budget == 96


# -------------------------------------------- budget acceptance (mini)


class TestBudgetOnMiniDeck:
    def test_budget_within_ten_percent_of_target(self):
        target = 120
        base = RunSpec.from_file(MINI_DECK, ncycles=6, warmup=1)
        spec = base.replace(
            params=dataclasses.replace(
                base.params,
                refinement_policy="block_budget",
                block_budget=target,
            )
        )
        result = Simulation(spec).run()
        assert result.max_blocks <= target, "budget cap was exceeded"
        assert result.final_blocks <= target
        assert result.final_blocks >= 0.9 * target, (
            f"budget policy stalled at {result.final_blocks} blocks "
            f"(target {target})"
        )
