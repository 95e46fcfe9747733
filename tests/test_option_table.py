"""The option table: one type-and-choice check on every input path.

Decks, JSON specs, the service and the builders all validate through
:mod:`repro.options`, so a bad value fails up front with
:class:`ConfigError` wherever it enters.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from repro import cli
from repro.api import (
    ConfigError,
    RunSpec,
    build_execution_config,
    build_simulation_params,
)
from repro.driver.execution import ExecutionConfig
from repro.driver.input import InputError, params_from_input, render_input
from repro.driver.params import SimulationParams
from repro.options import OPTIONS
from repro.service import ServerThread

ROOT = Path(__file__).resolve().parents[1]

MINI = RunSpec(
    params=build_simulation_params(
        ndim=2, mesh_size=32, block_size=8, num_levels=2, num_scalars=1
    )
)

BAD_DECK_LINES = [
    ("recon = weno5", "recon = weno7", "did you mean 'weno5'"),
    ("numlevel = 2", "numlevel = two", "num_levels must be an integer"),
    ("num_scalars = 1", "num_scalars = 2.5", "num_scalars must be an integer"),
    ("num_gpus = 1", "num_gpus = true", "num_gpus must be an integer"),
    ("nx1 = 32", "nx1 = 32.0", "mesh_size must be an integer"),
]

BAD_JSON = [
    ({"params": {"cfl": "x"}}, "cfl must be a number"),
    ({"params": {"num_levels": "two"}}, "num_levels must be an integer"),
    ({"params": {"block_size": True}}, "block_size must be an integer"),
    ({"params": {"ndim": 4}}, "invalid ndim 4"),
    ({"config": {"num_gpus": "2"}}, "num_gpus must be an integer"),
    ({"config": {"kernel_backend": "numbaa"}}, "did you mean 'numba'"),
]


def _deck_with(line: str, replacement: str) -> str:
    deck = MINI.to_deck()
    assert deck.count(f"{line}\n") == 1
    return deck.replace(f"{line}\n", f"{replacement}\n")


class TestDecks:
    @pytest.mark.parametrize("line,replacement,message", BAD_DECK_LINES)
    def test_bad_values_fail_at_parse(self, line, replacement, message):
        deck = _deck_with(line, replacement)
        with pytest.raises(InputError, match=message):
            params_from_input(deck)
        with pytest.raises(ConfigError, match=message):
            RunSpec.from_deck(deck)

    def test_int_accepted_for_float(self):
        params, _ = params_from_input(
            _deck_with("cfl = 0.4", "cfl = 1")
        )
        assert params.cfl == 1.0 and isinstance(params.cfl, float)


class TestJson:
    @pytest.mark.parametrize("doc,message", BAD_JSON)
    def test_bad_values_are_config_errors(self, doc, message):
        with pytest.raises(ConfigError, match=message):
            RunSpec.from_json(doc)

    def test_int_accepted_for_float(self):
        spec = RunSpec.from_json({"params": {"cfl": 1}})
        assert spec.params.cfl == 1.0 and isinstance(spec.params.cfl, float)
        assert spec.cache_key() == RunSpec.from_json(
            {"params": {"cfl": 1.0}}
        ).cache_key()

    def test_dataclass_construction_checks_config(self):
        with pytest.raises(ConfigError, match="did you mean 'per_block'"):
            ExecutionConfig(kernel_mode="perblock")
        with pytest.raises(ConfigError, match="cpu_ranks must be an integer"):
            dataclasses.replace(ExecutionConfig(), cpu_ranks=2.0)


class TestService:
    @pytest.mark.parametrize(
        "doc",
        [
            {"params": {"cfl": "x"}},
            {"config": {"num_gpus": "2"}},
            {"deck": _deck_with("recon = weno5", "recon = weno7")},
        ],
    )
    def test_bad_values_are_400(self, tmp_path, doc):
        with ServerThread(tmp_path, workers=1) as client:
            resp = client.submit(doc)
        assert resp.status == 400
        assert resp.json["error"] == "invalid_spec"


class TestTable:
    def test_rows_cover_every_params_field(self):
        names = {o.name for o in OPTIONS if o.owner is SimulationParams}
        assert names == {f.name for f in dataclasses.fields(SimulationParams)}

    def test_names_are_unique(self):
        assert len({o.name for o in OPTIONS}) == len(OPTIONS)

    def test_deck_keys_round_trip_non_defaults(self):
        """Every deck key parses back to the value it renders."""
        params = build_simulation_params(
            ndim=2, mesh_size=64, block_size=16, num_levels=4,
            num_scalars=3, reconstruction="plm", riemann="llf", cfl=0.3,
            refine_every=2, derefine_gap=5, refine_tol=0.2,
            derefine_tol=0.05, refinement_policy="block_budget",
            block_budget=40,
        )
        config = build_execution_config(
            backend="cpu", cpu_ranks=48, num_nodes=2, mode="numeric",
            kernel_mode="per_block", kernel_backend="numba", num_shards=3,
            checkpoint_every=4,
        )
        assert params_from_input(render_input(params, config)) == (
            params, config,
        )

    def test_trace_override_flag_applies(self, tmp_path):
        out = tmp_path / "per_block.json"
        assert cli.main([
            "trace", str(ROOT / "examples" / "mini.in"),
            "--kernel-mode", "per_block", "-o", str(out),
        ]) == 0
        golden = ROOT / "tests" / "golden" / "trace_mini_per_block.json"
        assert out.read_bytes() == golden.read_bytes()

    def test_override_flags_are_validated(self, tmp_path):
        deck = tmp_path / "mini.in"
        deck.write_text(MINI.to_deck())
        assert cli.main(["run", str(deck), "--shards", "0"]) == 2
        assert cli.main(["run", str(deck), "--checkpoint-every", "-1"]) == 2
        assert cli.main([
            "run", str(deck), "--refinement-policy", "block_budget",
        ]) == 2
