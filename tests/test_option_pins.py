"""Byte pins on everything the option declarations feed.

The run cache addresses artifacts by ``RunSpec.cache_key()`` and decks
are the reproducibility format, so a change to how options are
declared must not move a single byte of either.  These pins hold the
absolute cache keys and rendered-deck digests of the example decks, of
every preset campaign point and of one spec per conditional deck line,
check that those rendered decks parse back to the same configuration,
and hold the option set (flags, defaults, choices, nargs) of every CLI
subcommand against ``tests/golden/cli_options.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

import pytest

from repro import cli
from repro.api import RunSpec, build_execution_config, build_simulation_params
from repro.driver.input import params_from_input, render_input

ROOT = Path(__file__).resolve().parents[1]
CLI_GOLDEN = ROOT / "tests" / "golden" / "cli_options.json"


def _small(**config) -> RunSpec:
    return RunSpec(
        params=build_simulation_params(mesh_size=32, block_size=8, num_levels=2),
        config=build_execution_config(**config),
    )


def _budget() -> RunSpec:
    params = build_simulation_params(
        mesh_size=32, block_size=8, num_levels=2,
        refinement_policy="block_budget", block_budget=96,
    )
    return RunSpec(params=params)


def _policy() -> RunSpec:
    params = build_simulation_params(
        mesh_size=32, block_size=8, num_levels=2,
        refinement_policy="second_derivative",
    )
    return RunSpec(params=params)


def _campaign_specs(preset: str, monkeypatch, tmp_path):
    """The RunSpecs ``repro campaign --preset <preset>`` would execute."""
    import repro.orchestration as orchestration

    captured = []

    class _Stop(Exception):
        pass

    def fake_run_campaign(specs, *args, **kwargs):
        captured.extend(specs)
        raise _Stop

    monkeypatch.setattr(orchestration, "run_campaign", fake_run_campaign)
    with pytest.raises(_Stop):
        cli.main(["campaign", "--preset", preset, "--dir", str(tmp_path)])
    return captured


#: name -> (cache_key, sha256 of render_input bytes)
PINS = {
    "backend=cpu": (
        "abed8f4dc48d682e13e8fb3b0b58c005e52e54fa9bb55ec4b08a14815a3db381",
        "fb74b61c0f8b0f6d28d7f9fc2644b868b9131015baa14559308a9b8949fe86c8",
    ),
    "block_budget": (
        "0114b6f98a9a94810073e7663179986d3f74a4faa6c7db3567f30f6653099c67",
        "2154bb8cdb2c1b706052d3f18ca5a83d88d833094cf23e70cab34d9c42650798",
    ),
    "checkpoint_every=2": (
        "35f9b303364b7f1027a0d2bf3d5de8cd13eb5a50f49b711b01bc43e33d1789c3",
        "a485851a09e05420f4605d6d1f7df9e3f79753e2485962563e1736c255d86b4b",
    ),
    "default": (
        "af1af5e16a5f38cf5af354aec62d5643b68cf8b82e44c15e5aa916736469806e",
        "aad34dc5f551fac91d736cddf970e9754ff6f9ed8bd4bbbde1e6ee26a79e7789",
    ),
    "examples/mini.in": (
        "e16a4914438aa04416ad24901d504a39c5c5b025b79eb1097f7ed549838b59a4",
        "1fedc589a4da7a44c276220c3e0803ab8796473f54129caa0416bf3ebb46fccf",
    ),
    "examples/vibe_128.in": (
        "bc0c4c133463562835f9bd27608bdc50b65ee6f54d6bf5952846ac9ad2e9b914",
        "be1d8776ad818bc4730b4d82af3ad4f62a60b6e2c5a50f6657a9679dce679fe7",
    ),
    "kernel_backend=numba": (
        "f74942ceb6e1dcb54022dbab18c32cc0b4d638d18965dd76e4e8739501a90aa7",
        "f9ecd7c2ec4ae93a86dc741cbcbafe8dc88659a8f5f078918078ce0c21895cf9",
    ),
    "refinement_policy=second_derivative": (
        "fc6b4ca13755878d04381e97fbc9537547d360a9fa3c789c27374989a359b0b4",
        "21089a48eff6e6630feb838ec185e59259a8b533f4f4ef04fcb476e0fc45c388",
    ),
}

CAMPAIGN_PINS = {
    "mini": {
        "mesh80-block8": (
            "0e43b82bacd7c05ddf71d4cd8874e572214fd371258e498d8cf6ec270660b9cf",
            "9033a6bc8769ff1469acbd92b45cc4a4da8c3d4fcdfb53500118e201c8bfbefc",
        ),
        "mesh80-block16": (
            "d889299f4175e82e02849e5d88fc9e9e3d8325e133e90bcc4dcea75c8790faa2",
            "f69ebdb310975854d2997a6c8e652e194ae19566e4b2fbe38fa953576e1939ce",
        ),
        "mesh96-block8": (
            "c11f19920571a66a4128866736baf7f156708d61e3a2513b4fb40d38f9339c9a",
            "4c5b9e6da09f76b91667ab341cde1dd11885f2f502383233c77dddeb90176efd",
        ),
        "mesh96-block16": (
            "10f6c7480ddc847cce33660ab44371f10bcf969097fa49cce05c4e27f74c33bc",
            "c03782bc289f5702bdfbf265cbe026c41d13b846a11fa596096c182a8ca34881",
        ),
    },
    "policies": {
        "policy=first_derivative": (
            "7652a2208d1e60027c0d80bd5576ebaf8fdb5abe48f939dbc02aafcd7677c78d",
            "4526eb67f8756de2317af88ef2e21f8a173ec75777b985b7a9dc7131c6c6c327",
        ),
        "policy=budget640": (
            "b6f31fad72ff0be210fd07d19977db705337d5c2e26520d2455a72efb7e47585",
            "50084ff66ee914576a485a4e2c1e9b84f937bbc93e67ed798724aabd056ad762",
        ),
        "policy=budget1024": (
            "821ed7a81feaa7378fa7df984ede464641e9b15f2d9b0de43b4e78950c908bb6",
            "be402c297f6660235a33e91bfe573bce77f7e635d006cbf9e687f76a38e3daf4",
        ),
        "policy=budget1536": (
            "d12e1722ed80acdd0adfa740d855b7d1c99ed161c908f9537e5bf95011e51c15",
            "4328c59e3f73e84c43addfad47d4042422c05380df3b25bb980d8bb86d7c0860",
        ),
    },
}

SPECS = {
    "examples/mini.in": lambda: RunSpec.from_file(ROOT / "examples" / "mini.in"),
    "examples/vibe_128.in": lambda: RunSpec.from_file(
        ROOT / "examples" / "vibe_128.in"
    ),
    "default": RunSpec,
    "kernel_backend=numba": lambda: _small(kernel_backend="numba"),
    "backend=cpu": lambda: _small(backend="cpu", cpu_ranks=48),
    "block_budget": _budget,
    "refinement_policy=second_derivative": _policy,
    "checkpoint_every=2": lambda: _small(checkpoint_every=2),
}


def _digest(spec: RunSpec):
    deck = render_input(spec.params, spec.config)
    return spec.cache_key(), hashlib.sha256(deck.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_spec_pins(name):
    spec = SPECS[name]()
    assert _digest(spec) == PINS[name]
    assert params_from_input(render_input(spec.params, spec.config)) == (
        spec.params,
        spec.config,
    )
    assert RunSpec.from_deck(spec.to_deck()) == spec


@pytest.mark.parametrize("preset", ["mini", "policies"])
def test_campaign_point_pins(preset, monkeypatch, tmp_path):
    specs = _campaign_specs(preset, monkeypatch, tmp_path)
    got = {spec.label: _digest(spec) for spec in specs}
    assert got == CAMPAIGN_PINS[preset]
    for spec in specs:
        assert params_from_input(render_input(spec.params, spec.config)) == (
            spec.params,
            spec.config,
        )


def _parsers(monkeypatch):
    """Every subcommand's parser, captured from ``cli.main``."""

    class _Captured(Exception):
        pass

    def capture(self, *args, **kwargs):
        raise _Captured(self)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(_Captured) as info:
        cli.main([])
    root = info.value.args[0]
    (subparsers,) = [
        a for a in root._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return subparsers.choices


def _describe(parser: argparse.ArgumentParser):
    rows = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        rows.append({
            "flags": list(action.option_strings) or [action.dest],
            "dest": action.dest,
            "default": action.default,
            "choices": None if action.choices is None else list(action.choices),
            "nargs": action.nargs,
            "type": getattr(action.type, "__name__", None),
            "required": action.required,
            "action": type(action).__name__,
        })
    return sorted(rows, key=lambda row: row["flags"])


def test_cli_option_sets(monkeypatch):
    got = {
        name: _describe(parser)
        for name, parser in sorted(_parsers(monkeypatch).items())
    }
    assert got == json.loads(CLI_GOLDEN.read_text())
