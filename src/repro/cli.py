"""Command-line interface: run decks, characterize configs, sweep axes.

Usage::

    python -m repro run input.vibe [--cycles N]
    python -m repro run input.vibe --checkpoint-every 2 --checkpoint-dir ck
    python -m repro run input.vibe --restart-from ck   # bitwise resume
    python -m repro characterize --mesh 128 --block 16 --levels 3 \
        --backend gpu --gpus 1 --ranks 12 [--cycles N]
    python -m repro sweep {block,mesh,levels,gpu-ranks,cpu-ranks} [options]
    python -m repro campaign --dir out --mesh 64,96 --block 8,16 \
        --workers 4            # parallel + resumable; rerun to resume
    python -m repro deck --mesh 128 --block 16 ...   # emit an input deck
    python -m repro trace input.vibe --format canonical   # golden-file JSON
    python -m repro trace input.vibe --format chrome -o t.json  # Perfetto
    python -m repro trace --diff a.json b.json --tolerance 0.05
    python -m repro serve --dir svc --port 8321   # campaign-as-a-service

Everything routes through :mod:`repro.api` (``RunSpec`` + ``Simulation``
+ the validating builders), so a typo like ``--kernel-mode paked`` fails
up front with the valid choices listed.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.api import ConfigError, RunSpec, Simulation
from repro.core.characterize import kernel_fraction
from repro.driver.outputs import RestartError
from repro.core.report import (
    render_breakdown,
    render_campaign_summary,
    render_memory,
    render_sweep,
    render_table,
)
from repro.driver.input import render_input
from repro.options import OPTION, OPTIONS, build


def _add_option_args(p: argparse.ArgumentParser, command: str) -> None:
    """The option table's flags for ``command``.  ``run`` and ``trace``
    take them as overrides of the deck, so they default to None."""
    override = command in ("run", "trace")
    for o in OPTIONS:
        if command in o.commands:
            help = o.help
            if override:
                help = f"override the deck's <{o.section}> {o.key}" + (
                    f": {help}" if help else ""
                )
            p.add_argument(
                o.flag,
                type=None if o.type is str else o.type,
                choices=o.choices or None,
                default=None if override else o.default,
                metavar=None if o.choices or o.type is not int else "N",
                help=help,
            )


def _add_config_args(p: argparse.ArgumentParser, command: str) -> None:
    _add_option_args(p, command)
    p.add_argument(
        "--ranks", type=int, default=1, help="ranks per GPU / CPU ranks"
    )
    p.add_argument("--cycles", type=int, default=3)
    p.add_argument("--warmup", type=int, default=2)


def _build(args, **overrides) -> tuple:
    """``(params, config)`` from a subcommand's option flags."""
    values = {
        o.name: getattr(args, o.dest)
        for o in OPTIONS
        if args.command in o.commands
    }
    # --ranks means ranks per GPU or CPU ranks; a CPU run keeps the
    # default GPU count whatever --gpus says.
    if args.backend == "gpu":
        values["ranks_per_gpu"] = args.ranks
    else:
        values["cpu_ranks"] = args.ranks
        del values["num_gpus"]
    values.update(overrides)
    return build(values)


def _override(spec: RunSpec, args) -> RunSpec:
    """``spec`` with the option flags given on a ``run``/``trace`` line
    replacing the deck's values, validated like the deck itself."""
    changes = {
        o.name: getattr(args, o.dest)
        for o in OPTIONS
        if args.command in o.commands and getattr(args, o.dest) is not None
    }
    if not changes:
        return spec
    values = {o.name: o.get(spec.params, spec.config) for o in OPTIONS}
    params, config = build(dict(values, **changes))
    return spec.replace(params=params, config=config)


def _spec(args) -> RunSpec:
    params, config = _build(args)
    return RunSpec(
        params=params, config=config, ncycles=args.cycles, warmup=args.warmup
    )


def _print_result(result) -> None:
    print(f"configuration : {result.config.describe()}")
    print(
        f"mesh {result.params.mesh_size}^{result.params.ndim}, "
        f"block {result.params.block_size}, "
        f"{result.params.num_levels} levels"
    )
    print(f"cycles        : {result.cycles} (final blocks {result.final_blocks})")
    print(f"FOM           : {result.fom:.4e} zone-cycles/s")
    print(
        f"time          : {result.wall_seconds:.3f}s "
        f"(kernel {result.kernel_seconds:.3f}s / serial {result.serial_seconds:.3f}s, "
        f"kernel fraction {kernel_fraction(result) * 100:.1f}%)"
    )
    print(
        f"communication : {result.cells_communicated:,} ghost cells, "
        f"{result.remote_messages:,} remote messages"
    )
    if result.oom:
        print("!! configuration ran out of device memory")
    print()
    print(render_breakdown(result, "Function breakdown", top=10))
    print()
    print(render_memory(result, "Device memory (most-loaded device)"))


def cmd_run(args) -> int:
    spec = RunSpec.from_file(args.input, ncycles=args.cycles, warmup=args.warmup)
    spec = _override(spec, args)
    checkpoint_dir = args.checkpoint_dir
    if checkpoint_dir is None and spec.config.checkpoint_every > 0:
        checkpoint_dir = "checkpoints"
    sim = Simulation(
        spec,
        checkpoint_dir=checkpoint_dir,
        restart_from=args.restart_from,
    )
    result = sim.run()
    if sim.resumed_from_cycle is not None:
        print(
            f"resumed from checkpoint at cycle {sim.resumed_from_cycle} "
            f"({args.restart_from})",
            file=sys.stderr,
        )
    _print_result(result)
    if sim.checkpointer is not None and sim.checkpointer.written:
        print(
            f"\n{len(sim.checkpointer.written)} checkpoint(s) in "
            f"{sim.checkpointer.directory}/ "
            f"(latest: {sim.checkpointer.written[-1].name})"
        )
    return 0


def cmd_characterize(args) -> int:
    import json

    from repro.observability import to_chrome_trace

    want_trace = bool(getattr(args, "trace", None))
    sim = Simulation(_spec(args), trace=want_trace)
    result = sim.run()
    _print_result(result)
    if want_trace:
        with open(args.trace, "w") as f:
            json.dump(to_chrome_trace(sim.trace()), f)
        print(f"\nchrome trace written to {args.trace} "
              "(open in chrome://tracing or Perfetto)")
    return 0


def cmd_trace(args) -> int:
    """Export a run's span tree, or diff two canonical trace files."""
    import json

    from repro.observability import (
        diff_region_totals,
        render_trace_diff,
        to_canonical_dict,
        to_canonical_json,
        to_chrome_trace,
    )
    from repro.observability.exporters import (
        render_trace_summary,
        within_tolerance,
    )

    if args.diff:
        path_a, path_b = args.diff
        with open(path_a) as f:
            doc_a = json.load(f)
        with open(path_b) as f:
            doc_b = json.load(f)
        try:
            deltas = diff_region_totals(doc_a, doc_b)
        except ValueError as exc:
            raise ConfigError(str(exc))
        print(render_trace_diff(deltas, args.tolerance,
                                title=f"Trace diff: {path_a} vs {path_b}"))
        ok = within_tolerance(deltas, args.tolerance)
        worst = max((abs(d.rel) for d in deltas), default=0.0)
        print(f"\nlargest relative delta: {worst * 100:.2f}% "
              f"(tolerance {args.tolerance * 100:.2f}%)")
        return 0 if ok else 1

    if not args.input:
        raise ConfigError("trace needs an input deck (or --diff A B)")
    overrides = {}
    if args.cycles is not None:
        overrides["ncycles"] = args.cycles
    if args.warmup is not None:
        overrides["warmup"] = args.warmup
    spec = _override(RunSpec.from_file(args.input, **overrides), args)
    sim = Simulation(spec, trace=True)
    sim.run()
    trace = sim.trace()
    if args.format == "canonical":
        text = to_canonical_json(trace)
    elif args.format == "chrome":
        text = json.dumps(to_chrome_trace(trace), sort_keys=True, indent=2) + "\n"
    else:  # summary
        text = render_trace_summary(to_canonical_dict(trace)) + "\n"
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
        print(f"{args.format} trace written to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_deck(args) -> int:
    params, config = _build(args)
    sys.stdout.write(render_input(params, config))
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.service import QuotaPolicy, SweepServer, TenantQuotas

    try:
        policy = QuotaPolicy(
            rate_per_s=args.rate,
            burst=args.burst,
            max_inflight=args.max_inflight,
            blocked=frozenset(args.block or ()),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    server = SweepServer(
        args.dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        retries=args.retries,
        timeout_s=args.timeout,
        quotas=TenantQuotas(policy),
        execution=args.execution,
    )

    async def _serve() -> None:
        await server.start()
        if server.queue.recovered:
            print(
                f"recovered {len(server.queue.recovered)} interrupted "
                "job(s) from the journal",
                file=sys.stderr,
            )
        print(f"sweep service listening on {server.url} (data: {server.data_dir})")
        print(f"  submit:  curl -X POST {server.url}/runs -d @spec.json")
        print(f"  status:  curl {server.url}/runs/<id>")
        print(f"  events:  curl -N {server.url}/runs/<id>/events")
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("shutting down (journal keeps pending jobs)", file=sys.stderr)
    return 0


def cmd_recommend(args) -> int:
    from repro.core.recommendations import render_recommendations

    result = Simulation(_spec(args)).run()
    print(render_recommendations(result))
    return 0


def cmd_sweep(args) -> int:
    from repro.core import sweeps

    params, config = _build(args)
    if args.axis == "block":
        series = sweeps.block_size_sweep(
            params, {config.describe(): config}, ncycles=args.cycles
        )
        print(render_sweep(series, "block size", "FOM vs MeshBlockSize"))
    elif args.axis == "mesh":
        series = sweeps.mesh_size_sweep(
            params, {config.describe(): config}, ncycles=args.cycles
        )
        print(render_sweep(series, "mesh size", "FOM vs mesh size"))
    elif args.axis == "levels":
        series = sweeps.amr_level_sweep(
            params, {config.describe(): config}, ncycles=args.cycles
        )
        print(render_sweep(series, "#AMR levels", "FOM vs AMR depth"))
    elif args.axis == "gpu-ranks":
        points = sweeps.gpu_rank_sweep(
            params, num_gpus=args.gpus, ncycles=args.cycles
        )
        rows = [
            [int(p.x), "OOM" if p.oom else f"{p.fom:.3e}"] for p in points
        ]
        print(render_table(["ranks/GPU", "FOM"], rows, "FOM vs ranks per GPU"))
    else:  # cpu-ranks
        points = sweeps.cpu_rank_sweep(params, ncycles=args.cycles)
        rows = [
            [int(p.x), f"{p.fom:.3e}", f"{p.result.serial_seconds:.3f}"]
            for p in points
        ]
        print(
            render_table(
                ["cores", "FOM", "serial_s"], rows, "CPU strong scaling"
            )
        )
    return 0


def _int_list(raw: str) -> List[int]:
    try:
        return [int(v) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {raw!r}"
        )


#: The CI mini-sweep: two mesh sizes x two block sizes at a scale where
#: each point costs enough for worker-pool parallelism to pay off, and
#: the two expensive block-8 points are near-equal so LPT scheduling
#: splits them across workers (~2x on two workers).
MINI_CAMPAIGN = dict(
    mesh=[80, 96], block=[8, 16], levels=2, ndim=3, scalars=8,
    cycles=2, warmup=1,
)

#: The AMR-policy characterization campaign (ROADMAP item 3): one
#: modeled config, swept along the refinement-policy axis — the
#: threshold baseline against block-budget targets bracketing the
#: wavefront's natural block population, so the summary exposes the
#: FOM / block-count / ghost-traffic / remesh-cost tradeoff per policy.
POLICY_CAMPAIGN = dict(
    mesh=[64], block=[8], levels=2, ndim=3, scalars=8,
    policies=["first_derivative"], budgets=[640, 1024, 1536],
    cycles=6, warmup=1,
)

CAMPAIGN_PRESETS = {"mini": MINI_CAMPAIGN, "policies": POLICY_CAMPAIGN}


def cmd_campaign(args) -> int:
    from repro.core.sweeps import grid_specs, policy_specs
    from repro.orchestration import load_campaign, run_campaign

    if args.report_only:
        artifacts = load_campaign(args.dir)
        print(render_campaign_summary(artifacts))
        return 0

    if args.preset:  # preset values replace the flags they name
        vars(args).update(CAMPAIGN_PRESETS[args.preset])
    params, config = _build(
        args, mesh_size=args.mesh[0], block_size=args.block[0]
    )
    if args.preset == "policies":
        specs = policy_specs(
            params,
            config,
            policies=args.policies,
            budgets=args.budgets,
            ncycles=args.cycles,
            warmup=args.warmup,
        )
    else:
        specs = grid_specs(
            params, config, args.mesh, args.block,
            ncycles=args.cycles, warmup=args.warmup,
        )

    def progress(outcome) -> None:
        if outcome.from_cache:
            status = "cached"
        elif outcome.ok:
            status = "done"
        else:
            status = "FAILED"
        print(f"  [{status:>6}] {outcome.label}")

    summary = run_campaign(
        specs,
        args.dir,
        workers=args.workers,
        retries=args.retries,
        timeout_s=args.timeout,
        progress=progress,
        checkpoint_every=args.checkpoint_every,
    )
    print()
    print(render_campaign_summary(summary.artifacts))
    print()
    print(f"campaign: {summary.describe()}")
    print(f"artifacts: {summary.campaign_dir}/points/")
    return 1 if summary.failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parthenon-VIBE AMR characterization (IISWC 2025 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a Parthenon-style input deck")
    p_run.add_argument("input", help="path to the input deck")
    p_run.add_argument("--cycles", type=int, default=5)
    p_run.add_argument("--warmup", type=int, default=0)
    _add_option_args(p_run, "run")
    p_run.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="checkpoint directory (default: ./checkpoints when enabled)",
    )
    p_run.add_argument(
        "--restart-from", default=None, metavar="PATH",
        help="resume from a checkpoint: a manifest .json, payload .pkl, "
        "or a checkpoint directory (resolves to the latest valid one); "
        "the resumed run is bitwise identical to an uninterrupted one",
    )
    p_run.set_defaults(fn=cmd_run)

    p_char = sub.add_parser(
        "characterize", help="run one configuration and print its report"
    )
    _add_config_args(p_char, "characterize")
    p_char.add_argument(
        "--trace", help="write a chrome://tracing timeline JSON here"
    )
    p_char.set_defaults(fn=cmd_characterize)

    p_deck = sub.add_parser("deck", help="emit an input deck for a config")
    _add_config_args(p_deck, "deck")
    p_deck.set_defaults(fn=cmd_deck)

    p_trace = sub.add_parser(
        "trace",
        help="run a deck with tracing and export the span tree, or diff "
        "two canonical traces region by region",
    )
    p_trace.add_argument(
        "input", nargs="?",
        help="input deck to run (omit when using --diff)",
    )
    p_trace.add_argument(
        "--format", choices=("canonical", "chrome", "summary"),
        default="canonical",
        help="canonical = schema-versioned golden-file JSON; chrome = "
        "Perfetto/chrome://tracing timeline; summary = human tables",
    )
    p_trace.add_argument(
        "-o", "--output", help="write here instead of stdout"
    )
    p_trace.add_argument("--cycles", type=int, default=None)
    p_trace.add_argument("--warmup", type=int, default=None)
    _add_option_args(p_trace, "trace")
    p_trace.add_argument(
        "--diff", nargs=2, metavar=("A", "B"),
        help="compare two canonical trace JSON files; exit 1 if any "
        "region's total differs by more than --tolerance",
    )
    p_trace.add_argument(
        "--tolerance", type=float, default=0.0,
        help="relative per-region tolerance for --diff (default: exact)",
    )
    p_trace.set_defaults(fn=cmd_trace)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter axis")
    p_sweep.add_argument(
        "axis", choices=("block", "mesh", "levels", "gpu-ranks", "cpu-ranks")
    )
    _add_config_args(p_sweep, "sweep")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_camp = sub.add_parser(
        "campaign",
        help="run a mesh x block campaign: parallel workers, per-point "
        "failure isolation, resumable via the artifact cache",
    )
    p_camp.add_argument(
        "--mesh", type=_int_list, default=[OPTION["mesh_size"].default],
        help="comma-separated mesh sizes (the campaign's first axis)",
    )
    p_camp.add_argument(
        "--block", type=_int_list, default=[OPTION["block_size"].default],
        help="comma-separated MeshBlock sizes (the second axis)",
    )
    _add_config_args(p_camp, "campaign")
    p_camp.add_argument(
        "--dir", required=True, help="campaign directory (artifacts + cache)"
    )
    p_camp.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: os.cpu_count())",
    )
    p_camp.add_argument(
        "--retries", type=int, default=1,
        help="re-attempts per failing point before recording an error",
    )
    p_camp.add_argument(
        "--timeout", type=float, default=None,
        help="per-point wall-clock limit in seconds",
    )
    p_camp.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="checkpoint each point every N cycles under "
        "<dir>/checkpoints/<key>/ and resume crashed points from their "
        "last checkpoint on retry (0 disables)",
    )
    p_camp.add_argument(
        "--preset", choices=("mini", "policies"), default=None,
        help="'mini' = the CI 2x2 mesh x block quick campaign; "
        "'policies' = the AMR-policy characterization sweep "
        "(threshold baseline vs. block-budget targets on one config)",
    )
    p_camp.add_argument(
        "--report-only", action="store_true",
        help="render the summary from existing artifacts without running",
    )
    p_camp.set_defaults(fn=cmd_campaign)

    p_rec = sub.add_parser(
        "recommend", help="rank serial bottlenecks with §VIII advice"
    )
    _add_config_args(p_rec, "recommend")
    p_rec.set_defaults(fn=cmd_recommend)

    p_serve = sub.add_parser(
        "serve",
        help="run the sweep service: an HTTP server with a persistent, "
        "dedup-by-cache-key job queue over a campaign directory",
    )
    p_serve.add_argument(
        "--dir", required=True,
        help="service data directory (queue journal + artifact cache)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8321,
        help="listen port (0 = ephemeral; default 8321)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2,
        help="concurrent run executors (default 2)",
    )
    p_serve.add_argument(
        "--retries", type=int, default=1,
        help="re-attempts per failing run before recording an error",
    )
    p_serve.add_argument(
        "--timeout", type=float, default=None,
        help="per-run wall-clock limit in seconds",
    )
    p_serve.add_argument(
        "--execution", choices=("process", "thread"), default="process",
        help="run executor: forked processes (crash isolation) or "
        "threads (lighter; for tests and constrained hosts)",
    )
    p_serve.add_argument(
        "--rate", type=float, default=50.0,
        help="sustained submissions/s per tenant (token-bucket refill)",
    )
    p_serve.add_argument(
        "--burst", type=int, default=100,
        help="token-bucket burst capacity per tenant",
    )
    p_serve.add_argument(
        "--max-inflight", type=int, default=64,
        help="max live (pending+running) jobs per tenant",
    )
    p_serve.add_argument(
        "--block", action="append", metavar="TENANT",
        help="refuse this tenant outright (repeatable)",
    )
    p_serve.set_defaults(fn=cmd_serve)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, RestartError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
