"""Command-line front door: ``python -m repro`` (or the ``repro`` script).

Subcommands::

    repro run       evaluate a registered agent on a scenario
    repro extract   run the extract-verify-deploy pipeline, print Table-2 stats
    repro agents    list registered agents and aliases
    repro scenarios list the scenario grid (climate × season × building)
    repro climates  list climate profiles and descriptor aliases
    repro policies  list/prune/verify the policy store
    repro serve     drive the compiled policy server with a request stream
    repro fleet     run the closed-loop simulated fleet (canary/shadow/drift)
    repro bench     run one benchmark target, write its JSON, exit 1 on a failed floor

Examples::

    python -m repro run --agent rule_based --climate pittsburgh --steps 96
    python -m repro run --agent dt --climate hot_humid --season summer
    python -m repro extract --climate tucson --preset tiny --save policy.json
    python -m repro extract --preset tiny --dtype float32
    python -m repro serve --requests 100000 --batch-size 512 --columnar
    python -m repro serve --requests 500000 --batch-size 8192 --shards 4
    python -m repro bench --target serve-columnar --rows 100000
    python -m repro bench --target serve-sharded --rows 200000 --shards 4
    python -m repro bench --target serve-faults --rows 40000 --shards 4
    python -m repro serve --shards 4 --retries 3 --degraded fallback
    python -m repro fleet --buildings 1024 --ticks 48 --shards 2 --canary 0.25
    python -m repro fleet --buildings 256 --canary 0.25 --corrupt-candidate
    python -m repro bench --target fleet --buildings 512 --ticks 48 --shards 2
    python -m repro policies --verify
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro.analysis.reprolint import add_lint_arguments, run_lint_command
from repro.bench import FAIL, TARGETS
from repro.experiments.drivers import (
    Canary,
    CLIError,
    candidate_clone,
    experiment_runner,
    extract_tiny,
    fit_planner,
    mixed_traffic,
    pipeline_config,
    require_min,
    resolve,
    run_fleet,
    stream_columnar,
)
from repro.utils.serialization import save_json, to_jsonable
from repro.utils.tables import format_table


def _parse_agent_args(pairs: List[str]) -> Dict:
    """Parse repeated ``--agent-arg key=value`` options (values via JSON when possible)."""
    config: Dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--agent-arg expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            config[key] = json.loads(raw)
        except json.JSONDecodeError:
            config[key] = raw
    return config


# ------------------------------------------------------------------ commands
def cmd_run(args: argparse.Namespace) -> int:
    from repro.agents.registry import canonical_name
    from repro.experiments.runner import ExperimentResult

    runner = experiment_runner(
        args, args.climate, args.season, args.building, args.disturbance, max_steps=args.steps
    )
    agent = resolve(canonical_name, args.agent)
    result = runner.run(agent, agent_config=_parse_agent_args(args.agent_arg))
    print(format_table(ExperimentResult.SUMMARY_HEADER, [result.summary_row()]))
    if args.output:
        save_json(result.to_dict(), args.output)
        print(f"Wrote {args.output}")
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    from repro.core.pipeline import VerifiedPolicyPipeline

    config = pipeline_config(
        args.climate, args.season, args.seed, args.decision_data, args.preset, args.dtype
    )
    result = VerifiedPolicyPipeline(config, store=args.store).run(refresh=args.refresh)
    if result.store_key:
        verb = "Loaded" if result.cache_hit else "Stored"
        print(f"{verb} policy {result.store_key}")

    summary = result.summary_dict()
    rows = [[key, summary[key]] for key in sorted(summary) if key != "stage_seconds"]
    print(format_table(["metric", "value"], rows))
    if args.print_tree:
        print(result.describe(max_depth=args.max_print_depth))
    if args.save:
        result.save_policy(args.save)
        print(f"Wrote {args.save}")
    return 0


def cmd_agents(_args: argparse.Namespace) -> int:
    from repro.agents.registry import agent_aliases, agent_summaries

    aliases_by_name: Dict[str, List[str]] = {}
    for alias, target in agent_aliases().items():
        aliases_by_name.setdefault(target, []).append(alias)
    rows = [
        [name, ", ".join(sorted(aliases_by_name.get(name, []))) or "-", summary]
        for name, summary in agent_summaries().items()
    ]
    print(format_table(["agent", "aliases", "description"], rows))
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.env.disturbances import DISTURBANCES
    from repro.experiments.scenarios import scenario_grid

    if args.disturbances:
        rows = [
            [name, ", ".join(sorted(spec.active_components())) or "-"]
            for name, spec in sorted(DISTURBANCES.items())
        ]
        print(format_table(["disturbance", "active fault components"], rows))
        return 0
    grid = resolve(
        scenario_grid,
        cities=[args.climate] if args.climate else None,
        seasons=[args.season] if args.season else None,
    )
    rows = [[s.name, s.city, s.season, s.building, s.days] for s in grid]
    print(format_table(["scenario", "city", "season", "building", "days"], rows))
    return 0


def cmd_climates(_args: argparse.Namespace) -> int:
    from repro.weather.climates import available_climate_aliases, available_climates, get_climate

    rows = []
    for name in available_climates():
        profile = get_climate(name)
        rows.append(
            [
                name,
                profile.ashrae_zone,
                profile.january_mean_c,
                profile.monthly_mean_c(7),
            ]
        )
    print(format_table(["city", "ASHRAE", "Jan mean °C", "Jul mean °C"], rows))
    alias_rows = [[alias, city] for alias, city in sorted(available_climate_aliases().items())]
    print(format_table(["alias", "city"], alias_rows))
    return 0


def _open_store(path):
    from repro.store import PolicyStore

    return PolicyStore(path) if path else PolicyStore()


def cmd_policies(args: argparse.Namespace) -> int:
    from repro.weather.climates import get_climate

    store = _open_store(args.store)
    # Store paths use canonical city names; accept descriptor aliases like
    # every other subcommand.
    city = resolve(get_climate, args.climate).name if args.climate else None
    if args.prune_keep is not None:
        removed = resolve(
            store.prune, keep=args.prune_keep, city=city, season=args.season
        )
        print(f"Pruned {len(removed)} artifact(s) from {store.root}")
    if args.pack is not None:
        # Pack before verify so a --pack --verify run checks the fresh arena.
        target = None if args.pack is True else args.pack
        arena_path = resolve(store.pack, path=target, city=city, season=args.season)
        print(f"Packed arena {arena_path} ({arena_path.stat().st_size} bytes)")
    if args.verify:
        report = store.verify()
        bad = [name for name, ok in report.items() if not ok]
        print(f"Integrity: {len(report) - len(bad)}/{len(report)} artifacts OK")
        for name in bad:
            print(f"  CORRUPT: {name}")
    from repro.store import StoreEntry

    entries = store.entries(city=city, season=args.season)
    if not entries:
        print(f"No stored policies under {store.root}")
        return 0
    print(format_table(StoreEntry.ROW_HEADER, [entry.as_row() for entry in entries]))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import time

    from repro.serving import PolicyRequest, PolicyServer, ShardedPolicyServer

    require_min(args, 1, "requests", "batch_size", "shards")
    store = _open_store(args.store)
    if not store.entries():
        print(f"Store {store.root} has no matching policy; extracting a tiny one...")
        result = extract_tiny(store, args.climate, args.season, args.seed, args.decision_data)
        print(f"Stored policy {result.store_key}")
    # --arena maps straight onto resolve_arena(): absent -> auto-detect,
    # bare flag -> require, PATH -> open that file.
    arena = True if args.arena is True else (args.arena if args.arena else None)
    sharded = args.shards > 1
    if sharded:
        # The sharded fleet speaks columnar natively; the per-request object
        # stream makes no sense across a process boundary.
        server = resolve(
            ShardedPolicyServer,
            store=store,
            num_shards=args.shards,
            cache_size=args.cache_size,
            timeout=args.timeout,
            retries=args.retries,
            degraded=args.degraded,
            arena=arena,
        )
    else:
        server = resolve(PolicyServer, store=store, cache_size=args.cache_size, arena=arena)
    if server.arena_error:
        print(f"arena skipped: {server.arena_error}")
    policy_ids = [entry.key.name for entry in store.entries()]
    if sharded:
        dim = PolicyServer(store=store, cache_size=1, arena=False).resolve(policy_ids[0]).n_features
    else:
        dim = server.resolve(policy_ids[0]).n_features

    traffic = mixed_traffic(policy_ids, args.requests, dim, args.seed)

    start = time.perf_counter()
    try:
        if args.columnar or sharded:
            # Arrays in, arrays out: no per-request python objects anywhere.
            stream_columnar(server, traffic, args.batch_size)
        else:
            ids, rows = traffic.policy_ids, traffic.observations
            for lo in range(0, args.requests, args.batch_size):
                server.serve([
                    PolicyRequest(policy_id=ids[i], observation=rows[i])
                    for i in range(lo, min(lo + args.batch_size, args.requests))
                ])
        wall = time.perf_counter() - start
        stats = server.stats() if sharded else server.stats.to_dict()
    finally:
        # A serving error must not strand the worker fleet, its rings, or an
        # arena mapping the server opened itself.
        server.close()
    summary = {
        "requests": args.requests,
        "batch_size": args.batch_size,
        "columnar": bool(args.columnar or sharded),
        "shards": args.shards,
        "policies": len(policy_ids),
        "wall_seconds": wall,
        "requests_per_second": args.requests / wall if wall > 0 else float("inf"),
        "server_stats": stats,
    }
    print(
        format_table(
            ["requests", "policies", "batch", "columnar", "shards", "wall s", "req/s"],
            [[args.requests, len(policy_ids), args.batch_size,
              str(bool(args.columnar or sharded)), args.shards,
              round(wall, 4), round(summary["requests_per_second"], 1)]],
        )
    )
    supervisor = stats.get("supervisor") if sharded else None
    if supervisor:
        # Fleet health: one row per shard from the supervisor's describe().
        print(
            format_table(
                ["shard", "pid", "alive", "gen", "restarts", "heartbeat age s"],
                [
                    [
                        shard,
                        shard_state["pid"],
                        str(shard_state["alive"]),
                        shard_state["generation"],
                        shard_state["restarts"],
                        round(shard_state["last_heartbeat_age_seconds"], 2),
                    ]
                    for shard, shard_state in sorted(supervisor["shards"].items())
                ],
            )
        )
        fleet_counters = stats.get("fleet", {})
        print(
            f"fleet: restarts={supervisor['restarts']} "
            f"retries={fleet_counters.get('retries', 0)} "
            f"fallback_rows={fleet_counters.get('fallback_rows', 0)} "
            f"lost_requests={fleet_counters.get('lost_requests', 0)}"
        )
    if args.stats_json:
        # Machine-readable fleet/supervisor counters: CI and the fleet loop
        # assert on restarts / lost_requests without scraping tables.
        save_json(to_jsonable(stats), args.stats_json)
        print(f"Wrote {args.stats_json}")
    if args.output:
        save_json(to_jsonable(summary), args.output)
        print(f"Wrote {args.output}")
    return 0


def _ensure_scenario_policy(store, scenario_name: str, seed: int, decision_data=None) -> str:
    """Resolve (or tiny-extract) a store policy for one scenario; returns its name."""
    from repro.experiments.scenarios import ScenarioSpec

    spec = resolve(ScenarioSpec.from_name, scenario_name)
    entries = store.entries(city=spec.city, season=spec.season)
    if entries:
        return entries[0].key.name
    print(
        f"Store {store.root} has no {spec.city}/{spec.season} policy; "
        "extracting a tiny one..."
    )
    result = extract_tiny(store, spec.city, spec.season, seed, decision_data)
    print(f"Stored policy {result.store_key}")
    return result.store_key


def _build_mpc_teacher(climate: str, season: str, seed: int):
    """Wrap the RS optimizer as a drift teacher, tiny-pipeline hyper-parameters.

    The dynamics model is trained from scratch, so the teacher is an
    independent oracle rather than the one the incumbent was distilled from.
    """
    from repro.fleet import MPCTeacher

    config = pipeline_config(climate, season, seed)
    environment, _, optimizer = fit_planner(
        config.city,
        season,
        seed,
        days=config.historical_days,
        hidden_sizes=config.hidden_sizes,
        epochs=config.training_epochs,
        num_samples=config.optimizer_samples,
        horizon=config.planning_horizon,
        discount=config.discount,
    )
    return MPCTeacher(
        optimizer,
        environment.action_space.pairs,
        monte_carlo_runs=config.monte_carlo_runs,
        planning_horizon=config.planning_horizon,
        seed=seed + 5,
    )


def cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import FleetGroup, TreePolicyTeacher

    require_min(args, 1, "buildings", "ticks", "shards")
    if not 0.0 <= args.canary <= 1.0:
        raise CLIError("--canary must be a fraction in [0, 1]")
    if args.inject_kill is not None and args.shards < 2:
        raise CLIError("--inject-kill needs --shards >= 2")
    scenario_names = [name.strip() for name in args.scenarios.split(",") if name.strip()]
    if not scenario_names:
        raise CLIError("--scenarios must name at least one scenario")

    store = _open_store(args.store)
    incumbents = [
        _ensure_scenario_policy(store, name, args.seed, args.decision_data)
        for name in scenario_names
    ]
    per_group = [
        args.buildings // len(scenario_names)
        + (1 if index < args.buildings % len(scenario_names) else 0)
        for index in range(len(scenario_names))
    ]
    groups = [
        resolve(
            FleetGroup.from_scenario,
            name,
            policy_id=incumbent,
            num_buildings=count,
            base_seed=args.seed + 1000 * index,
            distinct=args.distinct,
            days=args.days,
        )
        for index, (name, incumbent, count) in enumerate(
            zip(scenario_names, incumbents, per_group)
        )
        if count > 0
    ]

    canary = None
    if args.canary > 0:
        stored = store.find(incumbents[0])
        if stored is None:
            raise CLIError(f"Incumbent {incumbents[0]} vanished from the store")
        if args.drift_teacher == "mpc":
            from repro.experiments.scenarios import ScenarioSpec

            lead = resolve(ScenarioSpec.from_name, scenario_names[0])
            teacher = _build_mpc_teacher(lead.city, lead.season, args.seed + 100)
        else:
            teacher = TreePolicyTeacher(stored.policy)
        canary = Canary(
            candidate_id="candidate-corrupted" if args.corrupt_candidate else "candidate-healthy",
            policy=candidate_clone(stored.policy, corrupt=args.corrupt_candidate),
            fraction=args.canary,
            min_ticks=args.min_canary_ticks,
            window=args.window,
            teacher=teacher,
            drift_sample=args.drift_sample,
            drift_threshold=args.drift_threshold,
            drift_min_ticks=max(2, args.window // 2),
            seed=args.seed + 7,
        )
    loop, stats = run_fleet(
        store,
        groups,
        args.ticks,
        shards=args.shards,
        cache_size=args.cache_size,
        timeout=args.timeout,
        retries=args.retries,
        degraded=args.degraded,
        canary=canary,
        kill_tick=args.inject_kill,
        fallback=not args.no_fallback,
    )

    report = loop.report()
    report["server_stats"] = stats
    telemetry = report["telemetry"]
    latency = report["tick_latency_seconds"]
    print(
        format_table(
            ["buildings", "ticks", "ticks/s", "p50 ms", "p99 ms", "fallback", "lost", "state"],
            [[
                report["buildings"],
                report["ticks"],
                round(report["ticks_per_second"], 2),
                round(latency["p50"] * 1e3, 2),
                round(latency["p99"] * 1e3, 2),
                telemetry["fallback_ticks"],
                telemetry["lost_ticks"],
                loop.rollout.state if loop.rollout is not None else "-",
            ]],
        )
    )
    if loop.rollout is not None:
        for event in report["rollout"]["events"]:
            print(f"tick {event['tick']}: {event['previous']} -> {event['state']} ({event['reason']})")
    if args.stats_json:
        save_json(to_jsonable(stats), args.stats_json)
        print(f"Wrote {args.stats_json}")
    if args.output:
        save_json(to_jsonable(report), args.output)
        print(f"Wrote {args.output}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """``repro lint`` — run reprolint with the shared argument schema."""
    return run_lint_command(args)


def cmd_bench(args: argparse.Namespace) -> int:
    """``repro bench`` — run one target, write its JSON, then apply its floors."""
    target = TARGETS[args.target]
    payload = to_jsonable(target.run(args))
    print(json.dumps(payload, indent=2))
    if args.output:
        save_json(payload, args.output)
        print(f"Wrote {args.output}")
    floors = target.floors(payload)
    for floor in floors:
        print(floor)
    failed = [floor for floor in floors if floor.status == FAIL]
    if failed:
        print(f"error: {len(failed)} bench floor(s) failed:", file=sys.stderr)
        for floor in failed:
            print(f"  {floor.name}: {floor.message}", file=sys.stderr)
        return 1
    return 0


# -------------------------------------------------------------------- parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Verified decision-tree HVAC policies: unified experiment CLI.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate a registered agent on a scenario")
    run.add_argument("--agent", default="rule_based", help="registered agent name or alias")
    run.add_argument("--climate", default="pittsburgh", help="city name or climate alias")
    run.add_argument("--season", default="winter", choices=["winter", "summer"])
    run.add_argument("--building", default="office", help="building variant")
    run.add_argument(
        "--disturbance",
        default=None,
        help="fault profile applied to every episode (see `repro scenarios --disturbances`)",
    )
    run.add_argument("--days", type=int, default=7, help="episode length in days")
    run.add_argument("--steps", type=int, default=None, help="cap on steps per episode")
    run.add_argument("--episodes", type=int, default=1)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--backend",
        default="serial",
        choices=["serial", "batched", "process"],
        help="episode execution backend (identical results, different speed)",
    )
    run.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="episodes stepped together per chunk (batched backend)",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (process backend; default: CPU count)",
    )
    run.add_argument(
        "--agent-arg",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="extra agent constructor option (repeatable; values parsed as JSON)",
    )
    run.add_argument("--output", default=None, help="write the full result JSON here")
    run.set_defaults(func=cmd_run)

    extract = sub.add_parser("extract", help="run the extract-verify-deploy pipeline")
    extract.add_argument("--climate", default="pittsburgh")
    extract.add_argument("--season", default="winter", choices=["winter", "summer"])
    extract.add_argument("--seed", type=int, default=0)
    extract.add_argument("--preset", default="paper", choices=["paper", "tiny"])
    extract.add_argument("--decision-data", type=int, default=None)
    extract.add_argument(
        "--dtype",
        default=None,
        choices=["float64", "float32"],
        help="dynamics-model inference dtype (float32: the BLAS fast path)",
    )
    extract.add_argument("--print-tree", action="store_true")
    extract.add_argument("--max-print-depth", type=int, default=4)
    extract.add_argument("--save", default=None, help="write the verified policy JSON here")
    extract.add_argument(
        "--store",
        nargs="?",
        const=True,
        default=None,
        metavar="PATH",
        help="persist to (and resolve from) the policy store; optional custom root",
    )
    extract.add_argument(
        "--refresh",
        action="store_true",
        help="force re-extraction even when the store already has this configuration",
    )
    extract.set_defaults(func=cmd_extract)

    agents = sub.add_parser("agents", help="list registered agents")
    agents.set_defaults(func=cmd_agents)

    scenarios = sub.add_parser("scenarios", help="list the scenario grid")
    scenarios.add_argument("--climate", default=None)
    scenarios.add_argument("--season", default=None, choices=["winter", "summer"])
    scenarios.add_argument(
        "--disturbances",
        action="store_true",
        help="list the named disturbance profiles instead of the scenario grid",
    )
    scenarios.set_defaults(func=cmd_scenarios)

    climates = sub.add_parser("climates", help="list climate profiles and aliases")
    climates.set_defaults(func=cmd_climates)

    policies = sub.add_parser("policies", help="list/prune/verify the policy store")
    policies.add_argument("--store", default=None, metavar="PATH", help="store root (default: $REPRO_POLICY_STORE or ~/.cache/repro/policy-store)")
    policies.add_argument("--climate", default=None, help="filter by city")
    policies.add_argument("--season", default=None, choices=["winter", "summer"])
    policies.add_argument(
        "--prune-keep",
        type=int,
        default=None,
        metavar="N",
        help="delete all but the N newest matching artifacts",
    )
    policies.add_argument("--verify", action="store_true", help="integrity-check every artifact")
    policies.add_argument(
        "--pack",
        nargs="?",
        const=True,
        default=None,
        metavar="PATH",
        help=(
            "pack the matching policies into one mmap'able arena "
            "(default target: <store>/policies.arena)"
        ),
    )
    policies.set_defaults(func=cmd_policies)

    serve = sub.add_parser(
        "serve", help="drive the compiled policy server with a synthetic request stream"
    )
    serve.add_argument("--store", default=None, metavar="PATH", help="policy store root")
    serve.add_argument("--requests", type=int, default=10000, help="total requests to serve")
    serve.add_argument("--batch-size", type=int, default=256, help="requests per server batch")
    serve.add_argument(
        "--columnar",
        action="store_true",
        help="drive the columnar front door (PolicyRequestBatch; arrays in, arrays out)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help=(
            "worker processes for the sharded server (>1 spawns a "
            "ShardedPolicyServer over the shared-memory transport; implies columnar)"
        ),
    )
    serve.add_argument("--cache-size", type=int, default=8, help="compiled-policy LRU size (per shard)")
    serve.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="seconds to wait on a shard per attempt before restarting it",
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=2,
        help="re-dispatch attempts for a failed shard slice (after restart)",
    )
    serve.add_argument(
        "--degraded",
        default="fail",
        choices=["fail", "fallback"],
        help=(
            "when the retry budget is exhausted: 'fail' raises, 'fallback' "
            "serves the slice with a parent-side in-process server"
        ),
    )
    serve.add_argument("--climate", default="pittsburgh", help="city for auto-extraction")
    serve.add_argument("--season", default="winter", choices=["winter", "summer"])
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--decision-data", type=int, default=None, help="decision-dataset size for auto-extraction"
    )
    serve.add_argument(
        "--arena",
        nargs="?",
        const=True,
        default=None,
        metavar="PATH",
        help=(
            "serve from the packed mmap arena: bare flag requires "
            "<store>/policies.arena, PATH opens that file (default: "
            "auto-detect when present)"
        ),
    )
    serve.add_argument(
        "--stats-json",
        default=None,
        metavar="PATH",
        help="write the raw server counters (fleet/supervisor) as JSON here",
    )
    serve.add_argument("--output", default=None, help="write the throughput summary JSON here")
    serve.set_defaults(func=cmd_serve)

    fleet = sub.add_parser(
        "fleet",
        help="run the closed-loop simulated fleet (canary/shadow/drift rollouts)",
        description="Drive a fleet of simulated buildings through the serving "
        "stack tick by tick: observations out, actions back, telemetry "
        "accumulated — with optional canary rollout of a candidate policy "
        "gated on shadow evaluation and teacher-drift detection.",
    )
    fleet.add_argument("--buildings", type=int, default=256, help="total simulated buildings")
    fleet.add_argument("--ticks", type=int, default=48, help="control ticks to run")
    fleet.add_argument(
        "--scenarios",
        default="pittsburgh/winter",
        help="comma-separated scenario names (city/season); buildings are split across them",
    )
    fleet.add_argument("--days", type=int, default=None, help="episode length per building")
    fleet.add_argument(
        "--distinct",
        type=int,
        default=16,
        help="distinct disturbance traces per group (tiled across the buildings)",
    )
    fleet.add_argument(
        "--shards", type=int, default=1, help="serving worker processes (1 = in-process)"
    )
    fleet.add_argument("--cache-size", type=int, default=8, help="compiled-policy LRU size (per shard)")
    fleet.add_argument("--timeout", type=float, default=10.0, help="per-attempt shard timeout seconds")
    fleet.add_argument("--retries", type=int, default=2, help="re-dispatch attempts per failed slice")
    fleet.add_argument(
        "--degraded",
        default="fail",
        choices=["fail", "fallback"],
        help="server behaviour when the retry budget is exhausted",
    )
    fleet.add_argument(
        "--canary",
        type=float,
        default=0.0,
        metavar="FRACTION",
        help="canary a candidate policy on this fraction of buildings (0 disables)",
    )
    fleet.add_argument(
        "--corrupt-candidate",
        action="store_true",
        help="canary a deliberately broken candidate (exercises drift alarm + rollback)",
    )
    fleet.add_argument(
        "--min-canary-ticks",
        type=int,
        default=16,
        help="healthy canary ticks required before promotion",
    )
    fleet.add_argument(
        "--drift-teacher",
        default="tree",
        choices=["tree", "mpc"],
        help="drift oracle: the incumbent tree (cheap) or the MPC optimizer (faithful)",
    )
    fleet.add_argument(
        "--drift-sample", type=int, default=32, help="fleet rows audited per tick"
    )
    fleet.add_argument(
        "--drift-threshold",
        type=float,
        default=0.25,
        help="excess teacher-disagreement (over the incumbent) that trips the alarm",
    )
    fleet.add_argument(
        "--window", type=int, default=16, help="shadow/drift sliding window in ticks"
    )
    fleet.add_argument(
        "--inject-kill",
        type=int,
        default=None,
        metavar="TICK",
        help="kill the candidate's shard at this tick (needs --shards >= 2)",
    )
    fleet.add_argument(
        "--no-fallback",
        action="store_true",
        help="disable the hysteresis degraded mode (failed ticks become lost ticks)",
    )
    fleet.add_argument("--store", default=None, metavar="PATH", help="policy store root")
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument(
        "--decision-data", type=int, default=None, help="decision-dataset size for auto-extraction"
    )
    fleet.add_argument(
        "--stats-json",
        default=None,
        metavar="PATH",
        help="write the raw server counters (fleet/supervisor) as JSON here",
    )
    fleet.add_argument("--output", default=None, help="write the full fleet report JSON here")
    fleet.set_defaults(func=cmd_fleet)

    bench = sub.add_parser(
        "bench",
        help="time rollouts, MC distillation or policy serving, write a benchmark JSON",
    )
    bench.add_argument(
        "--target",
        default="rollout",
        choices=list(TARGETS),
        help=(
            "what to benchmark: rollouts, decision-dataset distillation, policy "
            "serving, the columnar vs legacy serving front door, the "
            "multi-process sharded server vs single-process columnar, "
            "fleet recovery under injected kill/hang faults, the packed "
            "arena vs per-file JSON cold load, the "
            "closed-loop fleet (throughput + canary/rollback floors), or the "
            "agent × fault robustness table (comfort/energy per disturbance)"
        ),
    )
    bench.add_argument("--agent", default="rule_based")
    bench.add_argument("--climate", default="pittsburgh")
    bench.add_argument("--season", default="winter", choices=["winter", "summer"])
    bench.add_argument("--days", type=int, default=1)
    bench.add_argument("--episodes", type=int, default=3)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--backend", default="serial", choices=["serial", "batched", "process"]
    )
    bench.add_argument("--batch-size", type=int, default=None)
    bench.add_argument("--workers", type=int, default=None)
    bench.add_argument(
        "--entries", type=int, default=96, help="decision-dataset entries (distill target)"
    )
    bench.add_argument(
        "--samples", type=int, default=64, help="RS candidate sequences (distill target)"
    )
    bench.add_argument(
        "--mc-runs", type=int, default=3, help="Monte-Carlo runs per entry (distill target)"
    )
    bench.add_argument(
        "--horizon", type=int, default=5, help="planning horizon (distill target)"
    )
    bench.add_argument(
        "--rows", type=int, default=20000, help="request batch rows (serve target)"
    )
    bench.add_argument(
        "--policies",
        type=int,
        default=10000,
        help="synthetic stored policies (store-cold target)",
    )
    bench.add_argument(
        "--buildings", type=int, default=512, help="simulated buildings (fleet target)"
    )
    bench.add_argument(
        "--ticks", type=int, default=48, help="control ticks per phase (fleet target)"
    )
    bench.add_argument(
        "--decision-data",
        type=int,
        default=None,
        help="decision-dataset size for auto-extraction (serve and fleet targets)",
    )
    bench.add_argument(
        "--shards",
        type=int,
        default=4,
        help="worker processes (serve-sharded / serve-faults targets)",
    )
    bench.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-attempt shard timeout in seconds (serve-faults; default 1.0)",
    )
    bench.add_argument(
        "--retries",
        type=int,
        default=2,
        help="re-dispatch attempts for a failed slice (serve-faults target)",
    )
    bench.add_argument(
        "--degraded",
        default="fail",
        choices=["fail", "fallback"],
        help="exhausted-budget policy under faults (serve-faults target)",
    )
    bench.add_argument(
        "--faults",
        default=None,
        metavar="A,B,...",
        help="comma-separated fault profiles (robustness target; default: the standard set)",
    )
    bench.add_argument(
        "--robust-agents",
        default=None,
        metavar="A,B,...",
        help="comma-separated agent names (robustness target; default: teacher, dt and classical baselines)",
    )
    bench.add_argument("--output", default=None)
    bench.set_defaults(func=cmd_bench)

    lint = sub.add_parser(
        "lint",
        help="run reprolint, the repo's AST-based invariant linter",
        description="Static analysis of the repro tree against its own "
        "invariants: dtype policy, zero-copy transport, schema contracts, "
        "resource ownership and RNG discipline.  Exits non-zero on any "
        "finding not acknowledged by the committed baseline.",
    )
    add_lint_arguments(lint)
    lint.set_defaults(func=cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CLIError as exc:
        # User-input problems (bad agent/climate/scenario names, invalid
        # values) carry a helpful listing; show it without the traceback.
        # Genuine internal failures still propagate with a full traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
