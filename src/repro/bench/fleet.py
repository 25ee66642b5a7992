"""Fleet target: closed-loop tick throughput plus the canary/rollback outcomes."""

from __future__ import annotations

import argparse
import os
import tempfile
from typing import Dict, List

from repro.bench.floors import Floor, bound, holds
from repro.experiments.drivers import (
    Canary,
    candidate_clone,
    extract_tiny,
    require_min,
    resolve,
    run_fleet,
)


def run_fleet_bench(args: argparse.Namespace) -> Dict:
    """Closed-loop fleet benchmark: tick throughput plus the rollout outcomes.

    Runs the full fleet loop twice against a scratch store, auditing drift
    against the incumbent artifact (the deterministic reference-tree oracle;
    the online-MPC teacher is the ``repro fleet --drift-teacher mpc`` path):

    * **healthy phase** — a bit-identical clone of the incumbent is canaried;
      on multi-shard runs its shard is killed mid-canary.  The candidate must
      *promote* with zero lost ticks — this phase also provides the
      throughput/latency numbers (tick p50/p99, ticks/s).
    * **corrupted phase** — a clone with every leaf forced to its most
      aggressive action is canaried.  The drift detector must alarm and
      *roll back* before the canary window closes; the alarm latency (ticks
      from canary start to first alarm) is recorded.
    """
    from repro.fleet import FleetGroup, TreePolicyTeacher
    from repro.store import PolicyStore

    require_min(args, 1, "buildings", "ticks", "shards")
    scenario = f"{args.climate}/{args.season}"
    min_canary_ticks = max(4, args.ticks // 4)
    kill_tick = args.ticks // 8 if args.shards >= 2 else None
    timeout = args.timeout if args.timeout is not None else 10.0

    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as scratch:
        store = PolicyStore(scratch)
        result = extract_tiny(store, args.climate, args.season, args.seed, args.decision_data)
        incumbent = result.store_key
        # The drift oracle is the verified incumbent artifact itself: at
        # CI/bench scale the tiny MPC teacher's labels are noise-dominated on
        # near-tie (unoccupied) states, so its baseline-relative excess cannot
        # discriminate; the reference tree makes the corrupted-candidate alarm
        # a deterministic floor.  `repro fleet --drift-teacher mpc` runs the
        # faithful online-MPC audit.
        teacher = TreePolicyTeacher(result.policy)

        def run_phase(candidate_id: str, corrupt: bool, inject_kill) -> Dict:
            group = resolve(
                FleetGroup.from_scenario,
                scenario,
                policy_id=incumbent,
                num_buildings=args.buildings,
                base_seed=args.seed,
                days=1,
            )
            canary = Canary(
                candidate_id=candidate_id,
                policy=candidate_clone(result.policy, corrupt=corrupt),
                fraction=0.25,
                min_ticks=min_canary_ticks,
                window=16,
                teacher=teacher,
                drift_sample=24,
                drift_threshold=0.3,
                # The alarm needs headroom to fire *inside* the canary window:
                # min_ticks must undercut min_canary_ticks or the shadow gate
                # always wins the race.
                drift_min_ticks=max(2, min(8, min_canary_ticks - 1)),
                seed=args.seed + 7,
            )
            loop, stats = run_fleet(
                store,
                [group],
                args.ticks,
                shards=args.shards,
                cache_size=8,
                timeout=timeout,
                retries=args.retries,
                degraded=args.degraded,
                canary=canary,
                kill_tick=inject_kill,
            )
            report = loop.report()
            first_alarm = loop.drift.first_alarm_tick(candidate_id)
            report["drift_alarm_fired"] = first_alarm is not None
            report["drift_alarm_latency_ticks"] = (
                first_alarm + 1 if first_alarm is not None else None
            )
            report["restarts"] = stats.get("supervisor", {}).get("restarts", 0)
            return report

        healthy = run_phase("candidate-healthy", False, kill_tick)
        corrupted = run_phase("candidate-corrupted", True, None)

    tick_latency = healthy["tick_latency_seconds"]
    serve_latency = healthy["serve_latency_seconds"]
    return {
        "benchmark": "fleet",
        "buildings": args.buildings,
        "ticks": args.ticks,
        "shards": args.shards,
        "cpu_count": os.cpu_count(),
        "canary_fraction": 0.25,
        "min_canary_ticks": min_canary_ticks,
        "kill_tick": kill_tick,
        "ticks_per_second": healthy["ticks_per_second"],
        "building_ticks_per_second": healthy["building_ticks_per_second"],
        "tick_latency_p50_ms": tick_latency["p50"] * 1e3,
        "tick_latency_p99_ms": tick_latency["p99"] * 1e3,
        "serve_latency_p50_ms": serve_latency["p50"] * 1e3,
        "serve_latency_p99_ms": serve_latency["p99"] * 1e3,
        "promoted": healthy["rollout"]["state"] == "promoted",
        "rolled_back": corrupted["rollout"]["state"] == "rolled_back",
        "drift_alarm_fired": corrupted["drift_alarm_fired"],
        "drift_alarm_latency_ticks": corrupted["drift_alarm_latency_ticks"],
        "lost_ticks": healthy["telemetry"]["lost_ticks"]
        + corrupted["telemetry"]["lost_ticks"],
        "fallback_ticks": healthy["telemetry"]["fallback_ticks"]
        + corrupted["telemetry"]["fallback_ticks"],
        "restarts": healthy["restarts"] + corrupted["restarts"],
    }


def fleet_floors(result: Dict) -> List[Floor]:
    """Outcome floors, absolute on every runner: the loop is right or it is not."""
    return [
        holds(result, "promoted", "healthy candidate failed to promote"),
        holds(result, "rolled_back", "corrupted candidate was not rolled back"),
        holds(result, "drift_alarm_fired", "drift alarm never fired on the corrupted candidate"),
        bound(result, "lost_ticks", "==", 0),
    ]
