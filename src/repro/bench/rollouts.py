"""Rollout targets: episode throughput and the agent × fault robustness table."""

from __future__ import annotations

import argparse
from typing import Dict, List

from repro.bench.floors import Floor, bound, check
from repro.experiments.drivers import experiment_runner, resolve


def run_rollout(args: argparse.Namespace) -> Dict:
    """Roll one agent over ``--episodes`` episodes and report steps/s."""
    from repro.agents.registry import canonical_name

    runner = experiment_runner(args, args.climate, args.season)
    agent = resolve(canonical_name, args.agent)
    result = runner.run(agent)
    return {
        "benchmark": "rollout",
        "scenario": runner.scenario.name,
        "agent": result.agent,
        "days": args.days,
        "episodes": args.episodes,
        "backend": args.backend,
        "batch_size": args.batch_size,
        "steps_per_episode": result.total_steps // max(result.num_episodes, 1),
        "mean_steps_per_second": result.mean_steps_per_second,
        # Per-episode timings are redundant for the batched backend (the
        # batch shares one wall clock, so every episode reports the same
        # aggregate throughput).
        **(
            {"per_episode_steps_per_second": [e.steps_per_second for e in result.episodes]}
            if args.backend != "batched"
            else {}
        ),
    }


def rollout_floors(result: Dict) -> List[Floor]:
    """Throughput floor, applied to batched-backend runs only."""
    # Dev box: ~40-60k steps/s at batch 32; shared runners are 2-3x slower
    # and noisy, so the floor only catches a collapse back toward the ~2.4k
    # serial seed baseline, not normal variance.
    batched = (
        result["backend"] == "batched",
        f"set for the batched backend; this run used {result['backend']}",
    )
    return [bound(result, "mean_steps_per_second", ">=", 6000, batched)]


#: Agents rowed in the robustness table by default: the MPC teacher, the
#: distilled tree and every classical baseline.
ROBUSTNESS_AGENTS = ("mbrl", "dt", "rule_based", "hysteresis", "pid", "ema")

#: Fault classes columned in the robustness table by default (a subset of
#: :data:`repro.env.disturbances.DISTURBANCES` that keeps the quick bench
#: quick; ``--faults`` overrides).
ROBUSTNESS_FAULTS = (
    "clean",
    "sensor_noise",
    "sensor_dropout",
    "stuck_damper",
    "weak_hvac",
    "short_cycle",
    "occupancy_surprise",
    "demand_response",
    "heat_wave",
)

#: Faults allowed to leave every agent unchanged, with the reason.  The
#: weather-event machinery behind heat_wave is unit-tested in
#: tests/test_disturbances.py instead.
INERT_FAULTS = {
    "clean": "the reference column",
    "heat_wave": "its 1%/step rare-event schedule realises no window in a seeded 1-day run",
}


def run_robustness(args: argparse.Namespace) -> Dict:
    """Comfort-violation/energy table of every agent under each fault class.

    Runs the full agent × disturbance grid on one scenario with per-episode
    seeds from the shared seed ladder, so the table is deterministic for a
    given (scenario, seed, days, episodes) tuple — the committed
    ``BENCH_robustness.json`` and the golden regression test both rely on
    that.  The model-based agents run deliberately tiny configurations (the
    point is the *relative* degradation under faults, not absolute teacher
    quality).
    """
    from repro.agents.registry import canonical_name
    from repro.env.disturbances import get_disturbance

    agents = [
        resolve(canonical_name, name.strip())
        for name in (args.robust_agents.split(",") if args.robust_agents else ROBUSTNESS_AGENTS)
        if name.strip()
    ]
    faults = [
        name.strip()
        for name in (args.faults.split(",") if args.faults else ROBUSTNESS_FAULTS)
        if name.strip()
    ]
    for fault in faults:
        resolve(get_disturbance, fault)  # validates early, before any run

    # Tiny model-based configurations: fast enough for CI's quick bench while
    # still exercising the full plan/act loop under every fault.
    agent_configs: Dict[str, Dict] = {
        "mbrl": {
            "hidden_sizes": (16, 16),
            "training_epochs": 4,
            "training_days": 1,
            "num_samples": 64,
            "horizon": 5,
        },
        "dt": {"pipeline": {}},
    }

    rows: List[Dict] = []
    for fault in faults:
        runner = experiment_runner(args, args.climate, args.season, "office", fault)
        for agent in agents:
            result = runner.run(agent, agent_config=agent_configs.get(agent, {}))
            rows.append(
                {
                    "agent": agent,
                    "fault": fault,
                    "mean_total_reward": result.mean_total_reward,
                    "mean_energy_kwh": result.mean_energy_kwh,
                    "mean_comfort_violation_rate": result.mean_comfort_violation_rate,
                }
            )

    by_cell = {(row["agent"], row["fault"]): row for row in rows}
    gaps = {
        fault: by_cell[("dt", fault)]["mean_comfort_violation_rate"]
        - by_cell[("mbrl", fault)]["mean_comfort_violation_rate"]
        for fault in faults
        if ("dt", fault) in by_cell and ("mbrl", fault) in by_cell
    }
    return {
        "benchmark": "robustness",
        "scenario": "/".join((args.climate, args.season, "office")),
        "days": args.days,
        "episodes": args.episodes,
        "seed": args.seed,
        "backend": args.backend,
        "agents": agents,
        "faults": faults,
        "rows": rows,
        "dt_vs_teacher_comfort_gap": gaps,
    }


def robustness_floors(result: Dict) -> List[Floor]:
    """Table completeness, the clean rule_based ceiling, and every fault biting."""
    by_cell = {(row["agent"], row["fault"]): row for row in result["rows"]}
    expected = len(result["agents"]) * len(result["faults"])
    clean_rate = by_cell.get(("rule_based", "clean"), {}).get("mean_comfort_violation_rate")
    floors = [
        check(
            "every agent x fault cell present",
            len(by_cell) == expected,
            f"{len(by_cell)} of {expected} cells",
        ),
        # The bench is seeded and deterministic, so this ceiling only catches
        # the clean environment or the schedule controller drifting, not
        # runner noise (committed run: 0.1875).
        check(
            "rule_based clean comfort violation <= 0.3",
            clean_rate is not None and clean_rate <= 0.3,
            f"measured {clean_rate}",
            (clean_rate is not None, "the run has no rule_based/clean cell"),
        ),
    ]
    # Every fault class must perturb at least one agent's outcome relative to
    # clean, or the layer has silently stopped applying (bit-identity is
    # only a virtue when *disabled*).
    for fault in result["faults"]:
        moved = any(
            by_cell[(agent, fault)]["mean_total_reward"]
            != by_cell[(agent, "clean")]["mean_total_reward"]
            for agent in result["agents"]
            if (agent, fault) in by_cell and (agent, "clean") in by_cell
        )
        if fault in INERT_FAULTS:
            gate = (False, f"exempt: {INERT_FAULTS[fault]}")
        else:
            gate = ("clean" in result["faults"], "the run has no clean column")
        message = "some agent's reward moved" if moved else "every agent's reward equals clean"
        floors.append(check(f"fault {fault!r} moves some agent", moved, message, gate))
    return floors
