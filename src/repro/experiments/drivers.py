"""Setup shared by the ``repro`` commands and the ``repro bench`` targets.

One copy each of: the user-input error the CLI reports without a traceback,
the scenario runner, the pipeline configuration and tiny extract-into-store step, the fitted
random-shooting planner, the mixed-building request stream, the
chunked columnar serving loop, and the canary fleet run (RolloutManager,
ShadowEvaluator, DriftDetector, ShardedPolicyServer and FleetLoop, plus the
kill-injecting tick loop).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


class CLIError(Exception):
    """A user-input problem (bad name, invalid value) — reported without a traceback."""


def resolve(build, *args, **kwargs):
    """Run a lookup/validation step, converting its errors to CLIError."""
    try:
        return build(*args, **kwargs)
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        raise CLIError(message) from exc


def require_min(args, minimum: int, *names: str, context: str = "") -> None:
    """Raise CLIError unless each named integer option is at least ``minimum``."""
    for name in names:
        value = getattr(args, name)
        if value < minimum:
            flag = "--" + name.replace("_", "-")
            raise CLIError(f"{flag} must be at least {minimum}{context} (got {value})")


def experiment_runner(args, *name_parts: Optional[str], max_steps: Optional[int] = None):
    """An ExperimentRunner over the scenario named by the non-empty ``name_parts``.

    Episode count, length, seed and execution backend come from the shared
    ``repro run``/``repro bench`` options on ``args``.
    """
    from repro.experiments.runner import ExperimentRunner
    from repro.experiments.scenarios import ScenarioSpec

    scenario = resolve(ScenarioSpec.from_name, "/".join(p for p in name_parts if p), days=args.days)
    return resolve(
        ExperimentRunner,
        scenario,
        episodes=args.episodes,
        base_seed=args.seed,
        max_steps=max_steps,
        backend=args.backend,
        batch_size=args.batch_size,
        workers=args.workers,
    )


#: Plausible sampling ranges for the Table-1 observation vector, used to
#: synthesise a serving request stream (zone temp, outdoor temp, humidity,
#: wind, solar, occupants).
OBSERVATION_RANGES = [
    (10.0, 35.0), (-20.0, 40.0), (0.0, 100.0), (0.0, 15.0), (0.0, 1000.0), (0.0, 60.0)
]


def synthetic_observations(rng, rows: int, dim: int) -> np.ndarray:
    """``rows`` random observations drawn from :data:`OBSERVATION_RANGES`."""
    if dim == len(OBSERVATION_RANGES):
        low, high = (np.array(r) for r in zip(*OBSERVATION_RANGES))
    else:
        low, high = -10.0, 40.0
    return rng.uniform(low, high, size=(rows, dim))


def synthetic_policy(rng):
    """A random tree policy of depth 3-5 over the Table-1 observation schema.

    Built node by node (no CART fit: the serving and store benches measure
    serving, not extraction), with thresholds drawn from
    :data:`OBSERVATION_RANGES` so requests route through both branches, the
    canonical feature names and an 8-pair setpoint table.
    """
    from repro.core.tree_policy import TreePolicy
    from repro.data import OBSERVATION_FEATURES
    from repro.dtree.cart import DecisionTreeClassifier
    from repro.dtree.node import TreeNode

    action_pairs = [(15 + i, 22 + i) for i in range(8)]
    next_id = iter(range(1 << 20))

    def grow(depth: int) -> TreeNode:
        if depth == 0 or rng.random() < 0.2:
            return TreeNode(node_id=next(next_id), prediction=int(rng.integers(len(action_pairs))))
        feature = int(rng.integers(len(OBSERVATION_RANGES)))
        low, high = OBSERVATION_RANGES[feature]
        node = TreeNode(
            node_id=next(next_id),
            feature_index=feature,
            threshold=float(rng.uniform(low, high)),
            prediction=0,
        )
        node.left = grow(depth - 1)
        node.right = grow(depth - 1)
        return node

    depth = int(rng.integers(3, 6))
    tree = DecisionTreeClassifier(max_depth=depth)
    tree.n_features = len(OBSERVATION_RANGES)
    tree.root = grow(depth)
    tree.classes_ = np.arange(len(action_pairs))
    return TreePolicy(tree, action_pairs=action_pairs, feature_names=list(OBSERVATION_FEATURES))


def mixed_traffic(policy_ids: Sequence[str], rows: int, dim: int, seed: int):
    """A seeded ``PolicyRequestBatch`` whose rows cycle over ``policy_ids``.

    Buildings are interleaved round-robin so every slice mixes policies —
    the per-policy grouping inside the server is what keeps this vectorised.
    """
    from repro.serving import PolicyRequestBatch

    observations = synthetic_observations(np.random.default_rng(seed), rows, dim)
    return PolicyRequestBatch(
        policy_ids=np.array([policy_ids[i % len(policy_ids)] for i in range(rows)]),
        observations=observations,
    )


def stream_columnar(
    server, traffic, chunk: int, before_slice: Optional[Callable[[int], None]] = None
) -> Tuple[np.ndarray, List[float]]:
    """Serve ``traffic`` through ``server.serve_columnar`` in ``chunk``-row slices.

    Returns the action index of every row and the wall seconds of each
    slice.  ``before_slice(index)`` runs ahead of slice ``index`` (the fault
    injection hook of the recovery bench).
    """
    actions = np.empty(len(traffic), dtype=np.int64)
    seconds: List[float] = []
    for index, lo in enumerate(range(0, len(traffic), chunk)):
        if before_slice is not None:
            before_slice(index)
        start = time.perf_counter()
        response = server.serve_columnar(traffic.slice(lo, lo + chunk))
        seconds.append(time.perf_counter() - start)
        actions[lo : lo + chunk] = response.action_indices
    return actions, seconds


def pipeline_config(
    climate: str,
    season: str,
    seed: int,
    decision_data: Optional[int] = None,
    preset: str = "tiny",
    dtype: Optional[str] = None,
):
    """The ``tiny`` or ``paper`` pipeline configuration for one city/season/seed."""
    from repro.core.pipeline import PipelineConfig
    from repro.weather.climates import get_climate

    overrides: Dict = {"city": resolve(get_climate, climate).name, "seed": seed, "season": season}
    if decision_data is not None:
        overrides["num_decision_data"] = decision_data
    if dtype is not None:
        overrides["dtype"] = dtype
    return resolve(PipelineConfig.tiny if preset == "tiny" else PipelineConfig, **overrides)


def extract_tiny(store, climate: str, season: str, seed: int, decision_data: Optional[int] = None):
    """Run the tiny extract-verify pipeline into ``store``; returns its result.

    A configuration the store already holds resolves as a cache hit.
    """
    from repro.core.pipeline import VerifiedPolicyPipeline

    config = pipeline_config(climate, season, seed, decision_data)
    return VerifiedPolicyPipeline(config, store=store).run()


def fit_planner(
    climate: str, season: str, seed: int, *, days: int, hidden_sizes, epochs: int, **options
):
    """A random-shooting planner over a freshly fitted dynamics model.

    Collects ``days`` of rule-based history (seed ``seed + 1``), fits the
    model on it (``seed + 2``, ``seed + 3``) and builds the optimizer
    (``seed + 4``) with ``options`` such as ``num_samples``, ``horizon`` and
    ``discount``.  Returns ``(environment, history, optimizer)``.
    """
    from repro.agents.random_shooting import RandomShootingOptimizer
    from repro.agents.rule_based import RuleBasedAgent
    from repro.env.dataset import collect_historical_data
    from repro.env.hvac_env import make_environment
    from repro.nn.dynamics import ThermalDynamicsModel

    environment = make_environment(city=climate, days=days, seed=seed, season=season)
    history = collect_historical_data(
        environment, RuleBasedAgent.from_config(environment), seed=seed + 1
    )
    model = ThermalDynamicsModel(hidden_sizes=hidden_sizes, seed=seed + 2)
    model.fit(history, epochs=epochs, seed=seed + 3)
    optimizer = RandomShootingOptimizer(
        dynamics_model=model,
        action_space=environment.action_space,
        reward_config=environment.config.reward,
        action_config=environment.config.actions,
        seed=seed + 4,
        **options,
    )
    return environment, history, optimizer


def candidate_clone(policy, corrupt: bool = False):
    """A copy of a tree policy to canary against it.

    ``corrupt`` forces every leaf to the most aggressive action: the
    deliberately broken candidate of the rollout tests, structurally a valid
    policy (so it registers and serves normally) whose decisions maximally
    disagree with any sane teacher — the drift detector must catch it during
    the canary.
    """
    from repro.core.tree_policy import TreePolicy

    clone = TreePolicy.from_dict(policy.to_dict())
    if corrupt:
        extreme = max(clone.action_pairs, key=lambda pair: (pair[0], -pair[1]))
        for leaf in clone.leaves():
            clone.set_leaf_action(leaf, *extreme)
    return clone


@dataclass
class Canary:
    """A candidate canaried against the first fleet group's incumbent."""

    candidate_id: str
    policy: Any
    fraction: float
    min_ticks: int
    window: int
    teacher: Any
    drift_sample: int
    drift_threshold: float
    drift_min_ticks: int
    seed: int


def run_fleet(
    store,
    groups,
    ticks: int,
    *,
    shards: int,
    cache_size: int,
    timeout: float,
    retries: int,
    degraded: str,
    canary: Optional[Canary] = None,
    kill_tick: Optional[int] = None,
    fallback: bool = True,
):
    """Tick a fleet through a sharded server; returns ``(loop, server stats)``.

    With a ``canary`` the candidate is registered and canaried from tick 0
    under shadow evaluation and drift detection.  At ``kill_tick`` the shard
    serving the candidate (the first group's incumbent without a canary) is
    killed; the server is closed however the run ends.
    """
    from repro.fleet import DriftDetector, FleetLoop, RolloutManager, ShadowEvaluator
    from repro.serving import Fault, ShardedPolicyServer, shard_for_policy

    incumbent = groups[0].policy_id
    rollout = shadow = drift = None
    if canary is not None:
        rollout = RolloutManager(
            incumbent,
            canary.candidate_id,
            canary_fraction=canary.fraction,
            min_canary_ticks=canary.min_ticks,
        )
        env_config = groups[0].env.environments[0].config
        shadow = ShadowEvaluator(
            env_config.reward.comfort.lower,
            env_config.reward.comfort.upper,
            *env_config.actions.off_setpoints(),
            window=canary.window,
        )
        drift = DriftDetector(
            canary.teacher,
            sample_size=canary.drift_sample,
            window=canary.window,
            threshold=canary.drift_threshold,
            min_ticks=canary.drift_min_ticks,
            baseline_policy_id=incumbent,
            seed=canary.seed,
        )
    server = resolve(
        ShardedPolicyServer,
        store=store,
        num_shards=shards,
        cache_size=cache_size,
        timeout=timeout,
        retries=retries,
        degraded=degraded,
    )
    try:
        loop = FleetLoop(
            server, groups, rollout=rollout, shadow=shadow, drift=drift, fallback=fallback
        )
        if canary is not None:
            server.register(canary.candidate_id, canary.policy)
            rollout.begin_canary(0)
        kill_target = canary.candidate_id if canary is not None else incumbent
        for tick in range(ticks):
            if tick == kill_tick:
                server.inject_fault(
                    Fault(kind="kill", shard=shard_for_policy(kill_target, shards))
                )
            loop.tick()
        stats = server.stats()
    finally:
        server.close()
    return loop, stats
