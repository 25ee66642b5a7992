"""Serving targets: compiled kernel, columnar front door, sharding, fault recovery."""

from __future__ import annotations

import argparse
import os
import tempfile
import time
from contextlib import contextmanager
from typing import Dict, List

import numpy as np

from repro.bench.floors import Floor, Gate, at_size, bound, holds
from repro.experiments.drivers import (
    OBSERVATION_RANGES,
    extract_tiny,
    mixed_traffic,
    require_min,
    stream_columnar,
    synthetic_observations,
    synthetic_policy,
)


def _cores(result: Dict) -> Gate:
    """The gate of the scaling and recovery floors: at least 4 cores.

    The shards need cores to run on (hosted runners report 4); below that
    these floors measure the scheduler, not the fleet.
    """
    return result["cpu_count"] >= 4, f"needs >= 4 cores; only {result['cpu_count']}"


def run_serve(args: argparse.Namespace) -> Dict:
    """Compiled-serving benchmark: predict_batch vs per-row python + store cache hit.

    Runs a tiny extract-verify pipeline into a scratch store (timing the cold
    run), re-resolves the same configuration (timing the pure cache hit),
    then measures recursive per-row traversal against the compiled
    ``predict_batch`` on an identical input batch and checks the actions are
    exactly equal.
    """
    from repro.serving import PolicyRequest, PolicyServer
    from repro.store import PolicyStore

    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as scratch:
        store = PolicyStore(scratch)
        start = time.perf_counter()
        extract_tiny(store, args.climate, args.season, args.seed, args.decision_data)
        extract_seconds = time.perf_counter() - start
        start = time.perf_counter()
        warm = extract_tiny(store, args.climate, args.season, args.seed, args.decision_data)
        store_hit_seconds = time.perf_counter() - start

        policy = warm.policy
        compiled = policy.compiled()
        rng = np.random.default_rng(args.seed)
        inputs = synthetic_observations(rng, args.rows, policy.input_dim)

        start = time.perf_counter()
        recursive = policy.predict_action_indices(inputs)
        recursive_seconds = time.perf_counter() - start
        start = time.perf_counter()
        batched = compiled.predict_batch(inputs)
        compiled_seconds = time.perf_counter() - start

        # End-to-end front door: request objects + grouping + response objects.
        server = PolicyServer(store=store, cache_size=4)
        policy_id = store.entries()[0].key.name
        requests = [
            PolicyRequest(policy_id=policy_id, observation=row) for row in inputs
        ]
        start = time.perf_counter()
        for offset in range(0, len(requests), 512):
            server.serve(requests[offset : offset + 512])
        server_seconds = time.perf_counter() - start

    return {
        "benchmark": "serve",
        "rows": args.rows,
        "tree_nodes": policy.node_count,
        "tree_leaves": policy.leaf_count,
        "tree_depth": policy.depth,
        "actions_identical": bool(np.array_equal(recursive, batched)),
        "recursive_rows_per_second": args.rows / max(recursive_seconds, 1e-12),
        "compiled_rows_per_second": args.rows / max(compiled_seconds, 1e-12),
        "speedup": recursive_seconds / max(compiled_seconds, 1e-12),
        "server_requests_per_second": args.rows / max(server_seconds, 1e-12),
        "extract_seconds": extract_seconds,
        "store_hit_seconds": store_hit_seconds,
        "cache_hit": bool(warm.cache_hit),
        "cache_speedup": extract_seconds / max(store_hit_seconds, 1e-12),
    }


def serve_floors(result: Dict) -> List[Floor]:
    """Exact compiled actions and a store cache hit; the speedup at 20k rows."""
    return [
        holds(result, "actions_identical", "compiled predictions diverged from recursive"),
        holds(result, "cache_hit", "second identical pipeline run missed the policy store"),
        # Dev box: ~14x; the floor only catches a collapse of the compiled
        # path back toward per-row python, not shared-runner noise.
        bound(result, "speedup", ">=", 4.0, at_size(result, "rows", 20000)),
    ]


@contextmanager
def _mixed_store(args: argparse.Namespace, policies: int):
    """A scratch store of ``policies`` tiny policies and mixed traffic over them.

    Yields ``(store, policy_ids, traffic)``; distinct seeds give distinct
    policies, so the round-robin stream genuinely interleaves buildings.
    """
    from repro.store import PolicyStore

    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as scratch:
        store = PolicyStore(scratch)
        for seed in range(args.seed, args.seed + policies):
            result = extract_tiny(store, args.climate, args.season, seed, args.decision_data)
        policy_ids = [entry.key.name for entry in store.entries()]
        traffic = mixed_traffic(policy_ids, args.rows, result.policy.input_dim, args.seed)
        yield store, policy_ids, traffic


#: Shape of the wide-mix row of ``serve-columnar``: arena policies, rows per
#: batch and distinct batches (each row draws its policy uniformly, so a
#: batch touches ~225 distinct policies).
WIDE_POLICIES = 1000
WIDE_ROWS = 256
WIDE_BATCHES = 32
WIDE_REPEATS = 5


def _per_policy_loop(arena, batch) -> np.ndarray:
    """The action indices a loop of one ``predict_batch`` per policy gives."""
    codes, unique_ids = batch.grouping()
    actions = np.empty(len(batch), dtype=np.int64)
    for group, policy_id in enumerate(unique_ids):
        rows = np.flatnonzero(codes == group)
        actions[rows] = arena.get(str(policy_id)).predict_batch(batch.observations[rows])
    return actions


def _wide_mix(seed: int) -> Dict:
    """Arena walk vs a per-policy ``predict_batch`` loop on wide-mix batches.

    Packs :data:`WIDE_POLICIES` synthetic trees into an arena and serves
    :data:`WIDE_BATCHES` batches of :data:`WIDE_ROWS` uniformly mixed rows
    through ``PolicyServer.serve_columnar`` (one vectorised walk over the
    arena) and through the per-policy loop it replaced.  Each side is timed
    as the median of :data:`WIDE_REPEATS` passes over fresh batch objects,
    so no grouping cache carries over.
    """
    from repro.data import PolicyRequestBatch
    from repro.serving import PolicyServer
    from repro.store import PolicyStore, write_arena

    rng = np.random.default_rng(seed)
    policies = [(f"wide/{i:05d}", synthetic_policy(rng).compiled()) for i in range(WIDE_POLICIES)]
    names = np.array([name for name, _ in policies])
    pool = [
        (names[rng.integers(len(names), size=WIDE_ROWS)],
         synthetic_observations(rng, WIDE_ROWS, len(OBSERVATION_RANGES)))
        for _ in range(WIDE_BATCHES)
    ]

    def batches():
        return [PolicyRequestBatch(policy_ids=ids, observations=obs) for ids, obs in pool]

    with tempfile.TemporaryDirectory(prefix="repro-bench-wide-") as scratch:
        store = PolicyStore(scratch)
        write_arena(store.arena_path, policies)
        server = PolicyServer(store=store, arena=True)
        arena = server.arena
        walked = [server.serve_columnar(batch).action_indices for batch in batches()]
        looped = [_per_policy_loop(arena, batch) for batch in batches()]
        walk_passes: List[float] = []
        loop_passes: List[float] = []
        for _ in range(WIDE_REPEATS):
            fresh = batches()
            start = time.perf_counter()
            for batch in fresh:
                server.serve_columnar(batch)
            walk_passes.append(time.perf_counter() - start)
            fresh = batches()
            start = time.perf_counter()
            for batch in fresh:
                _per_policy_loop(arena, batch)
            loop_passes.append(time.perf_counter() - start)
        server.close()
    walk_ms = float(np.median(walk_passes)) / WIDE_BATCHES * 1e3
    loop_ms = float(np.median(loop_passes)) / WIDE_BATCHES * 1e3
    return {
        "policies": WIDE_POLICIES,
        "rows_per_batch": WIDE_ROWS,
        "batches": WIDE_BATCHES,
        "policies_per_batch": float(np.mean([len(np.unique(ids)) for ids, _ in pool])),
        "actions_identical": all(map(np.array_equal, walked, looped)),
        "walk_batch_ms": walk_ms,
        "per_policy_batch_ms": loop_ms,
        "speedup": loop_ms / max(walk_ms, 1e-12),
    }


def run_serve_columnar(args: argparse.Namespace) -> Dict:
    """Columnar vs legacy front-door throughput on a mixed-building stream.

    Extracts two tiny policies (different seeds) into a scratch store so
    every chunk genuinely interleaves buildings, then pushes the same
    request stream through the legacy object API (``serve``) and the
    columnar API (``serve_columnar``) and checks the actions match
    exactly.  This isolates the object-conversion tax the columnar data
    plane removes: the tree kernel underneath is identical.  The
    ``wide_mix`` row (:func:`_wide_mix`) then measures the arena walk
    against one ``predict_batch`` per policy on batches that mix hundreds
    of arena policies.
    """
    from repro.serving import PolicyRequest, PolicyServer

    chunk = args.batch_size or 512
    with _mixed_store(args, 2) as (store, policy_ids, traffic):
        server = PolicyServer(store=store, cache_size=4)
        requests = [
            PolicyRequest(policy_id=traffic.policy_ids[i], observation=traffic.observations[i])
            for i in range(args.rows)
        ]
        start = time.perf_counter()
        legacy_actions = np.empty(args.rows, dtype=np.int64)
        for lo in range(0, args.rows, chunk):
            responses = server.serve(requests[lo : lo + chunk])
            legacy_actions[lo : lo + len(responses)] = [
                r.action_index for r in responses
            ]
        legacy_seconds = time.perf_counter() - start

        start = time.perf_counter()
        columnar_actions, _ = stream_columnar(server, traffic, chunk)
        columnar_seconds = time.perf_counter() - start

    return {
        "benchmark": "serve-columnar",
        "rows": args.rows,
        "batch_size": chunk,
        "policies": len(policy_ids),
        "actions_identical": bool(np.array_equal(legacy_actions, columnar_actions)),
        "legacy_requests_per_second": args.rows / max(legacy_seconds, 1e-12),
        "columnar_requests_per_second": args.rows / max(columnar_seconds, 1e-12),
        "speedup": legacy_seconds / max(columnar_seconds, 1e-12),
        "wide_mix": _wide_mix(args.seed),
    }


def serve_columnar_floors(result: Dict) -> List[Floor]:
    """Exact columnar and wide-mix actions; the object speedup at CI's 50k rows."""
    return [
        holds(result, "actions_identical", "columnar responses diverged from the object path"),
        # Dev box: ~3.3x and ~1M req/s; the floor only catches the columnar
        # path collapsing back to per-request object overhead.
        bound(result, "speedup", ">=", 1.5, at_size(result, "rows", 50000)),
        holds(
            result, "wide_mix.actions_identical",
            "the arena walk diverged from per-policy predict_batch",
        ),
        # 2-vCPU dev box: ~20x; the floor catches the walk falling back to a
        # python call per policy.  The row's shape does not follow --rows, so
        # the floor applies at every run size.
        bound(result, "wide_mix.speedup", ">=", 5.0),
    ]


def run_serve_sharded(args: argparse.Namespace) -> Dict:
    """Sharded vs single-process columnar throughput on mixed-building traffic.

    Extracts four tiny policies (distinct seeds) into a scratch store so the
    round-robin request stream genuinely mixes buildings across shards, warms
    both servers (policy compilation out of the timed region), then pushes
    the identical stream through ``PolicyServer.serve_columnar`` and a
    ``ShardedPolicyServer`` fleet and checks the actions are exactly equal.
    The speedup is a multi-core scaling measurement: on a single-core box the
    sharded path can only add IPC overhead, so the result records
    ``cpu_count`` and the scaling floor is gated on it.
    """
    from repro.serving import PolicyServer, ShardedPolicyServer

    require_min(args, 1, "shards")
    chunk = args.batch_size or 8192
    with _mixed_store(args, 4) as (store, policy_ids, traffic):
        warmup = traffic.slice(0, chunk)
        single = PolicyServer(store=store, cache_size=8)
        single.serve_columnar(warmup)  # compile every policy before timing
        start = time.perf_counter()
        single_actions, _ = stream_columnar(single, traffic, chunk)
        single_seconds = time.perf_counter() - start

        with ShardedPolicyServer(store=store, num_shards=args.shards, cache_size=8) as fleet:
            fleet.serve_columnar(warmup)
            start = time.perf_counter()
            sharded_actions, _ = stream_columnar(fleet, traffic, chunk)
            sharded_seconds = time.perf_counter() - start

    return {
        "benchmark": "serve-sharded",
        "rows": args.rows,
        "batch_size": chunk,
        "shards": args.shards,
        "cpu_count": os.cpu_count(),
        "policies": len(policy_ids),
        "actions_identical": bool(np.array_equal(single_actions, sharded_actions)),
        "single_process_requests_per_second": args.rows / max(single_seconds, 1e-12),
        "sharded_requests_per_second": args.rows / max(sharded_seconds, 1e-12),
        "speedup": single_seconds / max(sharded_seconds, 1e-12),
    }


def serve_sharded_floors(result: Dict) -> List[Floor]:
    """Exact sharded actions everywhere; the scaling floor on 4+ cores."""
    return [
        holds(result, "actions_identical", "sharded responses diverged from single-process"),
        bound(result, "speedup", ">=", 1.8, _cores(result)),
    ]


def run_serve_faults(args: argparse.Namespace) -> Dict:
    """Recovery under injected faults: kill one shard, hang another, mid-stream.

    Streams mixed-building batches through a supervised fleet and, partway
    through, injects a ``kill`` fault into one traffic-bearing shard and a
    ``hang`` fault into another (see :mod:`repro.serving.faults`).  The fleet
    must heal both without a single caller-visible error: the bench records
    the latency of the faulted batches (the recovery time — restart + replay
    + re-dispatch), the median healthy-batch latency for contrast, restart
    and retry counters, and the two exact floor facts: zero lost requests
    and actions bit-identical to the single-process server.  Recovery time
    scales with core count (the restarted worker re-opens its store under
    contention), so ``cpu_count`` is recorded and the latency floor applies
    only on multi-core runners.
    """
    from repro.serving import Fault, PolicyServer, ShardedPolicyServer, shard_for_policy

    require_min(args, 2, "shards", context=" for --target serve-faults")
    chunk = args.batch_size or 4096
    timeout = args.timeout if args.timeout is not None else 1.0
    with _mixed_store(args, 4) as (store, policy_ids, traffic):
        single = PolicyServer(store=store, cache_size=8)
        single_actions, _ = stream_columnar(single, traffic, chunk)

        # Fault only shards that actually carry traffic (policy routing may
        # leave some shards idle), or the injected fault would never fire.
        active = sorted({shard_for_policy(pid, args.shards) for pid in policy_ids})
        kill_shard = active[0]
        hang_shard = active[1 % len(active)]
        batches = len(range(0, args.rows, chunk))
        kill_batch = batches // 3
        hang_batch = (2 * batches) // 3

        with ShardedPolicyServer(
            store=store,
            num_shards=args.shards,
            cache_size=8,
            timeout=timeout,
            retries=args.retries,
            degraded=args.degraded,
            heartbeat_interval=None,
        ) as fleet:

            def inject(index: int) -> None:
                if index == kill_batch:
                    fleet.inject_fault(Fault(kind="kill", shard=kill_shard))
                if index == hang_batch:
                    fleet.inject_fault(Fault(kind="hang", shard=hang_shard, seconds=30.0))

            fleet.serve_columnar(traffic.slice(0, chunk))
            sharded_actions, batch_seconds = stream_columnar(fleet, traffic, chunk, inject)
            stats = fleet.stats()

    fleet_counters = stats["fleet"]
    return {
        "benchmark": "serve-faults",
        "rows": args.rows,
        "batch_size": chunk,
        "shards": args.shards,
        "cpu_count": os.cpu_count(),
        "policies": len(policy_ids),
        "timeout_seconds": timeout,
        "retries": args.retries,
        "degraded": args.degraded,
        "faults": {
            "kill": {"shard": kill_shard, "batch": kill_batch},
            "hang": {"shard": hang_shard, "batch": hang_batch},
        },
        "errors_raised": 0,  # reaching here means no serve call raised
        "requests_lost": fleet_counters["lost_requests"],
        "fleet_requests_total": fleet_counters["requests"],  # includes warmup
        "actions_identical": bool(np.array_equal(single_actions, sharded_actions)),
        "restarts": stats["supervisor"]["restarts"],
        "retries_used": fleet_counters["retries"],
        "fallback_rows": fleet_counters["fallback_rows"],
        "kill_recovery_seconds": batch_seconds[kill_batch],
        "hang_recovery_seconds": batch_seconds[hang_batch],
        "median_batch_seconds": float(np.median(batch_seconds)),
    }


def serve_faults_floors(result: Dict) -> List[Floor]:
    """No lost requests, exact actions and both restarts; recovery latency on 4+ cores."""
    # Losing requests or serving wrong actions through a recovery is a
    # correctness failure — absolute on every runner.  Recovery latency only
    # measures the supervisor when a respawning worker does not fight the
    # parent for one core (single-core dev box: kill recovery ~70ms even
    # there; hang recovery is dominated by the 1s per-attempt timeout).
    return [
        bound(result, "requests_lost", "==", 0),
        holds(result, "actions_identical", "recovered responses diverged from single-process"),
        bound(result, "restarts", ">=", 2),
        bound(result, "kill_recovery_seconds", "<", 2.0, _cores(result)),
        bound(result, "hang_recovery_seconds", "<", 2.0, _cores(result)),
    ]