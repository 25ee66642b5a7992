"""Workload ``serve-wide``: open-loop mixed batches into a 2-shard server.

A few thousand synthetic tree policies are packed into one arena; every
request batch draws its rows' policy ids uniformly over all of them, so one
batch touches hundreds of distinct policies.  Batches are due on a fixed
schedule at each rate of a small ladder (open loop: a slow call delays the
batches behind it, it does not lower the offered load).  Latency runs from a
batch's due time to its response, so waiting behind a stall counts, and the
generator's own lateness (oversleeping) is reported apart.

Every sharded response must equal the answer of an in-process
``PolicyServer`` over the same arena for the same batch.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from hvacbench import layers
from hvacbench.common import Outcome, import_seconds, median_of, nproc, percentile, scratch_dir
from hvacbench.spans import Tracer

SHARDS = 2
POLICIES = {"full": 3000, "smoke": 60}
ROWS = {"full": 256, "smoke": 32}
#: Distinct pre-generated batches, cycled; each send wraps them in a fresh
#: ``PolicyRequestBatch`` so no grouping cache survives between sends.
POOL = {"full": 64, "smoke": 6}
#: Share of the run spent in the closed loop (batches back to back).
CLOSED_SHARE = 0.4
#: Offered load ladder in rows/s, and the share of the run each rate gets.
LADDER: List[Tuple[float, float]] = [
    (12_800.0, 0.08),
    (25_600.0, 0.36),
    (38_400.0, 0.08),
    (51_200.0, 0.08),
]
REFERENCE_RATE = 25_600.0
#: A rate passes when its p99 latency is at most this and no backlog grows.
LATENCY_LIMIT_MS = 50.0
#: Batches per phase of a traced run.
TRACE_BATCHES = {"full": 400, "smoke": 12}
SETUPS = 3
#: Modules a fresh interpreter imports before it can run this workload
#: (their import time is part of ``setup_s``).
IMPORTS = "repro.core.tree_policy, repro.serving, repro.store.arena"
#: Table-1 observation ranges the synthetic thresholds and requests draw from.
OBSERVATION_RANGES = [(10.0, 35.0), (-20.0, 40.0), (0.0, 100.0), (0.0, 15.0), (0.0, 1000.0), (0.0, 60.0)]


def _policies(count: int, rng: np.random.Generator) -> List[Tuple[str, Any]]:
    """``count`` random compiled trees of depth 3-5 over the observation schema."""
    from repro.core.tree_policy import TreePolicy
    from repro.data import OBSERVATION_FEATURES
    from repro.dtree.cart import DecisionTreeClassifier
    from repro.dtree.node import TreeNode
    from repro.serving import CompiledTreePolicy

    pairs = [(15 + i, 22 + i) for i in range(8)]
    out = []
    for index in range(count):
        ids = iter(range(1 << 20))

        def grow(depth: int) -> TreeNode:
            if depth == 0 or rng.random() < 0.2:
                return TreeNode(node_id=next(ids), prediction=int(rng.integers(len(pairs))))
            feature = int(rng.integers(len(OBSERVATION_RANGES)))
            low, high = OBSERVATION_RANGES[feature]
            node = TreeNode(
                node_id=next(ids), feature_index=feature,
                threshold=float(rng.uniform(low, high)), prediction=0,
            )
            node.left = grow(depth - 1)
            node.right = grow(depth - 1)
            return node

        depth = int(rng.integers(3, 6))
        tree = DecisionTreeClassifier(max_depth=depth)
        tree.n_features = len(OBSERVATION_RANGES)
        tree.root = grow(depth)
        tree.classes_ = np.arange(len(pairs))
        policy = TreePolicy(tree, action_pairs=pairs, feature_names=list(OBSERVATION_FEATURES))
        out.append((f"wide/{index:05d}", CompiledTreePolicy.from_policy(policy)))
    return out


def _pool(ids: List[str], rows: int, count: int, rng: np.random.Generator) -> List[Tuple[np.ndarray, np.ndarray]]:
    low, high = (np.array(bound) for bound in zip(*OBSERVATION_RANGES))
    names = np.asarray(ids)
    return [
        (names[rng.integers(len(ids), size=rows)], rng.uniform(low, high, size=(rows, len(low))))
        for _ in range(count)
    ]


def _request(entry: Tuple[np.ndarray, np.ndarray]):
    from repro.data import PolicyRequestBatch

    return PolicyRequestBatch(policy_ids=entry[0], observations=entry[1])


def _start(root: Path, arena: Path, warm: Tuple[np.ndarray, np.ndarray]):
    from repro.serving import ShardedPolicyServer

    server = ShardedPolicyServer(store=root, num_shards=SHARDS, arena=arena, timeout=10.0)
    server.start()
    server.serve_columnar(_request(warm))
    return server


class _Sender:
    """Sends pool batches, checks each response, counts attempts and failures."""

    def __init__(self, out: Outcome, server: Any, pool, expected: List[np.ndarray]):
        self.out = out
        self.server = server
        self.pool = pool
        self.expected = expected
        self.sent = 0

    def send(self) -> float:
        """Serve the next pool batch; returns its service seconds."""
        index = self.sent % len(self.pool)
        self.sent += 1
        self.out.attempted += 1
        batch = _request(self.pool[index])
        start = time.perf_counter()
        try:
            response = self.server.serve_columnar(batch)
        except Exception as error:  # noqa: BLE001 - a failed batch is counted, not fatal
            self.out.failed += 1
            self.out.notes.setdefault("errors", []).append(repr(error))
            return time.perf_counter() - start
        seconds = time.perf_counter() - start
        same = np.array_equal(np.asarray(response.action_indices), self.expected[index])
        if not self.out.check("sharded_equals_in_process", same):
            self.out.failed += 1
        return seconds


def _open_loop(sender: _Sender, rate: float, duration: float, rows: int) -> Dict[str, Any]:
    """Batches due every ``rows / rate`` seconds for ``duration`` seconds."""
    period = rows / rate
    count = max(1, int(duration / period))
    latency = np.empty(count)
    service = np.empty(count)
    lateness = np.empty(count)
    oversleep: List[float] = []
    origin = time.perf_counter()
    for k in range(count):
        due = origin + k * period
        now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
            now = time.perf_counter()
            oversleep.append(now - due)
        lateness[k] = now - due
        service[k] = sender.send()
        latency[k] = time.perf_counter() - due
    tail = lateness[-max(1, count // 10):]
    return {
        "rate": rate,
        "batches": count,
        "p50_ms": percentile(latency, 50) * 1e3,
        "p99_ms": percentile(latency, 99) * 1e3,
        "service_ms": float(np.mean(service)) * 1e3,
        "queue_wait_ms": float(np.mean(lateness)) * 1e3,
        "gen_lag_ms": percentile(oversleep, 99) * 1e3 if oversleep else 0.0,
        "backlog_grows": bool(np.min(tail) * 1e3 > LATENCY_LIMIT_MS),
    }


def run(seed: int, seconds: float, trace: bool, size: str = "full") -> Outcome:
    from repro.serving import PolicyServer
    from repro.store import PolicyStore
    from repro.store.arena import write_arena

    out = Outcome()
    rng = np.random.default_rng(seed)
    out.check("shards_within_nproc", SHARDS <= nproc())
    with scratch_dir("serve") as root:
        import_s = import_seconds(IMPORTS)
        policies = _policies(POLICIES[size], rng)
        arena = write_arena(PolicyStore(root).arena_path, policies)
        pool = _pool([name for name, _ in policies], ROWS[size], POOL[size], rng)

        local = PolicyServer(store=root, arena=arena)
        expected: List[np.ndarray] = []
        local_service: List[float] = []
        for entry in pool:
            start = time.perf_counter()
            expected.append(np.asarray(local.serve_columnar(_request(entry)).action_indices))
            local_service.append(time.perf_counter() - start)
        out.report["in_process_batch_ms"] = (median_of(local_service) * 1e3, "ms")
        out.report["policies_per_batch"] = (float(np.mean([len(np.unique(ids)) for ids, _ in pool])), "count")

        setups: List[float] = []
        server: Optional[Any] = None
        try:
            for _ in range(SETUPS):
                if server is not None:
                    server.close()
                start = time.perf_counter()
                server = _start(root, arena, pool[0])
                setups.append(time.perf_counter() - start)
            sender = _Sender(out, server, pool, expected)
            for _ in range(len(pool)):  # warm-up: every pool batch once
                sender.send()
            if trace:
                _traced(out, sender, local, size)
            else:
                _measure(out, sender, seconds, size)
            stats = server.stats()
        finally:
            if server is not None:
                server.close()
            local.close()
    fleet = stats["fleet"]
    out.check("no_lost_requests", fleet["lost_requests"] == 0)
    out.notes["fleet_stats"] = fleet
    out.notes["restarts"] = stats.get("supervisor", {}).get("restarts", 0)
    out.metrics["setup_s"] = import_s + median_of(setups)
    out.report["import_s"] = (import_s, "s")
    return out


def _closed_loop(sender: _Sender, duration: float) -> np.ndarray:
    """Batches back to back for ``duration`` seconds; returns their seconds."""
    service: List[float] = []
    end = time.perf_counter() + duration
    while not service or time.perf_counter() < end:
        service.append(sender.send())
    return np.asarray(service)


def _measure(out: Outcome, sender: _Sender, seconds: float, size: str) -> None:
    rows = ROWS[size]
    service = _closed_loop(sender, CLOSED_SHARE * seconds)
    rungs = [_open_loop(sender, rate, share * seconds, rows) for rate, share in LADDER]
    reference = next(r for r in rungs if r["rate"] == REFERENCE_RATE)
    passing = [r["rate"] for r in rungs if r["p99_ms"] <= LATENCY_LIMIT_MS and not r["backlog_grows"]]
    out.metrics["op_ms"] = percentile(service, 50) * 1e3
    out.report.update(
        batch_p50_ms=(out.metrics["op_ms"], "ms"),
        batch_p99_ms=(percentile(service, 99) * 1e3, "ms"),
        batch_samples=(len(service), "count"),
        rows_per_s=(rows * len(service) / float(np.sum(service)), "1/s"),
        serve_p50_ms=(reference["p50_ms"], "ms"),
        serve_p99_ms=(reference["p99_ms"], "ms"),
        serve_reference_batches=(reference["batches"], "count"),
        serve_max_rows_per_s=(max(passing) if passing else 0.0, "1/s"),
        serve_gen_lag_p99_ms=(reference["gen_lag_ms"], "ms"),
    )
    out.notes["ladder"] = rungs


def _traced(out: Outcome, sender: _Sender, local: Any, size: str) -> None:
    """Closed replays untraced, traced, untraced (tracing overhead; the sharded
    overhead over an in-process call comes from the untraced ones), then an
    untraced open-loop probe at the reference rate for the generator figures."""
    count = TRACE_BATCHES[size]
    rows = ROWS[size]

    def replay(tracer: Optional[Tracer]) -> Tuple[float, List[float]]:
        overhead: List[float] = []
        total = 0.0
        for _ in range(count):
            if tracer is not None:
                tracer.operation += 1
            index = sender.sent % len(sender.pool)
            start = time.perf_counter()
            sharded = sender.send()
            in_process = time.perf_counter()
            local.serve_columnar(_request(sender.pool[index]))
            end = time.perf_counter()
            overhead.append(sharded - (end - in_process))
            total += end - start
        return total, overhead

    # Untraced replays bracket the traced one, so slow drift of the machine's
    # speed cancels out of the tracing overhead.
    untraced, overhead = replay(None)
    before = sender.server.stats()
    tracer = Tracer()
    layers.install(tracer)
    try:
        with tracer.span("bench.window"):
            start = time.perf_counter()
            with tracer.span("bench.ops"):
                replay(tracer)
            wall = time.perf_counter() - start
    finally:
        tracer.restore()
    after = sender.server.stats()
    again, more = replay(None)
    untraced = (untraced + again) / 2
    overhead += more
    probe = _open_loop(sender, REFERENCE_RATE, count * rows / REFERENCE_RATE, rows)
    fleet_after, fleet_before = after["fleet"], before["fleet"]
    restarts = after.get("supervisor", {}).get("restarts", 0) - before.get("supervisor", {}).get("restarts", 0)
    out.layers = layers.per_layer_metrics(
        tracer, wall, untraced,
        {
            "serving.rows_per_batch": rows,
            "serving.policies_per_batch": float(np.mean([len(np.unique(ids)) for ids, _ in sender.pool])),
            "serving.arena_hits": after["arena_hits"] - before["arena_hits"],
            "serving.compiles": after["compile_count"] - before["compile_count"],
            "serving.sharded.overhead_s": median_of(overhead),
            "serving.sharded.retries": fleet_after["retries"] - fleet_before["retries"],
            "serving.sharded.restarts": restarts,
            "serving.sharded.fallback_rows": fleet_after["fallback_rows"] - fleet_before["fallback_rows"],
            "serving.sharded.lost_requests": fleet_after["lost_requests"] - fleet_before["lost_requests"],
            "serve.queue_wait_ms": probe["queue_wait_ms"],
            "serve.gen_lag_ms": probe["gen_lag_ms"],
        },
    )
