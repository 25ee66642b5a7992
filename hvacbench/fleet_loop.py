"""Workload ``fleet-loop``: a closed loop of ``FleetLoop.tick`` over four groups.

Three clean scenario groups and one ``rough_day`` disturbed group (the same
city and season as the first clean group, so the two share an incumbent and
their per-building step times compare like for like).  Each incumbent is a
tiny-preset tree extracted from the workload seed, stored, packed into the
arena and served by an in-process ``PolicyServer``.  A healthy candidate (a
clone of the first incumbent) sits in canary on the first incumbent's
buildings for the whole run, with shadow evaluation and reference-tree drift
attached, as ``repro fleet`` runs them.

Closed loop: the next tick starts when the previous one returns.  Every tick's
served actions are checked against an independently compiled copy of the
policy that served each row.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

import numpy as np

from hvacbench import layers
from hvacbench.common import Outcome, import_seconds, median_of, percentile, scratch_dir
from hvacbench.spans import Tracer

#: (scenario, incumbent key): the fourth group reuses the first incumbent.
GROUPS: List[Tuple[str, Tuple[str, str]]] = [
    ("pittsburgh/winter", ("pittsburgh", "winter")),
    ("tucson/summer", ("tucson", "summer")),
    ("miami/summer", ("miami", "summer")),
    ("pittsburgh/winter/office/rough_day", ("pittsburgh", "winter")),
]
BUILDINGS_PER_GROUP = {"full": 128, "smoke": 8}
DISTINCT_TRACES = {"full": 16, "smoke": 2}
#: Ticks not counted in latency (first contact with every code path).
WARMUP_TICKS = 3
#: Quality figures are read after exactly this many ticks (one 1-day episode).
QUALITY_TICKS = {"full": 96, "smoke": 8}
#: Ticks per phase of a traced run (untraced, then traced, same start state).
TRACE_TICKS = {"full": 400, "smoke": 12}
SETUPS = 3
#: Modules a fresh interpreter imports before it can run this workload
#: (their import time is part of ``setup_s``).
IMPORTS = "repro.core.pipeline, repro.fleet, repro.serving, repro.store"
CANDIDATE = "candidate-healthy"


class RecordingServer:
    """Forwards ``serve_columnar``; keeps each (request, response) pair to
    check and each call's (rows, distinct policies)."""

    def __init__(self, server: Any):
        self.server = server
        self.calls: List[Tuple[Any, Any]] = []
        self.sizes: List[Tuple[int, int]] = []

    def serve_columnar(self, batch: Any) -> Any:
        response = self.server.serve_columnar(batch)
        self.calls.append((batch, response))
        # Read after serving: the server has filled the batch's grouping cache.
        self.sizes.append((len(batch), batch.num_policies))
        return response


def _incumbents(seed: int, store: Any, out: Outcome) -> Dict[Tuple[str, str], str]:
    """Extract one tiny-preset incumbent per (city, season); record ``verified``."""
    from repro.core.pipeline import PipelineConfig, VerifiedPolicyPipeline

    names: Dict[Tuple[str, str], str] = {}
    verified: Dict[str, bool] = {}
    for _, key in GROUPS:
        if key in names:
            continue
        city, season = key
        result = VerifiedPolicyPipeline(
            PipelineConfig.tiny(city=city, season=season, seed=seed), store=store
        ).run()
        names[key] = result.store_key
        verified[result.store_key] = bool(result.verified)
    out.notes["incumbent_verified"] = verified
    return names


def _build(seed: int, size: str, store: Any, incumbents: Dict[Tuple[str, str], str], candidate: Any):
    """Pack, open the server and build the loop: everything before tick one."""
    from repro.fleet import DriftDetector, FleetGroup, FleetLoop, RolloutManager, ShadowEvaluator
    from repro.fleet import TreePolicyTeacher
    from repro.serving import PolicyServer

    store.pack()
    server = PolicyServer(store=store, arena=True)
    groups = [
        FleetGroup.from_scenario(
            scenario,
            policy_id=incumbents[key],
            num_buildings=BUILDINGS_PER_GROUP[size],
            base_seed=seed + 1000 * index,
            distinct=DISTINCT_TRACES[size],
            days=1,
        )
        for index, (scenario, key) in enumerate(GROUPS)
    ]
    lead = incumbents[GROUPS[0][1]]
    config = groups[0].env.environments[0].config
    # min_canary_ticks beyond any run: the canary (and its shadow traffic)
    # stays active throughout, so every tick does the same kind of work.
    rollout = RolloutManager(lead, CANDIDATE, canary_fraction=0.25, min_canary_ticks=10**9)
    shadow = ShadowEvaluator(
        config.reward.comfort.lower, config.reward.comfort.upper,
        *config.actions.off_setpoints(), window=16,
    )
    drift = DriftDetector(
        TreePolicyTeacher(store.find(lead).policy), sample_size=24, window=16,
        threshold=0.3, min_ticks=8, baseline_policy_id=lead, seed=seed + 7,
    )
    recorder = RecordingServer(server)
    loop = FleetLoop(recorder, groups, rollout=rollout, shadow=shadow, drift=drift)
    server.register(CANDIDATE, candidate)
    rollout.begin_canary(0)
    return server, recorder, loop


def _check_calls(recorder: RecordingServer, references: Dict[str, Any]) -> bool:
    """Every served row equals its policy's reference ``predict_batch``."""
    ok = True
    for batch, response in recorder.calls:
        ids = np.asarray(batch.policy_ids)
        observations = np.asarray(batch.observations)
        expected = np.empty(len(ids), dtype=np.int64)
        pairs = np.empty((len(ids), 2), dtype=np.int64)
        for policy_id in np.unique(ids):
            rows = ids == policy_id
            reference = references[str(policy_id)]
            expected[rows] = reference.predict_batch(observations[rows])
            pairs[rows] = reference.action_pairs[expected[rows]]
        ok &= bool(np.array_equal(np.asarray(response.action_indices), expected))
        ok &= bool(np.array_equal(np.asarray(response.heating_setpoints), pairs[:, 0]))
        ok &= bool(np.array_equal(np.asarray(response.cooling_setpoints), pairs[:, 1]))
    recorder.calls.clear()
    return ok


def run(seed: int, seconds: float, trace: bool, size: str = "full") -> Outcome:
    from repro.core.tree_policy import TreePolicy
    from repro.serving import CompiledTreePolicy
    from repro.store import PolicyStore

    out = Outcome()
    with scratch_dir("fleet") as root:
        import_s = import_seconds(IMPORTS)
        store = PolicyStore(root / "store")
        incumbents = _incumbents(seed, store, out)
        lead_policy = store.find(incumbents[GROUPS[0][1]]).policy
        candidate = TreePolicy.from_dict(lead_policy.to_dict())
        references = {
            name: CompiledTreePolicy.from_policy(store.find(name).policy)
            for name in incumbents.values()
        }
        references[CANDIDATE] = CompiledTreePolicy.from_policy(candidate)

        setups: List[float] = []
        built = None
        for _ in range(SETUPS):
            if built is not None:
                built[0].close()
            start = time.perf_counter()
            built = _build(seed, size, store, incumbents, candidate)
            setups.append(time.perf_counter() - start)
        server, recorder, loop = built
        try:
            if trace:
                _traced(out, loop, recorder, server, references, size)
            else:
                _measured(out, loop, recorder, references, seconds, size)
        finally:
            server.close()
    out.metrics["setup_s"] = import_s + median_of(setups)
    out.report["import_s"] = (import_s, "s")
    return out


def _tick(out: Outcome, loop: Any, recorder: RecordingServer, references: Dict[str, Any]) -> bool:
    """One checked tick; returns whether it ended an episode (a reset tick)."""
    out.attempted += 1
    try:
        loop.tick()
    except Exception as error:  # noqa: BLE001 - a failed tick is counted, not fatal
        out.failed += 1
        out.notes.setdefault("errors", []).append(repr(error))
        recorder.calls.clear()
        return False
    if not out.check("served_equals_reference", _check_calls(recorder, references)):
        out.failed += 1
    return loop.groups[0].env.step_index == 0


def _measured(out: Outcome, loop: Any, recorder: RecordingServer, references, seconds: float, size: str) -> None:
    for _ in range(WARMUP_TICKS):
        _tick(out, loop, recorder, references)
    first = len(loop.tick_seconds)
    resets: List[bool] = []
    quality = None
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or loop.tick_index < QUALITY_TICKS[size]:
        resets.append(_tick(out, loop, recorder, references))
        if loop.tick_index == QUALITY_TICKS[size]:
            quality = loop.telemetry.snapshot()
    ticks = np.asarray(loop.tick_seconds[first:])
    steady = ticks[~np.asarray(resets, dtype=bool)]
    reset_ticks = ticks[np.asarray(resets, dtype=bool)]
    telemetry = loop.telemetry.snapshot()
    out.check("no_lost_or_fallback_ticks", telemetry["lost_ticks"] == 0 and telemetry["fallback_ticks"] == 0)
    buildings = loop.total_buildings
    # The lower decile, not the median: host contention slows a varying share
    # of ticks and the median flips between the fast and the slow mode.
    out.metrics["op_ms"] = percentile(steady, 10) * 1e3
    out.report.update(
        tick_p10_ms=(out.metrics["op_ms"], "ms"),
        tick_p50_ms=(percentile(steady, 50) * 1e3, "ms"),
        tick_p99_ms=(percentile(steady, 99) * 1e3, "ms"),
        tick_samples=(len(steady), "count"),
        reset_tick_p50_ms=(percentile(reset_ticks, 50) * 1e3 if len(reset_ticks) else 0.0, "ms"),
        reset_ticks=(len(reset_ticks), "count"),
        building_ticks_per_s=(buildings * len(ticks) / float(np.sum(ticks)), "1/s"),
        buildings=(buildings, "count"),
        fleet_energy_kwh=(quality["total_energy_kwh"], "kWh"),
        fleet_comfort_violation=(quality["comfort_violated_tick_fraction"], "fraction"),
        lost_ticks=(telemetry["lost_ticks"], "count"),
        fallback_ticks=(telemetry["fallback_ticks"], "count"),
    )


def _phase(out: Outcome, loop: Any, recorder: RecordingServer, references, ticks: int, tracer=None) -> float:
    """``ticks`` checked ticks from a fresh reset; returns their summed seconds."""
    loop.reset()
    total = 0.0
    for _ in range(ticks):
        if tracer is not None:
            tracer.operation += 1
        start = time.perf_counter()
        _tick(out, loop, recorder, references)
        total += time.perf_counter() - start
    return total


def _traced(out: Outcome, loop: Any, recorder: RecordingServer, server: Any, references, size: str) -> None:
    for _ in range(WARMUP_TICKS):
        _tick(out, loop, recorder, references)
    count = TRACE_TICKS[size]
    # Untraced phases bracket the traced one, so slow drift of the machine's
    # speed cancels out of the tracing overhead.
    untraced = _phase(out, loop, recorder, references, count)
    before = server.stats.to_dict()
    telemetry_before = loop.telemetry.snapshot()
    mark = len(recorder.sizes)
    tracer = Tracer()
    layers.install(tracer)
    try:
        with tracer.span("bench.window"):
            start = time.perf_counter()
            with tracer.span("bench.ops"):
                _phase(out, loop, recorder, references, count, tracer)
            wall = time.perf_counter() - start
    finally:
        tracer.restore()
    after = server.stats.to_dict()
    telemetry = loop.telemetry.snapshot()
    rows, policies = zip(*recorder.sizes[mark:])
    untraced = (untraced + _phase(out, loop, recorder, references, count)) / 2
    out.layers = layers.per_layer_metrics(
        tracer, wall, untraced,
        {
            "serving.rows_per_batch": float(np.mean(rows)),
            "serving.policies_per_batch": float(np.mean(policies)),
            "serving.arena_hits": after["arena_hits"] - before["arena_hits"],
            "serving.compiles": after["compile_count"] - before["compile_count"],
            "fleet.fallback_ticks": telemetry["fallback_ticks"] - telemetry_before["fallback_ticks"],
            "fleet.lost_ticks": telemetry["lost_ticks"] - telemetry_before["lost_ticks"],
        },
    )
    out.check("no_lost_or_fallback_ticks", telemetry["lost_ticks"] == 0 and telemetry["fallback_ticks"] == 0)
