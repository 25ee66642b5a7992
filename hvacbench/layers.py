"""Which program callables a traced run wraps, and the per-layer metrics.

Layers are the ``repro`` modules.  Each entry of :func:`install` wraps one
public callable at a layer boundary; a span's name starts with its layer.
:func:`per_layer_metrics` reduces a tracer's spans to the fixed metric set
below, which every traced run reports on every workload (a layer a workload
does not use reads 0).
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from hvacbench.spans import Tracer

#: The layers; a span's name starts with its layer's name and a dot.
LAYERS = ("env", "nn", "agents", "core", "dtree", "store", "serving", "data", "fleet", "experiments", "bench")

#: Per-layer metric → unit, in the order BENCHMARK.json lists them.
PER_LAYER: Dict[str, str] = {
    # extraction chain (extract-paper)
    "nn.predict_s": "s",
    "nn.predict_calls": "count",
    "nn.predict_rows": "count",
    "nn.fit_s": "s",
    "agents.random_shooting.plan_batch_self_s": "s",
    "agents.random_shooting.rows_per_call": "rows",
    "core.decision_dataset.generate_s": "s",
    "core.extraction.fidelity_s": "s",
    "core.verification.verify_s": "s",
    "core.pipeline.run_self_s": "s",
    "dtree.fit_s": "s",
    "env.step_s": "s",
    "env.step_calls": "count",
    "env.dataset.collect_s": "s",
    "store.put_s": "s",
    "store.pack_s": "s",
    "experiments.runner.eval_s": "s",
    "agents.dt_agent.select_action_s": "s",
    # closed-loop fleet (fleet-loop)
    "env.vector_env.step_s": "s",
    "env.vector_env.step_calls": "count",
    "env.vector_env.reset_s": "s",
    "env.disturbances.step_overhead": "ratio",
    "fleet.tick_self_s": "s",
    "fleet.drift_s": "s",
    "fleet.shadow_s": "s",
    "fleet.telemetry_s": "s",
    "fleet.fallback_ticks": "count",
    "fleet.lost_ticks": "count",
    # serving (fleet-loop narrow mix, serve-wide wide mix)
    "serving.serve_columnar_s": "s",
    "serving.compiled.predict_batch_s": "s",
    "serving.rows_per_batch": "rows",
    "serving.policies_per_batch": "count",
    "serving.arena_hits": "count",
    "serving.compiles": "count",
    "serving.sharded.serve_columnar_s": "s",
    "serving.sharded.overhead_s": "s",
    "serving.sharded.retries": "count",
    "serving.sharded.restarts": "count",
    "serving.sharded.fallback_rows": "count",
    "serving.sharded.lost_requests": "count",
    "data.shm.write_s": "s",
    "data.shm.read_s": "s",
    "serve.queue_wait_ms": "ms",
    "serve.gen_lag_ms": "ms",
    # layer totals: self time of every span of the layer
    "layer.env_s": "s",
    "layer.nn_s": "s",
    "layer.agents_s": "s",
    "layer.core_s": "s",
    "layer.dtree_s": "s",
    "layer.store_s": "s",
    "layer.serving_s": "s",
    "layer.data_s": "s",
    "layer.fleet_s": "s",
    "layer.experiments_s": "s",
    "layer.bench_s": "s",
    # the trace itself
    "trace.wall_s": "s",
    "trace.self_sum_error": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}

#: |sum of layer self times - traced wall| / wall must stay below this.
SELF_SUM_TOLERANCE = 0.01


def _batch_rows(self, batch, *args, **kwargs) -> int:
    return len(batch)


def install(tracer: Tracer) -> None:
    """Wrap every traced callable of the program (restore with ``tracer.restore``)."""
    import repro.core.pipeline as pipeline
    from repro.agents.dt_agent import DecisionTreeAgent
    from repro.agents.random_shooting import RandomShootingOptimizer
    from repro.core.decision_dataset import DecisionDatasetGenerator
    from repro.core.extraction import PolicyExtractor
    from repro.data.shm import SharedMemoryColumnarBuffer
    from repro.dtree.cart import DecisionTreeClassifier
    from repro.env.hvac_env import HVACEnvironment
    from repro.env.vector_env import BatchedHVACEnvironment
    from repro.experiments.runner import ExperimentRunner
    from repro.fleet.drift import DriftDetector
    from repro.fleet.loop import FleetLoop
    from repro.fleet.shadow import ShadowEvaluator
    from repro.fleet.telemetry import FleetTelemetry
    from repro.nn.dynamics import ThermalDynamicsModel
    from repro.serving.compiled import CompiledTreePolicy
    from repro.serving.server import PolicyServer
    from repro.serving.sharded import ShardedPolicyServer
    from repro.store.store import PolicyStore

    faulted: Dict[int, bool] = {}

    def vector_step_name(env, *args, **kwargs) -> str:
        # A batch is faulted when any of its episodes has a disturbance schedule.
        if id(env) not in faulted:
            faulted[id(env)] = any(e.disturbance is not None for e in env.environments)
        return "env.vector_env.step.faulted" if faulted[id(env)] else "env.vector_env.step.clean"

    wrap = tracer.wrap
    wrap(HVACEnvironment, "step", "env.hvac_env.step")
    wrap(HVACEnvironment, "reset", "env.hvac_env.reset")
    wrap(pipeline, "collect_historical_data", "env.dataset.collect")
    wrap(BatchedHVACEnvironment, "step", vector_step_name, rows=lambda self, *a, **k: self.batch_size)
    wrap(BatchedHVACEnvironment, "reset", "env.vector_env.reset")
    wrap(
        ThermalDynamicsModel, "predict", "nn.predict",
        rows=lambda self, states, *a, **k: int(np.size(states)),
    )
    wrap(ThermalDynamicsModel, "fit", "nn.fit")
    wrap(
        RandomShootingOptimizer, "plan_batch", "agents.random_shooting.plan_batch",
        rows=lambda self, states, *a, **k: int(np.size(states)) * int(self.num_samples),
    )
    wrap(DecisionTreeAgent, "select_action", "agents.dt_agent.select_action")
    wrap(DecisionDatasetGenerator, "generate", "core.decision_dataset.generate")
    wrap(PolicyExtractor, "fidelity", "core.extraction.fidelity")
    wrap(pipeline, "verify_policy", "core.verification.verify")
    wrap(pipeline.VerifiedPolicyPipeline, "run", "core.pipeline.run")
    wrap(DecisionTreeClassifier, "fit", "dtree.fit")
    wrap(PolicyStore, "put", "store.put")
    wrap(PolicyStore, "pack", "store.pack")
    wrap(ExperimentRunner, "run", "experiments.runner.run")
    wrap(PolicyServer, "serve_columnar", "serving.server.serve_columnar", rows=_batch_rows)
    wrap(
        CompiledTreePolicy, "predict_batch", "serving.compiled.predict_batch",
        rows=lambda self, inputs, *a, **k: len(inputs),
    )
    wrap(ShardedPolicyServer, "serve_columnar", "serving.sharded.serve_columnar", rows=_batch_rows)
    wrap(SharedMemoryColumnarBuffer, "write_batch", "data.shm.write")
    wrap(SharedMemoryColumnarBuffer, "read_batch", "data.shm.read")
    wrap(FleetLoop, "tick", "fleet.loop.tick")
    wrap(DriftDetector, "observe", "fleet.drift.observe")
    wrap(ShadowEvaluator, "observe", "fleet.shadow.observe")
    wrap(FleetTelemetry, "record_group", "fleet.telemetry.record")


def _layer_of(name: str) -> str:
    layer = name.split(".", 1)[0]
    if layer not in LAYERS:
        raise ValueError(f"span {name!r} belongs to no layer")
    return layer


def per_layer_metrics(
    tracer: Tracer, wall_s: float, untraced_wall_s: float, extra: Mapping[str, float]
) -> Dict[str, float]:
    """The full :data:`PER_LAYER` dict from a traced run.

    ``wall_s`` is the traced window measured outside the tracer and
    ``untraced_wall_s`` the same work measured with tracing off; ``extra``
    supplies the metrics spans cannot give (server counters, queue waits).
    """
    table = tracer.summary()

    def self_s(*names: str) -> float:
        return float(sum(table[n]["self_s"] for n in names if n in table))

    def field(name: str, key: str) -> float:
        return float(table[name][key]) if name in table else 0.0

    out: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    out["nn.predict_s"] = self_s("nn.predict")
    out["nn.predict_calls"] = field("nn.predict", "calls")
    out["nn.predict_rows"] = field("nn.predict", "rows")
    out["nn.fit_s"] = self_s("nn.fit")
    plan_calls = field("agents.random_shooting.plan_batch", "calls")
    out["agents.random_shooting.plan_batch_self_s"] = self_s("agents.random_shooting.plan_batch")
    if plan_calls:
        out["agents.random_shooting.rows_per_call"] = (
            field("agents.random_shooting.plan_batch", "rows") / plan_calls
        )
    out["core.decision_dataset.generate_s"] = self_s("core.decision_dataset.generate")
    out["core.extraction.fidelity_s"] = self_s("core.extraction.fidelity")
    out["core.verification.verify_s"] = self_s("core.verification.verify")
    out["core.pipeline.run_self_s"] = self_s("core.pipeline.run")
    out["dtree.fit_s"] = self_s("dtree.fit")
    out["env.step_s"] = self_s("env.hvac_env.step")
    out["env.step_calls"] = field("env.hvac_env.step", "calls")
    out["env.dataset.collect_s"] = self_s("env.dataset.collect")
    out["store.put_s"] = self_s("store.put")
    out["store.pack_s"] = self_s("store.pack")
    out["experiments.runner.eval_s"] = self_s("experiments.runner.run")
    out["agents.dt_agent.select_action_s"] = self_s("agents.dt_agent.select_action")

    clean, faulted = "env.vector_env.step.clean", "env.vector_env.step.faulted"
    out["env.vector_env.step_s"] = self_s(clean, faulted)
    out["env.vector_env.step_calls"] = field(clean, "calls") + field(faulted, "calls")
    out["env.vector_env.reset_s"] = self_s("env.vector_env.reset")
    if field(clean, "rows") and field(faulted, "rows"):
        # Self time per building-step, faulted group over clean groups.
        out["env.disturbances.step_overhead"] = (self_s(faulted) / field(faulted, "rows")) / (
            self_s(clean) / field(clean, "rows")
        )
    out["fleet.tick_self_s"] = self_s("fleet.loop.tick")
    out["fleet.drift_s"] = self_s("fleet.drift.observe")
    out["fleet.shadow_s"] = self_s("fleet.shadow.observe")
    out["fleet.telemetry_s"] = self_s("fleet.telemetry.record")

    out["serving.serve_columnar_s"] = self_s("serving.server.serve_columnar")
    out["serving.compiled.predict_batch_s"] = self_s("serving.compiled.predict_batch")
    out["serving.sharded.serve_columnar_s"] = self_s("serving.sharded.serve_columnar")
    out["data.shm.write_s"] = self_s("data.shm.write")
    out["data.shm.read_s"] = self_s("data.shm.read")

    layer_totals = {layer: 0.0 for layer in LAYERS}
    for name, row in table.items():
        layer_totals[_layer_of(name)] += row["self_s"]
    for layer, total in layer_totals.items():
        out[f"layer.{layer}_s"] = total
    self_sum = sum(layer_totals.values())
    out["trace.wall_s"] = wall_s
    out["trace.self_sum_error"] = abs(self_sum - wall_s) / wall_s if wall_s > 0 else 0.0
    out["trace.overhead_s"] = wall_s - untraced_wall_s
    out["trace.overhead_frac"] = (
        (wall_s - untraced_wall_s) / untraced_wall_s if untraced_wall_s > 0 else 0.0
    )
    out["trace.spans"] = float(len(tracer.spans))
    for name, value in extra.items():
        if name not in out:
            raise KeyError(f"unknown per-layer metric {name!r}")
        out[name] = float(value)
    return out
