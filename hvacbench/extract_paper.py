"""Workload ``extract-paper``: the Fig. 2 chain at the paper's per-entry shape.

One operation is a whole chain: a fresh ``VerifiedPolicyPipeline`` run
(14-day history through the scalar env, a 64x64 MLP trained for 60 epochs,
random shooting with 1000 samples x H=20, 5 Monte-Carlo runs per entry, 2000
probabilistic-verification samples), then ``PolicyStore.put`` (inside the
run), ``PolicyStore.pack`` and a 1-day closed-loop evaluation of the tree
through ``ExperimentRunner``.  Only the entry count is cut from the paper's
500 so that several chains fit in one run.

Each chain writes to a fresh store, so none is a store hit.  The seed drives
the pipeline seed and the evaluation episode; city and season stay fixed.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional

from hvacbench import layers
from hvacbench.common import Outcome, digest, import_seconds, median_of, scratch_dir
from hvacbench.spans import Tracer

CITY = "pittsburgh"
SEASON = "winter"
#: Decision-dataset entries per chain (the paper uses 500).
ENTRIES = {"full": 48, "smoke": 3}
#: Set-ups per run; ``setup_s`` is their median plus the import time.
SETUPS = 5
#: Modules a fresh interpreter imports before it can run this workload
#: (their import time is part of ``setup_s``).
IMPORTS = "repro.core.pipeline, repro.experiments.runner, repro.store"
PINS = Path(__file__).resolve().parent / "pins.json"


def _config(seed: int, entries: int):
    from repro.core.pipeline import PipelineConfig

    return PipelineConfig(city=CITY, season=SEASON, seed=seed, num_decision_data=entries)


def _setup(seed: int, entries: int, root: Path, index: int) -> float:
    """Build what one chain needs before it runs; returns the seconds taken."""
    from repro.core.pipeline import VerifiedPolicyPipeline
    from repro.experiments.runner import ExperimentRunner
    from repro.experiments.scenarios import ScenarioSpec
    from repro.store import PolicyStore

    start = time.perf_counter()
    pipeline = VerifiedPolicyPipeline(_config(seed, entries), store=PolicyStore(root / f"setup-{index}"))
    pipeline.build_environment()
    ExperimentRunner(ScenarioSpec(city=CITY, season=SEASON, days=1), base_seed=seed)
    return time.perf_counter() - start


def _chain(seed: int, entries: int, store_root: Path) -> Dict[str, object]:
    """One extract → put → pack → evaluate chain; returns what it produced."""
    from repro.core.pipeline import VerifiedPolicyPipeline
    from repro.experiments.runner import ExperimentRunner
    from repro.experiments.scenarios import ScenarioSpec
    from repro.store import PolicyStore

    start = time.perf_counter()
    store = PolicyStore(store_root)
    result = VerifiedPolicyPipeline(_config(seed, entries), store=store).run()
    store.pack()
    episode = (
        ExperimentRunner(ScenarioSpec(city=CITY, season=SEASON, days=1), base_seed=seed)
        .run(result.agent())
        .episodes[0]
    )
    seconds = time.perf_counter() - start
    labels = result.decision_dataset.action_labels
    return {
        "seconds": seconds,
        "extraction_s": result.stage_seconds["extraction"],
        "label_digest": digest(labels),
        "node_count": int(result.policy.node_count),
        "policy_digest": digest(result.policy.compiled().threshold, result.policy.compiled().leaf_action),
        "verified": bool(result.verified),
        "safe_probability": float(result.verification.safe_probability),
        "energy_kwh": float(episode.total_energy_kwh),
        "comfort_violation": float(episode.comfort_violation_rate),
        "stored": result.store_key is not None and not result.cache_hit,
    }


def _pins(size: str) -> Dict[str, Dict[str, object]]:
    if not PINS.is_file():
        return {}
    return json.loads(PINS.read_text()).get(f"extract-paper/{size}", {})


def run(seed: int, seconds: float, trace: bool, size: str = "full") -> Outcome:
    entries = ENTRIES[size]
    out = Outcome()
    with scratch_dir("extract") as root:
        import_s = import_seconds(IMPORTS)
        setup = median_of([_setup(seed, entries, root, i) for i in range(SETUPS)])
        setup_s = import_s + setup
        # Warm-up: lazy imports, BLAS thread pool, allocator; not measured.
        _chain(seed, 1, root / "warmup")

        chains: List[Dict[str, object]] = []
        traced_chain: Optional[Dict[str, object]] = None
        tracer = Tracer()
        if trace:
            # Untraced chains bracket the traced one, so slow drift of the
            # machine's speed cancels out of the tracing overhead.
            chains.append(_attempt(out, seed, entries, root / "chain-0"))
            layers.install(tracer)
            try:
                with tracer.span("bench.window"):
                    start = time.perf_counter()
                    traced_chain = _attempt(out, seed, entries, root / "chain-traced", tracer)
                    wall = time.perf_counter() - start
            finally:
                tracer.restore()
            chains.append(_attempt(out, seed, entries, root / "chain-1"))
        else:
            # Start a chain only if it should end inside the window.
            start = time.perf_counter()
            while not chains or time.perf_counter() - start + float(chains[-1].get("seconds", 0.0)) <= seconds:
                chains.append(_attempt(out, seed, entries, root / f"chain-{len(chains)}"))

    done = [c for c in chains if c]
    if not done:
        return out
    first = done[0]
    for chain in done + ([traced_chain] if traced_chain else []):
        same = all(chain[k] == first[k] for k in ("label_digest", "node_count", "policy_digest", "energy_kwh"))
        if not same:
            out.failed += 1
        out.check("chains_identical", same)
    if traced_chain is not None:
        out.check("traced_policy_identical", traced_chain.get("policy_digest") == first["policy_digest"])
    pin = _pins(size).get(str(seed))
    if pin is not None:
        pinned = pin["label_digest"] == first["label_digest"] and pin["node_count"] == first["node_count"]
        if not out.check("pinned_labels_and_nodes", pinned):
            out.failed += len(done)  # every chain produced the unpinned labels
    out.notes["pinned_seed"] = pin is not None
    out.notes["chain_seconds"] = [round(float(c["seconds"]), 4) for c in done]
    out.notes["label_digest"] = first["label_digest"]
    out.notes["node_count"] = first["node_count"]
    out.notes["verified"] = first["verified"]
    out.check("stored_and_fresh", all(c["stored"] for c in done))

    times = [float(c["seconds"]) for c in done]
    extraction = median_of([float(c["extraction_s"]) for c in done])
    out.metrics = {
        "setup_s": setup_s,
        "op_ms": median_of(times) * 1e3,
    }
    out.report = {
        "extract_s": (median_of(times), "s"),
        "extract_slowest_s": (max(times), "s"),
        "extract_chains": (len(times), "count"),
        "entries_per_s": (entries / extraction, "1/s"),
        "import_s": (import_s, "s"),
        "dt_safe_probability": (float(first["safe_probability"]), "probability"),
        "dt_energy_kwh": (float(first["energy_kwh"]), "kWh"),
        "dt_comfort_violation": (float(first["comfort_violation"]), "fraction"),
    }
    if trace and traced_chain:
        untraced = sum(times) / len(times)
        out.layers = layers.per_layer_metrics(tracer, wall, untraced, {})
    return out


def _attempt(
    out: Outcome, seed: int, entries: int, store_root: Path, tracer: Optional[Tracer] = None
) -> Dict[str, object]:
    """Run one chain as one attempted operation; an exception counts as failed."""
    out.attempted += 1
    try:
        if tracer is None:
            return _chain(seed, entries, store_root)
        tracer.operation += 1
        with tracer.span("bench.op"):
            return _chain(seed, entries, store_root)
    except Exception as error:  # noqa: BLE001 - a failed operation is counted, not fatal
        out.failed += 1
        out.notes.setdefault("errors", []).append(repr(error))
        return {}
