"""Distillation target: serial vs batched vs float32 Monte-Carlo distillation."""

from __future__ import annotations

import argparse
import time
from typing import Dict, List

import numpy as np

from repro.bench.floors import Floor, at_size, bound, holds
from repro.experiments.drivers import fit_planner


def run_distill(args: argparse.Namespace) -> Dict:
    """Time serial vs. batched vs. float32-batched Monte-Carlo distillation.

    The serial row is a :meth:`DecisionDatasetGenerator.distill_decision`
    loop over the same inputs with the same generator — the reference the
    batched ``generate`` must match label for label.  The float32 row
    measures the dtype-policy fast path (``set_inference_dtype("float32")``)
    against the float64 batched reference on the same inputs and reports the
    label-agreement rate — the distilled labels are a vote over many
    stochastic plans, so tiny per-prediction rounding differences rarely
    flip a label.
    """
    from repro.core.decision_dataset import DecisionDatasetGenerator
    from repro.core.sampling import AugmentedHistoricalSampler
    from repro.utils.rng import ensure_rng

    # Paper-shaped (64, 64) model: distillation cost is dominated by its
    # matmuls, which is exactly what the float32 row is meant to expose.
    environment, history, optimizer = fit_planner(
        args.climate,
        args.season,
        args.seed,
        days=2,
        hidden_sizes=(64, 64),
        epochs=15,
        num_samples=args.samples,
        horizon=args.horizon,
    )
    model = optimizer.dynamics_model
    generator = DecisionDatasetGenerator(
        optimizer=optimizer,
        sampler=AugmentedHistoricalSampler.from_dataset(history),
        action_pairs=environment.action_space.pairs,
        monte_carlo_runs=args.mc_runs,
        planning_horizon=args.horizon,
    )
    # generate() draws its inputs and then every entry's plans from one
    # generator; the serial loop consumes it in the same order.
    rng = ensure_rng(args.seed)
    inputs = generator.sampler.sample(args.entries, rng)
    start = time.perf_counter()
    serial_labels = np.array([generator.distill_decision(row, rng=rng) for row in inputs])
    serial_seconds_per_entry = (time.perf_counter() - start) / args.entries
    batched = generator.generate(args.entries, seed=args.seed)
    model.set_inference_dtype("float32")
    float32 = generator.generate(args.entries, seed=args.seed)
    model.set_inference_dtype("float64")
    return {
        "benchmark": "distill",
        "entries": args.entries,
        "monte_carlo_runs": args.mc_runs,
        "optimizer_samples": args.samples,
        "planning_horizon": args.horizon,
        "serial_seconds_per_entry": serial_seconds_per_entry,
        "batched_seconds_per_entry": batched.generation_seconds_per_entry,
        "speedup": serial_seconds_per_entry
        / max(batched.generation_seconds_per_entry, 1e-12),
        "labels_identical": bool(np.array_equal(serial_labels, batched.action_labels)),
        "float32_seconds_per_entry": float32.generation_seconds_per_entry,
        "float32_speedup": batched.generation_seconds_per_entry
        / max(float32.generation_seconds_per_entry, 1e-12),
        "float32_label_agreement": float(
            np.mean(float32.action_labels == batched.action_labels)
        ),
    }


def distill_floors(result: Dict) -> List[Floor]:
    """Exact serial labels always; float32 agreement and speedup at CI size."""
    # Set at CI's 48 entries, where one BLAS-build-dependent rounding flip is
    # 47/48 = 0.979: the agreement floor tolerates one flip and only catches
    # real numeric divergence (the committed BENCH_distill.json records the
    # >= 99.5% acceptance level).  2-vCPU box, 10 runs back to back:
    # agreement 1.0 and float32 1.48-2.52x (median 1.61x) over the buffered
    # float64 pass, batched float64 0.65-1.39 ms/entry.  Before `generate`
    # ran on threads with OpenBLAS pinned to one thread, the same 10 runs
    # read float32 1.03-1.71x, and one fell into a slow mode: batched 8.7
    # and float32 8.5 ms/entry instead of ~0.7 and ~0.5 (the 64-row serial
    # plans, below OpenBLAS's threading threshold, were not affected).  Six
    # more runs, each right after the rollout bench (CI order), read
    # 1.32-1.66x; one started as a full test suite ended read 1.08x
    # (batched 0.50, float32 0.46 ms/entry): each pass is one ~25 ms timing,
    # so a busy host can still push the ratio under the floor.
    ci_size = at_size(result, "entries", 48)
    return [
        holds(result, "labels_identical", "batched labels diverged from the serial loop"),
        bound(result, "float32_label_agreement", ">=", 0.97, ci_size),
        bound(result, "float32_speedup", ">=", 1.2, ci_size),
    ]
