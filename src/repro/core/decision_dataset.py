"""Decision-dataset generation by Monte-Carlo distillation (Section 3.2.1).

A decision dataset ``Pi = {(s, d, a*)}`` pairs policy inputs with the
*deterministic* optimal action distilled from the stochastic optimiser: for
every input the random-shooting optimiser is run several times (the Monte-Carlo
method of the paper) and the most frequent best first action ``a*`` is kept.

Inputs are drawn from the noise-augmented historical distribution
(:class:`repro.core.sampling.AugmentedHistoricalSampler`), which is the paper's
importance-sampling answer to the dimensionality of the input space.  Since the
sampled inputs are not tied to a specific timestamp, the optimiser plans under
a persistence forecast (the sampled disturbance held constant over the planning
horizon) — the same simplification BMS-data-driven extraction has to make.

The vectorised vote (:meth:`DecisionDatasetGenerator.distill_decisions`) is
also the fleet's online drift teacher (:class:`~repro.fleet.drift.MPCTeacher`).
"""

from __future__ import annotations

import os
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.sampling import AugmentedHistoricalSampler
from repro.data import ActionBatch, ObservationBatch
from repro.utils import blas
from repro.utils.rng import RNGLike, ensure_rng, spawn_rngs

#: Index of the occupant-count feature inside the policy-input vector.
_OCCUPANT_COUNT_FEATURE = 5


def worker_count() -> int:
    """Threads :meth:`DecisionDatasetGenerator.generate` may use: this process's CPUs."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass
class DecisionDataset:
    """The decision dataset Pi: policy inputs and distilled action labels."""

    inputs: np.ndarray
    action_labels: np.ndarray
    action_pairs: List[Tuple[int, int]]
    generation_seconds_per_entry: float = 0.0
    monte_carlo_runs: int = 1

    def __post_init__(self) -> None:
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        self.action_labels = np.asarray(self.action_labels, dtype=int)
        if len(self.inputs) != len(self.action_labels):
            raise ValueError("inputs and action_labels must have the same length")
        if len(self.action_pairs) == 0:
            raise ValueError("action_pairs must not be empty")
        if len(self.action_labels) and (
            self.action_labels.min() < 0 or self.action_labels.max() >= len(self.action_pairs)
        ):
            raise ValueError("action labels must index into action_pairs")

    def __len__(self) -> int:
        return len(self.action_labels)

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1] if len(self.inputs) else 0

    def setpoints(self) -> np.ndarray:
        """The (heating, cooling) pairs corresponding to each label, shape (n, 2)."""
        pairs = np.asarray(self.action_pairs, dtype=int)
        return pairs[self.action_labels]

    # ------------------------------------------------------- columnar views
    def observation_batch(self) -> ObservationBatch:
        """The inputs as a columnar :class:`~repro.data.ObservationBatch` (no copy)."""
        return ObservationBatch.from_rows(self.inputs)

    def action_batch(self) -> ActionBatch:
        """The labels as an :class:`~repro.data.ActionBatch` with resolved setpoints."""
        return ActionBatch(self.action_labels).with_setpoints(
            np.asarray(self.action_pairs, dtype=float)
        )

    def subset(self, count: int, seed: RNGLike = None) -> "DecisionDataset":
        """A uniformly subsampled dataset of at most ``count`` entries.

        Used by the data-efficiency experiment (Fig. 6/7), which sweeps the
        number of decision data points used to fit the tree.
        """
        if count >= len(self):
            return DecisionDataset(
                self.inputs.copy(),
                self.action_labels.copy(),
                list(self.action_pairs),
                self.generation_seconds_per_entry,
                self.monte_carlo_runs,
            )
        rng = ensure_rng(seed)
        idx = np.sort(rng.choice(len(self), size=count, replace=False))
        return DecisionDataset(
            self.inputs[idx],
            self.action_labels[idx],
            list(self.action_pairs),
            self.generation_seconds_per_entry,
            self.monte_carlo_runs,
        )

    def merge(self, other: "DecisionDataset") -> "DecisionDataset":
        """Concatenate two decision datasets sharing the same action table."""
        if self.action_pairs != other.action_pairs:
            raise ValueError("Cannot merge decision datasets with different action tables")
        return DecisionDataset(
            np.vstack([self.inputs, other.inputs]),
            np.concatenate([self.action_labels, other.action_labels]),
            list(self.action_pairs),
            max(self.generation_seconds_per_entry, other.generation_seconds_per_entry),
            max(self.monte_carlo_runs, other.monte_carlo_runs),
        )

    def label_distribution(self) -> Counter:
        """How often each action label occurs (diagnostics)."""
        return Counter(self.action_labels.tolist())


class DecisionDatasetGenerator:
    """Distils the stochastic optimiser into deterministic decisions.

    ``sampler`` may be ``None`` when inputs are always supplied.
    """

    def __init__(
        self,
        optimizer,
        sampler: Optional[AugmentedHistoricalSampler],
        action_pairs: Sequence[Tuple[int, int]],
        monte_carlo_runs: int = 5,
        planning_horizon: int = 20,
        occupancy_threshold: float = 0.5,
    ):
        if monte_carlo_runs <= 0:
            raise ValueError("monte_carlo_runs must be positive")
        if planning_horizon <= 0:
            raise ValueError("planning_horizon must be positive")
        self.optimizer = optimizer
        self.sampler = sampler
        self.action_pairs = [tuple(int(v) for v in pair) for pair in action_pairs]
        self.monte_carlo_runs = monte_carlo_runs
        self.planning_horizon = planning_horizon
        self.occupancy_threshold = occupancy_threshold

    # ------------------------------------------------------------------ single
    def distill_decision(self, policy_input: np.ndarray, rng: RNGLike = None) -> int:
        """The most frequent best action over repeated optimiser runs for one input."""
        policy_input = np.asarray(policy_input, dtype=float).ravel()
        state = float(policy_input[0])
        disturbance = policy_input[1:]
        occupied = bool(disturbance[_OCCUPANT_COUNT_FEATURE - 1] > self.occupancy_threshold)
        forecast = np.repeat(disturbance.reshape(1, -1), self.planning_horizon, axis=0)
        occupied_forecast = [occupied] * self.planning_horizon

        run_rngs = spawn_rngs(ensure_rng(rng), self.monte_carlo_runs)
        votes = Counter()
        for run_rng in run_rngs:
            result = self.optimizer.plan(state, forecast, occupied_forecast, rng=run_rng)
            votes[int(result.best_action_index)] += 1
        # Deterministic tie-break: highest vote count, then smallest action index.
        return sorted(votes.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]

    # ------------------------------------------------------------------- batch
    def _spawn_runs(self, num_inputs: int, rng: np.random.Generator) -> List:
        """Every run's generator for ``num_inputs`` entries, in serial-loop order."""
        run_rngs: List = []
        for _ in range(num_inputs):
            run_rngs.extend(spawn_rngs(rng, self.monte_carlo_runs))
        return run_rngs

    def distill_decisions(
        self, inputs: Union[np.ndarray, ObservationBatch], rng: RNGLike = None
    ) -> np.ndarray:
        """Distil every input at once through the optimiser's batched planner.

        The per-problem generators are spawned from ``rng`` in exactly the
        order the serial loop consumes them, so labels are identical
        seed-for-seed to repeated :meth:`distill_decision` calls.

        ``inputs`` may be a plain ``(n, 6)`` array or a columnar
        :class:`~repro.data.ObservationBatch`; either way the whole path down
        to the dynamics model is array ops on the columnar buffer.
        """
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        return self._distill(inputs, self._spawn_runs(len(inputs), ensure_rng(rng)))

    def _distill(self, inputs: np.ndarray, run_rngs: Sequence) -> np.ndarray:
        """Labels for ``inputs`` from one planning problem per generator.

        All ``num_inputs × monte_carlo_runs`` planning problems are flattened
        into one :meth:`~repro.agents.random_shooting.RandomShootingOptimizer.plan_batch`
        call and the Monte-Carlo votes are counted with one ``bincount``.
        Touches no shared state beyond the (thread-safe) dynamics model, so
        concurrent calls on different inputs may run on different threads.
        """
        num_inputs = len(inputs)
        runs = self.monte_carlo_runs
        states = np.repeat(inputs[:, 0], runs)
        disturbances = np.repeat(inputs[:, 1:], runs, axis=0)
        occupied = disturbances[:, _OCCUPANT_COUNT_FEATURE - 1] > self.occupancy_threshold
        n_problems = num_inputs * runs
        # Persistence forecast: the sampled disturbance held over the horizon,
        # as a zero-copy broadcast view.
        forecasts = np.broadcast_to(
            disturbances[:, np.newaxis, :],
            (n_problems, self.planning_horizon, disturbances.shape[1]),
        )
        occupied_forecasts = np.broadcast_to(
            occupied[:, np.newaxis], (n_problems, self.planning_horizon)
        )

        plan = self.optimizer.plan_batch(
            states, forecasts, occupied_forecasts, rngs=run_rngs
        )
        best_first = np.asarray(plan.best_action_indices, dtype=np.int64).reshape(
            num_inputs, runs
        )
        # Vectorised vote counting; argmax takes the first maximum, which is
        # the serial tie-break (highest count, then smallest action index).
        num_actions = len(self.action_pairs)
        offsets = np.arange(num_inputs)[:, np.newaxis] * num_actions
        counts = np.bincount(
            (best_first + offsets).ravel(), minlength=num_inputs * num_actions
        ).reshape(num_inputs, num_actions)
        return np.argmax(counts, axis=1)

    def generate(
        self,
        num_entries: int,
        seed: RNGLike = None,
        inputs: Optional[np.ndarray] = None,
    ) -> DecisionDataset:
        """Generate a decision dataset of ``num_entries`` distilled decisions.

        ``inputs`` can be supplied directly (e.g. a grid for ablations); by
        default they are drawn from the augmented historical distribution.

        All Monte-Carlo RS problems run through the vectorised planner, in
        chunks that keep roughly 2k candidate sequences in flight: that fits
        the flattened model batches in cache (much larger chunks are
        memory-bandwidth-bound and slower).  The chunks are shared out over
        every core this process may run on (:meth:`_run_chunks`).  Labels
        are identical seed-for-seed to a :meth:`distill_decision` loop over
        the same inputs with the same generator, whatever the core count.
        """
        if num_entries <= 0:
            raise ValueError("num_entries must be positive")
        rng = ensure_rng(seed)
        if inputs is None:
            if self.sampler is None:
                raise ValueError("inputs are required when the generator has no sampler")
            inputs = self.sampler.sample(num_entries, rng)
        else:
            inputs = np.atleast_2d(np.asarray(inputs, dtype=float))[:num_entries]

        labels = np.empty(len(inputs), dtype=int)
        chunk = max(1, 2048 // (self.monte_carlo_runs * self.optimizer.num_samples))
        start = time.perf_counter()
        self._run_chunks(inputs, labels, chunk, rng)
        elapsed = time.perf_counter() - start

        return DecisionDataset(
            inputs=inputs,
            action_labels=labels,
            action_pairs=self.action_pairs,
            generation_seconds_per_entry=elapsed / max(len(inputs), 1),
            monte_carlo_runs=self.monte_carlo_runs,
        )

    def _run_chunks(
        self, inputs: np.ndarray, labels: np.ndarray, chunk: int, rng: np.random.Generator
    ) -> None:
        """Label ``inputs`` into ``labels``, ``chunk`` entries at a time, on every core.

        The calling thread and up to ``worker_count() - 1`` helper threads
        each loop: under one lock, claim the next chunk and draw its
        generators from ``rng`` (so the draws happen in serial order, whoever
        claims which chunk); outside it, plan the chunk and write its labels
        by index.  Helpers run only while OpenBLAS is pinned to one thread:
        numpy releases the interpreter lock inside its matmuls, and a BLAS
        pool per Python thread would oversubscribe the cores.  A failure in
        any thread stops the others claiming chunks; every helper is joined
        before the error reaches the caller.
        """
        starts = iter(range(0, len(inputs), chunk))
        lock = threading.Lock()
        stop = threading.Event()

        def work() -> None:
            while True:
                with lock:
                    lo = None if stop.is_set() else next(starts, None)
                    if lo is None:
                        return
                    rows = inputs[lo : lo + chunk]
                    run_rngs = self._spawn_runs(len(rows), rng)
                try:
                    labels[lo : lo + chunk] = self._distill(rows, run_rngs)
                except BaseException:
                    stop.set()
                    raise

        helpers = min(worker_count(), -(-len(inputs) // chunk)) - 1
        with blas.single_threaded() if helpers > 0 else nullcontext(False) as pinned:
            if not pinned:
                work()
                return
            # Build the compiled network once, before the threads race to it.
            self.optimizer.dynamics_model.compile()
            with ThreadPoolExecutor(max_workers=helpers) as pool:
                futures = [pool.submit(work) for _ in range(helpers)]
                try:
                    work()
                finally:
                    stop.set()
                for future in futures:
                    future.result()
