"""Distillation spread over threads must give the serial loop's labels.

``DecisionDatasetGenerator.generate`` shares its chunks out over the calling
thread and helper threads, drawing every chunk's generators from the one
seed in serial order under a lock.  So the labels must equal a
``distill_decision`` loop at float64 whatever the worker count, including
counts above the number of chunks; float32 labels must not depend on the
worker count either.  OpenBLAS is pinned to one thread while helpers run and
restored afterwards, on success, on a helper's error and when two callers
overlap; where it cannot be pinned, only the calling thread works.
"""

from __future__ import annotations

import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.random_shooting import RandomShootingOptimizer
from repro.agents.rule_based import RuleBasedAgent
from repro.core import decision_dataset
from repro.core.decision_dataset import DecisionDatasetGenerator
from repro.core.sampling import AugmentedHistoricalSampler
from repro.env.dataset import collect_historical_data
from repro.env.hvac_env import make_environment
from repro.nn.dynamics import ThermalDynamicsModel
from repro.utils import blas
from repro.utils.rng import ensure_rng

#: 2048 // (RUNS * SAMPLES) = 4 entries per chunk, so a few entries make
#: several chunks and one to three entries make fewer chunks than workers.
RUNS, SAMPLES, HORIZON = 2, 256, 3
CHUNK = 2048 // (RUNS * SAMPLES)

needs_blas_control = pytest.mark.skipif(
    blas.threads() is None, reason="numpy's BLAS thread count cannot be controlled here"
)


def _generator(dtype: str) -> DecisionDatasetGenerator:
    environment = make_environment(city="pittsburgh", days=1, seed=0)
    data = collect_historical_data(environment, RuleBasedAgent.from_config(environment), seed=1)
    model = ThermalDynamicsModel(hidden_sizes=(16,), seed=2).set_inference_dtype(dtype)
    model.fit(data, epochs=2, seed=3)
    optimizer = RandomShootingOptimizer(
        dynamics_model=model,
        action_space=environment.action_space,
        reward_config=environment.config.reward,
        action_config=environment.config.actions,
        num_samples=SAMPLES,
        horizon=HORIZON,
        seed=4,
    )
    return DecisionDatasetGenerator(
        optimizer=optimizer,
        sampler=AugmentedHistoricalSampler.from_dataset(data),
        action_pairs=environment.action_space.pairs,
        monte_carlo_runs=RUNS,
        planning_horizon=HORIZON,
    )


@pytest.fixture(scope="module")
def generator() -> DecisionDatasetGenerator:
    return _generator("float64")


@pytest.fixture(scope="module")
def generator32() -> DecisionDatasetGenerator:
    return _generator("float32")


def _serial_labels(generator: DecisionDatasetGenerator, entries: int, seed: int) -> np.ndarray:
    """The reference: inputs then every entry's runs drawn from one generator."""
    rng = ensure_rng(seed)
    inputs = generator.sampler.sample(entries, rng)
    return np.array([generator.distill_decision(row, rng=rng) for row in inputs])


def _workers(count: int):
    return mock.patch.object(decision_dataset, "worker_count", lambda: count)


def _recording_distill(generator: DecisionDatasetGenerator, seen: list, delay: float = 0.0):
    """Wrap ``_distill`` to record (thread id, BLAS threads) per chunk."""
    original = DecisionDatasetGenerator._distill

    def recorded(self, inputs, run_rngs):
        seen.append((threading.get_ident(), blas.threads()))
        time.sleep(delay)
        return original(self, inputs, run_rngs)

    return mock.patch.object(DecisionDatasetGenerator, "_distill", recorded)


# ------------------------------------------------------------- equivalence
@settings(max_examples=12, deadline=None)
@given(
    workers=st.sampled_from([1, 2, 3, 7]),
    entries=st.integers(min_value=1, max_value=5 * CHUNK + 1),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_float64_labels_equal_the_serial_loop_for_any_worker_count(
    generator, workers, entries, seed
):
    with _workers(workers):
        labels = generator.generate(entries, seed=seed).action_labels
    assert np.array_equal(labels, _serial_labels(generator, entries, seed))


@settings(max_examples=8, deadline=None)
@given(
    workers=st.sampled_from([2, 3, 7]),
    entries=st.integers(min_value=1, max_value=5 * CHUNK + 1),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_float32_labels_do_not_depend_on_the_worker_count(generator32, workers, entries, seed):
    with _workers(1):
        alone = generator32.generate(entries, seed=seed).action_labels
    with _workers(workers):
        shared = generator32.generate(entries, seed=seed).action_labels
    assert np.array_equal(alone, shared)


def test_distill_decisions_equals_the_serial_loop(generator):
    rng = ensure_rng(5)
    inputs = generator.sampler.sample(7, rng)
    batched = generator.distill_decisions(inputs, rng=ensure_rng(6))
    rng = ensure_rng(6)
    assert batched.tolist() == [generator.distill_decision(row, rng=rng) for row in inputs]


# -------------------------------------------------------- threads and BLAS
@needs_blas_control
def test_helpers_run_with_blas_pinned_and_the_count_is_restored(generator):
    before = blas.threads()
    seen: list = []
    with _workers(2), _recording_distill(generator, seen, delay=0.02):
        labels = generator.generate(6 * CHUNK, seed=8).action_labels
    assert np.array_equal(labels, _serial_labels(generator, 6 * CHUNK, 8))
    assert len(seen) == 6
    assert len({ident for ident, _ in seen}) == 2
    assert {threads for _, threads in seen} == {1}
    assert blas.threads() == before


@needs_blas_control
def test_a_helper_error_reaches_the_caller_and_no_thread_survives(generator):
    before = blas.threads()
    alive = set(threading.enumerate())
    caller = threading.get_ident()
    original = DecisionDatasetGenerator._distill

    def failing(self, inputs, run_rngs):
        if threading.get_ident() != caller:
            raise RuntimeError("helper failed")
        time.sleep(0.02)  # keep the caller busy so a helper claims a chunk
        return original(self, inputs, run_rngs)

    with _workers(3), mock.patch.object(DecisionDatasetGenerator, "_distill", failing):
        with pytest.raises(RuntimeError, match="helper failed"):
            generator.generate(8 * CHUNK, seed=9)
    assert set(threading.enumerate()) == alive
    assert blas.threads() == before


@needs_blas_control
def test_two_callers_at_once_get_their_labels_and_restore_blas(generator):
    before = blas.threads()
    seeds = (10, 11)
    expected = {seed: _serial_labels(generator, 3 * CHUNK, seed) for seed in seeds}
    barrier = threading.Barrier(len(seeds))
    results: dict = {}

    def caller(seed: int) -> None:
        barrier.wait()
        results[seed] = generator.generate(3 * CHUNK, seed=seed).action_labels

    threads = [threading.Thread(target=caller, args=(seed,)) for seed in seeds]
    with _workers(2):
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    for seed in seeds:
        assert np.array_equal(results[seed], expected[seed])
    assert blas.threads() == before


def test_without_blas_control_only_the_calling_thread_works(generator, monkeypatch):
    monkeypatch.setattr(blas, "_controls", lambda: None)
    seen: list = []
    with _workers(4), _recording_distill(generator, seen):
        labels = generator.generate(4 * CHUNK, seed=12).action_labels
    assert {ident for ident, _ in seen} == {threading.get_ident()}
    assert np.array_equal(labels, _serial_labels(generator, 4 * CHUNK, 12))


@needs_blas_control
def test_overlapping_pins_restore_the_original_count():
    before = blas.threads()
    first_in, second_in, first_out = threading.Event(), threading.Event(), threading.Event()
    readings: dict = {}

    def first() -> None:
        with blas.single_threaded():
            first_in.set()
            second_in.wait(timeout=30)
        first_out.set()

    def second() -> None:
        first_in.wait(timeout=30)
        with blas.single_threaded():
            second_in.set()
            first_out.wait(timeout=30)
            readings["after_first_left"] = blas.threads()

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert readings == {"after_first_left": 1}
    assert blas.threads() == before
