"""The compiled, buffered forward pass is the dynamics models' only prediction path.

At float64 it must reproduce the reference composition bit for bit —
``Normalizer.transform`` → ``MLP.forward`` → ``inverse_transform`` plus the
residual state — at every row count, including the block boundaries, calls
of alternating sizes and concurrent threads; threads making their first
calls at once must share one compiled network; its workspace must stay within
one block; and a result must never alias the workspace.  The golden pins the
paper-shaped labels and predictions recorded before the buffered pass
existed.
"""

from __future__ import annotations

import hashlib
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.env.dataset import Transition, TransitionDataset
from repro.nn.dynamics import EnsembleDynamicsModel, ThermalDynamicsModel
from repro.nn.inference import ROW_BLOCK, CompiledInferenceNetwork

BOUNDARY_ROWS = [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 5000]


def _random_dataset(seed: int, size: int = 40) -> TransitionDataset:
    rng = np.random.default_rng(seed)
    return TransitionDataset(
        Transition(
            state=float(rng.uniform(15, 30)),
            disturbance=rng.uniform(0, 1, size=5),
            action=(int(rng.integers(15, 22)), int(rng.integers(22, 30))),
            next_state=float(rng.uniform(15, 30)),
        )
        for _ in range(size)
    )


def _fitted(model_class, hidden, seed: int):
    if model_class is ThermalDynamicsModel:
        model = ThermalDynamicsModel(hidden_sizes=hidden, seed=seed)
    else:
        model = EnsembleDynamicsModel(num_members=3, hidden_sizes=hidden, seed=seed)
    model.fit(_random_dataset(seed), epochs=1, seed=seed + 1)
    return model


def _raw(rows: int, seed: int):
    rng = np.random.default_rng(seed)
    return (
        rng.uniform(15, 30, size=rows),
        rng.uniform(0, 1, size=(rows, 5)),
        rng.uniform(15, 28, size=(rows, 2)),
    )


def _reference(model, states, disturbances, actions):
    """The unfused composition the compiled pass must equal bit for bit."""
    raw = np.hstack([states.reshape(-1, 1), disturbances, actions])
    x = model.input_normalizer.transform(raw)
    if isinstance(model, ThermalDynamicsModel):
        y = model.target_normalizer.inverse_transform(model.network.forward(x))
        return y[:, 0] + raw[:, 0]
    members = np.stack(
        [model.target_normalizer.inverse_transform(m.forward(x)) for m in model.ensemble.members]
    )
    return members.mean(axis=0)[:, 0] + raw[:, 0], members.std(axis=0)[:, 0]


def _assert_identical(got, expected):
    if isinstance(expected, tuple):
        assert all(np.array_equal(g, e) for g, e in zip(got, expected))
    else:
        assert got.dtype == np.float64
        assert np.array_equal(got, expected)


MODEL_CLASSES = [ThermalDynamicsModel, EnsembleDynamicsModel]


@pytest.mark.parametrize("model_class", MODEL_CLASSES)
@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    hidden=st.sampled_from([(8,), (64, 64)]),
    sizes=st.lists(
        st.sampled_from(BOUNDARY_ROWS) | st.integers(1, 3 * ROW_BLOCK + 7), min_size=2, max_size=4
    ),
)
def test_predict_matches_reference_composition(model_class, seed, hidden, sizes):
    model = _fitted(model_class, hidden, seed)
    for call, rows in enumerate(sizes):
        inputs = _raw(rows, seed + call)
        _assert_identical(model.predict(*inputs), _reference(model, *inputs))


@pytest.mark.parametrize("model_class", MODEL_CLASSES)
def test_every_boundary_row_count_is_exact(model_class):
    model = _fitted(model_class, (64, 64), seed=3)
    for rows in BOUNDARY_ROWS + [2, 5, ROW_BLOCK + 2, 2 * ROW_BLOCK + 1]:
        inputs = _raw(rows, rows)
        _assert_identical(model.predict(*inputs), _reference(model, *inputs))


@pytest.mark.parametrize("model_class", MODEL_CLASSES)
def test_second_call_leaves_first_result_untouched(model_class):
    model = _fitted(model_class, (8,), seed=5)
    first = model.predict(*_raw(ROW_BLOCK + 1, 0))
    kept = [np.copy(part) for part in first] if isinstance(first, tuple) else np.copy(first)
    for rows in (ROW_BLOCK + 1, 7, 3 * ROW_BLOCK):
        model.predict(*_raw(rows, rows))
    _assert_identical(first, tuple(kept) if isinstance(kept, list) else kept)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_forward_returns_a_fresh_array(dtype):
    model = _fitted(ThermalDynamicsModel, (8,), seed=6)
    network = CompiledInferenceNetwork(
        model.network, dtype, model.input_normalizer, model.target_normalizer
    )
    rng = np.random.default_rng(0)
    first = network.forward(rng.uniform(0, 30, size=(ROW_BLOCK + 1, 8)))
    kept = first.copy()
    for rows in (ROW_BLOCK + 1, 7):
        network.forward(rng.uniform(0, 30, size=(rows, 8)))
    assert np.array_equal(first, kept)


def test_workspace_never_exceeds_one_block():
    model = _fitted(ThermalDynamicsModel, (64, 64), seed=7)
    for dtype in ("float64", "float32"):
        network = CompiledInferenceNetwork(
            model.network, dtype, model.input_normalizer, model.target_normalizer
        )
        assert network.workspace_rows == 0
        network.forward(np.ones((3, 8), dtype=np.float64))
        assert network.workspace_rows == 3
        out = network.forward(np.ones((100_000, 8), dtype=np.float64))
        assert out.shape == (100_000, 1) and out.dtype == np.dtype(dtype)
        assert network.workspace_rows == ROW_BLOCK


@pytest.mark.parametrize("model_class", MODEL_CLASSES)
def test_threads_predicting_at_once_get_the_reference(model_class):
    # More threads than cores and a short switch interval, so calls interleave
    # inside forward(): a workspace shared between threads would corrupt them.
    model = _fitted(model_class, (64, 64), seed=9)
    model.predict(*_raw(2, 0))  # compile once, before the threads race
    jobs = [_raw(rows, rows) for rows in (ROW_BLOCK + 1, 5000, 3, 2 * ROW_BLOCK)]
    expected = [_reference(model, *inputs) for inputs in jobs]
    barrier = threading.Barrier(len(jobs))
    mismatches = []

    def worker(index: int) -> None:
        barrier.wait()
        for _ in range(20):
            try:
                _assert_identical(model.predict(*jobs[index]), expected[index])
            except AssertionError:
                mismatches.append(index)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


@pytest.mark.parametrize("model_class", MODEL_CLASSES)
def test_first_predictions_at_once_share_one_compiled_network(model_class, monkeypatch):
    import repro.nn.dynamics as dynamics

    model = _fitted(model_class, (8,), seed=10)
    original = dynamics.CompiledInferenceNetwork
    built = []

    def slow_build(*args, **kwargs):
        time.sleep(0.05)  # widen the window two racing first calls would share
        network = original(*args, **kwargs)
        built.append(network)
        return network

    monkeypatch.setattr(dynamics, "CompiledInferenceNetwork", slow_build)
    inputs = _raw(3, 0)
    barrier = threading.Barrier(2)
    compiled = []

    def first_call() -> None:
        barrier.wait()
        model.predict(*inputs)
        if isinstance(model, ThermalDynamicsModel):
            compiled.append(model._inference_network())
        else:
            compiled.append(model._inference_members())

    threads = [threading.Thread(target=first_call) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert len(compiled) == 2 and compiled[0] is compiled[1]
    members = 1 if isinstance(model, ThermalDynamicsModel) else len(model.ensemble.members)
    assert len(built) == members


def test_pickled_network_predicts_the_same():
    import pickle

    model = _fitted(ThermalDynamicsModel, (8,), seed=11)
    inputs = _raw(50, 0)
    expected = model.predict(*inputs)
    assert np.array_equal(pickle.loads(pickle.dumps(model)).predict(*inputs), expected)


# ----------------------------------------------------------------- golden
#: Recorded with the training-network float64 path before the buffered pass
#: replaced it: the labels of ``generate(4, seed=7)`` and one 5000-row predict,
#: at the paper's per-entry shape (1000 samples x H=20, 5 MC runs, 64x64 MLP).
#: Recorded with numpy 2.4 on OpenBLAS 0.3.31 (x86-64, 1 and 2 BLAS threads
#: agree); like ``hvacbench/pins.json`` the float bits belong to that BLAS
#: build's kernels, so another build may need them re-recorded from the
#: reference path.
GOLDEN_LABELS = [5, 8, 48, 4]
GOLDEN_LABELS_SHA256 = "0acb55fabc0428079ff07140718ce5a1c36542564cefd9ab2c1452a6fd6b7a47"
GOLDEN_PREDICT_SHA256 = "25462f3fd5e26b49781dc4d2dade85cec789151666ad63967a8fdfd431fc8f17"


def _sha256(values: np.ndarray, dtype) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=dtype).tobytes()).hexdigest()


def test_paper_shape_golden_labels_and_predictions():
    from repro.core.decision_dataset import DecisionDatasetGenerator
    from repro.core.sampling import AugmentedHistoricalSampler
    from repro.experiments.drivers import fit_planner

    environment, history, optimizer = fit_planner(
        "pittsburgh", "winter", 0, days=2, hidden_sizes=(64, 64), epochs=5,
        num_samples=1000, horizon=20,
    )
    generator = DecisionDatasetGenerator(
        optimizer=optimizer,
        sampler=AugmentedHistoricalSampler.from_dataset(history),
        action_pairs=environment.action_space.pairs,
        monte_carlo_runs=5,
        planning_horizon=20,
    )
    labels = generator.generate(4, seed=7).action_labels
    assert labels.tolist() == GOLDEN_LABELS
    assert _sha256(labels, np.int64) == GOLDEN_LABELS_SHA256

    rng = np.random.default_rng(11)
    inputs = generator.sampler.sample(5000, rng)
    pairs = np.asarray(environment.action_space.pairs, dtype=float)
    actions = pairs[rng.integers(0, len(pairs), size=5000)]
    predictions = optimizer.dynamics_model.predict(inputs[:, 0], inputs[:, 1:], actions)
    assert _sha256(predictions, np.float64) == GOLDEN_PREDICT_SHA256
