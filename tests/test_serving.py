"""Compiled serving: compiled-vs-recursive equivalence, server batching, CLI."""

import itertools
import json
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tree_policy import TreePolicy
from repro.data import PolicyRequestBatch
from repro.dtree.cart import DecisionTreeClassifier
from repro.dtree.node import TreeNode
from repro.serving import (
    CompiledTreeForest,
    CompiledTreePolicy,
    PolicyRequest,
    PolicyServer,
    UnknownPolicyError,
)
from repro.store import PolicyKey, PolicyStore, write_arena

N_FEATURES = 6
ACTION_PAIRS = [(15 + i, 22 + i) for i in range(8)]
FEATURE_NAMES = [f"f{i}" for i in range(N_FEATURES)]


def random_policy(seed: int, rows: int = 160) -> TreePolicy:
    """A tree fitted on random data — irregular shape, random thresholds."""
    rng = np.random.default_rng(seed)
    features = rng.uniform(-5.0, 5.0, size=(rows, N_FEATURES))
    labels = rng.integers(0, len(ACTION_PAIRS), size=rows)
    tree = DecisionTreeClassifier(max_depth=int(rng.integers(2, 9)))
    tree.fit(features, labels)
    return TreePolicy(tree, action_pairs=ACTION_PAIRS, feature_names=FEATURE_NAMES)


def probe_inputs(policy: TreePolicy, seed: int, rows: int = 400) -> np.ndarray:
    """Random probes plus every split threshold placed exactly on the boundary."""
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(-6.0, 6.0, size=(rows, N_FEATURES))
    thresholds = [
        (node.feature_index, node.threshold)
        for node in policy.tree.root.iter_nodes()
        if not node.is_leaf
    ]
    for row, (feature, threshold) in enumerate(thresholds[: len(inputs)]):
        inputs[row, feature] = threshold  # the <= / > boundary case
    return inputs


# ------------------------------------------------------------- equivalence
@pytest.mark.parametrize("seed", range(8))
def test_compiled_matches_recursive_on_random_trees(seed):
    policy = random_policy(seed)
    compiled = CompiledTreePolicy.from_policy(policy)
    inputs = probe_inputs(policy, seed + 100)
    assert np.array_equal(
        compiled.predict_batch(inputs), policy.predict_action_indices(inputs)
    )


def test_compiled_matches_recursive_on_pipeline_policy():
    from repro.core.pipeline import PipelineConfig, VerifiedPolicyPipeline

    result = VerifiedPolicyPipeline(
        PipelineConfig.tiny(seed=21, num_decision_data=48, training_epochs=8)
    ).run()
    policy = result.policy
    compiled = policy.compiled()
    assert compiled.node_count == policy.node_count
    assert compiled.leaf_count == policy.leaf_count
    inputs = probe_inputs(policy, 22, rows=600)
    assert np.array_equal(
        compiled.predict_batch(inputs), policy.predict_action_indices(inputs)
    )
    # Setpoint decoding matches the recursive path too.
    setpoints = compiled.setpoints_batch(inputs[:32])
    expected = np.array([policy.setpoints_for(row) for row in inputs[:32]])
    assert np.array_equal(setpoints, expected)


def test_compiled_single_leaf_tree():
    tree = DecisionTreeClassifier()
    tree.fit(np.zeros((4, N_FEATURES)), np.full(4, 3))
    policy = TreePolicy(tree, action_pairs=ACTION_PAIRS)
    compiled = CompiledTreePolicy.from_policy(policy)
    assert compiled.predict_batch(np.zeros((5, N_FEATURES))).tolist() == [3] * 5


def test_compiled_rejects_bad_input_shape():
    compiled = CompiledTreePolicy.from_policy(random_policy(0))
    with pytest.raises(ValueError, match="shape"):
        compiled.predict_batch(np.zeros((3, N_FEATURES + 1)))


def test_forest_routes_each_row_through_its_own_tree():
    policies = [random_policy(seed) for seed in range(5)]
    forest = CompiledTreeForest.from_policies(policies)
    rng = np.random.default_rng(9)
    inputs = rng.uniform(-6.0, 6.0, size=(len(policies), N_FEATURES))
    expected = np.array(
        [policy.predict_action_index(inputs[i]) for i, policy in enumerate(policies)]
    )
    assert np.array_equal(forest.predict_rows(inputs), expected)


def test_forest_rejects_mixed_dimensions():
    small_tree = DecisionTreeClassifier()
    small_tree.fit(np.random.default_rng(0).uniform(size=(10, 2)), np.arange(10) % 2)
    small = TreePolicy(small_tree, action_pairs=ACTION_PAIRS, feature_names=["a", "b"])
    with pytest.raises(ValueError, match="dimension"):
        CompiledTreeForest.from_policies([random_policy(0), small])


# ------------------------------------------------- differential (hypothesis)
#: Split thresholds and observation values share one grid, exact in float32,
#: so observations land on thresholds (the ``<=`` boundary) all the time.
GRID = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])


def grown_policy(rng: np.random.Generator, depth: int, n_features: int = N_FEATURES) -> TreePolicy:
    """A random tree of exactly ``depth`` levels at most, thresholds on :data:`GRID`.

    Each policy gets its own setpoint table (1-8 pairs at a random offset),
    so serving a row with another policy's table cannot go unnoticed.
    """
    offset = int(rng.integers(0, 5))
    pairs = [(15 + offset + i, 22 + offset + i) for i in range(int(rng.integers(1, 9)))]
    ids = itertools.count()

    def grow(level: int) -> TreeNode:
        if level == depth or (level > 0 and rng.random() < 0.25):
            return TreeNode(node_id=next(ids), prediction=int(rng.integers(len(pairs))))
        node = TreeNode(
            node_id=next(ids),
            feature_index=int(rng.integers(n_features)),
            threshold=float(rng.choice(GRID)),
            prediction=0,
        )
        node.left = grow(level + 1)
        node.right = grow(level + 1)
        return node

    tree = DecisionTreeClassifier(max_depth=depth)
    tree.n_features = n_features
    tree.root = grow(0)
    tree.classes_ = np.arange(len(pairs))
    return TreePolicy(tree, action_pairs=pairs, feature_names=[f"f{i}" for i in range(n_features)])


def grid_observations(rng: np.random.Generator, rows: int, dtype) -> np.ndarray:
    """Observations on :data:`GRID`, with NaNs and off-grid values mixed in."""
    values = rng.choice(GRID, size=(rows, N_FEATURES))
    values[rng.random(size=values.shape) < 0.1] = np.nan
    off_grid = rng.random(size=values.shape) < 0.2
    values[off_grid] = rng.uniform(-1.5, 1.5, size=int(off_grid.sum()))
    return values.astype(dtype)


def per_policy_reference(server: PolicyServer, batch: PolicyRequestBatch) -> None:
    """The stats a loop of one ``resolve`` + ``predict_batch`` per policy leaves."""
    codes, unique_ids = batch.grouping()
    tally = server.stats.per_policy_requests
    for group, policy_id in enumerate(unique_ids):
        rows = codes == group
        server.resolve(str(policy_id)).predict_batch(batch.observations[rows])
        tally[str(policy_id)] = tally.get(str(policy_id), 0) + int(rows.sum())
    server.stats.requests += len(batch)
    server.stats.batches += 1


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    depths=st.lists(st.integers(1, 8), min_size=1, max_size=6),
    json_count=st.integers(0, 2),
    shadowed=st.integers(0, 2),
    fresh_registered=st.booleans(),
    float32=st.booleans(),
    rows=st.lists(st.integers(1, 80), min_size=1, max_size=3),
    cache_size=st.integers(1, 3),
)
def test_mixed_batches_equal_recursive_trees_and_per_policy_stats(
    seed, depths, json_count, shadowed, fresh_registered, float32, rows, cache_size
):
    rng = np.random.default_rng(seed)
    dtype = np.float32 if float32 else np.float64
    arena_policies = {f"arena/{i}": grown_policy(rng, depth) for i, depth in enumerate(depths)}
    registered = {
        policy_id: grown_policy(rng, int(rng.integers(1, 9)))
        for policy_id in list(arena_policies)[:shadowed]
    }
    if fresh_registered:
        registered["pinned/extra"] = grown_policy(rng, int(rng.integers(1, 9)))
    with tempfile.TemporaryDirectory() as root:
        store = PolicyStore(root)
        write_arena(store.arena_path, [(pid, p.compiled()) for pid, p in arena_policies.items()])
        json_policies = {}
        for index in range(json_count):
            key = PolicyKey("json", "summer", "office", index, f"{index:012x}")
            policy = grown_policy(rng, int(rng.integers(1, 9)))
            json_policies[store.put_policy(key, policy).key.name] = policy
        effective = {**arena_policies, **json_policies, **registered}
        servers = [PolicyServer(store=store, cache_size=cache_size) for _ in range(2)]
        for server in servers:
            for policy_id, policy in registered.items():
                server.register(policy_id, policy)
        served, reference = servers
        ids = np.array(sorted(effective))

        for count in rows:
            batch = PolicyRequestBatch(
                policy_ids=ids[rng.integers(len(ids), size=count)],
                observations=grid_observations(rng, count, dtype),
            )
            response = served.serve_columnar(batch)
            expected = [
                effective[str(pid)].predict_action_index(row)
                for pid, row in zip(batch.policy_ids, batch.observations)
            ]
            pairs = [effective[str(pid)].decode_action(a) for pid, a in zip(batch.policy_ids, expected)]
            assert response.action_indices.tolist() == expected
            assert response.setpoint_pairs().tolist() == [list(pair) for pair in pairs]
            per_policy_reference(reference, PolicyRequestBatch(batch.policy_ids, batch.observations))

        for field in ("requests", "batches", "arena_hits", "compile_count", "per_policy_requests"):
            assert getattr(served.stats, field) == getattr(reference.stats, field), field
        for server in servers:
            server.close()

    # The forest walks the same kernel: row i through tree i.
    trees = list(arena_policies.values())
    inputs = grid_observations(rng, len(trees), dtype)
    forest = CompiledTreeForest.from_policies(trees)
    assert forest.predict_rows(inputs).tolist() == [
        tree.predict_action_index(row) for tree, row in zip(trees, inputs)
    ]


def test_arena_walk_rejects_a_width_any_policy_does_not_take(tmp_path):
    rng = np.random.default_rng(3)
    store = PolicyStore(tmp_path)
    write_arena(
        store.arena_path,
        [("six", grown_policy(rng, 3).compiled()), ("four", grown_policy(rng, 3, 4).compiled())],
    )
    server = PolicyServer(store=store)
    mixed = PolicyRequestBatch(np.array(["six", "four", "six"]), np.zeros((3, N_FEATURES)))
    with pytest.raises(ValueError, match="shape"):
        server.serve_columnar(mixed)
    wide = PolicyRequestBatch(np.array(["six", "six", "four"])[:2], np.zeros((2, N_FEATURES + 1)))
    with pytest.raises(ValueError, match="shape"):
        server.serve_columnar(PolicyRequestBatch(np.array(["six", "four"]), wide.observations))
    server.close()


# ------------------------------------------------------------------ server
def test_server_batches_across_policies(tmp_path):
    server = PolicyServer(store=str(tmp_path), cache_size=4)
    policies = {f"building-{i}": random_policy(i + 40) for i in range(3)}
    for policy_id, policy in policies.items():
        server.register(policy_id, policy)

    rng = np.random.default_rng(7)
    requests = [
        PolicyRequest(
            policy_id=f"building-{i % 3}",
            observation=rng.uniform(-5.0, 5.0, size=N_FEATURES),
        )
        for i in range(64)
    ]
    responses = server.serve(requests)
    assert len(responses) == len(requests)
    for request, response in zip(requests, responses):
        policy = policies[request.policy_id]
        index = policy.predict_action_index(np.asarray(request.observation))
        heating, cooling = policy.decode_action(index)
        assert response.policy_id == request.policy_id
        assert response.action_index == index
        assert (response.heating_setpoint, response.cooling_setpoint) == (heating, cooling)
    assert server.stats.requests == 64
    assert server.stats.batches == 1


def test_server_lru_eviction_and_store_resolution(tmp_path):
    from repro.core.pipeline import PipelineConfig, VerifiedPolicyPipeline
    from repro.store import PolicyStore

    store = PolicyStore(tmp_path)
    tiny = dict(num_decision_data=48, training_epochs=8, num_probabilistic_samples=64)
    for seed in (31, 32):
        VerifiedPolicyPipeline(PipelineConfig.tiny(seed=seed, **tiny), store=store).run()
    ids = [entry.key.name for entry in store.entries()]
    assert len(ids) == 2

    server = PolicyServer(store=store, cache_size=1)
    observation = np.full(N_FEATURES, 20.0)
    server.serve_one(ids[0], observation)
    server.serve_one(ids[1], observation)  # evicts ids[0]
    server.serve_one(ids[0], observation)  # recompiles
    assert server.stats.evictions >= 1
    assert server.stats.compile_count == 3
    assert server.stats.cache_misses == 3

    with pytest.raises(UnknownPolicyError):
        server.serve_one("no/such/policy", observation)


# --------------------------------------------------------------------- CLI
def test_cli_serve_and_policies_smoke(tmp_path, capsys):
    from repro.experiments.cli import main

    store_root = str(tmp_path / "store")
    assert (
        main(
            [
                "serve",
                "--store",
                store_root,
                "--requests",
                "300",
                "--batch-size",
                "64",
                "--decision-data",
                "48",
                "--output",
                str(tmp_path / "serve.json"),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "req/s" in out
    summary = json.loads((tmp_path / "serve.json").read_text())
    assert summary["requests"] == 300
    assert summary["requests_per_second"] > 0

    assert main(["policies", "--store", store_root, "--verify"]) == 0
    out = capsys.readouterr().out
    assert "pittsburgh/winter" in out
    assert "1/1 artifacts OK" in out

    # The serve run persisted its auto-extracted policy: a second serve is a
    # pure store hit (no re-extraction message).
    assert main(["serve", "--store", store_root, "--requests", "64"]) == 0
    out = capsys.readouterr().out
    assert "extracting" not in out


def test_cli_policies_empty_store(tmp_path, capsys):
    from repro.experiments.cli import main

    assert main(["policies", "--store", str(tmp_path / "empty")]) == 0
    assert "No stored policies" in capsys.readouterr().out
