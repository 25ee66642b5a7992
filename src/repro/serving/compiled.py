"""Array-compiled decision-tree policies.

A recursive :class:`~repro.core.tree_policy.TreePolicy` walk costs a python
call per node per request — fine for one thermostat, hopeless for serving a
fleet of buildings.  :class:`CompiledTreePolicy` flattens the tree once into
contiguous numpy arrays (feature index, threshold, child pointers, leaf
action) and answers whole request batches with a handful of vectorised
gathers per tree level: ``depth`` array operations instead of ``rows ×
depth`` python comparisons.

:class:`CompiledTreeForest` extends the same kernel to heterogeneous batches
— B rows routed through B *different* trees (one per building/episode) in a
single traversal over the concatenated node arrays — which is what lets the
batched experiment backend keep every episode in numpy.  The packed arena
(:meth:`repro.store.PolicyArena.predict`) runs the same kernel over all of
its policies at once, which is how the
:class:`~repro.serving.server.PolicyServer` answers a mixed batch.

Both are verified action-for-action against the recursive traversal in
``tests/test_serving.py``; the decision semantics are identical
(``x[feature] <= threshold`` routes left).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from repro.core.tree_policy import TreePolicy

#: Sentinel feature index marking a leaf in the flattened arrays.
LEAF = -1

#: Declared serving dtypes of the flattened arrays.  ``from_views`` requires
#: them exactly; ``__init__`` converts anything else (with a copy only when
#: the input's dtype actually differs).
ARRAY_DTYPES: "dict[str, np.dtype[Any]]" = {
    "feature": np.dtype(np.int32),
    "threshold": np.dtype(np.float64),
    "left": np.dtype(np.int32),
    "right": np.dtype(np.int32),
    "leaf_action": np.dtype(np.int64),
    "action_pairs": np.dtype(np.int64),
}


def _as_typed(values: Any, dtype: "np.dtype[Any]") -> NDArray[Any]:
    """Coerce to an ndarray of ``dtype`` without copying matching inputs.

    An ndarray that already carries the declared dtype is returned *as the
    same object* — no allocation, and flags like ``writeable=False`` on
    arena-backed mmap views survive.  Anything else (lists, mismatched
    dtypes) goes through ``np.asarray`` and may copy.
    """
    if isinstance(values, np.ndarray) and values.dtype == dtype:
        return values
    return np.asarray(values, dtype=dtype)


def _descend(
    feature: NDArray[Any],
    threshold: NDArray[Any],
    left: NDArray[Any],
    right: NDArray[Any],
    inputs: NDArray[Any],
    nodes: NDArray[Any],
    max_depth: int,
    base: Optional[NDArray[Any]] = None,
) -> NDArray[Any]:
    """Route every row of ``inputs`` from its start node down to a leaf.

    ``nodes`` holds each row's start node (it is not modified).  Child
    pointers are relative to a tree's first node: ``base[row]`` is the
    offset of that row's tree inside the concatenated arrays, and ``None``
    means every row walks one tree stored at offset 0.  One kernel thus
    serves a single tree, a forest and a whole packed arena.

    One iteration advances the still-internal rows one level.  The working
    set shrinks as rows reach their leaves, so a level only pays for the rows
    actually still descending — on real policies most rows resolve well above
    the maximum depth, which is where the bulk of the speedup over a fixed
    full-width sweep comes from.
    """
    nodes = np.array(nodes, dtype=np.int64)
    alive = np.flatnonzero(feature[nodes] != LEAF)
    for _ in range(max_depth):
        if alive.size == 0:
            break
        current = nodes[alive]
        go_left = inputs[alive, feature[current]] <= threshold[current]
        descended = np.where(go_left, left[current], right[current])
        if base is not None:
            descended = descended + base[alive]
        nodes[alive] = descended
        alive = alive[feature[descended] != LEAF]
    return nodes


class CompiledTreePolicy:
    """A :class:`TreePolicy` flattened into contiguous arrays for serving."""

    def __init__(
        self,
        feature: NDArray[Any],
        threshold: NDArray[Any],
        left: NDArray[Any],
        right: NDArray[Any],
        leaf_action: NDArray[Any],
        action_pairs: NDArray[Any],
        n_features: int,
        depth: int,
        feature_names: Optional[Sequence[str]] = None,
        city: Optional[str] = None,
    ):
        self.feature = _as_typed(feature, ARRAY_DTYPES["feature"])
        self.threshold = _as_typed(threshold, ARRAY_DTYPES["threshold"])
        self.left = _as_typed(left, ARRAY_DTYPES["left"])
        self.right = _as_typed(right, ARRAY_DTYPES["right"])
        self.leaf_action = _as_typed(leaf_action, ARRAY_DTYPES["leaf_action"])
        self.action_pairs = _as_typed(action_pairs, ARRAY_DTYPES["action_pairs"])
        self.n_features = int(n_features)
        self.depth = int(depth)
        self.feature_names = list(feature_names) if feature_names is not None else None
        self.city = city

    # ------------------------------------------------------------- building
    @classmethod
    def from_policy(cls, policy: TreePolicy) -> "CompiledTreePolicy":
        """Flatten a (fitted) tree policy via pre-order traversal.

        ``depth`` is the height of the flattened structure itself, not the
        nodes' recorded ``depth`` attributes: a tree assembled by hand leaves
        those at 0, and a walk capped by them would stop at internal nodes.
        """
        feature: List[int] = []
        threshold: List[float] = []
        left: List[int] = []
        right: List[int] = []
        leaf_action: List[int] = []
        height = [0]

        def _flatten(node, level: int = 0) -> int:
            index = len(feature)
            height[0] = max(height[0], level)
            if node.is_leaf:
                feature.append(LEAF)
                threshold.append(0.0)
                left.append(LEAF)
                right.append(LEAF)
                leaf_action.append(int(node.prediction))
            else:
                feature.append(int(node.feature_index))
                threshold.append(float(node.threshold))
                left.append(0)  # patched below once the subtree is laid out
                right.append(0)
                leaf_action.append(LEAF)
                left[index] = _flatten(node.left, level + 1)
                right[index] = _flatten(node.right, level + 1)
            return index

        _flatten(policy.tree.root)
        return cls(
            feature=np.array(feature, dtype=np.int32),
            threshold=np.array(threshold, dtype=np.float64),
            left=np.array(left, dtype=np.int32),
            right=np.array(right, dtype=np.int32),
            leaf_action=np.array(leaf_action, dtype=np.int64),
            action_pairs=np.array(
                [list(pair) for pair in policy.action_pairs], dtype=np.int64
            ),
            n_features=policy.input_dim,
            depth=max(height[0], 1),
            feature_names=policy.feature_names,
            city=policy.city,
        )

    @classmethod
    def from_views(
        cls,
        feature: NDArray[Any],
        threshold: NDArray[Any],
        left: NDArray[Any],
        right: NDArray[Any],
        leaf_action: NDArray[Any],
        action_pairs: NDArray[Any],
        n_features: int,
        depth: int,
        feature_names: Optional[Sequence[str]] = None,
        city: Optional[str] = None,
    ) -> "CompiledTreePolicy":
        """Wrap existing typed array views with zero copies (arena serving).

        Every array must already be an ndarray of its declared serving dtype
        (:data:`ARRAY_DTYPES`) — the constructor then adopts the objects
        as-is, so an arena-backed mmap slice stays an mmap slice.  All six
        arrays on the returned policy are ``writeable=False``: mmap views
        arrive read-only already, and in-memory arrays are frozen through a
        zero-copy view, so no serving-path bug can ever scribble on pages
        shared across shard processes.
        """
        arrays = {
            "feature": feature,
            "threshold": threshold,
            "left": left,
            "right": right,
            "leaf_action": leaf_action,
            "action_pairs": action_pairs,
        }
        for name, array in arrays.items():
            expected = ARRAY_DTYPES[name]
            if not isinstance(array, np.ndarray) or array.dtype != expected:
                got = getattr(array, "dtype", type(array).__name__)
                raise ValueError(
                    f"from_views requires a {expected} ndarray for {name!r}, "
                    f"got {got} (use the regular constructor to convert)"
                )
        policy = cls(
            feature=feature,
            threshold=threshold,
            left=left,
            right=right,
            leaf_action=leaf_action,
            action_pairs=action_pairs,
            n_features=n_features,
            depth=depth,
            feature_names=feature_names,
            city=city,
        )
        for name in arrays:
            array = getattr(policy, name)
            if array.flags.writeable:
                frozen = array.view()
                frozen.flags.writeable = False
                setattr(policy, name, frozen)
        return policy

    # -------------------------------------------------------------- serving
    @property
    def node_count(self) -> int:
        """Total flattened nodes (internal + leaves)."""
        return len(self.feature)

    @property
    def leaf_count(self) -> int:
        """Leaves in the flattened tree (``feature == LEAF`` entries)."""
        return int(np.count_nonzero(self.feature == LEAF))

    @property
    def num_actions(self) -> int:
        """Rows of the ``(A, 2)`` (heating, cooling) action-pair table."""
        return len(self.action_pairs)

    def _check_inputs(self, inputs: NDArray[Any]) -> NDArray[Any]:
        inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        if inputs.ndim != 2 or inputs.shape[1] != self.n_features:
            raise ValueError(
                f"Expected policy inputs of shape (rows, {self.n_features}), "
                f"got {inputs.shape}"
            )
        return inputs

    def predict_batch(self, inputs: NDArray[Any]) -> NDArray[Any]:
        """Action indices for a batch of policy inputs, fully vectorised."""
        inputs = self._check_inputs(inputs)
        nodes = _descend(
            self.feature,
            self.threshold,
            self.left,
            self.right,
            inputs,
            np.zeros(len(inputs), dtype=np.int64),
            self.depth,
        )
        return self.leaf_action[nodes]

    def setpoints_batch(self, inputs: NDArray[Any]) -> NDArray[Any]:
        """(heating, cooling) setpoint pairs for a batch, shape ``(rows, 2)``."""
        return self.action_pairs[self.predict_batch(inputs)]

    def predict_action_index(self, policy_input: NDArray[Any]) -> int:
        """Single-request convenience mirroring ``TreePolicy.predict_action_index``."""
        return int(self.predict_batch(np.asarray(policy_input, dtype=float).reshape(1, -1))[0])


class CompiledTreeForest:
    """Several compiled trees traversed together, one tree per input row.

    The node arrays of all trees are concatenated unchanged (child pointers
    stay tree-local) and each row starts at, and is offset by, its own
    tree's root, so a batch of B episodes — each controlled by a
    *different* verified policy — still resolves in ``max_depth`` vectorised
    steps.
    """

    def __init__(self, policies: Sequence[CompiledTreePolicy]):
        if not policies:
            raise ValueError("CompiledTreeForest needs at least one compiled policy")
        dims = {p.n_features for p in policies}
        if len(dims) != 1:
            raise ValueError(f"All trees must share one input dimension, got {sorted(dims)}")
        self.policies = list(policies)
        self.n_features = policies[0].n_features
        offsets = np.cumsum([0] + [p.node_count for p in policies[:-1]])
        self.roots = offsets.astype(np.int64)
        self.feature = np.concatenate([p.feature for p in policies])
        self.threshold = np.concatenate([p.threshold for p in policies])
        self.left = np.concatenate([p.left for p in policies])
        self.right = np.concatenate([p.right for p in policies])
        self.leaf_action = np.concatenate([p.leaf_action for p in policies])
        self.depth = max(p.depth for p in policies)

    @classmethod
    def from_policies(cls, policies: Sequence[TreePolicy]) -> "CompiledTreeForest":
        """Compile and fuse a sequence of (fitted) tree policies."""
        return cls([CompiledTreePolicy.from_policy(p) for p in policies])

    @property
    def size(self) -> int:
        """Tree count B (``predict_rows`` expects ``(B, n_features)`` inputs)."""
        return len(self.policies)

    def predict_rows(self, inputs: NDArray[Any]) -> NDArray[Any]:
        """Row ``i`` of ``inputs`` through tree ``i``; returns action indices."""
        inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        if inputs.shape != (self.size, self.n_features):
            raise ValueError(
                f"Expected inputs of shape ({self.size}, {self.n_features}), "
                f"got {inputs.shape}"
            )
        nodes = _descend(
            self.feature,
            self.threshold,
            self.left,
            self.right,
            inputs,
            self.roots,
            self.depth,
            base=self.roots,
        )
        return self.leaf_action[nodes]
