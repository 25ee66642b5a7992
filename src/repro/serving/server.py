"""The policy serving front door.

:class:`PolicyServer` is the embeddable core of a setpoint service: it owns a
:class:`~repro.store.PolicyStore`, keeps an LRU cache of
:class:`~repro.serving.compiled.CompiledTreePolicy` instances keyed by store
entry, and answers request batches that may mix any number of buildings.

The native endpoint is columnar: :meth:`PolicyServer.serve_columnar` takes a
:class:`~repro.data.PolicyRequestBatch` (a building-id column plus a
``(B, F)`` observation matrix) and returns a
:class:`~repro.data.PolicyResponseBatch` — arrays in, arrays out.  Every row
whose policy is packed in the arena is answered by one vectorised walk over
the whole arena (:meth:`~repro.store.PolicyArena.predict`), whatever the
number of distinct policies in the batch; the ids map to arena rows with one
``searchsorted`` (:meth:`~repro.store.PolicyArena.rows_of`).  Registered and
JSON-store policies are grouped with one stable ``argsort`` over the
integer-coded id column, each runs one ``predict_batch`` over a contiguous
slice of the sorted observations, and their results return to request order
with an inverse-permutation scatter.  No per-request python objects exist
anywhere on this path; the legacy object API (:meth:`PolicyServer.serve`
over :class:`PolicyRequest`) is a thin adapter on top of it.

Transport (HTTP, MQTT, a BMS bridge) is deliberately out of scope: the
related SCADA repos show that layer is deployment-specific, while the
batching, caching and store-resolution logic below is what every deployment
shares.  ``repro serve`` (and ``repro serve --columnar``) drives this class
with a synthetic request stream to measure the serving ceiling.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Union

import numpy as np
from numpy.typing import NDArray

from repro.core.tree_policy import TreePolicy
from repro.data import PolicyRequestBatch, PolicyResponseBatch
from repro.serving.compiled import CompiledTreePolicy
from repro.store import ArenaLike, PolicyArena, PolicyStore, resolve_arena, resolve_store


@dataclass(frozen=True)
class PolicyRequest:
    """One setpoint query: which policy (building) and the current observation."""

    policy_id: str
    observation: Sequence[float]


@dataclass(frozen=True)
class PolicyResponse:
    """The served decision for one request."""

    policy_id: str
    action_index: int
    heating_setpoint: int
    cooling_setpoint: int


@dataclass
class ServerStats:
    """Operational counters (exposed by ``repro serve``)."""

    requests: int = 0
    batches: int = 0
    compile_count: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    evictions: int = 0
    arena_hits: int = 0
    arena_policies: int = 0
    arena_bytes_mapped: int = 0
    per_policy_requests: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """The counters as a JSON-ready dict (plus derived ``unique_policies``)."""
        return {
            "requests": self.requests,
            "batches": self.batches,
            "compile_count": self.compile_count,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "evictions": self.evictions,
            "arena_hits": self.arena_hits,
            "arena_policies": self.arena_policies,
            "arena_bytes_mapped": self.arena_bytes_mapped,
            "unique_policies": len(self.per_policy_requests),
            "per_policy_requests": dict(self.per_policy_requests),
        }


class UnknownPolicyError(KeyError):
    """The requested policy_id is neither registered nor in the store."""


class PolicyServer:
    """Batched, store-backed serving of compiled tree policies.

    Policy resolution is **arena-first**: when the store carries a packed
    arena (:mod:`repro.store.arena`) — auto-detected, or forced/pointed at
    via the ``arena`` argument — a requested policy is answered by a
    zero-copy mmap handle in O(1), no JSON parse and no compile.  The LRU
    only exists for policies *not* in the arena (the JSON path); arena
    handles are thin views into the shared mapping, so caching them is free
    and evicting them would save nothing — eviction of arena-backed entries
    is a structural no-op.

    ``arena`` accepts anything :func:`repro.store.resolve_arena` does:
    ``None`` (auto-detect ``<store>/policies.arena``), ``False`` (disable),
    ``True`` (require), a path, or an open :class:`~repro.store.PolicyArena`
    (shared; the caller keeps ownership).  A corrupt or truncated arena
    never takes the server down — it is skipped with the reason recorded in
    :attr:`arena_error` and serving falls back to the JSON store path.
    """

    def __init__(
        self,
        store: Union[PolicyStore, str, None] = None,
        cache_size: int = 8,
        arena: ArenaLike = None,
    ):
        if cache_size < 1:
            raise ValueError("cache_size must be at least 1")
        self.store = resolve_store(store if store is not None else True)
        self.cache_size = cache_size
        self._cache: "OrderedDict[str, CompiledTreePolicy]" = OrderedDict()
        self._registered: Dict[str, CompiledTreePolicy] = {}
        self.stats = ServerStats()
        #: The server closes an arena it opened itself; a shared instance
        #: passed in by the caller is left open.
        self._owns_arena = not isinstance(arena, PolicyArena)
        self.arena, self.arena_error = resolve_arena(arena, self.store)
        if self.arena is not None:
            self.stats.arena_policies = self.arena.policy_count
            self.stats.arena_bytes_mapped = self.arena.nbytes_mapped

    def close(self) -> None:
        """Release the arena mapping if this server opened it (idempotent)."""
        if self.arena is not None and self._owns_arena:
            self.arena.close()

    # ------------------------------------------------------------ resolution
    def register(
        self, policy_id: str, policy: Union[TreePolicy, CompiledTreePolicy]
    ) -> CompiledTreePolicy:
        """Pin an in-memory policy under a name (bypasses the store and LRU)."""
        compiled = (
            policy
            if isinstance(policy, CompiledTreePolicy)
            else CompiledTreePolicy.from_policy(policy)
        )
        self._registered[policy_id] = compiled
        return compiled

    def policy_ids(self) -> List[str]:
        """Every servable policy id: registered, arena-packed, store entries."""
        ids = list(self._registered)
        seen = set(ids)
        if self.arena is not None:
            fresh = [pid for pid in self.arena.policy_ids() if pid not in seen]
            ids.extend(fresh)
            seen.update(fresh)
        if self.store is not None:
            ids.extend(
                entry.key.name
                for entry in self.store.entries()
                if entry.key.name not in seen
            )
        return ids

    def resolve(self, policy_id: str) -> CompiledTreePolicy:
        """The compiled policy for an id — registered, arena, cached, or loaded.

        Resolution order: pinned registrations, then the packed arena (O(1)
        zero-copy mmap handle, counted in ``arena_hits``), then the LRU of
        JSON-compiled policies, then a store load + compile.  Arena handles
        never enter the LRU, so they can never be evicted — restart-warm and
        eviction-proof by construction.
        """
        registered = self._registered.get(policy_id)
        if registered is not None:
            return registered
        if self.arena is not None:
            handle = self.arena.get(policy_id)
            if handle is not None:
                self.stats.arena_hits += 1
                return handle
        cached = self._cache.get(policy_id)
        if cached is not None:
            self._cache.move_to_end(policy_id)
            self.stats.cache_hits += 1
            return cached
        self.stats.cache_misses += 1
        if self.store is None:
            raise UnknownPolicyError(policy_id)
        stored = self.store.find(policy_id)
        if stored is None:
            raise UnknownPolicyError(policy_id)
        compiled = CompiledTreePolicy.from_policy(stored.policy)
        self.stats.compile_count += 1
        self._cache[policy_id] = compiled
        if len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
            self.stats.evictions += 1
        return compiled

    # --------------------------------------------------------------- serving
    def serve_columnar(self, batch: PolicyRequestBatch) -> PolicyResponseBatch:
        """Answer one columnar batch of (possibly mixed-building) requests.

        The whole path is array-native.  Resolution order is that of
        :meth:`resolve`.  The rows of every arena-resolved policy descend
        together in one walk over the arena's concatenated arrays (one
        ``arena_hits`` per distinct arena policy, as a per-policy
        :meth:`resolve` would count).  The rows of registered and JSON-store
        policies are grouped by a stable ``argsort`` over the batch's integer
        policy codes, each such tree sees one contiguous slice of the sorted
        observation matrix (``predict_batch`` consumes it zero-copy), and the
        results are scattered back to request order.  A single-policy batch —
        the overwhelmingly common case for a per-building feed — resolves its
        policy and calls its ``predict_batch`` directly.
        """
        rows = len(batch)
        if rows == 0:
            return PolicyResponseBatch(
                policy_ids=np.empty(0, dtype=str),
                action_indices=np.empty(0, dtype=np.int64),
                heating_setpoints=np.empty(0, dtype=np.int64),
                cooling_setpoints=np.empty(0, dtype=np.int64),
            )
        codes, unique_ids = batch.grouping()
        observations = batch.observations
        tally = self.stats.per_policy_requests

        if len(unique_ids) == 1:
            policy_id = str(unique_ids[0])
            compiled = self.resolve(policy_id)
            actions = compiled.predict_batch(observations)
            pairs = compiled.action_pairs[actions]
            tally[policy_id] = tally.get(policy_id, 0) + rows
        else:
            actions = np.empty(rows, dtype=np.int64)
            pairs = np.empty((rows, 2), dtype=np.int64)
            policy_rows = self._arena_rows(unique_ids)
            in_arena = policy_rows >= 0
            row_in_arena = in_arena[codes]
            walked = np.flatnonzero(row_in_arena)
            if walked.size < rows:
                self._serve_groups(
                    np.flatnonzero(~row_in_arena), codes, unique_ids, observations,
                    actions, pairs,
                )
            if walked.size:
                assert self.arena is not None  # only an arena yields rows >= 0
                actions[walked], pairs[walked] = self.arena.predict(
                    policy_rows[codes[walked]], observations[walked]
                )
            self.stats.arena_hits += int(np.count_nonzero(in_arena))
            counts = np.bincount(codes, minlength=len(unique_ids))
            for policy_id, count in zip(unique_ids.tolist(), counts.tolist()):
                tally[policy_id] = tally.get(policy_id, 0) + count

        self.stats.requests += rows
        self.stats.batches += 1
        return PolicyResponseBatch(
            policy_ids=batch.policy_ids,
            action_indices=actions,
            heating_setpoints=pairs[:, 0],
            cooling_setpoints=pairs[:, 1],
        )

    def _arena_rows(self, unique_ids: NDArray[Any]) -> NDArray[Any]:
        """Arena row per distinct id, ``-1`` where another tier resolves it.

        Registered ids shadow arena ids, exactly as in :meth:`resolve`.
        """
        if self.arena is None:
            return np.full(len(unique_ids), -1, dtype=np.int64)
        rows = self.arena.rows_of(unique_ids)
        if self._registered:
            rows[np.isin(unique_ids, list(self._registered))] = -1
        return rows

    def _serve_groups(
        self,
        selected: NDArray[Any],
        codes: NDArray[Any],
        unique_ids: NDArray[Any],
        observations: NDArray[Any],
        actions: NDArray[Any],
        pairs: NDArray[Any],
    ) -> None:
        """Serve the ``selected`` rows one resolved policy at a time.

        The path of registered and JSON-store policies: a stable ``argsort``
        puts each policy's rows in one contiguous slice, each policy runs one
        ``predict_batch`` over it, and the results are scattered back into
        ``actions``/``pairs`` at the rows' request positions.
        """
        order = selected[np.argsort(codes[selected], kind="stable")]
        sorted_codes = codes[order]
        groups = np.unique(sorted_codes)
        starts = np.searchsorted(sorted_codes, groups)
        stops = np.append(starts[1:], len(order))
        sorted_observations = observations[order]
        sorted_actions = np.empty(len(order), dtype=np.int64)
        sorted_pairs = np.empty((len(order), 2), dtype=np.int64)
        for group, lo, hi in zip(groups.tolist(), starts.tolist(), stops.tolist()):
            compiled = self.resolve(str(unique_ids[group]))
            group_actions = compiled.predict_batch(sorted_observations[lo:hi])
            sorted_actions[lo:hi] = group_actions
            sorted_pairs[lo:hi] = compiled.action_pairs[group_actions]
        actions[order] = sorted_actions
        pairs[order] = sorted_pairs

    def serve(self, requests: Sequence[PolicyRequest]) -> List[PolicyResponse]:
        """Answer one batch of legacy per-request objects.

        A thin adapter over :meth:`serve_columnar`: requests are packed into
        one :class:`~repro.data.PolicyRequestBatch`, served on the columnar
        path, and unpacked back into :class:`PolicyResponse` objects in
        request order.  Semantics (grouping, stats, errors) are identical.
        """
        if not requests:
            return []
        return self.serve_columnar(
            PolicyRequestBatch.from_requests(requests)
        ).to_responses()

    def serve_one(self, policy_id: str, observation: Sequence[float]) -> PolicyResponse:
        """Single-request convenience (a batch of one)."""
        return self.serve([PolicyRequest(policy_id=policy_id, observation=observation)])[0]
