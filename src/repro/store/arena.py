"""The packed policy arena: many compiled trees in one mmap'able artifact.

The JSON store (:mod:`repro.store.store`) optimises for provenance: one
human-readable artifact per policy, content-hashed and independently
verifiable.  That is the right shape for *writing* policies and the wrong
shape for *serving* 10\N{SUPERSCRIPT FIVE}–10\N{SUPERSCRIPT SIX} of them —
every cold load pays a JSON parse, a recursive ``TreePolicy`` rebuild and a
re-flatten into :class:`~repro.serving.compiled.CompiledTreePolicy` arrays.

The arena is the serving-shaped mirror of the store: the compiled arrays
(``feature``/``threshold``/``left``/``right``/``leaf_action``/
``action_pairs``) of *every* packed policy concatenated into one versioned
binary file with a per-policy offset index.  Servers ``mmap`` the file once
and wrap offset slices in read-only numpy views — cold-loading a policy is a
dictionary lookup plus six zero-copy slices (O(1), no parse, no compile),
and because ``mmap`` pages are shared, N shard processes serving the same
arena map the same physical memory.

On-disk layout (little-endian, every data section 64-byte aligned)::

    offset 0    header   magic "RPARENA\\x01", version u32, flags u32,
                         meta_offset u64, meta_size u64, file_size u64
                         (zero-padded to 64 bytes)
    aligned     index    int64 (P, 6): node_start, node_count,
                         action_start, action_count, n_features, depth
    aligned     feature  int32  (N,)   concatenated node features (-1 = leaf)
    aligned     threshold float64 (N,) split thresholds
    aligned     left     int32  (N,)   left-child offsets (policy-local)
    aligned     right    int32  (N,)   right-child offsets (policy-local)
    aligned     leaf_action int64 (N,) leaf action indices
    aligned     action_pairs int64 (A, 2) concatenated setpoint tables
    tail        meta     canonical JSON: policy ids, per-section table
                         {name, offset, nbytes, dtype, shape, crc32}

The file is written atomically (temp file + ``os.replace``), so readers only
ever see a complete arena; per-section CRC-32s make corruption detectable
without hashing the whole file on open (:meth:`PolicyArena.verify`).
:func:`resolve_arena` is the polymorphic front door the serving stack uses —
a corrupt or truncated arena resolves to "no arena" plus a reason, never an
outage, so callers fall back to the JSON path.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import zlib
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.typing import NDArray

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.serving.compiled import CompiledTreePolicy
    from repro.store.store import PolicyStore

#: First 8 bytes of every arena file.
ARENA_MAGIC = b"RPARENA\x01"

#: Format version; readers refuse anything else.
ARENA_VERSION = 1

#: Alignment (bytes) of every data section — one cache line, and a multiple
#: of every section itemsize, so views never straddle element boundaries.
ARENA_ALIGN = 64

#: Default arena filename inside a store root.
ARENA_FILENAME = "policies.arena"

#: ``<`` magic, version u32, flags u32, meta_offset u64, meta_size u64,
#: file_size u64 — 40 bytes used, zero-padded to :data:`ARENA_ALIGN`.
_HEADER = struct.Struct("<8sIIQQQ")

#: Data sections in file order with their declared dtypes (numpy str codes).
_SECTION_DTYPES: Dict[str, str] = {
    "index": "<i8",
    "feature": "<i4",
    "threshold": "<f8",
    "left": "<i4",
    "right": "<i4",
    "leaf_action": "<i8",
    "action_pairs": "<i8",
}

#: Columns of the per-policy offset index (``index`` section).
IDX_NODE_START = 0
IDX_NODE_COUNT = 1
IDX_ACTION_START = 2
IDX_ACTION_COUNT = 3
IDX_N_FEATURES = 4
IDX_DEPTH = 5

__all__ = [
    "ARENA_ALIGN",
    "ARENA_FILENAME",
    "ARENA_MAGIC",
    "ARENA_VERSION",
    "ArenaIntegrityError",
    "ArenaLike",
    "ArenaSection",
    "PolicyArena",
    "resolve_arena",
    "write_arena",
]


class ArenaIntegrityError(RuntimeError):
    """A packed arena failed header, bounds or CRC validation."""


@dataclass(frozen=True)
class ArenaSection:
    """One data section's entry in the arena's metadata table."""

    name: str
    offset: int
    nbytes: int
    dtype: str
    shape: Tuple[int, ...]
    crc32: int


def _align_up(offset: int) -> int:
    """The next :data:`ARENA_ALIGN` boundary at or above ``offset``."""
    return (offset + ARENA_ALIGN - 1) // ARENA_ALIGN * ARENA_ALIGN


def _shared_feature_names(
    policies: Sequence[Tuple[str, "CompiledTreePolicy"]]
) -> Optional[List[str]]:
    """The one feature-name list all packed policies agree on, else ``None``."""
    names: Optional[List[str]] = None
    for _, compiled in policies:
        if compiled.feature_names is None:
            return None
        if names is None:
            names = list(compiled.feature_names)
        elif names != list(compiled.feature_names):
            return None
    return names


def write_arena(
    path: Union[str, Path],
    policies: Sequence[Tuple[str, "CompiledTreePolicy"]],
) -> Path:
    """Pack compiled policies into one arena file, atomically.

    ``policies`` is a sequence of ``(policy_id, CompiledTreePolicy)`` pairs;
    ids must be unique (they are the serving lookup keys).  The file appears
    at ``path`` via temp-file + ``os.replace``, so concurrent readers never
    observe a partial arena.  Returns the final path.
    """
    target = Path(path)
    if not policies:
        raise ValueError("cannot pack an empty arena (no policies given)")
    ids = [policy_id for policy_id, _ in policies]
    if len(set(ids)) != len(ids):
        counts: Dict[str, int] = {}
        for policy_id in ids:
            counts[policy_id] = counts.get(policy_id, 0) + 1
        dupes = sorted(i for i, c in counts.items() if c > 1)
        raise ValueError(f"duplicate policy ids in arena pack: {dupes[:5]}")

    compiled = [entry for _, entry in policies]
    node_counts = np.array([p.node_count for p in compiled], dtype=np.int64)
    action_counts = np.array([p.num_actions for p in compiled], dtype=np.int64)
    node_starts = np.zeros(len(compiled), dtype=np.int64)
    action_starts = np.zeros(len(compiled), dtype=np.int64)
    np.cumsum(node_counts[:-1], out=node_starts[1:])
    np.cumsum(action_counts[:-1], out=action_starts[1:])

    index = np.empty((len(compiled), 6), dtype=np.int64)
    index[:, IDX_NODE_START] = node_starts
    index[:, IDX_NODE_COUNT] = node_counts
    index[:, IDX_ACTION_START] = action_starts
    index[:, IDX_ACTION_COUNT] = action_counts
    index[:, IDX_N_FEATURES] = np.array([p.n_features for p in compiled], dtype=np.int64)
    index[:, IDX_DEPTH] = np.array([p.depth for p in compiled], dtype=np.int64)

    sections: List[Tuple[str, NDArray[Any]]] = [
        ("index", index),
        ("feature", np.concatenate([np.ascontiguousarray(p.feature, dtype=np.int32) for p in compiled])),
        ("threshold", np.concatenate([np.ascontiguousarray(p.threshold, dtype=np.float64) for p in compiled])),
        ("left", np.concatenate([np.ascontiguousarray(p.left, dtype=np.int32) for p in compiled])),
        ("right", np.concatenate([np.ascontiguousarray(p.right, dtype=np.int32) for p in compiled])),
        ("leaf_action", np.concatenate([np.ascontiguousarray(p.leaf_action, dtype=np.int64) for p in compiled])),
        ("action_pairs", np.concatenate([np.ascontiguousarray(p.action_pairs, dtype=np.int64) for p in compiled])),
    ]

    specs: List[Dict[str, Any]] = []
    blobs: List[bytes] = []
    offset = ARENA_ALIGN  # the header block owns the first 64 bytes
    for name, array in sections:
        data = array.tobytes()
        specs.append(
            {
                "name": name,
                "offset": offset,
                "nbytes": len(data),
                "dtype": _SECTION_DTYPES[name],
                "shape": list(array.shape),
                "crc32": zlib.crc32(data) & 0xFFFFFFFF,
            }
        )
        blobs.append(data)
        offset = _align_up(offset + len(data))
    meta_offset = offset
    meta = {
        "format": "repro-policy-arena",
        "created_at": datetime.now(timezone.utc).isoformat(timespec="microseconds"),
        "policy_count": len(ids),
        "policy_ids": ids,
        "feature_names": _shared_feature_names(policies),
        "sections": specs,
    }
    meta_bytes = json.dumps(meta, separators=(",", ":"), sort_keys=True).encode("utf-8")
    file_size = meta_offset + len(meta_bytes)
    header = _HEADER.pack(
        ARENA_MAGIC, ARENA_VERSION, 0, meta_offset, len(meta_bytes), file_size
    )

    target.parent.mkdir(parents=True, exist_ok=True)
    scratch = target.with_name(f"{target.name}.tmp{os.getpid()}")
    try:
        with open(scratch, "wb") as handle:
            handle.write(header)
            handle.write(b"\x00" * (ARENA_ALIGN - len(header)))
            position = ARENA_ALIGN
            for spec, blob in zip(specs, blobs):
                handle.write(b"\x00" * (int(spec["offset"]) - position))
                handle.write(blob)
                position = int(spec["offset"]) + len(blob)
            handle.write(b"\x00" * (meta_offset - position))
            handle.write(meta_bytes)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(scratch, target)
    finally:
        if scratch.exists():  # pragma: no cover - only on a failed write
            scratch.unlink()
    return target


class PolicyArena:
    """Read-only mmap view over one packed arena of compiled tree policies.

    Opening validates the cheap invariants (magic, version, size, metadata
    bounds, section bounds/dtypes, offset-index bounds) and maps the file;
    per-section CRCs are checked by :meth:`verify` (or ``verify=True``) since
    hashing hundreds of megabytes does not belong on the server start path.

    Ownership: the arena owns the file handle and the mapping; compiled
    policies handed out by :meth:`get` hold zero-copy **views** into the
    mapping and stay valid until the arena (and every view) is released.
    :meth:`close` drops the arena's own references; the OS unmaps the pages
    once the last outstanding view is garbage-collected.
    """

    def __init__(self, path: Union[str, Path], verify: bool = False):
        self.path = Path(path)
        handle = open(self.path, "rb")
        try:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError) as exc:
            handle.close()
            raise ArenaIntegrityError(f"{self.path}: cannot map arena: {exc}") from exc
        self._file = handle
        self._mm = mapped
        self._handles: Dict[str, "CompiledTreePolicy"] = {}
        self._views: Dict[str, NDArray[Any]] = {}
        self._sections: Dict[str, ArenaSection] = {}
        self._ids: List[str] = []
        self._rows: Dict[str, int] = {}
        self._sorted_ids: NDArray[Any] = np.empty(0, dtype=str)
        self._sorted_rows: NDArray[Any] = np.empty(0, dtype=np.int64)
        self._feature_names: Optional[List[str]] = None
        self._index: NDArray[Any] = np.empty((0, 6), dtype=np.int64)
        try:
            self._parse()
            if verify:
                self.verify()
        except ArenaIntegrityError:
            self.close()
            raise

    @classmethod
    def open(cls, path: Union[str, Path], verify: bool = False) -> "PolicyArena":
        """Open an arena file (alias of the constructor, reads aloud better)."""
        return cls(path, verify=verify)

    # ------------------------------------------------------------ validation
    def _fail(self, message: str) -> "ArenaIntegrityError":
        return ArenaIntegrityError(
            f"{self.path}: {message} — the arena is corrupt or truncated; "
            "re-run 'repro policies pack' (serving falls back to the JSON store)"
        )

    def _parse(self) -> None:
        """Validate header, metadata and bounds; build the section views."""
        size = len(self._mm)
        if size < ARENA_ALIGN:
            raise self._fail(f"file is {size} bytes, smaller than the arena header")
        magic, version, _flags, meta_offset, meta_size, file_size = _HEADER.unpack_from(
            self._mm, 0
        )
        if magic != ARENA_MAGIC:
            raise self._fail("bad magic (not a packed policy arena)")
        if version != ARENA_VERSION:
            raise ArenaIntegrityError(
                f"{self.path}: unsupported arena version {version} "
                f"(this build reads version {ARENA_VERSION}); re-pack the store"
            )
        if file_size != size:
            raise self._fail(f"header says {file_size} bytes but the file has {size}")
        if meta_offset + meta_size > size or meta_offset < ARENA_ALIGN:
            raise self._fail("metadata block out of bounds")
        try:
            meta = json.loads(bytes(self._mm[meta_offset : meta_offset + meta_size]))
        except (ValueError, UnicodeDecodeError) as exc:
            raise self._fail(f"metadata block is not valid JSON ({exc})") from exc

        ids = meta.get("policy_ids")
        raw_sections = meta.get("sections")
        if not isinstance(ids, list) or not isinstance(raw_sections, list):
            raise self._fail("metadata is missing policy_ids or sections")
        self._ids = [str(policy_id) for policy_id in ids]
        self._rows = {policy_id: row for row, policy_id in enumerate(self._ids)}
        ids_array = np.array(self._ids, dtype=str)
        self._sorted_rows = np.argsort(ids_array, kind="stable").astype(np.int64)
        self._sorted_ids = ids_array[self._sorted_rows]
        names = meta.get("feature_names")
        self._feature_names = [str(n) for n in names] if isinstance(names, list) else None

        for raw in raw_sections:
            section = ArenaSection(
                name=str(raw["name"]),
                offset=int(raw["offset"]),
                nbytes=int(raw["nbytes"]),
                dtype=str(raw["dtype"]),
                shape=tuple(int(d) for d in raw["shape"]),
                crc32=int(raw["crc32"]),
            )
            self._sections[section.name] = section
        missing = sorted(set(_SECTION_DTYPES) - set(self._sections))
        if missing:
            raise self._fail(f"metadata is missing sections {missing}")

        for name, declared in _SECTION_DTYPES.items():
            section = self._sections[name]
            if section.dtype != declared:
                raise self._fail(
                    f"section {name!r} declares dtype {section.dtype!r}, expected {declared!r}"
                )
            dtype = np.dtype(declared)
            elements = 1
            for dim in section.shape:
                if dim < 0:
                    raise self._fail(f"section {name!r} has a negative shape {section.shape}")
                elements *= dim
            if elements * dtype.itemsize != section.nbytes:
                raise self._fail(
                    f"section {name!r} shape {section.shape} disagrees with its byte size"
                )
            if section.offset % ARENA_ALIGN != 0:
                raise self._fail(f"section {name!r} offset {section.offset} is unaligned")
            if section.offset + section.nbytes > meta_offset:
                raise self._fail(f"section {name!r} runs past the metadata block")
            view: NDArray[Any] = np.frombuffer(
                self._mm, dtype=dtype, count=elements, offset=section.offset
            ).reshape(section.shape)
            self._views[name] = view

        self._index = self._views["index"]
        self._check_index()

    def _check_index(self) -> None:
        """Bounds-check the offset index against the data sections."""
        index = self._index
        policy_count = len(self._ids)
        if index.shape != (policy_count, 6):
            raise self._fail(
                f"offset index shape {index.shape} disagrees with "
                f"{policy_count} policy ids"
            )
        total_nodes = len(self._views["feature"])
        for name in ("threshold", "left", "right", "leaf_action"):
            if len(self._views[name]) != total_nodes:
                raise self._fail(f"section {name!r} length disagrees with 'feature'")
        total_actions = len(self._views["action_pairs"])
        if policy_count == 0:
            return
        node_starts = index[:, IDX_NODE_START]
        node_counts = index[:, IDX_NODE_COUNT]
        action_starts = index[:, IDX_ACTION_START]
        action_counts = index[:, IDX_ACTION_COUNT]
        if (
            bool(np.any(node_starts < 0))
            or bool(np.any(node_counts < 1))
            or bool(np.any(node_starts + node_counts > total_nodes))
        ):
            raise self._fail("offset index node ranges out of bounds")
        if (
            bool(np.any(action_starts < 0))
            or bool(np.any(action_counts < 1))
            or bool(np.any(action_starts + action_counts > total_actions))
        ):
            raise self._fail("offset index action ranges out of bounds")
        if bool(np.any(index[:, IDX_N_FEATURES] < 1)) or bool(np.any(index[:, IDX_DEPTH] < 1)):
            raise self._fail("offset index carries non-positive n_features or depth")

    def verify(self) -> None:
        """Recompute every section's CRC-32; raises on any mismatch."""
        if self._mm.closed:
            raise ArenaIntegrityError(f"{self.path}: arena is closed")
        for section in self._sections.values():
            actual = (
                zlib.crc32(self._mm[section.offset : section.offset + section.nbytes])
                & 0xFFFFFFFF
            )
            if actual != section.crc32:
                raise ArenaIntegrityError(
                    f"{self.path}: section {section.name!r} CRC mismatch "
                    f"(stored {section.crc32:#010x}, computed {actual:#010x}) — "
                    "the arena is corrupt; re-run 'repro policies pack'"
                )

    # --------------------------------------------------------------- lookups
    @property
    def policy_count(self) -> int:
        """How many policies the arena packs."""
        return len(self._ids)

    @property
    def nbytes_mapped(self) -> int:
        """Size of the mapping in bytes (the whole arena file)."""
        return 0 if self._mm.closed else len(self._mm)

    @property
    def feature_names(self) -> Optional[List[str]]:
        """The feature-name list shared by every packed policy, if any."""
        return list(self._feature_names) if self._feature_names is not None else None

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has released the mapping."""
        return self._mm.closed

    def policy_ids(self) -> List[str]:
        """Every packed policy id, in pack order."""
        return list(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, policy_id: object) -> bool:
        return policy_id in self._rows

    def get(self, policy_id: str) -> Optional["CompiledTreePolicy"]:
        """The compiled policy for an id, or ``None`` when not packed.

        The first lookup wraps the six mmap slices in a zero-copy
        :meth:`~repro.serving.compiled.CompiledTreePolicy.from_views` handle;
        repeats return the cached handle.  No bytes are copied either way —
        the kernel pages the arrays in on first traversal.
        """
        handle = self._handles.get(policy_id)
        if handle is not None:
            return handle
        row = self._rows.get(policy_id)
        if row is None:
            return None
        if self._mm.closed:
            raise ArenaIntegrityError(f"{self.path}: arena is closed")
        from repro.serving.compiled import CompiledTreePolicy

        node_lo = int(self._index[row, IDX_NODE_START])
        node_hi = node_lo + int(self._index[row, IDX_NODE_COUNT])
        action_lo = int(self._index[row, IDX_ACTION_START])
        action_hi = action_lo + int(self._index[row, IDX_ACTION_COUNT])
        compiled = CompiledTreePolicy.from_views(
            feature=self._views["feature"][node_lo:node_hi],
            threshold=self._views["threshold"][node_lo:node_hi],
            left=self._views["left"][node_lo:node_hi],
            right=self._views["right"][node_lo:node_hi],
            leaf_action=self._views["leaf_action"][node_lo:node_hi],
            action_pairs=self._views["action_pairs"][action_lo:action_hi],
            n_features=int(self._index[row, IDX_N_FEATURES]),
            depth=int(self._index[row, IDX_DEPTH]),
            feature_names=self._feature_names,
        )
        self._handles[policy_id] = compiled
        return compiled

    def rows_of(self, policy_ids: NDArray[Any]) -> NDArray[Any]:
        """The arena row of every id (int64), ``-1`` where an id is not packed.

        One ``searchsorted`` over the sorted copy of the ids made at open, so
        a batch's ids resolve without a python lookup per id.
        """
        ids = np.asarray(policy_ids, dtype=str)
        rows = np.full(ids.shape, -1, dtype=np.int64)
        if ids.size == 0 or self._sorted_ids.size == 0:
            return rows
        position = np.minimum(
            np.searchsorted(self._sorted_ids, ids), self._sorted_ids.size - 1
        )
        found = self._sorted_ids[position] == ids
        rows[found] = self._sorted_rows[position[found]]
        return rows

    def predict(
        self, rows: NDArray[Any], inputs: NDArray[Any]
    ) -> Tuple[NDArray[Any], NDArray[Any]]:
        """Serve input ``i`` with the policy at arena row ``rows[i]``.

        Returns the action indices and the ``(n, 2)`` (heating, cooling)
        setpoints.  All rows descend together in one vectorised walk over the
        concatenated sections: a row starts at its policy's ``node_start``,
        the policy-local child pointers are offset by it, and the setpoints
        are ``action_pairs[action_start + leaf_action]``.  Inputs are compared
        in float64, as :meth:`~repro.serving.compiled.CompiledTreePolicy.
        predict_batch` does, and a width that differs from any selected
        policy's ``n_features`` raises :class:`ValueError`.
        """
        if self._mm.closed:
            raise ArenaIntegrityError(f"{self.path}: arena is closed")
        from repro.serving.compiled import _descend

        inputs = np.asarray(inputs, dtype=np.float64)
        policies = self._index[rows]
        widths = policies[:, IDX_N_FEATURES]
        wrong = widths[widths != (inputs.shape[1] if inputs.ndim == 2 else -1)]
        if wrong.size:
            raise ValueError(
                f"Expected policy inputs of shape (rows, {int(wrong[0])}), "
                f"got {inputs.shape}"
            )
        node_start = policies[:, IDX_NODE_START]
        nodes = _descend(
            self._views["feature"],
            self._views["threshold"],
            self._views["left"],
            self._views["right"],
            inputs,
            node_start,
            int(policies[:, IDX_DEPTH].max(initial=0)),
            base=node_start,
        )
        actions = self._views["leaf_action"][nodes]
        setpoints = self._views["action_pairs"][policies[:, IDX_ACTION_START] + actions]
        return actions, setpoints

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release the arena's own references and the mapping (idempotent).

        Views already handed out keep their pages alive: ``mmap`` refuses to
        close under exported buffers, so the actual unmap happens when the
        last view is garbage-collected.
        """
        self._handles.clear()
        self._views.clear()
        self._index = np.empty((0, 6), dtype=np.int64)
        if not self._mm.closed:
            try:
                self._mm.close()
            except BufferError:
                # Outstanding zero-copy views still reference the map; the
                # OS reclaims it once they are garbage-collected.
                pass
        self._file.close()

    def __enter__(self) -> "PolicyArena":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"PolicyArena(path={str(self.path)!r}, policies={self.policy_count}, "
            f"bytes={self.nbytes_mapped})"
        )


#: What the serving stack accepts as an ``arena`` argument.
ArenaLike = Union["PolicyArena", str, Path, bool, None]


def resolve_arena(
    arena: ArenaLike, store: Optional["PolicyStore"]
) -> Tuple[Optional["PolicyArena"], Optional[str]]:
    """Coerce the polymorphic ``arena`` argument used across the serving stack.

    Returns ``(arena_or_none, fallback_reason_or_none)``:

    * ``False`` — arena disabled, ``(None, None)``.
    * ``None`` — auto mode: open the store's packed arena when one exists,
      otherwise serve from JSON silently.
    * ``True`` — require the store's arena; a *missing* file raises
      ``FileNotFoundError`` (a configuration error), but a corrupt one still
      falls back.
    * path — open that file (missing file raises, corrupt file falls back).
    * :class:`PolicyArena` — passed through (caller keeps ownership).

    A truncated or corrupted arena never takes serving down: it resolves to
    ``(None, reason)`` and the caller serves from the JSON store instead.
    """
    if arena is False:
        return None, None
    if arena is None or arena is True:
        if store is None:
            if arena is True:
                raise ValueError("arena=True requires a policy store to locate the arena")
            return None, None
        path = store.arena_path
        if not path.exists():
            if arena is True:
                raise FileNotFoundError(
                    f"no packed arena at {path}; run 'repro policies pack' first"
                )
            return None, None
    elif isinstance(arena, PolicyArena):
        return arena, None
    else:
        path = Path(arena)
        if not path.exists():
            raise FileNotFoundError(
                f"no packed arena at {path}; run 'repro policies pack' first"
            )
    try:
        return PolicyArena(path), None
    except ArenaIntegrityError as exc:
        return None, str(exc)
