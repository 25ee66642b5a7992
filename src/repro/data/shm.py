"""Zero-copy shared-memory transport for the columnar batch schema.

The sharded policy server (:mod:`repro.serving.sharded`) moves
:class:`~repro.data.schema.ColumnarBatch` payloads between processes.  Pickling
a ``(B, F)`` observation matrix through a ``multiprocessing`` queue would
serialise, copy and deserialise every byte per hop — exactly the object tax the
columnar data plane removed in-process.  This module keeps the arrays out of
the queues entirely:

* :class:`SharedMemoryColumnarBuffer` — a one-batch ring over one
  ``multiprocessing.shared_memory.SharedMemory`` segment.  ``write_batch``
  lays each column's bytes out at aligned offsets from the start of the
  segment and returns a tiny :class:`ShmBatchHeader`; ``read_batch`` maps
  ``numpy`` views directly onto the segment at those offsets (no copy, no
  pickle) and rebuilds the batch around them.
* :class:`ShmBatchHeader` / :class:`ColumnSegment` — the only things that ever
  cross a queue: batch type name, column dtypes/shapes/offsets and scalar
  metadata.  :meth:`ShmBatchHeader.assert_zero_copy` is the transport's
  no-pickle guard — it refuses any header that smuggles an array (or other
  bulk payload), so the queue traffic provably stays O(columns), not O(rows).

Ownership protocol
------------------
Exactly one process *owns* a segment: it creates it (:meth:`
SharedMemoryColumnarBuffer.create`) and must eventually :meth:`~
SharedMemoryColumnarBuffer.unlink` it.  Any number of peers :meth:`~
SharedMemoryColumnarBuffer.attach` by name and only ever :meth:`~
SharedMemoryColumnarBuffer.close` their mapping — attaching deliberately
unregisters the segment from the attaching process's ``resource_tracker`` so
a worker exiting (including via SIGTERM) can never unlink a ring the owner is
still serving from.

The ring is deliberately single-producer: each direction of each shard gets
its own buffer, and the sharded server keeps at most one batch in flight per
ring.  So every batch is written at offset 0: the previous batch has always
been consumed before its bytes are reused, and the pages a ring ever touches
(its resident shared memory) are bounded by its largest batch, not by its
capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, Optional, Tuple, Type

import numpy as np
from numpy.typing import NDArray

from repro.data.schema import (
    ActionBatch,
    ColumnarBatch,
    InfoBatch,
    ObservationBatch,
    PolicyRequestBatch,
    PolicyResponseBatch,
)

#: Byte alignment of every column payload inside a segment (cache-line sized,
#: and a multiple of every dtype itemsize the schema uses).
ALIGNMENT = 64

#: Default ring capacity (bytes): the largest batch one ring can carry, sized
#: for ~8k-row mixed request batches with room to spare; raise it
#: (``ring_capacity=``) for bigger batches.  Only the pages the largest batch
#: actually written spans become resident — every batch starts at offset 0.
DEFAULT_CAPACITY = 32 * 1024 * 1024

#: The batch types the transport can carry, by class name — the header stores
#: the name so the reading side can rebuild the right type without pickling
#: classes through the queue.
BATCH_TYPES: Dict[str, Type[ColumnarBatch]] = {
    cls.__name__: cls
    for cls in (
        ObservationBatch,
        ActionBatch,
        InfoBatch,
        PolicyRequestBatch,
        PolicyResponseBatch,
    )
}

#: Python scalar types a header may carry (recursively, inside tuples/dicts).
_PLAIN_SCALARS = (str, int, float, bool, type(None))


class ShmTransportError(RuntimeError):
    """A shared-memory transport violation (oversized batch, bad header...)."""


def _assert_plain(value: object, where: str) -> None:
    """Recursively require queue-safe scalar metadata (no arrays, no bytes)."""
    if isinstance(value, _PLAIN_SCALARS):
        return
    if isinstance(value, (tuple, list)):
        for item in value:
            _assert_plain(item, where)
        return
    if isinstance(value, dict):
        for key, item in value.items():
            _assert_plain(key, where)
            _assert_plain(item, where)
        return
    raise ShmTransportError(
        f"{where} would pickle a {type(value).__name__} through the queue; "
        "array payloads must travel via shared memory, not the header"
    )


@dataclass(frozen=True)
class ColumnSegment:
    """Where one column of a batch lives inside a shared-memory segment.

    Pure metadata: dtype string (``numpy`` descriptor, e.g. ``"<f8"`` or
    ``"<U44"``), shape tuple and byte offset.  The bytes themselves never
    leave the segment.
    """

    name: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        """Size of the column payload in bytes."""
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape, dtype=np.int64)))


@dataclass(frozen=True)
class ShmBatchHeader:
    """The queue-sized description of one batch parked in shared memory.

    This is the *only* object the sharded transport ever pickles: the batch
    type name, the owning segment's name, one :class:`ColumnSegment` per
    present column, and the batch-level scalar metadata (e.g. an
    ``ObservationBatch``'s feature names).  Its pickled size is a function of
    the column count, never the row count.
    """

    batch_type: str
    segment: str
    columns: Tuple[ColumnSegment, ...]
    metadata: Dict[str, object] = field(default_factory=dict)
    #: Ring generation the batch was written under.  The supervision layer
    #: bumps a ring's generation every time it replaces a crashed shard's
    #: rings; :meth:`SharedMemoryColumnarBuffer.read_batch` refuses headers
    #: from any other generation, so a reply built against a dead
    #: generation's ring layout is rejected rather than mis-read.
    generation: int = 0

    @property
    def nbytes(self) -> int:
        """Total payload bytes parked in the segment for this batch."""
        return sum(column.nbytes for column in self.columns)

    def assert_zero_copy(self) -> None:
        """The transport's no-pickle guard.

        Raises :class:`ShmTransportError` if the header carries anything but
        plain scalars/strings (recursively) — i.e. if an array payload is
        about to be pickled through a queue instead of mapped through shared
        memory.  Called by both ends of the sharded transport on every send.
        """
        if self.batch_type not in BATCH_TYPES:
            raise ShmTransportError(f"Unknown batch type {self.batch_type!r}")
        for column in self.columns:
            _assert_plain((column.name, column.dtype, column.offset), "column header")
            _assert_plain(tuple(column.shape), "column shape")
        _assert_plain(self.metadata, f"{self.batch_type} metadata")
        _assert_plain(self.generation, f"{self.batch_type} generation")


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


class SharedMemoryColumnarBuffer:
    """A single-producer ring of columnar batches over one shm segment.

    One process creates the segment (:meth:`create`) and writes batches into
    it; peers attach by name (:meth:`attach`) and map views out of it.  Every
    batch is laid out from offset 0 — safe because each ring carries at most
    one in-flight batch (the sharded server's invariant), so the previous
    batch has always been consumed before its bytes are reused.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        owner: bool,
        generation: int = 0,
    ):
        self._shm = shm
        self._owner = owner
        self._closed = False
        self._generation = int(generation)

    # ------------------------------------------------------------- lifecycle
    @classmethod
    def create(
        cls,
        capacity: int = DEFAULT_CAPACITY,
        name: Optional[str] = None,
        generation: int = 0,
    ) -> "SharedMemoryColumnarBuffer":
        """Create and own a new segment of ``capacity`` bytes.

        ``generation`` is the fencing token stamped into every header this
        ring writes (and required of every header it reads); the sharded
        supervision layer bumps it each time a shard's rings are replaced.
        """
        if capacity < ALIGNMENT:
            raise ValueError(f"capacity must be at least {ALIGNMENT} bytes")
        shm = shared_memory.SharedMemory(create=True, size=int(capacity), name=name)
        return cls(shm, owner=True, generation=generation)

    @classmethod
    def attach(cls, name: str, generation: int = 0) -> "SharedMemoryColumnarBuffer":
        """Attach to an existing segment by name (non-owning view).

        The attachment is unregistered from this process's
        ``resource_tracker`` so that a worker exiting — cleanly or via
        SIGTERM — never tears down a segment its parent still owns.
        """
        try:
            shm = shared_memory.SharedMemory(name=name, track=False)  # 3.13+
        except TypeError:
            # Older interpreters register attachments unconditionally with the
            # resource tracker, which would then unlink the segment out from
            # under the owner when this process exits.  Suppress the
            # registration at the source (single-threaded: workers attach once
            # at startup) instead of unregistering after the fact, which with
            # a fork-shared tracker would erase the *owner's* registration.
            original_register = resource_tracker.register
            resource_tracker.register = lambda *args, **kwargs: None
            try:
                shm = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original_register
        return cls(shm, owner=False, generation=generation)

    @property
    def name(self) -> str:
        """The segment name peers attach by."""
        return self._shm.name

    @property
    def generation(self) -> int:
        """The fencing generation this ring writes into (and requires of) headers."""
        return self._generation

    @property
    def capacity(self) -> int:
        """Usable size of the segment in bytes."""
        return self._shm.size

    @property
    def owner(self) -> bool:
        """Whether this handle created (and must unlink) the segment."""
        return self._owner

    def close(self) -> None:
        """Drop this process's mapping (the segment itself survives).

        Any numpy views previously handed out keep the underlying ``mmap``
        alive until they are garbage-collected; closing with live views is
        therefore deferred by the OS rather than an error.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - live views pin the mapping
            pass

    def unlink(self) -> None:
        """Destroy the segment (owner only; idempotent)."""
        if not self._owner:
            raise ShmTransportError("Only the creating process may unlink a segment")
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    def __enter__(self) -> "SharedMemoryColumnarBuffer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
        if self._owner:
            self.unlink()

    # --------------------------------------------------------------- batches
    def write_batch(self, batch: ColumnarBatch) -> ShmBatchHeader:
        """Park a batch's columns in the ring; return its queue-sized header.

        Each present column is copied once into the segment at an aligned
        offset, the first at offset 0, over the previous batch (the write
        *is* the hand-off — nothing is serialised), and the
        returned :class:`ShmBatchHeader` passes :meth:`~ShmBatchHeader.
        assert_zero_copy` by construction.
        """
        type_name = type(batch).__name__
        if type_name not in BATCH_TYPES:
            raise ShmTransportError(f"Cannot transport {type_name!r} batches")
        columns = batch.columns()
        total = sum(_align(array.nbytes) for array in columns.values())
        if total > self.capacity:
            raise ShmTransportError(
                f"Batch needs {total} bytes but the ring holds {self.capacity}; "
                "raise ring_capacity or serve smaller batches"
            )
        offset = 0  # one batch in flight: the previous one has been consumed
        segments = []
        for name, array in columns.items():
            view = np.ndarray(array.shape, dtype=array.dtype, buffer=self._shm.buf, offset=offset)
            view[...] = array
            segments.append(
                ColumnSegment(
                    name=name,
                    dtype=array.dtype.str,
                    shape=tuple(int(dim) for dim in array.shape),
                    offset=offset,
                )
            )
            offset = _align(offset + array.nbytes)
        metadata = {
            key: tuple(value) if isinstance(value, (list, tuple)) else value
            for key, value in batch._metadata().items()
        }
        header = ShmBatchHeader(
            batch_type=type_name,
            segment=self.name,
            columns=tuple(segments),
            metadata=metadata,
            generation=self._generation,
        )
        header.assert_zero_copy()
        return header

    def read_batch(self, header: ShmBatchHeader, copy: bool = False) -> ColumnarBatch:
        """Rebuild a batch from its header, mapping columns out of the ring.

        With ``copy=False`` (the default) every column is a zero-copy numpy
        view onto the segment: valid until the ring's single-producer writes
        its *next* batch, so consume (or ``copy=True``) before handing the
        ring back.  The batch type is resolved from :data:`BATCH_TYPES` —
        nothing executable travels in the header.  A header stamped with a
        different *generation* than this ring — a stale view of a shard
        fleet that has since been restarted — is rejected outright rather
        than risk mapping columns out of a reused segment layout.
        """
        header.assert_zero_copy()
        if header.segment != self.name:
            raise ShmTransportError(
                f"Header describes segment {header.segment!r}, buffer is {self.name!r}"
            )
        if header.generation != self._generation:
            raise ShmTransportError(
                f"Header was written under ring generation {header.generation}, "
                f"but this ring is generation {self._generation}; stale views of "
                "a dead generation are never mapped"
            )
        batch_cls = BATCH_TYPES[header.batch_type]
        columns: Dict[str, NDArray[Any]] = {}
        for segment in header.columns:
            if segment.offset + segment.nbytes > self.capacity:
                raise ShmTransportError(
                    f"Column {segment.name!r} runs past the end of the segment"
                )
            view = np.ndarray(
                segment.shape,
                dtype=np.dtype(segment.dtype),
                buffer=self._shm.buf,
                offset=segment.offset,
            )
            columns[segment.name] = view.copy() if copy else view
        return batch_cls(**columns, **header.metadata)
