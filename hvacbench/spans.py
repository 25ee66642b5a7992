"""In-memory span recorder that wraps a layer's public callables from outside.

The benchmark never edits the program: in a traced run it replaces selected
methods and functions of the ``repro`` modules with thin wrappers that record
one span per call and restores the originals afterwards.  A span has a name,
a start, an end, the index of the span that was open when it started (its
parent) and the id of the operation (pipeline run, fleet tick or request
batch) it belongs to.  Spans stay in memory; :meth:`Tracer.summary` reduces
them to per-name self times when the workload ends.

Only the thread and process that created the tracer record spans.  Calls made
from other threads (the shard supervisor's heartbeat) or from forked shard
workers pass straight through, so the span stack stays a strict nesting.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

#: Span record: (name, start, end, parent index or -1, operation id, rows).
Span = Tuple[str, float, float, int, int, int]


class Tracer:
    """Records nested spans on one thread and patches callables to emit them."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.operation = 0
        self._stack: List[int] = []
        self._thread = threading.get_ident()
        self._pid = os.getpid()
        self._patches: List[Tuple[Any, str, Any]] = []

    # --------------------------------------------------------------- recording
    @contextmanager
    def span(self, name: str, rows: int = 0) -> Iterator[None]:
        """Record one span around the ``with`` body."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.operation, rows))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.operation, rows)

    # ----------------------------------------------------------------- patches
    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: Union[str, Callable[..., str]],
        rows: Optional[Callable[..., int]] = None,
    ) -> None:
        """Replace ``owner.attribute`` by a wrapper recording span ``name``.

        ``name`` may be a callable of the call's arguments (one callable, two
        span names, such as clean and faulted environment batches).  ``rows``
        maps the call's arguments to a row count stored on the span.
        Patching the same attribute twice is an error: the restore order would
        otherwise lose the original.
        """
        # A class must define the attribute itself: restoring an inherited
        # one would leave a copy behind on the subclass.
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        if any(o is owner and a == attribute for o, a, _ in self._patches):
            raise ValueError(f"{owner!r}.{attribute} is already traced")
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if threading.get_ident() != tracer._thread or os.getpid() != tracer._pid:
                return original(*args, **kwargs)
            label = name if isinstance(name, str) else name(*args, **kwargs)
            count = rows(*args, **kwargs) if rows is not None else 0
            with tracer.span(label, count):
                return original(*args, **kwargs)

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def restore(self) -> None:
        """Put every patched attribute back (idempotent)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # --------------------------------------------------------------- reduction
    def self_times(self) -> List[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total duration, self time and rows."""
        table: Dict[str, Dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            name, start, end, _, _, rows = span
            row = table.setdefault(name, {"calls": 0.0, "total_s": 0.0, "self_s": 0.0, "rows": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
            row["rows"] += rows
        return table
