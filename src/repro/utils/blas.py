"""Pin numpy's bundled OpenBLAS to one thread while Python threads share the work.

OpenBLAS threads each large-enough gemm over every core.  When several Python
threads each run their own matmuls, those BLAS thread pools fight over the
same cores: on a 2-vCPU x86-64 box, two threads running the planner's
5000-row (64, 64) forward at once took 3.2 ms per forward with 2 BLAS threads
each and 1.34 ms with BLAS pinned to one.  :func:`single_threaded` pins it for
the duration of a ``with`` block.

The thread count is process-global, so the pin is reference-counted: the
first caller to enter saves the current count and sets 1, the last to leave
restores the saved count, and overlapping callers (two threads each running
their own pinned section) never restore early or restore the pinned value.

The controls are found by symbol name in numpy's bundled library (the
``numpy.libs`` directory next to a wheel-installed numpy).  A numpy linked
against another BLAS has no such library; there :func:`single_threaded`
yields ``False`` and changes nothing, and callers should not start threads
that would oversubscribe the cores.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from contextlib import contextmanager
from typing import Any, Iterator, Optional, Tuple

#: ``(get_num_threads, set_num_threads)`` of the bundled OpenBLAS.
Controls = Tuple[Any, Any]

_lock = threading.Lock()
_pins = 0
_saved_threads = 0


@functools.lru_cache(maxsize=1)
def _controls() -> Optional[Controls]:
    """The bundled OpenBLAS's thread-count functions, or ``None`` (looked up once)."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(library, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(library, f"{prefix}_set_num_threads{suffix}", None)
                if get is None or set_ is None:
                    continue
                get.argtypes = []
                get.restype = ctypes.c_int
                set_.argtypes = [ctypes.c_int]
                set_.restype = None
                return get, set_
    return None


def threads() -> Optional[int]:
    """OpenBLAS's current thread count, or ``None`` when it cannot be read."""
    controls = _controls()
    return None if controls is None else int(controls[0]())


@contextmanager
def single_threaded() -> Iterator[bool]:
    """Pin OpenBLAS to one thread inside the block; yields whether it could.

    Nests and overlaps across threads: the count is restored when the last
    pinned block exits, including on an exception.
    """
    global _pins, _saved_threads
    controls = _controls()
    if controls is None:
        yield False
        return
    get, set_ = controls
    with _lock:
        if _pins == 0:
            _saved_threads = int(get())
            set_(1)
        _pins += 1
    try:
        yield True
    finally:
        with _lock:
            _pins -= 1
            if _pins == 0:
                set_(_saved_threads)
