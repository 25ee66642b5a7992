"""Shared plumbing: import guard, scratch space, fingerprint, statistics."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Root of the checkout the benchmark runs in (the parent of this package).
ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, broken environment)."""


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: Correctness checks by name; a check that fails once stays failed.
    checks: Dict[str, bool] = field(default_factory=dict)
    #: The contract's end-to-end metrics (BENCHMARK.json ``end_to_end``).
    metrics: Dict[str, float] = field(default_factory=dict)
    #: The workload's own named metrics with units, printed for readers.
    report: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Per-layer metrics (traced runs only).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Free-form facts worth recording (incumbent verified flags, hazards).
    notes: Dict[str, object] = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> bool:
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        return bool(ok)


def import_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` and import ``repro``.

    The benchmark builds nothing: the program is the pure-Python package under
    ``src``.  It must come from this checkout, never from an installed copy.
    """
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SOURCE):
        raise BenchError(f"repro imported from {repro.__file__}, not from {SOURCE}")


@contextmanager
def scratch_dir(tag: str) -> Iterator[Path]:
    """A fresh directory inside the checkout, removed on exit."""
    base = ROOT / ".hvacbench_work"
    path = base / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass


# ------------------------------------------------------------------ environment
def _openblas_threads() -> Dict[str, object]:
    """BLAS vendor string and thread count, read from numpy's bundled library."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        library = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(library, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(library, f"{prefix}_get_config{suffix}", None)
                if threads is None:
                    continue
                threads.restype = ctypes.c_int
                vendor = "openblas"
                if config is not None:
                    config.restype = ctypes.c_char_p
                    vendor = config().decode(errors="replace")
                return {"blas_vendor": vendor, "blas_threads": int(threads())}
    return {"blas_vendor": "unknown", "blas_threads": None}


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def fingerprint() -> Dict[str, object]:
    """What the numbers depend on: CPUs, Python, numpy, BLAS, source revision."""
    import numpy

    sha = _git("rev-parse", "HEAD")
    dirty = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    info: Dict[str, object] = {
        "nproc": nproc(),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_sha": sha,
        "git_dirty": bool(dirty) if sha else None,
    }
    info.update(_openblas_threads())
    return info


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_seconds(module: str, repeats: int = 5) -> float:
    """Median wall time of importing ``module`` in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        f"import {module}; print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", code, str(SOURCE)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


# ------------------------------------------------------------------- processes
def stop_children(grace: float = 5.0) -> None:
    """Stop every process this one started and wait until each has ended.

    Shard workers are joined with ``terminate`` then ``kill`` escalation.  The
    ``multiprocessing`` resource tracker, which the shared-memory rings start
    and which would otherwise exit only after this process has, is told to
    stop and waited for.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=grace)
        if child.is_alive():
            child.terminate()
            child.join(timeout=grace)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


# ------------------------------------------------------------------- statistics
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default), ``q`` in [0, 100]."""
    import numpy

    return float(numpy.percentile(numpy.asarray(values, dtype=float), q))


def digest(*arrays: object) -> str:
    """Short SHA-256 over the bytes of the given numpy arrays."""
    import numpy

    hasher = hashlib.sha256()
    for array in arrays:
        data = numpy.ascontiguousarray(array)
        hasher.update(str(data.dtype).encode())
        hasher.update(str(data.shape).encode())
        hasher.update(data.tobytes())
    return hasher.hexdigest()[:16]


def median_of(samples: List[float]) -> float:
    return float(statistics.median(samples))
