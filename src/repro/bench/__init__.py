"""``repro bench``: the benchmark targets and the floors each result must meet.

Every target is a run function, which takes the parsed ``repro bench``
options and returns the JSON-ready result, plus a floors function next to
it, which judges that result (see :mod:`repro.bench.floors`).  The CLI
prints and writes the result, then applies the floors and exits 1 when any
failed; CI runs the same commands, so a floor is declared exactly once.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple

from repro.bench.distill import distill_floors, run_distill
from repro.bench.fleet import fleet_floors, run_fleet_bench
from repro.bench.floors import FAIL, PASS, SKIP, Floor
from repro.bench.rollouts import robustness_floors, rollout_floors, run_robustness, run_rollout
from repro.bench.serving import (
    run_serve,
    run_serve_columnar,
    run_serve_faults,
    run_serve_sharded,
    serve_columnar_floors,
    serve_faults_floors,
    serve_floors,
    serve_sharded_floors,
)
from repro.bench.store_cold import run_store_cold, store_cold_floors


class Target(NamedTuple):
    """One ``repro bench --target``: how to run it and how to judge its result."""

    run: Callable[..., Dict]
    floors: Callable[[Dict], List[Floor]]


TARGETS: Dict[str, Target] = {
    "rollout": Target(run_rollout, rollout_floors),
    "distill": Target(run_distill, distill_floors),
    "serve": Target(run_serve, serve_floors),
    "serve-columnar": Target(run_serve_columnar, serve_columnar_floors),
    "serve-sharded": Target(run_serve_sharded, serve_sharded_floors),
    "serve-faults": Target(run_serve_faults, serve_faults_floors),
    "store-cold": Target(run_store_cold, store_cold_floors),
    "fleet": Target(run_fleet_bench, fleet_floors),
    "robustness": Target(run_robustness, robustness_floors),
}

__all__ = ["FAIL", "PASS", "SKIP", "Floor", "Target", "TARGETS"]
