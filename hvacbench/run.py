"""Run one benchmark workload and print its result as the last stdout line.

Usage (from the root of a checkout)::

    python3 hvacbench/run.py --workload extract-paper --seed 0 --seconds 20 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end metrics;
``--trace 1`` repeats a fixed slice of the workload untraced and traced and
reports the per-layer metrics, including the tracing overhead.  The last line
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable report with the workload's
own named metrics, the environment fingerprint and every check.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from hvacbench.common import (  # noqa: E402
    BenchError, Outcome, fingerprint, import_program, nproc, peak_rss_mb, stop_children,
)

WORKLOADS = ("extract-paper", "fleet-loop", "serve-wide")
#: End-to-end metric → unit; every untraced run reports all of them.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms": "ms",
}


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> Outcome:
    if name == "extract-paper":
        from hvacbench import extract_paper as module
    elif name == "fleet-loop":
        from hvacbench import fleet_loop as module
    else:
        from hvacbench import serve_wide as module
    return module.run(seed, seconds, trace, size)


def result_line(outcome: Outcome, trace: bool, environment: Dict[str, object]) -> Dict[str, object]:
    """The contract's JSON object for one run."""
    from hvacbench.layers import PER_LAYER, SELF_SUM_TOLERANCE

    if trace:
        units = PER_LAYER
        values = outcome.layers
        outcome.check("self_times_sum_to_wall", values.get("trace.self_sum_error", 1.0) <= SELF_SUM_TOLERANCE)
    else:
        units = END_TO_END
        values = dict(outcome.metrics, peak_rss_mb=peak_rss_mb())
    blas = environment.get("blas_threads")
    outcome.check("blas_threads_within_nproc", blas is None or int(blas) <= nproc())
    missing = [name for name in units if name not in values]
    outcome.check("every_metric_emitted", not missing)
    correct = all(outcome.checks.values()) and outcome.failed == 0 and outcome.attempted > 0
    return {
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
            if name in values
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "smoke"), default="full",
        help="smoke: tiny inputs for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    try:
        import_program()
    except (BenchError, ImportError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    environment = fingerprint()
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    finally:
        stop_children()
    result = result_line(outcome, bool(args.trace), environment)
    failed_frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} size {args.size}")
    print("environment " + json.dumps(environment, sort_keys=True))
    for name, (value, unit) in outcome.report.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':32s} {failed_frac:14.6g} fraction")
    print("checks " + json.dumps(outcome.checks, sort_keys=True))
    print("notes " + json.dumps(outcome.notes, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
