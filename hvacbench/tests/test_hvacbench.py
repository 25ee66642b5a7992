"""The benchmark's own tests: smoke-size runs of every workload.

Run from the repository root::

    python3 -m pytest hvacbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT))

from hvacbench import extract_paper, fleet_loop, serve_wide  # noqa: E402
from hvacbench.common import import_program  # noqa: E402
from hvacbench.layers import PER_LAYER  # noqa: E402
from hvacbench.run import END_TO_END, WORKLOADS  # noqa: E402
from hvacbench.spans import Tracer  # noqa: E402

import_program()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "hvacbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", str(trace), "--size", "smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if trace:
        assert result["metrics"]["trace.self_sum_error"]["value"] <= 0.01
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "hvacbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "serve-wide", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert not done.stdout.strip()


def _session_members(sid: int) -> list:
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                if os.getsid(int(entry)) == sid:
                    members.append(int(entry))
            except OSError:
                pass
    return members


def test_no_process_outlives_a_run():
    """Shard workers and the shared-memory resource tracker end before the run does."""
    done = subprocess.Popen(
        [sys.executable, "hvacbench/run.py", "--workload", "serve-wide", "--seed", "0",
         "--seconds", "1", "--trace", "0", "--size", "smoke"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
    )
    assert done.wait(timeout=300) == 0
    assert _session_members(done.pid) == []


def test_wrong_label_fails_the_pinned_check(monkeypatch):
    from repro.core.decision_dataset import DecisionDatasetGenerator

    original = DecisionDatasetGenerator.generate

    def flipped(self, *args, **kwargs):
        dataset = original(self, *args, **kwargs)
        dataset.action_labels[0] = (dataset.action_labels[0] + 1) % len(self.action_pairs)
        return dataset

    assert extract_paper.run(0, 0.1, False, "smoke").checks["pinned_labels_and_nodes"]
    monkeypatch.setattr(DecisionDatasetGenerator, "generate", flipped)
    outcome = extract_paper.run(0, 0.1, False, "smoke")
    assert outcome.checks["pinned_labels_and_nodes"] is False
    assert outcome.failed == outcome.attempted


def _corrupt_first_action(response):
    actions = np.asarray(response.action_indices)
    actions[0] = actions[0] + 1
    return response


def test_wrong_fleet_action_fails(monkeypatch):
    from repro.serving import PolicyServer

    original = PolicyServer.serve_columnar
    monkeypatch.setattr(
        PolicyServer, "serve_columnar",
        lambda self, batch: _corrupt_first_action(original(self, batch)),
    )
    outcome = fleet_loop.run(0, 0.1, False, "smoke")
    assert outcome.checks["served_equals_reference"] is False
    assert outcome.failed > 0


def test_wrong_sharded_action_fails(monkeypatch):
    from repro.serving import ShardedPolicyServer

    original = ShardedPolicyServer.serve_columnar
    monkeypatch.setattr(
        ShardedPolicyServer, "serve_columnar",
        lambda self, batch: _corrupt_first_action(original(self, batch)),
    )
    outcome = serve_wide.run(0, 0.5, False, "smoke")
    assert outcome.checks["sharded_equals_in_process"] is False
    assert outcome.failed == outcome.attempted


def test_self_times_partition_the_root_span():
    tracer = Tracer()
    with tracer.span("bench.window"):
        with tracer.span("env.a"):
            time.sleep(0.01)
            with tracer.span("nn.b"):
                time.sleep(0.01)
        time.sleep(0.005)
    table = tracer.summary()
    root = table["bench.window"]["total_s"]
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(root, rel=1e-9)
    assert table["env.a"]["self_s"] == pytest.approx(
        table["env.a"]["total_s"] - table["nn.b"]["total_s"], rel=1e-9
    )


def test_wrap_records_and_restores():
    class Layer:
        def work(self, rows):
            return len(rows)

    tracer = Tracer()
    tracer.wrap(Layer, "work", "env.work", rows=lambda self, rows: len(rows))
    assert Layer().work([1, 2, 3]) == 3
    tracer.restore()
    Layer().work([1])
    assert [(s[0], s[5]) for s in tracer.spans] == [("env.work", 3)]
