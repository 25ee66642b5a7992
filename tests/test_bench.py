"""``repro bench``: every target's floors on plain dicts, and a smoke run of each target."""

import copy
import json

import pytest

from repro.bench import FAIL, PASS, SKIP, TARGETS, Target
from repro.experiments.cli import main

#: A result per target that meets every floor at its full gate (CI's run
#: size, 4 cores, a PSS memory metric).
PASSING = {
    "rollout": {"backend": "batched", "mean_steps_per_second": 40000.0},
    "distill": {
        "entries": 48,
        "labels_identical": True,
        "float32_label_agreement": 1.0,
        "float32_speedup": 2.1,
    },
    "serve": {"rows": 20000, "actions_identical": True, "cache_hit": True, "speedup": 14.0},
    "serve-columnar": {
        "rows": 50000,
        "actions_identical": True,
        "speedup": 3.3,
        "wide_mix": {"actions_identical": True, "speedup": 20.0},
    },
    "serve-sharded": {"shards": 4, "cpu_count": 4, "actions_identical": True, "speedup": 2.5},
    "serve-faults": {
        "shards": 4,
        "cpu_count": 4,
        "requests_lost": 0,
        "actions_identical": True,
        "restarts": 2,
        "kill_recovery_seconds": 0.07,
        "hang_recovery_seconds": 1.1,
    },
    "store-cold": {
        "policies": 10000,
        "shards": 4,
        "actions_identical": True,
        "arena_compile_count": 0,
        "restart": {"compile_count": 0, "lost_requests": 0, "arena_hits": 4},
        "cold_ttfa_speedup": 100.0,
        "memory_metric": "pss",
        "memory_growth_ratio": 1.2,
    },
    "fleet": {
        "promoted": True,
        "rolled_back": True,
        "drift_alarm_fired": True,
        "lost_ticks": 0,
        "kill_tick": 6,
    },
    "robustness": {
        "agents": ["rule_based", "pid"],
        "faults": ["clean", "sensor_noise", "heat_wave"],
        "rows": [
            {"agent": "rule_based", "fault": "clean",
             "mean_total_reward": -53.0, "mean_comfort_violation_rate": 0.1875},
            {"agent": "rule_based", "fault": "sensor_noise",
             "mean_total_reward": -53.0, "mean_comfort_violation_rate": 0.1875},
            {"agent": "rule_based", "fault": "heat_wave",
             "mean_total_reward": -53.0, "mean_comfort_violation_rate": 0.1875},
            {"agent": "pid", "fault": "clean",
             "mean_total_reward": -40.0, "mean_comfort_violation_rate": 0.1},
            {"agent": "pid", "fault": "sensor_noise",
             "mean_total_reward": -45.0, "mean_comfort_violation_rate": 0.2},
            {"agent": "pid", "fault": "heat_wave",
             "mean_total_reward": -40.0, "mean_comfort_violation_rate": 0.1},
        ],
    },
}


def _with(target: str, **changes) -> dict:
    """The passing result of ``target`` with fields replaced; ``a__b`` is nested."""
    result = copy.deepcopy(PASSING[target])
    for path, value in changes.items():
        *parents, leaf = path.split("__")
        node = result
        for key in parents:
            node = node[key]
        node[leaf] = value
    return result


def _statuses(target: str, result: dict) -> dict:
    return {floor.name: floor.status for floor in TARGETS[target].floors(result)}


def test_every_target_has_a_passing_example():
    assert set(PASSING) == set(TARGETS)


@pytest.mark.parametrize("target", sorted(PASSING))
def test_passing_result_passes_every_floor(target):
    statuses = _statuses(target, PASSING[target])
    skipped = {"fault 'clean' moves some agent", "fault 'heat_wave' moves some agent"}
    assert all(status == PASS for name, status in statuses.items() if name not in skipped)
    assert all(statuses[name] == SKIP for name in skipped & set(statuses))


@pytest.mark.parametrize(
    "target,changes,floor",
    [
        ("rollout", {"mean_steps_per_second": 5999.0}, "mean_steps_per_second >= 6000"),
        ("distill", {"labels_identical": False}, "labels_identical"),
        ("distill", {"float32_label_agreement": 0.95}, "float32_label_agreement >= 0.97"),
        ("distill", {"float32_speedup": 1.1}, "float32_speedup >= 1.2"),
        ("serve", {"actions_identical": False}, "actions_identical"),
        ("serve", {"cache_hit": False}, "cache_hit"),
        ("serve", {"speedup": 3.9}, "speedup >= 4.0"),
        ("serve-columnar", {"actions_identical": False}, "actions_identical"),
        ("serve-columnar", {"speedup": 1.4}, "speedup >= 1.5"),
        ("serve-sharded", {"actions_identical": False}, "actions_identical"),
        ("serve-sharded", {"speedup": 1.7}, "speedup >= 1.8"),
        ("serve-faults", {"requests_lost": 1}, "requests_lost == 0"),
        ("serve-faults", {"actions_identical": False}, "actions_identical"),
        ("serve-faults", {"restarts": 1}, "restarts >= 2"),
        ("serve-faults", {"kill_recovery_seconds": 2.0}, "kill_recovery_seconds < 2.0"),
        ("serve-faults", {"hang_recovery_seconds": 2.5}, "hang_recovery_seconds < 2.0"),
        ("store-cold", {"actions_identical": False}, "actions_identical"),
        ("store-cold", {"arena_compile_count": 3}, "arena_compile_count == 0"),
        ("store-cold", {"restart__compile_count": 1}, "restart.compile_count == 0"),
        ("store-cold", {"restart__lost_requests": 5}, "restart.lost_requests == 0"),
        ("store-cold", {"restart__arena_hits": 0}, "restart.arena_hits > 0"),
        ("store-cold", {"cold_ttfa_speedup": 9.9}, "cold_ttfa_speedup >= 10"),
        ("store-cold", {"memory_growth_ratio": 1.6}, "memory_growth_ratio <= 1.5"),
        ("fleet", {"promoted": False}, "promoted"),
        ("fleet", {"rolled_back": False}, "rolled_back"),
        ("fleet", {"drift_alarm_fired": False}, "drift_alarm_fired"),
        ("fleet", {"lost_ticks": 1}, "lost_ticks == 0"),
        ("robustness", {"rows": PASSING["robustness"]["rows"][:-1]},
         "every agent x fault cell present"),
        ("serve-columnar", {"wide_mix__actions_identical": False}, "wide_mix.actions_identical"),
        ("serve-columnar", {"wide_mix__speedup": 4.9}, "wide_mix.speedup >= 5.0"),
    ],
)
def test_violated_floor_fails_and_is_named(target, changes, floor):
    statuses = _statuses(target, _with(target, **changes))
    assert statuses[floor] == FAIL
    assert [name for name, status in statuses.items() if status == FAIL] == [floor]


def test_robustness_floors_on_comfort_and_inert_faults():
    rows = copy.deepcopy(PASSING["robustness"]["rows"])
    rows[0]["mean_comfort_violation_rate"] = 0.31
    statuses = _statuses("robustness", _with("robustness", rows=rows))
    assert statuses["rule_based clean comfort violation <= 0.3"] == FAIL

    rows = copy.deepcopy(PASSING["robustness"]["rows"])
    rows[4]["mean_total_reward"] = rows[3]["mean_total_reward"]  # pid unmoved
    statuses = _statuses("robustness", _with("robustness", rows=rows))
    assert statuses["fault 'sensor_noise' moves some agent"] == FAIL


@pytest.mark.parametrize(
    "target,changes,floors",
    [
        ("rollout", {"backend": "serial", "mean_steps_per_second": 10.0},
         ["mean_steps_per_second >= 6000"]),
        ("distill", {"entries": 47, "float32_label_agreement": 0.5, "float32_speedup": 0.5},
         ["float32_label_agreement >= 0.97", "float32_speedup >= 1.2"]),
        ("serve", {"rows": 19999, "speedup": 1.0}, ["speedup >= 4.0"]),
        ("serve-columnar", {"rows": 49999, "speedup": 1.0}, ["speedup >= 1.5"]),
        ("serve-sharded", {"cpu_count": 3, "speedup": 0.5}, ["speedup >= 1.8"]),
        ("serve-faults",
         {"cpu_count": 2, "kill_recovery_seconds": 9.0, "hang_recovery_seconds": 9.0},
         ["kill_recovery_seconds < 2.0", "hang_recovery_seconds < 2.0"]),
        ("store-cold", {"policies": 9999, "cold_ttfa_speedup": 1.0, "memory_growth_ratio": 3.0},
         ["cold_ttfa_speedup >= 10", "memory_growth_ratio <= 1.5"]),
        ("store-cold", {"memory_metric": "rss", "memory_growth_ratio": 3.0},
         ["memory_growth_ratio <= 1.5"]),
        ("store-cold", {"memory_metric": None, "memory_growth_ratio": None},
         ["memory_growth_ratio <= 1.5"]),
    ],
)
def test_gated_floor_is_skipped_below_its_gate(target, changes, floors):
    statuses = _statuses(target, _with(target, **changes))
    assert [name for name, status in statuses.items() if status == SKIP] == floors
    assert FAIL not in statuses.values()


def test_robustness_floors_skip_without_their_cells():
    rows = [r for r in PASSING["robustness"]["rows"] if r["fault"] != "clean"]
    statuses = _statuses(
        "robustness", _with("robustness", faults=["sensor_noise", "heat_wave"], rows=rows)
    )
    assert statuses["rule_based clean comfort violation <= 0.3"] == SKIP
    assert statuses["fault 'sensor_noise' moves some agent"] == SKIP
    assert FAIL not in statuses.values()


def test_cli_bench_exits_1_naming_the_failed_floor(monkeypatch, tmp_path, capsys):
    result = dict(PASSING["fleet"], benchmark="fleet", rolled_back=False)
    monkeypatch.setitem(
        TARGETS, "fleet", Target(lambda args: result, TARGETS["fleet"].floors)
    )
    output = tmp_path / "bench.json"
    assert main(["bench", "--target", "fleet", "--output", str(output)]) == 1
    assert json.loads(output.read_text()) == result  # written before judging
    captured = capsys.readouterr()
    assert "floor FAIL rolled_back" in captured.out
    assert "rolled_back: corrupted candidate was not rolled back" in captured.err


# ------------------------------------------------------------------ smoke
@pytest.mark.parametrize(
    "target,options",
    [
        ("rollout", ["--episodes", "1"]),
        ("distill", ["--entries", "4", "--samples", "8", "--horizon", "2", "--mc-runs", "2"]),
        ("serve", ["--rows", "500", "--decision-data", "24"]),
        ("serve-columnar", ["--rows", "500", "--decision-data", "24"]),
        ("serve-sharded", ["--rows", "1024", "--shards", "2", "--batch-size", "256",
                           "--decision-data", "24"]),
        ("serve-faults", ["--rows", "1536", "--shards", "2", "--batch-size", "256",
                          "--decision-data", "24"]),
        ("fleet", ["--buildings", "32", "--ticks", "16", "--shards", "2",
                   "--decision-data", "24"]),
        ("robustness", ["--robust-agents", "rule_based", "--faults", "clean,weak_hvac",
                        "--episodes", "1"]),
    ],
)
def test_cli_bench_smoke(target, options, tmp_path, capsys):
    output = tmp_path / "bench.json"
    assert main(["bench", "--target", target, *options, "--output", str(output)]) == 0
    assert json.loads(output.read_text())["benchmark"] == target
    assert "floor FAIL" not in capsys.readouterr().out
