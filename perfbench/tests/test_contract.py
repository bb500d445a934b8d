"""BENCHMARK.json and the runner's output agree, and the runner refuses
to report anything without the program's sources."""

import json
import os
import re
import shutil
import subprocess
import sys

import layers
import run

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    assert sorted(names) == sorted(run.WORKLOADS)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(all_names) == len(set(all_names))
    assert all(NAME.match(name) for name in all_names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("higher", "lower") for m in metrics)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def _result(mode="split", seed=0, sharded_s=0.0):
    return {"mode": mode, "seed": seed, "traced": False, "run_s": 2.0,
            "walls": [0.8, 1.2], "sharded_s": sharded_s, "slowdown": 1.0,
            "setup_s": [0.01, 0.02], "finished": 90,
            "peak_rss_mib": 50.0, "digest": "d",
            "outcomes": {"offered": 100, "activations": 100,
                         "submits": 0, "admits": 0,
                         "finished": 90, "in_time": 80,
                         "responses": list(range(90)), "alerts": 0}}


def test_end_to_end_names_and_units_match_the_spec():
    for name in ("steady", "sharded_fanout"):
        workload = run.WORKLOADS[name]
        results = [_result(seed=i, sharded_s=4.0) for i in range(3)]
        metrics, _ = run.end_to_end_metrics(workload, results)
        assert {k: u for k, (_, u) in metrics.items()} == {
            m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert all(value > 0 for value, _ in metrics.values())
    assert metrics["wall_growth"][0] == 2.0 / 0.8
    assert metrics["shard_speedup"][0] == 2.0 / 4.0
    assert metrics["sim_deadline_met_ratio"][0] == 0.8


def test_per_layer_names_and_units_match_the_spec():
    table = {"finished": 10, "self_ns": {"other": 5_000},
             "calls": {}, "counters": {}, "wall_ns": 5_000,
             "max_gc_ns": 0, "by_layer": dict.fromkeys(layers.LAYERS, 0),
             "alerts": 0, "submits": 0, "admits": 0}
    waits = dict.fromkeys(("executing", "preempted", "blocked",
                           "network"), 0.0)
    host = {"trace_overhead": 0.1, "slowdown": 1.2,
            "raw_activations_per_s": 100.0}
    metrics = run.per_layer_metrics(table, waits, host)
    assert {k: u for k, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(1, 1001))) == (99, 990, 10)
    assert run.tail(list(range(1, 201))) == (95, 190, 10)
    assert run.tail(list(range(1, 101))) == (90, 90, 10)
    assert run.tail(list(range(1, 51))) == (50, 25, 25)


def test_without_sources_it_fails_and_reports_nothing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
