"""Split-run equivalence and the per-repetition checks, on short runs.

``wall_growth`` divides wall(2H) by wall(H) of one run stopped at H and
resumed to 2H.  That only times the program a user runs if stopping
and resuming changes nothing, byte for byte.
"""

import dataclasses

import pytest

import rep
from workloads import WORKLOADS, prepare

#: Short horizons: the same deployments, a fraction of the run time.
SHORT = {"steady": 60_000, "overload": 10_000, "admission_live": 40_000,
         "sharded_fanout": 15_000}


def _short(name):
    return dataclasses.replace(WORKLOADS[name], half=SHORT[name])


def _split_digest(workload, seed):
    system = prepare(workload, seed).system
    system.run(until=workload.half)
    system.run(until=2 * workload.half)
    return rep._digest(system.tracer), system


@pytest.mark.parametrize("name", sorted(SHORT))
@pytest.mark.parametrize("seed", [0, 5])
def test_split_run_equals_one_run_to_2h(name, seed):
    workload = _short(name)
    split, system = _split_digest(workload, seed)
    whole = prepare(workload, seed).system
    whole.run(until=2 * workload.half)
    assert len(system.tracer) > 1_000
    assert rep._digest(whole.tracer) == split


def test_same_seed_same_inputs_other_seed_other_inputs():
    workload = _short("steady")
    first, _ = _split_digest(workload, 3)
    again, _ = _split_digest(workload, 3)
    other, _ = _split_digest(workload, 4)
    assert first == again != other


def test_sharded_twin_merges_to_the_serial_trace():
    workload = _short("sharded_fanout")
    serial, _ = _split_digest(workload, 2)
    twin = prepare(workload, 2).system
    result = twin.run(until=2 * workload.half, shards=2)
    assert result.windows > 0 and result.messages > 0
    assert rep._digest(twin.tracer) == serial


@pytest.mark.parametrize("name", ["steady", "admission_live"])
def test_scoreboard_conserves_requests(name):
    workload = _short(name)
    prepared = prepare(workload, 1)
    prepared.system.run(until=2 * workload.half)
    records = prepared.system.tracer.records
    assert rep.conservation_errors(prepared, records) == []
    outcomes = rep.sim_outcomes(records)
    assert 0 < outcomes["in_time"] <= outcomes["finished"] \
        <= outcomes["activations"] <= outcomes["offered"]


def test_measure_reports_a_consistent_repetition(tmp_path, monkeypatch):
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(rep, "WORKLOADS", {"overload": _short("overload")})
    result = rep.measure({"workload": "overload", "seed": 2,
                          "mode": "split"})
    assert result["checks"] == []
    assert len(result["walls"]) == 2 and result["sharded_s"] == 0.0
    assert result["run_s"] == sum(result["walls"])
    assert result["finished"] == result["outcomes"]["finished"] > 0
    assert list(tmp_path.iterdir()) == []
