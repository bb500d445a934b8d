"""One repetition of one workload, run in a fresh process.

    python3 perfbench/rep.py '{"workload": "steady", "seed": 4,
                               "mode": "split", "traced": false}'

The runner starts one process per repetition, so garbage-collector
state and peak RSS never carry over from one repetition to the next.
GC stays on, as in a user's run.

Modes:

* ``split`` -- build, ``run(until=H)``, ``run(until=2H)``: the timed
  repetition.  ``wall_growth`` is wall(2H) / wall(H) of this one run.
* ``whole`` -- build and ``run(until=2H)`` in one call.  Its trace must
  equal the split run's byte for byte (split-run equivalence).

On the sharded workload a split repetition then builds the system a
second time and runs it at ``shards=2`` to 2H.

Only the build and the ``run`` calls are timed, between two timings
of a fixed yardstick loop that measure how fast the host is running
right then.  Peak RSS is read right after the last ``run`` call; trace
digests, the scoreboard, span decomposition and the per-layer table are
computed after that.  The last line of stdout is one JSON object (see
:func:`measure`).
"""

import gc
import hashlib
import json
import os
import resource
import sys
import tempfile
import time

import layers
import repro  # noqa: F401  imported first, so setup_s times the build alone
from workloads import WORKLOADS, prepare

#: Builds per repetition; setup_s is the median over all of them.
SETUP_BUILDS = 5

#: The host-speed yardstick: a fixed pure-Python loop, timed right
#: before the first build and right after the last ``run`` call, and
#: its time on the 2-vCPU host the benchmark was written on, in that
#: host's fast periods.  The repetition's ``slowdown`` is the measured
#: time over the reference; see README.md ("Host speed").
CALIBRATION_LOOPS = 1_500_000
REFERENCE_CALIBRATION_S = 0.075


def _digest(tracer):
    """SHA-256 of the trace's JSONL export."""
    fd, path = tempfile.mkstemp(suffix=".jsonl")
    os.close(fd)
    try:
        tracer.to_jsonl(path)
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    finally:
        os.remove(path)


def calibration_s():
    """Seconds one run of the yardstick loop takes on this host now."""
    start = time.perf_counter_ns()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i & 7
    return (time.perf_counter_ns() - start) / 1e9


def _peak_rss_mib():
    """Peak RSS of this process and of its waited-for children (the
    shard workers), whichever is larger; ``ru_maxrss`` is KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def sim_outcomes(records):
    """Simulated-time results of one trace.

    Returns offered requests (admission submissions, or activations
    where no admission controller runs), admission submissions and
    admissions, finished activations, those finished by their deadline,
    the sorted response times of finished activations, and the number
    of ``alert`` records.
    """
    activations = submits = admits = alerts = 0
    done = {}
    missed = set()
    for record in records:
        category, event = record.category, record.event
        if category == "dispatcher":
            if event == "activate":
                activations += 1
            elif event == "instance_done":
                details = record.details
                done[details["activation_id"]] = details
                if details.get("missed"):
                    missed.add(details["activation_id"])
            elif event == "deadline_miss":
                missed.add(record.details["activation_id"])
        elif category == "admission":
            if event == "submit":
                submits += 1
            elif event == "admit":
                admits += 1
        elif category == "alert":
            alerts += 1
    in_time = sum(1 for aid in done if aid not in missed)
    return {"offered": submits or activations,
            "activations": activations,
            "submits": submits,
            "admits": admits,
            "finished": len(done),
            "in_time": in_time,
            "responses": sorted(d["response"] for d in done.values()),
            "alerts": alerts}


def conservation_errors(prepared, records):
    """Per tenant, offered == admitted + refused (+ still queued).

    Offered, admitted and refused come from the scoreboard, which
    reads the trace; requests still queued at the horizon come from the
    admission controllers themselves.
    """
    from repro.scenarios.scenario import ScenarioResult
    from repro.scenarios.scoreboard import Scoreboard, TenantSLO

    board = Scoreboard.from_records(
        records, [TenantSLO(name) for name in prepared.tenants])
    result = ScenarioResult(prepared.scenario, prepared.system, board)
    queued = {}
    for controller in result.controllers:
        for request in controller.pending:
            queued[request.task_name] = queued.get(request.task_name, 0) + 1
    errors = []
    for name in prepared.tenants:
        row = board.tenant_stats(name)
        decided = row["admitted"] + row["rejected"] + row["skipped"]
        if row["submitted"] != decided + queued.get(name, 0):
            errors.append(
                f"tenant {name}: offered {row['submitted']} != admitted "
                f"{row['admitted']} + refused "
                f"{row['rejected'] + row['skipped']} + queued "
                f"{queued.get(name, 0)}")
    return errors


def _wait_means(records):
    """Mean simulated-time wait components per finished activation,
    from the exact critical-path decomposition."""
    from repro.obs.spans import decompose, reconstruct

    forest = reconstruct(records)
    sums = {"executing": 0, "preempted": 0, "blocked": 0, "network": 0}
    count = 0
    for activation in forest.activations.values():
        parts = decompose(activation)
        if parts is None:
            continue  # unfinished: no response time to decompose
        count += 1
        for key in sums:
            sums[key] += getattr(parts, key)
    return {key: (value / count if count else 0.0)
            for key, value in sums.items()}


def _timed_run(system, clock, **kwargs):
    """One ``run`` call; returns (wall seconds, run's return value)."""
    if clock is not None:
        before = clock.wall_ns
        clock.start()
        result = system.run(**kwargs)
        clock.stop()
        return (clock.wall_ns - before) / 1e9, result
    start = time.perf_counter_ns()
    result = system.run(**kwargs)
    return (time.perf_counter_ns() - start) / 1e9, result


def measure(spec):
    """Run one repetition; returns its JSON-ready result."""
    workload = WORKLOADS[spec["workload"]]
    seed = spec["seed"]
    mode = spec["mode"]
    clock = None
    options = None
    if spec.get("traced"):
        clock = layers.LayerClock()
        layers.install(clock)
        options = {"metrics": True}
    horizon = 2 * workload.half

    before = calibration_s()
    start = time.perf_counter_ns()
    prepared = prepare(workload, seed, options)
    setup_s = [(time.perf_counter_ns() - start) / 1e9]
    system = prepared.system

    if mode == "whole":
        walls = [_timed_run(system, clock, until=horizon)[0]]
    else:
        walls = [_timed_run(system, clock, until=workload.half)[0],
                 _timed_run(system, clock, until=horizon)[0]]
    twin = shard_result = None
    sharded_s = 0.0
    if workload.sharded and mode == "split":
        twin = prepare(workload, seed, options).system
        sharded_s, shard_result = _timed_run(twin, clock, until=horizon,
                                             shards=2)
    peak_rss = _peak_rss_mib()
    after = calibration_s()

    # -- everything below is after the clock ---------------------------
    records = system.tracer.records
    outcomes = sim_outcomes(records)
    checks = []
    digest = _digest(system.tracer)
    finished = outcomes["finished"]
    if twin is not None:
        twin_outcomes = sim_outcomes(twin.tracer.records)
        finished += twin_outcomes["finished"]
        if _digest(twin.tracer) != digest:
            checks.append("shards=2 merged trace differs from the "
                          "serial twin")
    if prepared.tenants:
        checks.extend(conservation_errors(prepared, records))
    if clock is not None and sum(clock.self_ns.values()) != clock.wall_ns:
        checks.append("layer self times do not sum to the traced wall")
    result = {
        "workload": workload.name, "seed": seed, "mode": mode,
        "traced": clock is not None,
        "setup_s": setup_s, "walls": walls, "sharded_s": sharded_s,
        "run_s": sum(walls) + sharded_s,
        "slowdown": (before + after) / 2 / REFERENCE_CALIBRATION_S,
        "finished": finished, "peak_rss_mib": peak_rss,
        "digest": digest, "nodes": len(system.nodes),
        "records": len(records), "outcomes": outcomes, "checks": checks,
    }
    if clock is not None:
        result["layers"] = _layer_table(clock, system, shard_result,
                                        outcomes, finished)
        result["waits"] = _wait_means(records)
    # More builds of the same input, so setup_s is a median of several.
    # They come last, so their garbage never lands in a timed run, and
    # each starts on a collected heap, like the first build did, so none
    # pays for the garbage of the run or of the build before it.
    del prepared, system, twin, records
    for _ in range(SETUP_BUILDS - 1):
        gc.collect()
        start = time.perf_counter_ns()
        prepare(workload, seed, options)
        setup_s.append((time.perf_counter_ns() - start) / 1e9)
    return result


def _layer_table(clock, system, shard_result, outcomes, finished):
    """The raw per-layer figures of a traced repetition."""
    counters = dict(system.run_report().counters)
    if shard_result is not None:
        for name, value in shard_result.counter_totals().items():
            counters[name] = counters.get(name, 0) + value
    table = {"self_ns": dict(clock.self_ns), "calls": dict(clock.calls),
             "wall_ns": clock.wall_ns, "max_gc_ns": clock.max_gc_ns,
             "by_layer": clock.by_layer(), "counters": counters,
             "finished": finished, "alerts": outcomes["alerts"],
             "submits": outcomes["submits"], "admits": outcomes["admits"]}
    if shard_result is not None:
        stats = shard_result.shard_stats
        table["shard"] = {
            "windows": shard_result.windows,
            "messages": shard_result.messages,
            "replies": sum(s["windows"] for s in stats),
            "null_replies": sum(s["null_replies"] for s in stats),
            "stall_us": sum(s["stall_us"] for s in stats),
            "bytes_out": sum(s["bytes_out"] for s in stats),
        }
    return table


def main(argv):
    spec = json.loads(argv[1])
    print(json.dumps(measure(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
