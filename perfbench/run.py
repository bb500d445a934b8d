"""Whole-workload benchmark of the HADES reproduction.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 25 \\
        --trace 0

Run from the root of a checkout (the directory holding ``src/``).
``--workload all`` runs every workload in turn.

With ``--trace 0`` the runner repeats untraced repetitions of the
workload for ``--seconds`` seconds and reports the end-to-end metrics.
With ``--trace 1`` it alternates untraced and traced repetitions and
reports the per-layer table of the traced repetition with the median
wall time, plus ``trace_overhead``.  Each repetition is a fresh process
(``rep.py``); the inputs of a run are derived from ``--seed`` alone.

Every repetition is checked; a failed check fails the repetition:

* the ``sim_*`` results and the trace's SHA-256 are identical for every
  repetition of one input, traced or not;
* stopping at H and resuming to 2H gives the trace of one run to 2H;
* the ``shards=2`` merged trace equals its serial twin's;
* the scoreboard conserves requests per tenant;
* the traced layer table sums exactly to the traced wall time.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md for what each
workload and metric is for.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import LAYERS  # noqa: E402
from workloads import WORKLOADS, input_seed  # noqa: E402

#: A run must end within this many seconds, whatever --seconds says.
HARD_LIMIT_S = 170.0
#: Tail percentiles tried from the highest down; the first with at
#: least TAIL_BEYOND samples beyond it is reported.
TAIL_PERCENTILES = (99, 95, 90)
TAIL_BEYOND = 10


class RepFailed(Exception):
    """A repetition process failed or timed out."""


def _rep(spec, env, deadline):
    """Run one repetition in a fresh process; returns its result."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "rep.py"), json.dumps(spec)],
            env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RepFailed(f"{spec} timed out after {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise RepFailed(f"{spec} exited {proc.returncode}: "
                        + " | ".join(tail))
    return json.loads(lines[-1])


def _sim_key(result):
    outcomes = result["outcomes"]
    return (result["digest"], outcomes["offered"], outcomes["finished"],
            outcomes["in_time"], tuple(outcomes["responses"]))


def _consistency_errors(results):
    """Repetitions of one input must agree on trace and sim results."""
    first = {}
    errors = []
    for result in results:
        key = _sim_key(result)
        seen = first.setdefault(result["seed"], (key, result))
        if seen[0] != key:
            errors.append(
                f"input {result['seed']}: {result['mode']}"
                f"{' traced' if result['traced'] else ''} repetition "
                f"differs from the first {seen[1]['mode']} one "
                f"(digest {result['digest'][:12]} vs "
                f"{seen[1]['digest'][:12]})")
    return errors


def nearest_rank(sorted_values, percentile):
    """Nearest-rank percentile and the number of samples beyond it."""
    n = len(sorted_values)
    rank = max(1, math.ceil(percentile / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def tail(sorted_values):
    """(percentile, value, samples beyond) of the highest percentile
    in TAIL_PERCENTILES with at least TAIL_BEYOND samples beyond it;
    the median when none has."""
    for percentile in TAIL_PERCENTILES:
        value, beyond = nearest_rank(sorted_values, percentile)
        if beyond >= TAIL_BEYOND:
            return percentile, value, beyond
    value, beyond = nearest_rank(sorted_values, 50)
    return 50, value, beyond


class Runner:
    """Schedules repetitions of one workload within a time budget."""

    def __init__(self, workload, seed, seconds, env):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.env = env
        self.started = time.monotonic()
        self.deadline = self.started + HARD_LIMIT_S
        self.results = []
        self.failures = []
        self.attempted = 0
        self.failed = 0

    def inputs(self):
        return [input_seed(self.workload, self.seed, i)
                for i in range(self.workload.inputs)]

    def time_left(self):
        return time.monotonic() - self.started < self.seconds

    def rep(self, input_seed_, mode="split", traced=False):
        """One repetition; None if its process failed."""
        spec = {"workload": self.workload.name, "seed": input_seed_,
                "mode": mode, "traced": traced}
        self.attempted += 1
        try:
            result = _rep(spec, self.env, self.deadline)
        except RepFailed as exc:
            self.failures.append(str(exc))
            self.failed += 1
            return None
        self.results.append(result)
        if result["checks"]:
            self.failed += 1
            self.failures.extend(f"input {input_seed_}: {check}"
                                 for check in result["checks"])
        return result

    def finish(self, metrics):
        """The closing JSON object."""
        mismatches = _consistency_errors(self.results)
        self.failures.extend(mismatches)
        return {"correct": not self.failures and bool(metrics),
                "attempted": max(1, self.attempted),
                "failed": self.failed + len(mismatches),
                "metrics": metrics}


def end_to_end_metrics(workload, results):
    """The end-to-end metrics of a run's repetitions.

    Returns ``{name: (value, unit)}`` and the tail's (percentile,
    samples beyond it, samples).  Host-time metrics are medians over the
    split repetitions (``setup_s`` over every build of every
    repetition), each repetition's times taken at the reference host
    speed (divided by its ``slowdown``); the ``sim_*`` metrics pool the
    run's distinct inputs, each counted once, so they depend on the
    seed alone.
    """
    split = [r for r in results if r["mode"] == "split"]
    by_input = {}
    for result in split:
        by_input.setdefault(result["seed"], result["outcomes"])
    responses = sorted(v for o in by_input.values() for v in o["responses"])
    offered = sum(o["offered"] for o in by_input.values())
    in_time = sum(o["in_time"] for o in by_input.values())
    percentile, tail_value, beyond = tail(responses)
    metrics = {
        "activations_per_s": (statistics.median(
            r["finished"] / r["run_s"] * r["slowdown"] for r in split),
            "1/s"),
        "wall_growth": (statistics.median(
            sum(r["walls"]) / r["walls"][0] for r in split), "ratio"),
        "setup_s": (statistics.median(
            t / r["slowdown"] for r in results for t in r["setup_s"]), "s"),
        "peak_rss_mib": (statistics.median(r["peak_rss_mib"]
                                           for r in split), "MiB"),
        "sim_p50_us": (nearest_rank(responses, 50)[0], "sim_us"),
        "sim_tail_us": (tail_value, "sim_us"),
        "sim_deadline_met_ratio": (in_time / offered, "ratio"),
        # A serial workload is its own serial twin: speedup 1.
        "shard_speedup": (statistics.median(
            sum(r["walls"]) / r["sharded_s"] for r in split)
            if workload.sharded else 1.0, "ratio"),
    }
    return metrics, (percentile, beyond, len(responses))


def end_to_end(runner):
    """Untraced repetitions -> the end-to-end metrics."""
    workload = runner.workload
    inputs = runner.inputs()
    if not workload.sharded:
        # Split-run equivalence: one uninterrupted run to 2H of the
        # first input; its trace must equal every split run's of it.
        runner.rep(inputs[0], mode="whole")
    index = 0
    while (index < len(inputs) or runner.time_left()) \
            and time.monotonic() < runner.deadline:
        if runner.rep(inputs[index % len(inputs)]) is None:
            break
        index += 1
    split = [r for r in runner.results if r["mode"] == "split"]
    if not split:
        return {}
    metrics, (percentile, beyond, samples) = end_to_end_metrics(
        workload, runner.results)
    print(f"workload {workload.name}: horizon {2 * workload.half} us "
          f"(split at {workload.half}), load {workload.load}x, "
          f"{split[0]['nodes']} nodes, {len(split)} timed repetitions")
    seen = set()
    for result in split:
        if result["seed"] in seen:
            continue
        seen.add(result["seed"])
        outcomes = result["outcomes"]
        print(f"  input {result['seed']}: {outcomes['offered']} offered, "
              f"{outcomes['activations']} activations, "
              f"{outcomes['finished']} finished, {result['records']} trace "
              f"records, sha256 {result['digest']}")
    print(f"  sim_tail_us is p{percentile}: {beyond} of {samples} "
          f"finished activations beyond it")
    slowdown = statistics.median(r["slowdown"] for r in split)
    raw_rate = statistics.median(r["finished"] / r["run_s"] for r in split)
    print(f"  host slowdown {slowdown:.3f} (median); raw activations_per_s "
          f"{raw_rate:.3f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:24s} {value:14.6f} {unit}")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def per_layer_metrics(table, waits, host):
    """The per-layer metrics of one traced repetition's table, as
    ``{name: (value, unit)}``; ``*_us_per_act`` are self times, as
    measured.  ``host`` holds the run's ``trace_overhead``, the traced
    repetition's ``slowdown`` and the untraced repetitions' raw rate."""
    fin = table["finished"]
    self_ns = table["self_ns"]
    calls = table["calls"]
    counters = table["counters"]
    shard = table.get("shard", {})

    def us_per_act(name):
        return self_ns.get(name, 0) / 1e3 / fin

    def per_act(name):
        return calls.get(name, 0) / fin

    def us_per_call(name):
        count = calls.get(name, 0)
        return self_ns.get(name, 0) / 1e3 / count if count else 0.0

    fired = counters.get("engine.events_fired", 0)
    skips = counters.get("engine.cancelled_skips", 0)
    submitted = table["submits"]
    replies = shard.get("replies", 0)
    metrics = {
        "engine.events_fired": (fired, "count"),
        "engine.tombstone_ratio": (skips / (fired + skips)
                                   if fired + skips else 0.0, "ratio"),
        "engine.other_us_per_act": (us_per_act("other"), "us/act"),
        "trace.records_per_act": (per_act("trace.record"), "count/act"),
        "trace.record_us_per_act": (us_per_act("trace.record"), "us/act"),
        "dispatcher.activate_us_per_act": (
            us_per_act("dispatcher.activate"), "us/act"),
        "dispatcher.set_thread_params_per_act": (
            per_act("dispatcher.set_thread_params"), "count/act"),
        "dispatcher.set_thread_params_us_per_act": (
            us_per_act("dispatcher.set_thread_params"), "us/act"),
        "kernel.priorities_changed_per_act": (
            per_act("kernel.priorities_changed"), "count/act"),
        "kernel.priorities_changed_us_per_act": (
            us_per_act("kernel.priorities_changed"), "us/act"),
        "kernel.submit_us_per_act": (us_per_act("kernel.submit"), "us/act"),
        "kernel.withdraw_us_per_act": (us_per_act("kernel.withdraw"),
                                       "us/act"),
        "scheduling.handle_per_act": (per_act("scheduling.handle"),
                                      "count/act"),
        "scheduling.handle_self_us_per_act": (
            us_per_act("scheduling.handle"), "us/act"),
        "network.route_per_act": (per_act("network.route"), "count/act"),
        "network.transmit_us_per_act": (us_per_act("network.transmit"),
                                        "us/act"),
        "network.max_message_delay_us_per_act": (
            us_per_act("network.max_message_delay"), "us/act"),
        "admission.submitted": (submitted, "count"),
        "admission.admit_ratio": (table["admits"] / submitted
                                  if submitted else 0.0, "ratio"),
        "admission.submit_us_per_act": (us_per_act("admission.submit"),
                                        "us/act"),
        "admission.test_us_per_call": (us_per_call("admission.admit"),
                                       "us/call"),
        "live.listener_us_per_record": (us_per_call("live.listener"),
                                        "us/record"),
        "live.alerts": (table["alerts"], "count"),
        "shard.windows": (shard.get("windows", 0), "count"),
        "shard.null_window_ratio": (shard.get("null_replies", 0) / replies
                                    if replies else 0.0, "ratio"),
        "shard.stall_s": (shard.get("stall_us", 0) / 1e6, "s"),
        "shard.messages": (shard.get("messages", 0), "count"),
        "shard.bytes_out": (shard.get("bytes_out", 0), "B"),
        "shard.merge_s": (self_ns.get("shard.merge", 0) / 1e9, "s"),
        "gc.collections": (calls.get("gc", 0), "count"),
        "gc.pause_us_per_act": (us_per_act("gc"), "us/act"),
        "gc.max_pause_ms": (table["max_gc_ns"] / 1e6, "ms"),
    }
    for key in ("executing", "preempted", "blocked", "network"):
        metrics[f"wait.{key}_us"] = (waits[key], "sim_us")
    for layer in LAYERS:
        metrics[f"self_s.{layer}"] = (table["by_layer"][layer] / 1e9, "s")
    metrics["wall_traced_s"] = (table["wall_ns"] / 1e9, "s")
    metrics["trace_overhead"] = (host["trace_overhead"], "ratio")
    metrics["host.slowdown"] = (host["slowdown"], "ratio")
    metrics["host.raw_activations_per_s"] = (
        host["raw_activations_per_s"], "1/s")
    return metrics


def per_layer(runner):
    """Alternating untraced / traced repetitions -> the layer table."""
    first = runner.inputs()[0]
    while time.monotonic() < runner.deadline:
        plain = runner.rep(first)
        traced = runner.rep(first, traced=True)
        if plain is None or traced is None or not runner.time_left():
            break
    plain = [r for r in runner.results if not r["traced"]]
    traced = sorted((r for r in runner.results if r["traced"]),
                    key=lambda r: r["run_s"] / r["slowdown"])
    if not plain or not traced:
        return {}
    chosen = traced[len(traced) // 2]

    def reference_s(results):
        return statistics.median(r["run_s"] / r["slowdown"]
                                 for r in results)

    overhead = reference_s(traced) / reference_s(plain) - 1.0
    host = {"trace_overhead": overhead, "slowdown": chosen["slowdown"],
            "raw_activations_per_s": statistics.median(
                r["finished"] / r["run_s"] for r in plain)}
    metrics = per_layer_metrics(chosen["layers"], chosen["waits"], host)
    table = chosen["layers"]
    wall = table["wall_ns"]
    print(f"workload {runner.workload.name}: traced repetition "
          f"{len(traced) // 2 + 1} of {len(traced)} (median time), input "
          f"{first}, {table['finished']} finished activations, "
          f"trace overhead {overhead:+.1%}")
    print(f"  {'layer':12s} {'self ns':>14s} {'share':>7s}")
    for layer in LAYERS:
        ns = table["by_layer"][layer]
        print(f"  {layer:12s} {ns:14d} {ns / wall:7.1%}")
    print(f"  {'sum':12s} {sum(table['by_layer'].values()):14d}  "
          f"traced wall {wall} ns")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:16.6f} {unit}")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def run_workload(name, seed, seconds, trace, env):
    runner = Runner(WORKLOADS[name], seed, seconds, env)
    metrics = per_layer(runner) if trace else end_to_end(runner)
    summary = runner.finish(metrics)
    for failure in runner.failures:
        print(f"  CHECK FAILED: {failure}")
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no src/repro under {root}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench_work", str(os.getpid()))
    os.makedirs(work)
    env = dict(os.environ, TMPDIR=work,
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            print(json.dumps(run_workload(name, args.seed, args.seconds,
                                          args.trace, env)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())
