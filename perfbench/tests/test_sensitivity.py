"""The benchmark sees a slowdown where it is put, and only there.

A fixed busy-wait is added to one layer's entry point:

* ``Cpu.priorities_changed`` -- loaded by ``overload`` (EDF re-ranks a
  growing backlog), bypassed by ``steady`` (short backlogs);
* ``Network.max_message_delay`` -- loaded by ``steady`` (one call per
  remote precedence edge), bypassed by ``sharded_fanout`` (its tasks
  have no remote edges).

The traced run must charge the added time to the matching per-layer
metric inside the exact sum, and the relative ``activations_per_s``
drop on the loading workload must be several times the drop on the
bypassing one.  Runs are short; base and slowed runs alternate and
each side keeps its best of five, so a change in host speed between
runs does not decide the outcome.
"""

import dataclasses
import gc
import time

import pytest

import layers
from workloads import WORKLOADS, prepare

#: Short versions of the workloads (split point in simulated µs).
SHORT = {"steady": 100_000, "overload": 15_000, "sharded_fanout": 15_000}

CASES = [
    # (class path, method, layer name, delay ns, loading, bypassing)
    ("repro.kernel.cpu", "Cpu", "priorities_changed",
     "kernel.priorities_changed", 200_000, "overload", "steady"),
    ("repro.network.network", "Network", "max_message_delay",
     "network.max_message_delay", 500_000, "steady", "sharded_fanout"),
]


def _busy(ns):
    end = time.perf_counter_ns() + ns
    while time.perf_counter_ns() < end:
        pass


def _slowed(module, cls_name, method, delay_ns):
    """(class, original, slowed) for one layer entry point."""
    import importlib

    cls = getattr(importlib.import_module(module), cls_name)
    original = cls.__dict__[method]

    def slowed(*args, **kwargs):
        _busy(delay_ns)
        return original(*args, **kwargs)

    return cls, original, slowed


def _split_run(name, clock=None):
    """(finished activations, wall seconds) of one short split run."""
    # The previous run's garbage is collected first, so no run pays for
    # another's.
    gc.collect()
    workload = dataclasses.replace(WORKLOADS[name], half=SHORT[name])
    system = prepare(workload, seed=1).system
    start = time.perf_counter_ns()
    for until in (workload.half, 2 * workload.half):
        if clock is not None:
            clock.start()
        system.run(until=until)
        if clock is not None:
            clock.stop()
    wall = (time.perf_counter_ns() - start) / 1e9
    return system.tracer.count("dispatcher", "instance_done"), wall


def _rate(name):
    finished, wall = _split_run(name)
    return finished / wall


def _traced(name):
    clock = layers.LayerClock()
    restore = layers.install(clock)
    try:
        _split_run(name, clock)
    finally:
        restore()
    return clock


@pytest.mark.parametrize("case", CASES, ids=[c[3] for c in CASES])
def test_layer_metric_absorbs_the_added_time(case):
    module, cls_name, method, name, delay_ns, loading, _ = case
    cls, original, slowed_method = _slowed(module, cls_name, method,
                                           delay_ns)
    base, slowed = [], []
    try:
        for _ in range(3):
            setattr(cls, method, original)
            base.append(_traced(loading))
            setattr(cls, method, slowed_method)
            slowed.append(_traced(loading))
    finally:
        setattr(cls, method, original)
    for clock in base + slowed:
        assert sum(clock.self_ns.values()) == clock.wall_ns
    calls = slowed[0].calls[name]
    added = calls * delay_ns
    assert calls == base[0].calls[name] > 100
    # All of the busy-wait is charged to the layer it was put in ...
    assert all(clock.self_ns[name] >= added for clock in slowed)
    # ... and none of it to the rest of the table (best runs compared,
    # so that a change in host speed does not decide).
    rest = min(clock.wall_ns - clock.self_ns[name] for clock in slowed)
    assert rest < min(clock.wall_ns for clock in base) + added // 2


@pytest.mark.parametrize("case", CASES, ids=[c[3] for c in CASES])
def test_drop_is_several_times_larger_where_the_layer_is_loaded(case):
    module, cls_name, method, _, delay_ns, loading, bypassing = case
    cls, original, slowed = _slowed(module, cls_name, method, delay_ns)
    rates = {(name, side): [] for name in (loading, bypassing)
             for side in ("base", "slowed")}
    # Base and slowed runs alternate, so a change in host speed hits
    # both sides alike; each side keeps its best run.
    try:
        for _ in range(5):
            for name in (loading, bypassing):
                setattr(cls, method, original)
                rates[name, "base"].append(_rate(name))
                setattr(cls, method, slowed)
                rates[name, "slowed"].append(_rate(name))
    finally:
        setattr(cls, method, original)
    drop = {name: 1.0 - max(rates[name, "slowed"]) / max(rates[name, "base"])
            for name in (loading, bypassing)}
    assert drop[loading] > 0.2, drop
    assert drop[loading] >= 3 * max(drop[bypassing], 0.02), drop
