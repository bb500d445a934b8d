"""The per-layer table: nesting, GC and the exact sum."""

import dataclasses
import gc
import time

import pytest

import layers
from workloads import WORKLOADS, prepare


def _busy(ns):
    end = time.perf_counter_ns() + ns
    while time.perf_counter_ns() < end:
        pass


class _Fake:
    """outer -> middle -> inner, each busy for a known time."""

    def __init__(self, clock):
        self.outer = clock.timed(self._outer, "scheduling.handle")
        self.middle = clock.timed(self._middle,
                                  "dispatcher.set_thread_params")
        self.inner = clock.timed(self._inner, "kernel.priorities_changed")

    def _outer(self):
        _busy(2_000_000)
        self.middle()
        _busy(2_000_000)

    def _middle(self):
        _busy(3_000_000)
        self.inner()

    def _inner(self):
        _busy(5_000_000)


def test_nested_calls_are_charged_once():
    clock = layers.LayerClock()
    fake = _Fake(clock)
    clock.start()
    _busy(1_000_000)
    fake.outer()
    clock.stop()
    assert sum(clock.self_ns.values()) == clock.wall_ns
    ms = {name: ns / 1e6 for name, ns in clock.self_ns.items()}
    # Self times, not inclusive times: 4, 3 and 5 ms, within the
    # timer's and the wrappers' own cost.
    assert ms["scheduling.handle"] == pytest.approx(4.0, abs=0.5)
    assert ms["dispatcher.set_thread_params"] == pytest.approx(3.0, abs=0.5)
    assert ms["kernel.priorities_changed"] == pytest.approx(5.0, abs=0.5)
    assert ms["other"] == pytest.approx(1.0, abs=0.5)
    assert clock.calls == {"scheduling.handle": 1,
                           "dispatcher.set_thread_params": 1,
                           "kernel.priorities_changed": 1}
    by_layer = clock.by_layer()
    assert sum(by_layer.values()) == clock.wall_ns
    assert by_layer["kernel"] == clock.self_ns["kernel.priorities_changed"]


def test_calls_outside_start_stop_are_not_charged():
    clock = layers.LayerClock()
    fake = _Fake(clock)
    fake.outer()
    assert clock.calls == {} and clock.wall_ns == 0
    clock.start()
    clock.stop()
    assert sum(clock.self_ns.values()) == clock.wall_ns


def test_a_collection_inside_a_call_is_charged_to_gc():
    clock = layers.LayerClock()
    gc.callbacks.append(clock.on_gc)
    try:
        garbage = [[i] for i in range(200_000)]

        def work():
            _busy(1_000_000)
            gc.collect()

        timed = clock.timed(work, "trace.record")
        clock.start()
        timed()
        clock.stop()
    finally:
        gc.callbacks.remove(clock.on_gc)
    del garbage
    assert sum(clock.self_ns.values()) == clock.wall_ns
    assert clock.calls["gc"] >= 1
    assert clock.self_ns["gc"] > 0
    assert clock.max_gc_ns <= clock.self_ns["gc"]
    assert clock.self_ns["trace.record"] / 1e6 == pytest.approx(1.0,
                                                                abs=0.5)


def test_listener_wrapper_still_unsubscribes():
    from repro.sim.trace import Tracer

    clock = layers.LayerClock()
    record = Tracer.__dict__["record"]
    restore = layers.install(clock)
    try:
        tracer = Tracer(lambda: 0)
        seen = []
        tracer.subscribe(seen.append)
        clock.start()
        tracer.record("x", "y")
        clock.stop()
        tracer.unsubscribe(seen.append)
        tracer.record("x", "z")
    finally:
        restore()
    assert [r.event for r in seen] == ["y"]
    assert clock.calls == {"trace.record": 1, "live.listener": 1}
    assert Tracer.__dict__["record"] is record


def test_real_overload_run_nests_and_sums_exactly():
    """EDF's handle -> set_thread_params -> priorities_changed nests on
    the backlogged workload, and the table still sums exactly."""
    from repro.kernel.cpu import Cpu

    stacks = []
    original = Cpu.priorities_changed

    clock = layers.LayerClock()

    def spy(self):
        stacks.append(tuple(clock._stack))
        return original(self)

    Cpu.priorities_changed = spy
    restore = layers.install(clock)
    try:
        workload = dataclasses.replace(WORKLOADS["overload"], half=8_000)
        system = prepare(workload, seed=3).system
        for until in (workload.half, 2 * workload.half):
            clock.start()
            system.run(until=until)
            clock.stop()
    finally:
        restore()
        Cpu.priorities_changed = original
    assert sum(clock.self_ns.values()) == clock.wall_ns
    assert all(ns >= 0 for ns in clock.self_ns.values())
    nested = ("scheduling.handle", "dispatcher.set_thread_params",
              "kernel.priorities_changed")
    assert any(stack[-3:] == nested for stack in stacks)
    assert clock.calls["kernel.priorities_changed"] == len(stacks)
