"""Outside-in host-time attribution by layer, with an exact sum.

The benchmark wraps public entry points of each layer (see
:data:`METHODS`) before the system is built, so forked shard workers
inherit the wrappers too.  A wrapped call pushes its name on a stack
and pops it on return; the garbage collector's ``gc.callbacks`` push
and pop ``gc`` the same way.  At every push and pop the nanoseconds
since the previous one are charged to the name on top of the stack,
or to ``other`` when the stack is empty.  Every nanosecond between
:meth:`LayerClock.start` and :meth:`LayerClock.stop` is therefore
charged exactly once:

    sum(self_ns.values()) == wall_ns        (integers, no rounding)

and a name's charge is its *self* time: inclusive time minus the time
of wrapped calls (and collections) nested inside it.  ``other`` is
the event loop plus every unwrapped line of the program.
"""

import functools
import gc
import time

OTHER = "other"
GC = "gc"

#: (module, class, method, name).  The name's prefix is its layer.
METHODS = (
    ("repro.sim.trace", "Tracer", "record", "trace.record"),
    ("repro.core.dispatcher", "Dispatcher", "activate",
     "dispatcher.activate"),
    ("repro.core.dispatcher", "Dispatcher", "set_thread_params",
     "dispatcher.set_thread_params"),
    ("repro.kernel.cpu", "Cpu", "submit", "kernel.submit"),
    ("repro.kernel.cpu", "Cpu", "withdraw", "kernel.withdraw"),
    ("repro.kernel.cpu", "Cpu", "priorities_changed",
     "kernel.priorities_changed"),
    ("repro.network.network", "Network", "route", "network.route"),
    ("repro.network.network", "Network", "max_message_delay",
     "network.max_message_delay"),
    ("repro.network.link", "Link", "transmit", "network.transmit"),
    ("repro.admission.controller", "AdmissionController", "submit",
     "admission.submit"),
)

#: Names charged by wrappers installed other than through METHODS.
LISTENER = "live.listener"
HANDLE = "scheduling.handle"
ADMIT = "admission.admit"
MERGE = "shard.merge"

#: Layers in report order; ``other`` and ``gc`` close the partition.
LAYERS = ("trace", "live", "dispatcher", "kernel", "scheduling",
          "network", "admission", "shard", GC, OTHER)


def layer_of(name):
    """The layer a charged name belongs to (``kernel.submit`` ->
    ``kernel``)."""
    return name.split(".", 1)[0]


class LayerClock:
    """The stack and the per-name charges of one process."""

    def __init__(self):
        #: name -> nanoseconds of self time.
        self.self_ns = {OTHER: 0}
        #: name -> wrapped calls (collections, for ``gc``).
        self.calls = {}
        #: Nanoseconds between every start() and its stop().
        self.wall_ns = 0
        #: Longest single collection, in nanoseconds.
        self.max_gc_ns = 0
        self.active = False
        self._stack = []
        self._last = 0
        self._start = 0
        self._gc_began = 0

    def _charge(self):
        now = time.perf_counter_ns()
        top = self._stack[-1] if self._stack else OTHER
        self.self_ns[top] = self.self_ns.get(top, 0) + now - self._last
        self._last = now
        return now

    def enter(self, name):
        self._charge()
        self._stack.append(name)
        self.calls[name] = self.calls.get(name, 0) + 1

    def leave(self):
        self._charge()
        self._stack.pop()

    def start(self):
        if self.active or self._stack:
            raise RuntimeError("LayerClock.start() inside a measured call")
        self._last = self._start = time.perf_counter_ns()
        self.active = True

    def stop(self):
        now = self._charge()
        self.active = False
        self.wall_ns += now - self._start
        if self._stack:
            raise RuntimeError(f"unbalanced layer stack {self._stack}")

    def on_gc(self, phase, _info):
        """``gc.callbacks`` hook: a collection is a child of whatever
        call it interrupted."""
        if not self.active:
            return
        if phase == "start":
            self.enter(GC)
            self._gc_began = self._last
        else:
            self.leave()
            pause = self._last - self._gc_began
            if pause > self.max_gc_ns:
                self.max_gc_ns = pause

    def timed(self, function, name):
        """``function`` wrapped to charge its self time to ``name``."""
        clock = self

        @functools.wraps(function)
        def timed_call(*args, **kwargs):
            if not clock.active:
                return function(*args, **kwargs)
            clock.enter(name)
            try:
                return function(*args, **kwargs)
            finally:
                clock.leave()

        return timed_call

    def by_layer(self):
        """Self nanoseconds summed per layer (all of :data:`LAYERS`)."""
        totals = dict.fromkeys(LAYERS, 0)
        for name, ns in self.self_ns.items():
            totals[layer_of(name)] += ns
        return totals


class _TimedListener:
    """A wrapped ``Tracer.subscribe`` listener that still compares
    equal to the original, so ``Tracer.unsubscribe`` finds it."""

    __slots__ = ("listener", "call")

    def __init__(self, clock, listener):
        self.listener = listener
        self.call = clock.timed(listener, LISTENER)

    def __call__(self, entry):
        self.call(entry)

    def __eq__(self, other):
        if isinstance(other, _TimedListener):
            other = other.listener
        return self.listener == other


def install(clock):
    """Wrap every layer boundary of the ``repro`` package for ``clock``.

    Call before building the system.  Returns a function that puts the
    original methods back; the benchmark never calls it, because each
    repetition is a fresh process, but tests do.
    """
    import importlib

    from repro.admission import guarantee
    from repro.core.dispatcher import Dispatcher
    from repro.sim import sharded
    from repro.sim.trace import Tracer

    patches = []

    def patch(owner, attr, replacement):
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    for module, cls_name, method, name in METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        patch(cls, method, clock.timed(cls.__dict__[method], name))

    # Every guarantee test class that defines its own admit().
    pending = [guarantee.GuaranteeTest]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "admit" in cls.__dict__:
            patch(cls, "admit", clock.timed(cls.__dict__["admit"], ADMIT))

    subscribe = Tracer.subscribe

    def timed_subscribe(self, listener):
        subscribe(self, _TimedListener(clock, listener))

    patch(Tracer, "subscribe", timed_subscribe)

    attach = Dispatcher.attach_scheduler

    def timed_attach(self, scheduler):
        scheduler.handle = clock.timed(scheduler.handle, HANDLE)
        attach(self, scheduler)

    patch(Dispatcher, "attach_scheduler", timed_attach)

    # run_sharded looks the merge up as a module global at call time.
    patch(sharded, "merge_shard_traces",
          clock.timed(sharded.merge_shard_traces, MERGE))
    gc.callbacks.append(clock.on_gc)

    def restore():
        gc.callbacks.remove(clock.on_gc)
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return restore
