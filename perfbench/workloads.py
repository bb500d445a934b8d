"""The benchmark's four workloads, built through the public API only.

Every workload is a pure function of an integer seed: the same seed
gives the same arrival lists, service-time draws and task phases, so
the same trace.  :func:`prepare` returns a :class:`Prepared` holding
the un-run :class:`~repro.system.HadesSystem`.  Building is what
``setup_s`` times: ``Scenario.build()`` generates the tenants' arrival
lists from the seed; the fan-out workload deals its phases before
``HadesSystem.scripted``.

The load is open-loop in simulated time: arrivals are fixed before the
first ``run`` call and never wait for the system.

============== ===================================================
name           shape
============== ===================================================
steady         E22 four-cell edge->svc->store, EDF, 1x tenant rates
overload       the same deployment, 10x tenant rates
admission_live E23 shape: admission ``reject`` + two burn-rate
               monitors with a conservative reaction, 3x
sharded_fanout E21 256-node fan-out, 10 activations per node; a
               serial twin and a ``shards=2`` run
============== ===================================================
"""

import random
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

#: E22 tenant classes: (name, rate req/s, (m, k), value, deadline µs).
E22_TENANTS = (
    ("gold", 60, (9, 10), 5, 40_000),
    ("silver", 100, (4, 5), 3, 50_000),
    ("bronze", 200, (1, 4), 1, 60_000),
    ("free", 150, None, 1, 80_000),
)

#: E23 tenant names (declared in :func:`_e23`).
E23_TENANTS = ("gold", "bronze", "silver", "iron")

FANOUT_NODES = 256
FANOUT_ACTIVATIONS = 10
FANOUT_PERIOD = 10_000


@dataclass(frozen=True)
class Workload:
    """One workload's fixed size; its inputs come from the seed."""

    name: str
    #: Simulated µs of the first timed ``run`` call; the second call
    #: resumes to ``2 * half``.
    half: int
    load: float
    #: Distinct seed-derived inputs one benchmark run cycles through.
    inputs: int
    #: Whether the workload also runs its serial twin at ``shards=2``.
    sharded: bool = False


WORKLOADS: Dict[str, Workload] = {
    "steady": Workload("steady", half=500_000, load=1.0, inputs=8),
    "overload": Workload("overload", half=35_000, load=10.0, inputs=6),
    "admission_live": Workload("admission_live", half=200_000, load=3.0,
                               inputs=6),
    "sharded_fanout": Workload(
        "sharded_fanout",
        half=(FANOUT_PERIOD * FANOUT_ACTIVATIONS + 5_000) // 2,
        load=1.0, inputs=2, sharded=True),
}


@dataclass
class Prepared:
    """One built, un-run system and the Scenario that built it."""

    system: Any
    #: The :class:`~repro.scenarios.Scenario` (None for the fan-out).
    scenario: Any = None
    #: Tenant names of a Scenario workload (empty for the fan-out).
    tenants: Tuple[str, ...] = ()


def input_seed(workload: Workload, seed: int, index: int) -> int:
    """Seed of the ``index``-th input of a run started with ``seed``."""
    return seed * workload.inputs + index


def _e22(load: float, seed: int):
    from repro import LogNormalService, Scenario

    builder = (Scenario()
               .tier("edge", replicas=2, wcet=300)
               .tier("svc", fan_out=3, wcet=800,
                     service=LogNormalService(median=250, sigma=0.7))
               .tier("store", fan_out=2, wcet=600)
               .cells(4)
               .load(load)
               .seed(seed)
               .policy("edf", w_sched=0))
    for name, rate, mk, value, deadline in E22_TENANTS:
        builder.tenant(name, rate=rate, mk=mk, value=value,
                       deadline=deadline)
    return builder


def _e23(load: float, seed: int):
    from repro import Scenario, UtilizationTest

    return (Scenario()
            .tier("edge", replicas=1, wcet=300)
            .tier("svc", fan_out=2, wcet=400)
            .cells(4)
            .tenant("gold", rate=600, mk=(9, 10), value=5, deadline=3_000)
            .tenant("bronze", rate=900, deadline=3_000)
            .tenant("silver", rate=700, deadline=3_000)
            .tenant("iron", rate=800, deadline=3_000)
            .admission("reject", test=UtilizationTest(8.0))
            .policy("edf", w_sched=0)
            .load(load)
            .stagger(50)
            .options(network_latency=50, network_jitter=0,
                     node_kwargs={"net_irq_wcet": 0})
            .seed(seed)
            .monitor("gold", interval=20_000, objective_ppm=990_000,
                     react="conservative", on_clear="restore")
            .monitor("silver", interval=20_000, objective_ppm=990_000))


def _fanout_builder(seed: int):
    """E21's shard-agnostic fan-out builder with seed-drawn phases."""
    from repro.core.attributes import Periodic
    from repro.core.heug import Task
    from repro.scheduling.edf import EDFScheduler

    node_ids = [f"n{i:03d}" for i in range(FANOUT_NODES)]
    # E21's phases (distinct, no two cross-shard events at one instant,
    # so the merged trace stays byte-identical), dealt out in a
    # seed-drawn order.
    phases = [100 + (i * 37) % FANOUT_PERIOD // 2
              for i in range(FANOUT_NODES)]
    random.Random(seed).shuffle(phases)
    block = FANOUT_NODES // 8

    def build(system):
        for i, nid in enumerate(node_ids):
            system.attach_scheduler(EDFScheduler(scope=nid, w_sched=0))
            task = Task(f"t{nid}", deadline=FANOUT_PERIOD // 2,
                        arrival=Periodic(period=FANOUT_PERIOD,
                                         phase=phases[i]),
                        node_id=nid)
            first = task.code_eu("a", wcet=60)
            second = task.code_eu("b", wcet=40)
            task.precede(first, second)
            system.register_periodic(task, count=FANOUT_ACTIVATIONS)
        # Node i messages its peer one block ahead every period, so
        # cross-shard traffic is on every barrier's path.
        for i, nid in enumerate(node_ids):
            dst = node_ids[(i + block) % FANOUT_NODES]
            iface = system.network.interfaces[nid]
            for k in range(FANOUT_ACTIVATIONS):
                system.sim.call_at(
                    phases[i] + 200 + k * FANOUT_PERIOD,
                    lambda iface=iface, dst=dst, k=k:
                    iface.send(dst, k, size=32))

    return node_ids, build


def prepare(workload: Workload, seed: int,
            options: Optional[Dict[str, Any]] = None) -> Prepared:
    """Build ``workload`` for ``seed`` (the call ``setup_s`` times).

    ``options`` are extra ``HadesSystem`` keyword arguments, such as
    ``metrics=True`` for the traced run.
    """
    options = dict(options or {})
    if workload.name == "sharded_fanout":
        from repro.core.costs import DispatcherCosts
        from repro.system import HadesSystem

        node_ids, build = _fanout_builder(seed)
        system = HadesSystem.scripted(build, node_ids=node_ids,
                                      costs=DispatcherCosts.zero(),
                                      lazy_links=True, seed=seed,
                                      **options)
        return Prepared(system)
    if workload.name == "admission_live":
        builder = _e23(workload.load, seed)
        tenants = E23_TENANTS
    else:
        builder = _e22(workload.load, seed)
        tenants = tuple(row[0] for row in E22_TENANTS)
    if options:
        builder.options(**options)
    # Scenario.run() would set the traffic horizon and run in one call;
    # the benchmark times build and run separately, so it sets the
    # horizon the way run() does.
    builder._horizon = 2 * workload.half
    return Prepared(builder.build(), builder, tenants)
