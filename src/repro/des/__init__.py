"""Discrete-event simulation kernel.

This package provides the simulation substrate used by every other part of
:mod:`repro` (the paper's taxonomy, Sec. IV-C, treats simulation as the
workhorse for large-scale I/O evaluation when no testbed is available):

* :mod:`repro.des.engine` -- a process-based (coroutine-style) sequential
  discrete-event simulation environment, in the spirit of SimPy.  Simulated
  processes are Python generators that ``yield`` events; the environment owns
  the virtual clock and the event queue.
* :mod:`repro.des.resources` -- queueing primitives (resources, containers,
  stores) used to model servers, devices and buffers.
* :mod:`repro.des.sharing` -- a processor-sharing bandwidth resource used to
  model shared network links and storage devices with fair bandwidth
  allocation among concurrent transfers.
* :mod:`repro.des.ross` -- a ROSS-style logical-process kernel (events are
  dispatched to LP handlers) with a sequential reference executor;
  :mod:`repro.des.partition` runs the same kernel under conservative,
  YAWNS-style windows on one or many partitions.  The CODES storage
  simulation framework surveyed by the paper is built on ROSS; these modules
  are our equivalent substrate, validated for determinism against the
  sequential executor (ablation A1).
* :mod:`repro.des.rng` -- reproducible named random streams.

All times are floats in seconds of virtual time.  Determinism: ties in the
event queue are broken by (time, priority, insertion sequence), so two runs
of the same program produce identical event orderings.
"""

from repro.des.cohort import MIN_VECTOR_BATCH, canonical_event_sort
from repro.des.engine import Environment, SimulationError
from repro.des.events import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Timeout,
    URGENT,
    NORMAL,
    LOW,
)
from repro.des.process import Process
from repro.des.resources import Container, PriorityResource, Resource, Store
from repro.des.sharing import FairShareLink
from repro.des.rng import RandomStreams
from repro.des.ross import (
    LogicalProcess,
    RossEvent,
    RossKernel,
    SequentialExecutor,
)
from repro.des.optimistic import OptimisticExecutor, OptimisticStats
from repro.des.partition import (
    PartitionPlan,
    PartitionStats,
    PartitionedExecutor,
    fabric_islands,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Container",
    "Environment",
    "Event",
    "FairShareLink",
    "Interrupt",
    "LOW",
    "LogicalProcess",
    "MIN_VECTOR_BATCH",
    "NORMAL",
    "OptimisticExecutor",
    "OptimisticStats",
    "PartitionPlan",
    "PartitionStats",
    "PartitionedExecutor",
    "PriorityResource",
    "Process",
    "RandomStreams",
    "Resource",
    "RossEvent",
    "RossKernel",
    "SequentialExecutor",
    "SimulationError",
    "Store",
    "Timeout",
    "URGENT",
    "canonical_event_sort",
    "fabric_islands",
]
