"""Execution-driven simulation driver.

``launch_workload`` is the one launch path: it places ranks on compute
nodes, builds each rank's I/O stack and starts the workload program,
leaving the clock to its caller.  ``run_workload`` -- the one-call entry
point used by examples, tests and benchmarks -- launches, runs the clock
to completion and returns a :class:`~repro.workloads.base.WorkloadResult`
with timings and volumes; a batch-scheduler job body launches and yields
on the ranks instead.

:class:`ExperimentHarness` bundles a platform + file system and runs
several workloads (sequentially or concurrently) against the same storage
state -- the building block for interference and mixed-workload
experiments.  Harnesses are usually assembled from a declarative
:class:`~repro.scenario.spec.ScenarioSpec` by
:func:`repro.scenario.build.build`, which threads the scenario's stack
configuration into every ``run`` call as defaults.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.cluster.platform import Platform
from repro.des.process import Process
from repro.mpi.runtime import MPIRuntime, round_robin_nodes
from repro.ops import IORecord
from repro.iostack.stack import IOStackBuilder
from repro.pfs.filesystem import ParallelFileSystem, build_pfs
from repro.workloads.base import Workload, WorkloadResult

log = logging.getLogger(__name__)


def launch_workload(
    platform: Platform,
    pfs: ParallelFileSystem,
    workload: Workload,
    nodes: Optional[List[str]] = None,
    observers: Optional[List[Callable[[IORecord], None]]] = None,
    **stack: Any,
) -> List[Process]:
    """Start ``workload``'s ranks without running the clock.

    Ranks are placed round-robin over ``nodes`` (default: every compute
    node) and each gets its Fig. 2 stack from one
    :class:`~repro.iostack.stack.IOStackBuilder`; ``observers`` and the
    ``stack`` keywords (``cb_nodes`` plus the
    :class:`~repro.pfs.client.PFSClient` knobs) go to that builder.  The
    caller owns the clock: :func:`run_workload` runs it to completion, a
    scheduler job body yields ``env.all_of(procs)``.
    """
    nodes = nodes or [n.name for n in platform.compute_nodes]
    runtime = MPIRuntime(
        platform.env, platform.compute_fabric,
        round_robin_nodes(nodes, workload.n_ranks),
    )
    builder = IOStackBuilder(pfs, runtime, observers=observers, **stack)
    return runtime.launch(workload.program, io_factory=builder.io_factory)


def _finish_times(env, procs: List[Process]) -> List[float]:
    """Each rank's completion time, indexed by rank, filled in as ranks
    finish (the per-rank imbalance is what stragglers/interference studies
    look at; the aggregate duration would hide it)."""
    times = [0.0] * len(procs)
    for i, proc in enumerate(procs):
        proc.add_callback(lambda ev, i=i: times.__setitem__(i, env.now))
    return times


def run_workload(
    platform: Platform,
    pfs: ParallelFileSystem,
    workload: Workload,
    observers: Optional[List[Callable[[IORecord], None]]] = None,
    compute_nodes: Optional[List[str]] = None,
    **stack: Any,
) -> WorkloadResult:
    """Run one workload to completion inside the simulator.

    ``platform``/``pfs`` are the simulated system (reuse them across calls
    to model a persistent center; build fresh ones for isolated
    measurements).  ``observers``, ``compute_nodes`` and ``stack`` are
    passed to :func:`launch_workload`; the stack knobs default to a
    cache-less, resilience-free client.
    """
    env = platform.env
    start = env.now
    start_w = pfs.total_bytes_written()
    start_r = pfs.total_bytes_read()
    start_m = pfs.total_metadata_ops()
    procs = launch_workload(
        platform, pfs, workload, compute_nodes, observers, **stack
    )
    finish_times = _finish_times(env, procs)
    env.run(until=env.all_of(procs))
    return WorkloadResult(
        name=workload.name,
        n_ranks=workload.n_ranks,
        duration=env.now - start,
        per_rank_seconds=[t - start for t in finish_times],
        bytes_written=pfs.total_bytes_written() - start_w,
        bytes_read=pfs.total_bytes_read() - start_r,
        meta_ops=pfs.total_metadata_ops() - start_m,
    )


@dataclass
class ExperimentHarness:
    """A platform + file system pair with convenience run methods.

    ``stack_defaults`` (usually installed by the scenario builder) are the
    I/O-stack keyword arguments -- ``cb_nodes``, ``read_cache_bytes``,
    ``write_cache_bytes`` -- applied to every ``run``/``run_concurrently``
    call unless that call overrides them explicitly.
    """

    platform: Platform
    pfs: ParallelFileSystem
    stack_defaults: Optional[Dict[str, Any]] = None
    #: The spec this harness was built from, when scenario-assembled.
    scenario: Optional[Any] = field(default=None, repr=False)
    #: Armed :class:`~repro.faults.injector.FaultInjector` when the
    #: scenario declares a fault timeline (``None`` on healthy systems).
    fault_injector: Optional[Any] = field(default=None, repr=False)

    @classmethod
    def fresh(cls, platform_factory: Callable[[], Platform], **pfs_kwargs) -> "ExperimentHarness":
        platform = platform_factory()
        return cls(platform=platform, pfs=build_pfs(platform, **pfs_kwargs))

    def _with_stack_defaults(self, kwargs: Dict[str, Any]) -> Dict[str, Any]:
        if not self.stack_defaults:
            return kwargs
        merged = dict(self.stack_defaults)
        merged.update(kwargs)
        return merged

    def run(self, workload: Workload, **kwargs) -> WorkloadResult:
        """Run one workload on this system."""
        return run_workload(
            self.platform, self.pfs, workload, **self._with_stack_defaults(kwargs)
        )

    def run_concurrently(
        self, workloads: Iterable[Workload], **kwargs
    ) -> List[WorkloadResult]:
        """Run several workloads at the same simulated time.

        Each workload gets its own ranks (placed round-robin over disjoint
        compute-node slices when possible) but shares the file system --
        the setup for interference studies (claim C10).
        """
        workloads = list(workloads)
        kwargs = self._with_stack_defaults(kwargs)
        env = self.platform.env
        all_nodes = [n.name for n in self.platform.compute_nodes]
        # Give each workload a disjoint slice of nodes if there are enough.
        slices: List[List[str]] = []
        oversubscribed = len(all_nodes) < len(workloads)
        if not oversubscribed:
            per = len(all_nodes) // len(workloads)
            for i in range(len(workloads)):
                chunk = all_nodes[i * per : (i + 1) * per] or all_nodes
                slices.append(chunk)
        else:
            # Every workload shares every node: rank placement overlaps,
            # so compute-side contention mixes into the storage-side
            # interference the caller presumably wants to isolate.
            log.warning(
                "run_concurrently: %d workload(s) on only %d compute "
                "node(s); node slices overlap fully and results include "
                "compute-placement contention",
                len(workloads), len(all_nodes),
            )
            slices = [all_nodes for _ in workloads]

        start = env.now
        procs: List[Process] = []
        finishes: List[List[float]] = []
        for workload, nodes in zip(workloads, slices):
            launched = launch_workload(
                self.platform, self.pfs, workload, nodes, **kwargs
            )
            finishes.append(_finish_times(env, launched))
            procs.extend(launched)
        env.run(until=env.all_of(procs))

        results = []
        for workload, times in zip(workloads, finishes):
            result = WorkloadResult(
                name=workload.name,
                n_ranks=workload.n_ranks,
                duration=max(times) - start,
                per_rank_seconds=[t - start for t in times],
            )
            if oversubscribed:
                result.extra["nodes_shared_with"] = float(len(workloads) - 1)
                result.extra["node_overlap"] = 1.0
            results.append(result)
        return results
