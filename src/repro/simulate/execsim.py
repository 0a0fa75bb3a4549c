"""Execution-driven simulation driver.

``run_workload`` is the one-call entry point used by examples, tests and
benchmarks: it places ranks on compute nodes, builds each rank's I/O stack,
runs the workload program inside the simulator, and returns a
:class:`~repro.workloads.base.WorkloadResult` with timings and volumes.

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
from repro.mpi.runtime import MPIRuntime, round_robin_nodes
from repro.ops import IORecord
from repro.iostack.stack import IOStackBuilder
from repro.pfs.filesystem import ParallelFileSystem, build_pfs
from repro.workloads.base import Workload, WorkloadResult

log = logging.getLogger(__name__)


def run_workload(
    platform: Platform,
    pfs: ParallelFileSystem,
    workload: Workload,
    observers: Optional[List[Callable[[IORecord], None]]] = None,
    read_cache_bytes: int = 0,
    write_cache_bytes: int = 0,
    cb_nodes: Optional[int] = None,
    compute_nodes: Optional[List[str]] = None,
    rpc_timeout: float = 0.0,
    rpc_retries: int = 0,
    retry_backoff: float = 0.005,
    retry_backoff_cap: float = 0.5,
) -> WorkloadResult:
    """Run one workload to completion inside the simulator.

    Parameters
    ----------
    platform / pfs:
        The simulated system (reuse across calls to model a persistent
        center; build fresh ones for isolated measurements).
    workload:
        Any :class:`~repro.workloads.base.Workload`.
    observers:
        Monitoring callbacks attached to every stack layer of every rank.
    read_cache_bytes / write_cache_bytes:
        Per-rank client cache sizes.
    cb_nodes:
        Collective-buffering aggregator count.
    compute_nodes:
        Node names to place ranks on (defaults to all compute nodes).
    rpc_timeout / rpc_retries / retry_backoff / retry_backoff_cap:
        Client resilience knobs (see :class:`~repro.pfs.client.PFSClient`);
        defaults leave resilience off.
    """
    nodes = compute_nodes or [n.name for n in platform.compute_nodes]
    rank_nodes = round_robin_nodes(nodes, workload.n_ranks)
    runtime = MPIRuntime(platform.env, platform.compute_fabric, rank_nodes)
    builder = IOStackBuilder(
        pfs,
        runtime,
        cb_nodes=cb_nodes,
        read_cache_bytes=read_cache_bytes,
        write_cache_bytes=write_cache_bytes,
        rpc_timeout=rpc_timeout,
        rpc_retries=rpc_retries,
        retry_backoff=retry_backoff,
        retry_backoff_cap=retry_backoff_cap,
        observers=observers,
    )
    env = platform.env
    start = env.now
    start_w = pfs.total_bytes_written()
    start_r = pfs.total_bytes_read()
    start_m = pfs.total_metadata_ops()

    procs = runtime.launch(workload.program, io_factory=builder.io_factory)
    # Record each rank's actual completion time (the per-rank imbalance is
    # what stragglers/interference studies look at; filling every slot with
    # the aggregate duration would hide it).
    finish_times: List[float] = [0.0] * len(procs)
    for i, proc in enumerate(procs):
        proc.add_callback(lambda ev, i=i: finish_times.__setitem__(i, env.now))
    done = env.all_of(procs)
    env.run(until=done)

    result = WorkloadResult(
        name=workload.name,
        n_ranks=workload.n_ranks,
        duration=env.now - start,
        per_rank_seconds=[t - start for t in finish_times],
        bytes_written=pfs.total_bytes_written() - start_w,
        bytes_read=pfs.total_bytes_read() - start_r,
        meta_ops=pfs.total_metadata_ops() - start_m,
    )
    return result


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

        starts = env.now
        runs = []
        rank_finish: List[List[float]] = []
        for wi, (workload, nodes) in enumerate(zip(workloads, slices)):
            rank_nodes = round_robin_nodes(nodes, workload.n_ranks)
            runtime = MPIRuntime(env, self.platform.compute_fabric, rank_nodes)
            builder = IOStackBuilder(self.pfs, runtime, **kwargs)
            procs = runtime.launch(workload.program, io_factory=builder.io_factory)
            finishes: List[float] = []
            rank_finish.append(finishes)
            for proc in procs:
                proc.add_callback(lambda ev, f=finishes: f.append(env.now))
            runs.append((workload, procs))

        done = env.all_of([p for _, procs in runs for p in procs])
        env.run(until=done)

        results = []
        for (workload, procs), finishes in zip(runs, rank_finish):
            end = max(finishes) if finishes else env.now
            result = WorkloadResult(
                name=workload.name,
                n_ranks=workload.n_ranks,
                duration=end - starts,
                per_rank_seconds=[t - starts for t in finishes],
            )
            if oversubscribed:
                result.extra["nodes_shared_with"] = float(len(workloads) - 1)
                result.extra["node_overlap"] = 1.0
            results.append(result)
        return results
