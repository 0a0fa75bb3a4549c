"""Scenario assembly: spec -> running simulated system.

:func:`build` is the one entry point that threads a
:class:`~repro.scenario.spec.ScenarioSpec` through every layer --
platform (:func:`repro.cluster.platform.platform_from_spec`), parallel
file system (:meth:`repro.pfs.filesystem.ParallelFileSystem.from_spec`)
and per-rank I/O stack defaults -- and returns a ready
:class:`~repro.simulate.execsim.ExperimentHarness`.

:func:`run_scenario` additionally instantiates and runs the declared
workloads (sequentially, or concurrently for interference scenarios) and
returns a :class:`ScenarioRun` with per-workload results and aggregate
file-system counters.

The simulator is imported inside the functions that run it, so importing
this module (and with it :mod:`repro.scenario`) costs no more than the
specs do: the run service and ``repro-io scenario list`` never load the
DES engine.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.ops import IORecord
from repro.scenario.spec import STACK_ENGINES, ScenarioError, ScenarioSpec
from repro.telemetry import TELEMETRY, install_standard_probes

if TYPE_CHECKING:
    from repro.cluster.platform import Platform
    from repro.simulate.execsim import ExperimentHarness
    from repro.workloads.base import WorkloadResult

log = logging.getLogger(__name__)


def build_platform(spec: ScenarioSpec) -> Platform:
    """Assemble only the platform of a scenario (seed-overridden)."""
    from repro.cluster.platform import platform_from_spec

    spec.validate()
    return platform_from_spec(spec.platform, seed=spec.seed)


def build(spec: ScenarioSpec) -> ExperimentHarness:
    """Assemble the full system under test of a scenario.

    The returned harness carries the scenario's stack defaults: every
    ``harness.run(...)`` builds per-rank I/O stacks with the declared
    collective-buffering and client-cache settings unless the call
    overrides them explicitly.
    """
    from repro.pfs.filesystem import ParallelFileSystem
    from repro.simulate.execsim import ExperimentHarness

    platform = build_platform(spec)
    pfs = ParallelFileSystem.from_spec(platform, spec.storage)
    injector = None
    if spec.faults:
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(platform, pfs, spec.faults).arm()
    if log.isEnabledFor(logging.DEBUG):  # describe() formats eagerly
        log.debug("built scenario %r: %s", spec.name, spec.describe())
    harness = ExperimentHarness(
        platform=platform,
        pfs=pfs,
        stack_defaults=spec.stack.kwargs(),
        scenario=spec,
        fault_injector=injector,
    )
    if TELEMETRY.active:
        # Periodic DES-timeline samplers (link/OSS/OST/MDS state) -- the
        # simulated-stack analogue of server-side monitoring.  Installed
        # only under telemetry so disabled runs schedule zero extra events
        # and seed-0 outputs stay byte-identical.
        install_standard_probes(harness)
    return harness


def instantiate_workloads(spec: ScenarioSpec):
    """Build every declared workload: ``[(setup_list, main), ...]``."""
    from repro.scenario.workloads import build_workload

    return [build_workload(w) for w in spec.workloads]


@dataclass
class ScenarioRun:
    """Outcome of :func:`run_scenario`: results plus the live harness."""

    scenario: ScenarioSpec
    harness: ExperimentHarness
    #: Main-workload results, in declaration order.
    results: List[WorkloadResult] = field(default_factory=list)
    #: Setup-workload results (data generation etc.), in run order.
    setup_results: List[WorkloadResult] = field(default_factory=list)
    #: Full :class:`~repro.simulate.scalemodel.ScaleResult` objects for
    #: ``scale_write`` workloads (engine-specific diagnostics: windows,
    #: occupancy, digests).  Deliberately excluded from :meth:`to_dict`,
    #: which must stay engine-invariant.
    scale_results: List[Any] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Total simulated time consumed by the scenario."""
        return self.harness.platform.env.now

    def to_dict(self) -> Dict[str, Any]:
        """Canonical result payload (used by the sweep cache/manifest)."""
        from dataclasses import asdict

        pfs = self.harness.pfs
        out = {
            "scenario": self.scenario.name,
            "scenario_digest": self.scenario.digest(),
            "seed": self.scenario.seed,
            "duration": self.duration,
            "bytes_written": pfs.total_bytes_written(),
            "bytes_read": pfs.total_bytes_read(),
            "meta_ops": pfs.total_metadata_ops(),
            "results": [asdict(r) for r in self.results],
            "setup_results": [asdict(r) for r in self.setup_results],
        }
        injector = self.harness.fault_injector
        if injector is not None:
            # Keys appear only on fault scenarios so healthy payloads (and
            # anything cached from them) are byte-identical to before.
            out["faults"] = injector.summary()
            out["resilience"] = pfs.resilience_counters()
        return out

    def summary(self) -> str:
        lines = [f"scenario {self.scenario.name}: "
                 f"{len(self.results)} workload(s), "
                 f"{self.duration:.3f}s simulated"]
        lines.extend(f"  {r.summary()}" for r in self.results)
        injector = self.harness.fault_injector
        if injector is not None:
            f = injector.summary()
            r = self.harness.pfs.resilience_counters()
            lines.append(
                f"  faults: {f['injected']} injected / {f['reverted']} "
                f"reverted, {f['degraded_seconds_total']:.3f}s degraded | "
                f"client: {r['retries']} retries, {r['rpc_timeouts']} "
                f"timeouts, {r['failovers']} failovers, "
                f"{r['degraded_writes']} degraded writes"
            )
        return "\n".join(lines)


def _run_scale_workload(
    run: ScenarioRun,
    main,
    engine: str,
    workers: Optional[int],
) -> WorkloadResult:
    """Route one ``scale_write`` workload through the scale model.

    The returned :class:`WorkloadResult` is *engine-invariant* (the scale
    model's engines are bit-identical by contract); engine-specific
    diagnostics land on ``run.scale_results``.  The harness clock advances
    by the simulated duration so mixed scenarios keep a coherent timeline.
    """
    from repro.simulate.scalemodel import run_scale
    from repro.workloads.base import WorkloadResult

    spec = run.scenario
    config = main.scale_config(spec.platform, spec.seed)
    result = run_scale(config, engine=engine, workers=workers)
    run.scale_results.append(result)
    env = run.harness.platform.env
    env.run(until=env.now + result.duration)
    return WorkloadResult(
        name=main.name,
        n_ranks=config.ranks,
        duration=result.duration,
        bytes_written=result.bytes_written,
        extra={"islands": float(config.islands),
               "rounds": float(config.rounds)},
    )


def run_scenario(
    spec: ScenarioSpec,
    observers: Optional[List[Callable[[IORecord], None]]] = None,
    engine: Optional[str] = None,
    engine_workers: Optional[int] = None,
) -> ScenarioRun:
    """Build a scenario and run its declared workloads.

    Sequential scenarios run each workload's setup then its main, in
    declaration order, on the shared file system.  Concurrent scenarios
    run every setup first (sequentially -- data generation is not the
    measured contention), then all mains at the same simulated time.

    ``observers`` (e.g. a tracer or profiler) attach to every *main*
    workload's stacks; setup workloads run unobserved, matching how the
    experiments treat data generation.

    ``engine`` overrides the scenario's declared ``stack.engine`` (the
    ``repro-io scenario run --engine`` knob).  The partitioned engine only
    executes cohort-capable workloads (``scale_write``); declaring any
    other kind under it is an error rather than a silent fallback.
    ``engine_workers`` is the partitioned engine's partition count
    (default: one partition per island).
    """
    effective_engine = engine if engine is not None else spec.stack.engine
    if effective_engine not in STACK_ENGINES:
        raise ScenarioError(
            f"unknown engine {effective_engine!r}; "
            f"choose from {STACK_ENGINES}"
        )
    if effective_engine != "sequential":
        other = [w.kind for w in spec.workloads if w.kind != "scale_write"]
        if other:
            raise ScenarioError(
                f"engine {effective_engine!r} only runs cohort-capable "
                f"workloads (scale_write); scenario declares: "
                f"{', '.join(other)}"
            )
    if spec.concurrent and any(w.kind == "scale_write" for w in spec.workloads):
        raise ScenarioError(
            "scale_write models its own concurrency (islands); it cannot "
            "join a concurrent scenario"
        )
    harness = build(spec)
    built = instantiate_workloads(spec)
    run = ScenarioRun(scenario=spec, harness=harness)

    def run_main(main) -> WorkloadResult:
        from repro.scenario.workloads import ScaleWriteWorkload

        if isinstance(main, ScaleWriteWorkload):
            return _run_scale_workload(
                run, main, effective_engine, engine_workers
            )
        return harness.run(main, observers=observers)

    if spec.concurrent:
        for setup, _ in built:
            for w in setup:
                run.setup_results.append(harness.run(w))
        run.results.extend(
            harness.run_concurrently(
                [main for _, main in built], observers=observers
            )
        )
    else:
        for setup, main in built:
            for w in setup:
                run.setup_results.append(harness.run(w))
            run.results.append(run_main(main))
    # Events still queued (faults past the workloads' end) never fire.
    harness.platform.env.close()
    return run
