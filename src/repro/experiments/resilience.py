"""Resilience experiments (R1-R3): goodput under failure.

Production parallel file systems spend much of their life partially
degraded -- a rebuilding OST, a flapping link, an overloaded MDS -- yet
most I/O evaluation reports healthy-system numbers only.  These
experiments run the fault timelines of the ``r1``/``r2``/``r3`` scenario
presets and measure how the simulated stack's resilience machinery
(per-RPC timeout, bounded retry, stripe failover; see
:class:`repro.pfs.client.PFSClient`) converts hard failures into graceful
goodput loss:

* **R1** -- checkpoint/restart with an OST failing mid-dump: replicated
  layouts fail over and finish during the outage, unreplicated clients
  block until recovery.
* **R2** -- IOR bandwidth as a growing fraction of OSTs is degraded:
  aggregate goodput falls roughly with the degraded fraction instead of
  collapsing.
* **R3** -- a metadata-heavy workflow under an MDS brown-out: runtime
  inflates while the operation mix is unchanged.
"""

from __future__ import annotations

from repro.core.experiment import ExperimentRecord
from repro.faults.spec import FaultEventSpec, FaultSpec
from repro.scenario.build import run_scenario
from repro.scenario.presets import get_scenario
from repro.scenario.spec import StorageSpec


def run_r1(seed: int = 0) -> ExperimentRecord:
    """R1: stripe failover rides out a mid-dump OST outage.

    Three runs of the same checkpoint workload: healthy (no faults),
    replicated + resilient under the outage (must finish *during* the
    outage via failover), and unreplicated + resilient (must block until
    recovery).  Failover should cost less wall time than blocking.
    """
    rec = ExperimentRecord(
        "R1",
        "replicated layouts fail over through an OST outage; "
        "unreplicated clients must wait it out",
    )
    faulted = get_scenario("r1-ckpt-outage", seed)
    healthy = faulted.replace(name="r1-healthy", faults=FaultSpec())
    blocking = faulted.replace(
        name="r1-blocking",
        storage=StorageSpec(default_stripe_count=2),  # replicas=1
    )

    run_h = run_scenario(healthy)
    run_f = run_scenario(faulted)
    run_b = run_scenario(blocking)

    res_f = run_f.harness.pfs.resilience_counters()
    res_b = run_b.harness.pfs.resilience_counters()
    fault_summary = run_f.harness.fault_injector.summary()

    rec.measure(
        healthy_seconds=run_h.duration,
        failover_seconds=run_f.duration,
        blocking_seconds=run_b.duration,
        failovers=res_f["failovers"],
        degraded_writes=res_f["degraded_writes"],
        blocking_retries=res_b["retries"],
        degraded_seconds=fault_summary["degraded_seconds_total"],
        faults_reverted=fault_summary["reverted"] == fault_summary["injected"],
    )
    supported = (
        res_f["failovers"] > 0
        and res_b["retries"] > 0
        and run_h.duration <= run_f.duration < run_b.duration
    )
    rec.verdict(
        supported,
        "failover completes the dump during the outage; without replicas "
        "the clients back off until the OST recovers",
    )
    return rec


def _goodput(run) -> float:
    """Aggregate goodput of a file-per-process run: sum of per-rank rates.

    Per-rank write rates from the client counters (bytes over time spent
    inside write calls), not volume over job duration: the job ends with
    a barrier, so one slow rank would mask the healthy ranks' throughput
    -- and "goodput under failure" is exactly what the barrier hides.
    """
    return sum(
        st.bytes_written / st.write_time
        for st in run.harness.pfs.client_stats
        if st.write_time > 0
    )


def run_r2(seed: int = 0) -> ExperimentRecord:
    """R2: goodput degrades gracefully with the fraction of slow OSTs.

    The ``r2-ior-degraded`` IOR job (file per process) runs with 0..4 of
    the tiny platform's 4 OSTs slowed 8x; aggregate goodput must fall
    monotonically (small tolerance for queueing noise) rather than
    collapsing at the first degraded OST.
    """
    rec = ExperimentRecord(
        "R2",
        "aggregate goodput falls gradually with the fraction of "
        "degraded OSTs",
    )
    base = get_scenario("r2-ior-degraded", seed)
    curve = []
    for k in range(5):
        events = tuple(
            FaultEventSpec(kind="ost_slowdown", target=t,
                           start=0.0, duration=60.0, factor=8.0)
            for t in range(k)
        )
        spec = base.replace(name=f"r2-degraded-{k}", faults=FaultSpec(events))
        run = run_scenario(spec)
        curve.append(_goodput(run))

    drops = [curve[i + 1] / curve[i] for i in range(len(curve) - 1)]
    monotone = all(r <= 1.0 + 1e-6 for r in drops)
    gradual = all(r > 0.2 for r in drops)  # no single step collapses goodput
    rec.measure(
        goodput_mb_s=[round(g / 1e6, 3) for g in curve],
        total_drop=curve[-1] / curve[0],
        monotone_decline=monotone,
        gradual=gradual,
    )
    rec.verdict(
        monotone and gradual and curve[-1] < 0.8 * curve[0],
        "each additional degraded OST removes a bounded slice of goodput",
    )
    return rec


def run_r3(seed: int = 0) -> ExperimentRecord:
    """R3: an MDS brown-out inflates a metadata-heavy workflow.

    The same workflow runs healthy and under a 6x metadata service-time
    inflation; the operation mix must be identical while the runtime
    grows -- and a brown-out must hurt this metadata-bound workload more
    than it would a data-bound one.
    """
    rec = ExperimentRecord(
        "R3",
        "MDS brown-outs slow metadata-bound workloads without changing "
        "their operation mix",
    )
    faulted = get_scenario("r3-mds-brownout", seed)
    healthy = faulted.replace(name="r3-healthy", faults=FaultSpec())

    run_h = run_scenario(healthy)
    run_f = run_scenario(faulted)
    pfs_h, pfs_f = run_h.harness.pfs, run_f.harness.pfs

    slowdown = run_f.duration / run_h.duration
    rec.measure(
        healthy_seconds=run_h.duration,
        brownout_seconds=run_f.duration,
        slowdown=slowdown,
        meta_ops=pfs_f.total_metadata_ops(),
        same_meta_ops=pfs_f.total_metadata_ops() == pfs_h.total_metadata_ops(),
        same_bytes=pfs_f.total_bytes_written() == pfs_h.total_bytes_written(),
    )
    rec.verdict(
        slowdown > 1.2
        and pfs_f.total_metadata_ops() == pfs_h.total_metadata_ops()
        and pfs_f.total_bytes_written() == pfs_h.total_bytes_written(),
        f"6x metadata brown-out -> {slowdown:.2f}x runtime at an "
        f"unchanged operation mix",
    )
    return rec


#: The resilience experiments, by id (merged into ``ALL_EXPERIMENTS``).
RESILIENCE_EXPERIMENTS = {
    "R1": run_r1,
    "R2": run_r2,
    "R3": run_r3,
}
