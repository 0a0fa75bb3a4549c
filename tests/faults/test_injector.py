"""Fault injector: determinism, clean reversion, and client resilience.

The acceptance bar for the fault layer: the same ``(spec, seed)`` always
produces the same timeline and outcome, every degradation is reverted to
exact health, the fault-free path stays byte-identical, and the client's
retry/failover machinery turns outages into bounded slowdowns.
"""

import dataclasses

import pytest

from repro.faults import FaultEventSpec, FaultInjector, FaultSpec
from repro.ops import StorageUnavailable
from repro.scenario import get_scenario, run_scenario
from repro.scenario.spec import StorageSpec


def _run_r1(seed=0, **spec_changes):
    spec = get_scenario("r1-ckpt-outage", seed)
    if spec_changes:
        spec = spec.replace(**spec_changes)
    return run_scenario(spec)


# -- determinism --------------------------------------------------------------

def test_fault_timeline_deterministic_per_seed():
    """Same spec + seed => identical schedule, event log and outcome."""
    run_a = _run_r1(seed=0)
    run_b = _run_r1(seed=0)
    inj_a, inj_b = run_a.harness.fault_injector, run_b.harness.fault_injector
    assert inj_a.event_log == inj_b.event_log
    assert run_a.duration == run_b.duration
    assert run_a.to_dict() == run_b.to_dict()


def test_jitter_is_seeded_from_the_faults_stream():
    from repro.cluster.platform import platform_from_spec, tiny_spec
    from repro.pfs.filesystem import build_pfs

    spec = FaultSpec((
        FaultEventSpec(kind="ost_outage", target=0, start=5.0,
                       duration=1.0, jitter=2.0, repeat=4, period=10.0),
    ))

    def schedule(seed):
        plat = platform_from_spec(tiny_spec(), seed=seed)
        inj = FaultInjector(plat, build_pfs(plat), spec)
        return [start for start, _ in inj.occurrences]

    assert schedule(0) == schedule(0)  # deterministic
    assert schedule(0) != schedule(1)  # but seed-sensitive
    assert all(s >= 0.0 for s in schedule(0))
    # Jittered starts stay within +-jitter of the nominal schedule.
    for got, nominal in zip(schedule(0), [5.0, 15.0, 25.0, 35.0]):
        assert abs(got - nominal) <= 2.0


# -- reversion ----------------------------------------------------------------

def test_every_fault_reverts_to_exact_health():
    run = _run_r1()
    inj = run.harness.fault_injector
    summary = inj.summary()
    assert summary["injected"] == summary["reverted"] == summary["occurrences"]
    assert summary["degraded_seconds_total"] == pytest.approx(0.5)
    # Slowdown products snap back to exactly 1.0 and outage counts to 0,
    # so post-fault service times are byte-identical to a healthy system.
    assert all(v == 1.0 for v in inj._slowdown.values())
    assert all(v == 0 for v in inj._outage.values())


def test_all_six_kinds_inject_and_revert():
    base = get_scenario("r1-ckpt-outage", 0)
    spec = base.replace(
        name="all-kinds",
        faults=FaultSpec((
            FaultEventSpec(kind="ost_slowdown", target=1, start=0.1,
                           duration=0.2, factor=2.0),
            FaultEventSpec(kind="ost_outage", target=0, start=0.25,
                           duration=0.2),
            FaultEventSpec(kind="oss_outage", target=1, start=0.5,
                           duration=0.1),
            FaultEventSpec(kind="mds_brownout", target=0, start=0.0,
                           duration=0.3, factor=4.0),
            FaultEventSpec(kind="link_flap", target="core", start=0.2,
                           duration=0.1, factor=2.0),
            FaultEventSpec(kind="node_straggler", target="c0", start=0.3,
                           duration=0.2, factor=2.0),
        )),
    )
    run = run_scenario(spec)
    summary = run.harness.fault_injector.summary()
    assert summary["injected"] == 6
    assert summary["reverted"] == 6
    assert len(summary["degraded_seconds"]) == 6


def test_overlapping_slowdowns_stack_multiplicatively():
    from repro.cluster.platform import platform_from_spec, tiny_spec
    from repro.pfs.filesystem import build_pfs

    plat = platform_from_spec(tiny_spec(), seed=0)
    pfs = build_pfs(plat)
    spec = FaultSpec((
        FaultEventSpec(kind="ost_slowdown", target=0, start=0.0,
                       duration=2.0, factor=2.0),
        FaultEventSpec(kind="ost_slowdown", target=0, start=1.0,
                       duration=2.0, factor=3.0),
    ))
    inj = FaultInjector(plat, pfs, spec).arm()
    device = pfs.ost_device(0)
    healthy = device.service_time(0, 1 << 20)

    def degradation():
        return device.service_time(0, 1 << 20) / healthy

    plat.env.run(until=0.5)
    assert degradation() == pytest.approx(2.0)
    plat.env.run(until=1.5)
    assert degradation() == pytest.approx(6.0)  # 2 x 3 stacked
    plat.env.run(until=2.5)
    assert degradation() == pytest.approx(3.0)  # first reverted
    plat.env.run(until=3.5)
    assert degradation() == 1.0  # exact, not approximately, healthy


# -- client resilience --------------------------------------------------------

def test_failover_completes_during_outage():
    """Replicated stripes ride out the OST outage via failover writes."""
    run = _run_r1()
    counters = run.harness.pfs.resilience_counters()
    assert counters["failovers"] > 0
    assert "failovers" in run.summary()


def test_unreplicated_clients_retry_until_recovery():
    run = _run_r1(name="r1-blocking",
                  storage=StorageSpec(default_stripe_count=2))
    counters = run.harness.pfs.resilience_counters()
    assert counters["failovers"] == 0  # nothing to fail over to
    assert counters["retries"] > 0
    # Blocked writes resume after the outage ends at t=0.75.
    assert run.duration > 0.75


def test_failover_beats_blocking_beats_nothing():
    healthy = _run_r1(name="r1-healthy", faults=FaultSpec())
    failover = _run_r1()
    blocking = _run_r1(name="r1-blocking",
                       storage=StorageSpec(default_stripe_count=2))
    assert healthy.duration <= failover.duration < blocking.duration


def test_exhausted_retry_budget_raises():
    spec = get_scenario("r1-ckpt-outage", 0)
    spec = spec.replace(
        name="r1-exhausted",
        storage=StorageSpec(default_stripe_count=2),  # no replicas
        stack=dataclasses.replace(spec.stack, rpc_retries=2,
                                  retry_backoff=0.001,
                                  retry_backoff_cap=0.002),
    )
    with pytest.raises(StorageUnavailable):
        run_scenario(spec)


def test_fault_free_run_reports_no_fault_keys():
    """Healthy scenarios carry no fault/resilience keys, so cached
    payloads from before the fault layer remain byte-identical."""
    run = run_scenario(get_scenario("r1-ckpt-outage", 0).replace(
        name="r1-healthy", faults=FaultSpec()))
    payload = run.to_dict()
    assert "faults" not in payload
    assert "resilience" not in payload
    assert run.harness.fault_injector is None
