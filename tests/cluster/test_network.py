"""Unit tests for the fluid fabric model."""

import pytest

from repro.cluster import NetworkFabric
from repro.cluster.topology import star_topology
from repro.des import Environment


def make_fabric(env, **kw):
    defaults = dict(
        nic_bandwidth=100.0, core_bandwidth=1000.0, base_latency=0.0, hop_latency=0.0
    )
    defaults.update(kw)
    fab = NetworkFabric(env, "test", **defaults)
    for name in ("a", "b", "c", "d"):
        fab.attach(name)
    return fab


def run_send(env, fab, src, dst, nbytes, results, key, start=0.0):
    def proc(env):
        if start:
            yield env.timeout(start)
        yield from fab.send(src, dst, nbytes)
        results[key] = env.now

    env.process(proc(env))


def test_single_transfer_limited_by_nic():
    env = Environment()
    fab = make_fabric(env)
    results = {}
    run_send(env, fab, "a", "b", 100.0, results, "x")
    env.run()
    assert results["x"] == pytest.approx(1.0)  # 100 B at 100 B/s NIC


def test_latency_added_once_per_message():
    env = Environment()
    fab = make_fabric(env, base_latency=0.5)
    results = {}
    run_send(env, fab, "a", "b", 100.0, results, "x")
    env.run()
    assert results["x"] == pytest.approx(1.5)


def test_topology_hops_increase_latency():
    env = Environment()
    topo = star_topology(["a", "b"])
    fab = NetworkFabric(
        env,
        "t",
        nic_bandwidth=1e9,
        core_bandwidth=1e9,
        base_latency=0.0,
        hop_latency=0.1,
        topology=topo,
    )
    fab.attach("a")
    fab.attach("b")
    assert fab.latency("a", "b") == pytest.approx(0.2)  # 2 hops via the switch


def test_default_hops_without_topology():
    env = Environment()
    fab = make_fabric(env, hop_latency=0.1)
    assert fab.latency("a", "b") == pytest.approx(0.3)  # default 3 hops
    assert fab.latency("a", "a") == 0.0


def test_same_endpoint_send_free():
    env = Environment()
    fab = make_fabric(env)
    results = {}
    run_send(env, fab, "a", "a", 1e9, results, "x")
    env.run()
    assert results["x"] == pytest.approx(0.0)


def test_unknown_endpoint_raises():
    env = Environment()
    fab = make_fabric(env)

    def proc(env):
        yield from fab.send("a", "zzz", 10)

    env.process(proc(env))
    with pytest.raises(KeyError):
        env.run()


def test_two_senders_one_receiver_share_ingress():
    env = Environment()
    fab = make_fabric(env)
    results = {}
    run_send(env, fab, "a", "c", 100.0, results, "x")
    run_send(env, fab, "b", "c", 100.0, results, "y")
    env.run()
    # c's 100 B/s ingress NIC is the bottleneck: both take ~2 s.
    assert results["x"] == pytest.approx(2.0)
    assert results["y"] == pytest.approx(2.0)


def test_disjoint_pairs_use_full_nic_rate():
    env = Environment()
    fab = make_fabric(env)
    results = {}
    run_send(env, fab, "a", "b", 100.0, results, "x")
    run_send(env, fab, "c", "d", 100.0, results, "y")
    env.run()
    # Core has 1000 B/s, NICs 100 B/s each: no contention.
    assert results["x"] == pytest.approx(1.0)
    assert results["y"] == pytest.approx(1.0)


def test_core_bandwidth_caps_aggregate():
    env = Environment()
    fab = make_fabric(env, nic_bandwidth=1000.0, core_bandwidth=100.0)
    results = {}
    run_send(env, fab, "a", "b", 100.0, results, "x")
    run_send(env, fab, "c", "d", 100.0, results, "y")
    env.run()
    # Core (100 B/s shared) is the bottleneck: 200 B total -> 2 s.
    assert results["x"] == pytest.approx(2.0)
    assert results["y"] == pytest.approx(2.0)


def test_stats_accumulate():
    env = Environment()
    fab = make_fabric(env)
    results = {}
    run_send(env, fab, "a", "b", 100.0, results, "x")
    env.run()
    assert fab.stats.messages == 1
    assert fab.stats.bytes == 100.0
    assert 0 < fab.core.utilization <= 1.0


def test_invalid_construction():
    env = Environment()
    with pytest.raises(ValueError):
        NetworkFabric(env, "bad", nic_bandwidth=0, core_bandwidth=1)
    with pytest.raises(ValueError):
        NetworkFabric(env, "bad", nic_bandwidth=1, core_bandwidth=1, base_latency=-1)
