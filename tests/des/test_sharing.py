"""Unit tests for the processor-sharing link model."""

import pytest

from repro.des import Environment, FairShareLink


def run_transfer(env, link, nbytes, start=0.0, results=None, name=None):
    def proc(env):
        if start:
            yield env.timeout(start)
        yield link.transfer(nbytes)
        if results is not None:
            results[name] = env.now

    return env.process(proc(env))


def test_single_transfer_takes_size_over_rate():
    env = Environment()
    link = FairShareLink(env, rate=100.0)
    results = {}
    run_transfer(env, link, 500.0, results=results, name="a")
    env.run()
    assert results["a"] == pytest.approx(5.0)


def test_two_equal_transfers_share_bandwidth():
    env = Environment()
    link = FairShareLink(env, rate=100.0)
    results = {}
    run_transfer(env, link, 100.0, results=results, name="a")
    run_transfer(env, link, 100.0, results=results, name="b")
    env.run()
    # Each gets 50 B/s, so both finish at t=2 instead of t=1.
    assert results["a"] == pytest.approx(2.0)
    assert results["b"] == pytest.approx(2.0)


def test_short_transfer_finishes_then_long_speeds_up():
    env = Environment()
    link = FairShareLink(env, rate=100.0)
    results = {}
    run_transfer(env, link, 100.0, results=results, name="short")
    run_transfer(env, link, 300.0, results=results, name="long")
    env.run()
    # Shared at 50 B/s until short finishes at t=2 (100B each done).
    # Long then has 200B left at 100 B/s -> finishes at t=4.
    assert results["short"] == pytest.approx(2.0)
    assert results["long"] == pytest.approx(4.0)


def test_late_joiner_slows_existing_flow():
    env = Environment()
    link = FairShareLink(env, rate=100.0)
    results = {}
    run_transfer(env, link, 200.0, results=results, name="first")
    run_transfer(env, link, 150.0, start=1.0, results=results, name="second")
    env.run()
    # first: 100B done by t=1; then 50 B/s. Both have equal remaining?
    # first remaining 100, second 150. first finishes at 1 + 100/50 = 3.
    # second then has 150 - 100 = 50 left at full rate: 3 + 0.5 = 3.5.
    assert results["first"] == pytest.approx(3.0)
    assert results["second"] == pytest.approx(3.5)


def test_zero_byte_transfer_completes_immediately():
    env = Environment()
    link = FairShareLink(env, rate=10.0)
    ev = link.transfer(0)
    assert ev.triggered
    env.run()
    assert link.bytes_transferred == 0.0


def test_negative_bytes_rejected():
    env = Environment()
    link = FairShareLink(env, rate=10.0)
    with pytest.raises(ValueError):
        link.transfer(-1)
    with pytest.raises(ValueError):
        link.transfer(float("nan"))
    assert link.active_flows == 0


def test_invalid_rate_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        FairShareLink(env, rate=0)
    with pytest.raises(ValueError):
        FairShareLink(env, rate=10, concurrency_limit=0)
    # NaN would put a NaN fire time on the event queue.
    with pytest.raises(ValueError):
        FairShareLink(env, rate=float("nan"))
    link = FairShareLink(env, rate=10)
    link.transfer(5)
    with pytest.raises(ValueError):
        link.set_degradation(float("nan"))
    env.run()
    assert env.now == 0.5


def test_concurrency_limit_queues_flows():
    env = Environment()
    link = FairShareLink(env, rate=100.0, concurrency_limit=1)
    results = {}
    run_transfer(env, link, 100.0, results=results, name="a")
    run_transfer(env, link, 100.0, results=results, name="b")
    env.run()
    # Serialized: a at t=1, b at t=2.
    assert results["a"] == pytest.approx(1.0)
    assert results["b"] == pytest.approx(2.0)


def test_many_flows_aggregate_rate_conserved():
    env = Environment()
    link = FairShareLink(env, rate=1000.0)
    results = {}
    n = 10
    for i in range(n):
        run_transfer(env, link, 100.0, results=results, name=i)
    env.run()
    # All equal flows finish together at total_bytes / rate.
    for i in range(n):
        assert results[i] == pytest.approx(n * 100.0 / 1000.0)
    assert link.bytes_transferred == pytest.approx(n * 100.0)


def test_utilization_tracks_busy_time():
    env = Environment()
    link = FairShareLink(env, rate=100.0)
    results = {}
    run_transfer(env, link, 100.0, results=results, name="a")  # busy [0,1]
    run_transfer(env, link, 100.0, start=3.0, results=results, name="b")  # busy [3,4]
    env.run()
    assert env.now == pytest.approx(4.0)
    assert link.utilization == pytest.approx(0.5)


def test_staggered_flows_deterministic():
    """Same program twice gives identical completion times."""

    def run_once():
        env = Environment()
        link = FairShareLink(env, rate=123.0)
        results = {}
        for i in range(5):
            run_transfer(env, link, 100.0 + 13 * i, start=0.3 * i, results=results, name=i)
        env.run()
        return results

    assert run_once() == run_once()
