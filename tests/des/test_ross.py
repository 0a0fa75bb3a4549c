"""Unit tests for the ROSS-style LP kernel and its executors."""

import pytest

from repro.des import (
    LogicalProcess,
    PartitionPlan,
    PartitionedExecutor,
    RossKernel,
    SequentialExecutor,
)


def conservative(kernel):
    """The conservative windowed executor: one partition, serial backend."""
    return PartitionedExecutor(
        kernel, PartitionPlan.round_robin(sorted(kernel.lps), 1)
    )


class PingPong(LogicalProcess):
    """Bounces a token to a peer a fixed number of times."""

    def __init__(self, lp_id, peer, hops, delay=1.0):
        super().__init__(lp_id)
        self.peer = peer
        self.hops = hops
        self.delay = delay
        self.received = 0

    def handle(self, kernel, event):
        self.received += 1
        if event.payload > 0:
            kernel.send(self.peer, self.delay, "ball", event.payload - 1)

    def state_digest(self):
        return (self.lp_id, self.received)


def build_pingpong(lookahead=1.0, hops=10):
    k = RossKernel(lookahead=lookahead)
    k.add_lp(PingPong(0, peer=1, hops=hops, delay=lookahead))
    k.add_lp(PingPong(1, peer=0, hops=hops, delay=lookahead))
    k.inject(0.0, 0, "ball", hops)
    return k


def test_sequential_pingpong_counts():
    k = build_pingpong(hops=10)
    stats = SequentialExecutor(k).run()
    assert stats.events == 11  # initial + 10 bounces
    assert k.lps[0].received + k.lps[1].received == 11


def test_conservative_matches_sequential():
    k1 = build_pingpong(hops=20)
    SequentialExecutor(k1).run()
    k2 = build_pingpong(hops=20)
    conservative(k2).run()
    assert k1.state_digests() == k2.state_digests()
    assert k1.lps[0].trace == k2.lps[0].trace
    assert k1.lps[1].trace == k2.lps[1].trace


def test_conservative_requires_positive_lookahead():
    k = RossKernel(lookahead=0.0)
    k.add_lp(PingPong(0, peer=0, hops=1))
    with pytest.raises(ValueError, match="lookahead"):
        conservative(k)


def test_send_below_lookahead_rejected():
    class Bad(LogicalProcess):
        def handle(self, kernel, event):
            kernel.send(self.lp_id, 0.1, "x")

    k = RossKernel(lookahead=1.0)
    k.add_lp(Bad(0))
    k.inject(0.0, 0, "go")
    with pytest.raises(ValueError, match="lookahead"):
        SequentialExecutor(k).run()


def test_send_outside_handle_rejected():
    k = RossKernel(lookahead=1.0)
    k.add_lp(PingPong(0, peer=0, hops=1))
    with pytest.raises(RuntimeError):
        k.send(0, 1.0, "x")


def test_unknown_destination_rejected():
    class Bad(LogicalProcess):
        def handle(self, kernel, event):
            kernel.send(99, 1.0, "x")

    k = RossKernel(lookahead=1.0)
    k.add_lp(Bad(0))
    k.inject(0.0, 0, "go")
    with pytest.raises(KeyError):
        SequentialExecutor(k).run()


def test_duplicate_lp_id_rejected():
    k = RossKernel()
    k.add_lp(PingPong(0, peer=0, hops=1))
    with pytest.raises(ValueError):
        k.add_lp(PingPong(0, peer=0, hops=1))


def test_until_bounds_execution():
    k = build_pingpong(hops=100)
    stats = SequentialExecutor(k).run(until=5.0)
    # initial at t=0 plus bounces at t=1..5
    assert stats.events == 6


class Fanout(LogicalProcess):
    """Root LP that fans work out to many workers each tick."""

    def __init__(self, lp_id, workers, ticks):
        super().__init__(lp_id)
        self.workers = workers
        self.ticks = ticks

    def handle(self, kernel, event):
        if event.kind == "tick" and event.payload > 0:
            for w in self.workers:
                kernel.send(w, 1.0, "work", event.payload)
            kernel.send(self.lp_id, 1.0, "tick", event.payload - 1)


class Worker(LogicalProcess):
    def __init__(self, lp_id):
        super().__init__(lp_id)
        self.done = 0

    def handle(self, kernel, event):
        self.done += 1

    def state_digest(self):
        return (self.lp_id, self.done)


def build_fanout(n_workers=8, ticks=5):
    k = RossKernel(lookahead=1.0)
    workers = list(range(1, n_workers + 1))
    k.add_lp(Fanout(0, workers, ticks))
    for w in workers:
        k.add_lp(Worker(w))
    k.inject(0.0, 0, "tick", ticks)
    return k


def test_fanout_parallelism_bound_exceeds_one():
    k = build_fanout(n_workers=8, ticks=5)
    stats = conservative(k).run()
    # Each window contains 8 independent worker events + root bookkeeping,
    # so the conservative engine exposes real parallelism.
    assert stats.parallelism_bound > 2.0
    assert stats.windows >= 1
    assert sum(stats.window_sizes) == stats.events


def test_fanout_executors_agree():
    k1 = build_fanout()
    s1 = SequentialExecutor(k1).run()
    k2 = build_fanout()
    s2 = conservative(k2).run()
    assert s1.events == s2.events
    assert k1.state_digests() == k2.state_digests()
