"""Partitioned windowed execution: plans, accounting, and bit-equivalence.

The load-bearing property: for any LP model, the partitioned executor --
under any partition plan -- produces exactly the same per-LP state
digests and event traces as the sequential executor.  The random-model
property test at the bottom pins this.
"""

import random

import pytest

from repro.des import (
    LogicalProcess,
    PartitionPlan,
    PartitionedExecutor,
    RossKernel,
    SequentialExecutor,
    SimulationError,
)


# ---------------------------------------------------------------------------
# Model used across the tests
# ---------------------------------------------------------------------------

class Relay(LogicalProcess):
    """Forwards a decrementing token to a neighbour with an id-dependent
    delay; records every hop so traces expose any ordering difference."""

    def __init__(self, lp_id, n_lps, lookahead):
        super().__init__(lp_id)
        self.n_lps = n_lps
        self.lookahead = lookahead
        self.log = []

    def handle(self, kernel, event):
        self.log.append((kernel.now, event.kind, event.payload))
        ttl = event.payload
        if ttl > 0:
            dest = (self.lp_id + 1 + (ttl % 3)) % self.n_lps
            delay = self.lookahead * (1.0 + 0.125 * (self.lp_id % 4))
            kernel.send(dest, delay, "token", ttl - 1)

    def state_digest(self):
        return (self.lp_id, self.events_handled, tuple(self.log))


def build_relay_kernel(n_lps=12, tokens=6, ttl=15, lookahead=0.5):
    k = RossKernel(lookahead=lookahead)
    for i in range(n_lps):
        k.add_lp(Relay(i, n_lps, lookahead))
    for t in range(tokens):
        k.inject(0.25 * t, t % n_lps, "token", ttl)
    return k


def sequential_reference(**kwargs):
    k = build_relay_kernel(**kwargs)
    SequentialExecutor(k).run()
    return k.state_digests()


# ---------------------------------------------------------------------------
# Partition plans
# ---------------------------------------------------------------------------

def test_round_robin_plan_covers_all_lps():
    plan = PartitionPlan.round_robin(range(10), 3)
    assert plan.n_partitions == 3
    assert sorted(plan.assignment) == list(range(10))
    sizes = [list(plan.assignment.values()).count(p) for p in range(3)]
    assert sum(sizes) == 10
    assert max(sizes) - min(sizes) <= 1


def test_contiguous_plan_keeps_neighbours_together():
    plan = PartitionPlan.contiguous(range(8), 2)
    assert plan.assignment == {0: 0, 1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 1, 7: 1}


def test_plan_caps_partitions_at_lp_count():
    plan = PartitionPlan.round_robin([1, 2], 16)
    assert plan.n_partitions == 2


def test_plan_rejects_out_of_range_assignment():
    with pytest.raises(ValueError):
        PartitionPlan(2, {0: 0, 1: 5})


# ---------------------------------------------------------------------------
# Executor correctness
# ---------------------------------------------------------------------------

# The window loop is serial at every partition count; the ids say so.
@pytest.mark.parametrize("n_partitions", [1, 3, 12], ids="{}-serial".format)
def test_partitioned_matches_sequential(n_partitions):
    ref = sequential_reference()
    k = build_relay_kernel()
    plan = PartitionPlan.round_robin(range(12), n_partitions)
    ex = PartitionedExecutor(k, plan)
    stats = ex.run()
    assert ex.state_digests() == ref
    assert stats.events == sum(d[1] for d in ref.values())
    assert stats.partitions == plan.n_partitions
    assert sum(stats.partition_events) == stats.events


def test_default_plan_is_one_partition():
    # The partition count comes from the model, never from the host.
    ex = PartitionedExecutor(build_relay_kernel())
    assert ex.plan.n_partitions == 1
    stats = ex.run()
    assert stats.partition_events == [stats.events]
    assert stats.exchanged == 0


def test_partitioned_traces_match_sequential():
    k0 = build_relay_kernel()
    SequentialExecutor(k0).run()
    ref_traces = {lp_id: lp.trace for lp_id, lp in k0.lps.items()}
    k1 = build_relay_kernel()
    ex = PartitionedExecutor(k1, PartitionPlan.round_robin(range(12), 4))
    ex.run()
    assert ex.traces() == ref_traces


def test_partitioned_window_stats_independent_of_partition_count():
    # LBTS and horizon computations do not depend on the partition count:
    # three partitions see the windows of the single-partition executor.
    one = PartitionedExecutor(
        build_relay_kernel(), PartitionPlan.round_robin(range(12), 1)
    ).run()
    kp = build_relay_kernel()
    ex = PartitionedExecutor(kp, PartitionPlan.round_robin(range(12), 3))
    stats = ex.run()
    assert stats.partitions == 3
    assert stats.windows == one.windows
    assert stats.window_sizes == one.window_sizes
    assert stats.critical_path == one.critical_path
    assert len(stats.occupied_partitions) == stats.windows
    assert 0.0 < stats.mean_occupancy <= stats.partitions
    assert 0 <= stats.exchanged <= stats.events


def test_partitioned_until_truncates_like_sequential():
    k0 = build_relay_kernel()
    SequentialExecutor(k0).run(until=5.0)
    ref = k0.state_digests()
    k1 = build_relay_kernel()
    ex = PartitionedExecutor(k1, PartitionPlan.round_robin(range(12), 4))
    ex.run(until=5.0)
    assert ex.state_digests() == ref


def test_requires_positive_lookahead():
    k = RossKernel(lookahead=0.0)
    k.add_lp(Relay(0, 1, 0.0))
    with pytest.raises(ValueError, match="lookahead"):
        PartitionedExecutor(k, PartitionPlan.round_robin([0], 1))


def test_plan_must_cover_kernel():
    k = build_relay_kernel(n_lps=4)
    plan = PartitionPlan(1, {0: 0, 1: 0})  # misses LPs 2, 3
    ex = PartitionedExecutor(k, plan)
    with pytest.raises(ValueError, match="does not cover"):
        ex.run()


# ---------------------------------------------------------------------------
# Degenerate-window guard (satellite: no silent spins)
# ---------------------------------------------------------------------------

def _late_clock_kernel(lookahead=1e-6, start=1e18):
    # At t=1e18, 1e18 + 1e-6 == 1e18 in float64: the window can never admit
    # an event and the old code would spin forever.
    k = RossKernel(lookahead=lookahead)
    k.add_lp(Relay(0, 1, lookahead))
    k.inject(start, 0, "token", 5)
    return k


def test_partitioned_degenerate_window_raises():
    k = _late_clock_kernel()
    ex = PartitionedExecutor(k, PartitionPlan.round_robin([0], 1))
    with pytest.raises(SimulationError, match="degenerate conservative window"):
        ex.run()


def test_sequential_executor_unaffected_by_degenerate_window():
    # The sequential executor has no windows; the same model runs fine
    # (token chain just advances at whatever resolution floats allow).
    k = _late_clock_kernel()
    stats = SequentialExecutor(k).run()
    assert stats.events >= 1


# ---------------------------------------------------------------------------
# Property test: random models, every executor, bit-identical
# ---------------------------------------------------------------------------

class RandomLP(LogicalProcess):
    """Emits a deterministic pseudo-random fan-out per handled event."""

    def __init__(self, lp_id, n_lps, lookahead, seed):
        super().__init__(lp_id)
        self.n_lps = n_lps
        self.lookahead = lookahead
        self.seed = seed
        self.checksum = 0

    def handle(self, kernel, event):
        self.checksum = (self.checksum * 31 + hash(event.sort_key)) & 0xFFFFFFFF
        ttl = event.payload
        if ttl <= 0:
            return
        rng = random.Random(hash((self.seed, self.lp_id, event.sort_key)))
        for _ in range(rng.randrange(0, 3)):
            dest = rng.randrange(self.n_lps)
            delay = self.lookahead * (1 + rng.random() * 3)
            kernel.send(dest, delay, "spawn", ttl - 1)

    def state_digest(self):
        return (self.lp_id, self.events_handled, self.checksum)


def _random_kernel(seed):
    rng = random.Random(seed)
    n_lps = rng.randrange(4, 17)
    lookahead = rng.choice([0.25, 0.5, 1.0])
    k = RossKernel(lookahead=lookahead)
    for i in range(n_lps):
        k.add_lp(RandomLP(i, n_lps, lookahead, seed))
    for j in range(rng.randrange(2, 8)):
        k.inject(rng.random() * 2, rng.randrange(n_lps), "spawn", rng.randrange(4, 9))
    return k


@pytest.mark.parametrize("seed", range(8))
def test_random_models_identical_across_executors(seed):
    k = _random_kernel(seed)
    SequentialExecutor(k).run()
    ref = k.state_digests()

    rng = random.Random(seed ^ 0xABCDEF)
    n_parts = rng.randrange(1, len(ref) + 1)
    layouts = (
        (1, PartitionPlan.round_robin),
        (n_parts, PartitionPlan.round_robin),
        (n_parts, PartitionPlan.contiguous),
    )
    for parts, make_plan in layouts:
        k = _random_kernel(seed)
        ex = PartitionedExecutor(k, make_plan(sorted(k.lps), parts))
        ex.run()
        assert ex.state_digests() == ref, f"{parts} x {make_plan.__name__} diverged"
