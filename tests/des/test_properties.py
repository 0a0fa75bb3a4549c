"""Property-based tests of DES kernel invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.des import Environment, FairShareLink, Resource
from repro.telemetry import TELEMETRY


@settings(max_examples=100, deadline=None)
@given(
    delays=st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1, max_size=30)
)
def test_clock_never_goes_backwards(delays):
    """Across arbitrary process graphs, observed time is monotone."""
    env = Environment()
    observed = []

    def proc(env, delay):
        yield env.timeout(delay)
        observed.append(env.now)
        yield env.timeout(delay / 2)
        observed.append(env.now)

    for d in delays:
        env.process(proc(env, d))
    trace = []
    while env._queue:
        trace.append(env.peek())
        env.step()
    assert trace == sorted(trace)
    assert env.now == max(observed)


# Few distinct delays (zero included) so timestamps collide often.
_DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0])


def _build_graph(env, workers, failer, log):
    """Workers log each wake-up; ``failer`` also triggers a defused failed
    event; a joiner waits on all workers through an ``AllOf``.  Returns the
    joiner, the last process to finish."""

    def worker(i, delays):
        for j, d in enumerate(delays):
            yield env.timeout(d)
            log.append((env.now, i, j))
        if i == failer:
            bad = env.event()
            bad.defused = True
            bad.fail(ValueError("defused"))
            yield env.timeout(0.0)
            log.append((env.now, i, "after-fail"))
        return i

    def joiner(procs):
        done = yield env.all_of(procs)
        log.append((env.now, "join", sorted(done.values())))

    procs = [env.process(worker(i, d)) for i, d in enumerate(workers)]
    return env.process(joiner(procs))


def _drive(workers, failer, mode, cuts):
    """Run one graph in ``mode``.  Also returns, for ``step``, each event's
    time and, for ``chunks``, the events processed after each cut."""
    env = Environment()
    log = []
    last = _build_graph(env, workers, failer, log)
    seen = []
    if mode == "step":
        while env.peek() < float("inf"):
            seen.append(env.peek())
            env.step()
    elif mode == "run":
        env.run()
    elif mode == "chunks":
        for t in cuts:
            env.run(until=t)
            seen.append(env.events_processed)
        env.run()
    else:
        assert env.run(until=last) is None
    return (log, env.now, env.events_processed, env.peek()), seen


@settings(max_examples=60, deadline=None)
@given(
    workers=st.lists(st.lists(_DELAYS, max_size=5), min_size=1, max_size=6),
    failer_pick=st.integers(0, 5),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
)
def test_every_run_mode_dispatches_identically(workers, failer_pick, fractions):
    """Stepping, draining, time-bounded chunks and ``run(until=<process>)``
    -- each with telemetry off and on -- dispatch the same events in the
    same order and end with the same clock and event count."""
    failer = failer_pick % len(workers)
    ref, times = _drive(workers, failer, "step", ())
    assert ref[3] == float("inf")
    cuts = sorted(f * ref[1] for f in fractions)
    # A time-bounded run processes exactly the events at or before its cut.
    at_cuts = [sum(t <= cut for t in times) for cut in cuts]
    try:
        for active in (False, True):
            if active:
                telemetry.enable()
            for mode in ("step", "run", "chunks", "until-event"):
                telemetry.reset()
                got, seen = _drive(workers, failer, mode, cuts)
                assert got == ref, (mode, active)
                if mode == "chunks":
                    assert seen == at_cuts, active
                if active and mode != "step":
                    executed = TELEMETRY.metrics.counter("des.events.executed")
                    assert executed.value == got[2]
    finally:
        telemetry.disable()
        telemetry.reset()


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.floats(1.0, 1e6), min_size=1, max_size=15),
    starts=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=15),
    rate=st.floats(1e3, 1e9),
)
def test_fair_share_conserves_bytes_and_work(sizes, starts, rate):
    """The PS link moves exactly the requested bytes, and total time is at
    least total_bytes/rate (it cannot beat its own capacity)."""
    env = Environment()
    link = FairShareLink(env, rate=rate)
    n = min(len(sizes), len(starts))
    sizes, starts = sizes[:n], starts[:n]
    done = []

    def sender(env, start, nbytes):
        yield env.timeout(start)
        yield link.transfer(nbytes)
        done.append(env.now)

    for s, b in zip(starts, sizes):
        env.process(sender(env, s, b))
    env.run()
    assert len(done) == n
    assert link.bytes_transferred == pytest.approx(sum(sizes))
    # Capacity bound: finishing before first_start + total/rate is impossible.
    assert max(done) >= min(starts) + sum(sizes) / rate - 1e-6


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(1, 5),
    holds=st.lists(st.floats(0.1, 5.0), min_size=1, max_size=12),
)
def test_resource_never_oversubscribed(capacity, holds):
    env = Environment()
    res = Resource(env, capacity=capacity)
    max_seen = [0]

    def user(env, hold):
        with res.request() as req:
            yield req
            max_seen[0] = max(max_seen[0], res.in_use)
            yield env.timeout(hold)

    for h in holds:
        env.process(user(env, h))
    env.run()
    assert max_seen[0] <= capacity
    assert res.in_use == 0
    assert res.total_requests == len(holds)


@settings(max_examples=40, deadline=None)
@given(
    hops=st.integers(1, 40),
    lookahead=st.floats(0.1, 5.0),
)
def test_executors_agree_for_random_pingpong(hops, lookahead):
    """Sequential and conservative (one-partition) ROSS executors agree
    for any bounce count and lookahead."""
    from repro.des import (
        LogicalProcess,
        PartitionPlan,
        PartitionedExecutor,
        RossKernel,
        SequentialExecutor,
    )

    class Bouncer(LogicalProcess):
        def __init__(self, lp_id, peer, delay):
            super().__init__(lp_id)
            self.peer = peer
            self.delay = delay

        def handle(self, kernel, event):
            if event.payload > 0:
                kernel.send(self.peer, self.delay, "b", event.payload - 1)

        def state_digest(self):
            return (self.lp_id, self.events_handled)

    def build():
        k = RossKernel(lookahead=lookahead)
        k.add_lp(Bouncer(0, 1, lookahead))
        k.add_lp(Bouncer(1, 0, lookahead * 1.5))
        k.inject(0.0, 0, "b", hops)
        return k

    k1, k2 = build(), build()
    SequentialExecutor(k1).run()
    PartitionedExecutor(k2, PartitionPlan.round_robin(sorted(k2.lps), 1)).run()
    assert k1.state_digests() == k2.state_digests()
