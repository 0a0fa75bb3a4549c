"""Cohort scheduling: bit-exact equivalence with the scalar path.

The contract under test (see :mod:`repro.des.cohort`): every batch entry
point -- ``Environment.timeout_batch``, ``Environment.schedule_batch``,
``FairShareLink.transfer_batch`` -- produces *byte-identical* simulations
to the equivalent scalar loop: same completion times, same values, same
event ordering, same final clock.  Not "close": identical.
"""

import math

import pytest

from repro.des import Environment, Event, FairShareLink, SimulationError, URGENT
from repro.des.cohort import fair_share_batch_times


# ---------------------------------------------------------------------------
# timeout_batch
# ---------------------------------------------------------------------------

def _run_timeout_scalar(delays, values):
    env = Environment()
    log = []

    def proc(env):
        events = [env.timeout(d, v) for d, v in zip(delays, values)]
        for ev in events:
            yield ev
            log.append((env.now, ev.value))

    env.process(proc(env))
    env.run()
    return log, env.now, env.events_processed


def _run_timeout_batch(delays, values):
    env = Environment()
    log = []

    def proc(env):
        events = env.timeout_batch(delays, values=values)
        for ev in events:
            yield ev
            log.append((env.now, ev.value))

    env.process(proc(env))
    env.run()
    return log, env.now, env.events_processed


def test_timeout_batch_matches_scalar_loop():
    # Irregular float delays, including duplicates and zero, to exercise
    # tie-breaking by insertion sequence.
    delays = [0.3, 0.1, 0.1, 0.0, 2.5, 0.7, 1 / 3, 0.1 + 0.2, 1e-9, 5.0]
    values = list(range(len(delays)))
    assert _run_timeout_scalar(delays, values) == _run_timeout_batch(delays, values)


def test_timeout_batch_small_cohort_matches():
    # Below MIN_VECTOR_BATCH the engine uses per-event pushes; results must
    # be identical either way.
    delays = [0.5, 0.25]
    values = ["a", "b"]
    assert _run_timeout_scalar(delays, values) == _run_timeout_batch(delays, values)


def test_timeout_batch_default_values_none():
    env = Environment()
    seen = []

    def proc(env):
        for ev in env.timeout_batch([0.1, 0.2]):
            yield ev
            seen.append(ev.value)

    env.process(proc(env))
    env.run()
    assert seen == [None, None]


def test_timeout_batch_rejects_negative_delay():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout_batch([0.1, -0.5, 0.2])


def test_timeout_batch_rejects_nan_delay():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout_batch([0.1, math.nan])


def test_timeout_batch_delay_values_are_plain_floats():
    # np.float64 leaking into Timeout._delay would change repr()s and
    # downstream arithmetic types; the batch path must unbox.
    env = Environment()
    events = env.timeout_batch([0.1] * 10)
    assert all(type(ev._delay) is float for ev in events)


# ---------------------------------------------------------------------------
# schedule_batch
# ---------------------------------------------------------------------------

def test_schedule_batch_matches_scalar_schedule():
    def run(batch):
        env = Environment()
        fired = []
        events = []
        for i in range(12):
            ev = Event(env)
            ev._ok = True
            ev._value = i
            ev.callbacks = (lambda e, i=i: fired.append((env.now, i)))
            events.append(ev)
        delays = [0.1 * ((i * 7) % 5) for i in range(12)]
        if batch:
            env.schedule_batch(events, delays)
        else:
            for ev, d in zip(events, delays):
                env.schedule(ev, delay=d)
        env.run()
        return fired, env.now

    assert run(batch=False) == run(batch=True)


def test_schedule_batch_priority_ordering():
    # URGENT cohort members must still sort ahead of NORMAL singletons at
    # the same timestamp.
    env = Environment()
    order = []
    urgent = Event(env)
    urgent._ok = True
    urgent.callbacks = lambda e: order.append("urgent")
    normal = Event(env)
    normal._ok = True
    normal.callbacks = lambda e: order.append("normal")
    env.schedule(normal, delay=1.0)
    env.schedule_batch([urgent], [1.0], priority=URGENT)
    env.run()
    assert order == ["urgent", "normal"]


def test_schedule_batch_length_mismatch():
    env = Environment()
    with pytest.raises(ValueError):
        env.schedule_batch([Event(env)], [0.1, 0.2])


# ---------------------------------------------------------------------------
# FairShareLink.transfer_batch
# ---------------------------------------------------------------------------

def _drive_link(sizes, batch, rate=100.0, limit=None):
    env = Environment()
    link = FairShareLink(env, rate=rate, concurrency_limit=limit)
    done = {}

    def waiter(env, ev, idx):
        yield ev
        done[idx] = env.now

    if batch:
        events = link.transfer_batch(sizes)
    else:
        events = [link.transfer(b) for b in sizes]
    for idx, ev in enumerate(events):
        env.process(waiter(env, ev, idx))
    env.run()
    return done, link.bytes_transferred, env.now


@pytest.mark.parametrize("limit", [None, 3])
def test_transfer_batch_matches_scalar_transfers(limit):
    sizes = [100.0, 50.0, 0.0, 200.0, 100.0, 75.0, 300.0, 50.0]
    assert _drive_link(sizes, batch=False, limit=limit) == _drive_link(
        sizes, batch=True, limit=limit
    )


def test_transfer_batch_equal_sizes_closed_form():
    # n equal flows admitted on an idle link all complete at exactly
    # admit + n*b/rate -- the identity the vectorized scale model relies on.
    n, b, rate = 16, 1000.0, 250.0
    done, _, _ = _drive_link([b] * n, batch=True, rate=rate)
    expected = fair_share_batch_times(0.0, b, n, rate)
    assert set(done.values()) == {expected}


def test_transfer_batch_all_zero_is_noop():
    env = Environment()
    link = FairShareLink(env, rate=10.0)
    events = link.transfer_batch([0.0, 0.0])
    assert all(ev.triggered for ev in events)
    assert link.bytes_transferred == 0.0
    assert link.active_flows == 0


def test_transfer_batch_rejects_negative():
    env = Environment()
    link = FairShareLink(env, rate=10.0)
    with pytest.raises(ValueError):
        link.transfer_batch([10.0, -1.0])


def test_transfer_batch_then_scalar_interleave():
    # A batch admission followed by scalar joins must evolve exactly like
    # the all-scalar sequence.
    def run(batch):
        env = Environment()
        link = FairShareLink(env, rate=64.0)
        done = []

        def waiter(env, ev, tag):
            yield ev
            done.append((tag, env.now))

        def driver(env):
            first = (
                link.transfer_batch([128.0, 64.0])
                if batch
                else [link.transfer(128.0), link.transfer(64.0)]
            )
            for i, ev in enumerate(first):
                env.process(waiter(env, ev, f"b{i}"))
            yield env.timeout(0.5)
            env.process(waiter(env, link.transfer(32.0), "late"))

        env.process(driver(env))
        env.run()
        return done

    assert run(batch=False) == run(batch=True)
