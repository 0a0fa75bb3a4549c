"""Cohort scheduling: bit-exact equivalence with the scalar path.

The contract under test (see :mod:`repro.des.cohort`):
``FairShareLink.transfer_batch`` produces *byte-identical* simulations
to the equivalent loop of scalar transfers: same completion times, same
values, same event ordering, same final clock.  Not "close": identical.
"""

import pytest

from repro.des import Environment, FairShareLink
from repro.des.cohort import fair_share_batch_times


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
