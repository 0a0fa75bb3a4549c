"""Unit tests for the sequential process-based DES engine."""

import pytest

from repro import telemetry
from repro.des import Environment, Event, Interrupt, SimulationError, Timeout
from repro.des.engine import EmptySchedule
from repro.telemetry import TELEMETRY


def test_clock_starts_at_initial_time():
    assert Environment().now == 0.0
    assert Environment(initial_time=5.0).now == 5.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(2.5)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 2.5
    assert env.now == 2.5


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_nan_delay_rejected():
    """NaN compares false to everything, so it would corrupt heap ordering
    silently; both scheduling entry points must reject it up front."""
    nan = float("nan")
    env = Environment()
    with pytest.raises(ValueError, match="NaN"):
        env.timeout(nan)
    with pytest.raises(ValueError, match="NaN"):
        env.schedule(env.event(), delay=nan)
    with pytest.raises(ValueError, match="NaN"):
        Timeout(env, nan)
    assert env.peek() == float("inf")  # nothing leaked into the queue


def test_timeout_carries_value():
    env = Environment()

    def proc(env):
        got = yield env.timeout(1.0, value="payload")
        return got

    p = env.process(proc(env))
    env.run()
    assert p.value == "payload"


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def ticker(env):
        while True:
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run(until=3.5)
    assert env.now == 3.5


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(4.0)
        return 17

    p = env.process(proc(env))
    assert env.run(until=p) == 17
    # Already processed: returns its value and processes nothing.
    env.timeout(1.0)
    processed = env.events_processed
    assert env.run(until=p) == 17
    assert env.events_processed == processed
    assert env.now == 4.0


def test_run_until_event_counts_one_run_under_telemetry():
    telemetry.enable()
    telemetry.reset()
    try:
        env = Environment()
        t = env.timeout(2.0, value="x")
        env.timeout(5.0)
        assert env.run(until=t) == "x"
        assert TELEMETRY.metrics.counter("des.runs").value == 1
        assert TELEMETRY.metrics.counter("des.events.executed").value == 1
    finally:
        telemetry.disable()
        telemetry.reset()


@pytest.mark.parametrize("defused", [False, True])
def test_run_until_failed_event_raises_its_exception(defused):
    env = Environment()
    ev = env.event()
    ev.defused = defused
    ev.fail(KeyError("stop"))
    with pytest.raises(KeyError, match="stop"):
        env.run(until=ev)
    assert env.events_processed == 1


def test_run_until_past_time_rejected():
    env = Environment(initial_time=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_run_until_event_that_never_fires_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        env.run(until=ev)


def test_processes_interleave_in_time_order():
    env = Environment()
    log = []

    def proc(env, name, delay):
        yield env.timeout(delay)
        log.append((env.now, name))

    env.process(proc(env, "b", 2.0))
    env.process(proc(env, "a", 1.0))
    env.process(proc(env, "c", 3.0))
    env.run()
    assert log == [(1.0, "a"), (2.0, "b"), (3.0, "c")]


def test_fifo_tiebreak_at_equal_times():
    env = Environment()
    log = []

    def proc(env, name):
        yield env.timeout(1.0)
        log.append(name)

    for name in "abcd":
        env.process(proc(env, name))
    env.run()
    assert log == list("abcd")


def test_process_waits_on_process():
    env = Environment()

    def child(env):
        yield env.timeout(2.0)
        return "done"

    def parent(env):
        result = yield env.process(child(env))
        return (env.now, result)

    p = env.process(parent(env))
    env.run()
    assert p.value == (2.0, "done")


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()

    def opener(env):
        yield env.timeout(5.0)
        gate.succeed("open")

    def waiter(env):
        v = yield gate
        return (env.now, v)

    env.process(opener(env))
    p = env.process(waiter(env))
    env.run()
    assert p.value == (5.0, "open")


def test_event_cannot_trigger_twice():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(RuntimeError):
        ev.succeed()


def test_failed_event_raises_in_waiter():
    env = Environment()
    ev = env.event()

    def proc(env):
        try:
            yield ev
        except ValueError as exc:
            return f"caught {exc}"

    p = env.process(proc(env))
    ev.fail(ValueError("boom"))
    env.run()
    assert p.value == "caught boom"


def test_unhandled_failure_crashes_simulation():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        raise RuntimeError("unhandled")

    env.process(proc(env))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_yielding_non_event_fails_process():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="non-event"):
        env.run()


def test_all_of_collects_values():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1.0, value="x")
        t2 = env.timeout(2.0, value="y")
        results = yield env.all_of([t1, t2])
        return (env.now, sorted(results.values()))

    p = env.process(proc(env))
    env.run()
    assert p.value == (2.0, ["x", "y"])


def test_any_of_fires_on_first():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1.0, value="fast")
        t2 = env.timeout(10.0, value="slow")
        results = yield env.any_of([t1, t2])
        return (env.now, list(results.values()))

    p = env.process(proc(env))
    env.run()
    assert p.value == (1.0, ["fast"])


def test_all_of_empty_fires_immediately():
    env = Environment()

    def proc(env):
        results = yield env.all_of([])
        return results

    p = env.process(proc(env))
    env.run()
    assert p.value == {}


def test_interrupt_reaches_waiting_process():
    env = Environment()

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as i:
            return (env.now, i.cause)

    def attacker(env, target):
        yield env.timeout(3.0)
        target.interrupt(cause="preempted")

    v = env.process(victim(env))
    env.process(attacker(env, v))
    env.run()
    assert v.value == (3.0, "preempted")


def test_interrupting_dead_process_raises():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_events_processed_counter():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        yield env.timeout(1.0)

    env.process(proc(env))
    env.run()
    assert env.events_processed > 0


def test_step_processes_exactly_one_event():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()
    fired = []
    for name in "abc":
        env.timeout(1.0).add_callback(lambda ev, name=name: fired.append(name))
    env.step()
    assert fired == ["a"]
    assert env.now == 1.0
    assert env.events_processed == 1
    assert env.peek() == 1.0  # the two co-timed events are still queued


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7.0)
    assert env.peek() == 7.0
    env2 = Environment()
    assert env2.peek() == float("inf")
