"""The shared execution core: one task fan-out behind every front-end."""

from repro.jobs import TaskOutcome, execute_tasks

# Pool workers pickle task functions by reference: module level only.


def _timed_square(x):
    return x * x, 0.5, None


def _timed_fail_on_three(x):
    if x == 3:
        raise ValueError("bad three")
    return x, 0.1, None


# -- in-process path ----------------------------------------------------------

def test_sequential_returns_outcomes_in_payload_order():
    outcomes = execute_tasks(_timed_square, [3, 1, 2], jobs=1)
    assert [o.value for o in outcomes] == [9, 1, 4]
    assert all(o.seconds == 0.5 for o in outcomes)
    assert not any(o.failed for o in outcomes)


def test_sequential_accepts_two_tuple_wrappers():
    # Monkeypatched test doubles return (value, seconds) without a
    # worker snapshot; the in-process path normalizes that.
    outcomes = execute_tasks(lambda x: (x + 1, 0.2), [1, 2], jobs=1)
    assert [(o.value, o.seconds) for o in outcomes] == [(2, 0.2), (3, 0.2)]


def test_sequential_records_failures_and_continues():
    outcomes = execute_tasks(_timed_fail_on_three, [1, 3, 5], jobs=1)
    assert outcomes[0].value == 1
    assert outcomes[2].value == 5
    assert outcomes[1].failed
    assert outcomes[1].value is None
    assert "ValueError" in outcomes[1].error
    assert "bad three" in outcomes[1].error


def test_sequential_on_outcome_fires_per_task_in_order():
    seen = []
    execute_tasks(
        _timed_square, [2, 4], jobs=1,
        on_outcome=lambda i, o: seen.append((i, o.value)),
    )
    assert seen == [(0, 4), (1, 16)]


def test_single_payload_runs_in_process_even_with_many_jobs():
    # jobs > 1 with one payload must not pay the pool spawn cost; the
    # in-process path is observable through two-tuple normalization
    # (the pool path would crash unpacking it).
    outcomes = execute_tasks(lambda x: (x, 0.0), [7], jobs=8)
    assert outcomes[0].value == 7


# -- pool path ----------------------------------------------------------------

def test_pool_returns_outcomes_in_payload_order():
    outcomes = execute_tasks(_timed_square, [3, 1, 2], jobs=2)
    assert [o.value for o in outcomes] == [9, 1, 4]
    assert all(o.seconds == 0.5 for o in outcomes)


def test_pool_records_failures_with_zero_seconds():
    outcomes = execute_tasks(_timed_fail_on_three, [1, 3, 5], jobs=2)
    assert outcomes[1].failed
    assert outcomes[1].seconds == 0.0
    assert "ValueError" in outcomes[1].error
    assert [outcomes[0].value, outcomes[2].value] == [1, 5]


def test_pool_on_outcome_converts_to_task_outcomes():
    seen = {}

    def hook(i, outcome):
        assert isinstance(outcome, TaskOutcome)
        seen[i] = outcome

    execute_tasks(_timed_fail_on_three, [1, 3], jobs=2, on_outcome=hook)
    assert seen[0].value == 1 and seen[0].seconds == 0.1
    assert seen[1].failed and seen[1].seconds == 0.0


def test_task_outcome_failed_property():
    assert not TaskOutcome(1, 0.0).failed
    assert TaskOutcome(None, 0.0, "boom").failed
