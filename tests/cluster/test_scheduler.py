"""Unit tests for the batch scheduler."""

import pytest

from repro.cluster.scheduler import BatchScheduler
from repro.des import Environment


def make(policy="fcfs", nodes=8):
    env = Environment()
    return env, BatchScheduler(env, total_nodes=nodes, policy=policy)


def test_validation():
    env = Environment()
    with pytest.raises(ValueError):
        BatchScheduler(env, total_nodes=0)
    with pytest.raises(ValueError):
        BatchScheduler(env, total_nodes=4, policy="sjf")
    sched = BatchScheduler(env, total_nodes=4)
    with pytest.raises(ValueError):
        sched.submit("big", n_nodes=8, runtime_estimate=1.0)
    with pytest.raises(ValueError):
        sched.submit("zero", n_nodes=1, runtime_estimate=0)


def test_immediate_start_when_nodes_free():
    env, sched = make()
    sched.submit("a", n_nodes=4, runtime_estimate=10.0)
    env.run()
    job = sched.log.job(1)
    assert job.wait_time == 0.0
    assert job.elapsed == pytest.approx(10.0)
    assert sched.available == 8


def test_fcfs_queues_when_full():
    env, sched = make()
    sched.submit("a", n_nodes=8, runtime_estimate=10.0)
    sched.submit("b", n_nodes=8, runtime_estimate=5.0)
    env.run()
    a, b = sched.log.job(1), sched.log.job(2)
    assert a.start_time == 0.0
    assert b.start_time == pytest.approx(10.0)
    assert b.wait_time == pytest.approx(10.0)


def test_fcfs_head_blocks_small_jobs():
    """Strict FCFS: a small job cannot jump a stuck wide head."""
    env, sched = make("fcfs")
    sched.submit("wide0", n_nodes=6, runtime_estimate=10.0)
    sched.submit("wide1", n_nodes=6, runtime_estimate=10.0)  # head, waits
    sched.submit("small", n_nodes=1, runtime_estimate=1.0)
    env.run()
    small = sched.log.job(3)
    assert small.start_time >= 10.0  # waited behind the head


def test_backfill_lets_small_job_jump_safely():
    """EASY backfill: the small job runs in the hole and does not delay
    the reserved head."""
    env, sched = make("backfill")
    sched.submit("wide0", n_nodes=6, runtime_estimate=10.0)
    sched.submit("wide1", n_nodes=6, runtime_estimate=10.0)
    sched.submit("small", n_nodes=1, runtime_estimate=1.0)
    env.run()
    small = sched.log.job(3)
    head = sched.log.job(2)
    assert small.start_time == 0.0  # backfilled immediately
    assert head.start_time == pytest.approx(10.0)  # not delayed


def test_backfill_rejects_job_that_would_delay_head():
    env, sched = make("backfill")
    sched.submit("wide0", n_nodes=6, runtime_estimate=10.0)
    sched.submit("wide1", n_nodes=8, runtime_estimate=10.0)  # needs all nodes
    # 2 nodes free now but estimate (20s) crosses the head's reservation
    # (t=10) and the head needs every node: may NOT backfill.
    sched.submit("long-small", n_nodes=2, runtime_estimate=20.0)
    env.run()
    assert sched.log.job(3).start_time >= 10.0


def test_backfill_improves_mean_wait():
    def run(policy):
        env, sched = make(policy)
        sched.submit("w0", n_nodes=6, runtime_estimate=10.0)
        sched.submit("w1", n_nodes=6, runtime_estimate=10.0)
        for i in range(4):
            sched.submit(f"s{i}", n_nodes=1, runtime_estimate=2.0)
        env.run()
        return sched.mean_wait()

    assert run("backfill") < run("fcfs")


def test_job_body_drives_real_duration():
    env, sched = make()
    marks = []

    def body():
        yield env.timeout(3.0)
        marks.append(env.now)

    done = sched.submit("real", n_nodes=2, runtime_estimate=10.0, body=body)
    env.run(until=done)
    assert marks == [3.0]
    assert sched.log.job(1).elapsed == pytest.approx(3.0)  # actual, not estimate


def test_underestimated_job_still_completes_and_unblocks():
    """A job running past its estimate delays the backfill reservation but
    everything still completes."""
    env, sched = make("backfill", nodes=4)

    def long_body():
        yield env.timeout(20.0)  # estimate says 5

    sched.submit("liar", n_nodes=4, runtime_estimate=5.0, body=long_body)
    sched.submit("next", n_nodes=4, runtime_estimate=1.0)
    env.run()
    assert sched.jobs_completed == 2
    assert sched.log.job(2).start_time == pytest.approx(20.0)


def test_stats_and_makespan():
    env, sched = make()
    sched.submit("a", n_nodes=8, runtime_estimate=4.0)
    sched.submit("b", n_nodes=8, runtime_estimate=4.0)
    env.run()
    assert sched.makespan() == pytest.approx(8.0)
    assert sched.mean_wait() == pytest.approx(2.0)
    env2, sched2 = make()
    with pytest.raises(ValueError):
        sched2.mean_wait()


def test_done_event_returns_job_id():
    env, sched = make()
    done = sched.submit("a", n_nodes=1, runtime_estimate=1.0)
    result = env.run(until=done)
    assert result == 1
