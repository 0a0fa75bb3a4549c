#!/usr/bin/env python
"""A scheduled day at the center: batch queue + shared storage.

Combines the batch scheduler (FCFS vs EASY backfill) with real workload
bodies running against one shared parallel file system.  Job runtimes are
therefore *I/O-dependent* -- a job slowed by storage contention occupies
its nodes longer and delays the queue, the coupling production centers
live with and simulation studies (Azevedo et al. [37]) model.

Run:  python examples/scheduled_center.py
"""

from repro.cluster import BatchScheduler, tiny_cluster
from repro.pfs import build_pfs
from repro.simulate import launch_workload
from repro.workloads import (
    CheckpointConfig,
    CheckpointWorkload,
    H5BenchConfig,
    H5BenchWorkload,
    MdtestConfig,
    MdtestWorkload,
)

MiB = 1024 * 1024


def run_day(policy: str):
    platform = tiny_cluster(seed=33)
    pfs = build_pfs(platform)
    env = platform.env
    sched = BatchScheduler(env, total_nodes=4, policy=policy)

    def body(workloads, nodes=None):
        """Job body: launch each workload's ranks and wait for them
        (``run_workload`` would drive the clock itself, which a job body
        must not do -- the scheduler owns it)."""

        def body_gen():
            for w in workloads:
                yield env.all_of(launch_workload(platform, pfs, w, nodes))

        return body_gen


    def mdtest_body(i):
        """Each mdtest job gets its own directory tree (no collisions)."""
        w = MdtestWorkload(
            MdtestConfig(files_per_rank=32, dir_prefix=f"/mdtest{i}"), 1
        )
        return body([w], [platform.compute_nodes[0].name])

    # The morning's submissions, arriving over time.
    def submissions(env):
        checkpoint = CheckpointWorkload(
            CheckpointConfig(bytes_per_rank=16 * MiB, steps=3,
                             compute_seconds=0.5, fsync=False),
            n_ranks=4,
        )
        sched.submit("checkpoint", n_nodes=4, runtime_estimate=8.0,
                     body=body([checkpoint]))
        yield env.timeout(0.5)
        h5bench = H5BenchWorkload(
            H5BenchConfig(dims=(256 * 4, 64), steps=2, mode="write+read",
                          compute_seconds=0.1),
            n_ranks=4,
        )
        sched.submit("h5bench", n_nodes=4, runtime_estimate=6.0,
                     body=body([h5bench]))
        yield env.timeout(0.5)
        for i in range(3):
            sched.submit(f"mdtest-{i}", n_nodes=1, runtime_estimate=2.0,
                         body=mdtest_body(i))

    env.process(submissions(env))
    env.run()
    return sched


def main() -> None:
    for policy in ("fcfs", "backfill"):
        sched = run_day(policy)
        print(f"policy={policy}: {sched.jobs_completed} jobs, "
              f"makespan {sched.makespan():.2f}s, "
              f"mean wait {sched.mean_wait():.2f}s")
        for job in sched.log.jobs():
            print(f"  {job.name:<12} submit {job.submit_time:>5.2f} "
                  f"start {job.start_time:>6.2f} end {job.end_time:>6.2f} "
                  f"nodes {job.n_nodes}")
        print()

    fcfs = run_day("fcfs")
    easy = run_day("backfill")
    assert easy.mean_wait() <= fcfs.mean_wait()
    print("scheduled_center OK: backfilling reduces queueing delay on the "
          "same workload mix")


if __name__ == "__main__":
    main()
