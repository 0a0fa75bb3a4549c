"""Execution-driver tests: per-rank timing fidelity and node placement."""

import dataclasses
import logging

import pytest

from repro.cluster.platform import tiny_spec
from repro.ops import IOOp, OpKind
from repro.scenario import ScenarioSpec, WorkloadSpec, build
from repro.simulate import run_workload
from repro.workloads.base import OpStreamWorkload, Workload

KiB = 1024
MiB = 1024 * KiB


class StaggeredWorkload(Workload):
    """Ranks finish at deliberately different times: rank r computes
    ``(r + 1) * step`` seconds and does no I/O."""

    def __init__(self, n_ranks=3, step=1.0, name="stagger"):
        self.name = name
        self.n_ranks = n_ranks
        self.step = step

    def program(self, ctx):
        yield from ctx.compute((ctx.rank + 1) * self.step)


def _harness(n_compute=4):
    spec = ScenarioSpec(
        name="execsim-test",
        platform=dataclasses.replace(tiny_spec(), n_compute=n_compute),
        workloads=(WorkloadSpec("ior", 2, {"block_size": 64 * KiB,
                                           "transfer_size": 16 * KiB}),),
    )
    return build(spec)


def test_per_rank_seconds_are_actual_finish_times():
    harness = _harness()
    result = harness.run(StaggeredWorkload(n_ranks=3, step=1.0))
    assert result.per_rank_seconds == pytest.approx([1.0, 2.0, 3.0])
    # The aggregate is the straggler, not a copy-filled average.
    assert result.duration == pytest.approx(max(result.per_rank_seconds))
    assert result.per_rank_seconds[0] < result.duration


def test_per_rank_seconds_match_rank_count_for_io_workloads():
    harness = _harness()
    from repro.scenario import instantiate_workloads

    (_, w), = instantiate_workloads(harness.scenario)
    result = harness.run(w)
    assert len(result.per_rank_seconds) == w.n_ranks
    assert all(0 < t <= result.duration + 1e-12 for t in result.per_rank_seconds)


def test_run_concurrently_disjoint_slices_no_warning(caplog):
    harness = _harness(n_compute=4)
    with caplog.at_level(logging.WARNING, logger="repro.simulate.execsim"):
        results = harness.run_concurrently(
            [StaggeredWorkload(2, 1.0, "a"), StaggeredWorkload(2, 1.0, "b")]
        )
    assert not caplog.records
    for r in results:
        assert "node_overlap" not in r.extra
        assert len(r.per_rank_seconds) == 2


def test_run_concurrently_oversubscription_warns_and_annotates(caplog):
    harness = _harness(n_compute=2)
    workloads = [StaggeredWorkload(1, 1.0, f"w{i}") for i in range(3)]
    with caplog.at_level(logging.WARNING, logger="repro.simulate.execsim"):
        results = harness.run_concurrently(workloads)
    assert any("node slices overlap" in r.message for r in caplog.records)
    for r in results:
        assert r.extra["node_overlap"] == 1.0
        assert r.extra["nodes_shared_with"] == 2.0


def test_run_concurrently_durations_overlap():
    """Concurrent workloads share simulated time: each result's duration is
    measured from the common start."""
    harness = _harness()
    results = harness.run_concurrently(
        [StaggeredWorkload(2, 1.0, "short"), StaggeredWorkload(2, 2.0, "long")]
    )
    short, long_ = results
    assert short.duration == pytest.approx(2.0)
    assert long_.duration == pytest.approx(4.0)
    assert harness.platform.env.now == pytest.approx(4.0)


def _uneven_writers():
    """Rank 0 writes 8 MiB, rank 1 writes 1 MiB: rank 1 finishes first."""
    return OpStreamWorkload("uneven", [
        [IOOp(OpKind.CREATE, f"/uneven{r}"),
         IOOp(OpKind.WRITE, f"/uneven{r}", 0, size),
         IOOp(OpKind.CLOSE, f"/uneven{r}")]
        for r, size in enumerate((8 * MiB, MiB))
    ])


def test_run_concurrently_reports_per_rank_seconds_by_rank():
    alone = _harness()
    expected = run_workload(alone.platform, alone.pfs, _uneven_writers())
    assert expected.per_rank_seconds[0] > expected.per_rank_seconds[1]
    result, = _harness().run_concurrently([_uneven_writers()])
    assert result.per_rank_seconds == expected.per_rank_seconds


def test_misspelt_stack_knob_raises_before_any_event():
    harness = _harness()
    env = harness.platform.env
    with pytest.raises(TypeError, match="read_cache_byte"):
        harness.run(StaggeredWorkload(), read_cache_byte=MiB)
    assert env.now == 0.0
    assert env.events_processed == 0
