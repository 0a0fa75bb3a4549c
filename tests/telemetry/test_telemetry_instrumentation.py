"""Instrumentation sites: the DES engine, fair-share links, the PFS servers
and the experiment runner must report telemetry when enabled -- and behave
identically when disabled (the default)."""

import logging

import pytest

from repro import telemetry
from repro.des import Environment, FairShareLink
from repro.des.engine import SimulationError
from repro.experiments.runner import run_experiments
from repro.store import RunStore
from repro.telemetry import TELEMETRY


def ticker(env, n=50, dt=0.1):
    for _ in range(n):
        yield env.timeout(dt)


class TestEngineInstrumentation:
    def run_sim(self, until=None):
        env = Environment()
        env.process(ticker(env))
        result = env.run(until)
        return env, result

    def test_instrumented_run_matches_uninstrumented(self):
        env_off, _ = self.run_sim()
        telemetry.enable()
        env_on, _ = self.run_sim()
        assert env_on.now == env_off.now
        assert env_on.events_processed == env_off.events_processed

    def test_counters_match_events_processed(self):
        telemetry.enable()
        env, _ = self.run_sim()
        m = TELEMETRY.metrics
        assert m.counter("des.runs").value == 1
        assert m.counter("des.events.executed").value == env.events_processed
        # The queue drained to empty, so everything executed was scheduled --
        # except the process-init event, which predates run().
        assert m.counter("des.events.scheduled").value == env.events_processed - 1
        # The run span was recorded with its category.
        spans = TELEMETRY.tracer.spans
        assert [sp.name for sp in spans] == ["Environment.run"]
        assert spans[0].cat == "des"

    def test_instrumented_until_time(self):
        telemetry.enable()
        env, _ = self.run_sim(until=2.05)
        assert env.now == 2.05
        # 20 timeouts fired by t=2.05, plus the process-init event at t=0.
        assert env.events_processed == 21
        with pytest.raises(ValueError):
            env.run(until=1.0)  # in the past

    def test_instrumented_until_event(self):
        telemetry.enable()
        env = Environment()
        t = env.timeout(1.5, value="done")
        assert env.run(t) == "done"
        assert env.now == 1.5
        # Already-processed events return immediately.
        assert env.run(t) == "done"

    def test_instrumented_until_event_never_fires(self):
        telemetry.enable()
        env = Environment()
        env.timeout(1.0)
        never = env.event()
        with pytest.raises(SimulationError):
            env.run(never)

    def test_failed_run_still_counts_and_closes_span(self):
        telemetry.enable()
        env = Environment()

        def fail(env):
            yield env.timeout(1.0)
            raise RuntimeError("boom")

        env.process(fail(env))
        with pytest.raises(RuntimeError):
            env.run()
        assert TELEMETRY.metrics.counter("des.runs").value == 1
        sp = TELEMETRY.tracer.spans[0]
        assert sp.end_ns is not None and sp.args.get("error") is True

    def test_disabled_records_nothing(self):
        self.run_sim()
        assert len(TELEMETRY.tracer) == 0
        assert len(TELEMETRY.metrics) == 0


class TestFairShareInstrumentation:
    def run_link(self):
        env = Environment()
        link = FairShareLink(env, rate=100.0)

        def sender(env, nbytes):
            yield link.transfer(nbytes)

        env.process(sender(env, 100.0))
        env.process(sender(env, 200.0))
        env.run()

    def test_rebalance_counters(self):
        telemetry.enable()
        self.run_link()
        m = TELEMETRY.metrics
        assert m.counter("des.fairshare.rebalances").value >= 2
        assert m.gauge("des.fairshare.flows_high_water").value == 2

    def test_disabled_records_nothing(self):
        self.run_link()
        assert len(TELEMETRY.metrics) == 0


class TestPFSInstrumentation:
    def test_oss_and_mds_metrics_from_workload(self):
        from repro.cluster import tiny_cluster
        from repro.pfs import build_pfs
        from repro.simulate import run_workload
        from repro.workloads import IORConfig, IORWorkload

        telemetry.enable()
        KiB = 1024
        platform = tiny_cluster()
        pfs = build_pfs(platform)
        w = IORWorkload(IORConfig(block_size=64 * KiB, transfer_size=16 * KiB), 2)
        run_workload(platform, pfs, w)
        m = TELEMETRY.metrics
        assert m.counter("pfs.oss.rpcs").value > 0
        assert m.counter("pfs.oss.bytes").value >= 2 * 64 * KiB
        assert m.histogram("pfs.oss.queue_wait_seconds").count > 0
        assert m.counter("pfs.mds.ops").value > 0
        assert m.counter("iostack.stacks_built").value >= 1


class TestMPIInstrumentation:
    def test_collective_counter_and_run_span(self):
        from repro.cluster import tiny_cluster
        from repro.mpi import MPIRuntime
        from repro.mpi.runtime import round_robin_nodes

        telemetry.enable()
        platform = tiny_cluster()
        nodes = round_robin_nodes(
            [n.name for n in platform.compute_nodes], 4
        )
        rt = MPIRuntime(platform.env, platform.compute_fabric, nodes)

        def program(ctx):
            yield from ctx.barrier()
            return ctx.rank

        assert rt.run(program) == [0, 1, 2, 3]
        m = TELEMETRY.metrics
        # The barrier is counted once (rank 0), not once per rank.
        assert m.counter("mpi.collective.barrier").value == 1
        mpi_spans = [sp for sp in TELEMETRY.tracer.spans
                     if sp.name == "MPIRuntime.run"]
        assert len(mpi_spans) == 1
        assert mpi_spans[0].args == {"ranks": 4}


def stored_manifest(cache_dir):
    """The manifest of the newest run document in the store."""
    store = RunStore(cache_dir)
    return store.get(store.runs()[-1]["manifest"]).payload


class TestRunnerTelemetry:
    def test_manifest_written_and_consistent_across_cached_rerun(self, tmp_path):
        cache_dir = tmp_path / "cache"
        res1 = run_experiments(
            ids=["E3"], seeds=(0, 1), cache_dir=cache_dir, digest="a" * 64,
        )
        doc1 = stored_manifest(cache_dir)
        res2 = run_experiments(
            ids=["E3"], seeds=(0, 1), cache_dir=cache_dir, digest="a" * 64,
        )
        doc2 = stored_manifest(cache_dir)
        assert doc1["cache"] == {"hits": 0, "fresh": 2, "stale": 0, "corrupt": 0}
        assert doc2["cache"] == {"hits": 2, "fresh": 0, "stale": 0, "corrupt": 0}
        # Cached records hash to the same bytes the fresh run produced.
        assert [t["record_sha256"] for t in doc1["tasks"]] == \
            [t["record_sha256"] for t in doc2["tasks"]]
        assert [r.payload for r in res1] == [r.payload for r in res2]
        assert all(t["cached"] for t in doc2["tasks"])

    def test_no_manifest_flag(self, tmp_path):
        res = run_experiments(
            ids=["E3"], seeds=(0,), cache_dir=tmp_path / "cache",
            digest="a" * 64, manifest=False,
        )
        assert res[0].record is not None
        assert RunStore(tmp_path / "cache").runs() == []

    def test_stale_and_corrupt_counted_and_logged(self, tmp_path, caplog):
        from repro.experiments.runner import record_ref_name

        cache_dir = tmp_path / "cache"
        run_experiments(ids=["E3"], seeds=(0,), cache_dir=cache_dir,
                        digest="a" * 64, manifest=False)
        store = RunStore(cache_dir)
        ref = record_ref_name("E3", 0, "a" * 64)
        entry = store.get_ref(ref)

        # Corrupt: an object whose bytes no longer hash to its address is
        # counted, logged and recomputed (which heals it in place).
        store.object_path(entry["digest"]).write_text("{not json")
        with caplog.at_level(logging.WARNING, logger="repro.experiments.runner"):
            run_experiments(ids=["E3"], seeds=(0,), cache_dir=cache_dir,
                            digest="a" * 64)
        assert any("corrupt cache entry" in r.message for r in caplog.records)
        assert stored_manifest(cache_dir)["cache"]["corrupt"] == 1

        # Stale: a ref keyed on another source digest (same ref name) is
        # counted and logged.
        entry = store.get_ref(ref)
        entry["meta"]["source_digest"] = "f" * 64
        store.set_ref(ref, entry["digest"], meta=entry["meta"])
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="repro.experiments.runner"):
            run_experiments(ids=["E3"], seeds=(0,), cache_dir=cache_dir,
                            digest="a" * 64)
        assert any("stale cache ref" in r.message for r in caplog.records)
        assert stored_manifest(cache_dir)["cache"]["stale"] == 1

    def test_runner_spans_when_enabled(self, tmp_path):
        telemetry.enable()
        run_experiments(ids=["E3"], seeds=(0,), cache_dir=tmp_path / "cache",
                        manifest=False)
        names = [sp.name for sp in TELEMETRY.tracer.spans]
        assert "source_digest" in names
        assert names.count("experiment_task") == 1
        task_span = next(
            sp for sp in TELEMETRY.tracer.spans if sp.name == "experiment_task"
        )
        assert task_span.args == {"experiment": "E3", "seed": 0}

    def test_cache_counters_recorded_without_enabling(self, tmp_path):
        run_experiments(ids=["E3"], seeds=(0,), cache_dir=tmp_path / "cache",
                        digest="a" * 64, manifest=False)
        assert TELEMETRY.metrics.counter("runner.cache.miss").value == 1
        assert TELEMETRY.metrics.counter("runner.tasks.total").value == 1
        assert len(TELEMETRY.tracer) == 0  # but no spans: telemetry is off
