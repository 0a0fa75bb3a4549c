"""Unit tests for the block device models."""

import pytest

from repro.cluster import DiskDevice, SSDDevice
from repro.cluster.devices import BlockDevice
from repro.des import Environment


def run_access(env, dev, offset, nbytes, is_write=True):
    def proc(env):
        latency = yield from dev.access(offset, nbytes, is_write)
        return latency

    return env.process(proc(env))


def test_invalid_parameters_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        BlockDevice(env, "bad", bandwidth=0, seek_time=0)
    with pytest.raises(ValueError):
        BlockDevice(env, "bad", bandwidth=1, seek_time=-1)


def test_sequential_write_time_is_seek_plus_transfer():
    env = Environment()
    dev = BlockDevice(env, "d", bandwidth=100.0, seek_time=1.0, op_overhead=0.0)
    p = run_access(env, dev, 0, 200)
    env.run()
    # First access always seeks (unknown head position): 1 + 200/100 = 3.
    assert p.value == pytest.approx(3.0)


def test_sequential_second_access_skips_seek():
    env = Environment()
    dev = BlockDevice(env, "d", bandwidth=100.0, seek_time=1.0)

    def proc(env):
        yield from dev.access(0, 100, True)
        t0 = env.now
        yield from dev.access(100, 100, True)  # continues at head position
        return env.now - t0

    p = env.process(proc(env))
    env.run()
    assert p.value == pytest.approx(1.0)  # no seek
    assert dev.stats.seeks == 1


def test_random_access_pays_seek_every_time():
    env = Environment()
    dev = BlockDevice(env, "d", bandwidth=100.0, seek_time=1.0)

    def proc(env):
        yield from dev.access(0, 10, False)
        yield from dev.access(5000, 10, False)
        yield from dev.access(100, 10, False)

    env.process(proc(env))
    env.run()
    assert dev.stats.seeks == dev.stats.ops == 3


def test_single_channel_serializes_concurrent_access():
    env = Environment()
    dev = BlockDevice(env, "d", bandwidth=100.0, seek_time=0.0, channels=1)
    p1 = run_access(env, dev, 0, 100)
    p2 = run_access(env, dev, 0, 100)
    env.run()
    assert p1.value == pytest.approx(1.0)
    assert p2.value == pytest.approx(2.0)  # waited for the first


def test_multi_channel_allows_parallel_access():
    env = Environment()
    dev = BlockDevice(env, "d", bandwidth=100.0, seek_time=0.0, channels=2)
    p1 = run_access(env, dev, 0, 100)
    p2 = run_access(env, dev, 0, 100)
    env.run()
    assert p1.value == pytest.approx(1.0)
    assert p2.value == pytest.approx(1.0)


def test_stats_accumulate():
    env = Environment()
    dev = BlockDevice(env, "d", bandwidth=1000.0, seek_time=0.0)

    def proc(env):
        yield from dev.access(0, 500, True)
        yield from dev.access(500, 300, False)

    env.process(proc(env))
    env.run()
    assert dev.stats.writes == 1 and dev.stats.reads == 1
    assert dev.stats.bytes_written == 500
    assert dev.stats.bytes_read == 300
    assert dev.stats.bytes_total == 800
    assert dev.stats.ops == 2


def test_disk_slower_than_ssd_for_random_small_io():
    """The device-level version of claim C3's mechanism."""

    def total_time(dev_cls):
        env = Environment()
        dev = dev_cls(env, "d")

        def proc(env):
            # 100 random 4 KiB reads scattered over the device.
            for i in range(100):
                offset = (i * 7919 * 4096) % (1 << 30)
                yield from dev.access(offset, 4096, False)

        env.process(proc(env))
        env.run()
        return env.now

    assert total_time(DiskDevice) > 20 * total_time(SSDDevice)


def test_negative_access_rejected():
    env = Environment()
    dev = BlockDevice(env, "d", bandwidth=10.0, seek_time=0.0)
    gen = dev.access(-1, 10, True)
    with pytest.raises(ValueError):
        next(gen)


def test_utilization_bounded():
    env = Environment()
    dev = BlockDevice(env, "d", bandwidth=100.0, seek_time=0.0)
    run_access(env, dev, 0, 100)
    env.run()
    assert 0.0 < dev.utilization() <= 1.0
