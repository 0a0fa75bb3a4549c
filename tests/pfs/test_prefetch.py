"""Unit tests for prediction-driven prefetching."""

import pytest

from repro.cluster import tiny_cluster
from repro.pfs import build_pfs
from repro.modeling.prefetch import PrefetchingReader

MiB = 1024 * 1024
KiB = 1024


def make_reader(depth=2, cache=64 * MiB, file_bytes=32 * MiB):
    platform = tiny_cluster()
    pfs = build_pfs(platform)
    client = pfs.client("c0", read_cache_bytes=cache)
    env = platform.env

    def setup(env):
        yield from client.create("/data", stripe_count=-1)
        yield from client.write("/data", 0, file_bytes)

    env.process(setup(env))
    env.run()
    return platform, client, PrefetchingReader(client, depth=depth)


def test_requires_cache_and_valid_depth():
    platform = tiny_cluster()
    pfs = build_pfs(platform)
    with pytest.raises(ValueError):
        PrefetchingReader(pfs.client("c0"))  # no cache
    with pytest.raises(ValueError):
        PrefetchingReader(pfs.client("c0", read_cache_bytes=MiB), depth=0)


def test_sequential_scan_with_think_time_benefits():
    """Prefetch overlaps fetches with compute: most reads become hits."""

    def scan(prefetch):
        platform, client, reader = make_reader(depth=2)
        env = platform.env
        t0 = env.now
        done = {}

        def app(env):
            for i in range(24):
                yield env.timeout(0.02)  # think time to overlap with
                if prefetch:
                    yield from reader.read("/data", i * MiB, MiB)
                else:
                    yield from client.read("/data", i * MiB, MiB)
            done["t"] = env.now - t0

        env.process(app(env))
        env.run()
        return done["t"], client, reader

    t_plain, client_plain, _ = scan(False)
    t_pf, client_pf, reader = scan(True)
    assert t_pf < t_plain
    assert client_pf.stats.cache_hits > 10
    assert reader.stats.accuracy > 0.5


def test_random_reads_gain_nothing():
    platform, client, reader = make_reader(depth=2)
    env = platform.env
    offsets = [(i * 7919) % 32 for i in range(24)]  # pseudo-random MiB slots

    def app(env):
        for off in offsets:
            yield from reader.read("/data", off * MiB, MiB)

    env.process(app(env))
    env.run()
    reader.finalize()
    assert reader.stats.useful_hits <= 2
    # Whatever was prefetched and never used is accounted as waste.
    assert reader.stats.wasted >= 0


def test_prefetch_stats_accuracy_bounds():
    platform, client, reader = make_reader()
    assert reader.stats.accuracy == 0.0
    env = platform.env

    def app(env):
        for i in range(8):
            yield from reader.read("/data", i * 256 * KiB, 256 * KiB)

    env.process(app(env))
    env.run()
    stats = reader.finalize()
    assert 0.0 <= stats.accuracy <= 1.0
    assert stats.issued >= stats.useful_hits


def test_prefetch_missing_file_counts_wasted():
    platform, client, reader = make_reader()
    env = platform.env

    def fetch(env):
        yield from reader._fetch("/nope", 0, KiB)

    env.process(fetch(env))
    env.run()
    assert reader.stats.wasted == 1
