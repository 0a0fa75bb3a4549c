"""Integration-style unit tests: client + filesystem on a tiny platform."""

import pytest

from repro.cluster import tiny_cluster
from repro.ops import OpKind
from repro.pfs import build_pfs

MiB = 1024 * 1024


@pytest.fixture
def setup():
    platform = tiny_cluster()
    pfs = build_pfs(platform)
    client = pfs.client("c0")
    return platform, pfs, client


def run(platform, gen):
    p = platform.env.process(gen)
    platform.env.run()
    return p.value


def test_create_write_read_roundtrip(setup):
    platform, pfs, client = setup

    def work(env):
        yield from client.create("/f", stripe_count=2)
        wt = yield from client.write("/f", 0, 8 * MiB)
        rt = yield from client.read("/f", 0, 8 * MiB)
        st = yield from client.stat("/f")
        return wt, rt, st

    wt, rt, st = run(platform, work(platform.env))
    assert wt > 0 and rt > 0
    assert st.size == 8 * MiB
    assert pfs.total_bytes_written() == 8 * MiB
    assert pfs.total_bytes_read() == 8 * MiB


def test_striping_spreads_bytes_over_osts(setup):
    platform, pfs, client = setup

    def work(env):
        yield from client.create("/f", stripe_count=4)
        yield from client.write("/f", 0, 8 * MiB)

    run(platform, work(platform.env))
    per_ost = [pfs.ost_device(i).stats.bytes_written for i in range(pfs.n_osts)]
    used = [b for b in per_ost if b > 0]
    assert len(used) == 4
    assert all(b == 2 * MiB for b in used)


def test_wider_stripe_is_faster_for_large_write(setup):
    platform, pfs, client = setup

    def timed_write(path, count):
        def work(env):
            yield from client.create(path, stripe_count=count)
            dt = yield from client.write(path, 0, 64 * MiB)
            return dt

        return run(platform, work(platform.env))

    t1 = timed_write("/narrow", 1)
    t4 = timed_write("/wide", 4)
    assert t4 < t1


def test_write_requires_existing_file(setup):
    platform, pfs, client = setup

    def work(env):
        yield from client.write("/missing", 0, 1024)

    with pytest.raises(FileNotFoundError):
        run(platform, work(platform.env))


def test_open_create_flag(setup):
    platform, pfs, client = setup

    def work(env):
        yield from client.open("/new", create=True)
        inode = yield from client.open("/new", create=True)  # now exists
        return inode

    inode = run(platform, work(platform.env))
    assert inode.path == "/new"


def test_metadata_ops_update_namespace(setup):
    platform, pfs, client = setup

    def work(env):
        yield from client.mkdir("/d")
        yield from client.create("/d/f")
        listing = yield from client.readdir("/d")
        yield from client.unlink("/d/f")
        yield from client.rmdir("/d")
        return listing

    listing = run(platform, work(platform.env))
    assert listing == ["f"]
    assert not pfs.namespace.exists("/d")


def test_observers_receive_records(setup):
    platform, pfs, client = setup
    records = []
    client.observers.append(records.append)

    def work(env):
        yield from client.create("/f")
        yield from client.write("/f", 0, MiB)
        yield from client.read("/f", 0, MiB)

    run(platform, work(platform.env))
    kinds = [r.kind for r in records]
    assert OpKind.CREATE in kinds
    assert OpKind.WRITE in kinds and OpKind.READ in kinds
    write_rec = next(r for r in records if r.kind == OpKind.WRITE)
    assert write_rec.nbytes == MiB
    assert write_rec.layer == "pfs"
    assert write_rec.end > write_rec.start


def test_read_cache_hit_is_fast(setup):
    platform, pfs, _ = setup
    client = pfs.client("c1", read_cache_bytes=64 * MiB)

    def work(env):
        yield from client.create("/f")
        yield from client.write("/f", 0, 4 * MiB)
        t_miss = yield from client.read("/f", 0, 4 * MiB)
        t_hit = yield from client.read("/f", 0, 4 * MiB)
        return t_miss, t_hit

    t_miss, t_hit = run(platform, work(platform.env))
    assert t_hit < t_miss / 10
    assert client.stats.cache_hits == 1
    assert client.stats.cache_misses == 1


def test_write_invalidates_cache(setup):
    platform, pfs, _ = setup
    client = pfs.client("c1", read_cache_bytes=64 * MiB)

    def work(env):
        yield from client.create("/f")
        yield from client.write("/f", 0, MiB)
        yield from client.read("/f", 0, MiB)  # populate
        yield from client.write("/f", 0, MiB)  # invalidate
        yield from client.read("/f", 0, MiB)  # miss again
        return None

    run(platform, work(platform.env))
    assert client.stats.cache_misses == 2


def test_cache_eviction_lru(setup):
    platform, pfs, _ = setup
    client = pfs.client("c1", read_cache_bytes=2 * MiB)

    def work(env):
        yield from client.create("/f")
        yield from client.write("/f", 0, 4 * MiB)
        yield from client.read("/f", 0, MiB)  # block 0
        yield from client.read("/f", MiB, MiB)  # block 1
        yield from client.read("/f", 2 * MiB, MiB)  # block 2 evicts block 0
        yield from client.read("/f", 0, MiB)  # miss: was evicted
        return None

    run(platform, work(platform.env))
    assert client.stats.cache_hits == 0
    assert client.stats.cache_misses == 4


def test_layout_validation(setup):
    _, pfs, _ = setup
    with pytest.raises(ValueError):
        pfs.new_layout(stripe_count=0)
    with pytest.raises(ValueError):
        pfs.new_layout(stripe_count=pfs.n_osts + 1)
    full = pfs.new_layout(stripe_count=-1)
    assert full.stripe_count == pfs.n_osts


def test_layout_allocation_round_robins(setup):
    _, pfs, _ = setup
    a = pfs.new_layout(stripe_count=2)
    b = pfs.new_layout(stripe_count=2)
    assert set(a.ost_ids) != set(b.ost_ids)


def test_client_on_unknown_node_rejected(setup):
    _, pfs, _ = setup
    with pytest.raises(KeyError):
        pfs.client("nonexistent")


def test_concurrent_clients_contend():
    """Two clients hammering the same OST are slower than one alone."""

    def run_jobs(n_jobs):
        platform = tiny_cluster()
        pfs = build_pfs(platform)
        results: list = []

        def job(client, path):
            # Reset the allocator so every file lands on OST 0.
            pfs._alloc_cursor = 0
            yield from client.create(path, stripe_count=1)
            dt = yield from client.write(path, 0, 32 * MiB)
            results.append(dt)

        for i in range(n_jobs):
            platform.env.process(job(pfs.client(f"c{i}"), f"/f{i}"))
        platform.env.run()
        return max(results)

    alone = run_jobs(1)
    together = run_jobs(2)
    # Same device serves twice the bytes: the slower job takes ~2x.
    assert together > 1.5 * alone
