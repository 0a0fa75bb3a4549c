"""Unit tests for the HDF5-like layer: datasets, hyperslabs, chunking."""

import pytest

from repro.cluster import tiny_cluster
from repro.iostack.hdf5 import (
    DATA_ALIGNMENT,
    OBJECT_HEADER_BYTES,
    SUPERBLOCK_BYTES,
    Dataset,
)
from repro.iostack.stack import IOStackBuilder
from repro.mpi import MPIRuntime
from repro.mpi.runtime import round_robin_nodes
from repro.ops import OpKind
from repro.pfs import build_pfs

KiB = 1024


class TestDatasetExtents:
    def make(self, shape, itemsize=8, chunks=None, data_offset=0):
        return Dataset("d", tuple(shape), itemsize, data_offset, chunks)

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make((0, 4))
        with pytest.raises(ValueError):
            Dataset("d", (4,), 0, 0)
        with pytest.raises(ValueError):
            self.make((4, 4), chunks=(2,))
        with pytest.raises(ValueError):
            self.make((4, 4), chunks=(2, 0))

    def test_full_selection_is_one_extent(self):
        d = self.make((10, 20), itemsize=4, data_offset=100)
        assert d.extents((0, 0), (10, 20)) == [(100, 800)]

    def test_row_selection_contiguous(self):
        d = self.make((10, 20), itemsize=1)
        # Rows 2..4 fully selected: contiguous block of 3*20 bytes.
        assert d.extents((2, 0), (3, 20)) == [(40, 60)]

    def test_column_selection_strided(self):
        d = self.make((4, 10), itemsize=1)
        # One column: 4 separate 1-byte extents, stride 10.
        ext = d.extents((0, 3), (4, 1))
        assert ext == [(3, 1), (13, 1), (23, 1), (33, 1)]

    def test_block_selection_2d(self):
        d = self.make((4, 10), itemsize=1)
        ext = d.extents((1, 2), (2, 3))
        assert ext == [(12, 3), (22, 3)]

    def test_3d_interior_selection(self):
        d = self.make((2, 3, 4), itemsize=1)
        ext = d.extents((0, 1, 0), (2, 1, 4))
        # Full last dim, one middle index, both outer: 2 runs of 4 bytes.
        assert ext == [(4, 4), (16, 4)]

    def test_selection_out_of_bounds_rejected(self):
        d = self.make((4, 4))
        with pytest.raises(ValueError):
            d.extents((0, 0), (5, 4))
        with pytest.raises(ValueError):
            d.extents((3, 0), (2, 4))

    def test_nbytes(self):
        assert self.make((10, 10), itemsize=8).nbytes == 800

    def test_chunked_single_chunk(self):
        d = self.make((8, 8), itemsize=1, chunks=(4, 4))
        ext = d.extents((0, 0), (2, 2))  # inside chunk (0, 0)
        assert ext == [(0, 16)]

    def test_chunked_selection_amplifies_to_whole_chunks(self):
        d = self.make((8, 8), itemsize=1, chunks=(4, 4))
        # 2x2 selection straddling all four chunks -> 4 whole chunks = 64 B.
        ext = d.extents((3, 3), (2, 2))
        assert sum(n for _, n in ext) == 4 * 16

    def test_chunked_full_selection_reads_all_chunks(self):
        d = self.make((8, 8), itemsize=1, chunks=(4, 4))
        ext = d.extents((0, 0), (8, 8))
        assert sum(n for _, n in ext) == 64
        # All chunks are adjacent in the file: coalesces to one extent.
        assert ext == [(0, 64)]

    def test_chunk_nbytes_requires_chunked(self):
        with pytest.raises(ValueError):
            self.make((4, 4)).chunk_nbytes


def make_world(n_ranks=4):
    platform = tiny_cluster()
    pfs = build_pfs(platform)
    nodes = round_robin_nodes([n.name for n in platform.compute_nodes], n_ranks)
    rt = MPIRuntime(platform.env, platform.compute_fabric, nodes)
    builder = IOStackBuilder(pfs, rt)
    return platform, pfs, rt, builder


class TestH5File:
    def test_create_writes_superblock(self):
        platform, pfs, rt, builder = make_world()

        def program(ctx):
            yield from ctx.io.h5.create("/out.h5")
            yield from ctx.io.h5.close()

        rt.run(program, io_factory=builder.io_factory)
        assert pfs.namespace.lookup("/out.h5").size >= SUPERBLOCK_BYTES

    def test_dataset_allocation_aligned_and_disjoint(self):
        platform, pfs, rt, builder = make_world(n_ranks=2)

        def program(ctx):
            yield from ctx.io.h5.create("/out.h5")
            d1 = yield from ctx.io.h5.create_dataset("a", (1024,), 8)
            d2 = yield from ctx.io.h5.create_dataset("b", (1024,), 8)
            yield from ctx.io.h5.close()
            return d1.data_offset, d2.data_offset

        results = rt.run(program, io_factory=builder.io_factory)
        off1, off2 = results[0]
        assert results[0] == results[1]  # same view on both ranks
        assert off1 % DATA_ALIGNMENT == 0 and off2 % DATA_ALIGNMENT == 0
        assert off2 >= off1 + 1024 * 8

    def test_duplicate_dataset_rejected(self):
        platform, pfs, rt, builder = make_world(n_ranks=1)

        def program(ctx):
            yield from ctx.io.h5.create("/out.h5")
            yield from ctx.io.h5.create_dataset("a", (8,), 8)
            try:
                yield from ctx.io.h5.create_dataset("a", (8,), 8)
            except FileExistsError:
                return "caught"

        assert rt.run(program, io_factory=builder.io_factory) == ["caught"]

    def test_parallel_hyperslab_write(self):
        platform, pfs, rt, builder = make_world(n_ranks=4)

        def program(ctx):
            h5 = ctx.io.h5
            yield from h5.create("/out.h5")
            dset = yield from h5.create_dataset("grid", (64, 256), 8)
            rows = 64 // ctx.size
            yield from h5.write(dset, (ctx.rank * rows, 0), (rows, 256), collective=True)
            yield from h5.close()

        rt.run(program, io_factory=builder.io_factory)
        # Superblock + header + 64*256*8 data bytes reached the PFS.
        expected_data = 64 * 256 * 8
        assert pfs.total_bytes_written() == (
            SUPERBLOCK_BYTES + OBJECT_HEADER_BYTES + expected_data
        )

    def test_read_back_hyperslab(self):
        platform, pfs, rt, builder = make_world(n_ranks=2)

        def program(ctx):
            h5 = ctx.io.h5
            yield from h5.create("/out.h5")
            dset = yield from h5.create_dataset("x", (128,), 8)
            yield from h5.write(dset, (ctx.rank * 64,), (64,), collective=True)
            dt = yield from h5.read(dset, (ctx.rank * 64,), (64,), collective=False)
            yield from h5.close()
            return dt

        results = rt.run(program, io_factory=builder.io_factory)
        assert all(dt > 0 for dt in results)
        assert pfs.total_bytes_read() == 128 * 8

    def test_records_emitted_at_hdf5_layer(self):
        platform, pfs, rt, builder = make_world(n_ranks=1)
        records = []
        builder.observers.append(
            lambda r: records.append(r) if r.layer == "hdf5" else None
        )

        def program(ctx):
            h5 = ctx.io.h5
            yield from h5.create("/out.h5")
            dset = yield from h5.create_dataset("x", (64,), 8)
            yield from h5.write(dset, (0,), (64,), collective=False)
            yield from h5.close()

        rt.run(program, io_factory=builder.io_factory)
        kinds = [r.kind for r in records]
        assert OpKind.CREATE in kinds and OpKind.WRITE in kinds and OpKind.CLOSE in kinds
        w = next(r for r in records if r.kind == OpKind.WRITE)
        assert w.extra["dataset"] == "x"
        assert w.nbytes == 64 * 8

    def test_operations_require_open_file(self):
        platform, pfs, rt, builder = make_world(n_ranks=1)

        def program(ctx):
            try:
                yield from ctx.io.h5.create_dataset("x", (8,), 8)
            except RuntimeError:
                return "caught"

        assert rt.run(program, io_factory=builder.io_factory) == ["caught"]

    def test_unknown_dataset_lookup(self):
        platform, pfs, rt, builder = make_world(n_ranks=1)

        def program(ctx):
            yield from ctx.io.h5.create("/out.h5")
            try:
                ctx.io.h5.dataset("nope")
            except KeyError:
                return "caught"

        assert rt.run(program, io_factory=builder.io_factory) == ["caught"]
