"""HDF5-like high-level I/O library.

The top of paper Fig. 2's stack.  Provides the abstractions applications
actually program against -- files containing named n-dimensional datasets,
written/read through *hyperslab* selections -- and translates them into the
byte extents the MPI-IO layer understands:

* **contiguous layout**: row-major; a hyperslab becomes one extent per
  non-contiguous row run (with full-row selections merging into single
  large extents);
* **chunked layout**: the dataset is stored as fixed-shape chunks; any
  selection touches whole chunks, so small unaligned accesses amplify --
  the classic chunking trade-off.

Library metadata traffic is modelled too: the file header and per-dataset
object headers are small writes/reads, which is how HDF5 shows up in
metadata-sensitive traces (tf-Darshan [24] observes exactly this pattern
in ML workloads).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.iostack.mpiio import MPIIOFile, MPIIOLayer
from repro.ops import IORecord, OpKind
from repro.pfs.extents import Extent, coalesce

#: Bytes of file-level metadata (superblock) at offset 0.
SUPERBLOCK_BYTES = 2048
#: Bytes of per-dataset object header.
OBJECT_HEADER_BYTES = 512
#: Alignment of dataset data regions.
DATA_ALIGNMENT = 4096


@dataclass
class Dataset:
    """A named n-dimensional array inside an :class:`H5File`.

    Attributes
    ----------
    name:
        Dataset name.
    shape:
        Dimension sizes.
    itemsize:
        Bytes per element.
    data_offset:
        File offset where the data region starts.
    chunks:
        Chunk shape for chunked layout, ``None`` for contiguous.
    """

    name: str
    shape: Tuple[int, ...]
    itemsize: int
    data_offset: int
    chunks: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if not self.shape or any(s <= 0 for s in self.shape):
            raise ValueError(f"invalid shape {self.shape}")
        if self.itemsize <= 0:
            raise ValueError("itemsize must be positive")
        if self.chunks is not None:
            if len(self.chunks) != len(self.shape):
                raise ValueError("chunk rank must match dataset rank")
            if any(c <= 0 for c in self.chunks):
                raise ValueError("chunk dims must be positive")

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape)) * self.itemsize

    @property
    def chunk_nbytes(self) -> int:
        if self.chunks is None:
            raise ValueError("dataset is not chunked")
        return int(np.prod(self.chunks)) * self.itemsize

    def _chunk_grid(self) -> Tuple[int, ...]:
        assert self.chunks is not None
        return tuple(
            math.ceil(s / c) for s, c in zip(self.shape, self.chunks)
        )

    def _validate_selection(self, start: Tuple[int, ...], count: Tuple[int, ...]) -> None:
        if len(start) != len(self.shape) or len(count) != len(self.shape):
            raise ValueError("selection rank must match dataset rank")
        for st, ct, sh in zip(start, count, self.shape):
            if st < 0 or ct <= 0 or st + ct > sh:
                raise ValueError(
                    f"selection start={start} count={count} exceeds shape {self.shape}"
                )

    def extents(self, start: Tuple[int, ...], count: Tuple[int, ...]) -> List[Extent]:
        """File byte extents covering the hyperslab ``[start, start+count)``.

        Contiguous layout returns minimal row-run extents (coalesced);
        chunked layout returns one extent per touched chunk (whole chunks,
        modelling HDF5's chunk-granular I/O).
        """
        self._validate_selection(tuple(start), tuple(count))
        if self.chunks is None:
            return self._contiguous_extents(tuple(start), tuple(count))
        return self._chunked_extents(tuple(start), tuple(count))

    def _contiguous_extents(self, start, count) -> List[Extent]:
        ndim = len(self.shape)
        # Largest k such that dims k..ndim-1 are fully selected: those merge
        # into single runs with dim k-1's index.
        k = ndim
        while k > 0 and start[k - 1] == 0 and count[k - 1] == self.shape[k - 1]:
            k -= 1
        strides = [self.itemsize] * ndim
        for d in range(ndim - 2, -1, -1):
            strides[d] = strides[d + 1] * self.shape[d + 1]
        if k == 0:
            return [(self.data_offset, self.nbytes)]
        # Run length: count[k-1] copies of the fully-selected suffix... but
        # only if dims > k-1 fully selected; runs break at dim k-1 only when
        # the suffix after it is full.
        run_dim = k - 1
        run_len = count[run_dim] * strides[run_dim]
        outer_dims = range(run_dim)
        out: List[Extent] = []
        for idx in np.ndindex(*[count[d] for d in outer_dims]):
            off = self.data_offset
            for d, i in zip(outer_dims, idx):
                off += (start[d] + i) * strides[d]
            off += start[run_dim] * strides[run_dim]
            out.append((off, run_len))
        return coalesce(out)

    def _chunked_extents(self, start, count) -> List[Extent]:
        grid = self._chunk_grid()
        lo = [s // c for s, c in zip(start, self.chunks)]
        hi = [(s + ct - 1) // c for s, ct, c in zip(start, count, self.chunks)]
        out: List[Extent] = []
        for idx in np.ndindex(*[h - l + 1 for l, h in zip(lo, hi)]):
            chunk_idx = tuple(l + i for l, i in zip(lo, idx))
            linear = 0
            for d, ci in enumerate(chunk_idx):
                linear = linear * grid[d] + ci
            out.append((self.data_offset + linear * self.chunk_nbytes, self.chunk_nbytes))
        return coalesce(out)


class _SharedH5State:
    """Dataset registry shared by all ranks that opened one HDF5 file."""

    def __init__(self):
        self.datasets: Dict[str, Dataset] = {}
        self.alloc_cursor: int = SUPERBLOCK_BYTES


class H5File:
    """One rank's view of an HDF5-like file over MPI-IO.

    Use as::

        h5 = H5File(mpiio, shared_state)
        yield from h5.create("/out.h5")
        dset = yield from h5.create_dataset("temperature", (1024, 1024), 8)
        yield from h5.write(dset, start=(rank*256, 0), count=(256, 1024),
                            collective=True)

    ``shared_state`` must be the same object on every rank (create it once
    with :meth:`make_shared_state` and pass it to each rank's instance).
    """

    def __init__(self, mpiio: MPIIOLayer, shared: Optional[_SharedH5State] = None):
        self.mpiio = mpiio
        self.env = mpiio.env
        self.rank = mpiio.rank
        self.shared = shared or _SharedH5State()
        self.handle: Optional[MPIIOFile] = None
        self.observers: List[Callable[[IORecord], None]] = []
        self._locally_created: set = set()

    @staticmethod
    def make_shared_state() -> _SharedH5State:
        return _SharedH5State()

    # -- record emission ----------------------------------------------------
    def _emit(self, kind: OpKind, offset: int, nbytes: int, start: float, **extra):
        if not self.observers or self.handle is None:
            return
        rec = IORecord(
            layer="hdf5",
            kind=kind,
            path=self.handle.path,
            offset=offset,
            nbytes=nbytes,
            rank=self.rank,
            start=start,
            end=self.env.now,
            extra=extra,
        )
        for obs in self.observers:
            obs(rec)

    def _require_open(self) -> MPIIOFile:
        if self.handle is None:
            raise RuntimeError("no file is open on this H5File")
        return self.handle

    # -- file lifecycle --------------------------------------------------------
    def create(self, path: str, **create_kwargs):
        """Generator: collectively create the file and write the superblock."""
        start = self.env.now
        self.handle = yield from self.mpiio.open_all(path, create=True, **create_kwargs)
        if self.rank == 0:
            yield from self.mpiio.write_at(self.handle, 0, SUPERBLOCK_BYTES)
        yield from self.mpiio.comm.barrier(self.rank, tag=f"h5.create:{path}")
        self._emit(OpKind.CREATE, 0, SUPERBLOCK_BYTES, start)

    def open(self, path: str):
        """Generator: collectively open; reads the superblock on each rank."""
        start = self.env.now
        self.handle = yield from self.mpiio.open_all(path, create=False)
        yield from self.mpiio.read_at(self.handle, 0, SUPERBLOCK_BYTES)
        self._emit(OpKind.OPEN, 0, SUPERBLOCK_BYTES, start)

    def close(self):
        """Generator: collective close."""
        handle = self._require_open()
        start = self.env.now
        yield from self.mpiio.close_all(handle)
        self._emit(OpKind.CLOSE, 0, 0, start)
        self.handle = None

    # -- datasets -----------------------------------------------------------------
    def create_dataset(
        self,
        name: str,
        shape: Tuple[int, ...],
        itemsize: int,
        chunks: Optional[Tuple[int, ...]] = None,
    ):
        """Generator: collectively create a dataset (rank 0 writes header)."""
        handle = self._require_open()
        start = self.env.now
        if name in self._locally_created:
            raise FileExistsError(f"dataset {name!r} already exists")
        self._locally_created.add(name)
        existing = self.shared.datasets.get(name)
        if existing is not None:
            # Collective semantics: a peer rank already registered this
            # round's dataset.  Matching parameters -> same collective call;
            # mismatch -> a genuine duplicate-creation error.
            if (
                existing.shape == tuple(shape)
                and existing.itemsize == itemsize
                and existing.chunks == (tuple(chunks) if chunks else None)
            ):
                dset = existing
                header_off = existing.data_offset  # emit against data region
            else:
                raise FileExistsError(f"dataset {name!r} already exists")
        else:
            header_off = self.shared.alloc_cursor
            data_off = (
                (header_off + OBJECT_HEADER_BYTES + DATA_ALIGNMENT - 1)
                // DATA_ALIGNMENT
                * DATA_ALIGNMENT
            )
            dset = Dataset(
                name=name, shape=tuple(shape), itemsize=itemsize,
                data_offset=data_off, chunks=tuple(chunks) if chunks else None,
            )
            self.shared.alloc_cursor = data_off + dset.nbytes
            self.shared.datasets[name] = dset
        if self.rank == 0:
            yield from self.mpiio.write_at(handle, header_off, OBJECT_HEADER_BYTES)
        yield from self.mpiio.comm.barrier(
            self.rank, tag=f"h5.dset:{handle.path}:{name}"
        )
        self._emit(OpKind.CREATE, header_off, OBJECT_HEADER_BYTES, start, dataset=name)
        return dset

    def dataset(self, name: str) -> Dataset:
        dset = self.shared.datasets.get(name)
        if dset is None:
            raise KeyError(f"no dataset {name!r}")
        return dset

    # -- hyperslab I/O ----------------------------------------------------------------
    def write(self, dset: Dataset, start, count, collective: bool = True):
        """Generator: write a hyperslab selection."""
        handle = self._require_open()
        t0 = self.env.now
        extents = dset.extents(tuple(start), tuple(count))
        nbytes = sum(n for _, n in extents)
        if collective:
            yield from self.mpiio.write_at_all(handle, extents)
        else:
            yield from self.mpiio.write_noncontig(handle, extents)
        self._emit(OpKind.WRITE, extents[0][0], nbytes, t0, dataset=dset.name, collective=collective)
        return self.env.now - t0

    def read(self, dset: Dataset, start, count, collective: bool = True):
        """Generator: read a hyperslab selection."""
        handle = self._require_open()
        t0 = self.env.now
        extents = dset.extents(tuple(start), tuple(count))
        nbytes = sum(n for _, n in extents)
        if collective:
            yield from self.mpiio.read_at_all(handle, extents)
        else:
            yield from self.mpiio.read_noncontig(handle, extents)
        self._emit(OpKind.READ, extents[0][0], nbytes, t0, dataset=dset.name, collective=collective)
        return self.env.now - t0
