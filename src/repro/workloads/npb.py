"""NPB-BT-IO-like nested strided output workload.

The NAS Parallel Benchmarks' BT-IO [77] appends a 3-D solution array,
block-distributed over ranks, to a shared file every few time steps.  Each
rank's subarray is non-contiguous in the file (nested strides), which makes
BT-IO *the* classic demonstration of collective I/O: independent mode
issues thousands of small strided writes, collective mode coalesces them.
Claim C9 uses this workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from repro.mpi.runtime import RankContext
from repro.ops import IOOp, OpKind
from repro.pfs.extents import Extent, coalesce
from repro.workloads.base import Workload


@dataclass
class BTIOConfig:
    """BT-IO parameters.

    Attributes
    ----------
    grid:
        Global 3-D grid dimension (the array is ``grid^3`` cells).
    cell_bytes:
        Bytes per grid cell (BT uses 5 doubles = 40 bytes).
    dumps:
        Number of solution dumps.
    compute_seconds:
        Computation between dumps.
    collective:
        Use collective MPI-IO (the "full" BT-IO class) or independent
        ("simple" class).
    path:
        Shared output file.
    """

    grid: int = 64
    cell_bytes: int = 40
    dumps: int = 5
    compute_seconds: float = 0.5
    collective: bool = True
    path: str = "/btio.out"
    stripe_count: int = -1

    def validate(self) -> None:
        if self.grid <= 0 or self.cell_bytes <= 0 or self.dumps <= 0:
            raise ValueError("grid, cell_bytes and dumps must be positive")
        if self.compute_seconds < 0:
            raise ValueError("compute_seconds must be non-negative")


def _block_decompose(n_ranks: int) -> Tuple[int, int, int]:
    """Factor ``n_ranks`` into a 3-D processor grid (px >= py >= pz)."""
    best = (n_ranks, 1, 1)
    best_score = float("inf")
    for px in range(1, n_ranks + 1):
        if n_ranks % px:
            continue
        rest = n_ranks // px
        for py in range(1, rest + 1):
            if rest % py:
                continue
            pz = rest // py
            score = max(px, py, pz) - min(px, py, pz)
            if score < best_score:
                best_score = score
                best = tuple(sorted((px, py, pz), reverse=True))  # type: ignore
    return best  # type: ignore


class BTIOWorkload(Workload):
    """A runnable BT-IO instance."""

    def __init__(self, config: BTIOConfig, n_ranks: int):
        config.validate()
        if n_ranks <= 0:
            raise ValueError("n_ranks must be positive")
        self.config = config
        self.n_ranks = n_ranks
        self.name = f"btio[{'collective' if config.collective else 'independent'}]"
        self.pgrid = _block_decompose(n_ranks)
        g = config.grid
        for p in self.pgrid:
            if g % p:
                raise ValueError(
                    f"grid {g} not divisible by processor grid {self.pgrid}"
                )
        self.local = tuple(g // p for p in self.pgrid)

    def rank_coords(self, rank: int) -> Tuple[int, int, int]:
        px, py, pz = self.pgrid
        return (rank // (py * pz), (rank // pz) % py, rank % pz)

    def extents_for(self, rank: int, dump: int) -> List[Extent]:
        """The file extents of one rank's subarray in one dump.

        The file holds dumps back-to-back; within a dump the global array
        is laid out row-major (x slowest).  A rank's subarray is contiguous
        only along z; each (x, y) pair contributes one run.
        """
        c = self.config
        g = c.grid
        lx, ly, lz = self.local
        cx, cy, cz = self.rank_coords(rank)
        dump_base = dump * g * g * g * c.cell_bytes
        run = lz * c.cell_bytes
        out: List[Extent] = []
        for x in range(lx):
            gx = cx * lx + x
            for y in range(ly):
                gy = cy * ly + y
                off = dump_base + ((gx * g + gy) * g + cz * lz) * c.cell_bytes
                out.append((off, run))
        return coalesce(out)

    @property
    def bytes_per_dump(self) -> int:
        c = self.config
        return c.grid**3 * c.cell_bytes

    @property
    def total_bytes(self) -> int:
        return self.bytes_per_dump * self.config.dumps

    def program(self, ctx: RankContext):
        c = self.config
        mpiio = ctx.io.mpiio
        handle = yield from mpiio.open_all(
            c.path, create=True, stripe_count=c.stripe_count
        )
        for dump in range(c.dumps):
            if c.compute_seconds:
                yield from ctx.compute(c.compute_seconds)
            yield from ctx.barrier()
            extents = self.extents_for(ctx.rank, dump)
            if c.collective:
                yield from mpiio.write_at_all(handle, extents)
            else:
                for off, n in extents:
                    yield from mpiio.write_at(handle, off, n)
        yield from mpiio.close_all(handle)

    def describe(self) -> str:
        c = self.config
        return (
            f"BT-IO grid {c.grid}^3 on {self.pgrid} pgrid, {c.dumps} dumps, "
            f"{'collective' if c.collective else 'independent'}"
        )
