"""mdtest-like metadata benchmark.

Paper Sec. IV-A-1: "Benchmarks stressing the metadata services such as
*mdtest* provide a measure to quantify file and directory based
operations."  Each rank works in its own subdirectory and runs the classic
phases -- create, stat, (optional tiny write/read), unlink -- separated by
barriers; the figure of merit is operations per second per phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.ops import IOOp, OpKind
from repro.workloads.base import Workload


@dataclass
class MdtestConfig:
    """mdtest parameters.

    Attributes
    ----------
    files_per_rank:
        Number of files each rank creates (``-n``).
    write_bytes:
        Bytes written to each file after creation (``-w``), 0 to skip.
    read_bytes:
        Bytes read from each file in the stat phase (``-e``), 0 to skip.
    do_stat / do_unlink:
        Enable the respective phases.
    dir_prefix:
        Root directory of the benchmark tree.
    """

    files_per_rank: int = 64
    write_bytes: int = 0
    read_bytes: int = 0
    do_stat: bool = True
    do_unlink: bool = True
    dir_prefix: str = "/mdtest"

    def validate(self) -> None:
        if self.files_per_rank <= 0:
            raise ValueError("files_per_rank must be positive")
        if self.write_bytes < 0 or self.read_bytes < 0:
            raise ValueError("write_bytes/read_bytes must be non-negative")
        if self.read_bytes > 0 and self.write_bytes < self.read_bytes:
            raise ValueError("cannot read more than was written")


class MdtestWorkload(Workload):
    """A runnable mdtest instance."""

    def __init__(self, config: MdtestConfig, n_ranks: int):
        config.validate()
        if n_ranks <= 0:
            raise ValueError("n_ranks must be positive")
        self.config = config
        self.n_ranks = n_ranks
        self.name = "mdtest"

    def rank_dir(self, rank: int) -> str:
        return f"{self.config.dir_prefix}/rank{rank:06d}"

    def file_path(self, rank: int, i: int) -> str:
        return f"{self.rank_dir(rank)}/f{i:08d}"

    def ops(self, rank: int) -> Iterator[IOOp]:
        c = self.config
        # Setup: rank 0 makes the root; every rank makes its own directory.
        if rank == 0:
            # The shared test root may already exist (repeat runs, several
            # mdtest jobs on one system), as with the real tool's -d dir.
            yield IOOp(OpKind.MKDIR, c.dir_prefix, rank=rank, meta={"exist_ok": True})
        yield IOOp(OpKind.BARRIER, rank=rank)
        yield IOOp(OpKind.MKDIR, self.rank_dir(rank), rank=rank)
        yield IOOp(OpKind.BARRIER, rank=rank)
        # Create phase.
        for i in range(c.files_per_rank):
            path = self.file_path(rank, i)
            yield IOOp(OpKind.CREATE, path, rank=rank)
            if c.write_bytes:
                yield IOOp(OpKind.WRITE, path, offset=0, nbytes=c.write_bytes, rank=rank)
            yield IOOp(OpKind.CLOSE, path, rank=rank)
        yield IOOp(OpKind.BARRIER, rank=rank)
        # Stat phase.
        if c.do_stat:
            for i in range(c.files_per_rank):
                path = self.file_path(rank, i)
                yield IOOp(OpKind.STAT, path, rank=rank)
                if c.read_bytes:
                    yield IOOp(OpKind.READ, path, offset=0, nbytes=c.read_bytes, rank=rank)
                    yield IOOp(OpKind.CLOSE, path, rank=rank)
            yield IOOp(OpKind.BARRIER, rank=rank)
        # Unlink phase.
        if c.do_unlink:
            for i in range(c.files_per_rank):
                yield IOOp(OpKind.UNLINK, self.file_path(rank, i), rank=rank)
            yield IOOp(OpKind.BARRIER, rank=rank)
            yield IOOp(OpKind.RMDIR, self.rank_dir(rank), rank=rank)

    def describe(self) -> str:
        return (
            f"mdtest {self.n_ranks} ranks x {self.config.files_per_rank} files"
            f" (stat={self.config.do_stat}, unlink={self.config.do_unlink})"
        )
