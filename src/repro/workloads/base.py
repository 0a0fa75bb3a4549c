"""The workload abstraction.

Paper Sec. IV-B-4 distinguishes three workload information sources (traces,
synthetic descriptions, characterization profiles) and the IOWA framework
[20] abstracts *workload producers* from *workload consumers*.  Here the
producer interface is :meth:`Workload.ops` -- a per-rank stream of
:class:`~repro.ops.IOOp` -- and every workload is also directly consumable
as an SPMD *program* (the execution-driven path) via :meth:`Workload.program`,
which executes the op stream through the rank's I/O stack.

Dynamic workloads (whose behaviour depends on simulated time, e.g. the
workflow scheduler) override :meth:`program` directly and may not offer an
op stream.
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.mpi.runtime import RankContext
from repro.ops import IOOp, OpKind


@dataclass
class WorkloadResult:
    """Outcome of one workload run (filled by the execution driver)."""

    name: str
    n_ranks: int
    duration: float
    per_rank_seconds: List[float] = field(default_factory=list)
    bytes_written: int = 0
    bytes_read: int = 0
    meta_ops: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def write_bandwidth(self) -> float:
        """Aggregate write bandwidth in bytes/second."""
        return self.bytes_written / self.duration if self.duration > 0 else 0.0

    @property
    def read_bandwidth(self) -> float:
        """Aggregate read bandwidth in bytes/second."""
        return self.bytes_read / self.duration if self.duration > 0 else 0.0

    def summary(self) -> str:
        return (
            f"{self.name}: {self.duration:.3f}s, "
            f"W {self.bytes_written / 1e6:.1f} MB @ {self.write_bandwidth / 1e6:.1f} MB/s, "
            f"R {self.bytes_read / 1e6:.1f} MB @ {self.read_bandwidth / 1e6:.1f} MB/s, "
            f"{self.meta_ops} metadata ops"
        )


class Workload(ABC):
    """Base class of every workload."""

    #: Human-readable workload name.
    name: str = "workload"
    #: Number of MPI ranks the workload expects.
    n_ranks: int = 1

    def ops(self, rank: int) -> Iterator[IOOp]:
        """The rank's intended operation stream (IOWA producer side).

        Optional: dynamic workloads raise ``NotImplementedError``.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not expose a static op stream"
        )

    def program(self, ctx: RankContext):
        """Run this workload's rank ``ctx.rank`` (execution-driven path).

        The default implementation replays the op stream through the
        rank's POSIX layer (``ctx.io.posix``).
        """
        executor = OpStreamExecutor(ctx)
        for op in self.ops(ctx.rank):
            yield from executor.execute(op)
        yield from executor.close_all()

    def describe(self) -> str:
        return f"{self.name} ({self.n_ranks} ranks)"


class OpStreamExecutor:
    """Executes :class:`~repro.ops.IOOp` streams against a rank's I/O stack.

    Keeps per-path descriptors so repeated data ops on one file reuse one
    open; any descriptors still open at the end are closed by
    :meth:`close_all`.
    """

    def __init__(self, ctx: RankContext):
        if ctx.io is None:
            raise RuntimeError(
                "rank context has no I/O stack; launch with an io_factory"
            )
        self.ctx = ctx
        self.posix = ctx.io.posix
        self._fds: Dict[str, int] = {}

    def _fd(self, path: str, create: bool = False, **kwargs):
        fd = self._fds.get(path)
        if fd is None:
            fd = yield from self.posix.open(path, create=create, **kwargs)
            self._fds[path] = fd
        return fd

    def execute(self, op: IOOp):
        """Generator: perform one operation."""
        kind = op.kind
        # Propagate workload annotations (epoch, step, burst, ...) to the
        # POSIX layer so traces can be sliced by application phase.
        self.posix.context = op.meta if op.meta else {}
        if kind == OpKind.COMPUTE:
            yield from self.ctx.compute(op.duration)
        elif kind == OpKind.BARRIER:
            yield from self.ctx.barrier()
        elif kind == OpKind.CREATE:
            stripe_count = op.meta.get("stripe_count")
            fd = yield from self.posix.open(
                op.path, create=True, stripe_count=stripe_count
            )
            self._fds[op.path] = fd
        elif kind == OpKind.OPEN:
            # create=True keeps replayed traces runnable on a fresh file
            # system (the original CREATE may predate the trace window).
            yield from self._fd(
                op.path, create=True, stripe_count=op.meta.get("stripe_count")
            )
        elif kind == OpKind.CLOSE:
            fd = self._fds.pop(op.path, None)
            if fd is not None:
                yield from self.posix.close(fd)
        elif kind == OpKind.WRITE:
            fd = yield from self._fd(op.path, create=True)
            yield from self.posix.pwrite(fd, op.offset, op.nbytes)
        elif kind == OpKind.READ:
            fd = yield from self._fd(op.path)
            yield from self.posix.pread(fd, op.offset, op.nbytes)
        elif kind == OpKind.STAT:
            yield from self.posix.stat(op.path)
        elif kind == OpKind.UNLINK:
            self._fds.pop(op.path, None)
            yield from self.posix.unlink(op.path)
        elif kind == OpKind.MKDIR:
            if op.meta.get("exist_ok"):
                try:
                    yield from self.posix.mkdir(op.path)
                except FileExistsError:
                    pass
            else:
                yield from self.posix.mkdir(op.path)
        elif kind == OpKind.RMDIR:
            yield from self.posix.rmdir(op.path)
        elif kind == OpKind.READDIR:
            yield from self.posix.readdir(op.path)
        elif kind == OpKind.FSYNC:
            fd = yield from self._fd(op.path)
            yield from self.posix.fsync(fd)
        else:  # pragma: no cover - exhaustive over OpKind
            raise ValueError(f"unhandled op kind {kind}")

    def close_all(self):
        """Generator: close every descriptor still open."""
        for path in list(self._fds):
            fd = self._fds.pop(path)
            yield from self.posix.close(fd)


class OpStreamWorkload(Workload):
    """A workload defined directly by per-rank op lists.

    The consumer-side building block for replayed traces and DSL-generated
    workloads: anything that can produce op lists becomes runnable.
    """

    def __init__(self, name: str, per_rank_ops: List[List[IOOp]]):
        if not per_rank_ops:
            raise ValueError("need at least one rank's ops")
        self.name = name
        self.n_ranks = len(per_rank_ops)
        self._ops = per_rank_ops

    def ops(self, rank: int) -> Iterator[IOOp]:
        if not 0 <= rank < self.n_ranks:
            raise IndexError(f"rank {rank} out of range")
        return iter(self._ops[rank])

    def total_ops(self) -> int:
        return sum(len(ops) for ops in self._ops)
