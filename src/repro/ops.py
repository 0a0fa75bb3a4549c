"""Shared I/O operation vocabulary.

Every layer of the toolkit speaks in terms of these types:

* :class:`OpKind` -- the operation alphabet (data ops, metadata ops, and the
  synthetic ``COMPUTE``/``BARRIER`` markers used by workload descriptions).
* :class:`IOOp` -- an *intended* operation, as emitted by a workload source
  (the IOWA-style "workload produce" stream, paper Sec. IV-B-4 / [20]).
* :class:`IORecord` -- an *observed* operation, as captured by monitoring
  (a trace record with timestamps; paper Sec. IV-A-2).
* :class:`OpRun` -- a block of equal-size intended operations (the DSL
  compiler's output unit); :func:`as_runs` reads any op, record or run
  stream as runs and :func:`expand_runs` turns runs back into ops.

Keeping these in one dependency-free module lets workloads, the I/O stack,
the file system, monitoring and modeling interoperate without import cycles.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence


class StorageUnavailable(RuntimeError):
    """A storage target (OST device or OSS) is down for fault injection.

    Raised by :meth:`repro.cluster.devices.BlockDevice.access` and
    :meth:`repro.pfs.oss.ObjectStorageServer.serve_data` while an injected
    outage is active.  Lives here (the dependency-free vocabulary module)
    so the device layer, the PFS layers and :mod:`repro.faults` can all
    name it without import cycles.
    """


class OpKind(str, Enum):
    """Operation types across the whole I/O stack."""

    # Data operations.
    READ = "read"
    WRITE = "write"
    # Metadata operations (the mdtest alphabet).
    CREATE = "create"
    OPEN = "open"
    CLOSE = "close"
    STAT = "stat"
    UNLINK = "unlink"
    MKDIR = "mkdir"
    RMDIR = "rmdir"
    READDIR = "readdir"
    FSYNC = "fsync"
    # Workload-description markers (never reach the file system).
    COMPUTE = "compute"
    BARRIER = "barrier"

    @property
    def is_data(self) -> bool:
        return self in DATA_KINDS

    @property
    def is_marker(self) -> bool:
        return self in MARKER_KINDS


#: Kind classes behind :attr:`OpKind.is_data` / ``is_marker``, and the
#: metadata kinds, for hot loops that test membership directly.
DATA_KINDS = frozenset((OpKind.READ, OpKind.WRITE))
METADATA_KINDS = frozenset((
    OpKind.CREATE,
    OpKind.OPEN,
    OpKind.CLOSE,
    OpKind.STAT,
    OpKind.UNLINK,
    OpKind.MKDIR,
    OpKind.RMDIR,
    OpKind.READDIR,
    OpKind.FSYNC,
))
MARKER_KINDS = frozenset((OpKind.COMPUTE, OpKind.BARRIER))


#: Stand-in default for ``IOOp(meta=...)``: each op gets its own fresh dict.
_FRESH_META: Dict[str, Any] = {}


@dataclass(frozen=True, init=False)
class IOOp:
    """An intended I/O operation in a workload stream.

    Attributes
    ----------
    kind:
        Operation type.
    path:
        Target file path ("" for markers).
    offset:
        Byte offset for data ops (ignored otherwise).
    nbytes:
        Transfer size for data ops; for ``COMPUTE`` the field ``duration``
        carries the think time instead.
    rank:
        Issuing MPI rank.
    duration:
        For ``COMPUTE`` markers: seconds of computation.
    meta:
        Free-form annotations (e.g. dataset name, epoch number).
    """

    kind: OpKind
    path: str = ""
    offset: int = 0
    nbytes: int = 0
    rank: int = 0
    duration: float = 0.0
    meta: Dict[str, Any] = field(default_factory=dict)

    def __init__(self, kind: OpKind, path: str = "", offset: int = 0,
                 nbytes: int = 0, rank: int = 0, duration: float = 0.0,
                 meta: Dict[str, Any] = _FRESH_META):
        # Hand-written because workloads build ops by the hundred
        # thousand: storing into ``__dict__`` costs a third of the
        # generated frozen ``__init__``'s ``object.__setattr__`` calls.
        d = self.__dict__
        d["kind"] = kind
        d["path"] = path
        d["offset"] = offset
        d["nbytes"] = nbytes
        d["rank"] = rank
        d["duration"] = duration
        d["meta"] = {} if meta is _FRESH_META else meta

    def signature(self) -> tuple:
        """Content identity ignoring rank (used by trace compression).

        Duration is compared exactly: compression replays the first op's
        duration for every folded copy, so any tolerance here would make
        ``decompress(compress_ops(ops)) == ops`` lossy.
        """
        return (self.kind.value, self.path, self.offset, self.nbytes, self.duration)


@dataclass
class IORecord:
    """An observed I/O operation with timing.

    Produced by tracers (Recorder-like) and consumed by replay, modeling
    and analysis.  ``layer`` names the stack level at which the record was
    captured (``"hdf5"``, ``"mpiio"``, ``"posix"``, ``"pfs"``).
    """

    layer: str
    kind: OpKind
    path: str
    offset: int
    nbytes: int
    rank: int
    start: float
    end: float
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_op(self) -> IOOp:
        """Project back to an intended operation (drops timing)."""
        return IOOp(
            kind=self.kind,
            path=self.path,
            offset=self.offset,
            nbytes=self.nbytes,
            rank=self.rank,
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (used by trace file formats)."""
        return {
            "layer": self.layer,
            "kind": self.kind.value,
            "path": self.path,
            "offset": self.offset,
            "nbytes": self.nbytes,
            "rank": self.rank,
            "start": self.start,
            "end": self.end,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "IORecord":
        return cls(
            layer=d["layer"],
            kind=OpKind(d["kind"]),
            path=d["path"],
            offset=d["offset"],
            nbytes=d["nbytes"],
            rank=d["rank"],
            start=d["start"],
            end=d["end"],
            extra=d.get("extra", {}),
        )


#: The offsets of a run of one operation that has no data offset (a
#: metadata op or a marker), shared: offsets are never mutated.
NO_OFFSET = (0,)


class OpRun(NamedTuple):
    """A block of equal-size operations: one :class:`IOOp` per offset.

    Everything but the offset is shared: ``kind``, ``path``, ``rank``,
    ``nbytes`` (the transfer size), ``duration`` and ``meta``.  ``offsets``
    is a ``range`` for a sequential block, a list for a permuted one, and
    a one-tuple for a single operation; it is never empty.  Expanding a
    run (:meth:`ops`) gives each op its own copy of ``meta``, as
    :class:`IOOp` does.  Shape functions read runs without expanding them.
    """

    kind: OpKind
    path: str
    rank: int
    nbytes: int
    duration: float
    meta: Dict[str, Any]
    offsets: Sequence[int]

    def ops(self) -> List[IOOp]:
        """The run's operations, in offset order."""
        kind, path, rank, nbytes, duration, meta, offsets = self
        return [IOOp(kind, path, offset, nbytes, rank, duration, dict(meta))
                for offset in offsets]


def _lift(item: Any) -> OpRun:
    """An op or a record as a run of one; a record is read as its
    :meth:`IORecord.to_op` projection (timing and ``extra`` dropped)."""
    if isinstance(item, IOOp):
        return OpRun(item.kind, item.path, item.rank, item.nbytes,
                     item.duration, item.meta, (item.offset,))
    if isinstance(item, IORecord):
        return OpRun(item.kind, item.path, item.rank, item.nbytes, 0.0, {},
                     (item.offset,))
    raise TypeError(
        f"expected IOOp or IORecord (or OpRun), got {type(item).__name__}"
    )


def as_runs(stream: Iterable[Any]) -> List[OpRun]:
    """Read an op, record or run stream (mixed is fine) as a run list:
    runs as they are, each op or record as a run of one."""
    return [item if type(item) is OpRun else _lift(item) for item in stream]


def expand_runs(runs: Iterable[OpRun]) -> List[IOOp]:
    """The op stream a run stream stands for."""
    out: List[IOOp] = []
    for run in runs:
        out += run.ops()
    return out


#: Size-histogram bucket upper bounds (bytes), mirroring Darshan's buckets.
SIZE_BUCKETS = [
    100,
    1024,
    10 * 1024,
    100 * 1024,
    1024 * 1024,
    4 * 1024 * 1024,
    10 * 1024 * 1024,
    100 * 1024 * 1024,
    1024 * 1024 * 1024,
]


def size_bucket(nbytes: int) -> int:
    """Index of the Darshan-style size histogram bucket for ``nbytes``."""
    return bisect_left(SIZE_BUCKETS, nbytes)
