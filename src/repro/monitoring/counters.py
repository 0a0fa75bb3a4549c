"""Darshan-style counter sets.

Darshan [22] characterises a job with per-(rank, file) counter records --
operation counts, byte totals, access-size histograms, sequentiality
measures, and timing aggregates.  :class:`FileCounters` mirrors that
record; :class:`JobCounters` is the job-level roll-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.ops import IORecord, OpKind, SIZE_BUCKETS, size_bucket


@dataclass
class FileCounters:
    """Counters for one (rank, file) pair."""

    path: str
    rank: int
    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    meta_ops: int = 0
    opens: int = 0
    stats_calls: int = 0
    fsyncs: int = 0
    #: Consecutive accesses (offset == previous end): Darshan's SEQ/CONSEC.
    seq_reads: int = 0
    seq_writes: int = 0
    #: Access-size histograms, one bucket list per direction.
    read_size_hist: list = field(default_factory=lambda: [0] * (len(SIZE_BUCKETS) + 1))
    write_size_hist: list = field(default_factory=lambda: [0] * (len(SIZE_BUCKETS) + 1))
    max_byte_read: int = 0
    max_byte_written: int = 0
    read_time: float = 0.0
    write_time: float = 0.0
    meta_time: float = 0.0
    first_op_time: Optional[float] = None
    last_op_time: float = 0.0
    #: Stripe layout captured from OPEN records (Darshan's Lustre module
    #: records the same); lets profile-driven synthesis recreate layouts.
    stripe_count: Optional[int] = None
    stripe_size: Optional[int] = None
    _last_read_end: Optional[int] = None
    _last_write_end: Optional[int] = None

    def observe(self, rec: IORecord) -> None:
        """Fold one observed operation into the counters."""
        if self.first_op_time is None:
            self.first_op_time = rec.start
        self.last_op_time = max(self.last_op_time, rec.end)
        if rec.kind == OpKind.READ:
            self.reads += 1
            self.bytes_read += rec.nbytes
            self.read_time += rec.duration
            self.read_size_hist[size_bucket(rec.nbytes)] += 1
            self.max_byte_read = max(self.max_byte_read, rec.offset + rec.nbytes)
            if self._last_read_end is not None and rec.offset == self._last_read_end:
                self.seq_reads += 1
            self._last_read_end = rec.offset + rec.nbytes
        elif rec.kind == OpKind.WRITE:
            self.writes += 1
            self.bytes_written += rec.nbytes
            self.write_time += rec.duration
            self.write_size_hist[size_bucket(rec.nbytes)] += 1
            self.max_byte_written = max(self.max_byte_written, rec.offset + rec.nbytes)
            if self._last_write_end is not None and rec.offset == self._last_write_end:
                self.seq_writes += 1
            self._last_write_end = rec.offset + rec.nbytes
        else:
            self.meta_ops += 1
            self.meta_time += rec.duration
            if rec.kind == OpKind.OPEN or rec.kind == OpKind.CREATE:
                self.opens += 1
                if "stripe_count" in rec.extra:
                    self.stripe_count = rec.extra["stripe_count"]
                    self.stripe_size = rec.extra.get("stripe_size")
            elif rec.kind == OpKind.STAT:
                self.stats_calls += 1
            elif rec.kind == OpKind.FSYNC:
                self.fsyncs += 1

    # -- derived metrics ------------------------------------------------------
    @property
    def total_ops(self) -> int:
        return self.reads + self.writes + self.meta_ops

    def seq_read_fraction(self) -> float:
        """Fraction of reads that continued the previous one."""
        return self.seq_reads / self.reads if self.reads else 0.0

    def seq_write_fraction(self) -> float:
        return self.seq_writes / self.writes if self.writes else 0.0

    def to_dict(self) -> Dict[str, Any]:
        d = {
            k: v
            for k, v in self.__dict__.items()
            if not k.startswith("_")
        }
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "FileCounters":
        fc = cls(path=d["path"], rank=d["rank"])
        for k, v in d.items():
            if hasattr(fc, k):
                setattr(fc, k, v)
        return fc


@dataclass
class JobCounters:
    """Job-level roll-up over every (rank, file) record."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    meta_ops: int = 0
    read_time: float = 0.0
    write_time: float = 0.0
    meta_time: float = 0.0
    files_accessed: int = 0
    read_size_hist: list = field(default_factory=lambda: [0] * (len(SIZE_BUCKETS) + 1))
    write_size_hist: list = field(default_factory=lambda: [0] * (len(SIZE_BUCKETS) + 1))

    def fold(self, fc: FileCounters) -> None:
        self.reads += fc.reads
        self.writes += fc.writes
        self.bytes_read += fc.bytes_read
        self.bytes_written += fc.bytes_written
        self.meta_ops += fc.meta_ops
        self.read_time += fc.read_time
        self.write_time += fc.write_time
        self.meta_time += fc.meta_time
        self.files_accessed += 1
        for i, v in enumerate(fc.read_size_hist):
            self.read_size_hist[i] += v
        for i, v in enumerate(fc.write_size_hist):
            self.write_size_hist[i] += v

    @property
    def io_time(self) -> float:
        return self.read_time + self.write_time + self.meta_time

    def write_intensive(self) -> bool:
        """The traditional assumption the paper challenges (Sec. V)."""
        return self.bytes_written > self.bytes_read
