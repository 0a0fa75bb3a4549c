"""Write-ahead job journal: crash durability for the run service.

The service keeps jobs, computations, and waiter lists in memory; this
module makes the *recoverable* part of that state durable.  Every
admission that enqueues or joins live work appends an ``admit`` record
before the client is acked, every terminal computation appends a
``complete`` record, and a clean shutdown appends ``clean_close`` -- so
after a crash (kill -9, OOM, power loss) the next boot can replay the
journal and re-queue exactly the computations that never finished, with
each job's waiter list intact.

Format
------
Append-only segments (``segment-NNNNNN.ndjson``) of newline-framed
records::

    <crc32-hex> <canonical-json>\n

The CRC covers the JSON bytes, so a torn tail (the classic
crash-mid-write artifact) or a flipped bit is *detected and skipped*
rather than parsed into garbage state.  Appends are buffered and
fsynced in batches: a group commit.  :meth:`JobJournal.commit` returns
once everything appended so far is on disk, and concurrent committers
in the same flush window share one ``fsync`` -- which is what keeps
admission durability off the warm-path (warm-only jobs are never
journaled at all) and under a handful of milliseconds on the cold path.

Rotation and compaction
-----------------------
A segment is rotated once it holds ``segment_max_records`` records.
Compaction rewrites the *live* state (the records of
:meth:`ServiceState.snapshot <repro.service.state.ServiceState.snapshot>`
-- admits of unfinished jobs with their settled slots inline and the
payloads of their pending computations, then a start per started
computation) into a fresh segment via write-temp-then-rename, then
deletes every older segment.  The server compacts at every boot after
replay and whenever ``compact_threshold`` records accumulate, so the
journal's size is bounded by live work, not by history (history lives
in the job ledger and the store).

Record types
------------
Replay applies every record, ``start`` included, to a fresh
:class:`~repro.service.state.ServiceState` -- the live service's state
machine -- and returns it.

``admit``        one job admitted with live work (slots + payloads)
``start``        a computation was dispatched to the pool
``complete``     the digest's live computation reached a terminal state
``cancel``       a client cancelled a job's queued work
``land``         a finished job's run document landed in the store
``clean_close``  orderly shutdown; everything before it is settled
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import re
import time
import zlib
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Union

from repro.service.state import ServiceState

log = logging.getLogger(__name__)

__all__ = ["JobJournal", "JOURNAL_DIR_NAME", "frame_record", "parse_line"]

#: Journal directory, created next to the job ledger / discovery file.
JOURNAL_DIR_NAME = "service-journal"

_SEGMENT_RE = re.compile(r"^segment-(\d{6})\.ndjson$")


def _segment_name(index: int) -> str:
    return f"segment-{index:06d}.ndjson"


def frame_record(record: Dict[str, Any]) -> bytes:
    """Frame one record as ``<crc32-hex> <json>\\n``."""
    body = json.dumps(record, separators=(",", ":"), sort_keys=True)
    data = body.encode("utf-8")
    return b"%08x " % (zlib.crc32(data) & 0xFFFFFFFF) + data + b"\n"


def parse_line(line: bytes) -> Optional[Dict[str, Any]]:
    """Parse one framed line; ``None`` when torn or corrupt."""
    line = line.rstrip(b"\n")
    if len(line) < 10 or line[8:9] != b" ":
        return None
    try:
        want = int(line[:8], 16)
    except ValueError:
        return None
    body = line[9:]
    if zlib.crc32(body) & 0xFFFFFFFF != want:
        return None
    try:
        doc = json.loads(body)
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) else None


class JobJournal:
    """Append-only, CRC-framed, fsync-batched write-ahead journal.

    One instance belongs to one running service.  All methods are
    event-loop-thread only; the actual ``write(2)``/``fsync(2)`` calls
    are small enough (a handful of short lines per batch) that doing
    them inline beats shipping every batch to an executor.
    """

    def __init__(
        self,
        directory: Union[Path, str],
        *,
        fsync_interval: float = 0.05,
        fsync_batch: int = 256,
        segment_max_records: int = 4096,
        compact_threshold: int = 4096,
    ):
        self.directory = Path(directory)
        self.fsync_interval = fsync_interval
        self.fsync_batch = fsync_batch
        self.segment_max_records = segment_max_records
        self.compact_threshold = compact_threshold
        self._fd: Optional[int] = None
        self._index = 0
        self._segment_records = 0
        self._records_since_compact = 0
        self._buffer: List[bytes] = []
        self._buffer_records = 0
        self._waiters: List[asyncio.Future] = []
        self._wake: Optional[asyncio.Event] = None
        self.stats: Dict[str, int] = {
            "records": 0,
            "fsync_batches": 0,
            "compactions": 0,
            "segments": 0,
        }

    # -- lifecycle -----------------------------------------------------------

    def open(self) -> None:
        """Start a *new* segment after any existing ones.

        Never appends to an old segment: its tail may be torn, and a
        record glued onto a torn line would fail its CRC and be lost.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        indices = self._segment_indices()
        self._index = (indices[-1] + 1) if indices else 1
        self._open_segment()

    def _segment_indices(self) -> List[int]:
        out = []
        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            return []
        for name in names:
            m = _SEGMENT_RE.match(name)
            if m:
                out.append(int(m.group(1)))
        return sorted(out)

    def _segment_path(self, index: int) -> Path:
        return self.directory / _segment_name(index)

    def _open_segment(self) -> None:
        self._fd = os.open(
            self._segment_path(self._index),
            os.O_WRONLY | os.O_CREAT | os.O_APPEND,
            0o644,
        )
        self.stats["segments"] = len(self._segment_indices())

    def close(self, *, clean: bool = False) -> None:
        """Flush and close; ``clean=True`` journals an orderly shutdown."""
        if self._fd is None:
            return
        if clean:
            self.append("clean_close")
        self.flush()
        os.close(self._fd)
        self._fd = None

    def abort(self) -> None:
        """Drop buffered records and close without flushing.

        Test hook that models a crash: whatever ``commit`` never acked
        is allowed to vanish, exactly like a real kill -9.
        """
        self._buffer.clear()
        self._buffer_records = 0
        for fut in self._waiters:
            if not fut.done():
                fut.set_result(None)
        self._waiters.clear()
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    # -- appends -------------------------------------------------------------

    def append(self, record_type: str, **fields: Any) -> None:
        """Buffer one record; durable after the next flush/commit."""
        record = {"t": record_type, "ts": time.time(), **fields}
        self._buffer.append(frame_record(record))
        self._buffer_records += 1
        if self._buffer_records >= self.fsync_batch:
            self._signal()

    async def commit(self) -> None:
        """Return once everything appended so far is fsynced.

        Concurrent committers in one flush window share a single fsync
        (group commit); with an idle buffer this returns immediately.
        """
        if not self._buffer and not self._waiters:
            return
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._waiters.append(fut)
        self._signal()
        await fut

    def _signal(self) -> None:
        if self._wake is not None:
            self._wake.set()

    def flush(self) -> None:
        """Write and fsync the buffered batch; wake committers."""
        if self._fd is not None and self._buffer:
            data = b"".join(self._buffer)
            n = self._buffer_records
            self._buffer.clear()
            self._buffer_records = 0
            os.write(self._fd, data)
            os.fsync(self._fd)
            self.stats["records"] += n
            self.stats["fsync_batches"] += 1
            self._segment_records += n
            self._records_since_compact += n
            if self._segment_records >= self.segment_max_records:
                self._rotate()
        waiters, self._waiters = self._waiters, []
        for fut in waiters:
            if not fut.done():
                fut.set_result(None)

    def _rotate(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
        self._index += 1
        self._segment_records = 0
        self._open_segment()

    async def run_flusher(
        self, compact_hook: Optional[Callable[[], Iterable[Dict[str, Any]]]] = None
    ) -> None:
        """Group-commit loop: flush every ``fsync_interval`` seconds (or
        as soon as a committer or a full batch signals), compacting via
        ``compact_hook`` when enough records accumulate."""
        self._wake = asyncio.Event()
        try:
            while True:
                try:
                    await asyncio.wait_for(
                        self._wake.wait(), timeout=self.fsync_interval
                    )
                except asyncio.TimeoutError:
                    pass
                self._wake.clear()
                if self._fd is None:
                    return
                self.flush()
                if (
                    compact_hook is not None
                    and self._records_since_compact >= self.compact_threshold
                ):
                    self.compact(compact_hook())
        except asyncio.CancelledError:
            if self._fd is not None:
                self.flush()
            raise
        finally:
            self._wake = None

    # -- compaction ----------------------------------------------------------

    def compact(self, snapshot_records: Iterable[Dict[str, Any]]) -> int:
        """Rewrite the journal to just the live snapshot, atomically.

        The snapshot segment is written complete and fsynced under a
        temporary name, renamed into place as the newest segment, and
        only then are the older segments deleted -- a crash at any point
        leaves either the old segments or the complete snapshot.
        Returns the number of snapshot records written.
        """
        self.flush()
        records = list(snapshot_records)
        new_index = self._index + 1
        path = self._segment_path(new_index)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            for rec in records:
                fh.write(frame_record({"t": "admit", "ts": time.time(), **rec}))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self._fsync_dir()
        if self._fd is not None:
            os.close(self._fd)
        for index in self._segment_indices():
            if index < new_index:
                try:
                    self._segment_path(index).unlink()
                except OSError:  # pragma: no cover - racing cleanup
                    pass
        self._fsync_dir()
        self._index = new_index
        self._segment_records = len(records)
        self._records_since_compact = 0
        self._fd = os.open(path, os.O_WRONLY | os.O_APPEND, 0o644)
        self.stats["compactions"] += 1
        self.stats["records"] += len(records)
        self.stats["segments"] = len(self._segment_indices())
        log.info(
            "journal compacted to %d live record(s) in %s",
            len(records), path.name,
        )
        return len(records)

    def _fsync_dir(self) -> None:
        try:
            dir_fd = os.open(self.directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir fds
            return
        try:
            os.fsync(dir_fd)
        except OSError:  # pragma: no cover
            pass
        finally:
            os.close(dir_fd)

    # -- replay --------------------------------------------------------------

    @classmethod
    def replay(cls, directory: Union[Path, str]) -> ServiceState:
        """Apply every readable record, in log order, to a fresh
        :class:`ServiceState` -- the transitions the live service made.

        Corrupt or torn lines are skipped and counted, never fatal: the
        journal exists to survive crashes, and a crash is exactly when
        a torn tail appears.
        """
        state = ServiceState()
        directory = Path(directory)
        if not directory.is_dir():
            return state
        names = sorted(
            name for name in os.listdir(directory) if _SEGMENT_RE.match(name)
        )
        state.segments = len(names)
        for name in names:
            with open(directory / name, "rb") as fh:
                for raw in fh:
                    rec = parse_line(raw)
                    if rec is None:
                        state.corrupt_lines += 1
                        continue
                    state.records += 1
                    state.apply(rec)
        if state.corrupt_lines:
            log.warning(
                "journal replay skipped %d corrupt/torn line(s) in %s",
                state.corrupt_lines, directory,
            )
        return state
