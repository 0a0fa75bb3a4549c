"""ML-workload-aware I/O profiling (tf-Darshan-like).

Chien et al.'s tf-Darshan [24] extends Darshan to "understand fine-grained
I/O performance in machine learning workloads": the key capability is
slicing POSIX-level I/O by *training structure* (epoch, step) rather than
only by file.  Here, workload annotations (``epoch``/``step`` in op meta)
propagate down the stack into record extras (see
:attr:`repro.iostack.posix.PosixLayer.context`), and the
:class:`MLIOProfiler` aggregates them into the per-epoch view a DL
performance engineer needs: read volume and time per epoch, the data-stall
fraction, and the epoch-over-epoch trend that exposes caching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.ops import IORecord, OpKind


@dataclass
class EpochStats:
    """Aggregated I/O of one training epoch."""

    epoch: int
    reads: int = 0
    bytes_read: int = 0
    read_time: float = 0.0
    first_start: Optional[float] = None
    last_end: float = 0.0

    @property
    def wall_time(self) -> float:
        if self.first_start is None:
            return 0.0
        return self.last_end - self.first_start

    @property
    def read_bandwidth(self) -> float:
        return self.bytes_read / self.read_time if self.read_time > 0 else 0.0


class MLIOProfiler:
    """Per-epoch I/O aggregation for training workloads.

    Use as a run observer.  Only data records carrying an ``epoch``
    annotation are aggregated; everything else (dataset generation,
    checkpoints without step tags) is counted separately as
    ``untagged_bytes``.
    """

    def __init__(self, layer: str = "posix"):
        self.layer = layer
        self._epochs: Dict[int, EpochStats] = {}
        self.untagged_bytes = 0

    def __call__(self, rec: IORecord) -> None:
        if rec.layer != self.layer or not rec.kind.is_data:
            return
        epoch = rec.extra.get("epoch")
        if epoch is None:
            self.untagged_bytes += rec.nbytes
            return
        epoch = int(epoch)
        es = self._epochs.get(epoch)
        if es is None:
            es = EpochStats(epoch=epoch)
            self._epochs[epoch] = es
        if rec.kind == OpKind.READ:
            es.reads += 1
            es.bytes_read += rec.nbytes
            es.read_time += rec.duration
        if es.first_start is None or rec.start < es.first_start:
            es.first_start = rec.start
        es.last_end = max(es.last_end, rec.end)

    # -- queries ----------------------------------------------------------------
    def epochs(self) -> List[EpochStats]:
        return [self._epochs[e] for e in sorted(self._epochs)]

    def stall_fraction(self, epoch: int, wall_time: Optional[float] = None) -> float:
        """Fraction of epoch wall time spent waiting on reads.

        The "data stall" metric DL I/O studies optimise: near 1 means the
        accelerators starve, near 0 means the input pipeline keeps up.
        """
        es = self._epochs.get(epoch)
        if es is None:
            raise KeyError(f"no epoch {epoch} observed")
        wall = wall_time if wall_time is not None else es.wall_time
        if wall <= 0:
            return 0.0
        return min(1.0, es.read_time / wall)

    def epoch_speedup_trend(self) -> float:
        """read_time(epoch 0) / read_time(last epoch).

        >1 signals warm-cache or staging effects kicking in after the
        first pass over the dataset.
        """
        es = self.epochs()
        if len(es) < 2:
            raise ValueError("need at least two epochs for a trend")
        last = es[-1].read_time
        if last <= 0:
            return float("inf")
        return es[0].read_time / last

    def report(self) -> str:
        lines = [
            f"{'epoch':>5} {'reads':>7} {'MiB':>8} {'read s':>8} "
            f"{'MB/s':>8} {'stall':>6}"
        ]
        for es in self.epochs():
            lines.append(
                f"{es.epoch:>5} {es.reads:>7} {es.bytes_read / 2**20:>8.1f} "
                f"{es.read_time:>8.3f} {es.read_bandwidth / 1e6:>8.1f} "
                f"{self.stall_fraction(es.epoch):>6.1%}"
            )
        if self.untagged_bytes:
            lines.append(f"untagged I/O: {self.untagged_bytes / 2**20:.1f} MiB")
        return "\n".join(lines)
