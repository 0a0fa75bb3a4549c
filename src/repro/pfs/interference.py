"""Cross-application I/O interference analysis.

Yildiz et al. [40] (surveyed in paper Sec. IV-B-1) root-cause
cross-application interference in HPC storage; the paper reproduces the
effect as claim C10.  This module provides the analysis side: layout
overlap metrics and the slowdown report comparing isolated vs. concurrent
runs.  The interference itself *emerges* from the shared OST device queues
and fabric links -- nothing here injects artificial slowdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.pfs.layout import StripeLayout


def ost_overlap(a: StripeLayout, b: StripeLayout) -> float:
    """Jaccard overlap of the OST sets of two layouts (0 = disjoint)."""
    sa, sb = set(a.ost_ids), set(b.ost_ids)
    union = sa | sb
    if not union:
        return 0.0
    return len(sa & sb) / len(union)


@dataclass
class SlowdownReport:
    """Per-job slowdown from concurrent execution.

    Parameters
    ----------
    alone:
        Mapping of job name to its isolated runtime (seconds).
    together:
        Mapping of job name to its runtime when co-scheduled.
    """

    alone: Dict[str, float]
    together: Dict[str, float]

    def __post_init__(self):
        missing = set(self.alone) ^ set(self.together)
        if missing:
            raise ValueError(f"job sets differ: {sorted(missing)}")
        for name, t in list(self.alone.items()) + list(self.together.items()):
            if t <= 0:
                raise ValueError(f"non-positive runtime for {name!r}: {t}")

    def slowdown(self, job: str) -> float:
        """Runtime inflation factor for one job (1.0 = unaffected)."""
        return self.together[job] / self.alone[job]

    def slowdowns(self) -> Dict[str, float]:
        return {j: self.slowdown(j) for j in self.alone}

    @property
    def mean_slowdown(self) -> float:
        vals = list(self.slowdowns().values())
        return sum(vals) / len(vals)

    @property
    def max_slowdown(self) -> float:
        return max(self.slowdowns().values())

    def interference_detected(self, threshold: float = 1.1) -> bool:
        """True if any job slowed by more than ``threshold``x."""
        return self.max_slowdown > threshold

    def summary(self) -> str:
        lines = ["job            alone      together   slowdown"]
        for j in sorted(self.alone):
            lines.append(
                f"{j:<14} {self.alone[j]:>9.3f}s {self.together[j]:>9.3f}s "
                f"{self.slowdown(j):>8.2f}x"
            )
        return "\n".join(lines)
