"""Self-telemetry metrics: counters, gauges and log2-bucket histograms.

The simulator's *simulated* instruments (``repro.monitoring``) measure the
modelled workloads; this registry measures the simulator itself -- events
executed per :meth:`Environment.run`, fair-share rebalances, OST queue
waits, runner cache hits.  It is deliberately tiny and allocation-light:
metric objects are plain ``__slots__`` classes, the registry is a dict, and
nothing here is touched on a hot path unless telemetry is enabled (hot
call sites guard on ``TELEMETRY.active`` first; see
:mod:`repro.telemetry`).

Histograms use *fixed* base-2 buckets: an observation ``v`` lands in the
bucket whose upper bound is ``2**ceil(log2(v))``, with the exponent clamped
to ``[_MIN_EXP, _MAX_EXP]``.  Fixed buckets make histograms mergeable
across runs and cheap to record (one ``frexp``, one dict increment) at the
cost of ~2x resolution -- the standard HDR/Prometheus trade-off.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterator, Optional, Union

#: Clamp histogram bucket exponents to [2**-30 s ~ 1 ns .. 2**34 ~ 1.7e10].
_MIN_EXP = -30
_MAX_EXP = 34

METRICS_SCHEMA = "repro.telemetry.metrics/1"


class Counter:
    """A monotonically increasing count (events, bytes, cache hits)."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: Union[int, float] = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease (n={n})")
        self.value += n

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A point-in-time value; also tracks high-water marks via
    :meth:`update_max`."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0

    def set(self, v: Union[int, float]) -> None:
        self.value = v

    def update_max(self, v: Union[int, float]) -> None:
        if v > self.value:
            self.value = v

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """Fixed log2-bucket histogram of non-negative observations.

    Buckets are keyed by exponent ``e``: the bucket holds observations in
    ``(2**(e-1), 2**e]``.  Zero (and negative, clamped) observations go to a
    dedicated underflow bucket.
    """

    __slots__ = ("name", "count", "total", "vmin", "vmax", "zero_count", "buckets")

    kind = "histogram"

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None
        self.zero_count = 0
        #: exponent -> observation count
        self.buckets: Dict[int, int] = {}

    def observe(self, v: Union[int, float]) -> None:
        self.count += 1
        if v <= 0:
            self.zero_count += 1
            v = 0.0
        else:
            self.total += v
            e = _bucket_exp(v)
            self.buckets[e] = self.buckets.get(e, 0) + 1
        if self.vmin is None or v < self.vmin:
            self.vmin = v
        if self.vmax is None or v > self.vmax:
            self.vmax = v

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.vmin,
            "max": self.vmax,
            "zero_count": self.zero_count,
            # JSON keys must be strings; "e" means bucket (2^(e-1), 2^e].
            "buckets": {str(e): n for e, n in sorted(self.buckets.items())},
        }


def _bucket_exp(v: float) -> int:
    # frexp(v) = (m, e) with v = m * 2**e and 0.5 <= m < 1, so 2**e is the
    # smallest power of two >= v (exact powers land in their own bucket).
    m, e = math.frexp(v)
    if m == 0.5:  # exact power of two: 2**(e-1)
        e -= 1
    return max(_MIN_EXP, min(_MAX_EXP, e))


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named metrics with get-or-create accessors and a JSON export.

    >>> reg = MetricsRegistry()
    >>> reg.counter("des.runs").inc()
    >>> reg.counter("des.runs").value
    1
    """

    def __init__(self):
        self._metrics: Dict[str, Metric] = {}

    # -- accessors ----------------------------------------------------------
    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def _get_or_create(self, name: str, cls) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name)
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {cls.__name__}"
            )
        return metric

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def clear(self) -> None:
        self._metrics.clear()

    # -- cross-process aggregation ------------------------------------------
    def merge(self, doc: Dict[str, Any]) -> None:
        """Fold a ``to_dict()`` document (usually from a worker process)
        into this registry.

        The fold is commutative -- counters add, gauges keep the max
        (every gauge in the codebase is a high-water mark), histograms
        add bucket-wise and combine min/max -- so merging worker
        snapshots in pool-completion order yields the same registry no
        matter which worker finished first.
        """
        for name, entry in (doc.get("metrics") or {}).items():
            kind = entry.get("kind")
            if kind == "counter":
                self.counter(name).inc(entry.get("value", 0))
            elif kind == "gauge":
                self.gauge(name).update_max(entry.get("value", 0))
            elif kind == "histogram":
                h = self.histogram(name)
                h.count += entry.get("count", 0)
                h.total += entry.get("total", 0.0)
                h.zero_count += entry.get("zero_count", 0)
                for key, n in (entry.get("buckets") or {}).items():
                    e = int(key)
                    h.buckets[e] = h.buckets.get(e, 0) + n
                for src, better in (("min", min), ("max", max)):
                    v = entry.get(src)
                    if v is None:
                        continue
                    attr = "vmin" if src == "min" else "vmax"
                    cur = getattr(h, attr)
                    setattr(h, attr, v if cur is None else better(cur, v))
            else:
                raise ValueError(f"metric {name!r} has unknown kind {kind!r}")

    # -- export -------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": METRICS_SCHEMA,
            "metrics": {
                name: self._metrics[name].to_dict()
                for name in sorted(self._metrics)
            },
        }
