"""Vectorized event-cohort helpers.

A *cohort* is a homogeneous population of events scheduled (and often
processed) together: per-rank phase arrivals of an SPMD round, per-link
fair-share admissions, per-OST service completions.  The scalar engine
pays one heap push, one float add and one validation branch per event;
when the population is an array, all three vectorize.

This module centralises the numpy gating and the shared numeric kernels so
the engine (:meth:`repro.des.engine.Environment.schedule_batch`), the
bandwidth model (:meth:`repro.des.sharing.FairShareLink.transfer_batch`)
and the scale-scenario cohort model (:mod:`repro.simulate.scalemodel`)
agree on validation semantics and float behaviour.

Exactness contract
------------------
Vectorized kernels must be *bit-identical* to their scalar counterparts,
not merely close: the golden seed-0 fixture pins scenario outputs and the
engine-equivalence property tests compare event timelines across engines.
IEEE-754 elementwise ``+``/``*``/``/`` on float64 arrays match Python
float arithmetic exactly, so cohort code sticks to elementwise ops and
min/max reductions (exact selections) and never uses ``np.sum`` on floats
(pairwise summation reorders the adds).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

#: Below this population size the scalar loop beats array setup overhead;
#: measured on the engine microbenchmarks (see ``benchmarks``).
MIN_VECTOR_BATCH = 8


def as_delay_array(delays: Sequence[float]):
    """Validate a cohort of delays and return them as a float64 array.

    Mirrors the scalar :meth:`Environment.schedule` checks -- negative and
    NaN delays are rejected (NaN silently breaks the heap invariant) --
    but performs both checks with two vector comparisons instead of two
    branches per event.
    """
    arr = np.asarray(delays, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"delay cohort must be 1-D, got shape {arr.shape}")
    # A single fused pass: NaN fails both comparisons, so ``>= 0`` is
    # False for NaN and one reduction covers both rejection rules.
    if not bool(np.all(arr >= 0.0)):
        if bool(np.any(np.isnan(arr))):
            raise ValueError("NaN delay in cohort")
        raise ValueError("negative delay in cohort")
    return arr


def fire_times(now: float, delays) -> List[float]:
    """``now + delay`` for each cohort member.

    Elementwise float64 addition is bit-identical to the scalar engine's
    ``self._now + delay``, so batch-scheduled events land on exactly the
    heap keys scalar scheduling would have produced.
    """
    return (now + delays).tolist()


def observe_cohort(kind: str, size: int, now: Optional[float] = None) -> None:
    """Record a cohort admission in self-telemetry (when enabled).

    Feeds the cohort-size histogram surfaced by ``repro-io telemetry``:
    ``des.cohort.size`` tracks the population distribution,
    ``des.cohort.batches`` / ``des.cohort.events`` count how much of the
    event volume flows through the vectorized path.  When the call site
    passes the simulated clock via ``now``, the admission also lands on
    the ``des.cohort.<kind>`` time series (size over simulated time).
    """
    from repro.telemetry import TELEMETRY

    if not TELEMETRY.active:
        return
    m = TELEMETRY.metrics
    m.counter("des.cohort.batches").inc()
    m.counter("des.cohort.events").inc(size)
    m.counter(f"des.cohort.{kind}.events").inc(size)
    m.histogram("des.cohort.size").observe(size)
    if now is not None:
        TELEMETRY.series.record(f"des.cohort.{kind}", now, size, "events")


def fair_share_batch_times(
    admit_time: float, nbytes: float, population: int, rate: float
) -> float:
    """Completion time of ``population`` equal-size flows admitted together.

    A fair-share link serving ``population`` simultaneous flows of
    ``nbytes`` each completes them all at the same instant.  The expression
    replicates :class:`repro.des.sharing.FairShareLink` float-for-float
    (``remaining * len(active) / rate`` evaluated on an idle link, then
    ``now + delay``), which is what lets the vectorized scale model
    reproduce the scalar engine's timings exactly.
    """
    return admit_time + nbytes * population / rate


__all__ = [
    "MIN_VECTOR_BATCH",
    "as_delay_array",
    "fair_share_batch_times",
    "fire_times",
    "observe_cohort",
]
