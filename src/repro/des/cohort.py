"""Event-cohort helpers.

A *cohort* is a homogeneous population of events scheduled (and often
processed) together: per-rank phase arrivals of an SPMD round, per-link
fair-share admissions, per-OST service completions.  When the population
is an array, the scalar engine's per-event work vectorizes.

Two users share this module: the bandwidth model
(:meth:`repro.des.sharing.FairShareLink.transfer_batch`) records its
cohort admissions through :func:`observe_cohort`, and the scale-scenario
cohort model (:mod:`repro.simulate.scalemodel`) also computes its
fair-share completion times with :func:`fair_share_batch_times`.

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

from typing import Optional


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


__all__ = ["fair_share_batch_times", "observe_cohort"]
