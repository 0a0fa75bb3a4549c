"""I/O periodicity detection.

Application-level analyses (paper Sec. IV-B-1) describe "I/O periodicity
and repetition ... of individual jobs": bulk-synchronous applications
write in regularly spaced bursts (checkpoint intervals), and detecting the
period from monitoring data enables burst prediction and scheduling
(Dorier et al. [55] and the burst-buffer sizing literature).

:func:`detect_period` estimates the dominant period of an event-time
series by autocorrelation of the binned activity signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class PeriodEstimate:
    """Result of period detection."""

    period: Optional[float]  # seconds; None if no periodicity found
    confidence: float  # peak autocorrelation in [0, 1]
    n_events: int

    @property
    def is_periodic(self) -> bool:
        return self.period is not None


def detect_period(
    times: Sequence[float],
    bin_seconds: Optional[float] = None,
    min_confidence: float = 0.3,
) -> PeriodEstimate:
    """Estimate the dominant period of an event-time stream.

    Parameters
    ----------
    times:
        Event timestamps (e.g. write-record start times).
    bin_seconds:
        Activity-signal bin width; defaults to span/256.
    min_confidence:
        Minimum normalised autocorrelation peak to report a period.

    Notes
    -----
    The activity signal is the per-bin event count with its mean removed;
    the first local maximum of its autocorrelation above ``min_confidence``
    is the period.  Poisson-like (aperiodic) streams produce no qualifying
    peak and return ``period=None``.
    """
    arr = np.sort(np.asarray(list(times), dtype=float))
    if arr.size < 4:
        return PeriodEstimate(period=None, confidence=0.0, n_events=int(arr.size))
    span = arr[-1] - arr[0]
    if span <= 0:
        return PeriodEstimate(period=None, confidence=0.0, n_events=int(arr.size))
    if bin_seconds is None:
        bin_seconds = span / 256
    n_bins = max(8, int(np.ceil(span / bin_seconds)))
    counts, _ = np.histogram(arr, bins=n_bins)
    signal = counts - counts.mean()
    if not signal.any():
        return PeriodEstimate(period=None, confidence=0.0, n_events=int(arr.size))

    # Normalised autocorrelation for positive lags.
    full = np.correlate(signal, signal, mode="full")
    acf = full[full.size // 2 :]
    if acf[0] <= 0:
        return PeriodEstimate(period=None, confidence=0.0, n_events=int(arr.size))
    acf = acf / acf[0]

    # First local maximum after the zero-lag peak decays.
    best_lag, best_val = None, min_confidence
    for lag in range(2, len(acf) - 1):
        if acf[lag] > acf[lag - 1] and acf[lag] >= acf[lag + 1] and acf[lag] > best_val:
            best_lag, best_val = lag, float(acf[lag])
            break  # the first qualifying peak is the fundamental period
    if best_lag is None:
        return PeriodEstimate(period=None, confidence=float(acf[1:].max(initial=0.0)),
                              n_events=int(arr.size))
    bin_width = span / n_bins
    return PeriodEstimate(
        period=best_lag * bin_width, confidence=best_val, n_events=int(arr.size)
    )
