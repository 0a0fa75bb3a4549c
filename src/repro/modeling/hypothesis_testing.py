"""Hypothesis tests for performance comparisons.

Sec. IV-B-1 lists hypothesis testing among the statistics techniques.  The
two tests I/O studies actually use are wrapped with a uniform result type:
Welch's t-test ("is configuration A faster than B?") and the two-sample
Kolmogorov-Smirnov test ("do these latency distributions differ?").

Samples must be finite: a NaN would make the p-value NaN, which would
silently read as "fail to reject H0".  scipy is imported inside the two
tests, so the rest of the toolkit starts without loading it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class TestResult:
    """Outcome of a hypothesis test."""

    test: str
    statistic: float
    p_value: float
    alpha: float = 0.05

    @property
    def significant(self) -> bool:
        """Reject the null hypothesis at level alpha."""
        return self.p_value < self.alpha

    def summary(self) -> str:
        verdict = "REJECT H0" if self.significant else "fail to reject H0"
        return (
            f"{self.test}: stat={self.statistic:.4g} p={self.p_value:.4g} "
            f"(alpha={self.alpha}) -> {verdict}"
        )


def _check(sample: Sequence[float], name: str, min_n: int = 2) -> np.ndarray:
    arr = np.asarray(list(sample), dtype=float)
    if arr.size < min_n:
        raise ValueError(f"{name} needs at least {min_n} observations")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has non-finite observations")
    return arr


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


def t_test(
    a: Sequence[float], b: Sequence[float], alpha: float = 0.05
) -> TestResult:
    """Welch's two-sample t-test (unequal variances).

    Null hypothesis: the two samples have equal means.
    """
    from scipy import stats as sps

    _check_alpha(alpha)
    arr_a = _check(a, "sample a")
    arr_b = _check(b, "sample b")
    stat, p = sps.ttest_ind(arr_a, arr_b, equal_var=False)
    return TestResult(test="welch-t", statistic=float(stat), p_value=float(p), alpha=alpha)


def ks_test(
    a: Sequence[float], b: Sequence[float], alpha: float = 0.05
) -> TestResult:
    """Two-sample Kolmogorov-Smirnov test.

    Null hypothesis: both samples are drawn from the same distribution.
    """
    from scipy import stats as sps

    _check_alpha(alpha)
    arr_a = _check(a, "sample a")
    arr_b = _check(b, "sample b")
    stat, p = sps.ks_2samp(arr_a, arr_b)
    return TestResult(test="ks-2samp", statistic=float(stat), p_value=float(p), alpha=alpha)
