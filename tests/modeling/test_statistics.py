"""Unit tests for statistics, regression and hypothesis tests."""

import numpy as np
import pytest

from repro.modeling import (
    LinearModel,
    coefficient_of_variation,
    describe,
    ecdf,
    ks_test,
    pearson_correlation,
    polynomial_features,
    t_test,
)
from repro.modeling.statistics import bootstrap_ci, histogram_pdf


class TestDescribe:
    def test_basic_stats(self):
        s = describe([1.0, 2.0, 3.0, 4.0, 5.0])
        assert s.n == 5
        assert s.mean == 3.0
        assert s.median == 3.0
        assert s.minimum == 1.0 and s.maximum == 5.0
        assert s.std == pytest.approx(np.std([1, 2, 3, 4, 5], ddof=1))
        assert s.iqr == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            describe([])

    def test_single_value(self):
        s = describe([7.0])
        assert s.std == 0.0 and s.cv == 0.0

    def test_cv(self):
        assert coefficient_of_variation([10.0, 10.0, 10.0]) == 0.0
        assert coefficient_of_variation([1.0, 100.0]) > 1.0

    def test_summary_text(self):
        assert "mean=" in describe([1.0, 2.0]).summary()


class TestECDF:
    def test_monotone_and_normalised(self):
        xs, ps = ecdf([3.0, 1.0, 2.0])
        assert list(xs) == [1.0, 2.0, 3.0]
        assert ps[-1] == 1.0
        assert all(a <= b for a, b in zip(ps, ps[1:]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ecdf([])


def test_histogram_pdf_integrates_to_one():
    rng = np.random.default_rng(0)
    centers, dens = histogram_pdf(rng.normal(size=1000), bins=30)
    width = centers[1] - centers[0]
    assert (dens * width).sum() == pytest.approx(1.0, abs=0.01)


def test_pearson_correlation():
    x = [1.0, 2.0, 3.0, 4.0]
    assert pearson_correlation(x, [2.0, 4.0, 6.0, 8.0]) == pytest.approx(1.0)
    assert pearson_correlation(x, [8.0, 6.0, 4.0, 2.0]) == pytest.approx(-1.0)
    assert pearson_correlation(x, [5.0, 5.0, 5.0, 5.0]) == 0.0
    with pytest.raises(ValueError):
        pearson_correlation([1.0], [2.0])
    with pytest.raises(ValueError):
        pearson_correlation([1.0, 2.0], [1.0, 2.0, 3.0])


def test_bootstrap_ci_contains_mean():
    rng = np.random.default_rng(1)
    data = rng.normal(10.0, 1.0, size=200)
    lo, hi = bootstrap_ci(data, seed=2)
    assert lo < 10.0 < hi
    assert hi - lo < 1.0
    with pytest.raises(ValueError):
        bootstrap_ci([], seed=0)
    with pytest.raises(ValueError):
        bootstrap_ci([1.0], confidence=2.0)


class TestLinearModel:
    def test_recovers_exact_linear_relation(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 10, size=(50, 2))
        y = 3.0 + 2.0 * X[:, 0] - 0.5 * X[:, 1]
        m = LinearModel().fit(X, y)
        assert m.intercept_ == pytest.approx(3.0, abs=1e-8)
        assert m.coef_[0] == pytest.approx(2.0, abs=1e-8)
        assert m.coef_[1] == pytest.approx(-0.5, abs=1e-8)
        assert m.r2_ == pytest.approx(1.0)
        assert m.score(X, y) == pytest.approx(1.0)

    def test_validation(self):
        m = LinearModel()
        with pytest.raises(ValueError):
            m.fit([[1, 2]], [1.0])  # too few samples
        with pytest.raises(RuntimeError):
            m.predict([[1, 2]])
        m.fit([[1.0], [2.0], [3.0]], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            m.predict([[1.0, 2.0]])

    def test_polynomial_features(self):
        X = np.array([[2.0, 3.0]])
        out = polynomial_features(X, degree=3)
        assert out.shape == (1, 6)
        assert list(out[0]) == [2.0, 3.0, 4.0, 9.0, 8.0, 27.0]
        with pytest.raises(ValueError):
            polynomial_features(X, degree=0)


class TestHypothesisTests:
    def test_t_test_detects_mean_shift(self):
        rng = np.random.default_rng(0)
        a = rng.normal(10, 1, 100)
        b = rng.normal(12, 1, 100)
        result = t_test(a, b)
        assert result.significant
        assert "REJECT" in result.summary()

    def test_t_test_same_distribution(self):
        rng = np.random.default_rng(0)
        a = rng.normal(10, 1, 100)
        b = rng.normal(10, 1, 100)
        assert not t_test(a, b).significant

    def test_ks_test_detects_shape_change(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 1, 200)
        b = rng.exponential(1, 200)
        assert ks_test(a, b).significant

    def test_small_samples_rejected(self):
        with pytest.raises(ValueError):
            t_test([1.0], [1.0, 2.0])

    @pytest.mark.parametrize("test", [t_test, ks_test])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_samples_rejected(self, test, bad):
        # A NaN p-value would otherwise read as "fail to reject H0".
        with pytest.raises(ValueError, match="non-finite"):
            test([1.0, 2.0, bad], [2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="non-finite"):
            test([2.0, 3.0, 4.0], [1.0, 2.0, bad])

    @pytest.mark.parametrize("test", [t_test, ks_test])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, test, alpha):
        with pytest.raises(ValueError, match="alpha"):
            test([1.0, 2.0, 3.0], [2.0, 3.0, 4.0], alpha=alpha)

    def test_results_match_scipy_exactly(self):
        from scipy import stats as sps

        a = [1.2, 3.4, 2.2, 5.1, 4.4, 2.9, 3.3]
        b = [2.5, 4.1, 6.0, 5.5, 3.9, 4.8]
        t = t_test(a, b, alpha=0.1)
        stat, p = sps.ttest_ind(a, b, equal_var=False)
        assert (t.statistic, t.p_value, t.alpha) == (float(stat), float(p), 0.1)
        ks = ks_test(a, b)
        stat, p = sps.ks_2samp(a, b)
        assert (ks.statistic, ks.p_value) == (float(stat), float(p))
