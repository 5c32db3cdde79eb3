import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from levyst.diagnostics import (
    CovOracleResult,
    covariance_oracle_check,
    ks_distance,
    lagged_correlation,
    normality_summary,
    recursive_cov_stationarity_test,
    recursive_stationarity_test,
    threshold_sequence,
)
from levyst.errors import InvalidArgumentError, UndefinedBinError
from levyst.model import KernelParams
from levyst.sampler import MoveStats


def test_ks_distance_basic():
    a = np.array([1.0, 2.0, 3.0])
    assert ks_distance(a, a) == 0.0
    assert ks_distance(a, a + 100.0) == 1.0
    assert ks_distance(a, np.array([2.0, 3.0, 4.0])) == pytest.approx(1.0 / 3.0)
    with pytest.raises(InvalidArgumentError):
        ks_distance(a, np.array([]))


def test_ks_distance_matches_scipy():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal(63), rng.standard_normal(41) + 0.3
    assert ks_distance(a, b) == pytest.approx(ks_2samp(a, b).statistic, rel=1e-12)


def test_threshold_sequence_slowly_decreasing():
    c = threshold_sequence(0.26, 500)
    assert c[0] == pytest.approx(0.26)
    assert np.all(np.diff(c) <= 0.0)
    assert c[-1] == pytest.approx(0.26 * 500 ** (-0.1), rel=1e-12)
    assert np.all(threshold_sequence(1e-9, 10) >= 1e-6)


def test_recursive_stationarity_iid_vs_drift():
    rng = np.random.default_rng(4)
    iid = [rng.standard_normal(150) for _ in range(120)]
    res = recursive_stationarity_test(iid, c0=0.26)
    assert res.verdict == "stationary"
    assert np.all((res.posterior_mean > 0) & (res.posterior_mean < 1))

    drift = [rng.standard_normal(150) + 3.0 * j / 119 for j in range(120)]
    res2 = recursive_stationarity_test(drift, c0=0.05)
    assert res2.verdict == "nonstationary"


def test_recursive_stationarity_zero_threshold():
    rng = np.random.default_rng(1)
    regions = [rng.standard_normal(60) for _ in range(60)]
    res = recursive_stationarity_test(regions, c0=0.0)
    assert res.posterior_mean[-1] < 0.05
    assert res.verdict == "nonstationary"


def test_recursive_stationarity_deterministic_and_validated():
    rng = np.random.default_rng(2)
    regions = [rng.standard_normal(40) for _ in range(30)]
    a = recursive_stationarity_test(regions, c0=0.2)
    b = recursive_stationarity_test(regions, c0=0.2)
    np.testing.assert_array_equal(a.posterior_mean, b.posterior_mean)
    with pytest.raises(InvalidArgumentError):
        recursive_stationarity_test(regions[:1], c0=0.2)


def test_cov_stationarity_white_noise_vs_variance_shift():
    rng = np.random.default_rng(6)
    times = np.arange(1500.0)
    white = [rng.standard_normal(1500) for _ in range(60)]
    res = recursive_cov_stationarity_test(white, times, (0.0, 0.5), c0=0.15)
    assert res.verdict == "stationary"

    # variance level shift across the region index
    shifted = [rng.standard_normal(1500) * (1.0 if j < 30 else 1.5) for j in range(60)]
    res2 = recursive_cov_stationarity_test(shifted, times, (0.0, 0.5), c0=0.15)
    assert res2.verdict == "nonstationary"


def test_cov_stationarity_undefined_bin():
    times = np.array([0.0, 1.0])
    regions = [np.array([0.1, 0.2]), np.array([0.3, 0.4])]
    with pytest.raises(UndefinedBinError):
        recursive_cov_stationarity_test(regions, times, (5.0, 6.0), c0=0.1)


def test_lagged_correlation_white_noise():
    rng = np.random.default_rng(3)
    locs = rng.random((8, 2))
    times = np.arange(1.0, 26.0)
    y = rng.standard_normal((8, 25))
    edges = np.array([0.0, 5.0, 10.0, 20.0, 30.0])
    bins = lagged_correlation(locs, times, y, edges)
    for b in range(bins.counts.size):
        if bins.counts[b] > 100:
            se = 1.0 / math.sqrt(bins.counts[b])
            assert abs(bins.correlation[b]) < 5 * se


def test_lagged_correlation_decay_on_ar_field():
    rng = np.random.default_rng(9)
    n_t = 2000
    x = np.empty(n_t)
    x[0] = rng.standard_normal()
    rho = 0.5
    for t in range(1, n_t):
        x[t] = rho * x[t - 1] + math.sqrt(1 - rho * rho) * rng.standard_normal()
    locs = np.zeros((1, 2))
    times = np.arange(float(n_t))
    edges = np.arange(0.5, 11.0)
    bins = lagged_correlation(locs, times, x[None, :], edges, chunk=256)
    corr = bins.correlation
    assert np.all(np.isfinite(corr))
    expected = rho ** np.arange(1, 11)
    np.testing.assert_allclose(corr, expected, atol=0.12)
    assert abs(corr[-1]) < 0.1


def test_lagged_correlation_shift_invariance_and_undefined():
    rng = np.random.default_rng(5)
    locs = rng.random((3, 1))
    times = np.arange(1.0, 5.0)
    y = rng.standard_normal((3, 4))
    edges = np.array([0.0, 1.0, 2.0, 5.0])
    a = lagged_correlation(locs, times, y, edges)
    b = lagged_correlation(locs, times, y + 7.5, edges)
    np.testing.assert_allclose(a.correlation, b.correlation, rtol=1e-9)

    one_pair = lagged_correlation(np.zeros((1, 1)), np.array([0.0, 3.0]),
                                  np.array([[1.0, 2.0]]), np.array([2.5, 3.5]))
    assert one_pair.counts[0] == 1
    assert np.isnan(one_pair.correlation[0])


def _kp(p=1, xi=0.5, tau=1.0, ksq=1.0):
    return KernelParams(tilde_sigma_sq=np.full(p, ksq), tau=tau, xi=xi)


def test_cov_oracle_same_point_agreement():
    rng = np.random.default_rng(12)
    res = covariance_oracle_check(lam=4.0, kp=_kp(), sigma_sq_mu=np.array([1.0]),
                                  sigma_sq_beta=0.8, m1=np.array([0.3]),
                                  m2=np.array([0.3]), t=2.0, n_mc=20_000, rng=rng)
    assert res.analytic >= 0.0
    assert res.z < 3.0


def test_cov_oracle_decay_at_large_separation():
    rng = np.random.default_rng(13)
    near = covariance_oracle_check(4.0, _kp(), np.array([1.0]), 0.8,
                                   np.array([0.0]), np.array([0.0]), 1.0, 20_000, rng)
    far = covariance_oracle_check(4.0, _kp(), np.array([1.0]), 0.8,
                                  np.array([-12.0]), np.array([12.0]), 1.0, 20_000, rng)
    assert abs(far.analytic) < 0.01 * near.analytic
    assert abs(far.mc_cov) < 0.01 * near.analytic


def test_cov_oracle_linear_in_lambda():
    rng1 = np.random.default_rng(77)
    a = covariance_oracle_check(2.0, _kp(), np.array([1.0]), 1.0,
                                np.array([0.1]), np.array([0.4]), 1.0, 10_000, rng1)
    rng2 = np.random.default_rng(77)
    b = covariance_oracle_check(4.0, _kp(), np.array([1.0]), 1.0,
                                np.array([0.1]), np.array([0.4]), 1.0, 10_000, rng2)
    assert b.analytic == pytest.approx(2.0 * a.analytic, rel=1e-12)


def test_cov_oracle_validates_sample_size():
    with pytest.raises(InvalidArgumentError):
        covariance_oracle_check(1.0, _kp(), np.array([1.0]), 1.0, np.array([0.0]),
                                np.array([0.0]), 1.0, 100, np.random.default_rng(0))


def test_normality_summary():
    rng = np.random.default_rng(8)
    good = normality_summary(rng.standard_normal(20_000))
    assert good.max_abs_deviation < 0.05
    heavy = normality_summary(rng.standard_cauchy(20_000))
    assert heavy.max_abs_deviation > good.max_abs_deviation * 5
    const = normality_summary(np.full(25, 3.0))
    assert const.degenerate
    with pytest.raises(InvalidArgumentError):
        normality_summary(np.arange(5.0))


def test_acceptance_report():
    stats = MoveStats()
    stats.proposals.update(birth=100, death=0, no_change=50, tmcmc=10, enhance=10)
    stats.accepts.update(birth=9, death=0, no_change=25, tmcmc=5, enhance=1)
    assert stats.rate("birth") == pytest.approx(0.09)
    assert stats.rate("death") is None
    assert stats.overall_ttmcmc_rate() == pytest.approx(34 / 150)


def test_acceptance_report_reproduces_reference_rates():
    # fixture engineered to reproduce published-style per-move and pooled rates
    stats = MoveStats()
    stats.proposals.update(birth=4186, death=1628, no_change=4186)
    stats.accepts.update(birth=377, death=1182, no_change=2591)
    assert stats.rate("birth") == pytest.approx(0.09, abs=5e-4)
    assert stats.rate("death") == pytest.approx(0.726, abs=5e-4)
    assert stats.rate("no_change") == pytest.approx(0.619, abs=5e-4)
    assert stats.overall_ttmcmc_rate() == pytest.approx(0.415, abs=1e-12)
