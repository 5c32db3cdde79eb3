import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.stats import ks_2samp

import levyst.diagnostics as diagnostics_module
from levyst.diagnostics import (
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


@pytest.mark.parametrize("c0", [-1.0, -1e-300, math.nan, math.inf])
def test_threshold_sequence_rejects_bad_c0(c0):
    """c0 must be finite and >= 0 (0 is a valid start: see the zero-threshold
    test); a NaN c0 would turn every threshold into NaN."""
    with pytest.raises(InvalidArgumentError, match="c0"):
        threshold_sequence(c0, 5)
    with pytest.raises(InvalidArgumentError, match="c0"):
        recursive_stationarity_test([np.zeros(3), np.ones(3)], c0=c0)


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


def test_lagged_correlation_decay_on_ar_field(monkeypatch):
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
    monkeypatch.setattr(diagnostics_module, "PAIR_CHUNK", 256)
    bins = lagged_correlation(locs, times, x[None, :], edges)
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


@dataclass
class CovOracleResult:
    mc_cov: float
    analytic: float
    se: float          # combined standard error of the two estimates

    @property
    def z(self) -> float:
        return abs(self.mc_cov - self.analytic) / self.se


def covariance_oracle_check(lam: float, kp: KernelParams, sigma_sq_mu: np.ndarray,
                            sigma_sq_beta: float, m1: np.ndarray, m2: np.ndarray,
                            t: float, n_mc: int, rng: np.random.Generator) -> CovOracleResult:
    """Monte Carlo same-time covariance of the field against the conditional
    identity lam * E[K(m1 - mu) K(m2 - mu) beta^2].

    The field side draws Poisson counts and fresh atoms per replicate; the
    analytic side is an independent Monte Carlo of the expectation with ten
    times the sample size.
    """
    if n_mc < 10_000:
        raise InvalidArgumentError("n_mc must be at least 1e4")
    rng_field, rng_exp = rng.spawn(2)
    m1 = np.atleast_1d(np.asarray(m1, dtype=float))
    m2 = np.atleast_1d(np.asarray(m2, dtype=float))
    p = m1.size
    sd_mu = np.sqrt(np.asarray(sigma_sq_mu, dtype=float))
    sd_beta = math.sqrt(sigma_sq_beta)
    time_factor = math.exp(-kp.xi * abs(t - kp.tau))

    def kernel_cols(mu):
        d1 = m1[None, :] - mu
        d2 = m2[None, :] - mu
        k1 = np.exp(-0.5 * (d1 * d1) @ kp.tilde_sigma_sq) * time_factor
        k2 = np.exp(-0.5 * (d2 * d2) @ kp.tilde_sigma_sq) * time_factor
        return k1, k2

    # field replicates
    counts = rng_field.poisson(lam, size=n_mc)
    total = int(counts.sum())
    mu_all = rng_field.standard_normal((total, p)) * sd_mu
    beta_all = rng_field.standard_normal(total) * sd_beta
    k1_all, k2_all = kernel_cols(mu_all)
    bounds = np.concatenate([[0], np.cumsum(counts)])
    w1 = k1_all * beta_all
    w2 = k2_all * beta_all
    c1 = np.add.reduceat(np.concatenate([w1, [0.0]]), bounds[:-1])
    c2 = np.add.reduceat(np.concatenate([w2, [0.0]]), bounds[:-1])
    c1[counts == 0] = 0.0
    c2[counts == 0] = 0.0
    f1 = c1
    f2 = c2
    prod = (f1 - f1.mean()) * (f2 - f2.mean())
    mc_cov = float(prod.mean())
    se_mc = float(prod.std(ddof=1) / math.sqrt(n_mc))

    # independent estimate of the expectation term
    n_an = 10 * n_mc
    mu_e = rng_exp.standard_normal((n_an, p)) * sd_mu
    beta_e = rng_exp.standard_normal(n_an) * sd_beta
    k1_e, k2_e = kernel_cols(mu_e)
    vals = lam * k1_e * k2_e * beta_e**2
    analytic = float(vals.mean())
    se_an = float(vals.std(ddof=1) / math.sqrt(n_an))

    return CovOracleResult(mc_cov=mc_cov, analytic=analytic,
                           se=math.sqrt(se_mc**2 + se_an**2))


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
