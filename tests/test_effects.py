import math

import numpy as np
import pytest

from levyst.effects import (
    gibbs_update_phi_matrix,
    gibbs_update_sigma_sq_alpha,
    gibbs_update_sigma_sq_phi,
    phi0_predict,
    phi0_training_matrix,
)
from levyst.errors import InvalidStateError


def test_phi0_two_locations_swap():
    locs = np.array([[0.0, 0.0], [1.0, 0.0]])
    y = np.array([[1.0, 2.0], [3.0, 4.0]])
    phi0 = phi0_training_matrix(locs, y)
    np.testing.assert_allclose(phi0[0], y[1])
    np.testing.assert_allclose(phi0[1], y[0])


def test_phi0_tie_averaging():
    locs = np.array([[0.0], [1.0], [-1.0]])
    y = np.array([[5.0], [1.0], [3.0]])
    phi0 = phi0_training_matrix(locs, y)
    assert phi0[0, 0] == pytest.approx(2.0)


def test_phi0_training_needs_two_locations():
    with pytest.raises(InvalidStateError):
        phi0_training_matrix(np.array([[0.0]]), np.array([[1.0]]))


def test_phi0_prediction_zero_distance():
    locs = np.array([[0.0, 0.0], [1.0, 1.0]])
    times = np.array([1.0, 2.0])
    y = np.array([[10.0, 20.0], [30.0, 40.0]])
    got = phi0_predict(locs, times, y, np.array([1.0, 1.0]), 2.0)
    assert got == 40.0


def test_phi0_prediction_tie_average():
    locs = np.array([[0.0], [2.0]])
    times = np.array([1.0])
    y = np.array([[1.0], [3.0]])
    got = phi0_predict(locs, times, y, np.array([1.0]), 1.0)
    assert got == pytest.approx(2.0)


def _phi0_predict_scan(locations, times, y, s_new, t_new):
    """One point at a time: scan every training cell's distance."""
    d_sp = np.sum((locations - s_new) ** 2, axis=1)
    d = d_sp[:, None] + (times[None, :] - t_new) ** 2
    return float(y.ravel()[np.flatnonzero(d.ravel() == d.min())].mean())


@pytest.mark.parametrize("grid", [True, False])
def test_phi0_prediction_matches_pointwise_scan(grid):
    rng = np.random.default_rng(8)
    if grid:  # integer coordinates and half-way times: many exact ties
        locs = rng.integers(0, 4, size=(12, 2)).astype(float)
        pts = rng.integers(0, 8, size=(10, 2)) / 2.0
        t_new = np.array([1.0, 1.5, 3.0, 4.5, 7.0])
    else:
        locs = rng.random((12, 2))
        pts = rng.random((10, 2)) * 1.4 - 0.2
        t_new = np.array([1.0, 2.2, 5.0])
    times = np.arange(1.0, 6.0)
    y = rng.standard_normal((12, 5))
    want = np.array([[_phi0_predict_scan(locs, times, y, s, t) for t in t_new] for s in pts])
    np.testing.assert_array_equal(phi0_predict(locs, times, y, pts, t_new), want)


def test_compute_phi0_permutation_invariant():
    rng = np.random.default_rng(2)
    locs = rng.random((6, 2))
    times = np.array([1.0, 2.0, 3.0])
    y = rng.standard_normal((6, 3))
    base = phi0_predict(locs, times, y, np.array([0.4, 0.4]), 2.0)
    perm = rng.permutation(6)
    got = phi0_predict(locs[perm], times, y[perm], np.array([0.4, 0.4]), 2.0)
    assert got == pytest.approx(base)


def test_gibbs_phi_limits():
    rng = np.random.default_rng(0)
    draws = gibbs_update_phi_matrix(2.0, 0.5, 0.0, 1e-10, 1.0, 7.0, rng.standard_normal(200))
    assert np.allclose(draws, 7.0, atol=1e-3)

    # equal variances: posterior mean is the average of phi0 and (y - alpha - f)
    y, f, alpha, phi0 = 2.0, 0.5, 0.1, 1.0
    draws = gibbs_update_phi_matrix(y, f, alpha, 0.3, 0.3, phi0, rng.standard_normal(40_000))
    expected_mean = 0.5 * (phi0 + (y - alpha - f))
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - expected_mean) < 4 * se


def test_gibbs_phi_closed_form_moments():
    rng = np.random.default_rng(5)
    y, f, alpha, phi0 = 1.2, 0.3, 0.0, -0.4
    ssq_phi, ssq_eps = 0.7, 0.2
    n = 50_000
    draws = gibbs_update_phi_matrix(np.full(n, y), np.full(n, f), alpha, ssq_phi, ssq_eps, np.full(n, phi0),
                                    rng.standard_normal(n))
    post_var = 1.0 / (1.0 / ssq_phi + 1.0 / ssq_eps)
    post_mean = post_var * (phi0 / ssq_phi + (y - alpha - f) / ssq_eps)
    assert abs(draws.mean() - post_mean) < 4 * draws.std(ddof=1) / math.sqrt(n)
    var_se = draws.var(ddof=1) * math.sqrt(2.0 / (n - 1))
    assert abs(draws.var(ddof=1) - post_var) < 4 * var_se


def test_gibbs_phi_requires_explicit_mode():
    with pytest.raises(InvalidStateError):
        gibbs_update_phi_matrix(np.zeros(3), np.zeros(3), 0.0, 0.0, 1.0, np.zeros(3), np.zeros(3))


def test_sigma_sq_phi_zero_deviation_shape():
    # all phi = phi0: conditional is IG(a + nm/2, b)
    rng = np.random.default_rng(9)
    a, b, nm = 3.0, 2.0, 12
    n = 50_000
    draws = np.array([gibbs_update_sigma_sq_phi(0.0, nm, a, b, rng) for _ in range(n)])
    shape = a + nm / 2
    mean = b / (shape - 1.0)
    var = b**2 / ((shape - 1.0) ** 2 * (shape - 2.0))
    assert abs(draws.mean() - mean) < 4 * draws.std(ddof=1) / math.sqrt(n)
    mu4 = np.mean((draws - draws.mean()) ** 4)
    var_se = math.sqrt(max(mu4 - draws.var() ** 2, 0.0) / n)
    assert abs(draws.var(ddof=1) - var) < 4 * var_se


def test_sigma_sq_phi_rejects_negative_sum():
    with pytest.raises(InvalidStateError):
        gibbs_update_sigma_sq_phi(-1.0, 4, 3.0, 2.0, np.random.default_rng(0))


def test_sigma_sq_alpha_moments():
    rng = np.random.default_rng(11)
    a, b, alpha, mu_alpha = 4.0, 2.0, 1.5, 0.0
    n = 50_000
    draws = np.array([gibbs_update_sigma_sq_alpha(alpha, mu_alpha, a, b, rng)
                      for _ in range(n)])
    shape, rate = a + 0.5, b + 0.5 * (alpha - mu_alpha) ** 2
    mean = rate / (shape - 1.0)
    assert abs(draws.mean() - mean) < 4 * draws.std(ddof=1) / math.sqrt(n)
