import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from levyst.ar import (
    ArMode,
    ArSpec,
    ar_autocov,
    ar_initial_log_density,
    ar_sample_path,
    ar_transition_log_density,
    mode_for_times,
    rho_from_transformed,
)
from levyst.errors import InvalidArgumentError


def rho_to_transformed(rho: float, mode: ArMode) -> float:
    """The inverse of `rho_from_transformed`."""
    if mode is ArMode.IAR:
        return math.log(rho / (1.0 - rho))
    u = (rho + 1.0) / 2.0
    return math.log(u / (1.0 - u))


def test_spec_validation():
    with pytest.raises(InvalidArgumentError):
        ArSpec(rho=-0.2, sigma_sq=1.0, mode=ArMode.IAR)
    with pytest.raises(InvalidArgumentError):
        ArSpec(rho=1.0, sigma_sq=1.0, mode=ArMode.IAR)
    with pytest.raises(InvalidArgumentError):
        ArSpec(rho=0.5, sigma_sq=-1.0)
    ArSpec(rho=-0.5, sigma_sq=1.0, mode=ArMode.REGULAR_AR1)


def test_unit_gap_modes_agree():
    for rho in (0.2, 0.5, 0.9):
        iar = ArSpec(rho=rho, sigma_sq=1.7, mode=ArMode.IAR)
        ar1 = ArSpec(rho=rho, sigma_sq=1.7, mode=ArMode.REGULAR_AR1)
        assert ar_transition_log_density(0.3, 1.1, 1.0, iar) == pytest.approx(
            ar_transition_log_density(0.3, 1.1, 1.0, ar1), abs=1e-14)


def test_transition_rho_to_zero_limit():
    spec = ArSpec(rho=1e-12, sigma_sq=2.0, mode=ArMode.IAR)
    for x_prev in (-5.0, 0.0, 7.0):
        got = ar_transition_log_density(0.4, x_prev, 1.0, spec)
        assert got == pytest.approx(norm.logpdf(0.4, 0.0, math.sqrt(2.0)), rel=1e-9)


def test_transition_hand_value():
    # rho=0.5, gap=2: mean 0.25*4 = 1, variance 1 - 0.5**4 = 0.9375
    spec = ArSpec(rho=0.5, sigma_sq=1.0, mode=ArMode.IAR)
    got = ar_transition_log_density(1.0, 4.0, 2.0, spec)
    assert got == pytest.approx(norm.logpdf(1.0, 1.0, math.sqrt(0.9375)), abs=1e-12)


def test_transition_rejects_bad_gaps():
    spec = ArSpec(rho=-0.5, sigma_sq=1.0, mode=ArMode.REGULAR_AR1)
    with pytest.raises(InvalidArgumentError):
        ar_transition_log_density(0.0, 0.0, 0.5, spec)
    with pytest.raises(InvalidArgumentError):
        ar_transition_log_density(0.0, 0.0, 0.0, ArSpec(rho=0.5, sigma_sq=1.0))


def test_transition_integrates_to_one():
    settings = [
        ArSpec(rho=0.3, sigma_sq=0.5, mode=ArMode.IAR),
        ArSpec(rho=0.9, sigma_sq=2.0, mode=ArMode.IAR),
        ArSpec(rho=-0.6, sigma_sq=1.3, mode=ArMode.REGULAR_AR1),
    ]
    for spec in settings:
        gap = 1.0 if spec.mode is ArMode.REGULAR_AR1 else 1.7
        total, _ = quad(lambda x: math.exp(ar_transition_log_density(x, 0.8, gap, spec)),
                        -30, 30)
        assert total == pytest.approx(1.0, abs=1e-8)


def test_initial_density():
    iar = ArSpec(rho=0.5, sigma_sq=1.0, mode=ArMode.IAR)
    assert ar_initial_log_density(0.0, iar) == pytest.approx(-0.5 * math.log(2 * math.pi))
    ar1_zero = ArSpec(rho=1e-14, sigma_sq=1.0, mode=ArMode.REGULAR_AR1)
    assert ar_initial_log_density(0.3, ar1_zero) == pytest.approx(
        ar_initial_log_density(0.3, ArSpec(rho=0.5, sigma_sq=1.0, mode=ArMode.IAR)), rel=1e-9)
    ar1 = ArSpec(rho=0.6, sigma_sq=1.0, mode=ArMode.REGULAR_AR1)
    assert ar_initial_log_density(1.0, ar1) == pytest.approx(
        norm.logpdf(1.0, 0.0, math.sqrt(1.0 / 0.64)), abs=1e-12)


def test_autocov_values():
    spec = ArSpec(rho=0.5, sigma_sq=2.0, mode=ArMode.IAR)
    assert ar_autocov(0.0, spec) == pytest.approx(2.0)
    assert ar_autocov(3.0, spec) == pytest.approx(0.25)
    assert ar_autocov(200.0, spec) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(InvalidArgumentError):
        ar_autocov(-1.0, spec)


def test_sample_path_moments():
    spec = ArSpec(rho=0.6, sigma_sq=1.5, mode=ArMode.IAR)
    times = np.array([0.0, 0.7, 1.5, 3.0])
    rng = np.random.default_rng(5)
    n = 20_000
    paths = np.array([ar_sample_path(times, spec, rng) for _ in range(n)])
    for k in range(times.size):
        var = paths[:, k].var()
        se = paths[:, k].var() * math.sqrt(2.0 / n)
        assert abs(var - spec.sigma_sq) < 4 * se
    gap = times[2] - times[1]
    prod = paths[:, 1] * paths[:, 2]
    se = prod.std(ddof=1) / math.sqrt(n)
    assert abs(prod.mean() - ar_autocov(gap, spec)) < 4 * se


def test_sample_path_rho_near_one():
    spec = ArSpec(rho=1.0 - 1e-10, sigma_sq=1.0, mode=ArMode.IAR)
    path = ar_sample_path(np.arange(5.0), spec, np.random.default_rng(0))
    assert np.max(np.abs(np.diff(path))) < 1e-4


def test_sample_path_takes_unit_gaps_on_near_unit_grid():
    # a computed gap off 1 by rounding would reject the negative rho
    spec = ArSpec(rho=-0.5, sigma_sq=1.0, mode=ArMode.REGULAR_AR1)
    near_unit = 0.1 + np.arange(8.0)
    assert np.diff(near_unit).min() < 1.0
    path = ar_sample_path(near_unit, spec, np.random.default_rng(3))
    assert np.array_equal(path, ar_sample_path(np.arange(8.0), spec, np.random.default_rng(3)))


def test_sample_path_input_validation():
    spec = ArSpec(rho=0.5, sigma_sq=1.0)
    with pytest.raises(InvalidArgumentError):
        ar_sample_path(np.array([0.0, 0.0, 1.0]), spec, np.random.default_rng(0))


def test_mode_selection_and_transform_round_trip():
    assert mode_for_times(np.arange(1.0, 9.0)) is ArMode.REGULAR_AR1
    assert mode_for_times(np.array([1.0, 2.5, 3.0])) is ArMode.IAR
    for mode in ArMode:
        for rho in (0.1, 0.5, 0.9) if mode is ArMode.IAR else (-0.7, 0.0, 0.7):
            v = rho_to_transformed(rho, mode)
            assert rho_from_transformed(v, mode) == pytest.approx(rho, abs=1e-12)
