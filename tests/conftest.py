import numpy as np
import pytest

from levyst.data import SpaceTimeDataset, standardize
from levyst.model import PriorConfig


@pytest.fixture
def tiny_dataset():
    """4 locations x 6 unit-gap times, p=2, standardized."""
    rng = np.random.default_rng(123)
    locs = rng.random((4, 2))
    times = np.arange(1.0, 7.0)
    y = rng.standard_normal((4, 6))
    data, _ = standardize(SpaceTimeDataset(locs, times, y))
    return data


@pytest.fixture
def near_unit_dataset():
    """6 locations x 8 times 0.1 + k, p=2: a regular grid whose computed
    gaps are 1 only to within rounding (one is 1 - 4.4e-16)."""
    rng = np.random.default_rng(0)
    times = 0.1 + np.arange(8.0)
    assert np.diff(times).min() < 1.0
    return SpaceTimeDataset(rng.random((6, 2)), times, rng.standard_normal((6, 8)))


@pytest.fixture
def tame_prior():
    """Informative priors keeping truncation rejections rare in tests."""
    return PriorConfig(ig_a=3.0, ig_b=2.0, ig_a_tight=3.0, ig_b_tight=2.0,
                       lambda_a=6.0, lambda_b=2.0, nu_var=1.0, rho_var=1.0)
