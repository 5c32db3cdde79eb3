"""Whole-chain prediction against its per-sample reference (`oracles`)."""

from dataclasses import replace

import numpy as np
import pytest

import levyst.sampler as sampler_module
from levyst.data import SpaceTimeDataset, standardize
from levyst.errors import ConfigError, InvalidArgumentError, UnsupportedPredictionError
from levyst.model import ThetaLayout
from levyst.sampler import SamplerConfig, posterior_predict, run_chain

import oracles

GRIDS = {"regular": np.arange(1.0, 7.0), "irregular": np.array([0.0, 1.0, 2.5, 3.0, 4.5, 7.0])}
PROBS = (0.025, 1 / 16, 0.5, 15 / 16, 0.975)


def _dataset(times):
    rng = np.random.default_rng(123)
    data, _ = standardize(SpaceTimeDataset(rng.random((5, 2)), times, rng.standard_normal((5, times.size))))
    return data


def _chain(data, tame_prior, marginalized, seed=4):
    cfg = SamplerConfig(iterations=90, burn_in=30, thin=3, j_max=5, seed=seed)
    return run_chain(data, cfg, tame_prior, marginalized=marginalized).samples


def _points(data):
    """Points below every knot, above every knot, between knots and on them."""
    lo, hi = data.locations.min(axis=0), data.locations.max(axis=0)
    between = np.random.default_rng(7).uniform(lo, hi, (4, 2))
    return np.vstack([lo - 0.3, hi + 0.4, [lo[0] - 0.1, hi[1] + 0.2], between, data.locations[:2]])


def _assert_same_bands(got, want):
    assert np.array_equal(got.draws, want.draws)
    assert list(got.quantiles) == list(want.quantiles)
    for pr in want.quantiles:
        assert np.array_equal(got.quantiles[pr], want.quantiles[pr]), pr


@pytest.mark.parametrize("grid", list(GRIDS))
@pytest.mark.parametrize("marginalized", [True, False], ids=["marginalized", "explicit"])
def test_prediction_equals_per_sample_reference(tame_prior, monkeypatch, grid, marginalized):
    data = _dataset(GRIDS[grid])
    samples = _chain(data, tame_prior, marginalized)
    counts = np.array([smp.store.counts for smp in samples])
    assert np.unique(counts).size > 1 and np.any(counts.min(axis=1) < counts.max(axis=1))
    points = _points(data)
    assert np.all(points.min(axis=0) < data.locations.min(axis=0))
    assert np.all(points.max(axis=0) > data.locations.max(axis=0))
    # repeated, unsorted, and one time within 1e-12 of the grid
    times = data.times[[3, 0, 3, 5, 1]] + np.array([0.0, 0.0, 0.0, 0.0, 5e-13])
    want = oracles.posterior_predict(samples, points, times, data, marginalized=marginalized, seed=4, probs=PROBS)
    for held in (sampler_module._KNOT_VALUES_HELD, 2 * data.n, 1):  # every sample in one chunk .. one per chunk
        monkeypatch.setattr(sampler_module, "_KNOT_VALUES_HELD", held)
        got = posterior_predict(samples, points, times, data, marginalized=marginalized, seed=4, probs=PROBS,
                                keep_draws=True)
        _assert_same_bands(got, want)


def _with_theta(samples, i, value):
    """The chain with entry i of its second sample's theta set to value."""
    theta = samples[1].theta.copy()
    theta[i] = value
    return [samples[0], replace(samples[1], theta=theta), *samples[2:]]


@pytest.mark.parametrize("case", ["empty chain", "negative seed", "negative X", "C underflows to 0",
                                  "tau underflows to 0", "non-finite location", "off-grid time"])
def test_prediction_errors_equal_per_sample_reference(tiny_dataset, tame_prior, case):
    data, samples = tiny_dataset, _chain(tiny_dataset, tame_prior, True)
    layout = ThetaLayout(p=data.p)
    chain, points, times, seed = samples, data.locations[:2], data.times[:3], 0
    if case == "empty chain":
        chain = []
    elif case == "negative seed":
        seed = -1
    elif case == "negative X":
        chain = _with_theta(samples, layout.sl_x.start, -0.5)
    elif case == "C underflows to 0":
        chain = _with_theta(samples, layout.sl_log_c.start, -800.0)
    elif case == "tau underflows to 0":
        chain = _with_theta(samples, layout.i_log_tau, -800.0)
    elif case == "non-finite location":
        points = np.array([[0.5, 0.5], [0.5, np.inf]])
    else:
        times = np.array([data.times[0], data.times[0] + 0.5])
    with pytest.raises((ConfigError, InvalidArgumentError, UnsupportedPredictionError)) as want:
        oracles.posterior_predict(chain, points, times, data, seed=seed)
    with pytest.raises(want.type) as got:
        posterior_predict(chain, points, times, data, seed=seed)
    assert str(got.value) == str(want.value)
