"""Whole-chain prediction against its per-sample reference (`oracles`)."""

from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levyst.sampler as sampler_module
from levyst.data import SpaceTimeDataset, standardize
from levyst.errors import ConfigError, InvalidArgumentError, UnsupportedPredictionError
from levyst.model import AtomStore, KernelParams, ThetaLayout, field_rows
from levyst.sampler import SamplerConfig, posterior_predict, run_chain

import oracles

GRIDS = {"regular": np.arange(1.0, 7.0), "irregular": np.array([0.0, 1.0, 2.5, 3.0, 4.5, 7.0])}
PROBS = (0.025, 1 / 16, 0.5, 15 / 16, 0.975)


def _dataset(times):
    rng = np.random.default_rng(123)
    data, _ = standardize(SpaceTimeDataset(rng.random((5, 2)), times, rng.standard_normal((5, times.size))))
    return data


def _chain(data, tame_prior, marginalized, seed=4, j_max=5):
    cfg = SamplerConfig(iterations=90, burn_in=30, thin=3, j_max=j_max, seed=seed)
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
    one_atom = _chain(data, tame_prior, marginalized, j_max=1)
    assert all(np.all(smp.store.counts == 1) for smp in one_atom)
    points = _points(data)
    assert np.all(points.min(axis=0) < data.locations.min(axis=0))
    assert np.all(points.max(axis=0) > data.locations.max(axis=0))
    # repeated, unsorted, and one time within 1e-12 of the grid
    times = data.times[[3, 0, 3, 5, 1]] + np.array([0.0, 0.0, 0.0, 0.0, 5e-13])
    chunkings = []

    def recording(held, chunks=sampler_module._sample_chunks):
        chunkings.append((held, chunks(held)))
        return chunkings[-1][1]

    monkeypatch.setattr(sampler_module, "_sample_chunks", recording)
    everything = sampler_module._VALUES_HELD
    # blocks of several counts, a single point (q = 1: numpy's dot path) and one atom per block
    for chain, pts in ((samples, points), (samples, points[3:4]), (one_atom, points)):
        want = oracles.posterior_predict(chain, pts, times, data, marginalized=marginalized, seed=4, probs=PROBS)
        S = len(chain)
        monkeypatch.setattr(sampler_module, "_VALUES_HELD", everything)
        _assert_same_bands(posterior_predict(chain, pts, times, data, marginalized=marginalized, seed=4,
                                             probs=PROBS, keep_draws=True), want)
        held, chunks = chunkings[-1]
        assert chunks == [(0, S)]
        # a few samples per field chunk, two per map chunk, one per chunk
        for bound, n_chunks in ((3 * int(held.max()), range(2, S)), (2 * data.n, [S]), (1, [S])):
            monkeypatch.setattr(sampler_module, "_VALUES_HELD", bound)
            got = posterior_predict(chain, pts, times, data, marginalized=marginalized, seed=4, probs=PROBS,
                                    keep_draws=True)
            _assert_same_bands(got, want)
            assert len(chunkings[-1][1]) in n_chunks, bound


@given(p=st.sampled_from([1, 2, 3]), q=st.sampled_from([1, 2, 7]), j_max=st.integers(1, 6), S=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_chain_fields_equal_each_samples_field_rows(p, q, j_max, S, seed):
    """The whole-chain fields equal each sample's own `field_rows` bit for
    bit, over p, q (q = 1 takes numpy's dot path) and random stores whose
    counts include 1 and j_max, with every sample in one chunk, a few
    samples per chunk and one sample per chunk."""
    rng = np.random.default_rng(seed)
    m, layout = 5, ThetaLayout(p=p)
    times = np.cumsum(rng.uniform(0.5, 2.0, m))
    samples = []
    for _ in range(S):
        counts = rng.integers(1, j_max + 1, size=m)
        counts[rng.permutation(m)[:2]] = 1, j_max
        values = rng.standard_normal((p + 1, m, j_max + int(rng.integers(0, 3))))
        samples.append(SimpleNamespace(store=AtomStore(values, counts)))
    natural = np.exp(0.5 * rng.standard_normal((S, layout.dim)))
    mapped = rng.standard_normal((S, q, p))
    time_idx = rng.integers(0, m, size=int(rng.integers(1, 7))).astype(np.intp)
    times_new = times[time_idx]
    want = np.stack([field_rows(mapped[s], times_new, smp.store.take(time_idx),
                                KernelParams(natural[s, layout.sl_log_ksq], float(natural[s, layout.i_log_tau]),
                                             float(natural[s, layout.i_log_xi]))).T
                     for s, smp in enumerate(samples)])
    chunkings = []

    def recording(held, chunks=sampler_module._sample_chunks):
        chunkings.append((held, chunks(held)))
        return chunkings[-1][1]

    with mock.patch.object(sampler_module, "_sample_chunks", recording):
        for bound, n_chunks in ((sampler_module._VALUES_HELD, [1]), (None, range(1, S + 1)), (1, [S])):
            bound = 2 * int(chunkings[0][0].max()) if bound is None else bound
            with mock.patch.object(sampler_module, "_VALUES_HELD", bound):
                got = sampler_module._chain_fields(samples, mapped, natural, layout, time_idx, times_new)
            assert np.array_equal(got, want), bound
            assert len(chunkings[-1][1]) in n_chunks, bound


def test_grid_index_prefers_an_exact_match():
    """A time equal to one grid value and within 1e-12 of an earlier one
    takes the exact match; a time with no exact match the first near one."""
    times = np.array([1.0, 1.0 + 5e-13, 2.0, 3.0])
    new_times = np.array([1.0 + 5e-13, 1.0, 2.0 + 3e-13, 3.0, 1.0 + 2e-13])
    got = sampler_module._grid_indices(new_times, times)
    assert got.tolist() == [1, 0, 2, 3, 0]
    assert got.tolist() == [oracles.grid_index(t, times) for t in new_times]


def test_grid_index_names_the_first_off_grid_time():
    times = np.arange(1.0, 5.0)
    new_times = np.array([2.0, 1.0 + 4e-13, 3.5, 4.0, 2.25, 3.0 - 1e-13])
    with pytest.raises(UnsupportedPredictionError) as got:
        sampler_module._grid_indices(new_times, times)
    assert str(got.value) == "time 3.5 is not on the training grid"


@given(S=st.sampled_from([1, 2, 3, 16, 17, 25]),
       probs=st.lists(st.sampled_from([0.0, 0.025, 1 / 16, 0.5, 15 / 16, 0.975, 1.0]), min_size=1, max_size=7),
       values=st.sampled_from(["integer", "continuous"]), data=st.data())
@settings(max_examples=200, deadline=None)
def test_bands_equal_np_quantile(S, probs, values, data):
    """The band helper equals `np.quantile` bit for bit on finite draws with
    no -0.0 (adding +0.0 turns a -0.0 into +0.0); integer draws force ties.
    Draws stay within 1e300, so that b - a cannot overflow in either form."""
    element = (st.integers(-3, 3).map(float) if values == "integer"
               else st.floats(-1e300, 1e300).map(lambda x: x + 0.0))
    draws = np.array(data.draw(st.lists(element, min_size=S * 6, max_size=S * 6))).reshape(S, 2, 3)
    got, want = sampler_module._bands(draws, tuple(probs)), np.quantile(draws, tuple(probs), axis=0)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("pr", [-0.1, 1.5, float("nan")])
def test_bands_reject_probabilities_outside_unit_interval(pr):
    with pytest.raises(InvalidArgumentError, match="band probabilities"):
        sampler_module._bands(np.zeros((3, 2, 2)), (0.5, pr))


def _with_theta(samples, i, value, sample=1):
    """The chain with entry i of one sample's theta (the second by default)
    set to value."""
    theta = samples[sample].theta.copy()
    theta[i] = value
    return [*samples[:sample], replace(samples[sample], theta=theta), *samples[sample + 1:]]


@pytest.mark.parametrize("case", ["empty chain", "negative seed", "negative X", "C underflows to 0",
                                  "tau underflows to 0", "ksq overflows to inf", "first bad sample wins",
                                  "non-finite location", "off-grid time"])
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
    elif case == "ksq overflows to inf":
        chain = _with_theta(samples, layout.sl_log_ksq.start, 800.0)
    elif case == "first bad sample wins":  # sample 1's tau message, not sample 2's ksq one
        chain = _with_theta(_with_theta(samples, layout.sl_log_ksq.start, 800.0, sample=2), layout.i_log_tau, -800.0)
    elif case == "non-finite location":
        points = np.array([[0.5, 0.5], [0.5, np.inf]])
    else:
        times = np.array([data.times[0], data.times[0] + 0.5])
    # exp(800) overflows to inf with a warning; the check after it raises
    with np.errstate(over="ignore"), pytest.raises((ConfigError, InvalidArgumentError,
                                                    UnsupportedPredictionError)) as want:
        oracles.posterior_predict(chain, points, times, data, seed=seed)
    with np.errstate(over="ignore"), pytest.raises(want.type) as got:
        posterior_predict(chain, points, times, data, seed=seed)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("dim", [0, 1])
@pytest.mark.parametrize("side", ["below", "above"])
def test_prediction_rejects_points_past_the_bound(tiny_dataset, tame_prior, dim, side):
    """At p = 2 with knots in [0, 1] the bound lies between 5.50e74 and
    5.51e74 beyond the knots: a point 5.51e74 below the first knot or above
    the last is bad input, an InvalidArgumentError naming the dimension,
    raised before any term of the map or the baselines is formed, so with
    no overflow warning."""
    data = tiny_dataset
    samples = _chain(data, tame_prior, True)
    points = data.locations[:2].copy()
    lo, hi = data.locations[:, dim].min(), data.locations[:, dim].max()
    points[1, dim] = lo - 5.51e74 if side == "below" else hi + 5.51e74
    with pytest.raises(InvalidArgumentError, match=f"training coordinates of dimension {dim}:"):
        posterior_predict(samples, points, data.times[:2], data)


@pytest.mark.parametrize("marginalized", [True, False], ids=["marginalized", "explicit"])
def test_points_just_inside_the_bound_predict_without_a_warning(tiny_dataset, tame_prior, marginalized):
    """Points 5.50e74 beyond the knots on every side predict with no warning
    (the test settings make one an error), to the per-sample reference's
    bits."""
    data = tiny_dataset
    samples = _chain(data, tame_prior, marginalized)
    lo, hi = data.locations.min(axis=0), data.locations.max(axis=0)
    points = np.vstack([lo - 5.50e74, hi + 5.50e74, [lo[0] - 5.50e74, hi[1] + 5.50e74], data.locations[:1]])
    got = posterior_predict(samples, points, data.times, data, marginalized=marginalized, seed=3, keep_draws=True)
    want = oracles.posterior_predict(samples, points, data.times, data, marginalized=marginalized, seed=3)
    assert np.all(np.isfinite(got.draws))
    _assert_same_bands(got, want)
