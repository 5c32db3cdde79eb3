import math
import warnings

import numpy as np
import pytest

from levyst.data import (
    GqnConfig,
    SpaceTimeDataset,
    apply_stats,
    gp_sample,
    gqn_simulate,
    inverse_transform,
    load_csv,
    standardize,
    write_csv,
)
from levyst.errors import DegenerateDataError, InvalidArgumentError, NumericError, ParseError


def test_dataset_validation():
    with pytest.raises(InvalidArgumentError):
        SpaceTimeDataset(np.zeros((2, 1)), np.array([1.0, 1.0]), np.zeros((2, 2)))
    with pytest.raises(InvalidArgumentError):
        SpaceTimeDataset(np.zeros((2, 1)), np.array([1.0, 2.0]), np.zeros((3, 2)))


def test_gp_cov_at_log2_distance():
    # covariance exp(-d) halves at d = log 2
    locs = np.array([[0.0, 0.0], [math.log(2.0), 0.0], [5.0, 5.0]])
    rng = np.random.default_rng(3)
    n = 30_000
    draws = np.array([gp_sample(locs, rng) for _ in range(n)])
    prods = draws[:, 0] * draws[:, 1]
    se = prods.std(ddof=1) / math.sqrt(n)
    assert abs(prods.mean() - 0.5) < 4 * se
    v0 = draws[:, 0] ** 2
    assert abs(v0.mean() - 1.0) < 4 * v0.std(ddof=1) / math.sqrt(n)
    far = draws[:, 0] * draws[:, 2]
    assert abs(far.mean() - math.exp(-np.linalg.norm(locs[0] - locs[2]))) < 4 * far.std(ddof=1) / math.sqrt(n)


def test_gqn_shapes_split_and_determinism():
    cfg = GqnConfig(n_train=12, n_test=4, m=6, seed=5)
    a = gqn_simulate(cfg)
    b = gqn_simulate(cfg)
    assert a.train.y.shape == (12, 6) and a.test.y.shape == (4, 6)
    np.testing.assert_array_equal(a.train.y, b.train.y)
    np.testing.assert_array_equal(a.test.locations, b.test.locations)
    assert not np.array_equal(a.train.locations, a.test.locations[:12])


def test_gqn_negligible_coefficients_reduce_to_noise():
    # shrinking the interaction coefficients toward zero leaves the pure
    # noise-driven evolution; outputs converge
    y1 = gqn_simulate(GqnConfig(n_train=6, n_test=2, m=4, seed=2, coef_sd=1e-30)).train.y
    y2 = gqn_simulate(GqnConfig(n_train=6, n_test=2, m=4, seed=2, coef_sd=1e-200)).train.y
    np.testing.assert_allclose(y1, y2, rtol=0, atol=1e-12)


def test_gqn_divergence_raises_numeric_error():
    """The default-size recursion diverges at seed 1: a NumericError names
    the seed and the step, with no overflow warning; seeds 0 and 2 stay
    finite."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=r"after step \d+ of 50 \(seed 1\)"):
            gqn_simulate(GqnConfig(seed=1))
        for seed in (0, 2):
            sim = gqn_simulate(GqnConfig(seed=seed))
            assert np.all(np.isfinite(sim.train.y)) and np.all(np.isfinite(sim.test.y))


def test_gqn_clamp_counts():
    res = gqn_simulate(GqnConfig(n_train=30, n_test=5, m=30, seed=0, tan_clamp=1.0))
    assert res.n_clamped > 0
    assert np.all(np.isfinite(res.train.y))


def test_standardize_round_trip():
    data = SpaceTimeDataset(np.array([[0.0], [1.0]]), np.array([1.0]),
                            np.array([[1.0], [3.0]]))
    std, stats = standardize(data)
    assert stats == (2.0, 1.0)
    assert std.y.mean() == pytest.approx(0.0)
    np.testing.assert_allclose(inverse_transform(std.y, stats), data.y, atol=1e-12)

    rng = np.random.default_rng(0)
    big = SpaceTimeDataset(rng.random((5, 1)), np.arange(4.0),
                           3.0 + 2.5 * rng.standard_normal((5, 4)))
    std2, stats2 = standardize(big)
    again, stats3 = standardize(std2)
    assert stats3[0] == pytest.approx(0.0, abs=1e-12)
    assert stats3[1] == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_allclose(inverse_transform(std2.y, stats2), big.y, rtol=1e-12)
    np.testing.assert_allclose(apply_stats(big.y, stats2), std2.y, rtol=1e-12)


def test_standardize_rejects_constant():
    data = SpaceTimeDataset(np.array([[0.0], [1.0]]), np.array([1.0]),
                            np.array([[2.0], [2.0]]))
    with pytest.raises(DegenerateDataError):
        standardize(data)


def test_prediction_back_transform_worked_pair():
    stats = (2.0, 3.0)
    assert inverse_transform(np.array([0.5]), stats)[0] == pytest.approx(3.5)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    data = SpaceTimeDataset(rng.random((5, 2)), np.sort(rng.random(4)) + 1.0,
                            rng.standard_normal((5, 4)))
    path = tmp_path / "d.csv"
    write_csv(data, path)
    back = load_csv(path)
    np.testing.assert_array_equal(back.locations, data.locations)
    np.testing.assert_array_equal(back.times, data.times)
    np.testing.assert_array_equal(back.y, data.y)


def test_csv_hand_fixture(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("s1,t,y\n0,1,10\n0,2,20\n1,1,30\n1,2,40\n")
    data = load_csv(path)
    assert data.y.shape == (2, 2)
    np.testing.assert_allclose(data.y, [[10.0, 20.0], [30.0, 40.0]])


def test_csv_missing_cell_names_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("s1,t,y\n0,1,10\n0,2,\n")
    with pytest.raises(ParseError, match="row 3"):
        load_csv(path)


def test_csv_duplicate_pair(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("s1,t,y\n0,1,10\n0,1,11\n")
    with pytest.raises(ParseError, match="row 3"):
        load_csv(path)


def test_csv_ragged_grid(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("s1,t,y\n0,1,10\n0,2,20\n1,1,30\n")
    with pytest.raises(ParseError, match="ragged"):
        load_csv(path)
