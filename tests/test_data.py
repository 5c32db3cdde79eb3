import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import levyst.data as data_module
from levyst.data import (
    MAX_COEF_BYTES,
    GqnConfig,
    GqnResult,
    SpaceTimeDataset,
    gp_factor,
    gp_sample,
    gqn_simulate,
    load_csv,
    standardize,
    write_csv,
)
from levyst.errors import ConfigError, DegenerateDataError, InvalidArgumentError, NumericError, ParseError
from levyst.model import AtomStore, LatentAtoms
from levyst.sampler import ChainSample, posterior_predict
from oracles import TEXT_EDGE_FLOATS, load_csv_per_row, write_csv_per_value


def test_dataset_validation():
    with pytest.raises(InvalidArgumentError):
        SpaceTimeDataset(np.zeros((2, 1)), np.array([1.0, 1.0]), np.zeros((2, 2)))
    with pytest.raises(InvalidArgumentError):
        SpaceTimeDataset(np.zeros((2, 1)), np.array([1.0, 2.0]), np.zeros((3, 2)))


def test_dataset_order_check_does_not_overflow():
    """Times whose gap exceeds the largest float are ordered by comparison:
    increasing ones are accepted and decreasing ones rejected, with no
    overflow warning (which the test settings make an error)."""
    times = np.array([-1.7976931348623157e308, 1e292])
    assert SpaceTimeDataset(np.zeros((1, 1)), times, np.zeros((1, 2))).m == 2
    with pytest.raises(InvalidArgumentError, match="strictly increasing"):
        SpaceTimeDataset(np.zeros((1, 1)), times[::-1], np.zeros((1, 2)))


def test_gp_cov_at_log2_distance():
    # covariance exp(-d) halves at d = log 2
    locs = np.array([[0.0, 0.0], [math.log(2.0), 0.0], [5.0, 5.0]])
    rng = np.random.default_rng(3)
    n = 30_000
    chol = gp_factor(locs)
    draws = np.array([gp_sample(chol, rng) for _ in range(n)])
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


def _gqn_reference(cfg: GqnConfig, tan_clamp: float = data_module.TAN_CLAMP) -> GqnResult:
    """The simulator as first written: it builds and factors the covariance
    again for every field draw."""
    def draw(locations, rng):
        diff = locations[:, None, :] - locations[None, :, :]
        cov = np.exp(-np.sqrt(np.sum(diff * diff, axis=2)))
        for jitter in (0.0, 1e-12, 1e-10, 1e-8, 1e-6):
            try:
                return np.linalg.cholesky(cov + jitter * np.eye(len(locations))) @ rng.standard_normal(len(locations))
            except np.linalg.LinAlgError:
                continue
        raise NumericError("covariance factorization failed despite jitter escalation")

    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    n_all = cfg.n_train + cfg.n_test
    locations = rng.random((n_all, 2))
    times = np.arange(1.0, cfg.m + 1.0)
    a = rng.normal(0.0, cfg.coef_sd, size=(n_all, n_all))
    b = rng.normal(0.0, cfg.coef_sd, size=(n_all, n_all, n_all))
    beta = draw(locations, rng)
    y = np.empty((n_all, cfg.m))
    n_clamped = 0
    for k in range(cfg.m):
        with np.errstate(over="ignore", invalid="ignore"):
            beta = a @ beta + np.einsum("ijl,j,l->i", b, beta, beta**2) + draw(locations, rng)
        if not np.all(np.isfinite(beta)):
            raise NumericError(f"simulator diverged: the latent field is not finite after step {k + 1} "
                               f"of {cfg.m} (seed {cfg.seed})")
        f1, f2, eps = draw(locations, rng), draw(locations, rng), draw(locations, rng)
        t = np.tan(beta)
        n_clamped += int(np.sum(np.abs(t) > tan_clamp))
        y[:, k] = f1 + f2 * np.clip(t, -tan_clamp, tan_clamp) + eps
    return GqnResult(SpaceTimeDataset(locations[: cfg.n_train], times, y[: cfg.n_train]),
                     SpaceTimeDataset(locations[cfg.n_train:], times, y[cfg.n_train:]), n_clamped)


def _gqn_case(tan_clamp: float = data_module.TAN_CLAMP, **fields):
    cfg = GqnConfig(**fields)
    return pytest.param(cfg, tan_clamp, id=f"{cfg.n_train}x{cfg.m}-seed{cfg.seed}")


@pytest.mark.parametrize("cfg, tan_clamp", [
    _gqn_case(n_train=6, n_test=2, m=4, seed=0),
    _gqn_case(n_train=6, n_test=0, m=5, seed=3),
    _gqn_case(n_train=12, n_test=4, m=6, seed=5),
    _gqn_case(n_train=30, n_test=10, m=20, seed=7),
    _gqn_case(n_train=30, n_test=10, m=20, seed=11, tan_clamp=1.0),
])
def test_gqn_matches_per_draw_factor_reference(cfg, tan_clamp, monkeypatch):
    """Factoring the covariance once per simulation keeps every bit of the
    per-draw factorization."""
    monkeypatch.setattr(data_module, "TAN_CLAMP", tan_clamp)
    got, want = gqn_simulate(cfg), _gqn_reference(cfg, tan_clamp)
    for part in ("train", "test"):
        for name in ("locations", "times", "y"):
            assert np.array_equal(getattr(getattr(got, part), name), getattr(getattr(want, part), name))
    assert got.n_clamped == want.n_clamped


def test_gqn_divergence_message_matches_reference():
    cfg = GqnConfig(seed=1)
    with pytest.raises(NumericError) as want:
        _gqn_reference(cfg)
    with pytest.raises(NumericError, match=r"after step \d+ of 50 \(seed 1\)") as got:
        gqn_simulate(cfg)
    assert str(got.value) == str(want.value)


@given(seed=st.integers(0, 2 ** 32 - 1), coef_sd=st.sampled_from([0.001, 0.003, 0.01]))
@settings(max_examples=60, deadline=None)
def test_gqn_desk_size_finite_or_named_divergence(seed, coef_sd):
    """At desk size every seed gives finite data or a NumericError naming
    the seed and the step; neither path warns.  At coef_sd 0.001 no seed in
    0..1999 diverges; at 0.01 almost every seed does."""
    cfg = GqnConfig(n_train=30, n_test=10, m=20, coef_sd=coef_sd, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            sim = gqn_simulate(cfg)
        except NumericError as exc:
            assert re.search(rf"after step ([1-9]|1\d|20) of 20 \(seed {seed}\)$", str(exc)), str(exc)
            return
    for part in (sim.train, sim.test):
        assert np.all(np.isfinite(part.y))


def test_gqn_config_rejects_bad_values():
    for bad in (dict(seed=-1), dict(m=0), dict(n_train=0), dict(n_test=-1), dict(coef_sd=0.0),
                dict(coef_sd=float("nan")), dict(coef_sd=float("inf")), dict(n_train=2800),
                dict(n_test=13, n_train=500)):
        name = next(iter(bad))
        with pytest.raises(ConfigError, match=name):
            GqnConfig(**bad)
    # the coefficient-tensor bound, checked before anything is allocated
    assert 8 * 512 ** 3 == MAX_COEF_BYTES
    GqnConfig(n_train=500, n_test=12)
    with pytest.raises(ConfigError, match="1.0 GiB"):
        GqnConfig(n_train=500, n_test=13)
    with pytest.raises(ConfigError, match="n_train \\+ n_test = 2820 needs a 2820\\^3 coefficient tensor of 167.1 GiB"):
        GqnConfig(n_train=2800)


def test_gqn_clamp_counts(monkeypatch):
    monkeypatch.setattr(data_module, "TAN_CLAMP", 1.0)
    res = gqn_simulate(GqnConfig(n_train=30, n_test=5, m=30, seed=0))
    assert res.n_clamped > 0
    assert np.all(np.isfinite(res.train.y))


def test_standardize_round_trip():
    data = SpaceTimeDataset(np.array([[0.0], [1.0]]), np.array([1.0]),
                            np.array([[1.0], [3.0]]))
    std, stats = standardize(data)
    assert stats == (2.0, 1.0) == (std.mean, std.sd)
    assert std.y.mean() == pytest.approx(0.0)
    # prediction's back-transform: standardized values * sd + mean
    np.testing.assert_allclose(std.y * std.sd + std.mean, data.y, atol=1e-12)

    rng = np.random.default_rng(0)
    big = SpaceTimeDataset(rng.random((5, 1)), np.arange(4.0),
                           3.0 + 2.5 * rng.standard_normal((5, 4)))
    std2, stats2 = standardize(big)
    again, stats3 = standardize(std2)
    assert stats3[0] == pytest.approx(0.0, abs=1e-12)
    assert stats3[1] == pytest.approx(1.0, rel=1e-12)
    assert (std2.mean, std2.sd) == stats2
    np.testing.assert_allclose(std2.y * std2.sd + std2.mean, big.y, rtol=1e-12)


def test_standardize_rejects_constant():
    data = SpaceTimeDataset(np.array([[0.0], [1.0]]), np.array([1.0]),
                            np.array([[2.0], [2.0]]))
    with pytest.raises(DegenerateDataError):
        standardize(data)


def test_prediction_back_transform_worked_pair():
    # a model-scale prediction of 0.5 (alpha 0.5, zero baseline and field,
    # no noise to speak of) is 3.5 in original units of mean 2 and sd 3
    data = SpaceTimeDataset(np.array([[0.0], [1.0]]), np.array([1.0]), np.zeros((2, 1)), mean=2.0, sd=3.0)
    sample = ChainSample(iteration=0, store=AtomStore.from_blocks([LatentAtoms(np.zeros((1, 1)), np.zeros(1))]),
                         theta=np.zeros(10), lam=1.0, sigma_sq_eps=1e-18, alpha=0.5, sigma_sq_alpha=1.0,
                         sigma_sq_phi=0.0, nu=np.zeros(1), omega_sq=np.ones(1))
    bands = posterior_predict([sample], np.array([[0.5]]), data.times, data, seed=0)
    assert bands.quantiles[0.5][0, 0] == pytest.approx(3.5, abs=1e-6)


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


_CSV_TEXT = "s1,s2,t,y\n" + "".join(f"{s1},{s2},{t},{0.5 * t - s1}\n"
                                   for s1, s2 in ((0, 0.5), (1, 0.25), (0.75, 1)) for t in (1, 2.5, 4))
_CSV_TOKENS = st.sampled_from(["nan", "inf", "-1", "0", "1e400", "x", "", ",", "\n", " ", "1,2", "é",
                               "١", "1_0", "0x10", "\x00"])


@given(op=st.sampled_from(["truncate", "insert", "replace", "delete", "corrupt"]),
       where=st.floats(0.0, 1.0, exclude_max=True), token=_CSV_TOKENS, byte=st.integers(0, 255))
@example(op="corrupt", where=0.5, token="", byte=0xFF)  # not UTF-8
@settings(max_examples=300, deadline=None)
def test_load_csv_fuzzed_loads_or_raises(tmp_path_factory, op, where, token, byte):
    """A truncated, edited or byte-corrupted data file either loads as a
    finite gridded dataset or raises ParseError; nothing else escapes."""
    raw = _CSV_TEXT.encode()
    i = int(where * len(raw))
    if op == "truncate":
        raw = raw[:i]
    elif op == "insert":
        raw = raw[:i] + token.encode() + raw[i:]
    elif op == "replace":
        raw = raw[:i] + token.encode() + raw[i + 1:]
    elif op == "delete":
        raw = raw[:i] + raw[i + 1:]
    else:
        raw = raw[:i] + bytes([byte]) + raw[i + 1:]
    path = tmp_path_factory.mktemp("fuzz") / "d.csv"
    path.write_bytes(raw)
    try:
        data = load_csv(path)
    except ParseError:
        return
    assert data.y.shape == (data.n, data.m)
    assert np.all(np.isfinite(data.y)) and np.all(np.isfinite(data.locations))


CELLS = st.one_of(st.sampled_from(TEXT_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def datasets(draw):
    """p 1-3, n 1-4 locations (equal ones allowed), m 1-4 distinct times."""
    p, n, m = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    times = sorted(draw(st.lists(CELLS, min_size=m, max_size=m, unique=True)))
    return SpaceTimeDataset(draw(arrays(float, (n, p), elements=CELLS)), times,
                            draw(arrays(float, (n, m), elements=CELLS)))


@given(data=datasets())
@settings(max_examples=200, deadline=None)
def test_write_csv_bytes_equal_per_value_writer(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("csv")
    write_csv(data, tmp / "rows.csv")
    write_csv_per_value(data, tmp / "cells.csv")
    assert (tmp / "rows.csv").read_bytes() == (tmp / "cells.csv").read_bytes()


def _outcome(load, path):
    """What a loader makes of a file: its arrays' bytes (so the sign of every
    zero counts), or its ParseError's message."""
    try:
        data = load(path)
    except ParseError as exc:
        return "ParseError", str(exc)
    return data.locations.shape, data.locations.tobytes(), data.times.tobytes(), data.y.tobytes()


def _spell(draw, v: float) -> str:
    """A text that `float` reads as v, zeros in either sign's spelling."""
    if v == 0.0:
        return draw(st.sampled_from(["0", "-0", "0.0", "-0.0", " 0 ", "+0e5", "0_0"]))
    return draw(st.sampled_from(["%.17g" % v, repr(v), f" {v!r}\t"]))


@st.composite
def grid_files(draw):
    """The text of a full grid whose locations and times include zeros in
    both signs' spellings, in shuffled row order with blank lines."""
    p, n, m = draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    values = st.sampled_from([0.0, -0.0, 1.0, -2.5, 5e-324])
    locs = draw(st.lists(st.lists(values, min_size=p, max_size=p), min_size=n, max_size=n,
                         unique_by=lambda loc: tuple(v + 0.0 for v in loc)))
    times = draw(st.lists(values, min_size=m, max_size=m, unique_by=lambda t: t + 0.0))
    cells = [(loc, t, draw(CELLS)) for loc in locs for t in times]
    rows = [",".join([_spell(draw, v) for v in (*loc, t)] + ["%.17g" % y])
            for loc, t, y in draw(st.permutations(cells))]
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(["", "  ", "\t"])))
    return ",".join([f"s{ell + 1}" for ell in range(p)] + ["t", "y"]) + "\n" + "\n".join(rows) + "\n"


# rows parsed at a time: a few, so that files span several parse chunks, and the default
PARSE_ROWS = st.sampled_from([1, 2, 3, data_module.PARSE_ROWS])


@given(text=grid_files(), parse_rows=PARSE_ROWS)
@settings(max_examples=200, deadline=None)
def test_load_csv_arrays_equal_per_row_reader(tmp_path_factory, text, parse_rows):
    """Bit for bit, sign of zero included: a location or time keeps its first
    spelling, and -0.0 and 0.0 are one location or time."""
    path = tmp_path_factory.mktemp("grid") / "d.csv"
    path.write_text(text)
    with mock.patch.object(data_module, "PARSE_ROWS", parse_rows):
        outcome = _outcome(load_csv, path)
    assert outcome[0] != "ParseError"
    assert outcome == _outcome(load_csv_per_row, path)


@given(data=datasets())
@settings(max_examples=100, deadline=None)
def test_csv_round_trip_equals_per_row_reader(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("trip") / "d.csv"
    write_csv(data, path)
    assert _outcome(load_csv, path) == _outcome(load_csv_per_row, path)


_MALFORMED_CSV = {
    "wrong field count": ("s1,t,y\n0,1,10\n0,2\n", "row 3"),
    "too many fields": ("s1,t,y\n0,1,10\n0,2,20,1\n", "row 3"),
    "non-numeric": ("s1,t,y\n0,1,10\n0,2,x\n", "row 3"),
    "empty field": ("s1,t,y\n0,1,10\n0,2,\n", "row 3"),
    "nan": ("s1,t,y\n0,1,10\n0,2,nan\n", "row 3"),
    "overflow to inf": ("s1,t,y\n0,1,10\n1e400,2,1\n", "row 3"),
    "duplicate pair": ("s1,t,y\n0,1,10\n0,2,20\n-0,1.0,11\n", "row 4"),
    "ragged grid": ("s1,t,y\n0,1,10\n0,2,20\n1,1,30\n", "ragged"),
    "blank lines": ("s1,t,y\n\n0,1,10\n   \n\t\n0,2,x\n", "row 6"),
    "non-finite then wrong count": ("s1,t,y\n0,1,10\n0,2,inf\n\n0,3\n", "row 3"),
    "wrong count then non-numeric": ("s1,t,y\n0,1\n0,2,x\n", "row 2"),
    "non-numeric then non-finite": ("s1,t,y\n0,1,10\n0,x,20\n0,3,nan\n", "row 3"),
    "non-finite then non-numeric": ("s1,t,y\n0,1,nan\n0,x,20\n", "row 2"),
    "duplicate then non-numeric": ("s1,t,y\n0,1,10\n0,1,11\n0,2,x\n", "row 4"),
    "nan and text in one row": ("s1,t,y\n0,nan,x\n", "non-numeric"),
    "text in a short row": ("s1,t,y\n0,x\n", "fields"),
    "no data rows": ("s1,t,y\n\n  \n", "no data rows"),
    "bad header": ("a,b\n0,1\n", "header"),
}


@pytest.mark.parametrize("parse_rows", [1, 2, data_module.PARSE_ROWS])
@pytest.mark.parametrize("case", list(_MALFORMED_CSV))
def test_load_csv_errors_equal_per_row_reader(tmp_path, monkeypatch, case, parse_rows):
    """The first bad row in file order is named; within a row, the field
    count is checked before the fields parse, and they before finiteness."""
    text, named = _MALFORMED_CSV[case]
    path = tmp_path / "d.csv"
    path.write_text(text)
    monkeypatch.setattr(data_module, "PARSE_ROWS", parse_rows)
    outcome = _outcome(load_csv, path)
    assert outcome[0] == "ParseError" and named in outcome[1]
    assert outcome == _outcome(load_csv_per_row, path)


@given(op=st.sampled_from(["truncate", "insert", "replace", "delete", "corrupt"]),
       where=st.floats(0.0, 1.0, exclude_max=True), token=_CSV_TOKENS, byte=st.integers(0, 255),
       parse_rows=PARSE_ROWS)
@settings(max_examples=300, deadline=None)
def test_load_csv_fuzzed_equals_per_row_reader(tmp_path_factory, op, where, token, byte, parse_rows):
    """An edited data file loads to the per-row reader's arrays, or raises
    its ParseError message."""
    raw = _CSV_TEXT.encode()
    i = int(where * len(raw))
    edits = {"truncate": raw[:i], "insert": raw[:i] + token.encode() + raw[i:],
             "replace": raw[:i] + token.encode() + raw[i + 1:], "delete": raw[:i] + raw[i + 1:],
             "corrupt": raw[:i] + bytes([byte]) + raw[i + 1:]}
    path = tmp_path_factory.mktemp("fuzz") / "d.csv"
    path.write_bytes(edits[op])
    with mock.patch.object(data_module, "PARSE_ROWS", parse_rows):
        assert _outcome(load_csv, path) == _outcome(load_csv_per_row, path)
