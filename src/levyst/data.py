"""Datasets, the quadratic nonlinear simulator, standardization, CSV I/O."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import compress, repeat

import numpy as np

from .errors import ConfigError, DegenerateDataError, InvalidArgumentError, NumericError, ParseError


@dataclass
class SpaceTimeDataset:
    """Gridded space-time responses: n locations by m strictly increasing times."""

    locations: np.ndarray       # (n, p)
    times: np.ndarray           # (m,)
    y: np.ndarray               # (n, m)
    mean: float | None = None   # standardization statistics, if applied
    sd: float | None = None

    def __post_init__(self):
        self.locations = np.atleast_2d(np.asarray(self.locations, dtype=float))
        self.times = np.atleast_1d(np.asarray(self.times, dtype=float))
        self.y = np.atleast_2d(np.asarray(self.y, dtype=float))
        if self.y.shape != (self.locations.shape[0], self.times.size):
            raise InvalidArgumentError("y must be (n locations, m times)")
        if not (np.all(np.isfinite(self.locations)) and np.all(np.isfinite(self.times)) and np.all(np.isfinite(self.y))):
            raise InvalidArgumentError("dataset contains non-finite values")
        if np.any(self.times[1:] <= self.times[:-1]):
            raise InvalidArgumentError("times must be strictly increasing")

    @property
    def n(self) -> int:
        return self.locations.shape[0]

    @property
    def m(self) -> int:
        return self.times.size

    @property
    def p(self) -> int:
        return self.locations.shape[1]

    @property
    def standardized(self) -> bool:
        return self.mean is not None


MAX_COEF_BYTES = 2 ** 30  # see GqnConfig
TAN_CLAMP = 1.0e6  # the simulator clips tan values to +-TAN_CLAMP


@dataclass(frozen=True)
class GqnConfig:
    """Quadratic nonlinear state-space generator settings.

    The simulator draws an (n_all, n_all, n_all) coefficient tensor, n_all =
    n_train + n_test, so it needs 8 n_all^3 bytes; a configuration needing
    more than MAX_COEF_BYTES (1 GiB, n_all <= 512) raises ConfigError.
    Every field is a `simulate` flag; the tan clamp is fixed (`TAN_CLAMP`).
    """

    n_train: int = 100
    n_test: int = 20
    m: int = 50
    coef_sd: float = 0.001
    seed: int = 0

    def __post_init__(self):
        if self.n_train < 1 or self.m < 1 or self.n_test < 0:
            raise ConfigError(f"need n_train >= 1, m >= 1 and n_test >= 0, got n_train={self.n_train}, "
                              f"m={self.m}, n_test={self.n_test}")
        if not 0.0 < self.coef_sd < math.inf:
            raise ConfigError(f"coef_sd must be positive and finite, got {self.coef_sd}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        n_all = self.n_train + self.n_test
        if 8 * n_all ** 3 > MAX_COEF_BYTES:
            raise ConfigError(f"n_train + n_test = {n_all} needs a {n_all}^3 coefficient tensor of "
                              f"{8 * n_all ** 3 / 2 ** 30:.1f} GiB; the simulator allows at most "
                              f"{MAX_COEF_BYTES / 2 ** 30:g} GiB (n_train + n_test <= 512)")


@dataclass
class GqnResult:
    train: SpaceTimeDataset
    test: SpaceTimeDataset
    n_clamped: int


def gp_factor(locations: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the covariance exp(-||s1 - s2||) at the locations.

    Dense Cholesky with escalating jitter; meant for desk-scale n.
    """
    locs = np.atleast_2d(np.asarray(locations, dtype=float))
    diff = locs[:, None, :] - locs[None, :, :]
    cov = np.exp(-np.sqrt(np.sum(diff * diff, axis=2)))
    n = locs.shape[0]
    for jitter in (0.0, 1e-12, 1e-10, 1e-8, 1e-6):
        try:
            return np.linalg.cholesky(cov + jitter * np.eye(n))
        except np.linalg.LinAlgError:
            continue
    raise NumericError("covariance factorization failed despite jitter escalation")


def gp_sample(factor: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw from the zero-mean process whose covariance `factor` factors
    (see `gp_factor`)."""
    return factor @ rng.standard_normal(factor.shape[0])


def gqn_simulate(cfg: GqnConfig) -> GqnResult:
    """Generate responses from the quadratic nonlinear state-space model.

    y(s_i, t_k) = f1_tk(s_i) + f2_tk(s_i) * tan(beta_tk(s_i)) + eps_tk(s_i),
    with the latent beta field evolving through a linear term, a quadratic
    interaction term with g(x) = x^2, and fresh process noise each step.
    All fields are independent draws from the exponential-covariance process,
    whose covariance is factored once per simulation; the interaction
    coefficients are N(0, coef_sd^2).  tan values are clamped at +-TAN_CLAMP,
    and the count of clamped cells is reported.  The quadratic recursion can
    diverge; a latent field that is no longer finite raises NumericError
    naming the seed and the step.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    n_all = cfg.n_train + cfg.n_test
    locations = rng.random((n_all, 2))
    times = np.arange(1.0, cfg.m + 1.0)

    a = rng.normal(0.0, cfg.coef_sd, size=(n_all, n_all))
    b = rng.normal(0.0, cfg.coef_sd, size=(n_all, n_all, n_all))

    chol = gp_factor(locations)
    beta = gp_sample(chol, rng)
    y = np.empty((n_all, cfg.m))
    n_clamped = 0
    for k in range(cfg.m):
        with np.errstate(over="ignore", invalid="ignore"):
            beta = a @ beta + np.einsum("ijl,j,l->i", b, beta, beta**2) + gp_sample(chol, rng)
        if not np.all(np.isfinite(beta)):
            raise NumericError(f"simulator diverged: the latent field is not finite after step {k + 1} "
                               f"of {cfg.m} (seed {cfg.seed})")
        f1 = gp_sample(chol, rng)
        f2 = gp_sample(chol, rng)
        eps = gp_sample(chol, rng)
        t = np.tan(beta)
        n_clamped += int(np.sum(np.abs(t) > TAN_CLAMP))
        t = np.clip(t, -TAN_CLAMP, TAN_CLAMP)
        y[:, k] = f1 + f2 * t + eps

    train = SpaceTimeDataset(locations[: cfg.n_train], times, y[: cfg.n_train])
    test = SpaceTimeDataset(locations[cfg.n_train:], times, y[cfg.n_train:])
    return GqnResult(train=train, test=test, n_clamped=n_clamped)


def standardize(data: SpaceTimeDataset) -> tuple[SpaceTimeDataset, tuple[float, float]]:
    """Center and scale the pooled responses to mean 0, sd 1."""
    mean = float(data.y.mean())
    sd = float(data.y.std())
    if sd <= 0.0:
        raise DegenerateDataError("constant response cannot be standardized")
    out = replace(data, y=(data.y - mean) / sd, mean=mean, sd=sd)
    return out, (mean, sd)


def write_rows(fh, locations: np.ndarray, times: np.ndarray, values: np.ndarray) -> None:
    """Write one CSV row per (location, time), locations outermost: the
    location's coordinates, the time, then values[i, k, :], every value with
    17 significant digits.

    Each location's m rows are formatted by one `%` over a template that
    holds its formatted coordinates, and written at once.
    """
    m, k = values.shape[1:]
    coords = ",".join(["%.17g"] * locations.shape[1])
    rows = ",%.17g" * (1 + k) + "\n"
    cells = np.empty((m, 1 + k))  # one location's rows in time order
    cells[:, 0] = times
    for loc, v in zip(locations.tolist(), values):
        cells[:, 1:] = v
        fh.write(((coords % tuple(loc) + rows) * m) % tuple(cells.ravel().tolist()))


def write_csv(data: SpaceTimeDataset, path) -> None:
    """Long format, one row per (location, time): s1..sp, t, y, every value
    with 17 significant digits (`write_rows`)."""
    header = ",".join([f"s{ell + 1}" for ell in range(data.p)] + ["t", "y"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        write_rows(fh, data.locations, data.times, data.y[:, :, None])


PARSE_ROWS = 1024  # rows split into fields at a time, so that few field strings are held at once


def _parse_rows(rows: list[str], width: int) -> np.ndarray:
    """The fields of rows of `width` comma-separated fields, parsed by `float`
    in one pass, as a (rows, width) array; when `float` rejects a field, the
    array holds only the rows before that field's row."""
    cells = ",".join(rows).split(",")
    try:
        return np.fromiter(map(float, cells), dtype=float, count=len(cells)).reshape(-1, width)
    except ValueError:
        pass
    for at, cell in enumerate(cells):  # find the rejected field
        try:
            float(cell)
        except ValueError:
            break
    parsed = at // width * width
    return np.fromiter(map(float, cells[:parsed]), dtype=float, count=parsed).reshape(-1, width)


def _sorted_groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the equal rows of `keys` (r, c), -0.0 and 0.0 being equal.

    Returns each row's group and each group's first row; groups are numbered
    in sorted key order.
    """
    # lexsort is stable, so a group's first row leads it
    order = np.lexsort(keys.T[::-1])
    new = np.ones(order.size, dtype=bool)
    new[1:] = np.any(keys[order[1:]] != keys[order[:-1]], axis=1)
    group = np.empty(order.size, dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    return group, order[new]


def load_csv(path) -> SpaceTimeDataset:
    """Parse the long CSV format back into a gridded dataset.

    Rows must cover the full location-by-time grid exactly once; violations
    raise ParseError naming the row, as does a file that is not UTF-8 text.
    Blank lines are skipped.  The first bad row in file order is named, and
    within a row the field count is checked first, then that every field
    parses with `float`, then that every value is finite; a duplicate
    (location, time) pair is named at its second row.  Locations are
    numbered in order of first appearance and times sorted, each kept as
    first spelled (-0.0 and 0.0 being one value).  The fields are parsed by
    `float`, one pass per PARSE_ROWS rows, and the checks, the indexing and
    the grid fill run on arrays.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise ParseError("data file is not UTF-8 text") from None
    if not lines:
        raise ParseError("empty file")
    header = [h.strip() for h in lines[0].split(",")]
    if len(header) < 3 or header[-1] != "y" or header[-2] != "t":
        raise ParseError("header must be s1,...,sp,t,y")
    p = len(header) - 2
    width = p + 2

    kept = np.fromiter(map(bool, map(str.strip, lines[1:])), dtype=bool, count=len(lines) - 1)
    rows = list(compress(lines[1:], kept))
    row_nos = np.flatnonzero(kept) + 2
    if not rows:
        raise ParseError("no data rows")
    # parse the rows before the first with a wrong field count; a failed
    # parse ends them at the first row with a non-numeric field instead
    fields = np.fromiter(map(str.count, rows, repeat(",")), dtype=np.intp, count=len(rows)) + 1
    wrong = np.flatnonzero(fields != width)
    good = int(wrong[0]) if wrong.size else len(rows)
    error = f"expected {width} fields, got {fields[good]}" if wrong.size else None
    values = np.empty((good, width))
    for start in range(0, good, PARSE_ROWS):
        chunk = rows[start:min(start + PARSE_ROWS, good)]
        parsed = _parse_rows(chunk, width)
        values[start:start + len(parsed)] = parsed
        if len(parsed) < len(chunk):
            good, error = start + len(parsed), "non-numeric field"
            values = values[:good]
            break
    nonfinite = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if nonfinite.size:
        good, error = int(nonfinite[0]), "non-finite value"
    if error is not None:
        raise ParseError(f"row {row_nos[good]}: {error}")

    loc_group, loc_first = _sorted_groups(values[:, :p])
    time_of_row, time_first = _sorted_groups(values[:, p:p + 1])
    # number the locations in order of first appearance: a location's number
    # is the count of first appearances before its own
    first_rows = np.zeros(len(rows), dtype=bool)
    first_rows[loc_first] = True
    loc_of_row = (np.cumsum(first_rows) - 1)[loc_first][loc_group]
    times = values[time_first, p]
    n, m = loc_first.size, times.size
    pair = loc_of_row * m + time_of_row
    if np.bincount(pair).max() > 1:
        _, pair_first = np.unique(pair, return_index=True)
        repeated = np.ones(len(rows), dtype=bool)
        repeated[pair_first] = False
        raise ParseError(f"row {row_nos[np.argmax(repeated)]}: duplicate (location, time) pair")
    y = np.full((n, m), np.nan)
    y[loc_of_row, time_of_row] = values[:, p + 1]
    missing = np.argwhere(np.isnan(y))
    if missing.size:
        i, k = missing[0]
        raise ParseError(f"ragged grid: location index {i} lacks time {times[k]}")
    return SpaceTimeDataset(values[first_rows, :p], times, y)
