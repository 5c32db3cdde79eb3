"""Datasets, the quadratic nonlinear simulator, standardization, CSV I/O."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
        if self.times.size > 1 and np.any(np.diff(self.times) <= 0.0):
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


@dataclass(frozen=True)
class GqnConfig:
    """Quadratic nonlinear state-space generator settings."""

    n_train: int = 100
    n_test: int = 20
    m: int = 50
    coef_sd: float = 0.001
    tan_clamp: float = 1.0e6
    seed: int = 0

    def __post_init__(self):
        if self.n_train < 1 or self.m < 1 or self.n_test < 0:
            raise ConfigError(f"need n_train >= 1, m >= 1 and n_test >= 0, got n_train={self.n_train}, "
                              f"m={self.m}, n_test={self.n_test}")
        if not 0.0 < self.coef_sd < math.inf:
            raise ConfigError(f"coef_sd must be positive and finite, got {self.coef_sd}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


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
    coefficients are N(0, coef_sd^2).  tan values are clamped at +-tan_clamp,
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
        n_clamped += int(np.sum(np.abs(t) > cfg.tan_clamp))
        t = np.clip(t, -cfg.tan_clamp, cfg.tan_clamp)
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


def write_csv(data: SpaceTimeDataset, path) -> None:
    """Long format, one row per (location, time): s1..sp, t, y."""
    p = data.p
    header = ",".join([f"s{ell + 1}" for ell in range(p)] + ["t", "y"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i in range(data.n):
            coords = ",".join("%.17g" % v for v in data.locations[i])
            for k in range(data.m):
                fh.write(f"{coords},{'%.17g' % data.times[k]},{'%.17g' % data.y[i, k]}\n")


def load_csv(path) -> SpaceTimeDataset:
    """Parse the long CSV format back into a gridded dataset.

    Rows must cover the full location-by-time grid exactly once; violations
    raise ParseError naming the row.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty file")
    header = [h.strip() for h in lines[0].split(",")]
    if len(header) < 3 or header[-1] != "y" or header[-2] != "t":
        raise ParseError("header must be s1,...,sp,t,y")
    p = len(header) - 2

    loc_index: dict[tuple, int] = {}
    rows = []
    for row_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != p + 2:
            raise ParseError(f"row {row_no}: expected {p + 2} fields, got {len(cells)}")
        try:
            values = [float(c) for c in cells]
        except ValueError:
            raise ParseError(f"row {row_no}: non-numeric field") from None
        if not all(math.isfinite(v) for v in values):
            raise ParseError(f"row {row_no}: non-finite value")
        loc = tuple(values[:p])
        if loc not in loc_index:
            loc_index[loc] = len(loc_index)
        rows.append((row_no, loc_index[loc], values[p], values[p + 1]))

    if not rows:
        raise ParseError("no data rows")
    times = np.array(sorted({t for _, _, t, _ in rows}))
    time_index = {t: k for k, t in enumerate(times)}
    n, m = len(loc_index), times.size
    y = np.full((n, m), np.nan)
    for row_no, i, t, val in rows:
        k = time_index[t]
        if not np.isnan(y[i, k]):
            raise ParseError(f"row {row_no}: duplicate (location, time) pair")
        y[i, k] = val
    missing = np.argwhere(np.isnan(y))
    if missing.size:
        i, k = missing[0]
        raise ParseError(f"ragged grid: location index {i} lacks time {times[k]}")
    locations = np.empty((n, p))
    for loc, i in loc_index.items():
        locations[i] = loc
    return SpaceTimeDataset(locations, times, y)
