"""Empirical validation tooling: recursive stationarity detection, lagged
correlations and normality summaries.

Their tuning is fixed by the module constants below; only the detectors'
first threshold c0 is a parameter (`levyst diagnose --c0`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import InvalidArgumentError

THRESHOLD_DECAY = 0.1    # detector thresholds c_j = max(c0 j^-THRESHOLD_DECAY, THRESHOLD_FLOOR)
THRESHOLD_FLOOR = 1e-6
PRIOR_A = PRIOR_B = 1.0  # Beta prior of the indicator probability
N_PROBS = 19             # probabilities of the normality table, 0.05 .. 0.95
PAIR_CHUNK = 512         # rows of cells per block of lagged-correlation pairs


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov distance and the recursive detectors
# ---------------------------------------------------------------------------

def ks_distance(sample_a: np.ndarray, sample_b: np.ndarray) -> float:
    """Sup-norm distance between the two empirical CDFs."""
    a = np.sort(np.asarray(sample_a, dtype=float).ravel())
    b = np.sort(np.asarray(sample_b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise InvalidArgumentError("both samples must be nonempty")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def threshold_sequence(c0: float, count: int) -> np.ndarray:
    """Slowly decreasing thresholds c_j = max(c0 * j**(-THRESHOLD_DECAY),
    THRESHOLD_FLOOR), for a finite c0 >= 0."""
    if not 0.0 <= c0 < math.inf:
        raise InvalidArgumentError(f"c0 must be finite and >= 0, got {c0}")
    j = np.arange(1, count + 1, dtype=float)
    return np.maximum(c0 * j ** (-THRESHOLD_DECAY), THRESHOLD_FLOOR)


@dataclass
class StationarityResult:
    posterior_mean: np.ndarray   # trajectory over regions
    posterior_var: np.ndarray
    thresholds: np.ndarray
    distances: np.ndarray
    verdict: str                 # stationary | nonstationary | inconclusive


def _beta_recursion(indicators: np.ndarray, a0: float, b0: float):
    hits = np.cumsum(indicators)
    j = np.arange(1, indicators.size + 1)
    a = a0 + hits
    b = b0 + j - hits
    mean = a / (a + b)
    var = a * b / ((a + b) ** 2 * (a + b + 1.0))
    return mean, var


def _verdict(terminal: float) -> str:
    if terminal < 0.05:
        return "nonstationary"
    if terminal > 0.95:
        return "stationary"
    return "inconclusive"


def recursive_stationarity_test(regions: list[np.ndarray], c0: float) -> StationarityResult:
    """Recursive Bernoulli-probability posterior over threshold indicators.

    Each region's sample is compared to the pooled global sample by the
    Kolmogorov-Smirnov distance; the indicator of falling below the slowly
    decreasing threshold feeds a conjugate Beta recursion.
    """
    if len(regions) < 2:
        raise InvalidArgumentError("at least two regions required")
    pooled = np.concatenate([np.asarray(r, dtype=float).ravel() for r in regions])
    thresholds = threshold_sequence(c0, len(regions))
    distances = np.array([ks_distance(r, pooled) for r in regions])
    indicators = (distances < thresholds).astype(float)
    mean, var = _beta_recursion(indicators, PRIOR_A, PRIOR_B)
    return StationarityResult(mean, var, thresholds, distances, _verdict(float(mean[-1])))


# ---------------------------------------------------------------------------
# lagged spatio-temporal correlations
# ---------------------------------------------------------------------------

@dataclass
class LagBins:
    edges: np.ndarray            # (B+1,)
    counts: np.ndarray           # (B,)
    correlation: np.ndarray      # (B,), NaN where undefined


def lagged_correlation(locations: np.ndarray, times: np.ndarray, y: np.ndarray,
                       edges: np.ndarray) -> LagBins:
    """Pearson correlation of observation pairs binned by joint lag.

    The lag of cells (i, k) and (i', k') is sqrt(||s_i - s_i'||^2 +
    (t_k - t_k')^2).  Both pair orientations enter, which makes the
    estimator symmetric; bins with fewer than two pairs or zero variance
    report NaN.  Pairs are accumulated PAIR_CHUNK rows at a time, so memory
    stays O(PAIR_CHUNK * cells).
    """
    edges = np.asarray(edges, dtype=float)
    if edges.size < 2 or np.any(edges[1:] <= edges[:-1]):
        raise InvalidArgumentError("bin edges must be increasing and at least two")
    if y.size == 0:
        raise InvalidArgumentError("empty data")
    locations = np.atleast_2d(np.asarray(locations, dtype=float))
    times = np.asarray(times, dtype=float)
    n, m = y.shape
    flat = y.ravel()
    loc_idx, time_idx = np.divmod(np.arange(n * m), m)
    coords = np.column_stack([locations[loc_idx], times[time_idx]])
    total = n * m

    B = edges.size - 1
    counts = np.zeros(B, dtype=np.int64)
    s1 = np.zeros(B)   # sum of (x_a + x_b) over pairs
    s2 = np.zeros(B)   # sum of (x_a^2 + x_b^2)
    sp = np.zeros(B)   # sum of x_a * x_b
    for start in range(0, total, PAIR_CHUNK):
        stop = min(start + PAIR_CHUNK, total)
        diff = coords[start:stop, None, :] - coords[None, :, :]
        lag = np.sqrt(np.sum(diff * diff, axis=2))
        which = np.digitize(lag, edges) - 1
        # keep strictly-upper pairs (global column index > global row index)
        rows = np.arange(start, stop)[:, None]
        upper = np.arange(total)[None, :] > rows
        valid = upper & (which >= 0) & (which < B)
        wb = which[valid]
        xa = np.broadcast_to(flat[start:stop, None], (stop - start, total))[valid]
        xb = np.broadcast_to(flat[None, :], (stop - start, total))[valid]
        counts += np.bincount(wb, minlength=B)
        s1 += np.bincount(wb, weights=xa + xb, minlength=B)
        s2 += np.bincount(wb, weights=xa * xa + xb * xb, minlength=B)
        sp += np.bincount(wb, weights=xa * xb, minlength=B)

    corr = np.full(B, np.nan)
    for b in range(B):
        if counts[b] < 2:
            continue
        two_n = 2.0 * counts[b]
        mean = s1[b] / two_n
        var = s2[b] / two_n - mean * mean
        if var <= 0.0:
            continue
        cov = sp[b] / counts[b] - mean * mean
        corr[b] = cov / var
    return LagBins(edges=edges, counts=counts, correlation=corr)


# ---------------------------------------------------------------------------
# normality summary
# ---------------------------------------------------------------------------

@dataclass
class NormalitySummary:
    probs: np.ndarray
    sample_q: np.ndarray
    normal_q: np.ndarray
    max_abs_deviation: float
    degenerate: bool = False


def normality_summary(sample: np.ndarray) -> NormalitySummary:
    """Quantile table against a moment-fitted normal plus the max deviation."""
    x = np.asarray(sample, dtype=float).ravel()
    if x.size < 20:
        raise InvalidArgumentError("normality summary needs at least 20 points")
    probs = np.linspace(0.05, 0.95, N_PROBS)
    sq = np.quantile(x, probs)
    sd = x.std(ddof=1)
    if sd <= 0.0:
        return NormalitySummary(probs, sq, np.full_like(sq, x.mean()), 0.0, degenerate=True)
    nq = ndtri(probs) * sd + x.mean()  # normal quantiles, as norm.ppf(probs, loc=mean, scale=sd)
    dev = float(np.max(np.abs(sq - nq)))
    return NormalitySummary(probs, sq, nq, dev)

