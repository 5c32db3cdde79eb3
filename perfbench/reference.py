"""Model-mean reference and output checks, written apart from `levyst`.

Nothing here calls into the program: the theta layout, the monotone coordinate
maps, the kernel sum and the nearest-neighbour baselines are re-derived from
the model's definition, with plain loops where the program vectorizes.

    f(s, t) = sum_j exp(-0.5 sum_l ksq_l (M_l(s_l) - mu_jl)^2 - xi |t - tau|) beta_j
    M_l(s_(1)) = C~_l - C_l X_l |s_(1)|^2
    M_l(s_(i)) = M_l(s_(i-1)) + C_l X_l (s_(i) - s_(i-1))^2   (sorted unique s)
    off-knot:  nearest lower knot plus C_l X_l (s - knot)^2; below the first
               knot, the first value minus C_l X_l (knot - s)^2

Each check returns a list of failure messages; an empty list means it held.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np
from scipy.special import gammainc, gammaincc
from scipy.stats import kstest

# Truncation box of the fixed-dimension block and the atom coordinates.
X_BOX = (0.0, 10.0)
LOG_BOX = (-20.0, 5.0)
LOGIT_BOX = (-10.0, 10.0)
MU_BOUND = 10.0

# A correct program fails a KS test at this level once in a million runs.
KS_MIN_P = 1e-6
# Standard errors allowed for the predictive z-scores' mean and variance.
Z_SE_LIMIT = 5.0


def theta_fields(theta: np.ndarray, p: int) -> dict:
    """Named natural-scale groups of the sampling-scale theta vector.

    Order: X, log C~, log C, log ksq (p each), log tau, log xi,
    logit rho (p), log sigma_sq (p), logit rho_beta, log sigma_sq_beta.
    """
    th = [float(v) for v in theta]
    if len(th) != 6 * p + 4:
        raise ValueError(f"theta has {len(th)} entries, expected {6 * p + 4}")
    return {
        "x": th[0:p],
        "c_tilde": [math.exp(v) for v in th[p:2 * p]],
        "c": [math.exp(v) for v in th[2 * p:3 * p]],
        "ksq": [math.exp(v) for v in th[3 * p:4 * p]],
        "tau": math.exp(th[4 * p]),
        "xi": math.exp(th[4 * p + 1]),
    }


def theta_box(p: int) -> list[tuple[float, float]]:
    return ([X_BOX] * p + [LOG_BOX] * (4 * p + 2) + [LOGIT_BOX] * p
            + [LOG_BOX] * p + [LOGIT_BOX, LOG_BOX])


def map_knots(coords, c_tilde: float, slope: float) -> tuple[list[float], list[float]]:
    """Sorted unique coordinates and the map's values there, by the recursion."""
    knots = sorted(set(float(c) for c in coords))
    values = [c_tilde - slope * abs(knots[0]) ** 2]
    for prev, cur in zip(knots, knots[1:]):
        values.append(values[-1] + slope * (cur - prev) ** 2)
    return knots, values


def map_point(s: float, knots: list[float], values: list[float], slope: float) -> float:
    """Map value at any coordinate from its nearest lower knot."""
    if s < knots[0]:
        return values[0] - slope * (knots[0] - s) ** 2
    lower = 0
    for i, k in enumerate(knots):
        if k <= s:
            lower = i
        else:
            break
    return values[lower] + slope * (s - knots[lower]) ** 2


def mapped_points(points: np.ndarray, train_locations: np.ndarray, fields: dict) -> np.ndarray:
    """Map every row of `points` with maps fitted at the training coordinates."""
    out = np.empty(points.shape)
    for ell in range(points.shape[1]):
        slope = fields["c"][ell] * fields["x"][ell]
        knots, values = map_knots(train_locations[:, ell], fields["c_tilde"][ell], slope)
        for i, s in enumerate(points[:, ell]):
            out[i, ell] = map_point(float(s), knots, values, slope)
    return out


def kernel_sum(mapped: np.ndarray, t: float, mu: np.ndarray, beta: np.ndarray, fields: dict) -> np.ndarray:
    """f at every mapped row for one time, summed atom by atom."""
    ksq = np.asarray(fields["ksq"])
    time_decay = fields["xi"] * abs(t - fields["tau"])
    f = np.zeros(mapped.shape[0])
    for j in range(beta.size):
        d = mapped - mu[j]
        f += np.exp(-0.5 * (d * d) @ ksq - time_decay) * beta[j]
    return f


def baseline_training(locations: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Response of the nearest other location at the same time, ties averaged."""
    n = locations.shape[0]
    out = np.empty_like(y)
    for i in range(n):
        dist = [float(np.sum((locations[i] - locations[h]) ** 2)) for h in range(n)]
        dist[i] = math.inf
        best = min(dist)
        nearest = [h for h in range(n) if dist[h] == best]
        out[i] = y[nearest].mean(axis=0)
    return out


def baseline_point(locations: np.ndarray, times: np.ndarray, y: np.ndarray,
                   s: np.ndarray, t: float) -> float:
    """Response of the nearest training datum in space-time, ties averaged."""
    spatial = np.sum((locations - s) ** 2, axis=1)
    dist = spatial[:, None] + (times[None, :] - t) ** 2
    best = dist.min()
    return float(y[dist == best].mean())


def training_field(sample, locations: np.ndarray, times: np.ndarray) -> np.ndarray:
    """(n, m) field of one stored sample at the training locations."""
    fields = theta_fields(sample.theta, locations.shape[1])
    mapped = mapped_points(locations, locations, fields)
    return np.column_stack([kernel_sum(mapped, float(times[k]), a.mu, a.beta, fields)
                            for k, a in enumerate(sample.atoms)])


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def fingerprint(samples) -> str:
    """Digest of every stored number, bit for bit, in a fixed order."""
    h = hashlib.sha256()
    for s in samples:
        h.update(struct.pack("<q5d", s.iteration, s.lam, s.sigma_sq_eps, s.alpha,
                             s.sigma_sq_alpha, s.sigma_sq_phi))
        for arr in (s.nu, s.omega_sq, s.theta):
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        for a in s.atoms:
            h.update(struct.pack("<q", a.beta.size))
            h.update(np.ascontiguousarray(a.mu, dtype="<f8").tobytes())
            h.update(np.ascontiguousarray(a.beta, dtype="<f8").tobytes())
        if s.phi is not None:
            h.update(np.ascontiguousarray(s.phi, dtype="<f8").tobytes())
    return h.hexdigest()


def support_check(samples, p: int, j_max: int, marginalized: bool) -> list[str]:
    """Every stored sample lies in the model's support and is finite."""
    failures = []
    box = theta_box(p)
    for s in samples:
        where = f"sample at iteration {s.iteration}"
        scalars = [s.lam, s.sigma_sq_eps, s.alpha, s.sigma_sq_alpha, s.sigma_sq_phi]
        arrays = [s.nu, s.omega_sq, s.theta] + [a.mu for a in s.atoms] + [a.beta for a in s.atoms]
        if s.phi is not None:
            arrays.append(s.phi)
        if not all(math.isfinite(v) for v in scalars) or not all(np.all(np.isfinite(a)) for a in arrays):
            failures.append(f"{where}: non-finite value")
            continue
        if not all(1 <= a.beta.size <= j_max for a in s.atoms):
            failures.append(f"{where}: atom count outside [1, {j_max}]")
        if any(a.mu.size and np.max(np.abs(a.mu)) > MU_BOUND for a in s.atoms):
            failures.append(f"{where}: |mu| above {MU_BOUND}")
        if any(not lo <= v <= hi for v, (lo, hi) in zip(s.theta, box)):
            failures.append(f"{where}: theta outside its truncation box")
        if s.lam <= 0 or s.sigma_sq_eps <= 0 or s.sigma_sq_alpha <= 0 or np.any(s.omega_sq <= 0):
            failures.append(f"{where}: non-positive rate or variance")
        if marginalized and (s.sigma_sq_phi != 0.0 or s.phi is not None):
            failures.append(f"{where}: effect field present in marginalized mode")
        if not marginalized and (s.sigma_sq_phi <= 0 or s.phi is None):
            failures.append(f"{where}: explicit mode without a positive effect variance and field")
    return failures[:5]


def move_count_check(stats, iterations: int, m: int) -> list[str]:
    block = stats.proposals["birth"] + stats.proposals["death"] + stats.proposals["no_change"]
    failures = []
    if block != iterations * m:
        failures.append(f"block proposals {block} != iterations x m = {iterations * m}")
    for move in ("tmcmc", "enhance"):
        if stats.proposals[move] != iterations:
            failures.append(f"{move} proposals {stats.proposals[move]} != iterations {iterations}")
    for move, n in stats.proposals.items():
        if not 0 <= stats.accepts[move] <= n:
            failures.append(f"{move}: {stats.accepts[move]} accepts of {n} proposals")
    return failures


def conjugate_pits(samples, train, prior, marginalized: bool) -> dict[str, np.ndarray]:
    """PIT of each stored conjugate draw under its full conditional.

    The sampler draws lambda, sigma_sq_eps and (explicit mode) sigma_sq_phi
    last in each iteration, from fresh streams, given the state it stores, so
    these PIT values are iid uniform when the draws are exact.
    """
    n, m = train.y.shape
    phi0 = baseline_training(train.locations, train.y)
    shape_tight = prior.ig_a_tight + 0.5 * n * m
    pits = {"lambda": [], "sigma_sq_eps": []}
    if not marginalized:
        pits["sigma_sq_phi"] = []
    for s in samples:
        f = training_field(s, train.locations, train.times)
        effect = phi0 if marginalized else s.phi
        resid = train.y - s.alpha - effect - f
        rss = float(np.sum(resid * resid))
        # IG(a, b) has CDF Q(a, b / x); Gamma(a, rate b) has CDF P(a, b x).
        pits["sigma_sq_eps"].append(gammaincc(shape_tight, (prior.ig_b_tight + 0.5 * rss) / s.sigma_sq_eps))
        j_total = sum(a.beta.size for a in s.atoms)
        pits["lambda"].append(gammainc(prior.lambda_a + j_total, (prior.lambda_b + m) * s.lam))
        if not marginalized:
            dev = float(np.sum((s.phi - phi0) ** 2))
            pits["sigma_sq_phi"].append(gammaincc(shape_tight, (prior.ig_b_tight + 0.5 * dev) / s.sigma_sq_phi))
    return {k: np.asarray(v) for k, v in pits.items()}


def fit_check(samples, train, prior, marginalized: bool) -> tuple[list[str], dict[str, float]]:
    """KS test of the conjugate PIT values against Uniform(0, 1)."""
    failures, pvalues = [], {}
    for name, pit in conjugate_pits(samples, train, prior, marginalized).items():
        pvalues[name] = float(kstest(pit, "uniform").pvalue)
        if pvalues[name] < KS_MIN_P:
            failures.append(f"PIT of {name} not uniform: KS p = {pvalues[name]:.3g} over {pit.size} draws")
    return failures, pvalues


def predict_check(bands, samples, train, test, marginalized: bool) -> tuple[list[str], dict[str, float]]:
    """Predictive draws, standardized by the reference mean and noise sd, are N(0, 1)."""
    failures = []
    p = train.locations.shape[1]
    new_times = np.asarray(bands.times, dtype=float)
    time_index = [int(np.flatnonzero(train.times == t)[0]) for t in new_times]
    base = np.array([[baseline_point(train.locations, train.times, train.y, s, float(t))
                      for t in new_times] for s in test.locations])
    draws = (bands.draws - train.mean) / train.sd
    z = np.empty_like(draws)
    for i, s in enumerate(samples):
        fields = theta_fields(s.theta, p)
        mapped = mapped_points(test.locations, train.locations, fields)
        noise_sd = math.sqrt(s.sigma_sq_eps + s.sigma_sq_phi)
        for b, k in enumerate(time_index):
            mean = s.alpha + base[:, b] + kernel_sum(mapped, float(train.times[k]),
                                                     s.atoms[k].mu, s.atoms[k].beta, fields)
            z[i, :, b] = (draws[i, :, b] - mean) / noise_sd
    count = z.size
    z_mean, z_var = float(z.mean()), float(z.var())
    if abs(z_mean) > Z_SE_LIMIT / math.sqrt(count):
        failures.append(f"predictive z mean {z_mean:.4g} beyond {Z_SE_LIMIT} SE over {count} draws")
    if abs(z_var - 1.0) > Z_SE_LIMIT * math.sqrt(2.0 / count):
        failures.append(f"predictive z variance {z_var:.4g} beyond {Z_SE_LIMIT} SE of 1 over {count} draws")
    qs = sorted(bands.quantiles)
    for lo, hi in zip(qs, qs[1:]):
        if np.any(bands.quantiles[lo] > bands.quantiles[hi]):
            failures.append(f"band {lo:.4g} exceeds band {hi:.4g}")
    return failures, {"z_mean": z_mean, "z_var": z_var}
