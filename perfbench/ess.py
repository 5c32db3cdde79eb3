"""Rank-normalized split bulk effective sample size (Vehtari, Gelman, Simpson,
Carpenter and Buerkner 2021, "Rank-normalization, folding, and localization").

Kept inside the benchmark so that the ESS it reports does not depend on the
program under test.  `self_check()` holds the estimator's property checks:
iid normal draws give ESS close to N, and an AR(1) series with coefficient rho
gives ESS close to N (1 - rho) / (1 + rho).  Run this file to print them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of one series at every lag, by FFT."""
    n = x.size
    centred = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centred, size)
    return np.fft.irfft(spec * np.conj(spec), size)[:n] / n


def _ess_of_chains(chains: np.ndarray) -> float:
    """ESS of an (M chains, n draws) array with Geyer's initial monotone sequence."""
    m, n = chains.shape
    acov = np.array([_autocovariance(c) for c in chains])
    within = acov[:, 0].mean() * n / (n - 1.0)
    var_plus = within * (n - 1.0) / n
    if m > 1:
        var_plus += chains.mean(axis=1).var(ddof=1)
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0

    # Initial positive sequence: sum pairs (rho_2k, rho_2k+1) while positive.
    pairs = []
    for k in range(0, n - 1, 2):
        pair = rho[k] + rho[k + 1]
        if pair <= 0.0:
            break
        pairs.append(pair)
    # Initial monotone sequence: no pair may exceed the one before it.
    for k in range(1, len(pairs)):
        pairs[k] = min(pairs[k], pairs[k - 1])
    tau = -1.0 + 2.0 * sum(pairs)
    total = m * n
    tau = max(tau, 1.0 / math.log10(total))
    return total / tau


def bulk_ess(draws) -> float:
    """Bulk ESS of one chain: split in halves, rank-normalize, estimate."""
    x = np.asarray(draws, dtype=float)
    half = x.size // 2
    if half < 4:
        raise ValueError("bulk ESS needs at least 8 draws")
    if not np.all(np.isfinite(x)):
        raise ValueError("bulk ESS of a non-finite series")
    split = np.stack([x[:half], x[x.size - half:]])
    ranks = rankdata(split, method="average").reshape(split.shape)
    z = ndtri((ranks - 0.375) / (split.size + 0.25))
    return _ess_of_chains(z)


def self_check() -> list[str]:
    """Property checks of the estimator on series with known ESS.

    Returns the failures as messages; an empty list means every check held.
    The series come from fixed generator seeds, so the outcome never varies.
    """
    failures = []
    rng = np.random.default_rng(20210517)
    n = 4000
    ess = bulk_ess(rng.standard_normal(n))
    if not 0.85 * n <= ess <= 1.15 * n:
        failures.append(f"iid normal: ESS {ess:.0f} not within 15% of {n}")
    for rho in (0.5, 0.9):
        n = 40_000
        e = rng.standard_normal(n)
        x = np.empty(n)
        x[0] = e[0] / math.sqrt(1.0 - rho * rho)
        for i in range(1, n):
            x[i] = rho * x[i - 1] + e[i]
        expected = n * (1.0 - rho) / (1.0 + rho)
        ess = bulk_ess(x)
        if not 0.8 * expected <= ess <= 1.2 * expected:
            failures.append(f"AR(1) rho={rho}: ESS {ess:.0f} not within 20% of {expected:.0f}")
    # A chain stuck in two regimes has far fewer effective draws than draws.
    steps = np.concatenate([np.zeros(500), np.ones(500)]) + 0.01 * rng.standard_normal(1000)
    if bulk_ess(steps) > 50:
        failures.append("split chain with a level shift: ESS not small")
    return failures


if __name__ == "__main__":
    problems = self_check()
    print("\n".join(problems) if problems else "ESS property checks passed")
    raise SystemExit(1 if problems else 0)
