"""Stationary latent temporal dynamics.

Two flavours of first-order autoregression drive the latent atom
coordinates: a gap-aware autoregression for irregular time grids
(transition mean rho**gap, variance sigma_sq * (1 - rho**(2*gap))) and
the regular unit-gap AR(1) special case.  Gaussian innovations
throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidArgumentError

_LOG_2PI = math.log(2.0 * math.pi)


class ArMode(Enum):
    IAR = "iar"
    REGULAR_AR1 = "ar1"


def check_ar_params(rho: float, sigma_sq: float, mode: ArMode) -> None:
    """Raise InvalidArgumentError unless rho and sigma_sq are finite,
    sigma_sq is positive and rho lies in the range of `mode`: (0, 1) for the
    gap-aware form, (-1, 1) for the regular AR(1)."""
    if not math.isfinite(rho) or not math.isfinite(sigma_sq):
        raise InvalidArgumentError("non-finite AR parameters")
    if sigma_sq <= 0.0:
        raise InvalidArgumentError(f"sigma_sq must be positive, got {sigma_sq}")
    if mode is ArMode.IAR:
        if not 0.0 < rho < 1.0:
            raise InvalidArgumentError(f"IAR requires 0 < rho < 1, got {rho}")
    else:
        if not -1.0 < rho < 1.0:
            raise InvalidArgumentError(f"AR(1) requires -1 < rho < 1, got {rho}")


def initial_variance(rho: float, sigma_sq: float, mode: ArMode) -> float:
    """Variance of a chain's first value.  Unit-gap AR(1) uses the
    sigma_sq / (1 - rho^2) initial law; the irregular process is
    parameterized so its marginal variance is sigma_sq directly."""
    if mode is ArMode.REGULAR_AR1:
        return sigma_sq / (1.0 - rho**2)
    return sigma_sq


@dataclass(frozen=True)
class ArSpec:
    """Autoregression parameters for one latent coordinate chain."""

    rho: float
    sigma_sq: float
    mode: ArMode = ArMode.IAR

    def __post_init__(self):
        check_ar_params(self.rho, self.sigma_sq, self.mode)

    @property
    def initial_variance(self) -> float:
        return initial_variance(self.rho, self.sigma_sq, self.mode)


def _gauss_logpdf(x, mean, var):
    return -0.5 * (_LOG_2PI + np.log(var) + (x - mean) ** 2 / var)


def transition_moments(gap: float, rho: float, sigma_sq: float) -> tuple[float, float]:
    """'(mean multiplier, variance)' of the one-step transition over `gap`
    of a chain with parameters rho and sigma_sq (an `ArSpec`'s)."""
    if gap <= 0.0 or not math.isfinite(gap):
        raise InvalidArgumentError(f"gap must be positive, got {gap}")
    if rho < 0.0 and gap != round(gap):
        raise InvalidArgumentError("negative rho needs integer gaps")
    mult = rho**gap
    var = sigma_sq * (1.0 - rho ** (2.0 * gap))
    return mult, var


def ar_transition_log_density(x_curr, x_prev, gap: float, spec: ArSpec):
    """Log density of x_curr given x_prev one gap earlier.

    Accepts scalars or equal-shaped arrays for x_curr / x_prev.
    """
    mult, var = transition_moments(gap, spec.rho, spec.sigma_sq)
    return _gauss_logpdf(np.asarray(x_curr, dtype=float), mult * np.asarray(x_prev, dtype=float), var)


def ar_initial_log_density(x1, spec: ArSpec):
    """Log density of the chain's first value."""
    return _gauss_logpdf(np.asarray(x1, dtype=float), 0.0, spec.initial_variance)


def step_gaps(times: np.ndarray, mode: ArMode) -> np.ndarray:
    """Transition gaps between successive times.  The regular AR(1) takes
    unit steps, also where a computed time difference is off 1 by rounding
    (which a negative rho rejects).  A difference that is not finite raises
    InvalidArgumentError."""
    with np.errstate(over="ignore"):
        steps = np.diff(times)
    if not np.all(np.isfinite(steps)):
        raise InvalidArgumentError("time gaps must be finite")
    return np.ones_like(steps) if mode is ArMode.REGULAR_AR1 else steps


def ar_sample_path(times: np.ndarray, spec: ArSpec, rng: np.random.Generator) -> np.ndarray:
    """Simulate one path of the process on a strictly increasing time grid,
    with the transition gaps of `step_gaps`."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise InvalidArgumentError("times must be a nonempty 1-d array")
    if np.any(times[1:] <= times[:-1]):
        raise InvalidArgumentError("times must be strictly increasing")
    gaps = step_gaps(times, spec.mode)
    path = np.empty(times.size)
    path[0] = math.sqrt(spec.initial_variance) * rng.standard_normal()
    for k in range(1, times.size):
        mult, var = transition_moments(gaps[k - 1], spec.rho, spec.sigma_sq)
        path[k] = mult * path[k - 1] + math.sqrt(var) * rng.standard_normal()
    return path


def ar_autocov(gap: float, spec: ArSpec) -> float:
    """Autocovariance sigma_sq * rho**gap at a nonnegative time gap."""
    if gap < 0.0:
        raise InvalidArgumentError(f"gap must be nonnegative, got {gap}")
    if spec.rho < 0.0 and gap != round(gap):
        raise InvalidArgumentError("negative rho needs integer gaps")
    return spec.sigma_sq * spec.rho**gap


def mode_for_times(times: np.ndarray) -> ArMode:
    """Unit-gap grids get the regular AR(1); anything else the gap-aware form."""
    times = np.asarray(times, dtype=float)
    if times.size < 2:
        return ArMode.REGULAR_AR1
    with np.errstate(over="ignore"):
        gaps = np.diff(times)
    if np.allclose(gaps, 1.0, rtol=0.0, atol=1e-12):
        return ArMode.REGULAR_AR1
    return ArMode.IAR


def rho_from_transformed(v: float, mode: ArMode) -> float:
    """Map the unconstrained sampling coordinate to the admissible rho range."""
    if mode is ArMode.IAR:
        return 1.0 / (1.0 + math.exp(-v))
    return -1.0 + 2.0 / (1.0 + math.exp(-v))

