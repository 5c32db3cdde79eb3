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


@dataclass(frozen=True)
class ArSpec:
    """Autoregression parameters for one latent coordinate chain."""

    rho: float
    sigma_sq: float
    mode: ArMode = ArMode.IAR

    def __post_init__(self):
        if not math.isfinite(self.rho) or not math.isfinite(self.sigma_sq):
            raise InvalidArgumentError("non-finite AR parameters")
        if self.sigma_sq <= 0.0:
            raise InvalidArgumentError(f"sigma_sq must be positive, got {self.sigma_sq}")
        if self.mode is ArMode.IAR:
            if not 0.0 < self.rho < 1.0:
                raise InvalidArgumentError(f"IAR requires 0 < rho < 1, got {self.rho}")
        else:
            if not -1.0 < self.rho < 1.0:
                raise InvalidArgumentError(f"AR(1) requires -1 < rho < 1, got {self.rho}")

    @property
    def initial_variance(self) -> float:
        # Unit-gap AR(1) uses the sigma_sq / (1 - rho^2) initial law; the
        # irregular process is parameterized so its marginal variance is
        # sigma_sq directly.
        if self.mode is ArMode.REGULAR_AR1:
            return self.sigma_sq / (1.0 - self.rho**2)
        return self.sigma_sq


def _gauss_logpdf(x, mean, var):
    return -0.5 * (_LOG_2PI + np.log(var) + (x - mean) ** 2 / var)


def transition_moments(gap: float, spec: ArSpec) -> tuple[float, float]:
    """'(mean multiplier, variance)' of the one-step transition over `gap`."""
    if gap <= 0.0 or not np.isfinite(gap):
        raise InvalidArgumentError(f"gap must be positive, got {gap}")
    if spec.rho < 0.0 and gap != round(gap):
        raise InvalidArgumentError("negative rho needs integer gaps")
    mult = spec.rho**gap
    var = spec.sigma_sq * (1.0 - spec.rho ** (2.0 * gap))
    return mult, var


def ar_transition_log_density(x_curr, x_prev, gap: float, spec: ArSpec):
    """Log density of x_curr given x_prev one gap earlier.

    Accepts scalars or equal-shaped arrays for x_curr / x_prev.
    """
    mult, var = transition_moments(gap, spec)
    return _gauss_logpdf(np.asarray(x_curr, dtype=float), mult * np.asarray(x_prev, dtype=float), var)


def ar_initial_log_density(x1, spec: ArSpec):
    """Log density of the chain's first value."""
    return _gauss_logpdf(np.asarray(x1, dtype=float), 0.0, spec.initial_variance)


def step_gaps(times: np.ndarray, mode: ArMode) -> np.ndarray:
    """Transition gaps between successive times.  The regular AR(1) takes
    unit steps, also where a computed time difference is off 1 by rounding
    (which a negative rho rejects)."""
    steps = np.diff(times)
    return np.ones_like(steps) if mode is ArMode.REGULAR_AR1 else steps


def ar_sample_path(times: np.ndarray, spec: ArSpec, rng: np.random.Generator) -> np.ndarray:
    """Simulate one path of the process on a strictly increasing time grid,
    with the transition gaps of `step_gaps`."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise InvalidArgumentError("times must be a nonempty 1-d array")
    if times.size > 1 and np.any(np.diff(times) <= 0.0):
        raise InvalidArgumentError("times must be strictly increasing")
    gaps = step_gaps(times, spec.mode)
    path = np.empty(times.size)
    path[0] = math.sqrt(spec.initial_variance) * rng.standard_normal()
    for k in range(1, times.size):
        mult, var = transition_moments(gaps[k - 1], spec)
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
    gaps = np.diff(times)
    if np.allclose(gaps, 1.0, rtol=0.0, atol=1e-12):
        return ArMode.REGULAR_AR1
    return ArMode.IAR


def rho_from_transformed(v: float, mode: ArMode) -> float:
    """Map the unconstrained sampling coordinate to the admissible rho range."""
    if mode is ArMode.IAR:
        return 1.0 / (1.0 + math.exp(-v))
    return -1.0 + 2.0 / (1.0 + math.exp(-v))

