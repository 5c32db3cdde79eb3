"""Reference forms that tests compare the program against: per-sample forms
of whole-chain computations, which the batched forms equal with `==`, and
the one-point field, the prior densities and the joint log posterior, which
the sampler's batched terms agree with.

(Named `oracles`, not `reference`: the benchmark's own `reference` module is
imported by name in the same test process.)
"""

import math

import numpy as np
from scipy.special import gammaln

from levyst import effects
from levyst.ar import mode_for_times
from levyst.errors import ConfigError, InvalidArgumentError, InvalidStateError, UnsupportedPredictionError
from levyst.model import (MAP_EXPONENT, MonotoneMapFit, ThetaLayout, atom_process_log_density, count_log_factor,
                          field_rows, field_values, kernel_matrix, log_observation_density, log_prior_theta,
                          unpack_theta)
from levyst.sampler import PredictionBands, _S_PREDICT, stream

_LOG_2PI = math.log(2.0 * math.pi)


def phi0_training_matrix(locations, y) -> np.ndarray:
    """Training baselines one location at a time: the mean response of the
    nearest other locations."""
    phi0 = np.empty_like(y)
    for i in range(locations.shape[0]):
        d = np.sum((locations - locations[i]) ** 2, axis=1)
        d[i] = np.inf
        phi0[i] = y[np.flatnonzero(d == d.min())].mean(axis=0)
    return phi0


def map_fit(coords_per_dim, mp) -> MonotoneMapFit:
    """The increment recursion, one dimension at a time."""
    knots, values = [], []
    for ell, coords in enumerate(coords_per_dim):
        c = np.asarray(coords, dtype=float)
        slope = mp.C[ell] * mp.X[ell]
        m = np.empty_like(c)
        m[0] = mp.C_tilde[ell] - slope * abs(c[0]) ** MAP_EXPONENT
        if c.size > 1:
            m[1:] = m[0] + np.cumsum(slope * np.diff(c) ** MAP_EXPONENT)
        knots.append(c)
        values.append(m)
    return MonotoneMapFit(tuple(knots), tuple(values))


def map_extend(s_new, dim, fit, mp) -> np.ndarray:
    """The map at new coordinates of one dimension, from the nearest lower
    knot, with a scalar power per offset."""
    s = np.asarray(s_new, dtype=float)
    if not np.all(np.isfinite(s)):
        raise InvalidArgumentError("s_new must be finite")
    knots, values = fit.knots[dim], fit.values[dim]
    slope = mp.C[dim] * mp.X[dim]
    below = s < knots[0]
    i = np.maximum(np.searchsorted(knots, s, side="right") - 1, 0)
    offset = np.where(below, knots[0] - s, s - knots[i])
    powered = np.array([d ** MAP_EXPONENT for d in offset.ravel()]).reshape(s.shape)
    return np.where(below, values[0] - slope * powered, values[i] + slope * powered)


def field_rows_per_block(mapped, times, atoms, kp) -> np.ndarray:
    """`levyst.model.field_rows` as one kernel matrix over the store's atoms
    in (block, slot) order, then each block's own column slice times its
    betas, one block at a time."""
    block, slot = atoms.slots()
    time_term = (kp.xi * np.abs(np.asarray(times, dtype=float) - kp.tau))[block]
    kernel = kernel_matrix(mapped, atoms.values[1:, block, slot], kp, time_term)
    rows = np.empty((atoms.counts.size, mapped.shape[0]))
    end = 0
    for b, count in enumerate(atoms.counts.tolist()):
        start, end = end, end + count
        rows[b] = kernel[:, start:end] @ atoms.values[0, b, :count]
    return rows


def grid_index(t, times) -> int:
    hits = np.flatnonzero(times == t)
    if hits.size == 0:
        hits = np.flatnonzero(np.isclose(times, t, rtol=0.0, atol=1e-12))
    if hits.size == 0:
        raise UnsupportedPredictionError(f"time {t} is not on the training grid")
    return int(hits[0])


def posterior_predict(samples, new_locations, new_times, data, marginalized=True, seed=0,
                      probs=(1 / 16, 0.5, 15 / 16)) -> PredictionBands:
    """`levyst.posterior_predict` as a loop over samples: each sample
    unpacks its theta, fits and extends its map and builds its field, and
    each band is its own `np.quantile` call.  Always keeps the draws."""
    if not samples:
        raise InvalidArgumentError("empty chain")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    new_locations = np.atleast_2d(np.asarray(new_locations, dtype=float))
    new_times = np.atleast_1d(np.asarray(new_times, dtype=float))
    layout, ar_mode = ThetaLayout(p=data.p), mode_for_times(data.times)
    knots = [np.unique(data.locations[:, ell]) for ell in range(data.p)]
    time_idx = np.array([grid_index(t, data.times) for t in new_times])
    q, mt = new_locations.shape[0], new_times.size
    phi0_new = effects.phi0_predict(data.locations, data.times, data.y, new_locations, new_times)
    S = len(samples)
    z = stream(seed, _S_PREDICT).standard_normal((S, mt, q) if marginalized else (S, mt, 2, q))
    fields = np.empty((S, q, mt))
    for s_i, smp in enumerate(samples):
        kp, mp, _, _ = unpack_theta(smp.theta, layout, ar_mode)
        fit = map_fit(knots, mp)
        mapped_new = np.column_stack([map_extend(new_locations[:, ell], ell, fit, mp) for ell in range(data.p)])
        fields[s_i] = field_rows(mapped_new, data.times[time_idx], smp.store.take(time_idx), kp).T
    alpha, ssq_eps, ssq_phi = (np.array([getattr(smp, name) for smp in samples])[:, None, None]
                               for name in ("alpha", "sigma_sq_eps", "sigma_sq_phi"))
    mean = alpha + phi0_new + fields
    if marginalized:
        draws = mean + np.sqrt(ssq_eps + ssq_phi) * z.transpose(0, 2, 1)
    else:
        z_phi, z_eps = z.transpose(2, 0, 3, 1)
        draws = mean + np.sqrt(ssq_phi) * z_phi + np.sqrt(ssq_eps) * z_eps
    if data.standardized:
        draws = draws * data.sd + data.mean
    bands = {float(pr): np.quantile(draws, pr, axis=0) for pr in probs}
    return PredictionBands(locations=new_locations, times=new_times, quantiles=bands, draws=draws)


def f_eval(mapped_s, t, atoms, kp) -> float:
    """Field value at one mapped location: sum_j K(M(s)-mu_j, t-tau) beta_j."""
    ms = np.atleast_1d(np.asarray(mapped_s, dtype=float))
    if atoms.count == 0:
        return 0.0
    if atoms.mu.shape[1] != ms.size or ms.size != kp.p:
        raise InvalidArgumentError("dimension mismatch between mapped_s, atoms and kernel")
    d = ms[None, :] - atoms.mu
    logk = -0.5 * (d * d) @ kp.tilde_sigma_sq - kp.xi * abs(t - kp.tau)
    return float(np.exp(logk) @ atoms.beta)


def log_ig(x, a, b) -> float:
    """Inverse-gamma log density, shape a, scale b."""
    if x <= 0.0:
        return -np.inf
    return a * math.log(b) - gammaln(a) - (a + 1.0) * math.log(x) - b / x


def log_gamma_pdf(x, a, b) -> float:
    """Gamma log density, shape a, rate b."""
    if x <= 0.0:
        return -np.inf
    return a * math.log(b) - gammaln(a) + (a - 1.0) * math.log(x) - b * x


def log_ig_transformed(phi, a, b) -> float:
    """Inverse-gamma density of exp(phi) with the log-scale Jacobian."""
    return a * math.log(b) - gammaln(a) - (a + 1.0) * phi - b * math.exp(-phi) + phi


def _gauss_logpdf(x, mean, var) -> float:
    return -0.5 * (_LOG_2PI + math.log(var) + (x - mean) ** 2 / var)


def log_prior_zeta(hypers, nu, omega_sq, prior, marginalized, alpha_pinned) -> float:
    """Prior of the Gibbs-updated scalars."""
    total = log_gamma_pdf(hypers.lam, prior.lambda_a, prior.lambda_b)
    total += log_ig(hypers.sigma_sq_eps, prior.ig_a_tight, prior.ig_b_tight)
    for ell in range(nu.size):
        total += _gauss_logpdf(float(nu[ell]), 0.0, prior.nu_var)
        total += log_ig(float(omega_sq[ell]), prior.ig_a, prior.ig_b)
    if not alpha_pinned:
        total += _gauss_logpdf(hypers.alpha, prior.mu_alpha, hypers.sigma_sq_alpha)
        total += log_ig(hypers.sigma_sq_alpha, prior.ig_a_tight, prior.ig_b_tight)
    if not marginalized:
        total += log_ig(hypers.sigma_sq_phi, prior.ig_a_tight, prior.ig_b_tight)
    return total


def log_joint_parts(atoms, theta, hypers, nu, omega_sq, phi, y, mapped, times, phi0, prior, mode, marginalized,
                    alpha_pinned=True) -> dict[str, float]:
    """Named factors of the joint log posterior (up to an additive constant),
    one time block at a time.

    phi is ignored in marginalized mode, where the observation mean uses
    phi0 and the noise variance sigma_sq_eps + sigma_sq_phi.
    """
    layout = ThetaLayout(p=mapped.shape[1])
    if len(atoms) != times.size:
        raise InvalidStateError("one atom block per time index required")
    kp, _, beta_spec, mu_specs = unpack_theta(theta, layout, mode)
    parts: dict[str, float] = {}

    if marginalized:
        phi_eff = phi0
        var_eff = hypers.sigma_sq_eps + hypers.sigma_sq_phi
    else:
        if phi is None:
            raise InvalidStateError("explicit mode requires a phi field")
        phi_eff = phi
        var_eff = hypers.sigma_sq_eps
    loglik = 0.0
    for k in range(times.size):
        f = field_values(mapped, times[k], atoms[k], kp)
        loglik += float(np.sum(log_observation_density(y[:, k], hypers.alpha, phi_eff[:, k], f, var_eff)))
    parts["likelihood"] = loglik
    parts["counts"] = sum(count_log_factor(a.count, hypers.lam) for a in atoms)
    parts["atom_process"] = atom_process_log_density(atoms, times, beta_spec, mu_specs)
    parts["theta_prior"] = log_prior_theta(theta, layout, nu, omega_sq, prior)
    parts["zeta_prior"] = log_prior_zeta(hypers, nu, omega_sq, prior, marginalized, alpha_pinned)
    if not marginalized:
        parts["random_effects"] = float(
            np.sum(-0.5 * (_LOG_2PI + math.log(hypers.sigma_sq_phi))
                   - 0.5 * (phi - phi0) ** 2 / hypers.sigma_sq_phi)
        )
    return parts


def log_joint_posterior(*args, **kwargs) -> float:
    """Sum of `log_joint_parts` (up to the constant of proportionality)."""
    parts = log_joint_parts(*args, **kwargs)
    values = np.array(list(parts.values()))
    if np.any(~np.isfinite(values)):
        return -np.inf
    return float(values.sum())
