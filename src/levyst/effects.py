"""Spatio-temporal random effects: nearest-neighbor baselines and Gibbs draws.

Each effect phi(s_i, t_k) is anchored at a baseline phi0: in training, the
response of the nearest other location at the same time (ties averaged); for
prediction, the response of the nearest training datum in joint space-time
distance ||s~ - s_i||^2 + (t~ - t_k)^2.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidStateError


def _argmin_set(dist_sq: np.ndarray) -> np.ndarray:
    best = dist_sq.min()
    return np.flatnonzero(dist_sq == best)


def phi0_training_matrix(locations: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Baselines for every training cell: nearest other location's response."""
    n = locations.shape[0]
    if n < 2:
        raise InvalidStateError("training baselines need at least two locations")
    phi0 = np.empty_like(y)
    for i in range(n):
        d = np.sum((locations - locations[i]) ** 2, axis=1)
        d[i] = np.inf
        idx = _argmin_set(d)
        phi0[i] = y[idx].mean(axis=0)
    return phi0


def phi0_predict(locations: np.ndarray, times: np.ndarray, y: np.ndarray,
                 s_new: np.ndarray, t_new) -> np.ndarray:
    """Baselines at prediction points: joint space-time nearest neighbor.

    `s_new` holds q points (or one point of length p) and `t_new` mt times
    (or one).  Entry (a, b) of the (q, mt) result averages y over the cells
    (i, k) nearest to (s_new[a], t_new[b]), ties taken in cell order.
    """
    if y.size == 0:
        raise InvalidStateError("empty candidate set for baseline search")
    s_new = np.atleast_2d(np.asarray(s_new, dtype=float))
    t_new = np.atleast_1d(np.asarray(t_new, dtype=float))
    d_sp = np.sum((locations[None, :, :] - s_new[:, None, :]) ** 2, axis=2)   # (q, n)
    d_t = (times[None, :] - t_new[:, None]) ** 2                               # (mt, m)
    # A cell's distance is the rounded sum d_sp[a, i] + d_t[b, k].  Rounding
    # is monotone, so the least distance is the rounded sum of the two
    # minima, and a cell (i, k) at that distance has d_sp[a, i] + min d_t and
    # min d_sp + d_t[b, k] at it as well.  Ties are sought only among those
    # rows i and columns k; most points have one of each.
    sp_min, t_min = d_sp.min(axis=1), d_t.min(axis=1)
    best = sp_min[:, None] + t_min[None, :]                                     # (q, mt)
    near_i = d_sp[:, None, :] + t_min[None, :, None] == best[:, :, None]        # (q, mt, n)
    near_k = sp_min[:, None, None] + d_t[None, :, :] == best[:, :, None]        # (q, mt, m)
    out = y[near_i.argmax(axis=2), near_k.argmax(axis=2)]
    for a, b in zip(*np.nonzero((near_i.sum(axis=2) > 1) | (near_k.sum(axis=2) > 1))):
        rows, cols = np.flatnonzero(near_i[a, b]), np.flatnonzero(near_k[a, b])
        ties = d_sp[a, rows][:, None] + d_t[b, cols][None, :] == best[a, b]
        out[a, b] = y[np.ix_(rows, cols)][ties].mean()
    return out


def gibbs_update_phi_column(y_col: np.ndarray, f_col: np.ndarray, alpha: float,
                            sigma_sq_phi: float, sigma_sq_eps: float,
                            phi0_col: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Conditional draws for one time column of effects, from the column's stream."""
    return gibbs_update_phi_matrix(y_col, f_col, alpha, sigma_sq_phi, sigma_sq_eps, phi0_col,
                                   rng.standard_normal(y_col.size))


def gibbs_update_phi_matrix(y: np.ndarray, f: np.ndarray, alpha: float, sigma_sq_phi: float,
                            sigma_sq_eps: float, phi0: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Exact draws from the effects' normal full conditionals, elementwise,
    from given standard normals (arrays of one shape, or scalars)."""
    if sigma_sq_phi <= 0.0 or sigma_sq_eps <= 0.0:
        raise InvalidStateError("phi updates require positive variances (explicit mode)")
    post_var = 1.0 / (1.0 / sigma_sq_phi + 1.0 / sigma_sq_eps)
    post_mean = post_var * (phi0 / sigma_sq_phi + (y - alpha - f) / sigma_sq_eps)
    return post_mean + math.sqrt(post_var) * normals


def gibbs_update_alpha(resid_sum: float, n_obs: int, sigma_sq_eps: float,
                       sigma_sq_alpha: float, mu_alpha: float,
                       rng: np.random.Generator) -> float:
    """Normal conditional for the overall effect.

    `resid_sum` is sum of (y - phi - f) over all cells; the conjugate mean
    uses the unsquared residual sum.
    """
    post_var = 1.0 / (1.0 / sigma_sq_alpha + n_obs / sigma_sq_eps)
    post_mean = post_var * (mu_alpha / sigma_sq_alpha + resid_sum / sigma_sq_eps)
    return post_mean + math.sqrt(post_var) * rng.standard_normal()


def gibbs_update_sigma_sq_alpha(alpha: float, mu_alpha: float, a: float, b: float,
                                rng: np.random.Generator) -> float:
    shape = a + 0.5
    rate = b + 0.5 * (alpha - mu_alpha) ** 2
    return rate / rng.gamma(shape)


def gibbs_update_sigma_sq_phi(sq_dev_sum: float, n_effects: int, a: float, b: float,
                              rng: np.random.Generator) -> float:
    """Inverse-gamma conditional with shape a + nm/2 (one half per effect)."""
    if sq_dev_sum < 0.0:
        raise InvalidStateError("negative sum of squared deviations")
    shape = a + 0.5 * n_effects
    rate = b + 0.5 * sq_dev_sum
    return rate / rng.gamma(shape)
