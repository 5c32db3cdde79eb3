"""Spatio-temporal random effects: nearest-neighbor baselines and Gibbs draws.

Each effect phi(s_i, t_k) is anchored at a baseline phi0: in training, the
response of the nearest other location at the same time (ties averaged); for
prediction, the response of the nearest training datum in joint space-time
distance ||s~ - s_i||^2 + (t~ - t_k)^2.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import InvalidArgumentError, InvalidStateError


# Values of the (rows, n, p) coordinate differences held at once while
# forming training baselines, so n = 2786 locations take chunks of rows, not
# an n x n x p array.  At n = 2786 this bound ran as fast as 2^20 or faster,
# with a peak of 2 MB in place of 18 MB.
_VALUES_HELD = 1 << 16

# The largest float whose square is finite.
_SQUARE_MAX = math.sqrt(sys.float_info.max)


def phi0_training_matrix(locations: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Baselines for every training cell: nearest other location's response.

    The squared distances of a chunk of locations to every location are
    formed as one array, each by the same differences, squares and sum as
    one location's row alone, with the location itself at inf; a chunk
    holds at most `_VALUES_HELD` differences, or one row that needs more.
    A row with one nearest location copies its responses, and a row whose
    nearest set ties averages the tied responses.
    """
    n, p = locations.shape
    if n < 2:
        raise InvalidArgumentError(f"training baselines need at least two locations, got {n}")
    phi0 = np.empty_like(y)
    rows = max(1, _VALUES_HELD // (n * p))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        d = np.sum((locations - locations[lo:hi, None]) ** 2, axis=2)
        d[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        nearest = d == d.min(axis=1, keepdims=True)
        phi0[lo:hi] = y[nearest.argmax(axis=1)]
        for r in np.flatnonzero(nearest.sum(axis=1) > 1).tolist():
            phi0[lo + r] = y[np.flatnonzero(nearest[r])].mean(axis=0)
    return phi0


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct entries of a 1-D array, in the order first seen, and the
    position of each entry among them.  For the few values a prediction has
    this costs a fraction of `np.unique`'s sort."""
    position: dict[float, int] = {}
    of = [position.setdefault(v, len(position)) for v in values.tolist()]
    return np.array(list(position), dtype=float), np.array(of, dtype=np.intp)


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
    # A time gap past _SQUARE_MAX takes inf, which its square rounds to,
    # without forming the square; it never holds the nearest cell of a time
    # on the grid.
    gap = np.abs(times[None, :] - t_new[:, None])                               # (mt, m)
    d_t = np.square(gap, out=np.full_like(gap, np.inf), where=gap <= _SQUARE_MAX)
    # A cell's distance is the rounded sum d_sp[a, i] + d_t[b, k].  Rounding
    # is monotone, so the least distance is the rounded sum of the two
    # minima, and a cell (i, k) at that distance has d_sp[a, i] + min d_t and
    # min d_sp + d_t[b, k] at it as well.  Ties are sought only among those
    # rows i and columns k; most points have one of each.  The rows depend
    # on the time b only through t_min[b], so they are formed once for each
    # of the u distinct t_min: u = 1 when every time is on the grid.
    sp_min, t_min = d_sp.min(axis=1), d_t.min(axis=1)
    t_vals, t_of = _distinct(t_min)
    best = sp_min[:, None] + t_vals                                             # (q, u)
    near_i = d_sp[:, None, :] + t_vals[:, None] == best[:, :, None]             # (q, u, n)
    best = best[:, t_of]                                                        # (q, mt)
    near_k = sp_min[:, None, None] + d_t == best[:, :, None]                    # (q, mt, m)
    out = y[near_i.argmax(axis=2)[:, t_of], near_k.argmax(axis=2)]
    for a, b in zip(*np.nonzero((near_i.sum(axis=2) > 1)[:, t_of] | (near_k.sum(axis=2) > 1))):
        rows, cols = np.flatnonzero(near_i[a, t_of[b]]), np.flatnonzero(near_k[a, b])
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
