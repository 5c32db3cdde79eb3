"""Per-sample reference forms of whole-chain computations, for tests that
pin the batched forms to them with `==`.

(Named `oracles`, not `reference`: the benchmark's own `reference` module is
imported by name in the same test process.)
"""

import numpy as np

from levyst import effects
from levyst.ar import mode_for_times
from levyst.errors import ConfigError, InvalidArgumentError, UnsupportedPredictionError
from levyst.model import MAP_EXPONENT, MonotoneMapFit, ThetaLayout, field_rows, kernel_matrix, unpack_theta
from levyst.sampler import PredictionBands, _S_PREDICT, stream


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
