"""Reference forms that tests compare the program against: per-sample forms
of whole-chain computations, the initial state through `scipy.stats`, the
block factors over joined full-width stores, the process table entry by
entry and the map one dimension at a time, which the program's forms equal
with `==`, and
the one-point field, the per-block process densities, field and likelihood,
the prior densities and the joint log posterior, which the sampler's batched
terms agree with, and the per-value text writers, the per-cell chain reader
and the per-row CSV reader, whose bytes, values and errors the program's
equal.

(Named `oracles`, not `reference`: the benchmark's own `reference` module is
imported by name in the same test process.)
"""

import math

import numpy as np
from scipy.special import gammaln
from scipy.stats import invgamma, norm

from levyst import effects
from levyst.ar import (ar_initial_log_density, ar_transition_log_density, mode_for_times, step_gaps,
                       transition_moments)
from levyst.chainio import _FMT, _group_cells, _meta_cell, _meta_int, _read_meta, scalar_header
from levyst.data import SpaceTimeDataset
from levyst.errors import (ConfigError, InvalidArgumentError, InvalidStateError, ParseError,
                           UnsupportedPredictionError)
from levyst.model import (COORD_BOUND, MAP_EXPONENT, AtomStore, LatentAtoms, MonotoneMapFit, ThetaLayout,
                          count_log_factor, field_rows, kernel_matrix, log_observation_density, log_prior_theta,
                          predecessors, unpack_theta)
from levyst.sampler import _S_INIT, _S_PREDICT, ChainSample, PredictionBands, SamplerState, ScalarHypers, stream

_LOG_2PI = math.log(2.0 * math.pi)


def initial_state_per_block(sampler) -> SamplerState:
    """`levyst.Sampler.initial_state` with the quantiles of `scipy.stats`
    and each block's atoms drawn by their own calls."""
    ctx, prior, cfg = sampler.ctx, sampler.ctx.prior, sampler.cfg
    layout = ctx.layout
    ig_med = float(invgamma.median(prior.ig_a, scale=prior.ig_b))
    omega0 = prior.ig_b / (prior.ig_a - 1.0) if prior.ig_a > 1.0 else ig_med
    x0 = math.sqrt(omega0) * float(norm.ppf(0.75))

    theta = np.empty(layout.dim)
    theta[layout.sl_x] = min(max(x0, 0.0), 10.0)
    log_med = math.log(ig_med)
    for sl in (layout.sl_log_c_tilde, layout.sl_log_c, layout.sl_log_ksq, layout.sl_log_ssq):
        theta[sl] = log_med
    theta[layout.i_log_tau] = log_med
    theta[layout.i_log_xi] = log_med
    theta[layout.sl_logit_rho] = 0.0
    theta[layout.i_logit_rho_beta] = 0.0
    theta[layout.i_log_ssq_beta] = log_med
    lo, hi = layout.bounds()
    theta = np.clip(theta, lo, hi)

    lam0 = prior.lambda_a / prior.lambda_b
    ig_tight_mean = prior.ig_b_tight / (prior.ig_a_tight - 1.0)
    hypers = ScalarHypers(
        lam=lam0, sigma_sq_eps=ig_tight_mean, alpha=0.0,
        sigma_sq_alpha=ig_tight_mean,
        sigma_sq_phi=0.0 if ctx.marginalized else ig_tight_mean,
    )
    nu = np.zeros(ctx.p)
    omega_sq = np.full(ctx.p, omega0)

    rng = stream(cfg.seed, _S_INIT)
    _, _, beta_spec, mu_specs = unpack_theta(theta, layout, ctx.ar_mode)
    j0 = max(1, min(cfg.j_max, round(lam0)))
    atoms = []
    for _ in range(ctx.m):
        beta = math.sqrt(beta_spec.initial_variance) * rng.standard_normal(j0)
        mu = np.column_stack([
            np.clip(math.sqrt(spec.initial_variance) * rng.standard_normal(j0),
                    -COORD_BOUND, COORD_BOUND)
            for spec in mu_specs])
        atoms.append(LatentAtoms(mu, beta))
    phi = ctx.phi0.copy() if not ctx.marginalized else None
    return SamplerState(atoms=AtomStore.from_blocks(atoms, cfg.j_max), theta=theta, hypers=hypers, nu=nu,
                        omega_sq=omega_sq, phi=phi)


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


def field_values(mapped: np.ndarray, t: float, atoms: LatentAtoms, kp) -> np.ndarray:
    """Vectorized f over the rows of an (n, p) mapped-location matrix."""
    if atoms.count == 0:
        return np.zeros(mapped.shape[0])
    return kernel_matrix(mapped, atoms.mu.T, kp, kp.xi * abs(t - kp.tau)) @ atoms.beta


def loglik_slice(k: int, f: np.ndarray, ctx, hypers, phi) -> float:
    """Time-k log likelihood of the field column f."""
    phi_col = ctx.phi_effective(phi)[:, k]
    return float(np.sum(log_observation_density(
        ctx.y[:, k], hypers.alpha, phi_col, f, hypers.sigma_sq_eps)))


def atoms_in_bounds(atoms: LatentAtoms) -> bool:
    return bool(np.all(np.abs(atoms.mu) <= COORD_BOUND))


def chain_factor(values_curr: np.ndarray, values_prev, j_prev: int, gap, spec):
    """Log density of one coordinate column at time k given its predecessor.

    Atom chains are index-matched across time; chains without a predecessor
    (index beyond the previous count) start from the initial law.
    """
    J = values_curr.size
    shared = min(J, j_prev)
    total = 0.0
    if shared > 0:
        total += float(np.sum(ar_transition_log_density(values_curr[:shared], values_prev[:shared], gap, spec)))
    if J > shared:
        total += float(np.sum(ar_initial_log_density(values_curr[shared:], spec)))
    return total


def atom_block_log_density(atoms_k: LatentAtoms, atoms_prev: LatentAtoms | None,
                           gap, beta_spec, mu_specs) -> float:
    """All incoming process factors of one time block (bounds included)."""
    if not atoms_in_bounds(atoms_k):
        return -np.inf
    if atoms_prev is None:
        total = float(np.sum(ar_initial_log_density(atoms_k.beta, beta_spec)))
        for ell, spec in enumerate(mu_specs):
            total += float(np.sum(ar_initial_log_density(atoms_k.mu[:, ell], spec)))
        return total
    total = chain_factor(atoms_k.beta, atoms_prev.beta, atoms_prev.count, gap, beta_spec)
    for ell, spec in enumerate(mu_specs):
        total += chain_factor(atoms_k.mu[:, ell], atoms_prev.mu[:, ell], atoms_prev.count, gap, spec)
    return total


def atom_process_log_density(atoms: list[LatentAtoms], times: np.ndarray, beta_spec, mu_specs) -> float:
    """Process factors over all time blocks (initial laws plus transitions
    over the gaps of `step_gaps`)."""
    gaps = step_gaps(times, beta_spec.mode)
    total = atom_block_log_density(atoms[0], None, None, beta_spec, mu_specs)
    for k in range(1, len(atoms)):
        if not np.isfinite(total):
            return -np.inf
        total += atom_block_log_density(atoms[k], atoms[k - 1], gaps[k - 1], beta_spec, mu_specs)
    return total


def block_factors_joined(table, atoms: AtomStore, proposal: AtomStore, ks: np.ndarray, gap_index: np.ndarray):
    """`levyst.sampler.block_factors` as one `ProcessTable.log_densities`
    pass over full-width stores joined along the block axis: the proposals,
    then the next block of each that has one, against their predecessors."""
    def join(first, second):
        return AtomStore(np.concatenate([first.values, second.values], axis=1),
                         np.concatenate([first.counts, second.counts]))

    linked = np.flatnonzero(ks + 1 < atoms.counts.size)
    factors = table.log_densities(join(proposal, atoms.take(ks[linked] + 1)),
                                  join(predecessors(atoms, ks), proposal.take(linked)),
                                  np.concatenate([gap_index[ks], gap_index[ks[linked] + 1]]))
    p_out = np.zeros(ks.size)
    p_out[linked] = factors[ks.size:]
    return factors[:ks.size], p_out


def process_table_per_entry(gaps, beta_spec, mu_specs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`ProcessTable.build`'s mean multipliers, variances and normalizers,
    each entry from `transition_moments` or `ArSpec.initial_variance`."""
    specs = (beta_spec, *mu_specs)
    mult, var = np.zeros((len(specs), len(gaps) + 1)), np.empty((len(specs), len(gaps) + 1))
    for c, spec in enumerate(specs):
        for g, gap in enumerate(gaps):
            mult[c, g], var[c, g] = transition_moments(gap, spec.rho, spec.sigma_sq)
        var[c, -1] = spec.initial_variance
    return mult, var, _LOG_2PI + np.log(var)


def mapped_per_dimension(grid, slope: np.ndarray, c_tilde: np.ndarray) -> np.ndarray:
    """`MapGrid.mapped` one dimension at a time: each location takes its
    knot's value from `MapGrid.knot_values`."""
    out = np.empty((grid.index[0].size, len(grid.knots)))
    for ell, index in enumerate(grid.index):
        out[:, ell] = grid.knot_values(ell, slope[ell:ell + 1], c_tilde[ell:ell + 1])[0, index]
    return out


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

    The noise variance is sigma_sq_eps in both modes.  Marginalized mode
    holds phi at phi0 and sigma_sq_phi at 0: phi is ignored there, and the
    observation mean uses phi0.
    """
    layout = ThetaLayout(p=mapped.shape[1])
    if len(atoms) != times.size:
        raise InvalidStateError("one atom block per time index required")
    if not marginalized and phi is None:
        raise InvalidStateError("explicit mode requires a phi field")
    kp, _, beta_spec, mu_specs = unpack_theta(theta, layout, mode)
    parts: dict[str, float] = {}

    phi_eff = phi0 if marginalized else phi
    loglik = 0.0
    for k in range(times.size):
        f = field_values(mapped, times[k], atoms[k], kp)
        loglik += float(np.sum(log_observation_density(y[:, k], hypers.alpha, phi_eff[:, k], f,
                                                       hypers.sigma_sq_eps)))
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


# Values that the text writers' and the CSV reader's tests include: signed
# zeros, the least subnormal, the largest finite, integer-valued floats and
# values that need all 17 significant digits.
TEXT_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1.0, -7.0,
                    2.0 ** 53, 1e22, 0.1, 1 / 3, 2.2250738585072014e-308, 9007199254740993.0,
                    1.2345678901234567e-5)


def write_chain_per_value(path, samples: list[ChainSample], meta: dict) -> None:
    p, m = int(meta["p"]), int(meta["m"])
    store_phi = any(s.phi is not None for s in samples)
    meta = dict(meta)
    meta["phi_stored"] = int(store_phi)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + " ".join(f"{k}={_meta_cell(v)}" for k, v in sorted(meta.items())) + "\n")
        fh.write(" ".join(scalar_header(p) + ["atoms..."]) + "\n")
        for s in samples:
            cells = [str(s.iteration)]
            scalars = [s.lam, s.sigma_sq_eps, s.alpha, s.sigma_sq_alpha, s.sigma_sq_phi]
            scalars += list(s.nu) + list(s.omega_sq) + list(s.theta)
            cells += [_FMT % v for v in scalars]
            # a count J prints the same through _FMT as through str
            group_at, block, slot, beta_at, mu_at = _group_cells(s.store)
            groups = np.empty(group_at[-1])
            groups[group_at[:-1]] = s.store.counts
            groups[beta_at] = s.store.values[0, block, slot]
            groups[mu_at] = s.store.values[1:, block, slot]
            cells += [_FMT % v for v in groups.tolist()]
            if store_phi:
                cells += [_FMT % v for v in s.phi.ravel()]
            fh.write(" ".join(cells) + "\n")


def read_chain_per_cell(path) -> tuple[list[ChainSample], dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise ParseError("chain file is not UTF-8 text") from None
    if len(lines) < 2 or not lines[0].startswith("# "):
        raise ParseError("missing chain metadata line")
    meta = _read_meta(lines[0][2:])
    p, m = _meta_int(meta, "p", 1), _meta_int(meta, "m", 1)
    n = _meta_int(meta, "n", 0, default=0)
    store_phi = bool(_meta_int(meta, "phi_stored", 0, default=0))
    n_scalars = 6 + 2 * p + ThetaLayout(p=p).dim  # len(scalar_header(p)), without building it

    samples: list[ChainSample] = []
    for row_no, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        cells = line.split()
        try:
            it = int(cells[0])
            vals = [float(c) for c in cells[1:]]
        except ValueError:
            raise ParseError(f"row {row_no}: non-numeric cell") from None
        row = np.array(vals)
        if not np.isfinite(row).all():
            raise ParseError(f"row {row_no}: non-finite cell")
        pos = n_scalars - 1
        if len(vals) < pos:
            raise ParseError(f"row {row_no}: truncated scalars")
        lam, ssq_eps, alpha, ssq_alpha, ssq_phi = vals[0:5]
        nu = row[5:5 + p].copy()
        omega_sq = row[5 + p:5 + 2 * p].copy()
        theta = row[5 + 2 * p:pos].copy()
        first, counts = pos, []
        for _ in range(m):
            if pos >= len(vals):
                raise ParseError(f"row {row_no}: truncated atom groups")
            J = vals[pos]
            if not (J.is_integer() and J >= 1):
                raise ParseError(f"row {row_no}: atom count {cells[pos + 1]} is not a whole number >= 1")
            J = int(J)
            pos += 1 + J * (p + 1)
            if pos > len(vals):
                raise ParseError(f"row {row_no}: truncated atom group (J={J})")
            counts.append(J)
        store = AtomStore(np.zeros((p + 1, m, max(counts))), np.array(counts, dtype=np.int64))
        _, block, slot, beta_at, mu_at = _group_cells(store)
        groups = row[first:pos]
        store.values[0, block, slot] = groups[beta_at]
        store.values[1:, block, slot] = groups[mu_at]
        phi = None
        if store_phi:
            if pos + n * m > len(vals):
                raise ParseError(f"row {row_no}: truncated phi field")
            phi = row[pos:pos + n * m].reshape(n, m).copy()
            pos += n * m
        if pos != len(vals):
            raise ParseError(f"row {row_no}: {len(vals) - pos} trailing cells")
        samples.append(ChainSample(
            iteration=it, store=store, theta=theta, lam=lam, sigma_sq_eps=ssq_eps,
            alpha=alpha, sigma_sq_alpha=ssq_alpha, sigma_sq_phi=ssq_phi,
            nu=nu, omega_sq=omega_sq, phi=phi))
    return samples, meta


def write_csv_per_value(data: SpaceTimeDataset, path) -> None:
    """Long format, one row per (location, time): s1..sp, t, y."""
    p = data.p
    header = ",".join([f"s{ell + 1}" for ell in range(p)] + ["t", "y"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i in range(data.n):
            coords = ",".join("%.17g" % v for v in data.locations[i])
            for k in range(data.m):
                fh.write(f"{coords},{'%.17g' % data.times[k]},{'%.17g' % data.y[i, k]}\n")


def write_bands_per_value(path, new: SpaceTimeDataset, bands: PredictionBands, probs) -> None:
    names = {1 / 16: "lower_0875", 0.5: "median", 15 / 16: "upper_0875",
             0.025: "lower_95", 0.975: "upper_95"}
    cols = [names[pr] for pr in probs]
    with open(path, "w", encoding="utf-8") as fh:
        p = new.p
        fh.write(",".join([f"s{ell + 1}" for ell in range(p)] + ["t"] + cols) + "\n")
        for a in range(new.n):
            for b in range(new.m):
                row = ["%.17g" % v for v in new.locations[a]]
                row.append("%.17g" % new.times[b])
                row += ["%.17g" % bands.quantiles[pr][a, b] for pr in probs]
                fh.write(",".join(row) + "\n")


def load_csv_per_row(path) -> SpaceTimeDataset:
    """Parse the long CSV format back into a gridded dataset.

    Rows must cover the full location-by-time grid exactly once; violations
    raise ParseError naming the row, as does a file that is not UTF-8 text.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise ParseError("data file is not UTF-8 text") from None
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
