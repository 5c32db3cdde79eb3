"""Exact simulation from the generative model (prior plus likelihood).

Used for prior-predictive checks and joint-consistency testing of the
sampler.  Truncations are honored by joint rejection: a draw is restarted
whenever any component lands outside its bound interval, which samples the
same unnormalized product of factors the sampler targets.
"""

from __future__ import annotations

import math

import numpy as np

from levyst.ar import transition_moments
from levyst.errors import InvalidArgumentError
from levyst.model import COORD_BOUND, AtomStore, LatentAtoms, ScalarHypers, field_rows, theta_in_bounds
from levyst.sampler import ModelContext, SamplerConfig, SamplerState, ThetaCache
from oracles import unpack_theta

_MAX_TRIES = 200_000


def _ig_draw(rng, a, b):
    return b / rng.gamma(a)


def draw_prior_state(ctx: ModelContext, cfg: SamplerConfig, rng: np.random.Generator) -> SamplerState:
    """One exact draw of all unknowns from the (truncated) prior."""
    prior = ctx.prior
    layout = ctx.layout
    p, m = ctx.p, ctx.m
    for _ in range(_MAX_TRIES):
        lam = rng.gamma(prior.lambda_a) / prior.lambda_b
        sigma_sq_eps = _ig_draw(rng, prior.ig_a_tight, prior.ig_b_tight)
        sigma_sq_alpha = _ig_draw(rng, prior.ig_a_tight, prior.ig_b_tight)
        alpha = 0.0
        if not ctx.alpha_pinned:
            alpha = prior.mu_alpha + math.sqrt(sigma_sq_alpha) * rng.standard_normal()
        sigma_sq_phi = 0.0
        if not ctx.marginalized:
            sigma_sq_phi = _ig_draw(rng, prior.ig_a_tight, prior.ig_b_tight)
        nu = math.sqrt(prior.nu_var) * rng.standard_normal(p)
        omega_sq = np.array([_ig_draw(rng, prior.ig_a, prior.ig_b) for _ in range(p)])

        theta = np.empty(layout.dim)
        theta[layout.sl_x] = nu + np.sqrt(omega_sq) * rng.standard_normal(p)
        for sl in (layout.sl_log_c_tilde, layout.sl_log_c, layout.sl_log_ksq, layout.sl_log_ssq):
            theta[sl] = np.log([_ig_draw(rng, prior.ig_a, prior.ig_b) for _ in range(p)])
        theta[layout.i_log_tau] = math.log(_ig_draw(rng, prior.ig_a, prior.ig_b))
        theta[layout.i_log_xi] = math.log(_ig_draw(rng, prior.ig_a, prior.ig_b))
        theta[layout.sl_logit_rho] = math.sqrt(prior.rho_var) * rng.standard_normal(p)
        theta[layout.i_logit_rho_beta] = math.sqrt(prior.rho_var) * rng.standard_normal()
        theta[layout.i_log_ssq_beta] = math.log(_ig_draw(rng, prior.ig_a, prior.ig_b))

        if not theta_in_bounds(theta, layout):
            continue

        counts = rng.poisson(lam, size=m)
        if np.any(counts < 1) or np.any(counts > cfg.j_max):
            continue

        atoms, ok = _draw_atoms(counts, ctx, *unpack_theta(theta, layout, ctx.ar_mode)[2:], rng)
        if not ok:
            continue

        hypers = ScalarHypers(lam=lam, sigma_sq_eps=sigma_sq_eps, alpha=alpha,
                              sigma_sq_alpha=sigma_sq_alpha, sigma_sq_phi=sigma_sq_phi)
        phi = None
        if not ctx.marginalized:
            phi = ctx.phi0 + math.sqrt(sigma_sq_phi) * rng.standard_normal(ctx.phi0.shape)
        return SamplerState(atoms=AtomStore.from_blocks(atoms, cfg.j_max), theta=theta, hypers=hypers, nu=nu,
                            omega_sq=omega_sq, phi=phi)
    raise InvalidArgumentError("prior rejection sampling failed; priors too diffuse for the bounds")


def _draw_atoms(counts, ctx, beta_spec, mu_specs, rng):
    atoms: list[LatentAtoms] = []
    for k, J in enumerate(counts):
        mu = np.empty((J, ctx.p))
        if k == 0:
            beta = math.sqrt(beta_spec.initial_variance) * rng.standard_normal(J)
            for ell, spec in enumerate(mu_specs):
                mu[:, ell] = math.sqrt(spec.initial_variance) * rng.standard_normal(J)
        else:
            prev = atoms[k - 1]
            gap = ctx.gaps[ctx.gap_index[k]]
            shared = min(J, prev.count)
            beta = np.empty(J)
            beta[:shared] = _trans_draw(prev.beta[:shared], gap, beta_spec, rng)
            if J > shared:
                beta[shared:] = math.sqrt(beta_spec.initial_variance) * rng.standard_normal(J - shared)
            for ell, spec in enumerate(mu_specs):
                mu[:shared, ell] = _trans_draw(prev.mu[:shared, ell], gap, spec, rng)
                if J > shared:
                    mu[shared:, ell] = math.sqrt(spec.initial_variance) * rng.standard_normal(J - shared)
        if np.any(np.abs(mu) > COORD_BOUND):
            return atoms, False
        atoms.append(LatentAtoms(mu, beta))
    return atoms, True


def _trans_draw(prev_vals, gap, spec, rng):
    mult, var = transition_moments(gap, spec.rho, spec.sigma_sq)
    return mult * prev_vals + math.sqrt(var) * rng.standard_normal(prev_vals.size)


def draw_observations(state: SamplerState, ctx: ModelContext, rng: np.random.Generator) -> np.ndarray:
    """Responses given the latent state, on the context's grid."""
    cache = ThetaCache.build(state.theta, ctx)
    phi_eff = ctx.phi_effective(state.phi)
    sd = math.sqrt(state.hypers.sigma_sq_eps)
    # column k's noise is the k-th run of n normals, as drawn column by column
    noise = rng.standard_normal((ctx.m, ctx.n)).T
    return state.hypers.alpha + phi_eff + field_rows(cache.mapped, ctx.times, state.atoms, cache.kp).T + sd * noise
