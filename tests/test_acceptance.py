"""Geweke joint-distribution tests of the whole sampler, one per mode.

The successive-conditional simulator alternates one sampler iteration with a
fresh draw of the data given the state.  If every update leaves the
posterior invariant, its states are draws of the prior, so each summary's
moments must match those of independent prior draws (Geweke 2004).

Pooled replicas: each replica starts from an exact joint draw (state from
the prior, data from the state), so it needs no burn-in, and uses its own
sampler, forward and chain seeds.  The chain's standard error comes from the
spread of the replica means, which are independent, so each z follows a t
law with REPLICAS - 1 degrees of freedom.  The bound holds the family-wise
false-alarm rate over both modes' 24 z's at 1%.

The two variances are summarized on the log scale: under their
inverse-gamma(3, 2) priors a variance's square has no finite variance, so
the replica means of the square would follow no t law.
"""

import math

import numpy as np
import pytest
from scipy.stats import t as student_t

from levyst.ar import rho_from_transformed
from levyst.data import SpaceTimeDataset
from levyst.model import PriorConfig
from levyst.sampler import MoveStats, Sampler, SamplerConfig
from priorsim import draw_observations, draw_prior_state

REPLICAS = 16
SWEEPS = 800           # successive-conditional iterations per replica
FORWARD = 250          # independent prior draws per replica
NAMES = ("lambda", "log_ssq_beta", "rho_beta", "Jbar", "log_ssq_eps", "X1")
STATISTICS = 2 * len(NAMES)  # first and second moments
BOUND = float(student_t.ppf(1.0 - 0.01 / (2 * 2 * STATISTICS), REPLICAS - 1))


def _prior() -> PriorConfig:
    return PriorConfig(ig_a=3.0, ig_b=2.0, ig_a_tight=3.0, ig_b_tight=2.0,
                       lambda_a=6.0, lambda_b=2.0, nu_var=1.0, rho_var=1.0)


def _sampler(marginalized: bool, seed: int) -> Sampler:
    """Two locations, three irregular times, p = 1; unstandardized, so
    alpha is sampled."""
    data = SpaceTimeDataset(np.array([[0.25], [0.75]]), np.array([1.0, 2.2, 3.0]), np.zeros((2, 3)))
    cfg = SamplerConfig(iterations=1, burn_in=0, thin=1, j_max=15, seed=seed)
    return Sampler(data, cfg, _prior(), marginalized=marginalized, phi0_override=np.zeros((2, 3)))


def _summaries(state, ctx) -> np.ndarray:
    """Each summary and its square."""
    layout = ctx.layout
    x = np.array([state.hypers.lam, state.theta[layout.i_log_ssq_beta],
                  rho_from_transformed(state.theta[layout.i_logit_rho_beta], ctx.ar_mode),
                  float(np.mean(state.atoms.counts)), math.log(state.hypers.sigma_sq_eps),
                  float(state.theta[layout.sl_x][0])])
    return np.concatenate([x, x * x])


def _replica(marginalized: bool, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Replica r's forward draws (FORWARD, STATISTICS) and chain mean (STATISTICS,)."""
    sampler = _sampler(marginalized, 100 + r)
    ctx = sampler.ctx
    rng_forward = np.random.default_rng(5000 + r)
    forward = np.array([_summaries(draw_prior_state(ctx, sampler.cfg, rng_forward), ctx) for _ in range(FORWARD)])
    rng_chain = np.random.default_rng(7000 + r)
    state = draw_prior_state(ctx, sampler.cfg, rng_chain)
    stats, total = MoveStats(), np.zeros(STATISTICS)
    for it in range(SWEEPS):
        ctx.y[:] = draw_observations(state, ctx, rng_chain)
        state = sampler.iterate(state, it, stats)
        total += _summaries(state, ctx)
    return forward, total / SWEEPS


@pytest.mark.acceptance
@pytest.mark.parametrize("marginalized", [True, False], ids=["marginalized", "explicit"])
def test_geweke_pooled_replicas(marginalized):
    forward, means = zip(*(_replica(marginalized, r) for r in range(REPLICAS)))
    forward, means = np.concatenate(forward), np.array(means)
    se = np.sqrt(forward.var(axis=0, ddof=1) / forward.shape[0] + means.var(axis=0, ddof=1) / REPLICAS)
    z = (means.mean(axis=0) - forward.mean(axis=0)) / se
    labels = [f"{tag}[{name}]" for tag in ("E", "E2") for name in NAMES]
    for label, prior_mean, chain_mean, zi in zip(labels, forward.mean(axis=0), means.mean(axis=0), z):
        print(f"{label:17s} prior={prior_mean:9.4f} chain={chain_mean:9.4f} z={zi:+6.2f}")
    print(f"worst |z| = {np.abs(z).max():.2f}, bound {BOUND:.2f}")
    assert np.all(np.abs(z) <= BOUND), dict(zip(labels, np.round(z, 2)))
