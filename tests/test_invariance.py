"""The block move keeps its target: one time block, run for many sweeps from
an exact draw of its stationary law, reproduces that law's moments.

With a single time block and an observation variance of 1e12 the
likelihood is flat, so the block's full conditional is its prior: the count
J ~ Poisson(lam) restricted to [1, j_max], and given J the atoms are iid
draws of their initial laws.  A kernel that is not invariant for this target
drifts away from it; the printed-form birth/death acceptance of the source
paper, for instance, settles near E[J] = 1.
"""

import math

import numpy as np
from scipy.stats import poisson

from levyst.data import SpaceTimeDataset
from levyst.model import AtomStore, LatentAtoms, PriorConfig, ScalarHypers
from levyst.priorsim import draw_prior_state
from levyst.sampler import SamplerConfig, StateTerms, ThetaCache, build_context, stream, update_time_block

LAM = 3.0
J_MAX = 15
SWEEPS = 16_000
BURN_IN = 1_000
BATCHES = 40


def _batch_z(x: np.ndarray, target: float) -> float:
    """(mean - target) / its batch-means standard error."""
    means = np.array([b.mean() for b in np.array_split(x, BATCHES)])
    return (x.mean() - target) / (means.std(ddof=1) / math.sqrt(BATCHES))


def test_one_block_kernel_keeps_its_target():
    rng = np.random.default_rng(42)
    # standardized data: alpha is pinned
    data = SpaceTimeDataset(np.array([[0.2], [0.8]]), np.array([1.0]), np.zeros((2, 1)), mean=0.0, sd=1.0)
    prior = PriorConfig(ig_a=3.0, ig_b=2.0, ig_a_tight=3.0, ig_b_tight=2.0,
                        lambda_a=6.0, lambda_b=2.0, nu_var=1.0, rho_var=1.0)
    ctx = build_context(data, prior, marginalized=True, phi0_override=np.zeros((2, 1)))
    cfg = SamplerConfig(iterations=1, burn_in=0, thin=1, j_max=J_MAX, seed=1)
    # theta from one prior draw, held fixed; the huge noise variance flattens the likelihood
    state = draw_prior_state(ctx, cfg, rng)
    hypers = ScalarHypers(lam=LAM, sigma_sq_eps=1e12, sigma_sq_phi=0.0)
    cache = ThetaCache.build(state.theta, ctx)
    beta_var = cache.beta_spec.initial_variance

    J = 0
    while not 1 <= J <= J_MAX:
        J = int(rng.poisson(LAM))
    start = LatentAtoms(np.column_stack([math.sqrt(spec.initial_variance) * rng.standard_normal(J)
                                         for spec in cache.mu_specs]),
                        math.sqrt(beta_var) * rng.standard_normal(J))
    atoms = AtomStore.from_blocks([start], J_MAX)
    terms = StateTerms.build(cache, atoms, ctx)
    ks = np.array([0])
    counts, beta_sq = np.empty(SWEEPS), np.empty(SWEEPS)
    for r in range(SWEEPS):
        update_time_block([(ks, stream(cfg.seed, 1, r, 0))], atoms, terms, ctx, hypers, cfg, None)
        J = int(atoms.counts[0])
        counts[r] = J
        beta_sq[r] = np.mean(atoms.values[0, 0, :J] ** 2)

    support = np.arange(1, J_MAX + 1)
    weights = poisson.pmf(support, LAM)
    z_count = _batch_z(counts[BURN_IN:], float(support @ weights / weights.sum()))
    z_beta = _batch_z(beta_sq[BURN_IN:], beta_var)
    print(f"z(E[J]) = {z_count:+.2f}, z(E[beta^2]) = {z_beta:+.2f}")
    assert abs(z_count) <= 4.0
    assert abs(z_beta) <= 4.0
