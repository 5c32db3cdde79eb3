"""The block moves keep their target: time blocks run for many sweeps from
an exact draw of their stationary law reproduce that law's moments.

With an observation variance of 1e12 the likelihood is flat, so a block's
full conditional is its prior: the count J ~ Poisson(lam) restricted to
[1, j_max], and given J the atoms are iid draws of their initial laws.  A
kernel that is not invariant for this target drifts away from it; the
printed-form birth/death acceptance of the source paper, for instance,
settles near E[J] = 1.  The first test runs one block; the count gate runs
50 blocks whose times lie 1e6 apart, so that every transition's mean
multiplier rho**gap underflows to 0, its variance is the initial law's,
and the blocks are 50 exact one-block chains.
"""

import math

import numpy as np
import pytest
from scipy.stats import poisson, t as student_t

from levyst.data import SpaceTimeDataset
from levyst.model import COORD_BOUND, AtomStore, LatentAtoms, PriorConfig, ScalarHypers, ThetaLayout
from levyst.sampler import (_S_BLOCK, AtomOperands, SamplerConfig, StateTerms, StreamTable, ThetaCache, build_context,
                            stream, update_time_block)
from oracles import unpack_theta
from priorsim import draw_prior_state

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
    ctx = build_context(data, prior, marginalized=True)
    ctx.phi0 = np.zeros((2, 1))
    cfg = SamplerConfig(iterations=1, burn_in=0, thin=1, j_max=J_MAX, seed=1)
    # theta from one prior draw, held fixed; the huge noise variance flattens the likelihood
    state = draw_prior_state(ctx, cfg, rng)
    hypers = ScalarHypers(lam=LAM, sigma_sq_eps=1e12, sigma_sq_phi=0.0)
    cache = ThetaCache.build(state.theta, ctx)
    _, _, beta_spec, mu_specs = unpack_theta(state.theta, ctx.layout, ctx.ar_mode)
    beta_var = beta_spec.initial_variance

    J = 0
    while not 1 <= J <= J_MAX:
        J = int(rng.poisson(LAM))
    start = LatentAtoms(np.column_stack([math.sqrt(spec.initial_variance) * rng.standard_normal(J)
                                         for spec in mu_specs]),
                        math.sqrt(beta_var) * rng.standard_normal(J))
    atoms = AtomStore.from_blocks([start], J_MAX)
    terms = StateTerms.build(cache, AtomOperands.build(atoms, ctx), ctx)
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


# the count gate: 50 independent blocks
GATE_BLOCKS = 50
GATE_GAP = 1e6
GATE_SWEEPS = 12_000
GATE_ALPHA = 1e-3    # family-wise: the chance that a correct kernel fails one setting


def _ttmcmc_sweep(r, atoms, terms, ctx, hypers, cfg, streams):
    """The fit's block sweep: odd (1-based) blocks, then even ones."""
    phases = [(np.arange(parity, ctx.m, 2), streams.generator(_S_BLOCK, r, parity)) for parity in (0, 1)]
    update_time_block(phases, atoms, terms, ctx, hypers, cfg, None)


# each kernel is a sequence of sweeps run in turn every iteration
KERNELS = {"ttmcmc": (_ttmcmc_sweep,)}


def _gate_theta(layout: ThetaLayout) -> np.ndarray:
    """A fixed theta inside the box: rho = 1/2 in every chain, so rho**1e6
    underflows; beta's initial variance 2 and mu's 0.5, so mu's truncation
    at COORD_BOUND = 10 (14 standard deviations) moves no moment."""
    theta = np.zeros(layout.dim)
    theta[layout.sl_x] = 1.0
    theta[layout.sl_log_ssq] = math.log(0.5)
    theta[layout.i_log_ssq_beta] = math.log(2.0)
    return theta


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("lam, j_max", [(0.6, 4), (12.0, 5)], ids=["mass at J=1", "mass at j_max"])
def test_independent_blocks_keep_the_count_and_atom_laws(kernel, lam, j_max):
    """50 independent blocks, each started from an exact draw of its target,
    run 12,000 sweeps of both parity phases.  Per sweep, the block average of
    J, of each indicator J = j and of each block's mean beta^2 and mu_l^2
    over its atoms are batch-mean z-scored against the target: E[J] and
    P(J = j) of Poisson(lam) on [1, j_max], and the initial variances.
    Every |z| must stay below one family-wise Student-t bound."""
    rng = np.random.default_rng(2024)
    m, p = GATE_BLOCKS, 1
    data = SpaceTimeDataset(np.array([[0.2], [0.8]]), GATE_GAP * np.arange(float(m)), np.zeros((2, m)),
                            mean=0.0, sd=1.0)
    prior = PriorConfig(ig_a=3.0, ig_b=2.0, ig_a_tight=3.0, ig_b_tight=2.0, nu_var=1.0, rho_var=1.0)
    ctx = build_context(data, prior, marginalized=True)
    ctx.phi0 = np.zeros((2, m))
    cfg = SamplerConfig(iterations=GATE_SWEEPS, burn_in=0, thin=1, j_max=j_max, seed=3)
    theta = _gate_theta(ctx.layout)
    cache = ThetaCache.build(theta, ctx)
    assert not cache.table.mult[:, :-1].any()  # every transition forgets its predecessor
    _, _, beta_spec, mu_specs = unpack_theta(theta, ctx.layout, ctx.ar_mode)
    variances = [beta_spec.initial_variance] + [spec.initial_variance for spec in mu_specs]
    hypers = ScalarHypers(lam=lam, sigma_sq_eps=1e12, sigma_sq_phi=0.0)

    support = np.arange(1, j_max + 1)
    pmf = poisson.pmf(support, lam)
    pmf /= pmf.sum()
    counts = rng.choice(support, size=m, p=pmf)
    values = np.zeros((p + 1, m, j_max))
    for k, J in enumerate(counts):
        values[:, k, :J] = np.sqrt(variances)[:, None] * rng.standard_normal((p + 1, J))
    assert np.abs(values[1:]).max() <= COORD_BOUND
    atoms = AtomStore(values, counts.astype(np.int64))
    terms = StateTerms.build(cache, AtomOperands.build(atoms, ctx), ctx)
    streams = StreamTable(cfg.seed, 512)

    J_mean = np.empty(GATE_SWEEPS)
    J_freq = np.empty((GATE_SWEEPS, j_max))
    sq_mean = np.empty((GATE_SWEEPS, p + 1))
    slots = np.arange(j_max)
    for r in range(GATE_SWEEPS):
        for sweep in KERNELS[kernel]:
            sweep(r, atoms, terms, ctx, hypers, cfg, streams)
        J = atoms.counts
        J_mean[r] = J.mean()
        J_freq[r] = np.bincount(J - 1, minlength=j_max)[:j_max] / m
        used = slots < J[:, None]
        sq_mean[r] = ((atoms.values ** 2 * used).sum(axis=2) / J).mean(axis=1)

    z = {"E[J]": _batch_z(J_mean, float(support @ pmf))}
    z.update({f"P(J={j})": _batch_z(J_freq[:, j - 1], float(pmf[j - 1])) for j in support})
    z.update({f"E[{name}^2]": _batch_z(sq_mean[:, i], variances[i])
              for i, name in enumerate(["beta"] + [f"mu_{ell + 1}" for ell in range(p)])})
    bound = float(student_t.ppf(1.0 - GATE_ALPHA / (2 * len(z)), BATCHES - 1))
    print(f"bound {bound:.2f}: " + ", ".join(f"z({k}) = {v:+.2f}" for k, v in z.items()))
    assert max(abs(v) for v in z.values()) <= bound, z
