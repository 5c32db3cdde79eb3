"""Experiment: does the block move kernel leave its target invariant?

Single time block, near-flat likelihood, fixed theta/lambda. Target:
J ~ Poisson(lam) restricted to [1, Jmax]; atom values iid N(0, init var).
Run many kernel sweeps from an exact draw and compare the marginals.
"""
import numpy as np

from levyst.data import SpaceTimeDataset
from levyst.model import AtomStore, PriorConfig, ScalarHypers
from levyst.sampler import (SamplerConfig, StateTerms, ThetaCache, build_context,
                            update_time_block, stream)
from levyst.priorsim import draw_prior_state

LAM = 3.0
JMAX = 15
N_SWEEP = 60_000


def run():
    rng = np.random.default_rng(42)
    data = SpaceTimeDataset(np.array([[0.2], [0.8]]), np.array([1.0]),
                            np.zeros((2, 1)))
    prior = PriorConfig(ig_a=3.0, ig_b=2.0, ig_a_tight=3.0, ig_b_tight=2.0,
                        lambda_a=6.0, lambda_b=2.0, nu_var=1.0, rho_var=1.0)
    ctx = build_context(data, prior, marginalized=True, alpha_pinned=True,
                        phi0_override=np.zeros((2, 1)))
    cfg = SamplerConfig(iterations=1, burn_in=0, thin=1, j_max=JMAX, seed=1)
    # fixed theta from one prior draw; huge observation variance flattens the likelihood
    state = draw_prior_state(ctx, cfg, rng)
    state.hypers = ScalarHypers(lam=LAM, sigma_sq_eps=1e12, sigma_sq_phi=0.0)
    cache = ThetaCache.build(state.theta, ctx, state.nu, state.omega_sq)

    # exact initial draw of the single block's target
    def draw_block():
        while True:
            J = rng.poisson(LAM)
            if 1 <= J <= JMAX:
                break
        from levyst.model import LatentAtoms
        import math
        beta = math.sqrt(cache.beta_spec.initial_variance) * rng.standard_normal(J)
        mu = np.column_stack([
            math.sqrt(spec.initial_variance) * rng.standard_normal(J)
            for spec in cache.mu_specs])
        return LatentAtoms(mu, beta)

    atoms = AtomStore.from_blocks([draw_block()], JMAX)
    terms = StateTerms.build(cache, atoms, ctx)
    ks = np.array([0])
    js, b2 = [], []
    for r in range(N_SWEEP):
        rng_k = stream(cfg.seed, 1, r, 0)
        update_time_block(ks, atoms, terms, ctx, state.hypers, cfg, [rng_k], None)
        block = atoms.block(0)
        js.append(block.count)
        b2.append(float(np.mean(block.beta**2)))

    js = np.array(js[2000:], dtype=float)
    b2 = np.array(b2[2000:])
    # truncated Poisson reference moments
    ks = np.arange(1, JMAX + 1)
    from scipy.stats import poisson
    w = poisson.pmf(ks, LAM)
    w /= w.sum()
    ref_mean = float(ks @ w)
    ref_var = float((ks - ref_mean) ** 2 @ w)
    sigma0 = cache.beta_spec.initial_variance

    def batch_se(x, nb=40):
        bs = np.array_split(x, nb)
        means = np.array([b.mean() for b in bs])
        return means.std(ddof=1) / np.sqrt(nb)

    zJ = (js.mean() - ref_mean) / batch_se(js)
    zb = (b2.mean() - sigma0) / batch_se(b2)
    print(f"E[J]={js.mean():.3f} (ref {ref_mean:.3f}, z={zJ:+.1f}) "
          f"Var[J]={js.var():.2f} (ref {ref_var:.2f}) "
          f"E[beta^2]={b2.mean():.3f} (ref {sigma0:.3f}, z={zb:+.1f})")


if __name__ == "__main__":
    run()
