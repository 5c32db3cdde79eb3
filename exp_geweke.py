"""Full joint-consistency experiment: successive-conditional vs prior-forward."""
import math
import sys
import time

import numpy as np

from levyst.ar import rho_from_transformed
from levyst.data import SpaceTimeDataset
from levyst.model import PriorConfig
from levyst.priorsim import draw_observations, draw_prior_state
from levyst.sampler import MoveStats, Sampler, SamplerConfig, stream


def geweke_priors():
    return PriorConfig(ig_a=3.0, ig_b=2.0, ig_a_tight=3.0, ig_b_tight=2.0,
                       lambda_a=6.0, lambda_b=2.0, nu_var=1.0, rho_var=1.0)


def make_sampler(marginalized, n_iter_unused=None, seed=11, scale=0.05, shrink=0.01):
    locs = np.array([[0.25], [0.75]])
    times = np.array([1.0, 2.2, 3.0])
    data = SpaceTimeDataset(locs, times, np.zeros((2, 3)))
    cfg = SamplerConfig(iterations=1, burn_in=0, thin=1, j_max=15, seed=seed,
                        scale=scale, shrink=shrink, workers=1)
    return Sampler(data, cfg, geweke_priors(), marginalized=marginalized,
                   alpha_pinned=False, phi0_override=np.zeros((2, 3)))


def summaries(state, ctx):
    layout = ctx.layout
    ssq_beta = math.exp(state.theta[layout.i_log_ssq_beta])
    rho_beta = rho_from_transformed(state.theta[layout.i_logit_rho_beta], ctx.ar_mode)
    jbar = np.mean(state.atoms.counts)
    return np.array([state.hypers.lam, ssq_beta, rho_beta, jbar,
                     state.hypers.sigma_sq_eps, float(state.theta[layout.sl_x][0])])


NAMES = ["lambda", "ssq_beta", "rho_beta", "Jbar", "ssq_eps", "X1"]


def run(marginalized, n_sweeps, seed=11):
    t0 = time.time()
    s = make_sampler(marginalized, seed=seed)
    ctx = s.ctx
    rng_fwd = np.random.default_rng(1000 + seed)
    prior_stats = []
    for _ in range(n_sweeps):
        st = draw_prior_state(ctx, s.cfg, rng_fwd)
        prior_stats.append(summaries(st, ctx))
    prior_stats = np.array(prior_stats)
    t1 = time.time()

    rng_sc = np.random.default_rng(2000 + seed)
    state = draw_prior_state(ctx, s.cfg, rng_sc)
    ctx.y[:] = draw_observations(state, ctx, rng_sc)
    stats = MoveStats()
    sc_stats = []
    for r in range(n_sweeps):
        state = s.iterate(state, r, stats)
        ctx.y[:] = draw_observations(state, ctx, rng_sc)
        sc_stats.append(summaries(state, ctx))
    sc_stats = np.array(sc_stats)
    t2 = time.time()

    def batch_se(x, nb=20):
        ms = np.array([b.mean() for b in np.array_split(x, nb)])
        return ms.std(ddof=1) / np.sqrt(nb)

    print(f"mode={'marg' if marginalized else 'expl'} sweeps={n_sweeps} "
          f"fwd={t1-t0:.0f}s mcmc={t2-t1:.0f}s")
    worst = 0.0
    for i, name in enumerate(NAMES):
        for power, tag in ((1, "E"), (2, "E2")):
            a = prior_stats[:, i] ** power
            b = sc_stats[:, i] ** power
            se = math.sqrt((a.std(ddof=1) / math.sqrt(a.size)) ** 2 + batch_se(b) ** 2)
            z = (b.mean() - a.mean()) / se
            worst = max(worst, abs(z))
            print(f"  {tag}[{name:9s}] prior={a.mean():9.4f} mcmc={b.mean():9.4f} z={z:+6.2f}")
    print(f"  worst |z| = {worst:.2f}")
    print("  accept:", {k: round(v / max(stats.proposals[k], 1), 3) for k, v in stats.accepts.items()})


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 20000
    run(marginalized=True, n_sweeps=n)
    run(marginalized=False, n_sweeps=n)
