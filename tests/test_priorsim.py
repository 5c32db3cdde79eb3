import math

import numpy as np
import pytest

import priorsim
from levyst.model import COORD_BOUND, LOG_HI, LOG_LO, LOGIT_BOUND, X_HI, X_LO
from levyst.sampler import SamplerConfig, ThetaCache, build_context
from oracles import field_values
from priorsim import draw_observations, draw_prior_state


@pytest.mark.parametrize("marginalized", [True, False], ids=["marginalized", "explicit"])
def test_prior_draws_stay_in_support_and_observations_repeat(tiny_dataset, tame_prior, marginalized):
    ctx = build_context(tiny_dataset, tame_prior, marginalized=marginalized)
    cfg = SamplerConfig(iterations=1, burn_in=0, thin=1, j_max=6)
    lo, hi = ctx.layout.bounds()
    for seed in range(5):
        state = draw_prior_state(ctx, cfg, np.random.default_rng(seed))
        assert np.all((state.theta >= lo) & (state.theta <= hi))
        counts = state.atoms.counts
        assert counts.shape == (ctx.m,) and np.all((counts >= 1) & (counts <= cfg.j_max))
        block, slot = state.atoms.slots()
        assert np.all(np.abs(state.atoms.values[1:, block, slot]) <= COORD_BOUND)
        if marginalized:
            assert state.phi is None
        else:
            assert state.phi.shape == (ctx.n, ctx.m)
        y = draw_observations(state, ctx, np.random.default_rng(100 + seed))
        assert y.shape == (ctx.n, ctx.m) and np.all(np.isfinite(y))
        assert np.array_equal(y, draw_observations(state, ctx, np.random.default_rng(100 + seed)))


def _hand_coded_bounds(theta, layout):
    """The truncation box written out coordinate group by coordinate group."""
    logs = np.concatenate([theta[sl] for sl in (layout.sl_log_c_tilde, layout.sl_log_c, layout.sl_log_ksq,
                                                layout.sl_log_ssq)]
                          + [theta[[layout.i_log_tau, layout.i_log_xi, layout.i_log_ssq_beta]]])
    logits = np.append(theta[layout.sl_logit_rho], theta[layout.i_logit_rho_beta])
    return bool(np.all((theta[layout.sl_x] >= X_LO) & (theta[layout.sl_x] <= X_HI))
                and np.all((logs >= LOG_LO) & (logs <= LOG_HI)) and np.all(np.abs(logits) <= LOGIT_BOUND))


@pytest.mark.parametrize("marginalized", [True, False], ids=["marginalized", "explicit"])
def test_prior_draws_and_observations_match_per_block_reference(tiny_dataset, tame_prior, monkeypatch, marginalized):
    """Seeded draws equal draws made with the hand-written truncation tests,
    and observations equal a per-block `field_values` loop, `==`."""
    ctx = build_context(tiny_dataset, tame_prior, marginalized=marginalized)
    cfg = SamplerConfig(iterations=1, burn_in=0, thin=1, j_max=6)
    checked = []

    def reference_bounds(theta, layout):
        checked.append(_hand_coded_bounds(theta, layout))
        return checked[-1]

    for seed in range(4):
        state = draw_prior_state(ctx, cfg, np.random.default_rng(seed))
        with monkeypatch.context() as patch:
            patch.setattr(priorsim, "theta_in_bounds", reference_bounds)
            want = draw_prior_state(ctx, cfg, np.random.default_rng(seed))
        assert np.array_equal(state.theta, want.theta) and np.array_equal(state.atoms.counts, want.atoms.counts)
        assert np.array_equal(state.atoms.values, want.atoms.values) and state.hypers == want.hypers
        assert np.array_equal(state.nu, want.nu) and np.array_equal(state.omega_sq, want.omega_sq)
        assert (state.phi is None) == marginalized and (marginalized or np.array_equal(state.phi, want.phi))

        y = draw_observations(state, ctx, np.random.default_rng(100 + seed))
        rng = np.random.default_rng(100 + seed)
        cache = ThetaCache.build(state.theta, ctx)
        phi_eff = ctx.phi_effective(state.phi)
        sd = math.sqrt(state.hypers.sigma_sq_eps)
        for k in range(ctx.m):
            f = field_values(cache.mapped, ctx.times[k], state.atoms.block(k), cache.kp)
            assert np.array_equal(y[:, k], state.hypers.alpha + phi_eff[:, k] + f + sd * rng.standard_normal(ctx.n))
    assert not all(checked)  # some thetas fall outside the box and are drawn again


def test_prior_draws_on_a_near_unit_grid(near_unit_dataset, tame_prior):
    """The regular AR(1) draws its transitions over gap 1 where the computed
    gap is off 1 by rounding, so a negative rho draws."""
    ctx = build_context(near_unit_dataset, tame_prior)
    cfg = SamplerConfig(iterations=1, burn_in=0, thin=1, j_max=6)
    rho_signs = []
    for seed in range(4):
        state = draw_prior_state(ctx, cfg, np.random.default_rng(seed))
        rho_signs.append(np.sign(state.theta[ctx.layout.sl_logit_rho]))
        assert np.all(np.isfinite(draw_observations(state, ctx, np.random.default_rng(seed))))
    assert np.any(np.array(rho_signs) < 0.0)
