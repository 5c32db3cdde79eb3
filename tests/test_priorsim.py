import numpy as np
import pytest

from levyst.model import COORD_BOUND
from levyst.priorsim import draw_observations, draw_prior_state
from levyst.sampler import SamplerConfig, build_context


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
