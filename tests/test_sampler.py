import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import levyst.sampler as sampler_module

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare, kstest, norm

from levyst import effects
from levyst.ar import ArMode, mode_for_times
from levyst.data import SpaceTimeDataset, standardize
from levyst.chainio import read_chain, write_chain
from levyst.errors import ConfigError, InvalidArgumentError, InvalidStateError, UnsupportedPredictionError
from levyst.model import (COORD_BOUND, AtomStore, LatentAtoms, PriorConfig, ProcessTable, ScalarHypers, ThetaLayout,
                          count_log_factor, kernel_matrix, monotone_map_extend, unpack_theta)
from levyst.sampler import (
    MOVE_NAMES,
    AtomOperands,
    ChainSample,
    MoveStats,
    Sampler,
    SamplerConfig,
    StateTerms,
    ThetaCache,
    block_factors,
    block_scores,
    build_context,
    draw_blocks,
    enhancement_proposal,
    gibbs_update_zeta,
    loglik_rows,
    move_weights,
    posterior_predict,
    propose_blocks,
    run_chain,
    samples_outside_atom_box,
    stream,
    theta_logpost,
    tmcmc_proposal,
    update_time_block,
)
from oracles import (atom_block_log_density, atom_process_log_density, block_factors_joined, field_values,
                     initial_state_per_block, log_joint_parts, log_joint_posterior, loglik_slice, map_fit,
                     mapped_per_dimension, process_table_per_entry)
from rounding import assert_factor_close, exponent_tolerance, field_tolerance, process_tolerance

SRC = str(Path(__file__).resolve().parent.parent / "src")

CFG = SamplerConfig(iterations=10, burn_in=0, thin=1, j_max=6, seed=0)


def _tiny_ctx(tame_prior, n=1, m=1, p=1, marginalized=True):
    rng = np.random.default_rng(0)
    locs = rng.random((max(n, 2), p))[:n] if n >= 2 else np.array([[0.4]] if p == 1 else [[0.4] * p])
    times = np.arange(1.0, m + 1.0)
    y = rng.standard_normal((n, m))
    data = SpaceTimeDataset(locs, times, y, mean=0.0, sd=1.0)  # standardized: alpha pinned
    # a zero baseline, which also lets n = 1 through
    with patch.object(effects, "phi0_training_matrix", lambda locations, y_: np.zeros((n, m))):
        return build_context(data, tame_prior, marginalized=marginalized)


def _specs(theta, ctx):
    """The (beta, mu) autoregression specs of theta."""
    return unpack_theta(theta, ctx.layout, ctx.ar_mode)[2:]


def _state_pieces(ctx, j0=1, seed=3):
    rng = np.random.default_rng(seed)
    layout = ctx.layout
    theta = np.zeros(layout.dim)
    theta[layout.sl_x] = 0.8
    theta[layout.sl_log_c_tilde] = 0.2
    theta[layout.sl_log_c] = -0.1
    theta[layout.sl_log_ksq] = 0.0
    theta[layout.i_log_tau] = 0.0
    theta[layout.i_log_xi] = -0.2
    theta[layout.sl_logit_rho] = 0.3
    theta[layout.sl_log_ssq] = 0.0
    theta[layout.i_logit_rho_beta] = -0.2
    theta[layout.i_log_ssq_beta] = 0.1
    nu, omega = np.zeros(ctx.p), np.ones(ctx.p)
    cache = ThetaCache.build(theta, ctx)
    atoms = [LatentAtoms(rng.normal(size=(j0, ctx.p)), rng.normal(size=j0))
             for _ in range(ctx.m)]
    hypers = ScalarHypers(lam=2.0, sigma_sq_eps=0.5, sigma_sq_phi=0.0)
    return theta, nu, omega, cache, atoms, hypers


def test_move_weights_boundaries():
    assert move_weights(1, 6) == pytest.approx((0.5, 0.0, 0.5))
    assert move_weights(6, 6) == pytest.approx((0.0, 0.5, 0.5))
    assert move_weights(3, 6) == pytest.approx((1 / 3, 1 / 3, 1 / 3))
    assert move_weights(1, 1) == pytest.approx((0.0, 0.0, 1.0))


def test_config_validation():
    with pytest.raises(ConfigError):
        SamplerConfig(iterations=10, burn_in=20, thin=1)
    with pytest.raises(ConfigError):
        SamplerConfig(iterations=10, burn_in=0, thin=11)
    with pytest.raises(ConfigError):
        SamplerConfig(iterations=10, burn_in=0, thin=1, shrink=1.5)
    with pytest.raises(ConfigError, match="seed"):
        SamplerConfig(iterations=10, burn_in=0, thin=1, seed=-1)
    for scale in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="scale"):
            SamplerConfig(iterations=10, burn_in=0, thin=1, scale=scale)


_FAR = np.array([-1.7976931348623157e308, 1e292])


@pytest.mark.parametrize("case", ["far times", "far coordinates", "coordinates 1e100", "coordinates 3.05e74",
                                  "times 3.03e305"])
def test_build_context_rejects_grids_that_overflow_in_the_theta_box(tame_prior, case):
    """A grid on which some theta in the box gives a non-finite map value,
    squared distance, kernel exponent or time gap is bad input: an
    InvalidArgumentError naming the times or the dimension, raised before
    any of those terms is formed, so with no overflow warning."""
    locations, times = np.array([[0.2, 0.1], [0.7, 0.4], [0.9, 0.3]]), np.array([1.0, 2.0])
    if case == "far times":
        times, cause = _FAR, "times reach"
    elif case == "times 3.03e305":
        # the bound at p = 1 lies between 3.02e305 and 3.03e305
        locations, times, cause = locations[:, :1], np.array([0.0, 3.03e305]), "times reach"
    else:
        reach = {"far coordinates": _FAR, "coordinates 1e100": np.array([0.0, 1e100]),
                 "coordinates 3.05e74": np.array([0.0, 3.05e74])}[case]
        locations, cause = np.column_stack([locations[:, 0], np.append(reach, 0.5)]), "coordinates of dimension 1"
        if case == "coordinates 3.05e74":  # the bound at p = 1 lies between 3.04e74 and 3.05e74
            locations, cause = locations[:, 1:], "coordinates of dimension 0"
    data = SpaceTimeDataset(locations, times, np.random.default_rng(0).standard_normal((3, 2)))
    with pytest.raises(InvalidArgumentError, match=cause):
        build_context(data, tame_prior)


@pytest.mark.parametrize("marginalized", [True, False], ids=["marginalized", "explicit"])
def test_grid_just_inside_the_bound_fits_without_a_warning(tame_prior, marginalized):
    """Coordinates of 3.04e74 and times of 3.02e305 lie just inside the
    bound at p = 1; a chain on them runs with no warning (the test settings
    make one an error) and keeps finite terms."""
    data = SpaceTimeDataset(np.array([[-3.04e74], [0.0], [1.0], [3.04e74]]), np.array([-3.02e305, 0.0, 1.0, 3.02e305]),
                            np.random.default_rng(1).standard_normal((4, 4)))
    cfg = SamplerConfig(iterations=60, burn_in=0, thin=20, j_max=5, seed=1)
    sampler = Sampler(data, cfg, tame_prior, marginalized=marginalized)
    state, stats = sampler.initial_state(), MoveStats()
    for r in range(cfg.iterations):
        state = sampler.iterate(state, r, stats)
    assert np.all(np.isfinite(state.terms.field)) and np.all(np.isfinite(state.terms.process))
    assert stats.proposals["tmcmc"] == cfg.iterations


@pytest.mark.parametrize("marginalized", [True, False], ids=["marginalized", "explicit"])
def test_prediction_on_the_widest_grid_runs_without_a_warning(tame_prior, marginalized):
    """A chain on times of +-3.02e305 (and coordinates of +-3.04e74) predicts
    at its training cells with no warning: the baselines' time gaps of
    6.04e305 have no finite square and are never formed."""
    data = SpaceTimeDataset(np.array([[-3.04e74], [0.0], [1.0], [3.04e74]]), np.array([-3.02e305, 0.0, 1.0, 3.02e305]),
                            np.random.default_rng(1).standard_normal((4, 4)))
    cfg = SamplerConfig(iterations=30, burn_in=0, thin=10, j_max=5, seed=1)
    samples = run_chain(data, cfg, tame_prior, marginalized=marginalized).samples
    bands = posterior_predict(samples, data.locations, data.times, data, marginalized=marginalized, seed=2,
                              keep_draws=True)
    assert bands.draws.shape == (3, 4, 4) and np.all(np.isfinite(bands.draws))


def _independent_block_conditional(atoms_k, theta, cache, ctx, hypers):
    """scipy reassembly of the block conditional for a single-time instance."""
    lp = count_log_factor(atoms_k.count, hypers.lam)
    bspec, mspecs = _specs(theta, ctx)
    if np.any(np.abs(atoms_k.mu) > 10.0):
        return -np.inf
    lp += norm.logpdf(atoms_k.beta, 0.0, math.sqrt(bspec.initial_variance)).sum()
    for ell, spec in enumerate(mspecs):
        lp += norm.logpdf(atoms_k.mu[:, ell], 0.0, math.sqrt(spec.initial_variance)).sum()
    kp = cache.kp
    for i in range(ctx.n):
        d = cache.mapped[i][None, :] - atoms_k.mu
        kvals = np.exp(-0.5 * (d * d) @ kp.tilde_sigma_sq - kp.xi * abs(ctx.times[0] - kp.tau))
        f = float(kvals @ atoms_k.beta)
        lp += norm.logpdf(ctx.y[i, 0], f, math.sqrt(hypers.sigma_sq_eps))
    return lp


def _one_block_update(atoms_k, cache, ctx, hypers, cfg, key):
    """The block update on a one-block store with the phase generator
    `stream(*key)`.

    Returns the moves, the acceptance, log_alpha, the store after the move,
    and the move type, proposal and draws of the per-block oracle replaying
    the block's row of the same draws.
    """
    store = AtomStore.from_blocks([atoms_k], cfg.j_max)
    terms = StateTerms.build(cache, store, ctx)
    moves, accepted, log_alpha, _ = update_time_block([(np.array([0]), stream(*key))], store, terms, ctx, hypers, cfg,
                                                      None)
    move, proposal, _, info = _oracle_draw(atoms_k, cfg, _PhaseRow(stream(*key), 1, ctx.p, cfg.j_max, 0))
    assert MOVE_NAMES[moves.move[0]] == move
    got = moves.proposal.block(0)
    assert np.array_equal(got.beta, proposal.beta) and np.array_equal(got.mu, proposal.mu)
    return moves, bool(accepted[0]), float(log_alpha[0]), store, move, info


def _fresh_block_conditionals(ks, store, cache, ctx, hypers, j_max=6):
    """Log full conditionals of blocks ks of `store`, scored afresh, and their
    incoming and outgoing process factors."""
    ks = np.asarray(ks)
    p_in, p_out = block_factors(cache.table, store, store.take(ks), ks, ctx.gap_index)
    rows = sampler_module.field_rows(cache.mapped, ctx.times[ks], store.take(ks), cache.kp)
    return block_scores(store.counts[ks], p_in, p_out, loglik_rows(ks, rows, ctx, hypers, None), hypers,
                        j_max), (p_in, p_out)


def test_birth_acceptance_matches_oracle(tame_prior, monkeypatch):
    ctx = _tiny_ctx(tame_prior, n=1, m=1, p=1)
    theta, nu, omega, cache, atoms, hypers = _state_pieces(ctx, j0=1)
    lp_cur = _independent_block_conditional(atoms[0], theta, cache, ctx, hypers)
    store = AtomStore.from_blocks(atoms)
    assert _fresh_block_conditionals([0], store, cache, ctx, hypers)[0][0] == pytest.approx(lp_cur, rel=1e-10)
    for p_add in (1.0, 0.0):
        monkeypatch.setattr(sampler_module, "P_ADD", p_add)
        births = 0
        for seed in range(24):
            moves, accepted, log_alpha, after, move, info = _one_block_update(
                atoms[0], cache, ctx, hypers, CFG, (seed, 9))
            if move != "birth":
                continue
            births += 1
            # independent recomputation of the full log acceptance ratio
            J, p = 1, 1
            wb = move_weights(J, CFG.j_max)[0]
            wd_new = move_weights(J + 1, CFG.j_max)[1]
            if info["branch"] == "additive":
                u = np.abs(np.array([info["eps1"], *np.atleast_1d(info["eps_mu"])]))
                g = 0.5 * math.log(2 / math.pi) - 0.5 * u * u
                struct = math.log(wd_new / wb) + float(np.sum(math.log(4 * CFG.scale) - g))
            else:
                eps = np.array([info["eps1"], *np.atleast_1d(info["eps_mu"])])
                x = np.array([atoms[0].beta[0], atoms[0].mu[0, 0]])
                struct = (math.log(wd_new / wb)
                          + float(np.sum(np.log(np.abs(x)) - np.log(np.abs(eps))))
                          + (p + 1) * (math.log(2.0) + math.log(1 - sampler_module.EPS_FLOOR)))
            assert moves.log_ratio[0] == pytest.approx(struct, rel=1e-10)
            lp_prop = _independent_block_conditional(moves.proposal.block(0), theta, cache, ctx, hypers)
            assert log_alpha == pytest.approx(lp_prop - lp_cur + struct, rel=1e-9)
            assert after.counts[0] == (2 if accepted else 1)
        assert births >= 8


def test_death_acceptance_matches_oracle(tame_prior, monkeypatch):
    ctx = _tiny_ctx(tame_prior, n=1, m=1, p=1)
    theta, nu, omega, cache, atoms, hypers = _state_pieces(ctx, j0=3)
    lp_cur = _independent_block_conditional(atoms[0], theta, cache, ctx, hypers)
    for p_add in (1.0, 0.0):
        monkeypatch.setattr(sampler_module, "P_ADD", p_add)
        deaths = 0
        for seed in range(36):
            moves, accepted, log_alpha, _, move, info = _one_block_update(
                atoms[0], cache, ctx, hypers, CFG, (seed, 10))
            if move != "death":
                continue
            deaths += 1
            J, p = 3, 1
            wd = move_weights(J, CFG.j_max)[1]
            wb_new = move_weights(J - 1, CFG.j_max)[0]
            lo, hi = info["lo"], J - 1  # the partner is always the last atom
            if info["branch"] == "additive":
                pair_lo = np.array([atoms[0].beta[lo], atoms[0].mu[lo, 0]])
                pair_hi = np.array([atoms[0].beta[hi], atoms[0].mu[hi, 0]])
                u = np.abs(pair_lo - pair_hi) / (2 * CFG.scale)
                g = 0.5 * math.log(2 / math.pi) - 0.5 * u * u
                struct = math.log(wb_new / wd) + float(np.sum(g - math.log(4 * CFG.scale)))
            else:
                y_hi = np.array([atoms[0].beta[hi], atoms[0].mu[hi, 0]])
                struct = (math.log(wb_new / wd) - float(np.sum(np.log(np.abs(y_hi))))
                          - (p + 1) * (math.log(2.0) + math.log(1 - sampler_module.EPS_FLOOR)))
            assert moves.log_ratio[0] == pytest.approx(struct, rel=1e-10)
            if info["unreachable"]:
                assert log_alpha == -np.inf and not accepted
            else:
                lp_prop = _independent_block_conditional(moves.proposal.block(0), theta, cache, ctx, hypers)
                assert log_alpha == pytest.approx(lp_prop - lp_cur + struct, rel=1e-9)
        assert deaths >= 8


def test_birth_death_structural_reciprocity(tame_prior, monkeypatch):
    """Factors of a matched split/merge pair are exact reciprocals and the
    merge restores the pre-split values."""
    ctx = _tiny_ctx(tame_prior, n=1, m=1, p=1)
    theta, nu, omega, cache, atoms, hypers = _state_pieces(ctx, j0=2)
    monkeypatch.setattr(sampler_module, "P_ADD", 1.0)
    cfg = replace(CFG, scale=0.5)
    restored = 0
    for seed in range(400):
        births, accepted, _, born, move, binfo = _one_block_update(atoms[0], cache, ctx, hypers, cfg, (seed, 11))
        if move != "birth" or not accepted:
            continue
        # matched death: merge the parent with the appended child
        for dseed in range(2000):
            deaths, d_acc, _, merged, dmove, dinfo = _one_block_update(born.block(0), cache, ctx, hypers, cfg,
                                                                      (dseed, 12))
            if dmove == "death" and dinfo["lo"] == binfo["j"]:
                assert births.log_ratio[0] + deaths.log_ratio[0] == pytest.approx(0.0, abs=1e-9)
                if d_acc:
                    np.testing.assert_allclose(merged.block(0).beta, atoms[0].beta, atol=1e-12)
                    np.testing.assert_allclose(merged.block(0).mu, atoms[0].mu, atol=1e-12)
                    restored += 1
                break
    assert restored >= 1


def test_birth_death_guards(tame_prior):
    """The move-type draw never proposes a birth at the count ceiling nor a
    death with a single atom."""
    ctx = _tiny_ctx(tame_prior, n=1, m=1, p=1)
    theta, nu, omega, cache, atoms, hypers = _state_pieces(ctx, j0=1)
    full = LatentAtoms(np.linspace(-1.0, 1.0, CFG.j_max)[:, None], np.linspace(0.5, 1.5, CFG.j_max))
    for cfg, block in ((CFG, atoms[0]), (CFG, full), (replace(CFG, j_max=1), atoms[0])):
        ks = np.zeros(200, dtype=np.int64)
        moves = propose_blocks(ks, AtomStore.from_blocks([block] * ks.size, cfg.j_max), ctx, cfg,
                               *draw_blocks(stream(0, 1, 0), ks.size, ctx.p, cfg.j_max))
        drawn = {MOVE_NAMES[mv] for mv in moves.move.tolist()}
        assert "no_change" in drawn
        assert ("birth" in drawn) == (block.count < cfg.j_max)
        assert ("death" in drawn) == (block.count > 1)


def test_no_change_jacobian_and_identity(tame_prior, monkeypatch):
    ctx = _tiny_ctx(tame_prior, n=1, m=1, p=1)
    theta, nu, omega, cache, atoms, hypers = _state_pieces(ctx, j0=1)
    monkeypatch.setattr(sampler_module, "P_ADD", 0.0)
    seen_identity = False
    for seed in range(400):
        moves, accepted, log_alpha, after, move, info = _one_block_update(
            atoms[0], cache, ctx, hypers, CFG, (seed, 13))
        if move != "no_change":
            continue
        b = info["b"]
        assert moves.log_ratio[0] == pytest.approx(b.sum() * math.log(abs(info["eps"])), rel=1e-12)
        if np.all(b == 0):
            # identity proposal: Jacobian 1, always accepted
            assert moves.log_ratio[0] == 0.0 and log_alpha == 0.0
            assert accepted
            np.testing.assert_array_equal(after.block(0).beta, atoms[0].beta)
            np.testing.assert_array_equal(after.block(0).mu, atoms[0].mu)
            seen_identity = True
            break
    assert seen_identity
    # spec example: b = (1, 1, -1), eps = 0.5 -> |J| = 0.5
    assert math.exp(np.array([1, 1, -1]).sum() * math.log(0.5)) == pytest.approx(0.5)


def test_block_scores_boundary_structure(tame_prior):
    ctx = _tiny_ctx(tame_prior, n=2, m=3, p=1)
    theta, nu, omega, cache, atoms, hypers = _state_pieces(ctx, j0=2)
    beta_spec, mu_specs = _specs(theta, ctx)
    store = AtomStore.from_blocks(atoms)
    lp, (p_in, p_out) = _fresh_block_conditionals([0, 2], store, cache, ctx, hypers)
    assert np.all(np.isfinite(lp))
    # k=0 holds the initial factor and the forward factor; k=m-1 no forward factor
    assert p_in[0] == atom_block_log_density(atoms[0], None, None, beta_spec, mu_specs)
    assert p_out[1] == 0.0
    assert p_out[0] == atom_block_log_density(atoms[1], atoms[0], 1.0, beta_spec, mu_specs)

    # changing y at an unrelated time leaves the block conditional unchanged
    y_saved = ctx.y.copy()
    ctx.y[:, 2] += 5.0
    lp0_after = _fresh_block_conditionals([0], store, cache, ctx, hypers)[0][0]
    ctx.y[:] = y_saved
    assert lp0_after == lp[0]


def test_block_scores_ratio_matches_joint_difference(tame_prior):
    """Move-target consistency: a block-k change shifts the joint by exactly
    the block conditional difference."""
    ctx = _tiny_ctx(tame_prior, n=2, m=3, p=1)
    theta, nu, omega, cache, atoms, hypers = _state_pieces(ctx, j0=2)
    new_atoms_1 = LatentAtoms(np.vstack([atoms[1].mu + 0.3, [[0.1]]]),
                              np.append(atoms[1].beta, 0.4))
    args = dict(theta=theta, hypers=hypers, nu=nu, omega_sq=omega, phi=None,
                y=ctx.y, mapped=cache.mapped, times=ctx.times, phi0=ctx.phi0,
                prior=ctx.prior, mode=ctx.ar_mode, marginalized=True)
    joint_before = log_joint_posterior(atoms, **args)
    swapped = [atoms[0], new_atoms_1, atoms[2]]
    joint_after = log_joint_posterior(swapped, **args)
    lp_before = _fresh_block_conditionals([1], AtomStore.from_blocks(atoms), cache, ctx, hypers)[0][0]
    lp_after = _fresh_block_conditionals([1], AtomStore.from_blocks(swapped), cache, ctx, hypers)[0][0]
    assert joint_after - joint_before == pytest.approx(lp_after - lp_before, rel=1e-9)


def test_theta_logpost_ratio_matches_joint_difference(tame_prior):
    from levyst.sampler import SamplerState

    ctx = _tiny_ctx(tame_prior, n=2, m=3, p=1)
    theta, nu, omega, cache, atoms, hypers = _state_pieces(ctx, j0=2)
    state = SamplerState(atoms=AtomStore.from_blocks(atoms), theta=theta, hypers=hypers, nu=nu, omega_sq=omega)
    theta2 = theta.copy()
    theta2[0] += 0.15
    theta2[-1] -= 0.2
    operands = AtomOperands.build(state.atoms, ctx)
    lp1, _ = theta_logpost(theta, state, ctx, operands)
    state2 = SamplerState(atoms=state.atoms, theta=theta2, hypers=hypers, nu=nu, omega_sq=omega)
    lp2, _ = theta_logpost(theta2, state2, ctx, operands)
    args = dict(hypers=hypers, nu=nu, omega_sq=omega, phi=None, y=ctx.y,
                mapped=cache.mapped, times=ctx.times, phi0=ctx.phi0,
                prior=ctx.prior, mode=ctx.ar_mode, marginalized=True)
    j1 = log_joint_posterior(atoms, theta, **args)
    cache2 = ThetaCache.build(theta2, ctx)
    args2 = dict(args, mapped=cache2.mapped)
    j2 = log_joint_posterior(atoms, theta2, **args2)
    assert lp2 - lp1 == pytest.approx(j2 - j1, rel=1e-9)


def test_tmcmc_rejects_out_of_bounds_and_accepts_identity(tame_prior, monkeypatch):
    from levyst.sampler import SamplerState

    ctx = _tiny_ctx(tame_prior, n=2, m=2, p=1)
    theta, nu, omega, cache, atoms, hypers = _state_pieces(ctx, j0=1)
    state = SamplerState(atoms=AtomStore.from_blocks(atoms), theta=theta, hypers=hypers, nu=nu, omega_sq=omega)
    bad = theta.copy()
    bad[ctx.layout.i_log_tau] = 7.0
    operands = AtomOperands.build(state.atoms, ctx)
    lp_bad, _ = theta_logpost(bad, state, ctx, operands)
    assert lp_bad == -np.inf

    lp, _ = theta_logpost(theta, state, ctx, operands)
    monkeypatch.setattr(sampler_module, "P_ADD", 0.0)
    scripted = _ScriptedRng(uniforms=[0.9, 0.5],
                            integer_arrays=[np.zeros(ctx.layout.dim, dtype=int)])
    proposal, log_jac = tmcmc_proposal(theta, CFG, scripted)
    np.testing.assert_array_equal(proposal, theta)
    assert log_jac == 0.0
    # log_alpha is 0, so every acceptance uniform accepts
    lp_prop, _ = theta_logpost(proposal, state, ctx, operands)
    assert all(sampler_module._log_uniform(u) < lp_prop - lp + log_jac for u in (0.0, 0.2, 1.0 - 2.0 ** -53))


def test_enhancement_jacobian(monkeypatch):
    d = 9
    theta = np.linspace(-2.0, 2.5, d)
    assert np.all(theta != 0.0)
    monkeypatch.setattr(sampler_module, "Q_ADD", 0.0)
    for seed in range(8):
        proposal, log_jac = enhancement_proposal(theta, CFG, stream(seed, 15))
        expected = float(np.sum(np.log(np.abs(proposal / theta))))
        assert log_jac == pytest.approx(expected, rel=1e-12, abs=d * 1e-15)
    # spec example: d=3, eps=0.5, multiply branch -> |J| = 0.125
    assert math.exp(3 * math.log(0.5)) == pytest.approx(0.125)


def test_zero_acceptance_uniform_accepts_any_finite_log_alpha(tiny_dataset, tame_prior, monkeypatch):
    """log(0) is -inf, below every finite log_alpha: a theta proposal whose
    acceptance uniform is exactly 0.0 is accepted however low its ratio."""
    sampler = Sampler(tiny_dataset, SamplerConfig(iterations=1, burn_in=0, thin=1, j_max=5, seed=2), tame_prior)
    state = sampler.initial_state()
    real_stream, real_logpost = sampler_module.stream, sampler_module.theta_logpost
    scored = []

    class ZeroUniforms:
        """The theta phase's generator with every scalar uniform 0.0: both
        moves take their additive branch, and both acceptance uniforms are 0."""

        def __init__(self, rng):
            self.rng = rng

        def random(self):
            return 0.0

        def __getattr__(self, name):
            return getattr(self.rng, name)

    def stream_(seed, *key):
        rng = real_stream(seed, *key)
        return ZeroUniforms(rng) if key[0] == sampler_module._S_THETA else rng

    def low_logpost(theta, state_, ctx, operands):
        lp, terms = real_logpost(theta, state_, ctx, operands)
        assert math.isfinite(lp)
        scored.append(theta)
        return lp - 1e6, terms

    monkeypatch.setattr(sampler_module, "stream", stream_)
    monkeypatch.setattr(sampler_module, "theta_logpost", low_logpost)
    stats = MoveStats()
    state = sampler.iterate(state, 0, stats)
    assert len(scored) == 2 and stats.accepts["tmcmc"] == stats.accepts["enhance"] == 1
    assert state.theta is scored[-1]


class _ScriptedRng:
    """Deterministic stand-in replaying scripted draws (identity proposals)."""

    def __init__(self, uniforms, integer_arrays):
        self._uniforms = list(uniforms)
        self._ints = list(integer_arrays)

    def random(self):
        return self._uniforms.pop(0)

    def integers(self, *args, **kwargs):
        return self._ints.pop(0)


class _RecordingRng:
    """Stub generator recording gamma shapes; all draws are deterministic."""

    def __init__(self):
        self.gamma_shapes = []

    def gamma(self, shape):
        self.gamma_shapes.append(shape)
        return 1.0

    def standard_normal(self, *a):
        return 0.0 if not a else np.zeros(a[0])


def test_gibbs_zeta_closed_forms(tame_prior):
    from levyst.sampler import SamplerState

    prior = PriorConfig(ig_a=2.01, ig_b=1.01, ig_a_tight=1e4, ig_b_tight=1.0,
                        lambda_a=0.01, lambda_b=0.001)
    rng0 = np.random.default_rng(0)
    data = SpaceTimeDataset(rng0.random((3, 1)), np.array([1.0, 2.0]),
                            rng0.standard_normal((3, 2)), mean=0.0, sd=1.0)  # standardized: alpha pinned
    ctx = build_context(data, prior, marginalized=True)
    ctx.phi0 = np.zeros((3, 2))
    theta, nu, omega, cache, atoms, hypers = _state_pieces(ctx, j0=3)
    atoms[1] = LatentAtoms(np.zeros((4, 1)), np.zeros(4))  # J = (3, 4)
    state = SamplerState(atoms=atoms, theta=theta, hypers=hypers, nu=nu, omega_sq=omega)
    rec = _RecordingRng()
    reduced = {"j_total": 7, "resid_sq": 0.0, "resid_alpha": 0.0}
    gibbs_update_zeta(state, ctx, rec, reduced)
    # lambda ~ Gamma(0.01 + 7, rate 0.001 + m); draw 1.0 / rate verifies both
    assert rec.gamma_shapes[0] == pytest.approx(7.01)
    assert state.hypers.lam == pytest.approx(1.0 / 2.001)
    # zero residuals: sigma_sq_eps ~ IG(a + nm/2, b)
    assert rec.gamma_shapes[1] == pytest.approx(1e4 + 3.0)
    assert state.hypers.sigma_sq_eps == pytest.approx(1.0)
    # omega_sq ~ IG(a + 1/2, b + (X - nu)^2 / 2) with nu drawn at its mean
    assert rec.gamma_shapes[2] == pytest.approx(2.51)


def test_gibbs_zeta_rejects_negative_sums(tame_prior):
    from levyst.sampler import SamplerState

    ctx = _tiny_ctx(tame_prior, n=2, m=2, p=1)
    theta, nu, omega, cache, atoms, hypers = _state_pieces(ctx, j0=1)
    state = SamplerState(atoms=atoms, theta=theta, hypers=hypers, nu=nu, omega_sq=omega)
    with pytest.raises(InvalidStateError):
        gibbs_update_zeta(state, ctx, np.random.default_rng(0),
                          {"j_total": 2, "resid_sq": -1.0, "resid_alpha": 0.0})


def test_run_chain_schedule_contracts(tiny_dataset, tame_prior):
    cfg = SamplerConfig(iterations=12, burn_in=12, thin=3, j_max=4, seed=1)
    res = run_chain(tiny_dataset, cfg, tame_prior)
    assert res.samples == []
    assert sum(res.stats.proposals.values()) > 0

    cfg2 = SamplerConfig(iterations=25, burn_in=5, thin=4, j_max=4, seed=1)
    res2 = run_chain(tiny_dataset, cfg2, tame_prior)
    assert len(res2.samples) == (25 - 5) // 4
    for s in res2.samples:
        for a in s.atoms:
            assert 1 <= a.count <= 4
            assert np.all(np.abs(a.mu) <= 10.0)


def test_single_time_dataset_runs(tame_prior):
    """With one time block the second parity phase has no blocks."""
    data = SpaceTimeDataset(np.array([[0.1], [0.5], [0.9]]), np.array([1.0]), np.array([[0.3], [-0.2], [0.5]]))
    res = run_chain(data, SamplerConfig(iterations=20, burn_in=0, thin=1, j_max=4, seed=1), tame_prior)
    assert sum(res.stats.proposals[m] for m in ("birth", "death", "no_change")) == 20
    assert all(len(s.atoms) == 1 for s in res.samples)


def test_near_unit_grid_takes_unit_gaps(near_unit_dataset, tame_prior):
    """The regular AR(1) takes gap 1 between every pair of times, so chains
    with negative rho run (a gap off 1 rejects them)."""
    data = near_unit_dataset
    ctx = build_context(data, tame_prior)
    assert ctx.ar_mode is ArMode.REGULAR_AR1
    assert ctx.gaps.tolist() == [1.0] and ctx.gap_index.tolist() == [-1] + [0] * 7
    res = run_chain(data, SamplerConfig(iterations=300, burn_in=0, thin=1, j_max=5, seed=1), tame_prior)
    layout = ctx.layout
    logit_rho = np.array([np.append(s.theta[layout.sl_logit_rho], s.theta[layout.i_logit_rho_beta])
                          for s in res.samples])
    assert np.any(logit_rho < 0.0)  # rho < 0 in the regular AR(1)


def test_near_unit_grid_reference_density_takes_unit_gaps(near_unit_dataset, tame_prior):
    """The reference joint density takes the sampler's unit gaps too: with a
    negative rho it scores the atom process as on the exact unit grid."""
    ctx = build_context(near_unit_dataset, tame_prior)
    theta, nu, omega, _, atoms, hypers = _state_pieces(ctx, j0=2)
    theta[ctx.layout.i_logit_rho_beta] = -1.0
    cache = ThetaCache.build(theta, ctx)
    beta_spec, mu_specs = _specs(theta, ctx)
    assert beta_spec.rho < 0.0
    parts = log_joint_parts(atoms, theta, hypers, nu, omega, None, ctx.y, cache.mapped, ctx.times, ctx.phi0,
                            tame_prior, ctx.ar_mode, True)
    unit_grid = np.arange(ctx.m, dtype=float)
    assert np.isfinite(parts["atom_process"])
    assert parts["atom_process"] == atom_process_log_density(atoms, unit_grid, beta_spec, mu_specs)


def test_run_chain_move_frequencies(tiny_dataset, tame_prior):
    cfg = SamplerConfig(iterations=300, burn_in=0, thin=300, j_max=4, seed=2)
    res = run_chain(tiny_dataset, cfg, tame_prior)
    total = sum(res.stats.proposals[m] for m in ("birth", "death", "no_change"))
    assert total == 300 * tiny_dataset.m
    for m in ("birth", "death", "no_change"):
        share = res.stats.proposals[m] / total
        assert 0.1 < share < 0.6  # near the (1/3, 1/3, 1/3) mix averaged over J


@pytest.mark.parametrize("marginalized", [True, False], ids=["marginalized", "explicit"])
@given(n=st.sampled_from([1, 2, 7, 30, 100]), m=st.integers(1, 4), no_atoms=st.booleans(), strided=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=1, m=1, no_atoms=True, strided=False, seed=0)
@settings(max_examples=100, deadline=None)
def test_loglik_slice_equals_the_per_block_likelihood(marginalized, n, m, no_atoms, strided, seed):
    """`sampler.loglik_slice`, one `loglik_rows` call, equals the per-block
    likelihood of `tests/oracles.py` bit for bit: one location, a field of
    a block with no atoms (zeros) and a column read from a field matrix
    included."""
    rng = np.random.default_rng(seed)
    data = SpaceTimeDataset(rng.random((n, 2)), np.arange(1.0, m + 1.0), rng.standard_normal((n, m)))
    with patch.object(effects, "phi0_training_matrix", lambda locations, y: rng.standard_normal((n, m))):
        ctx = build_context(data, PriorConfig(), marginalized=marginalized)
    hypers = ScalarHypers(lam=2.0, sigma_sq_eps=float(rng.uniform(0.1, 2.0)), alpha=float(rng.normal()),
                          sigma_sq_phi=0.0 if marginalized else float(rng.uniform(0.1, 2.0)))
    phi = None if marginalized else rng.standard_normal((n, m))
    field = np.zeros((n, m)) if no_atoms else rng.standard_normal((n, m))
    for k in range(m):
        f = field[:, k] if strided else field[:, k].copy()
        got = sampler_module.loglik_slice(k, f, ctx, hypers, phi)
        assert type(got) is float and got == loglik_slice(k, f, ctx, hypers, phi)


def test_update_time_block_invalid_rate_guard(tame_prior):
    ctx = _tiny_ctx(tame_prior, n=1, m=1, p=1)
    theta, nu, omega, cache, atoms, hypers = _state_pieces(ctx, j0=2)
    stats = MoveStats()
    store = AtomStore.from_blocks(atoms, CFG.j_max)
    before = store.block(0)
    moves, accepted, _, _ = update_time_block([(np.array([0]), stream(5, 16))], store,
                                              StateTerms.build(cache, store, ctx), ctx, hypers, CFG, None)
    move = MOVE_NAMES[moves.move[0]]
    stats.record(move, bool(accepted[0]))
    assert move in ("birth", "death", "no_change")
    assert stats.accepts[move] <= stats.proposals[move]
    kept = moves.proposal.block(0) if accepted[0] else before
    assert np.array_equal(store.block(0).beta, kept.beta) and np.array_equal(store.block(0).mu, kept.mu)


def _degenerate_chain_sample(ctx, theta, nu, omega, m):
    atoms = [LatentAtoms(np.zeros((1, ctx.p)), np.zeros(1)) for _ in range(m)]
    return ChainSample(iteration=0, store=AtomStore.from_blocks(atoms), theta=theta, lam=1.0,
                       sigma_sq_eps=1e-18, alpha=0.0, sigma_sq_alpha=1.0,
                       sigma_sq_phi=0.0, nu=nu, omega_sq=omega)


def test_posterior_predict_bands(tiny_dataset, tame_prior):
    ctx = build_context(tiny_dataset, tame_prior)
    theta, nu, omega, cache, atoms, hypers = _state_pieces(ctx, j0=1)
    sample = _degenerate_chain_sample(ctx, theta, nu, omega, tiny_dataset.m)
    new_locs = np.array([[0.5, 0.5]])
    bands = posterior_predict([sample], new_locs, tiny_dataset.times, tiny_dataset,
                              marginalized=True, seed=0)
    lo, med, hi = (bands.quantiles[q] for q in (1 / 16, 0.5, 15 / 16))
    np.testing.assert_allclose(lo, med, atol=1e-7)
    np.testing.assert_allclose(med, hi, atol=1e-7)

    cfg = SamplerConfig(iterations=30, burn_in=10, thin=2, j_max=4, seed=4)
    res = run_chain(tiny_dataset, cfg, tame_prior)
    bands2 = posterior_predict(res.samples, new_locs, tiny_dataset.times,
                               tiny_dataset, marginalized=True, seed=1)
    lo2, med2, hi2 = (bands2.quantiles[q] for q in (1 / 16, 0.5, 15 / 16))
    assert np.all(lo2 <= med2 + 1e-12) and np.all(med2 <= hi2 + 1e-12)


def _outside_atom_box(samples, locations, mode):
    """Per sample: whether the one-theta map sends a training location
    outside [-COORD_BOUND, COORD_BOUND]."""
    layout = ThetaLayout(p=locations.shape[1])
    knots = [np.unique(locations[:, ell]) for ell in range(layout.p)]
    flags = []
    for smp in samples:
        _, mp, _, _ = unpack_theta(smp.theta, layout, mode)
        fit = map_fit(knots, mp)
        mapped = np.column_stack([monotone_map_extend(locations[:, ell], ell, fit, mp) for ell in range(layout.p)])
        flags.append(bool(np.any(np.abs(mapped) > COORD_BOUND)))
    return flags


def test_samples_outside_atom_box_counts_crafted_maps(tiny_dataset, tame_prior):
    samples = run_chain(tiny_dataset, SamplerConfig(iterations=20, burn_in=0, thin=1, j_max=4, seed=3),
                        tame_prior).samples
    layout, mode = ThetaLayout(p=tiny_dataset.p), mode_for_times(tiny_dataset.times)
    locations = tiny_dataset.locations
    assert not any(_outside_atom_box(samples, locations, mode))
    assert samples_outside_atom_box(samples, locations) == 0

    def crafted(changes):
        chain = list(samples)
        for i, (index, value) in changes.items():
            theta = chain[i].theta.copy()
            theta[index] = value
            chain[i] = replace(chain[i], theta=theta)
        return chain

    # log C~ = 5 puts the second dimension's map at about e^5 = 148
    high = crafted({i: (layout.sl_log_c_tilde.start + 1, 5.0) for i in (2, 5, 11)})
    assert _outside_atom_box(high, locations, mode) == [i in (2, 5, 11) for i in range(len(samples))]
    assert samples_outside_atom_box(high, locations) == 3
    # a steep first-dimension map takes locations near -3 below -COORD_BOUND
    shifted = locations - np.array([3.0, 0.0])
    low = crafted({4: (layout.sl_log_c.start, 3.0)})
    flags = _outside_atom_box(low, shifted, mode)
    assert flags[4] and samples_outside_atom_box(low, shifted) == sum(flags)
    assert samples_outside_atom_box(samples, shifted) == sum(_outside_atom_box(samples, shifted, mode))


def test_posterior_predict_off_grid_time(tiny_dataset, tame_prior):
    ctx = build_context(tiny_dataset, tame_prior)
    theta, nu, omega, cache, atoms, hypers = _state_pieces(ctx, j0=1)
    sample = _degenerate_chain_sample(ctx, theta, nu, omega, tiny_dataset.m)
    with pytest.raises(UnsupportedPredictionError):
        posterior_predict([sample], np.array([[0.5, 0.5]]), np.array([1.5]),
                          tiny_dataset, marginalized=True)


@pytest.mark.parametrize("marginalized", [True, False], ids=["marginalized", "explicit"])
def test_worker_count_invariance(tiny_dataset, tame_prior, marginalized):
    results = []
    for w in (1, 2, 4):
        cfg = SamplerConfig(iterations=40, burn_in=10, thin=3, j_max=5, seed=9, workers=w)
        results.append(run_chain(tiny_dataset, cfg, tame_prior, marginalized=marginalized))
    a = results[0]
    for other in results[1:]:
        assert len(a.samples) == len(other.samples)
        for sa, sb in zip(a.samples, other.samples):
            np.testing.assert_array_equal(sa.theta, sb.theta)
            assert sa.lam == sb.lam and sa.sigma_sq_eps == sb.sigma_sq_eps
            for xa, xb in zip(sa.atoms, sb.atoms):
                np.testing.assert_array_equal(xa.mu, xb.mu)
                np.testing.assert_array_equal(xa.beta, xb.beta)
            assert (sa.phi is None) == marginalized and (sb.phi is None) == marginalized
            # marginalized mode holds sigma_sq_phi at 0, which its likelihood does not read
            assert (sa.sigma_sq_phi == 0.0) == marginalized
            if not marginalized:
                np.testing.assert_array_equal(sa.phi, sb.phi)


def _assert_same_chain(a, b):
    assert a.stats == b.stats and len(a.samples) == len(b.samples)
    for sa, sb in zip(a.samples, b.samples):
        np.testing.assert_array_equal(sa.theta, sb.theta)
        assert (sa.lam, sa.sigma_sq_eps, sa.alpha) == (sb.lam, sb.sigma_sq_eps, sb.alpha)
        for xa, xb in zip(sa.atoms, sb.atoms):
            np.testing.assert_array_equal(xa.mu, xb.mu)
            np.testing.assert_array_equal(xa.beta, xb.beta)


def test_unreachable_merges_are_never_scored(tiny_dataset, tame_prior, monkeypatch):
    """A merge no birth can undo is rejected without a score: neither its
    process factors (`block_factors`) nor its field row (`field_rows`) is
    computed, and the chain equals one in which such merges are scored and
    then rejected."""
    monkeypatch.setattr(sampler_module, "P_ADD", 0.2)
    cfg = SamplerConfig(iterations=40, burn_in=0, thin=1, j_max=5, seed=9)
    propose, factors, rows = sampler_module.propose_blocks, sampler_module.block_factors, sampler_module.field_rows
    times = tiny_dataset.times
    unreachable, factored, fielded = [], [], []

    def key(t, atoms, b):
        """A proposal by its time and its atoms' bytes."""
        return float(t), atoms.values[:, b, :atoms.counts[b]].tobytes()

    def recording_propose(*args):
        moves = propose(*args)
        unreachable.extend(key(times[moves.ks[b]], moves.proposal, b) for b in np.flatnonzero(~moves.reachable))
        return moves

    def counting_factors(table, atoms, proposal, ks, gap_index):
        factored.extend(key(times[k], proposal, b) for b, k in enumerate(ks))
        return factors(table, atoms, proposal, ks, gap_index)

    def counting_rows(mapped, t, atoms, kp):
        fielded.extend(key(t[b], atoms, b) for b in range(atoms.counts.size))
        return rows(mapped, t, atoms, kp)

    monkeypatch.setattr(sampler_module, "block_factors", counting_factors)
    monkeypatch.setattr(sampler_module, "field_rows", counting_rows)
    monkeypatch.setattr(sampler_module, "propose_blocks", recording_propose)
    skipped = run_chain(tiny_dataset, cfg, tame_prior)
    assert len(unreachable) > 10
    assert not set(unreachable) & set(factored)
    assert not set(unreachable) & set(fielded)

    def scoring_propose(*args):
        moves = propose(*args)
        unscored = ~moves.reachable
        unreachable.extend(key(times[moves.ks[b]], moves.proposal, b) for b in np.flatnonzero(unscored))
        moves.reachable[:] = True
        moves.log_ratio[unscored] = -np.inf
        return moves

    for seen in (unreachable, factored, fielded):
        seen.clear()
    monkeypatch.setattr(sampler_module, "propose_blocks", scoring_propose)
    _assert_same_chain(run_chain(tiny_dataset, cfg, tame_prior), skipped)
    assert unreachable and set(unreachable) <= set(factored) and set(unreachable) <= set(fielded)


_IRREGULAR_TIMES = np.array([0.0, 1.0, 2.5, 3.0, 4.5, 7.0])
_NEIGHBOR_COUNTS = (3, 25, 1, 30, 12, 40)
# (k, J, an atom out of bounds, a stored field in place of the fresh one)
# per block; together the examples cover the first and the last block, J
# above and below the predecessor's count, J = 1 and an atom out of bounds.
# Counts and the location count reach past 8, where numpy's sums stop
# running sequentially.
_BLOCK = st.tuples(st.integers(0, 5), st.integers(1, 45), st.booleans(), st.booleans())


@pytest.mark.parametrize("marginalized", [True, False], ids=["marginalized", "explicit"])
@given(batch=st.lists(_BLOCK, min_size=1, max_size=8), seed=st.integers(0, 2 ** 32 - 1))
@example(batch=[(0, 1, False, False), (1, 7, False, False), (2, 2, True, False),
                (4, 2, False, True), (5, 33, False, False), (3, 1, True, False), (4, 2, False, False)], seed=0)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_batched_scorer_matches_per_block_references(tame_prior, marginalized, batch, seed):
    """`block_factors` and `field_rows` on padded atoms and `loglik_rows`
    give each block the per-block reference values: the likelihoods and the
    out-of-bounds and neighbour patterns `==`, the process factors and field
    rows within their rounding bounds (`tests/rounding.py`)."""
    from levyst.model import field_rows
    from levyst.sampler import loglik_rows

    rng = np.random.default_rng(seed)
    n = 37
    data = SpaceTimeDataset(rng.random((n, 2)), _IRREGULAR_TIMES, rng.standard_normal((n, 6)))
    ctx = build_context(data, tame_prior, marginalized=marginalized)
    ctx.phi0 = rng.standard_normal((n, 6))
    assert len(ctx.gaps) == 4
    theta, nu, omega, cache, _, _ = _state_pieces(ctx)
    hypers = ScalarHypers(lam=2.0, sigma_sq_eps=0.7, alpha=0.3, sigma_sq_phi=0.0 if marginalized else 0.4)
    phi = None if marginalized else rng.standard_normal((n, 6))
    state = [LatentAtoms(rng.normal(scale=3.0, size=(J, 2)), rng.normal(size=J)) for J in _NEIGHBOR_COUNTS]
    gaps = np.diff(ctx.times)

    ks, atoms, stored = np.array([k for k, *_ in batch]), [], []
    for k, J, out_of_bounds, from_store in batch:
        mu = rng.normal(scale=3.0, size=(J, 2))
        if out_of_bounds:
            mu[rng.integers(J), rng.integers(2)] = 10.5
        atoms.append(LatentAtoms(mu, rng.normal(size=J)))
        stored.append(from_store)
    prevs = [state[k - 1] if k > 0 else None for k in ks]
    nexts = [state[k + 1] if k < 5 else None for k in ks]
    B = len(batch)
    # the state and the batch as two stores of one width
    width = max(a.count for a in atoms + state)
    proposal = AtomStore.from_blocks(atoms, width)
    p_ins, p_outs = block_factors(cache.table, AtomStore.from_blocks(state, width), proposal, ks, ctx.gap_index)
    field = field_rows(cache.mapped, ctx.times[ks], proposal, cache.kp)
    rows = np.where(np.array(stored)[:, None], rng.normal(size=(B, n)), field)
    logliks = loglik_rows(ks, rows, ctx, hypers, phi)
    beta_spec, mu_specs = _specs(theta, ctx)
    specs = (beta_spec, *mu_specs)
    ksq = cache.kp.tilde_sigma_sq
    for b, (k, a, prev, nxt) in enumerate(zip(ks, atoms, prevs, nexts)):
        assert logliks[b] == loglik_slice(k, rows[b], ctx, hypers, phi)
        gap = None if prev is None else gaps[k - 1]
        p_in = atom_block_log_density(a, prev, gap, beta_spec, mu_specs)
        assert_factor_close(p_ins[b], p_in, process_tolerance(a, prev, gap, specs))
        assert np.all(np.abs(a.mu) <= 10.0) == np.isfinite(p_in)
        if nxt is None:
            assert p_outs[b] == 0.0
        else:
            p_out = atom_block_log_density(nxt, a, gaps[k], beta_spec, mu_specs)
            assert_factor_close(p_outs[b], p_out, process_tolerance(nxt, a, gaps[k], specs))
        want = field_values(cache.mapped, ctx.times[k], a, cache.kp)
        time_term = cache.kp.xi * abs(ctx.times[k] - cache.kp.tau)
        tol = exponent_tolerance(cache.mapped, a.mu.T, ksq, time_term)
        # both sides carry the expanded kernel's error, so twice its bound
        bound = field_tolerance(kernel_matrix(cache.mapped, a.mu.T, cache.kp, time_term), 2.0 * tol, a.beta)
        assert np.all(np.abs(field[b] - want) <= bound)


# The per-block proposers that the array proposals replaced, kept as their
# oracle: each reads its block's row of the phase draws and inserts or
# deletes atoms.

class _PhaseRow:
    """Row b of the draws a batch of B blocks makes from `rng`, named by the
    documented layout: a (B, 4 + (p+1)(2 + width)) uniform array, then a
    (B, p+1) normal array."""

    def __init__(self, rng, B, p, width, b):
        p1 = p + 1
        u = rng.random((B, 4 + p1 * (2 + width)))[b]
        self.normals = rng.standard_normal((B, p1))[b]
        self.move, self.branch, self.slot, self.accept = u[:4].tolist()
        self.eps = u[4:4 + p1].tolist()
        self.sign = u[4 + p1:4 + 2 * p1].tolist()
        self.flip = u[4 + 2 * p1:].reshape(p1, width)


def _oracle_mult_eps(u, floor):
    """|e| uniform on (floor, 1], sign from the half of [0, 1) holding u."""
    if u < 0.5:
        return -(1.0 - (1.0 - floor) * (2.0 * u))
    return 1.0 - (1.0 - floor) * (2.0 * u - 1.0)


def _oracle_log_half_normal(u):
    return 0.5 * math.log(2.0 / math.pi) - 0.5 * u * u


def _oracle_birth(atoms_k, cfg, row):
    J, p = atoms_k.count, atoms_k.mu.shape[1]
    additive = row.branch < sampler_module.P_ADD
    j = int(row.slot * J)
    info = {"branch": "additive" if additive else "multiplicative", "j": j, "child_pos": J}
    mu, beta = atoms_k.mu, atoms_k.beta
    if additive:
        eps1, eps_mu = row.normals[0], row.normals[1:]
        steps = cfg.scale * np.abs(np.concatenate([[eps1], eps_mu]))
        signs = np.array([1.0 if u < 0.5 else -1.0 for u in row.sign])
        beta_new = np.insert(beta, J, beta[j] - signs[0] * steps[0])
        beta_new[j] = beta[j] + signs[0] * steps[0]
        mu_new = np.insert(mu, J, mu[j] - signs[1:] * steps[1:], axis=0)
        mu_new[j] = mu[j] + signs[1:] * steps[1:]
        u = np.abs(np.concatenate([[eps1], eps_mu]))
        log_struct = float(np.sum(math.log(4.0 * cfg.scale) - _oracle_log_half_normal(u)))
        info.update(eps1=eps1, eps_mu=eps_mu, signs=signs)
    else:
        eps1 = _oracle_mult_eps(row.eps[0], sampler_module.EPS_FLOOR)
        eps_mu = np.array([_oracle_mult_eps(u, sampler_module.EPS_FLOOR) for u in row.eps[1:]])
        beta_new = np.insert(beta, J, beta[j] / eps1)
        beta_new[j] = beta[j] * eps1
        mu_new = np.insert(mu, J, mu[j] / eps_mu, axis=0)
        mu_new[j] = mu[j] * eps_mu
        log_struct = float(np.log(abs(beta[j])) - np.log(abs(eps1))
                           + np.sum(np.log(np.abs(mu[j])) - np.log(np.abs(eps_mu))))
        log_struct += (p + 1) * (math.log(2.0) + math.log(1.0 - sampler_module.EPS_FLOOR))
        info.update(eps1=eps1, eps_mu=eps_mu)
    wb, _, _ = move_weights(J, cfg.j_max)
    _, wd_new, _ = move_weights(J + 1, cfg.j_max)
    log_struct += np.log(wd_new) - np.log(wb)
    info["log_struct"] = log_struct
    return LatentAtoms(mu_new, beta_new), log_struct, info


def _oracle_death(atoms_k, cfg, row):
    J, p = atoms_k.count, atoms_k.mu.shape[1]
    additive = row.branch < sampler_module.P_ADD
    lo, hi = int(row.slot * (J - 1)), J - 1
    info = {"branch": "additive" if additive else "multiplicative", "lo": lo, "hi": hi}
    mu, beta = atoms_k.mu, atoms_k.beta
    pair_lo = np.concatenate([[beta[lo]], mu[lo]])
    pair_hi = np.concatenate([[beta[hi]], mu[hi]])
    unreachable = False
    if additive:
        merged_beta = 0.5 * (beta[lo] + beta[hi])
        merged_mu = 0.5 * (mu[lo] + mu[hi])
        u = np.abs(pair_lo - pair_hi) / (2.0 * cfg.scale)
        log_struct = float(np.sum(_oracle_log_half_normal(u) - math.log(4.0 * cfg.scale)))
    else:
        sign_beta = 1.0 if row.sign[0] < 0.5 else -1.0
        signs_mu = np.array([1.0 if u < 0.5 else -1.0 for u in row.sign[1:]])
        merged_beta = sign_beta * math.sqrt(abs(beta[lo] * beta[hi]))
        merged_mu = signs_mu * np.sqrt(np.abs(mu[lo] * mu[hi]))
        log_struct = float(-np.log(abs(beta[hi])) - np.sum(np.log(np.abs(mu[hi]))))
        log_struct -= (p + 1) * (math.log(2.0) + math.log(1.0 - sampler_module.EPS_FLOOR))
        implied = np.sqrt(np.abs(pair_lo) / np.abs(pair_hi))
        unreachable = not (np.all(pair_lo * pair_hi > 0.0) and np.all(np.abs(pair_lo) < np.abs(pair_hi))
                           and np.all(implied > sampler_module.EPS_FLOOR))
        info.update(sign_beta=sign_beta, signs_mu=signs_mu)
    beta_new = np.delete(beta, hi)
    beta_new[lo] = merged_beta
    mu_new = np.delete(mu, hi, axis=0)
    mu_new[lo] = merged_mu
    _, wd, _ = move_weights(J, cfg.j_max)
    wb_new, _, _ = move_weights(J - 1, cfg.j_max)
    log_struct += np.log(wb_new) - np.log(wd)
    info.update(log_struct=log_struct, unreachable=unreachable)
    return LatentAtoms(mu_new, beta_new), log_struct, info


def _oracle_no_change(atoms_k, cfg, row):
    J, p = atoms_k.count, atoms_k.mu.shape[1]
    additive = row.branch < sampler_module.P_ADD
    v = np.concatenate([atoms_k.beta, atoms_k.mu.ravel()])
    info = {"branch": "additive" if additive else "multiplicative"}
    # one flip per coordinate in use, in the order of v: beta_1 .. beta_J,
    # then mu_1,1 .. mu_1,p, mu_2,1 ..
    u = np.concatenate([row.flip[0, :J], row.flip[1:, :J].T.ravel()]).tolist()
    if additive:
        eps = row.normals[0]
        b = np.array([1 if x >= 0.5 else -1 for x in u])
        v_new = v + b * (cfg.shrink * cfg.scale) * abs(eps)
        log_jac = 0.0
    else:
        eps = _oracle_mult_eps(row.eps[0], sampler_module.EPS_FLOOR)
        b = np.array([int(3.0 * x) - 1 for x in u])
        v_new = v.copy()
        v_new[b == 1] *= eps
        v_new[b == -1] /= eps
        log_jac = float(b.sum()) * np.log(abs(eps))
    info.update(eps=eps, b=b, log_jac=log_jac)
    return LatentAtoms(v_new[J:].reshape(J, p), v_new[:J]), log_jac, info


_ORACLES = {"birth": _oracle_birth, "death": _oracle_death, "no_change": _oracle_no_change}


def _oracle_draw(atoms_k, cfg, row):
    """The move-type draw, then that move's oracle: (move, proposal, log ratio, draws)."""
    wb, wd, _ = move_weights(atoms_k.count, cfg.j_max)
    move = "birth" if row.move < wb else "death" if row.move < wb + wd else "no_change"
    return (move, *_ORACLES[move](atoms_k, cfg, row))


# (J, an atom out of bounds, every pair of the block reachable by a
# multiplicative birth: one sign, the last atom the largest)
_MOVE_BLOCK = st.tuples(st.integers(1, 6), st.booleans(), st.booleans())


@given(p=st.integers(1, 3), blocks=st.lists(_MOVE_BLOCK, min_size=1, max_size=10),
       p_add=st.sampled_from([0.0, 0.5, 1.0]), seed=st.integers(0, 2 ** 32 - 1))
@example(p=2, blocks=[(1, False, False), (5, False, True), (6, True, False), (6, False, True), (5, False, False),
                      (2, False, True), (2, False, False), (3, True, True)], p_add=0.0, seed=0)
@example(p=1, blocks=[(1, False, False), (5, True, False), (6, False, False), (2, False, True)], p_add=1.0, seed=1)
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_array_proposals_match_per_block_oracle(tame_prior, p, blocks, p_add, seed):
    """Each block's move type, proposal, log ratio, reachability and
    acceptance uniform equal those of the per-block proposers replaying the
    block's row of the same phase draws (`==`)."""

    cfg = SamplerConfig(iterations=1, burn_in=0, thin=1, j_max=6, seed=0)
    ctx = _tiny_ctx(tame_prior, n=2, m=1, p=p)
    rng = np.random.default_rng(seed)
    atoms = []
    for J, out_of_bounds, reachable in blocks:
        mu, beta = rng.normal(scale=3.0, size=(J, p)), rng.normal(size=J)
        if reachable:
            mu, beta = np.abs(mu) + 0.5, np.abs(beta) + 0.5
            mu[-1], beta[-1] = 2.0 * mu.max(axis=0), 2.0 * beta.max()
        if out_of_bounds:
            mu[rng.integers(J), rng.integers(p)] = 10.5
        atoms.append(LatentAtoms(mu, beta))
    ks = np.arange(len(blocks))
    with patch.object(sampler_module, "P_ADD", p_add):
        moves = propose_blocks(ks, AtomStore.from_blocks(atoms, cfg.j_max), ctx, cfg,
                               *draw_blocks(stream(seed, 1, 0, 1), ks.size, p, cfg.j_max))
        for b, atoms_b in enumerate(atoms):
            row = _PhaseRow(stream(seed, 1, 0, 1), ks.size, p, cfg.j_max, b)
            move, proposal, log_ratio, info = _oracle_draw(atoms_b, cfg, row)
            assert MOVE_NAMES[moves.move[b]] == move
            got = moves.proposal.block(b)
            assert np.array_equal(got.beta, proposal.beta) and np.array_equal(got.mu, proposal.mu)
            assert moves.log_ratio[b] == log_ratio
            assert moves.reachable[b] == (not info.get("unreachable", False))
            assert moves.u_accept[b] == row.accept


def _proposals(J, cfg, ctx, size, seed):
    """The store of `size` copies of one block of J distinct atoms, and one
    proposal from each copy, in one batch."""
    block = LatentAtoms(np.linspace(1.0, 2.0, J * ctx.p).reshape(J, ctx.p), np.linspace(0.5, 1.5, J))
    current = AtomStore.from_blocks([block] * size, cfg.j_max)
    return current, propose_blocks(np.zeros(size, dtype=np.int64), current, ctx, cfg,
                                   *draw_blocks(stream(seed, 1, 0, 0), size, ctx.p, cfg.j_max))


@pytest.mark.parametrize("J", [1, 3, 6])
def test_move_type_frequencies_match_move_weights(tame_prior, J):
    """Chi-square of the drawn move types against `move_weights`, at J = 1,
    a middle count and j_max; a move of weight 0 is never drawn."""
    cfg = replace(CFG, j_max=6)
    _, moves = _proposals(J, cfg, _tiny_ctx(tame_prior, n=1, m=1, p=1), 6000, J)
    counts = np.bincount(moves.move, minlength=3)
    weights = np.array(move_weights(J, cfg.j_max), dtype=float)
    allowed = weights > 0.0
    assert np.all(counts[~allowed] == 0)
    assert chisquare(counts[allowed], 6000 * weights[allowed]).pvalue > 1e-4


@pytest.mark.parametrize("floor", [0.01, 0.3])
def test_multiplicative_eps_is_uniform_above_the_floor(floor):
    """From uniform draws, |e| follows Uniform(floor, 1) (KS) with a fair
    sign; the extreme uniforms stay in (floor, 1]."""
    e = sampler_module._mult_eps(np.random.default_rng(0).random(20000), floor)
    assert kstest(np.abs(e), "uniform", args=(floor, 1.0 - floor)).pvalue > 1e-4
    assert abs(np.mean(e > 0) - 0.5) < 4 * 0.5 / math.sqrt(e.size)
    edges = sampler_module._mult_eps(np.array([0.0, 0.5 - 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53]), floor)
    assert np.all((np.abs(edges) > floor) & (np.abs(edges) <= 1.0))
    assert edges.tolist()[::2] == [-1.0, 1.0]


@pytest.mark.parametrize("move, J", [("birth", 5), ("death", 5)])
def test_picked_slot_is_uniform(tame_prior, move, J):
    """A birth splits each of the J atoms, a death merges each of the J - 1
    below the last, equally often (chi-square)."""
    cfg = replace(CFG, j_max=6)
    current, moves = _proposals(J, cfg, _tiny_ctx(tame_prior, n=1, m=1, p=1), 6000, 11)
    picked = np.flatnonzero(moves.move == MOVE_NAMES.index(move))
    before = current.values[:, picked, :J - 1 if move == "death" else J]
    after = moves.proposal.values[:, picked, :before.shape[2]]
    changed = np.any(after != before, axis=0)
    assert np.all(changed.sum(axis=1) == 1)
    slots = np.bincount(np.argmax(changed, axis=1), minlength=before.shape[2])
    assert chisquare(slots).pvalue > 1e-4


@pytest.mark.parametrize("marginalized", [True, False], ids=["marginalized", "explicit"])
@pytest.mark.parametrize("times", [np.arange(1.0, 7.0), np.array([0.0, 1.0, 2.5, 3.0, 4.5, 7.0])],
                         ids=["regular", "irregular"])
def test_carried_terms_match_fresh_evaluation(tiny_dataset, tame_prior, monkeypatch, marginalized, times):
    """After every iteration each carried process factor and field column
    equals a fresh evaluation, and the theta cache is built only for
    in-bounds proposals (plus once at the start).  The likelihoods the
    block sweep returns equal a fresh `loglik_rows` pass over the columns
    it leaves, and the theta phase starts from `theta_score` on those."""
    import levyst.sampler as sampler_module
    from levyst.model import log_prior_theta, theta_in_bounds

    data = SpaceTimeDataset(tiny_dataset.locations, times, tiny_dataset.y)
    cfg = SamplerConfig(iterations=30, burn_in=0, thin=1, j_max=5, seed=3)
    sampler = Sampler(data, cfg, tame_prior, marginalized=marginalized)
    ctx = sampler.ctx
    assert len(ctx.gaps) == (1 if ctx.ar_mode is ArMode.REGULAR_AR1 else 4)

    builds, in_bounds = [], []
    build = vars(ThetaCache)["build"].__func__

    def counting_build(cls, *args):
        builds.append(1)
        return build(cls, *args)

    def counting(propose):
        def counted_proposal(theta, cfg_, rng):
            out = propose(theta, cfg_, rng)
            in_bounds.append(theta_in_bounds(out[0], ctx.layout))
            return out
        return counted_proposal

    fresh_logliks, swept_terms, scores = [], [], []
    sweep, score = sampler_module.update_time_block, sampler_module.theta_score

    def checked_sweep(phases, atoms, terms, ctx_, hypers, cfg_, phi):
        moves, accepted, log_alpha, swept = sweep(phases, atoms, terms, ctx_, hypers, cfg_, phi)
        loglik = np.empty(ctx.m)
        loglik[moves.ks] = swept
        fresh = loglik_rows(range(ctx.m), terms.field.T, ctx, hypers, phi)
        assert np.array_equal(loglik, fresh)
        fresh_logliks.append(fresh)
        swept_terms.append(terms)
        return moves, accepted, log_alpha, swept

    def recorded_score(log_prior, terms, loglik):
        lp = score(log_prior, terms, loglik)
        scores.append((terms, lp))
        return lp

    monkeypatch.setattr(sampler_module, "update_time_block", checked_sweep)
    monkeypatch.setattr(sampler_module, "theta_score", recorded_score)
    monkeypatch.setattr(ThetaCache, "build", classmethod(counting_build))
    for name in ("tmcmc_proposal", "enhancement_proposal"):
        monkeypatch.setattr(sampler_module, name, counting(getattr(sampler_module, name)))
    state, stats = sampler.initial_state(), MoveStats()
    for r in range(cfg.iterations):
        builds.clear()
        in_bounds.clear()
        scores.clear()
        theta, nu, omega_sq = state.theta, state.nu.copy(), state.omega_sq.copy()
        state = sampler.iterate(state, r, stats)
        assert len(in_bounds) == 2
        assert len(builds) <= sum(in_bounds) + (r == 0)
        # the current theta is scored first, from the sweep's terms and
        # likelihoods, then each in-bounds proposal
        assert len(fresh_logliks) == r + 1 and len(scores) == 1 + sum(in_bounds)
        log_prior = log_prior_theta(theta, ctx.layout, nu, omega_sq, ctx.prior)
        cur_terms, cur_lp = scores[0]
        assert cur_terms is swept_terms[-1]
        assert cur_lp == score(log_prior, cur_terms, fresh_logliks[-1]) and np.isfinite(cur_lp)
        fresh = build(ThetaCache, state.theta, ctx)
        terms = state.terms
        np.testing.assert_array_equal(terms.cache.mapped, fresh.mapped)
        for k in range(ctx.m):
            atoms = state.atoms.blocks()
            prev, gap = (None, None) if k == 0 else (atoms[k - 1], ctx.times[k] - ctx.times[k - 1])
            assert terms.process[k] == atom_block_log_density(atoms[k], prev, gap, *_specs(state.theta, ctx))
            assert np.array_equal(terms.field[:, k],
                                  field_values(fresh.mapped, ctx.times[k], atoms[k], fresh.kp))
    assert stats.accepts["no_change"] > 0 and stats.accepts["tmcmc"] > 0


@pytest.mark.parametrize("marginalized", [True, False], ids=["marginalized", "explicit"])
def test_theta_phase_shares_the_atom_operands(tiny_dataset, tame_prior, monkeypatch, marginalized):
    """Each iteration forms the field operands twice, once for the sweep's
    proposals and once for the theta phase, and the whole store's operands
    once, for the theta phase, however many of its proposals are in bounds
    (plus once for the first terms), and passes those operands to both
    proposals' `theta_logpost`.  Every in-bounds proposal's terms from the
    shared operands equal a fresh `StateTerms.build` bit for bit."""
    from levyst.model import FieldOperands

    sampler = Sampler(tiny_dataset, SamplerConfig(iterations=30, burn_in=0, thin=1, j_max=5, seed=4), tame_prior,
                      marginalized=marginalized)
    ctx = sampler.ctx
    field_builds, store_builds, scored, passed = [], [], [], []
    field_build = vars(FieldOperands)["build"].__func__
    store_build = vars(AtomOperands)["build"].__func__
    real_logpost = sampler_module.theta_logpost

    def counting_field_build(cls, *args):
        field_builds.append(1)
        return field_build(cls, *args)

    def counting_store_build(cls, *args):
        store_builds.append(store_build(cls, *args))
        return store_builds[-1]

    def recording_logpost(theta, state_, ctx_, operands):
        passed.append(operands)
        lp, terms = real_logpost(theta, state_, ctx_, operands)
        if terms is not None:
            scored.append(terms)
        return lp, terms

    monkeypatch.setattr(FieldOperands, "build", classmethod(counting_field_build))
    monkeypatch.setattr(AtomOperands, "build", classmethod(counting_store_build))
    monkeypatch.setattr(sampler_module, "theta_logpost", recording_logpost)
    state, stats, in_bounds = sampler.initial_state(), MoveStats(), []
    for r in range(30):
        for seen in (field_builds, store_builds, scored, passed):
            seen.clear()
        state = sampler.iterate(state, r, stats)
        assert len(field_builds) == 2 + (r == 0) and len(store_builds) == 1 + (r == 0)
        # both proposals take the theta phase's one build, the last of the iteration
        assert len(passed) == 2 and all(operands is store_builds[-1] for operands in passed)
        in_bounds.append(len(scored))
        # the theta phase leaves the atoms as it found them
        for terms in scored:
            fresh = StateTerms.build(terms.cache, state.atoms, ctx)
            assert np.array_equal(terms.process, fresh.process) and np.array_equal(terms.field, fresh.field)
    assert in_bounds.count(2) > 0


@pytest.mark.parametrize("marginalized", [True, False], ids=["marginalized", "explicit"])
@pytest.mark.parametrize("times", [np.arange(1.0, 7.0), _IRREGULAR_TIMES, np.array([1.0])],
                         ids=["regular", "irregular", "single-time"])
def test_sweep_equals_phase_by_phase(tiny_dataset, tame_prior, marginalized, times):
    """One sweep over both parities, [(ks0, g0), (ks1, g1)], equals the two
    one-phase sweeps [(ks0, g0)] then [(ks1, g1)] (`==`): the store, the
    carried factors and field columns, the acceptances, the log ratios and
    the likelihoods after the move.  The states come from 20 or more
    iterations into a chain, and some accepted phase-0 move is the
    neighbour of a block that phase 1 scores."""
    data = SpaceTimeDataset(tiny_dataset.locations, times, tiny_dataset.y[:, :times.size])
    cfg = SamplerConfig(iterations=30, burn_in=0, thin=1, j_max=5, seed=7)
    sampler = Sampler(data, cfg, tame_prior, marginalized=marginalized)
    ctx = sampler.ctx
    state, stats = sampler.initial_state(), MoveStats()
    neighbours = 0
    for r in range(cfg.iterations):
        state = sampler.iterate(state, r, stats)
        if r < 20:
            continue
        ks0, ks1 = np.arange(0, ctx.m, 2), np.arange(1, ctx.m, 2)
        runs = []
        for split in (False, True):
            atoms = state.atoms.take(np.arange(ctx.m))
            terms = StateTerms(state.terms.cache, state.terms.process.copy(), state.terms.field.copy(order="K"))
            phases = [(ks0, stream(100 + r, 0)), (ks1, stream(100 + r, 1))]
            calls = [[phase] for phase in phases] if split else [phases]
            outs = [update_time_block(call, atoms, terms, ctx, state.hypers, cfg, state.phi) for call in calls]
            moves = [out[0] for out in outs]
            runs.append((atoms, terms, np.concatenate([mv.ks for mv in moves]),
                         np.concatenate([mv.reachable for mv in moves]),
                         *(np.concatenate([out[i] for out in outs]) for i in (1, 2, 3))))
        (atoms, terms, ks, reachable, *rest), (atoms2, terms2, ks2, _, *rest2) = runs
        assert np.array_equal(atoms.values, atoms2.values) and np.array_equal(atoms.counts, atoms2.counts)
        assert np.array_equal(terms.process, terms2.process) and np.array_equal(terms.field, terms2.field)
        assert np.array_equal(ks, ks2)
        for got, want in zip(rest, rest2):
            assert np.array_equal(got, want)
        accepted = rest[0]
        won0 = ks[:ks0.size][accepted[:ks0.size]]
        scored1 = ks[ks0.size:][reachable[ks0.size:]]
        neighbours += np.sum(np.abs(won0[:, None] - scored1[None, :]) == 1)
    assert neighbours > 0 if ctx.m > 1 else ks1.size == 0


def test_explicit_mode_runs_and_tracks_phi(tiny_dataset, tame_prior):
    cfg = SamplerConfig(iterations=25, burn_in=5, thin=4, j_max=4, seed=5)
    res = run_chain(tiny_dataset, cfg, tame_prior, marginalized=False)
    assert all(s.phi is not None and s.phi.shape == tiny_dataset.y.shape
               for s in res.samples)
    assert all(s.sigma_sq_phi > 0 for s in res.samples)


@pytest.mark.parametrize("marginalized", [True, False], ids=["marginalized", "explicit"])
def test_iterate_draws_from_one_stream_per_phase(tiny_dataset, tame_prior, monkeypatch, marginalized):
    """Each iteration builds one generator per phase: the two parity phases,
    the theta block, the effect columns (explicit mode) and the Gibbs block."""
    sampler = Sampler(tiny_dataset, SamplerConfig(iterations=3, burn_in=0, thin=1, j_max=5, seed=4), tame_prior,
                      marginalized=marginalized)
    state = sampler.initial_state()
    keys = []
    real_stream = sampler_module.stream
    monkeypatch.setattr(sampler_module, "stream", lambda seed, *key: keys.append(key) or real_stream(seed, *key))
    for r in range(3):
        state = sampler.iterate(state, r, MoveStats())
    S = sampler_module
    assert keys == [key for r in range(3) for key in
                    [(S._S_BLOCK, r, 0), (S._S_BLOCK, r, 1), (S._S_THETA, r)]
                    + ([] if marginalized else [(S._S_PHI, r)]) + [(S._S_ZETA, r)]]


# the default, two others, and one whose initial atoms are clipped to the atom box
@pytest.mark.parametrize("ig", [(2.01, 1.01), (3.0, 2.0), (6.5, 0.05), (0.5, 20.0)])
@pytest.mark.parametrize("marginalized", [True, False])
def test_initial_state_equals_scipy_stats_reference(tiny_dataset, ig, marginalized):
    """The initial state's inverse-gamma median and normal quartile are
    scipy.stats', and its atoms the per-block draws, bit for bit."""
    prior = PriorConfig(ig_a=ig[0], ig_b=ig[1], lambda_a=6.0, lambda_b=2.0)
    sampler = Sampler(tiny_dataset, SamplerConfig(iterations=1, burn_in=0, thin=1, j_max=5, seed=4), prior,
                      marginalized=marginalized)
    got, want = sampler.initial_state(), initial_state_per_block(sampler)
    for name in ("theta", "nu", "omega_sq"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert got.hypers == want.hypers
    assert (got.phi is None and want.phi is None) or got.phi.tobytes() == want.phi.tobytes()
    assert got.atoms.counts.tobytes() == want.atoms.counts.tobytes()
    assert got.atoms.values.tobytes() == want.atoms.values.tobytes()


def test_import_leaves_out_scipy_stats():
    """The program imports `scipy.special` only: importing the CLI loads no
    `scipy.stats`."""
    code = "import sys, levyst.cli; sys.exit('scipy.stats' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC}).returncode == 0


def test_fit_and_prediction_build_no_latent_atoms(tiny_dataset, tame_prior, monkeypatch, tmp_path):
    """After `initial_state`, neither the fit nor a chain write, read and
    prediction builds per-time `LatentAtoms`: samples hold store copies."""
    built = []
    real_init, real_post, real_block = Sampler.initial_state, LatentAtoms.__post_init__, AtomStore.block

    def initial_state(self):
        state = real_init(self)
        built.clear()
        return state

    monkeypatch.setattr(Sampler, "initial_state", initial_state)
    monkeypatch.setattr(LatentAtoms, "__post_init__", lambda self: built.append("atoms") or real_post(self))
    monkeypatch.setattr(AtomStore, "block", lambda self, k: built.append("block") or real_block(self, k))
    res = run_chain(tiny_dataset, SamplerConfig(iterations=12, burn_in=2, thin=2, j_max=5, seed=6), tame_prior)
    write_chain(tmp_path / "chain.txt", res.samples, res.meta)
    stored, _ = read_chain(tmp_path / "chain.txt")
    posterior_predict(stored, tiny_dataset.locations[:2], tiny_dataset.times[[1, 1, 4]], tiny_dataset, seed=2)
    assert built == []
    # the per-time view is still there on request, built once
    atoms = stored[0].atoms
    assert stored[0].atoms is atoms and len(atoms) == tiny_dataset.m
    for k, a in enumerate(atoms):
        J = stored[0].store.counts[k]
        np.testing.assert_array_equal(a.beta, stored[0].store.values[0, k, :J])
        np.testing.assert_array_equal(a.mu, stored[0].store.values[1:, k, :J].T)


class _FixedNormals:
    """Stand-in generator handing out given standard normals."""

    def __init__(self, normals):
        self.normals = normals

    def standard_normal(self, size):
        assert size == self.normals.size
        return self.normals


@pytest.mark.parametrize("marginalized", [True, False], ids=["marginalized", "explicit"])
@pytest.mark.parametrize("n", [1, 7, 30, 100, 257])
def test_gibbs_block_matches_per_column_references(tame_prior, monkeypatch, marginalized, n):
    """The effect draws and the reduced sums, formed as whole-matrix
    expressions, equal per-column references: `gibbs_update_phi_column`
    with row k of the iteration's (m, n) effect normals for column k,
    `resid @ resid` and `resid.sum()`."""
    from levyst.sampler import reduce_sum

    m = 4
    rng = np.random.default_rng(n)
    data = SpaceTimeDataset(rng.random((n, 2)), np.arange(1.0, m + 1.0), 2.0 + rng.standard_normal((n, m)))
    cfg = SamplerConfig(iterations=3, burn_in=0, thin=1, j_max=4, seed=8)
    with monkeypatch.context() as patched:
        # a random baseline, which also lets n = 1 through
        patched.setattr(effects, "phi0_training_matrix", lambda locations, y: rng.standard_normal((n, m)))
        sampler = Sampler(data, cfg, tame_prior, marginalized=marginalized)
    ctx = sampler.ctx
    seen = []
    real_zeta = sampler_module.gibbs_update_zeta

    def capture(state, ctx_, rng_, reduced):
        hyp = state.hypers
        seen.append((None if state.phi is None else state.phi.copy(), state.terms.field.copy(), hyp.alpha,
                     hyp.sigma_sq_phi, hyp.sigma_sq_eps, state.atoms.counts.copy(), dict(reduced)))
        return real_zeta(state, ctx_, rng_, reduced)

    monkeypatch.setattr(sampler_module, "gibbs_update_zeta", capture)
    state, stats = sampler.initial_state(), MoveStats()
    phi = state.phi
    for r in range(cfg.iterations):
        state = sampler.iterate(state, r, stats)
        new_phi, fmat, alpha, ssq_phi, ssq_eps, counts, reduced = seen[r]
        if not marginalized:
            # hypers are unchanged between the effect draws and the Gibbs block
            normals = sampler_module.stream(cfg.seed, sampler_module._S_PHI, r).standard_normal((m, n))
            want = np.column_stack([effects.gibbs_update_phi_column(
                ctx.y[:, k], fmat[:, k], alpha, ssq_phi, ssq_eps, ctx.phi0[:, k], _FixedNormals(normals[k]))
                for k in range(m)])
            assert np.array_equal(new_phi, want)
            phi = new_phi
        phi_eff = ctx.phi0 if marginalized else phi
        sq, sums, dev = [], [], []
        for k in range(m):
            resid = ctx.y[:, k] - alpha - phi_eff[:, k] - fmat[:, k]
            sq.append(float(resid @ resid))
            sums.append(float(resid.sum()) + ctx.n * alpha)
            if not marginalized:
                d = phi[:, k] - ctx.phi0[:, k]
                dev.append(float(d @ d))
        want = {"j_total": int(counts.sum()), "resid_sq": reduce_sum(sq), "resid_alpha": reduce_sum(sums)}
        if not marginalized:
            want["phi_dev_sq"] = reduce_sum(dev)
        assert reduced == want
    assert seen[-1][2] != 0.0  # alpha is drawn, so its term is exercised


@given(n=st.integers(1, 300), m=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_row_dots_and_sums_match_vector_forms(n, m, seed):
    """Batched row dots and row sums of a C-ordered matrix equal each row's
    `row @ row` and `row.sum()`."""
    rows = np.random.default_rng(seed).standard_normal((m, n)) * 10.0 ** (seed % 7 - 3)
    assert sampler_module._row_dots(rows) == [float(row @ row) for row in rows]
    assert rows.sum(axis=1).tolist() == [float(row.sum()) for row in rows]


def test_theta_phase_checks_bounds_once_per_theta(tiny_dataset, tame_prior, monkeypatch):
    """An iteration values three thetas (the current one and two proposals),
    and each one's bounds are checked once, inside its prior."""
    import levyst.model as model_module

    calls = []
    real = model_module.theta_in_bounds

    def counted(theta, layout):
        calls.append(1)
        return real(theta, layout)

    # wherever the name is looked up
    for module in (model_module, sampler_module):
        if hasattr(module, "theta_in_bounds"):
            monkeypatch.setattr(module, "theta_in_bounds", counted)
    iterations = 20
    run_chain(tiny_dataset, SamplerConfig(iterations=iterations, burn_in=0, thin=1, j_max=6, seed=3), tame_prior)
    assert 0 < len(calls) <= 3 * iterations


def _unused_slots(atoms):
    """The (block, slot) mask of every slot at or past its block's count."""
    return np.arange(atoms.width) >= atoms.counts[:, None]


def _used_values(atoms):
    block, slot = atoms.slots()
    return atoms.values[:, block, slot].tobytes()


@pytest.mark.parametrize("marginalized", [True, False], ids=["marginalized", "explicit"])
def test_slots_past_a_blocks_count_are_never_read(tame_prior, marginalized):
    """The contract the sweep and the theta phase narrow their arithmetic
    and gathers on: before each of 60 iterations one chain's slots at or
    past its blocks' counts are set to NaN and its twin's to 0, and the two
    chains stay equal bit for bit: counts, used atom values, theta, the
    Gibbs scalars, the carried field columns and process factors and the
    move statistics."""
    rng = np.random.default_rng(12)
    data, _ = standardize(SpaceTimeDataset(rng.random((12, 2)), np.arange(1.0, 7.0), rng.standard_normal((12, 6))))
    cfg = SamplerConfig(iterations=60, burn_in=0, thin=1, j_max=8, seed=7)
    sampler = Sampler(data, cfg, tame_prior, marginalized=marginalized)
    states, stats = [sampler.initial_state(), sampler.initial_state()], [MoveStats(), MoveStats()]
    for r in range(cfg.iterations):
        for state, stat, fill in zip(states, stats, (np.nan, 0.0)):
            state.atoms.values[:, _unused_slots(state.atoms)] = fill
            sampler.iterate(state, r, stat)
        a, b = states
        assert np.array_equal(a.atoms.counts, b.atoms.counts)
        assert _used_values(a.atoms) == _used_values(b.atoms)
        for name in ("theta", "nu", "omega_sq"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert a.hypers == b.hypers
        assert (a.phi is None and b.phi is None) or a.phi.tobytes() == b.phi.tobytes()
        assert a.terms.field.tobytes() == b.terms.field.tobytes()
        assert a.terms.process.tobytes() == b.terms.process.tobytes()
        assert stats[0] == stats[1]
    # births and deaths were accepted, so slots went in and out of use
    assert stats[0].accepts["birth"] > 0 and stats[0].accepts["death"] > 0


@given(counts=st.lists(st.integers(1, 8), min_size=1, max_size=12), p_add=st.sampled_from([0.0, 0.5, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_proposals_read_only_the_used_slots(tame_prior, counts, p_add, seed):
    """`propose_blocks` on a store whose unused slots hold NaN and on its
    zero-padded twin gives the same moves, log ratios, reachability,
    acceptance uniforms, counts and used proposal cells, bit for bit."""
    cfg = SamplerConfig(iterations=1, burn_in=0, thin=1, j_max=8, seed=0)
    ctx = _tiny_ctx(tame_prior, n=2, m=1, p=2)
    rng = np.random.default_rng(seed)
    values = rng.normal(scale=3.0, size=(3, len(counts), cfg.j_max))
    ks = np.arange(len(counts))
    moves = []
    for fill in (np.nan, 0.0):
        store = AtomStore(values.copy(), np.array(counts, dtype=np.int64))
        store.values[:, _unused_slots(store)] = fill
        with patch.object(sampler_module, "P_ADD", p_add):
            moves.append(propose_blocks(ks, store, ctx, cfg, *draw_blocks(stream(seed, 1, 0, 0), ks.size, 2,
                                                                           cfg.j_max)))
    a, b = moves
    for name in ("move", "log_ratio", "reachable", "u_accept"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert np.array_equal(a.proposal.counts, b.proposal.counts)
    assert _used_values(a.proposal) == _used_values(b.proposal)


@pytest.mark.parametrize("j_max", [1, 2, 6, 50])
def test_move_tables_equal_the_move_weights_and_their_logs(j_max):
    """Row J of the move-weight tables, J = 0 .. j_max + 1, equals
    `move_weights(J, j_max)` and the log ratios formed from it with array
    logs over a batch of blocks; every count past j_max + 1 has the weights
    and ratios of j_max + 1."""
    tables = sampler_module._move_tables(j_max)
    assert tables.shape == (4, j_max + 2) and not tables.flags.writeable
    for J in range(j_max + 2):
        wb, wd, _ = move_weights(J, j_max)
        assert tables[0, J] == wb and tables[1, J] == wb + wd
    batch = np.random.default_rng(j_max).permutation(np.arange(j_max + 9))
    wb, wd, _ = move_weights(batch, j_max)
    with np.errstate(divide="ignore"):
        birth = np.log(move_weights(batch + 1, j_max)[1]) - np.log(wb)
        death = np.log(move_weights(batch - 1, j_max)[0]) - np.log(wd)
    looked_up = tables[:, np.minimum(batch, j_max + 1)]
    for row, want in zip(looked_up, (wb, wb + wd, birth, death)):
        assert row.tobytes() == want.tobytes()


_BATCH_COUNTS = st.lists(st.integers(1, 12), min_size=1, max_size=9)


@given(counts=_BATCH_COUNTS, proposed=_BATCH_COUNTS, nan_padding=st.booleans(), data=st.data())
@example(counts=[3, 5, 2, 7, 1], proposed=[4, 6], nan_padding=False, data=None)
@example(counts=[3, 12, 2, 9, 1], proposed=[8, 10], nan_padding=True, data=None)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_block_factors_equal_the_joined_store_formula(tame_prior, counts, proposed, nan_padding, data):
    """`block_factors` gathers its operands at the batch's own width; its
    factors equal those of one pass over the joined full-width stores
    (`oracles.block_factors_joined`) bit for bit, whether the batch's
    largest count is below 8 or not, with atoms out of bounds and garbage in
    the unused slots."""
    m = len(counts)
    if data is None:
        ks = np.arange(min(len(proposed), m))[::-1].copy()
    else:
        ks = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True)))
    proposed = (proposed * m)[:ks.size]
    rng = np.random.default_rng(sum(counts) + 31 * len(proposed))
    times = np.cumsum(rng.uniform(0.2, 2.0, m))
    ctx = build_context(SpaceTimeDataset(rng.random((3, 2)), times, rng.standard_normal((3, m))), tame_prior)
    cache = _state_pieces(ctx)[3]
    width = 14
    stores = []
    for blocks in (counts, proposed):
        store = AtomStore(rng.normal(scale=4.0, size=(3, len(blocks), width)), np.array(blocks, dtype=np.int64))
        if nan_padding:
            store.values[:, _unused_slots(store)] = np.nan
        stores.append(store)
    atoms, proposal = stores
    got = block_factors(cache.table, atoms, proposal, ks, ctx.gap_index)
    want = block_factors_joined(cache.table, atoms, proposal, ks, ctx.gap_index)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def _theta_grid_ctx(tame_prior, p, irregular, seed):
    """A context on 7 locations with repeated coordinates and 5 times, on a
    regular or an irregular time grid."""
    rng = np.random.default_rng(seed)
    locations = rng.choice([0.0, 0.3, 0.35, 1.0, 2.5], size=(7, p)) + rng.random((7, p)) * (rng.random((7, p)) < 0.5)
    times = np.cumsum(rng.uniform(0.3, 2.0, 5)) if irregular else np.arange(1.0, 6.0)
    data = SpaceTimeDataset(locations, times, rng.standard_normal((7, 5)))
    return build_context(data, tame_prior)


def _long_path_cache(theta, ctx):
    """What the cache of theta holds, the long way: `unpack_theta`, the map
    one dimension at a time and the process table entry by entry."""
    kp, mp, beta_spec, mu_specs = unpack_theta(theta, ctx.layout, ctx.ar_mode)
    return kp, mapped_per_dimension(ctx.map_grid, mp.C * mp.X, mp.C_tilde), \
        process_table_per_entry(ctx.gaps, beta_spec, mu_specs)


def _cache_bytes(kp, mapped, tables):
    return (kp.tilde_sigma_sq.tobytes(), np.array([kp.tau, kp.xi]).tobytes(), mapped.tobytes(),
            *(t.tobytes() for t in tables))


@pytest.mark.parametrize("irregular", [False, True], ids=["regular", "irregular"])
@given(p=st.integers(1, 3), unit=st.lists(st.floats(0.0, 1.0), min_size=22, max_size=22),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_theta_cache_equals_the_long_path(tame_prior, irregular, p, unit, seed):
    """`ThetaCache.build` gives the long path's kernel parameters, mapped
    locations and table bit for bit (`unpack_theta` to `KernelParams`,
    `MapGrid.mapped(C X, C~)` and `ProcessTable.build`), for thetas across
    the box, edges included.  `ProcessTable.build` and `MapGrid.mapped`
    equal the per-entry and per-dimension forms too."""
    ctx = _theta_grid_ctx(tame_prior, p, irregular, seed)
    assert (len(ctx.gaps) > 1) == irregular
    lo, hi = ctx.layout.bounds()
    theta = lo + (hi - lo) * np.array(unit[:ctx.layout.dim])
    cache = ThetaCache.build(theta, ctx)
    got = _cache_bytes(cache.kp, cache.mapped, (cache.table.mult, cache.table.var, cache.table.norm))
    assert got == _cache_bytes(*_long_path_cache(theta, ctx))
    kp, mp, beta_spec, mu_specs = unpack_theta(theta, ctx.layout, ctx.ar_mode)
    table = ProcessTable.build(ctx.gaps, beta_spec, mu_specs)
    assert _cache_bytes(kp, ctx.map_grid.mapped(mp.C * mp.X, mp.C_tilde), (table.mult, table.var, table.norm)) == got


@pytest.mark.parametrize("irregular", [False, True], ids=["regular", "irregular"])
@pytest.mark.parametrize("p", [1, 2])
def test_theta_cache_with_a_nan_coordinate_fails_like_the_long_path(tame_prior, irregular, p):
    """A NaN in any one coordinate of theta, in all of them, or a theta
    past the box where a check fires (a negative slope variable X, an
    autoregression logit whose coefficient rounds to 1): `ThetaCache.build`
    raises the long path's first `InvalidArgumentError`, with its message,
    where the long path raises, and gives its bits where it does not."""
    ctx = _theta_grid_ctx(tame_prior, p, irregular, 0)
    layout = ctx.layout
    theta = np.clip(np.full(layout.dim, 0.4), *layout.bounds())
    cases = []
    for i in range(layout.dim):
        cases.append(theta.copy())
        cases[-1][i] = np.nan
    cases += [np.full(layout.dim, np.nan), theta.copy(), theta.copy()]
    cases[-2][layout.sl_x.start] = -1.0
    cases[-1][layout.i_logit_rho_beta] = 40.0
    raised = 0
    for bad in cases:
        try:
            want = _cache_bytes(*_long_path_cache(bad, ctx))
        except InvalidArgumentError as exc:
            with pytest.raises(InvalidArgumentError, match=f"^{re.escape(str(exc))}$"):
                ThetaCache.build(bad, ctx)
            raised += 1
            continue
        cache = ThetaCache.build(bad, ctx)
        assert _cache_bytes(cache.kp, cache.mapped, (cache.table.mult, cache.table.var, cache.table.norm)) == want
    # NaN in log ksq, or in the logit rho or the log variance of a coordinate
    # chain; all NaN; and the two thetas past the box
    assert raised == p + 2 * (p + 1) + 3
