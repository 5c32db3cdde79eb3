"""Transdimensional MCMC engine: birth/death/no-change moves per time block,
block updates of the fixed-dimension parameters via shared-draw proposals, a
mixing-enhancement pass, and exact Gibbs draws for the remaining scalars.

Per iteration: odd time blocks -> even time blocks -> fixed-dimension block
-> enhancement -> random effects (explicit mode) -> scalar Gibbs.  Every
block owns a dedicated random stream keyed by (seed, stream id, iteration,
index), so the stored chain does not depend on the order in which blocks
are processed, nor on the worker count.

Blocks of one parity are conditionally independent given the other parity,
so each parity phase runs in three steps.  Propose: each block draws its
move type and the move's draws from its own stream and forms its proposal
with the proposal's log ratio (`propose_block`).  Score: one batched pass
(`score_blocks`) computes, for every proposal of the parity, its incoming
and outgoing process factors, its field row and its likelihood, and the
likelihood of every current block from its stored field.  Accept: each
block makes its acceptance draw from its own stream (`settle_blocks`).  A
multiplicative merge that no birth can undo is rejected without a score; it
still makes its acceptance draw.  The single-block moves (`ttmcmc_birth`,
`ttmcmc_death`, `ttmcmc_no_change`, `update_time_block`) run the same three
steps on a batch of one.

The state carries the terms of its current theta (`StateTerms`): the
theta's `ThetaCache`, each block's incoming process factor
P_k = log p(atoms_k | atoms_{k-1}) and each block's field column f_k.  Only
proposals are scored.  A block move values the current block at its count
factor + P_k + P_{k+1} + the likelihood of the stored f_k, and an accepted
move writes back its proposal's P_k, P_{k+1} and f_k; blocks of one parity
touch disjoint entries.  The theta phase values the current theta at its
prior + sum_k P_k + the likelihood of the stored columns; each in-bounds
proposal builds one cache and scores all m blocks in one batched pass, and
an accepted proposal hands over its own cache, factors and columns.  The
cache holds the AR transition table (mean multiplier, variance and log
variance for every distinct time gap and coordinate chain).  Nothing in the
terms reads the Gibbs scalars or the effects, so they carry over to the next
iteration; only the likelihood is recomputed from the stored columns.

Batching keeps every bit: each batched value is computed with the same
elementwise operations and the same summation order as the per-block
references `atom_block_log_density`, `field_values` and `loglik_slice`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import invgamma, norm

from . import effects
from .ar import ArMode, ArSpec, mode_for_times
from .data import SpaceTimeDataset
from .errors import ConfigError, InvalidArgumentError, InvalidStateError, UnsupportedPredictionError
from .model import (
    COORD_BOUND,
    LatentAtoms,
    PriorConfig,
    ProcessTable,
    ScalarHypers,
    ThetaLayout,
    atom_block_log_density,
    atom_process_log_density,
    count_log_factor,
    field_rows,
    field_values,
    log_observation_density,
    log_prior_theta,
    monotone_map_extend,
    monotone_map_fit,
    theta_in_bounds,
    unpack_theta,
)
from .runtime import WorkerPool, reduce_sum

# `atom_block_log_density` and `atom_process_log_density` are the reference
# process densities that `ProcessTable` reproduces; they stay importable from
# this module, where perfbench's traced runs look them up.

# Random stream identifiers.
_S_INIT, _S_BLOCK, _S_THETA, _S_PHI, _S_ZETA, _S_PREDICT = range(6)

MOVE_NAMES = ("birth", "death", "no_change", "tmcmc", "enhance")


def stream(seed: int, *key: int) -> np.random.Generator:
    """Dedicated generator for one (stream id, iteration, index) slot."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


# ---------------------------------------------------------------------------
# configuration and bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplerConfig:
    iterations: int = 110_000
    burn_in: int = 10_000
    thin: int = 10
    j_max: int = 50
    scale: float = 0.05        # additive scaling constant a
    shrink: float = 0.01       # factor c applied for joint/no-change proposals
    p_add: float = 0.5         # mixture weight of the additive branch
    q_add: float = 0.5         # additive weight in the enhancement step
    eps_floor: float = 0.01    # |eps| floor for multiplicative draws
    base_weights: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    workers: int = 1
    seed: int = 0
    # Include the auxiliary-draw densities in the birth/death acceptance so
    # the dimension moves are exactly reversible (see decisions ledger); the
    # printed-form factors remain available for fidelity comparisons.
    exact_acceptance: bool = True

    def __post_init__(self):
        if self.iterations < 0 or not 0 <= self.burn_in <= self.iterations:
            raise ConfigError("need 0 <= burn_in <= iterations")
        if self.thin < 1 or (self.iterations > 0 and self.thin > self.iterations):
            raise ConfigError("thinning stride must be in [1, iterations]")
        if self.j_max < 1:
            raise ConfigError("j_max must be >= 1")
        if self.scale <= 0.0 or not 0.0 < self.shrink < 1.0:
            raise ConfigError("scale must be > 0 and shrink in (0, 1)")
        if not 0.0 < self.eps_floor < 1.0:
            raise ConfigError("eps_floor must be in (0, 1)")
        if not (0.0 <= self.p_add <= 1.0 and 0.0 <= self.q_add <= 1.0):
            raise ConfigError("mixture weights must be in [0, 1]")
        wb, wd, wnc = self.base_weights
        if min(wb, wd, wnc) < 0.0 or not math.isclose(wb + wd + wnc, 1.0, rel_tol=1e-9):
            raise ConfigError("base move weights must be nonnegative and sum to one")
        if self.workers < 1:
            raise ConfigError("worker count must be >= 1")


def move_weights(J: int, cfg: SamplerConfig) -> tuple[float, float, float]:
    """(birth, death, no-change) probabilities at the current count."""
    wb, wd, wnc = cfg.base_weights
    if J <= 1:
        wd = 0.0
    if J >= cfg.j_max:
        wb = 0.0
    total = wb + wd + wnc
    return wb / total, wd / total, wnc / total


@dataclass
class MoveStats:
    proposals: dict[str, int] = field(default_factory=lambda: {m: 0 for m in MOVE_NAMES})
    accepts: dict[str, int] = field(default_factory=lambda: {m: 0 for m in MOVE_NAMES})

    def record(self, move: str, accepted: bool) -> None:
        self.proposals[move] += 1
        if accepted:
            self.accepts[move] += 1

    def rate(self, move: str) -> float | None:
        n = self.proposals[move]
        return None if n == 0 else self.accepts[move] / n

    def overall_ttmcmc_rate(self) -> float | None:
        props = sum(self.proposals[m] for m in ("birth", "death", "no_change"))
        accs = sum(self.accepts[m] for m in ("birth", "death", "no_change"))
        return None if props == 0 else accs / props


@dataclass
class SamplerState:
    atoms: list[LatentAtoms]
    theta: np.ndarray
    hypers: ScalarHypers
    nu: np.ndarray
    omega_sq: np.ndarray
    phi: np.ndarray | None = None
    # Terms of theta and the atoms, kept by `Sampler.iterate`, which computes
    # them when None.  Reset to None after changing theta or atoms elsewhere.
    terms: StateTerms | None = None


@dataclass
class ChainSample:
    iteration: int
    atoms: list[LatentAtoms]
    theta: np.ndarray
    lam: float
    sigma_sq_eps: float
    alpha: float
    sigma_sq_alpha: float
    sigma_sq_phi: float
    nu: np.ndarray
    omega_sq: np.ndarray
    phi: np.ndarray | None = None


@dataclass
class ChainResult:
    samples: list[ChainSample]
    stats: MoveStats
    meta: dict


# ---------------------------------------------------------------------------
# model context and per-theta cache
# ---------------------------------------------------------------------------

@dataclass
class ModelContext:
    """Dataset-derived constants shared by every update."""

    y: np.ndarray
    locations: np.ndarray
    times: np.ndarray
    phi0: np.ndarray
    prior: PriorConfig
    marginalized: bool
    alpha_pinned: bool
    ar_mode: ArMode
    knots: tuple[np.ndarray, ...]
    knot_inverse: tuple[np.ndarray, ...]
    gaps: np.ndarray              # distinct gaps between consecutive times, sorted
    gap_index: tuple[int, ...]    # gap_index[k]: row of times[k] - times[k-1] in gaps (-1 at k=0)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def m(self) -> int:
        return self.y.shape[1]

    @property
    def p(self) -> int:
        return self.locations.shape[1]

    @property
    def layout(self) -> ThetaLayout:
        return ThetaLayout(p=self.p)

    def phi_effective(self, phi: np.ndarray | None) -> np.ndarray:
        return self.phi0 if self.marginalized else phi

    def var_effective(self, hypers: ScalarHypers) -> float:
        if self.marginalized:
            return hypers.sigma_sq_eps + hypers.sigma_sq_phi
        return hypers.sigma_sq_eps


def _map_knots(locations: np.ndarray) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Sorted unique coordinates per dimension, and each location's index into them."""
    knots, inverse = [], []
    for ell in range(locations.shape[1]):
        uniq, inv = np.unique(locations[:, ell], return_inverse=True)
        knots.append(uniq)
        inverse.append(inv)
    return tuple(knots), tuple(inverse)


def build_context(data: SpaceTimeDataset, prior: PriorConfig, marginalized: bool = True,
                  alpha_pinned: bool | None = None, phi0_override: np.ndarray | None = None) -> ModelContext:
    if alpha_pinned is None:
        alpha_pinned = data.standardized
    if phi0_override is not None:
        phi0 = np.asarray(phi0_override, dtype=float)
        if phi0.shape != data.y.shape:
            raise InvalidArgumentError("phi0 override must match the response shape")
    else:
        phi0 = effects.phi0_training_matrix(data.locations, data.y)
    knots, inverse = _map_knots(data.locations)
    gaps, gap_rows = np.unique(np.diff(data.times), return_inverse=True)
    return ModelContext(
        y=data.y, locations=data.locations, times=data.times, phi0=phi0,
        prior=prior, marginalized=marginalized, alpha_pinned=alpha_pinned,
        ar_mode=mode_for_times(data.times), knots=knots, knot_inverse=inverse,
        gaps=gaps, gap_index=(-1, *(int(g) for g in gap_rows)),
    )


@dataclass
class ThetaCache:
    """Natural-scale parameters, mapped locations and the AR transition
    table for one theta value.

    Nothing kept here depends on nu, omega_sq or the Gibbs scalars, so a
    cache stays valid for its theta while those change.
    """

    kp: object
    beta_spec: ArSpec
    mu_specs: list[ArSpec]
    mapped: np.ndarray
    table: ProcessTable

    @classmethod
    def build(cls, theta: np.ndarray, ctx: ModelContext, nu: np.ndarray, omega_sq: np.ndarray) -> "ThetaCache":
        kp, mp, beta_spec, mu_specs = unpack_theta(theta, ctx.layout, ctx.ar_mode, nu, omega_sq)
        fit = monotone_map_fit(list(ctx.knots), mp)
        mapped = np.empty((ctx.n, ctx.p))
        for ell in range(ctx.p):
            mapped[:, ell] = fit.values[ell][ctx.knot_inverse[ell]]
        return cls(kp=kp, beta_spec=beta_spec, mu_specs=mu_specs, mapped=mapped,
                   table=ProcessTable.build(ctx.gaps, beta_spec, mu_specs))


# ---------------------------------------------------------------------------
# carried terms and the block conditional
# ---------------------------------------------------------------------------

@dataclass
class BlockTerms:
    """What one block's atoms contribute to its conditional under one theta.

    `p_in` is the block's incoming process factor, `p_out` the next block's
    (None at the last block) and `field` the block's field column.
    """

    p_in: float
    p_out: float | None
    field: np.ndarray


@dataclass
class StateTerms:
    """Terms of the atoms under one theta: the theta's cache, every block's
    incoming process factor P_k, and the (n, m) field matrix with columns f_k.

    The field matrix is the transpose of C-ordered (m, n) rows, so that each
    column is contiguous and `field.T` feeds `loglik_rows` without a copy.
    """

    cache: ThetaCache
    process: list[float]
    field: np.ndarray

    @classmethod
    def build(cls, cache: ThetaCache, atoms: list[LatentAtoms], ctx: ModelContext) -> "StateTerms":
        """Process factors and field columns of every block under the theta of `cache`."""
        process = cache.table.log_densities(
            [(atoms[k], atoms[k - 1] if k > 0 else None, ctx.gap_index[k]) for k in range(ctx.m)])
        rows = field_rows(cache.mapped, ctx.times, atoms, cache.kp)
        return cls(cache=cache, process=process.tolist(), field=rows.T)

    def block(self, k: int) -> BlockTerms:
        p_out = self.process[k + 1] if k + 1 < len(self.process) else None
        return BlockTerms(self.process[k], p_out, self.field[:, k])

    def store(self, k: int, terms: BlockTerms) -> None:
        """Write back the terms of block k's accepted atoms."""
        self.process[k] = terms.p_in
        if terms.p_out is not None:
            self.process[k + 1] = terms.p_out
        self.field[:, k] = terms.field


def loglik_slice(k: int, f: np.ndarray, ctx: ModelContext, hypers: ScalarHypers,
                 phi: np.ndarray | None) -> float:
    """Time-k log likelihood of the field column f."""
    phi_col = ctx.phi_effective(phi)[:, k]
    return float(np.sum(log_observation_density(
        ctx.y[:, k], hypers.alpha, phi_col, f, ctx.var_effective(hypers))))


def loglik_rows(ks, rows: np.ndarray, ctx: ModelContext, hypers: ScalarHypers,
                phi: np.ndarray | None) -> np.ndarray:
    """Log likelihoods of several field rows: entry b is
    `loglik_slice(ks[b], rows[b], ...)` bit for bit.

    The densities form a C-ordered (B, n) array before the row sums: a
    reduction over rows of a transposed layout adds them sequentially
    instead of pairwise.
    """
    ks = list(ks)
    y = ctx.y.T[ks]
    phi_rows = ctx.phi_effective(phi).T[ks]
    dens = log_observation_density(y, hypers.alpha, phi_rows, rows, ctx.var_effective(hypers))
    return np.ascontiguousarray(dens).sum(axis=1)


def score_blocks(blocks, cache: ThetaCache, ctx: ModelContext, hypers: ScalarHypers,
                 phi: np.ndarray | None) -> list[tuple[BlockTerms, float]]:
    """Terms and likelihoods of several time blocks in one batched pass.

    Each entry of `blocks` is (k, atoms_k, (atoms_prev, atoms_next), terms).
    A block with carried `terms` needs only the likelihood of its stored
    field; one without (None) gets its incoming and outgoing process factors
    and its field row computed here first.  Returns (terms, likelihood) per
    entry.
    """
    terms = [carried for *_, carried in blocks]
    fresh = [b for b, carried in enumerate(terms) if carried is None]
    if fresh:
        ks = [blocks[b][0] for b in fresh]
        atoms = [blocks[b][1] for b in fresh]
        prevs, nexts = zip(*(blocks[b][2] for b in fresh))
        linked = [i for i, nxt in enumerate(nexts) if nxt is not None]
        factors = cache.table.log_densities(
            [(a, prev, ctx.gap_index[k]) for k, a, prev in zip(ks, atoms, prevs)]
            + [(nexts[i], atoms[i], ctx.gap_index[ks[i] + 1]) for i in linked]).tolist()
        p_out = dict(zip(linked, factors[len(fresh):]))
        rows = field_rows(cache.mapped, ctx.times[ks], atoms, cache.kp)
        for i, b in enumerate(fresh):
            terms[b] = BlockTerms(factors[i], p_out.get(i), rows[i])
    logliks = loglik_rows([k for k, *_ in blocks], np.stack([t.field for t in terms]), ctx, hypers, phi)
    return list(zip(terms, logliks.tolist()))


def block_score(count: int, terms: BlockTerms, loglik: float, hypers: ScalarHypers, j_max: int) -> float:
    """Log full conditional of a time block from its terms and likelihood
    (boundary blocks one-sided).

    Contains the count factor, the incoming process factors of block k, the
    outgoing factors of block k+1 (whose transition-vs-initial split depends
    on this block's count), and the time-k likelihood slice.
    """
    if not 1 <= count <= j_max:
        return -np.inf
    lp = count_log_factor(count, hypers.lam)
    lp += terms.p_in
    if not np.isfinite(lp):
        return -np.inf
    if terms.p_out is not None:
        lp += terms.p_out
    if not np.isfinite(lp):
        return -np.inf
    return lp + loglik


def block_logpost(k: int, atoms_k: LatentAtoms, neighbors: tuple, cache: ThetaCache,
                  ctx: ModelContext, hypers: ScalarHypers, phi: np.ndarray | None,
                  j_max: int) -> float:
    """Log full conditional of time block k holding `atoms_k`: the score of its fresh terms."""
    [(terms, loglik)] = score_blocks([(k, atoms_k, neighbors, None)], cache, ctx, hypers, phi)
    return block_score(atoms_k.count, terms, loglik, hypers, j_max)


def _draw_mult_eps(rng: np.random.Generator, floor: float) -> float:
    while True:
        eps = rng.uniform(-1.0, 1.0)
        if abs(eps) > floor:
            return eps


_LOG_HALF_NORMAL_CONST = 0.5 * math.log(2.0 / math.pi)


def _log_half_normal(u: np.ndarray) -> np.ndarray:
    """Log density of |N(0, 1)| at u >= 0."""
    u = np.asarray(u, dtype=float)
    return _LOG_HALF_NORMAL_CONST - 0.5 * u * u


# ---------------------------------------------------------------------------
# transdimensional moves
# ---------------------------------------------------------------------------
# A move is proposed, scored and accepted in three steps.  The proposers
# make every draw of a move but the acceptance draw and return the proposal,
# its log ratio beyond the two conditionals, and the draws in `info`.

def _propose_birth(atoms_k, ctx, cfg, rng):
    J = atoms_k.count
    if J >= cfg.j_max:
        raise InvalidStateError("birth proposed at the count ceiling")
    additive = rng.random() <= cfg.p_add
    j = int(rng.integers(J))
    p = ctx.p
    child_pos = J if cfg.exact_acceptance else j + 1
    info = {"branch": "additive" if additive else "multiplicative", "j": j,
            "child_pos": child_pos}

    mu, beta = atoms_k.mu, atoms_k.beta
    if additive:
        eps1 = rng.standard_normal()
        eps_mu = rng.standard_normal(p)
        steps = cfg.scale * np.abs(np.concatenate([[eps1], eps_mu]))
        if cfg.exact_acceptance:
            signs = rng.integers(0, 2, size=p + 1) * 2.0 - 1.0
        else:
            signs = np.ones(p + 1)
        beta_new = np.insert(beta, child_pos, beta[j] - signs[0] * steps[0])
        beta_new[j] = beta[j] + signs[0] * steps[0]
        mu_new = np.insert(mu, child_pos, mu[j] - signs[1:] * steps[1:], axis=0)
        mu_new[j] = mu[j] + signs[1:] * steps[1:]
        if cfg.exact_acceptance:
            u = np.abs(np.concatenate([[eps1], eps_mu]))
            log_struct = float(np.sum(math.log(4.0 * cfg.scale) - _log_half_normal(u)))
        else:
            log_struct = (p + 1) * (math.log(2.0) + math.log(cfg.scale))
        info.update(eps1=eps1, eps_mu=eps_mu, signs=signs)
    else:
        eps1 = _draw_mult_eps(rng, cfg.eps_floor)
        eps_mu = np.array([_draw_mult_eps(rng, cfg.eps_floor) for _ in range(p)])
        beta_new = np.insert(beta, child_pos, beta[j] / eps1)
        beta_new[j] = beta[j] * eps1
        mu_new = np.insert(mu, child_pos, mu[j] / eps_mu, axis=0)
        mu_new[j] = mu[j] * eps_mu
        with np.errstate(divide="ignore"):
            log_struct = float(np.log(abs(beta[j])) - np.log(abs(eps1))
                               + np.sum(np.log(np.abs(mu[j])) - np.log(np.abs(eps_mu))))
        if cfg.exact_acceptance:
            # pair Jacobian 2|x|/|eps| per coordinate times the draw densities
            log_struct += (p + 1) * (math.log(2.0) + math.log(1.0 - cfg.eps_floor))
        info.update(eps1=eps1, eps_mu=eps_mu)

    wb, _, _ = move_weights(J, cfg)
    _, wd_new, _ = move_weights(J + 1, cfg)
    log_struct += math.log(wd_new) - math.log(wb)
    if not cfg.exact_acceptance:
        # printed selection factor: child pair chosen among all J+1 atoms
        log_struct -= math.log(J + 1)
    info["log_struct"] = log_struct
    return LatentAtoms(mu_new, beta_new), log_struct, info


def _propose_death(atoms_k, ctx, cfg, rng):
    J = atoms_k.count
    if J < 2:
        raise InvalidStateError("death proposed with a single atom")
    additive = rng.random() <= cfg.p_add
    if cfg.exact_acceptance:
        lo = int(rng.integers(J - 1))
        hi = J - 1
    else:
        j = int(rng.integers(J))
        j2 = int(rng.integers(J - 1))
        if j2 >= j:
            j2 += 1
        lo, hi = min(j, j2), max(j, j2)
    p = ctx.p
    info = {"branch": "additive" if additive else "multiplicative", "lo": lo, "hi": hi}

    mu, beta = atoms_k.mu, atoms_k.beta
    pair_lo = np.concatenate([[beta[lo]], mu[lo]])
    pair_hi = np.concatenate([[beta[hi]], mu[hi]])
    unreachable = False
    if additive:
        merged_beta = 0.5 * (beta[lo] + beta[hi])
        merged_mu = 0.5 * (mu[lo] + mu[hi])
        if cfg.exact_acceptance:
            u = np.abs(pair_lo - pair_hi) / (2.0 * cfg.scale)
            log_struct = float(np.sum(_log_half_normal(u) - math.log(4.0 * cfg.scale)))
        else:
            log_struct = -(p + 1) * (math.log(2.0) + math.log(cfg.scale))
    else:
        sign_beta = 1.0 if rng.random() < 0.5 else -1.0
        signs_mu = np.where(rng.random(p) < 0.5, 1.0, -1.0)
        merged_beta = sign_beta * math.sqrt(abs(beta[lo] * beta[hi]))
        merged_mu = signs_mu * np.sqrt(np.abs(mu[lo] * mu[hi]))
        with np.errstate(divide="ignore"):
            log_struct = float(-np.log(abs(beta[hi])) - np.sum(np.log(np.abs(mu[hi]))))
        if cfg.exact_acceptance:
            log_struct -= (p + 1) * (math.log(2.0) + math.log(1.0 - cfg.eps_floor))
            same_sign = pair_lo * pair_hi > 0.0
            ratio_ok = np.abs(pair_lo) < np.abs(pair_hi)
            with np.errstate(divide="ignore", invalid="ignore"):
                implied = np.sqrt(np.abs(pair_lo) / np.abs(pair_hi))
            unreachable = not (np.all(same_sign) and np.all(ratio_ok)
                               and np.all(implied > cfg.eps_floor))
        info.update(sign_beta=sign_beta, signs_mu=signs_mu)

    beta_new = np.delete(beta, hi)
    beta_new[lo] = merged_beta
    mu_new = np.delete(mu, hi, axis=0)
    mu_new[lo] = merged_mu

    _, wd, _ = move_weights(J, cfg)
    wb_new, _, _ = move_weights(J - 1, cfg)
    log_struct += math.log(wb_new) - math.log(wd)
    if not cfg.exact_acceptance:
        log_struct += math.log(J)
    info.update(log_struct=log_struct, unreachable=unreachable)
    return LatentAtoms(mu_new, beta_new), log_struct, info


def _propose_no_change(atoms_k, ctx, cfg, rng):
    J, p = atoms_k.count, ctx.p
    d = (p + 1) * J
    additive = rng.random() <= cfg.p_add
    v = np.concatenate([atoms_k.beta, atoms_k.mu.ravel()])
    info = {"branch": "additive" if additive else "multiplicative"}

    if additive:
        eps = rng.standard_normal()
        b = rng.integers(0, 2, size=d) * 2 - 1
        v_new = v + b * (cfg.shrink * cfg.scale) * abs(eps)
        log_jac = 0.0
    else:
        eps = _draw_mult_eps(rng, cfg.eps_floor)
        b = rng.integers(-1, 2, size=d)
        v_new = v.copy()
        v_new[b == 1] *= eps
        v_new[b == -1] /= eps
        log_jac = float(b.sum()) * math.log(abs(eps))
    info.update(eps=eps, b=b, log_jac=log_jac)
    return LatentAtoms(v_new[J:].reshape(J, p), v_new[:J]), log_jac, info


_PROPOSERS = {"birth": _propose_birth, "death": _propose_death, "no_change": _propose_no_change}


@dataclass
class BlockMove:
    """One time block's move between its propose and accept steps.

    `log_ratio` is every term of the log acceptance ratio besides the two
    conditionals (log_struct or log_jac), and `rng` the block's stream, which
    still owes the acceptance draw.
    """

    k: int
    move: str
    current: LatentAtoms
    proposal: LatentAtoms
    log_ratio: float
    info: dict
    rng: np.random.Generator

    @property
    def reachable(self) -> bool:
        """False for a merge no birth can undo, which is rejected unscored."""
        return not self.info.get("unreachable", False)

    def accept(self, lp_cur: float, lp_prop: float | None) -> bool:
        """The acceptance draw; `lp_prop` is None for an unreachable merge."""
        log_alpha = lp_prop - lp_cur + self.log_ratio if self.reachable else -np.inf
        self.info.update(log_alpha=log_alpha, lp_cur=lp_cur, lp_prop=lp_prop)
        return _mh_accept(log_alpha, self.rng)


def propose_block(k: int, atoms_k: LatentAtoms, ctx: ModelContext, cfg: SamplerConfig,
                  rng: np.random.Generator) -> BlockMove:
    """The multinomial move-type draw and that move's proposal at block k."""
    wb, wd, _ = move_weights(atoms_k.count, cfg)
    u = rng.random()
    if u < wb:
        move = "birth"
    elif u < wb + wd:
        move = "death"
    else:
        move = "no_change"
    return BlockMove(k, move, atoms_k, *_PROPOSERS[move](atoms_k, ctx, cfg, rng), rng)


def settle_blocks(moves: list[BlockMove], neighbors: list[tuple], current: list[BlockTerms | None],
                  cache: ThetaCache, ctx: ModelContext, hypers: ScalarHypers,
                  phi: np.ndarray | None, j_max: int) -> list[tuple[bool, BlockTerms]]:
    """Score the moves in one `score_blocks` pass, then accept or reject each.

    `neighbors[b]` holds the (previous, next) atoms of move b's block and
    `current[b]` its carried terms (None: computed in the same pass).
    Unreachable merges are left out of the pass.  Returns, per move, the
    acceptance and the terms of the block's atoms after it.
    """
    blocks = [(mv.k, mv.current, nb, cur) for mv, nb, cur in zip(moves, neighbors, current)]
    scored = [b for b, mv in enumerate(moves) if mv.reachable]
    blocks += [(moves[b].k, moves[b].proposal, neighbors[b], None) for b in scored]
    scores = score_blocks(blocks, cache, ctx, hypers, phi)
    proposed = dict(zip(scored, scores[len(moves):]))
    out = []
    for b, mv in enumerate(moves):
        cur_terms, cur_loglik = scores[b]
        lp_cur = block_score(mv.current.count, cur_terms, cur_loglik, hypers, j_max)
        prop_terms, lp_prop = None, None
        if b in proposed:
            prop_terms, prop_loglik = proposed[b]
            lp_prop = block_score(mv.proposal.count, prop_terms, prop_loglik, hypers, j_max)
        accepted = mv.accept(lp_cur, lp_prop)
        out.append((accepted, prop_terms if accepted else cur_terms))
    return out


def _move(move, k, atoms_k, neighbors, cache, ctx, hypers, cfg, rng, phi, cur):
    """One move at block k on its own: propose, score the batch of one, accept."""
    mv = BlockMove(k, move, atoms_k, *_PROPOSERS[move](atoms_k, ctx, cfg, rng), rng)
    [(accepted, terms)] = settle_blocks([mv], [neighbors], [cur], cache, ctx, hypers, phi, cfg.j_max)
    mv.info["terms"] = terms
    return (mv.proposal if accepted else atoms_k), accepted, mv.info


# Each move takes the current block's carried terms as `cur` (None: computed
# from scratch) and returns the terms of the atoms it returns in info["terms"].

def ttmcmc_birth(k, atoms_k, neighbors, cache, ctx, hypers, cfg, rng, phi=None, cur=None):
    """Split one atom into two; dimension J -> J + 1.

    Additive branch: the selected atom splits into (x + a|e|, x - a|e|) per
    coordinate with independent standard-normal draws; multiplicative branch
    into (x e, x / e) with uniform draws above the floor.  With exact
    acceptance the additive split signs are symmetrized, the second child is
    appended at the end (no index shifts, so cross-time chain pairings of
    untouched atoms are preserved), and the acceptance carries the auxiliary
    densities, making the move pair exactly reversible.
    """
    return _move("birth", k, atoms_k, neighbors, cache, ctx, hypers, cfg, rng, phi, cur)


def ttmcmc_death(k, atoms_k, neighbors, cache, ctx, hypers, cfg, rng, phi=None, cur=None):
    """Merge two atoms into one; dimension J -> J - 1.

    Additive branch merges the selected pair to its midpoint; the
    multiplicative branch to +-sqrt(|x_j x_j'|) with independent signs.  With
    exact acceptance the partner is always the last atom (the only pairing
    reachable by the append-at-end birth) and the factors mirror the matching
    birth, including the implied auxiliary densities; multiplicative merges
    of pairs no multiplicative birth can produce are rejected outright,
    without scoring the proposal (info["lp_prop"] is then None).
    """
    return _move("death", k, atoms_k, neighbors, cache, ctx, hypers, cfg, rng, phi, cur)


def ttmcmc_no_change(k, atoms_k, neighbors, cache, ctx, hypers, cfg, rng, phi=None, cur=None):
    """Jointly perturb all (p+1)J atom coordinates; dimension unchanged."""
    return _move("no_change", k, atoms_k, neighbors, cache, ctx, hypers, cfg, rng, phi, cur)


def _mh_accept(log_alpha: float, rng: np.random.Generator) -> bool:
    if math.isnan(log_alpha):
        return False
    if log_alpha >= 0.0:
        # Still consume one uniform so the draw sequence does not depend on
        # the acceptance outcome.
        rng.random()
        return True
    return math.log(rng.random()) < log_alpha


def _neighbors(atoms, k: int) -> tuple:
    return (atoms[k - 1] if k > 0 else None, atoms[k + 1] if k < len(atoms) - 1 else None)


def update_time_block(k, atoms_snapshot, cache, ctx, hypers, cfg, rng, phi=None, cur=None):
    """One multinomial move-type draw and the corresponding move at index k.

    Returns the block's new atoms, the move, the acceptance and the terms of
    the new atoms; `cur` holds the current block's carried terms, if any.
    """
    mv = propose_block(k, atoms_snapshot[k], ctx, cfg, rng)
    [(accepted, terms)] = settle_blocks([mv], [_neighbors(atoms_snapshot, k)], [cur], cache, ctx,
                                        hypers, phi, cfg.j_max)
    return (mv.proposal if accepted else mv.current), mv.move, accepted, terms


# ---------------------------------------------------------------------------
# fixed-dimension block update
# ---------------------------------------------------------------------------

def theta_score(theta, terms: StateTerms, state, ctx) -> float:
    """Log conditional of the fixed-dimension block at theta, from the terms
    of the state's atoms under theta."""
    lp = log_prior_theta(theta, ctx.layout, state.nu, state.omega_sq, ctx.prior)
    process = terms.process[0]
    for factor in terms.process[1:]:
        process += factor
    lp += process
    if not np.isfinite(lp):
        return -np.inf
    return lp + reduce_sum(loglik_rows(range(ctx.m), terms.field.T, ctx, state.hypers, state.phi))


def theta_logpost(theta, state, ctx):
    """Log conditional of the fixed-dimension block given everything else,
    with the state's terms under theta ((-inf, None) outside the bounds)."""
    if not theta_in_bounds(theta, ctx.layout):
        return -np.inf, None
    terms = StateTerms.build(ThetaCache.build(theta, ctx, state.nu, state.omega_sq), state.atoms, ctx)
    return theta_score(theta, terms, state, ctx), terms


def tmcmc_update_theta(state, ctx, cfg, rng, cur_lp, cur_terms):
    """Whole-block proposal driven by one scalar draw with per-coordinate
    signs (additive) or factors (multiplicative)."""
    d = ctx.layout.dim
    theta = state.theta
    info = {}
    if rng.random() <= cfg.p_add:
        eps = rng.standard_normal()
        b = rng.integers(0, 2, size=d) * 2 - 1
        proposal = theta + b * cfg.scale * abs(eps)
        log_jac = 0.0
        info.update(branch="additive", eps=eps, b=b)
    else:
        eps = _draw_mult_eps(rng, cfg.eps_floor)
        b = rng.integers(-1, 2, size=d)
        proposal = theta.copy()
        proposal[b == 1] *= eps
        proposal[b == -1] /= eps
        log_jac = float(b.sum()) * math.log(abs(eps))
        info.update(branch="multiplicative", eps=eps, b=b)
    lp_prop, terms_prop = theta_logpost(proposal, state, ctx)
    log_alpha = lp_prop - cur_lp + log_jac
    info.update(proposal=proposal, log_jac=log_jac, log_alpha=log_alpha,
                lp_prop=lp_prop, lp_cur=cur_lp)
    if _mh_accept(log_alpha, rng):
        return proposal, lp_prop, terms_prop, True, info
    return theta, cur_lp, cur_terms, False, info


def mixing_enhancement(state, ctx, cfg, rng, cur_lp, cur_terms):
    """Second pass over the block with common-direction proposals."""
    d = ctx.layout.dim
    theta = state.theta
    info = {}
    if rng.random() <= cfg.q_add:
        u_dir = rng.random()
        eps = rng.standard_normal()
        step = (cfg.shrink * cfg.scale) * abs(eps)
        proposal = theta + step if u_dir < 0.5 else theta - step
        log_jac = 0.0
        info.update(branch="additive", eps=eps, up=u_dir < 0.5)
    else:
        eps = _draw_mult_eps(rng, cfg.eps_floor)
        u_dir = rng.random()
        if u_dir < 0.5:
            proposal = theta * eps
            log_jac = d * math.log(abs(eps))
        else:
            proposal = theta / eps
            log_jac = -d * math.log(abs(eps))
        info.update(branch="multiplicative", eps=eps, up=u_dir < 0.5)
    lp_prop, terms_prop = theta_logpost(proposal, state, ctx)
    log_alpha = lp_prop - cur_lp + log_jac
    info.update(proposal=proposal, log_jac=log_jac, log_alpha=log_alpha,
                lp_prop=lp_prop, lp_cur=cur_lp)
    if _mh_accept(log_alpha, rng):
        return proposal, lp_prop, terms_prop, True, info
    return theta, cur_lp, cur_terms, False, info


# ---------------------------------------------------------------------------
# Gibbs updates for the scalar block
# ---------------------------------------------------------------------------

def gibbs_update_zeta(state: SamplerState, ctx: ModelContext, rng: np.random.Generator,
                      reduced: dict) -> None:
    """Exact draws from the printed full conditionals, in a fixed scan order.

    `reduced` carries the parallel-reduced sums: total atom count, squared
    residuals, unsquared residuals, and squared effect deviations.
    """
    prior = ctx.prior
    hyp = state.hypers
    if reduced["resid_sq"] < 0.0 or reduced.get("phi_dev_sq", 0.0) < 0.0:
        raise InvalidStateError("negative reduced variance term")

    hyp.lam = rng.gamma(prior.lambda_a + reduced["j_total"]) / (prior.lambda_b + ctx.m)

    n_obs = ctx.n * ctx.m
    shape = prior.ig_a_tight + 0.5 * n_obs
    rate = prior.ig_b_tight + 0.5 * reduced["resid_sq"]
    hyp.sigma_sq_eps = rate / rng.gamma(shape)

    if not ctx.alpha_pinned:
        hyp.alpha = effects.gibbs_update_alpha(
            reduced["resid_alpha"], n_obs, ctx.var_effective(hyp), hyp.sigma_sq_alpha,
            prior.mu_alpha, rng)
        hyp.sigma_sq_alpha = effects.gibbs_update_sigma_sq_alpha(
            hyp.alpha, prior.mu_alpha, prior.ig_a_tight, prior.ig_b_tight, rng)

    if not ctx.marginalized:
        hyp.sigma_sq_phi = effects.gibbs_update_sigma_sq_phi(
            reduced["phi_dev_sq"], n_obs, prior.ig_a_tight, prior.ig_b_tight, rng)

    # Closed forms for the map-slope hyperparameters, one dimension at a time.
    x = state.theta[ctx.layout.sl_x]
    for ell in range(ctx.p):
        post_var = 1.0 / (1.0 / state.omega_sq[ell] + 1.0 / prior.nu_var)
        post_mean = post_var * x[ell] / state.omega_sq[ell]
        state.nu[ell] = post_mean + math.sqrt(post_var) * rng.standard_normal()
        shape = prior.ig_a + 0.5
        rate = prior.ig_b + 0.5 * (x[ell] - state.nu[ell]) ** 2
        state.omega_sq[ell] = rate / rng.gamma(shape)


# ---------------------------------------------------------------------------
# sampler driver
# ---------------------------------------------------------------------------

class Sampler:
    """Owns the iteration schedule, worker pool and random streams."""

    def __init__(self, data: SpaceTimeDataset, cfg: SamplerConfig, prior: PriorConfig,
                 marginalized: bool = True, alpha_pinned: bool | None = None,
                 phi0_override: np.ndarray | None = None, pool: WorkerPool | None = None):
        self.cfg = cfg
        self.ctx = build_context(data, prior, marginalized, alpha_pinned, phi0_override)
        self.pool = pool if pool is not None else WorkerPool(cfg.workers)
        self._owns_pool = pool is None

    def close(self):
        if self._owns_pool:
            self.pool.close()

    # -- initialization ----------------------------------------------------

    def initial_state(self) -> SamplerState:
        """Prior medians for the block parameters, prior means for the
        scalars, and atoms from their initial laws."""
        ctx, prior, cfg = self.ctx, self.ctx.prior, self.cfg
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
        _, _, beta_spec, mu_specs = unpack_theta(theta, layout, ctx.ar_mode, nu, omega_sq)
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
        return SamplerState(atoms=atoms, theta=theta, hypers=hypers, nu=nu,
                            omega_sq=omega_sq, phi=phi)

    # -- one full iteration --------------------------------------------------

    def iterate(self, state: SamplerState, r: int, stats: MoveStats) -> SamplerState:
        ctx, cfg = self.ctx, self.cfg
        if state.terms is None:
            state.terms = StateTerms.build(ThetaCache.build(state.theta, ctx, state.nu, state.omega_sq),
                                           state.atoms, ctx)
        terms = state.terms

        # transdimensional phases: odd (1-based) indices first, then even;
        # blocks of one parity are independent given the other parity, so
        # each phase proposes every move, scores them in one batched pass
        # and then accepts or rejects each
        for first in (0, 1):
            ks = range(first, ctx.m, 2)
            moves = [propose_block(k, state.atoms[k], ctx, cfg, stream(cfg.seed, _S_BLOCK, r, k)) for k in ks]
            outcomes = settle_blocks(moves, [_neighbors(state.atoms, k) for k in ks],
                                     [terms.block(k) for k in ks], terms.cache, ctx,
                                     state.hypers, state.phi, cfg.j_max)
            for mv, (accepted, block) in zip(moves, outcomes):
                if accepted:
                    state.atoms[mv.k] = mv.proposal
                    terms.store(mv.k, block)
                stats.record(mv.move, accepted)

        # fixed-dimension block plus enhancement at the coordinator
        rng_t = stream(cfg.seed, _S_THETA, r)
        cur_lp = theta_score(state.theta, terms, state, ctx)
        state.theta, cur_lp, terms, acc, _ = tmcmc_update_theta(state, ctx, cfg, rng_t, cur_lp, terms)
        stats.record("tmcmc", acc)
        state.theta, cur_lp, terms, acc, _ = mixing_enhancement(state, ctx, cfg, rng_t, cur_lp, terms)
        stats.record("enhance", acc)
        state.terms = terms

        # random-effect draws (explicit mode), then the scalar Gibbs block
        fmat = terms.field
        if not ctx.marginalized:
            hypers = state.hypers

            def phi_work(k):
                rng = stream(cfg.seed, _S_PHI, r, k)
                return effects.gibbs_update_phi_column(
                    ctx.y[:, k], fmat[:, k], hypers.alpha, hypers.sigma_sq_phi,
                    hypers.sigma_sq_eps, ctx.phi0[:, k], rng)

            cols = self.pool.map_indices(range(ctx.m), phi_work)
            state.phi = np.column_stack(cols)

        reduced = self._reduced_sums(state, fmat)
        gibbs_update_zeta(state, ctx, stream(cfg.seed, _S_ZETA, r), reduced)
        return state

    def _reduced_sums(self, state: SamplerState, fmat: np.ndarray) -> dict:
        ctx = self.ctx
        phi_eff = ctx.phi_effective(state.phi)
        hyp = state.hypers

        def col_sums(k):
            resid = ctx.y[:, k] - hyp.alpha - phi_eff[:, k] - fmat[:, k]
            out = [float(resid @ resid), float(resid.sum()) + ctx.n * hyp.alpha]
            if not ctx.marginalized:
                dev = state.phi[:, k] - ctx.phi0[:, k]
                out.append(float(dev @ dev))
            return out

        parts = self.pool.map_indices(range(ctx.m), col_sums)
        reduced = {
            "j_total": sum(a.count for a in state.atoms),
            "resid_sq": reduce_sum(p[0] for p in parts),
            "resid_alpha": reduce_sum(p[1] for p in parts),
        }
        if not ctx.marginalized:
            reduced["phi_dev_sq"] = reduce_sum(p[2] for p in parts)
        return reduced

    # -- full run ------------------------------------------------------------

    def run(self) -> ChainResult:
        cfg, ctx = self.cfg, self.ctx
        state = self.initial_state()
        stats = MoveStats()
        samples: list[ChainSample] = []
        for r in range(cfg.iterations):
            state = self.iterate(state, r, stats)
            if r >= cfg.burn_in and (r - cfg.burn_in) % cfg.thin == cfg.thin - 1:
                samples.append(self._record(state, r))
        meta = {
            "p": ctx.p, "n": ctx.n, "m": ctx.m,
            "mode": "marginalized" if ctx.marginalized else "explicit",
            "ar_mode": ctx.ar_mode.value,
            "seed": cfg.seed, "iterations": cfg.iterations,
            "burn_in": cfg.burn_in, "thin": cfg.thin, "j_max": cfg.j_max,
            "workers": cfg.workers,
        }
        return ChainResult(samples=samples, stats=stats, meta=meta)

    def _record(self, state: SamplerState, r: int) -> ChainSample:
        hyp = state.hypers
        return ChainSample(
            iteration=r,
            atoms=[a.copy() for a in state.atoms],
            theta=state.theta.copy(),
            lam=hyp.lam, sigma_sq_eps=hyp.sigma_sq_eps, alpha=hyp.alpha,
            sigma_sq_alpha=hyp.sigma_sq_alpha, sigma_sq_phi=hyp.sigma_sq_phi,
            nu=state.nu.copy(), omega_sq=state.omega_sq.copy(),
            phi=None if state.phi is None else state.phi.copy(),
        )


def run_chain(data: SpaceTimeDataset, cfg: SamplerConfig, prior: PriorConfig,
              marginalized: bool = True, alpha_pinned: bool | None = None) -> ChainResult:
    """Run the full schedule and return the thinned post-burn-in chain."""
    sampler = Sampler(data, cfg, prior, marginalized=marginalized, alpha_pinned=alpha_pinned)
    try:
        return sampler.run()
    finally:
        sampler.close()


# ---------------------------------------------------------------------------
# posterior prediction
# ---------------------------------------------------------------------------

@dataclass
class PredictionBands:
    locations: np.ndarray          # (q, p)
    times: np.ndarray              # (mt,)
    quantiles: dict[float, np.ndarray]  # each (q, mt), original scale
    draws: np.ndarray | None = None     # (S, q, mt), original scale


def _grid_index(t: float, times: np.ndarray) -> int:
    hits = np.flatnonzero(times == t)
    if hits.size == 0:
        hits = np.flatnonzero(np.isclose(times, t, rtol=0.0, atol=1e-12))
    if hits.size == 0:
        raise UnsupportedPredictionError(f"time {t} is not on the training grid")
    return int(hits[0])


def posterior_predict(samples: list[ChainSample], new_locations: np.ndarray,
                      new_times: np.ndarray, data: SpaceTimeDataset,
                      marginalized: bool = True, seed: int = 0,
                      probs: tuple[float, ...] = (1 / 16, 0.5, 15 / 16),
                      keep_draws: bool = False) -> PredictionBands:
    """Per-sample predictive draws and pointwise quantile bands.

    Predictions run in the (standardized) model scale and are transformed
    back to the original units when the dataset carries statistics.
    """
    if not samples:
        raise InvalidArgumentError("empty chain")
    new_locations = np.atleast_2d(np.asarray(new_locations, dtype=float))
    new_times = np.atleast_1d(np.asarray(new_times, dtype=float))
    layout, ar_mode = ThetaLayout(p=data.p), mode_for_times(data.times)
    knots, _ = _map_knots(data.locations)
    time_idx = [_grid_index(t, data.times) for t in new_times]
    q, mt = new_locations.shape[0], new_times.size
    phi0_new = effects.phi0_predict(data.locations, data.times, data.y, new_locations, new_times)

    rng = stream(seed, _S_PREDICT)
    draws = np.empty((len(samples), q, mt))
    for s_i, smp in enumerate(samples):
        kp, mp, _, _ = unpack_theta(smp.theta, layout, ar_mode, smp.nu, smp.omega_sq)
        fit = monotone_map_fit(list(knots), mp)
        mapped_new = np.column_stack([monotone_map_extend(new_locations[:, ell], ell, fit, mp)
                                      for ell in range(data.p)])
        for b, k in enumerate(time_idx):
            f = field_values(mapped_new, data.times[k], smp.atoms[k], kp)
            mean = smp.alpha + phi0_new[:, b] + f
            if marginalized:
                noise_sd = math.sqrt(smp.sigma_sq_eps + smp.sigma_sq_phi)
                draws[s_i, :, b] = mean + noise_sd * rng.standard_normal(q)
            else:
                phi_draw = math.sqrt(smp.sigma_sq_phi) * rng.standard_normal(q)
                draws[s_i, :, b] = mean + phi_draw + math.sqrt(smp.sigma_sq_eps) * rng.standard_normal(q)

    if data.standardized:
        draws = draws * data.sd + data.mean
    bands = {float(pr): np.quantile(draws, pr, axis=0) for pr in probs}
    return PredictionBands(locations=new_locations, times=new_times, quantiles=bands,
                           draws=draws if keep_draws else None)
