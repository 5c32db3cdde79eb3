"""Transdimensional MCMC engine: birth/death/no-change moves per time block,
block updates of the fixed-dimension parameters via shared-draw proposals, a
mixing-enhancement pass, and exact Gibbs draws for the remaining scalars.

Per iteration: odd time blocks -> even time blocks -> fixed-dimension block
-> enhancement -> random effects (explicit mode) -> scalar Gibbs.  Every
phase draws from a dedicated generator keyed by (seed, stream id,
iteration[, parity]) (`stream`), in arrays whose shapes depend on the
problem's size alone, so each draw is a function of its key and its place
in the array: the stored chain does not depend on the worker count, and a
longer chain begins with a shorter one.

The atoms of every block live in one padded store (`AtomStore`): chain rows
[beta | mu] per block and slot, plus a count per block.  Blocks of one
parity are conditionally independent given the other parity, and only a
block's process factors read another block's atoms, so the two parity
phases run as one sweep (`update_time_block`).  Draw: each phase's
generator draws one row of uniforms and one row of normals per block, with
a column for every draw a move can need, whatever each block's count or
move (`draw_blocks`); the two phases' arrays are stacked, odd blocks first.
Propose: the move types, every proposal of both parities and their log
ratios are formed at once as masked array arithmetic on the store
(`propose_blocks`).  Field and likelihood: one `field_rows` call builds the
field row of every proposal, with one stacked product per atom count, and
one `loglik_rows` call the likelihood of every proposal and of every current
block from its stored field.  An earlier phase writes no atom and no field
column of a later one, so these are the values each phase would compute for
itself.  Then, phase by phase:
one `ProcessTable.log_densities` call gives the incoming and outgoing
process factors of the phase's proposals against their neighbours in the
store (`block_factors`), one `block_scores` call values the phase's current
blocks and proposals together, one comparison of each block's log acceptance
uniform with its log ratio accepts or rejects, and the accepted atoms,
field columns and process factors are written back, so the store always
holds the current atoms and the next phase reads its neighbours there.  A
multiplicative merge that no birth can undo is rejected without a score.
`Sampler.iterate` sweeps once per iteration; a single block is a sweep of
one phase of one.

The state carries the terms of its current theta (`StateTerms`): the
theta's `ThetaCache`, each block's incoming process factor
P_k = log p(atoms_k | atoms_{k-1}) and each block's field column f_k.  Only
proposals are scored.  A block move values the current block at its count
factor + P_k + P_{k+1} + the likelihood of the stored f_k, and an accepted
move writes back its proposal's P_k, P_{k+1} and f_k; blocks of one parity
touch disjoint entries.  The theta phase values the current theta at its
prior + sum_k P_k + the likelihoods of the columns after the sweep, which
the sweep returns.  Its two proposals (`tmcmc_proposal`, then
`enhancement_proposal`) are pure functions of theta and the phase's
generator; each in-bounds proposal builds one cache and scores all m blocks
in one batched pass (`theta_logpost`), one uniform drawn after its draws
accepts it by the sweep's rule, log(u) < log_alpha with a NaN rejecting,
and an accepted proposal hands over its own cache, factors and columns.
What that pass forms from the atoms alone (`AtomOperands`: the
predecessor store, the slot masks and table columns, the out-of-bounds
blocks and the atoms in the field's count order) is formed once per theta
phase, from the atoms the sweep leaves, and shared by both proposals; per
proposal remain the cache, the table lookups and sums, the kernel, the
field products and the likelihoods.
The cache is a function of theta alone and holds the AR transition table
(mean multiplier, variance and log variance for every distinct time gap and
coordinate chain).  Nothing in the terms reads the Gibbs scalars or the
effects, so they carry over to the next iteration; only the likelihood is
recomputed from the stored columns.

Batching keeps the terms, not every bit.  Each batched likelihood equals
its per-block reference `loglik_slice` bit for bit.  Each batched process
factor adds the same elementwise terms as `atom_block_log_density` in
another order, within 2 L eps sum|t| of it over a block's L = (p+1) J
terms t; each field row is built from the one-product kernel, whose
exponent is within 4 (p+2) eps (sum_l ksq_l (M_l^2 + mu_l^2) + time term
+ 1) of the per-coordinate form, and agrees with `field_values` to the
field error those kernel errors allow.  Each row's product with its betas
is its block's own (n, J) matrix-vector product on the same shapes and
strides, whether taken alone or stacked with the other blocks of count J.
Carried terms are the values a batched evaluation gives, so carrying
changes no bit.

Prediction (`posterior_predict`) works on the whole chain at once.  The
exponentials of every theta, the mapped new locations (the map's data-only
terms once, then each chunk of samples' knot values and extensions as
arrays), the kernel parameter checks, the grid index of every new time, the
noise and every band are whole-chain arrays; the bands interpolate between
the draws as `np.quantile` does, after one sort of the sample axis
(`_bands`).  So are the fields' kernel operands, atom gathers, time terms
and exponentials, chunk by chunk (`_chain_fields`); per sample remain only
the two products whose bits follow the sample's own atom count (its
ksq @ mu^2 row and its kernel exponent), and each (sample, time) field is
one slice of a stacked product over every pair with the same atom count,
read as a view of the chunk's kernel regrouped by count.  Each value equals
a per-sample loop's bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import invgamma, norm

from . import effects
from .ar import ArMode, ArSpec, mode_for_times, step_gaps
from .data import SpaceTimeDataset
from .errors import ConfigError, InvalidArgumentError, InvalidStateError, NumericError, UnsupportedPredictionError
from .model import (
    COORD_BOUND,
    AtomStore,
    FieldOperands,
    KernelParams,
    LatentAtoms,
    MapGrid,
    PriorConfig,
    ProcessOperands,
    ProcessTable,
    ScalarHypers,
    ThetaLayout,
    atom_block_log_density,
    atom_process_log_density,
    check_map_params,
    count_log_factor,
    field_rows,
    field_values,
    log_observation_density,
    log_prior_theta,
    map_extension,
    monotone_map_extend,
    rows_by_count,
    unpack_theta,
)

# The names that perfbench's traced run (`perfbench/run.py install_tracing`)
# patches, and `tests/test_perfbench_tracing.py` checks, though neither
# `fit` nor `predict` calls them.  Each stays where the benchmark looks it
# up until the benchmark reads per-layer times from the program itself:
# - `atom_block_log_density` (here and in `model`), with its helpers
#   `model.chain_factor` and `model.atoms_in_bounds`, and
#   `atom_process_log_density`: the per-block process densities that
#   `ProcessTable` reproduces within rounding;
# - `field_values`: the one-block field that `field_rows` reproduces within
#   rounding;
# - `loglik_slice`: the one-block likelihood that `loglik_rows` equals bit
#   for bit;
# - `monotone_map_extend`, with `model.MonotoneMapFit`: the one-theta map
#   extension that prediction forms for the whole chain;
# - `effects.gibbs_update_phi_column`: one effect column's draw, which
#   `effects.gibbs_update_phi_matrix` forms for every column at once;
# - `levyst.runtime.WorkerPool`, which the program does not import, and
#   `SamplerConfig.workers`, which only the chain's metadata records; the
#   benchmark's worker-invariance check and `tools/chain_digest.py` set it.

# Random stream identifiers.
_S_INIT, _S_BLOCK, _S_THETA, _S_PHI, _S_ZETA, _S_PREDICT = range(6)

MOVE_NAMES = ("birth", "death", "no_change", "tmcmc", "enhance")


def stream(seed: int, *key: int) -> np.random.Generator:
    """Dedicated generator for one (stream id, iteration, index) slot."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


# ---------------------------------------------------------------------------
# configuration and bookkeeping
# ---------------------------------------------------------------------------

# Fixed proposal tuning of the TTMCMC block moves (Das and Bhattacharya
# 2019) and the TMCMC theta moves (Dutta and Bhattacharya 2014).
BASE_WEIGHTS = (1 / 3, 1 / 3, 1 / 3)  # birth, death, no-change, before the boundary rule
P_ADD = 0.5      # additive share of the block and theta moves
Q_ADD = 0.5      # additive share of the enhancement step
EPS_FLOOR = 0.01  # |e| floor of multiplicative factors


@dataclass(frozen=True)
class SamplerConfig:
    """The schedule, the atom cap, the additive scale a and the shrink
    factor c of a chain; the rest of the proposal tuning is fixed
    (`BASE_WEIGHTS`, `P_ADD`, `Q_ADD`, `EPS_FLOOR`)."""

    iterations: int = 110_000
    burn_in: int = 10_000
    thin: int = 10
    j_max: int = 50
    scale: float = 0.05        # additive scaling constant a
    shrink: float = 0.01       # factor c applied for joint/no-change proposals
    workers: int = 1           # only recorded in the chain's metadata; a chain runs in one thread
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 0 or not 0 <= self.burn_in <= self.iterations:
            raise ConfigError("need 0 <= burn_in <= iterations")
        if self.thin < 1 or (self.iterations > 0 and self.thin > self.iterations):
            raise ConfigError("thinning stride must be in [1, iterations]")
        if self.j_max < 1:
            raise ConfigError("j_max must be >= 1")
        if not 0.0 < self.scale < math.inf:
            raise ConfigError(f"scale must be positive and finite, got {self.scale}")
        if not 0.0 < self.shrink < 1.0:
            raise ConfigError(f"shrink must be in (0, 1), got {self.shrink}")
        if self.workers < 1:
            raise ConfigError("worker count must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def move_weights(J, j_max: int):
    """(birth, death, no-change) probabilities at the current count J, or
    elementwise at an array of counts, below the cap j_max."""
    wb, wd, wnc = BASE_WEIGHTS
    J = np.asarray(J)
    wb = np.where(J >= j_max, 0.0, wb)
    wd = np.where(J <= 1, 0.0, wd)
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

    def record_blocks(self, move: np.ndarray, accepted: np.ndarray) -> None:
        """Record a batch of block moves (indices into MOVE_NAMES)."""
        proposed = np.bincount(move, minlength=3).tolist()
        won = np.bincount(move[accepted], minlength=3).tolist()
        for name, n, a in zip(MOVE_NAMES, proposed, won):
            self.proposals[name] += n
            self.accepts[name] += a

    def rate(self, move: str) -> float | None:
        n = self.proposals[move]
        return None if n == 0 else self.accepts[move] / n

    def ttmcmc_counts(self) -> tuple[int, int]:
        """Proposals and accepts of the block moves (birth, death, no-change) together."""
        return sum(self.proposals[m] for m in MOVE_NAMES[:3]), sum(self.accepts[m] for m in MOVE_NAMES[:3])

    def overall_ttmcmc_rate(self) -> float | None:
        props, accs = self.ttmcmc_counts()
        return None if props == 0 else accs / props


@dataclass
class SamplerState:
    atoms: AtomStore  # every time block's atoms; iterating needs j_max slots per block
    theta: np.ndarray
    hypers: ScalarHypers
    nu: np.ndarray
    omega_sq: np.ndarray
    phi: np.ndarray | None = None
    # Terms of theta and the atoms, kept by `Sampler.iterate`, which computes
    # them when None.  Reset to None after changing theta or atoms elsewhere.
    terms: StateTerms | None = None
    # The atoms' operands, formed once for both proposals of `Sampler.iterate`'s
    # theta phase and None outside it.
    operands: AtomOperands | None = None


@dataclass
class ChainSample:
    iteration: int
    store: AtomStore  # every time block's atoms, trimmed to the largest count
    theta: np.ndarray
    lam: float
    sigma_sq_eps: float
    alpha: float
    sigma_sq_alpha: float
    sigma_sq_phi: float
    nu: np.ndarray
    omega_sq: np.ndarray
    phi: np.ndarray | None = None
    _atoms: list[LatentAtoms] | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def atoms(self) -> list[LatentAtoms]:
        """The store's blocks as per-time `LatentAtoms`, built on first read."""
        if self._atoms is None:
            self._atoms = self.store.blocks()
        return self._atoms


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
    alpha_pinned: bool            # the data are standardized: alpha stays at 0
    ar_mode: ArMode
    map_grid: MapGrid             # the maps' data-only terms on the sorted unique coordinates
    knot_inverse: tuple[np.ndarray, ...]
    gaps: np.ndarray              # distinct transition gaps, sorted (only 1 on a regular AR(1) grid)
    gap_index: np.ndarray         # gap_index[k]: row of the gap from times[k-1] to times[k] in gaps (-1 at k=0)
    layout: ThetaLayout

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def m(self) -> int:
        return self.y.shape[1]

    @property
    def p(self) -> int:
        return self.locations.shape[1]

    def phi_effective(self, phi: np.ndarray | None) -> np.ndarray:
        return self.phi0 if self.marginalized else phi

    def var_effective(self, hypers: ScalarHypers) -> float:
        if self.marginalized:
            return hypers.sigma_sq_eps + hypers.sigma_sq_phi
        return hypers.sigma_sq_eps


def _map_grid(locations: np.ndarray) -> tuple[MapGrid, tuple[np.ndarray, ...]]:
    """The map grid on the sorted unique coordinates per dimension, and each
    location's index into them."""
    knots, inverse = [], []
    for ell in range(locations.shape[1]):
        uniq, inv = np.unique(locations[:, ell], return_inverse=True)
        knots.append(uniq)
        inverse.append(inv)
    return MapGrid.build(knots), tuple(inverse)


def build_context(data: SpaceTimeDataset, prior: PriorConfig, marginalized: bool = True,
                  phi0_override: np.ndarray | None = None) -> ModelContext:
    """The constants of a chain on `data`.  Alpha is pinned at 0 exactly when
    the data carry standardization statistics.  `phi0_override` replaces the
    empirical baseline phi0 (a matrix of the response's shape)."""
    if phi0_override is not None:
        phi0 = np.asarray(phi0_override, dtype=float)
        if phi0.shape != data.y.shape:
            raise InvalidArgumentError("phi0 override must match the response shape")
    else:
        phi0 = effects.phi0_training_matrix(data.locations, data.y)
    grid, inverse = _map_grid(data.locations)
    ar_mode = mode_for_times(data.times)
    gaps, gap_rows = np.unique(step_gaps(data.times, ar_mode), return_inverse=True)
    return ModelContext(
        y=data.y, locations=data.locations, times=data.times, phi0=phi0,
        prior=prior, marginalized=marginalized, alpha_pinned=data.standardized,
        ar_mode=ar_mode, map_grid=grid, knot_inverse=inverse,
        gaps=gaps, gap_index=np.concatenate([[-1], gap_rows]).astype(np.int64),
        layout=ThetaLayout(p=data.p),
    )


@dataclass
class ThetaCache:
    """Natural-scale parameters, mapped locations and the AR transition
    table for one theta value.

    It is built from theta alone: nothing kept here depends on nu, omega_sq
    or the Gibbs scalars, so a cache stays valid for its theta while those
    change.
    """

    kp: object
    beta_spec: ArSpec
    mu_specs: list[ArSpec]
    mapped: np.ndarray
    table: ProcessTable

    @classmethod
    def build(cls, theta: np.ndarray, ctx: ModelContext) -> "ThetaCache":
        kp, mp, beta_spec, mu_specs = unpack_theta(theta, ctx.layout, ctx.ar_mode)
        slope = mp.C * mp.X
        mapped = np.empty((ctx.n, ctx.p))
        for ell in range(ctx.p):
            values = ctx.map_grid.knot_values(ell, slope[ell:ell + 1], mp.C_tilde[ell:ell + 1])[0]
            mapped[:, ell] = values[ctx.knot_inverse[ell]]
        return cls(kp=kp, beta_spec=beta_spec, mu_specs=mu_specs, mapped=mapped,
                   table=ProcessTable.build(ctx.gaps, beta_spec, mu_specs))


# ---------------------------------------------------------------------------
# carried terms and the block conditional
# ---------------------------------------------------------------------------

@dataclass
class StateTerms:
    """Terms of the atoms under one theta: the theta's cache, every block's
    incoming process factor P_k, and the (n, m) field matrix with columns f_k.

    The field matrix is the transpose of C-ordered (m, n) rows, so that each
    column is contiguous and `field.T` feeds `loglik_rows` without a copy.
    """

    cache: ThetaCache
    process: np.ndarray
    field: np.ndarray

    @classmethod
    def build(cls, cache: ThetaCache, atoms: AtomStore, ctx: ModelContext,
              operands: AtomOperands | None = None) -> "StateTerms":
        """Process factors and field columns of every block under the theta
        of `cache`: `ProcessTable.log_densities` and `field_rows` over the
        store, from its `AtomOperands`.  `operands`, when given, are those
        of `atoms`, formed earlier; otherwise they are formed here.  Either
        way the terms are the same bit for bit."""
        if operands is None:
            operands = AtomOperands.build(atoms, ctx)
        process = cache.table.score(operands.process)
        rows = operands.field.rows(cache.mapped, ctx.times, cache.kp)
        return cls(cache=cache, process=process, field=rows.T)


@dataclass(frozen=True)
class AtomOperands:
    """The operands that `StateTerms.build` forms from a store of every time
    block alone, whatever the theta: the process operands of each block
    against its predecessor and the field operands.  Their `x` views the
    store, so they hold its atoms only while it does not change."""

    process: ProcessOperands
    field: FieldOperands

    @classmethod
    def build(cls, atoms: AtomStore, ctx: ModelContext) -> "AtomOperands":
        return cls(ProcessOperands.build(atoms, _predecessors(atoms, np.arange(ctx.m)), ctx.gap_index),
                   FieldOperands.build(atoms))


def _predecessors(atoms: AtomStore, ks: np.ndarray) -> AtomStore:
    """The blocks of `atoms` at times ks - 1, with count 0 (no predecessor)
    at the first time."""
    prev = atoms.take(ks - 1)
    prev.counts[ks == 0] = 0
    return prev


def _join(first: AtomStore, second: AtomStore) -> AtomStore:
    """The blocks of two stores of one width, those of `first` first."""
    return AtomStore(np.concatenate([first.values, second.values], axis=1),
                     np.concatenate([first.counts, second.counts]))


def block_factors(table: ProcessTable, atoms: AtomStore, proposal: AtomStore, ks: np.ndarray,
                  gap_index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Incoming and outgoing process factors of several time blocks in one
    `ProcessTable.log_densities` pass.

    Block b sits at time ks[b] and holds the atoms of `proposal` block b; it
    follows block ks[b] - 1 of `atoms` (none at the first time) and precedes
    block ks[b] + 1.  `proposal` has the width of `atoms`.  Returns
    (p_in, p_out): each block's incoming process factor and the next
    block's (0.0 at the last time, which has no next block).
    """
    linked = np.flatnonzero(ks + 1 < atoms.counts.size)
    factors = table.log_densities(_join(proposal, atoms.take(ks[linked] + 1)),
                                  _join(_predecessors(atoms, ks), proposal.take(linked)),
                                  np.concatenate([gap_index[ks], gap_index[ks[linked] + 1]]))
    p_out = np.zeros(ks.size)
    p_out[linked] = factors[ks.size:]
    return factors[:ks.size], p_out


def loglik_slice(k: int, f: np.ndarray, ctx: ModelContext, hypers: ScalarHypers,
                 phi: np.ndarray | None) -> float:
    """Time-k log likelihood of the field column f."""
    phi_col = ctx.phi_effective(phi)[:, k]
    return float(np.sum(log_observation_density(
        ctx.y[:, k], hypers.alpha, phi_col, f, ctx.var_effective(hypers))))


def loglik_rows(ks, rows: np.ndarray, ctx: ModelContext, hypers: ScalarHypers,
                phi: np.ndarray | None) -> np.ndarray:
    """Log likelihoods of several field rows: entry b is
    `loglik_slice(ks[b], rows[b], ...)` bit for bit.  `ks` indexes the
    time blocks: integers, or a slice, whose data and effect rows are read
    as views, with no copy.

    The densities form a C-ordered (B, n) array before the row sums: a
    reduction over rows of a transposed layout adds them sequentially
    instead of pairwise.
    """
    y = ctx.y.T[ks]
    phi_rows = ctx.phi_effective(phi).T[ks]
    dens = log_observation_density(y, hypers.alpha, phi_rows, rows, ctx.var_effective(hypers))
    return np.ascontiguousarray(dens).sum(axis=1)


def block_scores(counts: np.ndarray, p_in: np.ndarray, p_out: np.ndarray, loglik: np.ndarray,
                 hypers: ScalarHypers, j_max: int) -> np.ndarray:
    """Log full conditionals of time blocks from their incoming and outgoing
    process factors and likelihoods (boundary blocks one-sided).

    Each contains the count factor, the incoming process factors of block k,
    the outgoing factors of block k+1 (whose transition-vs-initial split
    depends on this block's count), and the time-k likelihood slice; -inf
    outside the count range or the bounds.
    """
    with np.errstate(invalid="ignore"):
        lp = count_log_factor(counts, hypers.lam) + p_in
        lp = np.where(np.isfinite(lp), lp, -np.inf) + p_out
        valid = np.isfinite(lp) & (counts >= 1) & (counts <= j_max)
        return np.where(valid, lp + loglik, -np.inf)


def _mult_eps(u, floor: float):
    """Multiplicative factors from uniforms u in [0, 1): |e| uniform on
    (floor, 1] and a fair sign, the law of a uniform on (-1, 1) conditioned
    on |e| > floor.  The lower half of [0, 1) gives the negative factors;
    each half, stretched to [0, 1), maps linearly onto |e| from 1 down."""
    upper = np.asarray(u) >= 0.5
    return np.where(upper, 1.0, -1.0) * (1.0 - (1.0 - floor) * (2.0 * u - upper))


_LOG_HALF_NORMAL_CONST = 0.5 * math.log(2.0 / math.pi)


def _log_half_normal(u: np.ndarray) -> np.ndarray:
    """Log density of |N(0, 1)| at u >= 0."""
    u = np.asarray(u, dtype=float)
    return _LOG_HALF_NORMAL_CONST - 0.5 * u * u


# ---------------------------------------------------------------------------
# transdimensional moves
# ---------------------------------------------------------------------------
# A batch of moves is proposed, scored and accepted in three steps.  Each
# phase of the batch draws from its own generator, as fixed-shape arrays with
# one row per block (`draw_blocks`); the move types, proposals, log ratios
# and acceptances are then formed as masked array arithmetic on the padded
# atoms.  A birth splits atom j into slot j and the new slot J, a death
# merges atom lo with the last atom J-1 into slot lo, so no atom moves.

BIRTH, DEATH, NO_CHANGE = range(3)  # indices into MOVE_NAMES


@dataclass
class BlockMoves:
    """The moves of a batch of time blocks between their propose and accept
    steps.

    Block b sits at time ks[b] and makes move `move[b]` (an index into
    MOVE_NAMES) to block b of `proposal`, which has the width of the store
    it was proposed from.  `log_ratio[b]` is every term of its log
    acceptance ratio besides the two conditionals (log_struct or log_jac).
    A merge that no birth can undo is not `reachable` and is rejected
    unscored.  `u_accept[b]` is the block's acceptance uniform.
    """

    ks: np.ndarray
    move: np.ndarray
    proposal: AtomStore
    log_ratio: np.ndarray
    reachable: np.ndarray
    u_accept: np.ndarray


def draw_blocks(rng: np.random.Generator, B: int, p: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The draws of B block moves from `rng`, of a shape fixed by B, p and
    the store's width W alone: a (B, 4 + (p+1)(2 + W)) uniform array, whose
    row b holds block b's move-type, branch, slot and acceptance uniforms,
    p+1 multiplicative-factor uniforms, p+1 sign uniforms and (p+1) x W
    no-change flip uniforms (coordinate chain major), then a (B, p+1)
    standard-normal array."""
    p1 = p + 1
    return rng.random((B, 4 + p1 * (2 + width))), rng.standard_normal((B, p1))


def propose_blocks(ks: np.ndarray, current: AtomStore, ctx: ModelContext, cfg: SamplerConfig,
                   u: np.ndarray, normals: np.ndarray) -> BlockMoves:
    """The moves of blocks ks, which hold the atoms of `current`, from their
    rows of the uniforms `u` and the `normals` laid out by `draw_blocks`.

    A block's move and count decide which of its row's draws it reads.
    Every proposal and log ratio of the batch is then formed at once, and
    each block's depends on its own row and atoms alone.

    A birth splits the picked atom x per coordinate into (x + s a|e|,
    x - s a|e|) with standard-normal e and random signs s (additive), or
    into (x e, x / e) with e uniform above the floor (multiplicative); the
    second child is appended as the last atom, so the cross-time pairing
    of untouched atoms is kept.  A death merges the picked atom with the
    last one, to their midpoint or to +-sqrt(|x y|) with random signs.
    Each log ratio carries the auxiliary densities, which makes every
    birth/death pair exactly reversible.  A no-change move perturbs all
    (p+1)J coordinates with one shared draw: each moves by +-c a|e|
    (additive), or is multiplied by e, divided by e or kept
    (multiplicative).
    """
    counts = current.counts
    B, p1, W = counts.size, ctx.p + 1, current.width
    wb, wd, _ = move_weights(counts, cfg.j_max)
    moves = np.where(u[:, 0] < wb, BIRTH, np.where(u[:, 0] < wb + wd, DEATH, NO_CHANGE))
    birth, death, no_change = moves == BIRTH, moves == DEATH, moves == NO_CHANGE
    additive = u[:, 1] < P_ADD
    # a birth picks one of the J atoms, a death one of the J-1 below the last
    slot = np.where(no_change, 0, (u[:, 2] * (counts - death)).astype(np.int64))
    rows, add = np.arange(B), additive[:, None]
    eps = np.where(add, normals, _mult_eps(u[:, 4:4 + p1], EPS_FLOOR))
    signs = np.where(u[:, 4 + p1:4 + 2 * p1] < 0.5, 1.0, -1.0)
    # no-change flips of the coordinates in use, as (p+1, S, W): +-1 or -1, 0, 1
    sel = np.flatnonzero(no_change)
    u_flip = u[sel, 4 + 2 * p1:].reshape(sel.size, p1, W).transpose(1, 0, 2)
    flips = np.where(add[sel], 2.0 * np.floor(2.0 * u_flip) - 1.0, np.floor(3.0 * u_flip) - 1.0)
    flips *= np.arange(W) < counts[sel, None]
    # the move-weight ratio of a birth or death, a no-change move's log_jac
    with np.errstate(divide="ignore"):
        log_w = np.where(birth, np.log(move_weights(counts + 1, cfg.j_max)[1]) - np.log(wb),
                         np.log(move_weights(counts - 1, cfg.j_max)[0]) - np.log(wd))
        log_w[sel] = np.where(additive[sel], 0.0, flips.sum(axis=(0, 2)) * np.log(np.abs(eps[sel, 0])))
    # Every block's birth and death arithmetic at once on its picked atom x
    # (birth: j, death: lo) and its last atom y, as C-ordered (B, p+1) rows,
    # whose row sums add like one block's sums; each block keeps its move's.
    x = np.ascontiguousarray(current.values[:, rows, slot].T)
    y = np.ascontiguousarray(current.values[:, rows, np.maximum(counts - 1, 0)].T)
    log_4a, pair_factor = math.log(4.0 * cfg.scale), p1 * (math.log(2.0) + math.log(1.0 - EPS_FLOOR))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # a birth splits x into (keep, child), a death merges x and y
        size = np.abs(eps)
        step = signs * (cfg.scale * size)
        keep = np.where(add, x + step, x * eps)
        child = np.where(add, x - step, x / eps)
        merged = np.where(add, 0.5 * (x + y), signs * np.sqrt(np.abs(x * y)))
        log_x, log_e, log_y = np.log(np.abs(x)), np.log(size), np.log(np.abs(y))
        mult_split = (log_x[:, 0] - log_e[:, 0] + (log_x[:, 1:] - log_e[:, 1:]).sum(axis=1)) + pair_factor
        split_ratio = np.where(additive, (log_4a - _log_half_normal(size)).sum(axis=1), mult_split)
        u_merge = np.abs(x - y) / (2.0 * cfg.scale)
        mult_merge = (-log_y[:, 0] - log_y[:, 1:].sum(axis=1)) - pair_factor
        merge_ratio = np.where(additive, (_log_half_normal(u_merge) - log_4a).sum(axis=1), mult_merge)
        # a multiplicative birth makes a same-sign pair (x e, x / e) with
        # |x e| < |x / e| and |e| above the floor
        reachable = ~death | additive | np.all((x * y > 0.0) & (np.abs(x) < np.abs(y))
                                                & (np.sqrt(np.abs(x) / np.abs(y)) > EPS_FLOOR), axis=1)
        values = current.values.copy()
        values[:, rows, slot] = np.where(birth[:, None], keep, np.where(death[:, None], merged, x)).T
        grow = np.flatnonzero(birth)
        values[:, grow, counts[grow]] = child[grow].T
        if sel.size:
            z, e = values[:, sel], eps[sel, 0][:, None]
            values[:, sel] = np.where(add[sel], z + flips * (cfg.shrink * cfg.scale) * np.abs(e),
                                      np.where(flips == 1, z * e, np.where(flips == -1, z / e, z)))
    log_ratio = np.where(birth, split_ratio + log_w, np.where(death, merge_ratio + log_w, log_w))
    new_counts = counts + birth - death
    return BlockMoves(ks, moves, AtomStore(values, new_counts), log_ratio, reachable, u[:, 3].copy())


def update_time_block(phases: list[tuple[np.ndarray, np.random.Generator]], atoms: AtomStore, terms: StateTerms,
                      ctx: ModelContext, hypers: ScalarHypers, cfg: SamplerConfig,
                      phi: np.ndarray | None) -> tuple[BlockMoves, np.ndarray, np.ndarray, np.ndarray]:
    """One sweep of block moves over `phases`, a sequence of (blocks ks,
    generator) pairs run in order; the blocks of one phase are
    conditionally independent given the other blocks of `atoms`, and no
    block is in two phases.

    Each phase's draws come from its generator (`draw_blocks`).  Every move
    of the sweep is proposed at once (`propose_blocks`), the field rows of
    all reachable proposals are built in one `field_rows` call, and the
    likelihoods of the current and proposed rows come from one `loglik_rows`
    call: none of these read another block's atoms, so an earlier phase
    changes none of them.  Each phase then scores its proposals' process
    factors against its neighbours in `atoms` (`block_factors`), accepts
    with one comparison of log(u) and log_alpha (a NaN rejects), and writes
    its accepted atoms into `atoms` and their field columns and process
    factors into `terms`, where the next phase reads them; a multiplicative
    merge that no birth can undo is rejected unscored.

    Returns the moves of the phases' blocks in phase order, their
    acceptances, their log acceptance ratios (-inf for an unreachable
    merge) and the likelihoods of their field rows after the sweep.
    """
    ks = np.concatenate([blocks for blocks, _ in phases])
    drawn = [draw_blocks(rng, len(blocks), ctx.p, atoms.width) for blocks, rng in phases]
    moves = propose_blocks(ks, atoms.take(ks), ctx, cfg, *(np.concatenate(d) for d in zip(*drawn)))
    B, m, cache = ks.size, ctx.m, terms.cache
    scored = np.flatnonzero(moves.reachable)
    rows = field_rows(cache.mapped, ctx.times[ks[scored]], moves.proposal.take(scored), cache.kp)
    logliks = loglik_rows(np.concatenate([ks, ks[scored]]), np.concatenate([terms.field.T[ks], rows]),
                          ctx, hypers, phi)
    loglik = logliks[:B].copy()
    with np.errstate(divide="ignore"):
        log_u = np.log(moves.u_accept)
    log_alpha, accepted = np.empty(B), np.zeros(B, dtype=bool)
    end = 0
    for blocks, _ in phases:
        start, end = end, end + len(blocks)
        phase = slice(start, end)
        lo, hi = np.searchsorted(scored, [start, end])
        mine = scored[lo:hi]
        here = ks[phase]
        proposal = moves.proposal.take(mine)
        p_in, p_out = block_factors(cache.table, atoms, proposal, ks[mine], ctx.gap_index)
        # the current blocks' scores, then their scored proposals'
        scores = block_scores(np.concatenate([atoms.counts[here], proposal.counts]),
                              np.concatenate([terms.process[here], p_in]),
                              np.concatenate([np.append(terms.process[1:], 0.0)[here], p_out]),
                              np.concatenate([logliks[phase], logliks[B + lo:B + hi]]), hypers, cfg.j_max)
        lp_cur, lp_prop = scores[:here.size], np.full(here.size, np.nan)
        lp_prop[mine - start] = scores[here.size:]
        with np.errstate(invalid="ignore"):
            log_alpha[phase] = np.where(moves.reachable[phase], lp_prop - lp_cur + moves.log_ratio[phase], -np.inf)
            accepted[phase] = log_u[phase] < log_alpha[phase]
        won = np.flatnonzero(accepted[mine])
        k_won = ks[mine[won]]
        atoms.put(k_won, proposal.take(won))
        terms.field[:, k_won] = rows[lo + won].T
        terms.process[k_won] = p_in[won]
        linked = k_won + 1 < m
        terms.process[k_won[linked] + 1] = p_out[won[linked]]
        loglik[mine[won]] = logliks[B + lo + won]
    return moves, accepted, log_alpha, loglik


# ---------------------------------------------------------------------------
# fixed-dimension block update
# ---------------------------------------------------------------------------

def reduce_sum(partials) -> float:
    """Left-to-right sum in index order; a non-finite partial raises
    NumericError."""
    total = 0.0
    for x in partials:
        x = float(x)
        if not math.isfinite(x):
            raise NumericError(f"non-finite partial in reduction: {x}")
        total += x
    return total


def theta_score(log_prior: float, terms: StateTerms, loglik: np.ndarray) -> float:
    """Log conditional of the fixed-dimension block at a theta, from its
    prior `log_prior_theta`, the terms of the state's atoms under it and
    the likelihoods of their field columns, in time order."""
    lp = log_prior
    process, *rest = terms.process.tolist()
    for factor in rest:
        process += factor
    lp += process
    if not np.isfinite(lp):
        return -np.inf
    return lp + reduce_sum(loglik)


def theta_logpost(theta, state, ctx):
    """Log conditional of the fixed-dimension block given everything else,
    with the state's terms under theta ((-inf, None) outside the bounds)."""
    log_prior = log_prior_theta(theta, ctx.layout, state.nu, state.omega_sq, ctx.prior)
    if not math.isfinite(log_prior):
        return -np.inf, None
    terms = StateTerms.build(ThetaCache.build(theta, ctx), state.atoms, ctx, state.operands)
    loglik = loglik_rows(slice(None), terms.field.T, ctx, state.hypers, state.phi)
    return theta_score(log_prior, terms, loglik), terms


def tmcmc_proposal(theta: np.ndarray, cfg: SamplerConfig, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Whole-block proposal driven by one scalar draw with per-coordinate
    signs (additive) or factors (multiplicative); returns the proposal and
    its log Jacobian."""
    d = theta.size
    if rng.random() < P_ADD:
        eps = rng.standard_normal()
        b = rng.integers(0, 2, size=d) * 2 - 1
        return theta + b * cfg.scale * abs(eps), 0.0
    eps = float(_mult_eps(rng.random(), EPS_FLOOR))
    b = rng.integers(-1, 2, size=d)
    proposal = theta.copy()
    proposal[b == 1] *= eps
    proposal[b == -1] /= eps
    return proposal, float(b.sum()) * math.log(abs(eps))


def enhancement_proposal(theta: np.ndarray, cfg: SamplerConfig,
                         rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Common-direction proposal of the mixing-enhancement pass: every
    coordinate shifted by one step, or multiplied or divided by one factor;
    returns the proposal and its log Jacobian."""
    if rng.random() < Q_ADD:
        u_dir = rng.random()
        step = (cfg.shrink * cfg.scale) * abs(rng.standard_normal())
        return (theta + step if u_dir < 0.5 else theta - step), 0.0
    eps = float(_mult_eps(rng.random(), EPS_FLOOR))
    if rng.random() < 0.5:
        return theta * eps, theta.size * math.log(abs(eps))
    return theta / eps, -theta.size * math.log(abs(eps))


def _log_uniform(u: float) -> float:
    """log u of an acceptance uniform u in [0, 1), -inf at u == 0."""
    return math.log(u) if u > 0.0 else -math.inf


# ---------------------------------------------------------------------------
# Gibbs updates for the scalar block
# ---------------------------------------------------------------------------

def gibbs_update_zeta(state: SamplerState, ctx: ModelContext, rng: np.random.Generator,
                      reduced: dict) -> None:
    """Exact draws from the printed full conditionals, in a fixed scan order.

    `reduced` carries the column-reduced sums: total atom count, squared
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


def _row_dots(rows: np.ndarray) -> list[float]:
    """Each row's dot product with itself, for C-ordered rows: `row @ row`
    bit for bit, since a (1, n) @ (n, 1) matmul reaches the same ddot."""
    return np.matmul(rows[:, None, :], rows[:, :, None]).ravel().tolist()


# ---------------------------------------------------------------------------
# sampler driver
# ---------------------------------------------------------------------------

class Sampler:
    """Owns the iteration schedule and the random streams of one chain."""

    def __init__(self, data: SpaceTimeDataset, cfg: SamplerConfig, prior: PriorConfig,
                 marginalized: bool = True, phi0_override: np.ndarray | None = None):
        self.cfg = cfg
        self.ctx = build_context(data, prior, marginalized, phi0_override)

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
        _, _, beta_spec, mu_specs = unpack_theta(theta, layout, ctx.ar_mode)
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
        return SamplerState(atoms=AtomStore.from_blocks(atoms, cfg.j_max), theta=theta, hypers=hypers, nu=nu,
                            omega_sq=omega_sq, phi=phi)

    # -- one full iteration --------------------------------------------------

    def iterate(self, state: SamplerState, r: int, stats: MoveStats) -> SamplerState:
        ctx, cfg, atoms = self.ctx, self.cfg, state.atoms
        if state.terms is None:
            if atoms.width < cfg.j_max:
                raise InvalidStateError("the atom store has fewer slots than j_max")
            state.terms = StateTerms.build(ThetaCache.build(state.theta, ctx), atoms, ctx)
        terms = state.terms

        # transdimensional sweep: odd (1-based) indices first, then even;
        # blocks of one parity are independent given the other parity
        phases = [(np.arange(parity, ctx.m, 2), stream(cfg.seed, _S_BLOCK, r, parity)) for parity in (0, 1)]
        moves, accepted, _, swept = update_time_block(phases, atoms, terms, ctx, state.hypers, cfg, state.phi)
        stats.record_blocks(moves.move, accepted)
        loglik = np.empty(ctx.m)
        loglik[moves.ks] = swept

        # fixed-dimension block, then enhancement; the current value takes
        # the sweep's likelihoods of the stored columns.  Each proposal's
        # draws are followed by its acceptance uniform, accepted as in the
        # block sweep: log(u) < log_alpha, where a NaN rejects.
        rng_t = stream(cfg.seed, _S_THETA, r)
        log_prior = log_prior_theta(state.theta, ctx.layout, state.nu, state.omega_sq, ctx.prior)
        cur_lp = theta_score(log_prior, terms, loglik)
        state.operands = AtomOperands.build(atoms, ctx)
        try:
            for move, propose in (("tmcmc", tmcmc_proposal), ("enhance", enhancement_proposal)):
                proposal, log_jac = propose(state.theta, cfg, rng_t)
                lp_prop, terms_prop = theta_logpost(proposal, state, ctx)
                accepted = _log_uniform(rng_t.random()) < lp_prop - cur_lp + log_jac
                stats.record(move, accepted)
                if accepted:
                    state.theta, cur_lp, terms = proposal, lp_prop, terms_prop
        finally:
            state.operands = None
        state.terms = terms

        # random-effect draws (explicit mode): one (m, n) normal array, row k
        # for column k, then one elementwise conjugate draw for every column
        fmat = terms.field
        if not ctx.marginalized:
            hyp = state.hypers
            normals = stream(cfg.seed, _S_PHI, r).standard_normal((ctx.m, ctx.n))
            state.phi = effects.gibbs_update_phi_matrix(ctx.y, fmat, hyp.alpha, hyp.sigma_sq_phi, hyp.sigma_sq_eps,
                                                        ctx.phi0, normals.T)

        gibbs_update_zeta(state, ctx, stream(cfg.seed, _S_ZETA, r), self._reduced_sums(state, fmat))
        return state

    def _reduced_sums(self, state: SamplerState, fmat: np.ndarray) -> dict:
        """Per-column residual sums, each the column's `resid @ resid` and
        `resid.sum()` bit for bit, added over columns in index order.  The
        columns become the rows of C-ordered (m, n) arrays: a row sum over a
        transposed layout would add sequentially instead of pairwise."""
        ctx, hyp = self.ctx, state.hypers
        resid = np.ascontiguousarray((ctx.y - hyp.alpha - ctx.phi_effective(state.phi) - fmat).T)
        reduced = {
            "j_total": int(state.atoms.counts.sum()),
            "resid_sq": reduce_sum(_row_dots(resid)),
            "resid_alpha": reduce_sum((resid.sum(axis=1) + ctx.n * hyp.alpha).tolist()),
        }
        if not ctx.marginalized:
            reduced["phi_dev_sq"] = reduce_sum(_row_dots(np.ascontiguousarray((state.phi - ctx.phi0).T)))
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
            store=state.atoms.trimmed(),
            theta=state.theta.copy(),
            lam=hyp.lam, sigma_sq_eps=hyp.sigma_sq_eps, alpha=hyp.alpha,
            sigma_sq_alpha=hyp.sigma_sq_alpha, sigma_sq_phi=hyp.sigma_sq_phi,
            nu=state.nu.copy(), omega_sq=state.omega_sq.copy(),
            phi=None if state.phi is None else state.phi.copy(),
        )


def run_chain(data: SpaceTimeDataset, cfg: SamplerConfig, prior: PriorConfig,
              marginalized: bool = True) -> ChainResult:
    """Run the full schedule and return the thinned post-burn-in chain."""
    return Sampler(data, cfg, prior, marginalized=marginalized).run()


# ---------------------------------------------------------------------------
# posterior prediction
# ---------------------------------------------------------------------------

@dataclass
class PredictionBands:
    locations: np.ndarray          # (q, p)
    times: np.ndarray              # (mt,)
    quantiles: dict[float, np.ndarray]  # each (q, mt), original scale
    draws: np.ndarray | None = None     # (S, q, mt), original scale


def _grid_indices(new_times: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Index of each new time on the training grid: its first exact match,
    else the first time within 1e-12 of it.  Only the times without an
    exact match are compared within 1e-12."""
    exact = new_times[:, None] == times
    index = exact.argmax(axis=1)
    inexact = np.flatnonzero(~exact.any(axis=1))
    if inexact.size:
        near = np.isclose(new_times[inexact, None], times, rtol=0.0, atol=1e-12)
        missing = inexact[~near.any(axis=1)]
        if missing.size:
            raise UnsupportedPredictionError(f"time {new_times[missing[0]]} is not on the training grid")
        index[inexact] = near.argmax(axis=1)
    return index


# Values held at once while predicting.  Mapping new locations takes at most
# this many (sample, knot) pairs per chunk of samples, and forming fields at
# most this many kernel values, kernel operands, gathered atom values and
# store entries per chunk (`_chain_fields`); a single sample that needs more
# is a chunk of its own.  So no array grows as the chain's length times the
# training locations or the atoms.
_VALUES_HELD = 1 << 20


def _map_new_locations(grid: MapGrid, new_locations: np.ndarray, thetas: np.ndarray, natural: np.ndarray,
                       layout: ThetaLayout) -> np.ndarray:
    """Mapped new locations of every sample, an (S, q, p) array, from the
    chain's (S, d) thetas and their exponentials `natural`.

    The new locations' data-only terms are formed once per dimension; each
    chunk of samples then forms its knot values and the extensions as
    whole-chunk arrays, each value as `monotone_map_extend` forms it for one
    theta.
    """
    slope, c_tilde = _map_slopes(thetas, natural, layout)
    S, (q, p) = thetas.shape[0], new_locations.shape
    mapped = np.empty((S, q, p))
    for ell in range(p):
        index, below, powered = map_extension(grid.knots[ell], new_locations[:, ell])
        for chunk, values in _knot_value_chunks(grid, ell, slope, c_tilde):
            step = slope[chunk, ell, None] * powered
            mapped[chunk, :, ell] = np.where(below, values[:, :1] - step, values[:, index] + step)
    return mapped


def _map_slopes(thetas: np.ndarray, natural: np.ndarray, layout: ThetaLayout) -> tuple[np.ndarray, np.ndarray]:
    """The checked map slopes C X and anchors C~ of the chain's (S, d) thetas."""
    c, c_tilde, x = natural[:, layout.sl_log_c], natural[:, layout.sl_log_c_tilde], thetas[:, layout.sl_x]
    check_map_params(c, c_tilde, x)
    return c * x, c_tilde


def _knot_value_chunks(grid: MapGrid, dim: int, slope: np.ndarray, c_tilde: np.ndarray):
    """(samples, knot values) of dimension `dim` for chunks of samples that
    hold at most `_VALUES_HELD` knot values, or one sample each."""
    rows = max(1, _VALUES_HELD // grid.knots[dim].size)
    for start in range(0, slope.shape[0], rows):
        chunk = slice(start, start + rows)
        yield chunk, grid.knot_values(dim, slope[chunk, dim], c_tilde[chunk, dim])


def samples_outside_atom_box(samples: list[ChainSample], locations: np.ndarray) -> int:
    """The number of samples whose map sends some training location outside
    the atom box [-COORD_BOUND, COORD_BOUND]^p.  No atom reaches such a
    location, so the field fades there.  The maps increase, so each
    dimension's first and last knot values are its extremes."""
    layout = ThetaLayout(p=locations.shape[1])
    thetas = np.array([smp.theta for smp in samples]).reshape(len(samples), layout.dim)
    slope, c_tilde = _map_slopes(thetas, np.exp(thetas), layout)
    grid = _map_grid(locations)[0]
    outside = np.zeros(len(samples), dtype=bool)
    for ell in range(layout.p):
        for chunk, values in _knot_value_chunks(grid, ell, slope, c_tilde):
            outside[chunk] |= (values[:, 0] < -COORD_BOUND) | (values[:, -1] > COORD_BOUND)
    return int(outside.sum())


def _sample_chunks(held: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive sample ranges [lo, hi) whose `held` values sum to at most
    `_VALUES_HELD`, or a single sample that holds more on its own."""
    chunks, lo, total = [], 0, 0
    for s, size in enumerate(held.tolist()):
        if s > lo and total + size > _VALUES_HELD:
            chunks.append((lo, s))
            lo, total = s, 0
        total += size
    return chunks + [(lo, held.size)]


def _starts(sizes: np.ndarray) -> np.ndarray:
    """Where each of consecutive segments of the given sizes starts."""
    return np.cumsum(sizes) - sizes


def _chain_fields(samples: list[ChainSample], mapped: np.ndarray, natural: np.ndarray, layout: ThetaLayout,
                  time_idx: np.ndarray, times_new: np.ndarray) -> np.ndarray:
    """Fields of every sample at its mapped new locations and the new times,
    an (S, q, mt) array; sample s's values equal `field_rows(mapped[s],
    times_new, samples[s].store.take(time_idx), kp_s).T` bit for bit.

    The kernel parameters of every sample are checked once, as (S, p) and
    (S,) arrays; the first sample that fails raises what its `KernelParams`
    raises.  The operands of `kernel_exponent`'s product are formed by its
    own elementwise steps for many samples at once: the (q, p+2) left
    operand [ksq M, -0.5 sum ksq M^2, 1] of every sample, and per chunk of
    samples (`_sample_chunks`) the (p+2, N) right operand [mu, 1,
    -0.5 ksq mu^2 - time term] of every atom of its (sample, time) pairs.
    Per sample remain only the two products whose routine numpy and BLAS
    pick by the sample's atom count N_s: its ksq @ mu^2 row and its
    (q, p+2) @ (p+2, N_s) kernel exponent.

    The exponent columns are then taken once in (atom count, pair) order
    and exponentiated in place, so the (q, J) kernel slices of all g pairs
    with J atoms are one (g, q, J) view, and `rows_by_count` forms each
    pair's field, its slice times its J betas, with one stacked product
    per count.  A chunk's
    per-atom arrays (two q N kernel arrays, (3p + 3) N operand and gathered
    atom values, N betas and 3 N time terms and indices) and its store
    entries add up to at most `_VALUES_HELD`, unless one sample holds more
    alone.
    """
    S, q, p = mapped.shape
    mt = time_idx.size
    stores = [smp.store for smp in samples]
    counts = np.array([st.counts for st in stores])[:, time_idx]  # (S, mt) atoms of every pair
    widths = np.array([st.width for st in stores])
    atoms_per_sample = counts.sum(axis=1)
    store_values = np.array([st.values.size for st in stores])
    ksq, tau, xi = natural[:, layout.sl_log_ksq], natural[:, layout.i_log_tau], natural[:, layout.i_log_xi]
    bad = ~np.all((ksq > 0.0) & (ksq < np.inf), axis=1) | (tau <= 0.0) | (xi <= 0.0)
    if bad.any():  # raise what the first bad sample's own checks raise
        s = int(bad.argmax())
        KernelParams(ksq[s], float(tau[s]), float(xi[s]))
    left = np.empty((S, q, p + 2))
    left[..., :p] = mapped * ksq[:, None, :]
    left[..., p] = -0.5 * np.einsum("sij,sij->si", left[..., :p], mapped)
    left[..., p + 1] = 1.0
    fields = np.zeros((S, q, mt))
    for lo, hi in _sample_chunks((2 * q + 3 * p + 7) * atoms_per_sample + store_values):
        pair_atoms = counts[lo:hi].ravel()  # pair i is (sample lo + i // mt, time i % mt)
        n_atoms = atoms_per_sample[lo:hi]
        pair_first = _starts(pair_atoms)
        samples_held = list(zip(range(lo, hi), _starts(n_atoms).tolist(), n_atoms.tolist()))
        atoms_held = int(n_atoms.sum())
        # every atom in (sample, time, slot) order: its column in the chunk's
        # stores laid side by side, and its pair's time term
        flat = np.concatenate([st.values.reshape(p + 1, -1) for st in stores[lo:hi]], axis=1)
        pair_column = _starts(store_values[lo:hi] // (p + 1))[:, None] + time_idx * widths[lo:hi, None]
        column = np.repeat(pair_column.ravel() - pair_first, pair_atoms) + np.arange(atoms_held)
        atoms = np.take(flat, column, axis=1)
        time_term = np.repeat((xi[lo:hi, None] * np.abs(times_new - tau[lo:hi, None])).ravel(), pair_atoms)

        # the right operand of every atom; mu^2 is (p, N) in column order, as
        # `field_rows` gathers its atoms: the bits of ksq @ mu^2 depend on it
        right = np.empty((p + 2, atoms_held))
        right[:p] = atoms[1:]
        right[p] = 1.0
        mu_sq = np.multiply(atoms[1:], atoms[1:], out=np.empty((atoms_held, p)).T)
        for s, a, n in samples_held:
            np.matmul(ksq[s], mu_sq[:, a:a + n], out=right[p + 1, a:a + n])
        right[p + 1] *= -0.5
        right[p + 1] -= time_term
        exponent = np.empty((q, atoms_held))
        for s, a, n in samples_held:
            # with q = 1 numpy takes a vector product whose bits follow the
            # right operand's layout: that sample gets its own copy
            operand = right[:, a:a + n] if q > 1 else right[:, a:a + n].copy()
            np.matmul(left[s], operand, out=exponent[:, a:a + n])

        # each pair's field: its (q, J) kernel columns times its J betas,
        # every pair with J atoms in one stacked product over a view
        order = np.argsort(pair_atoms, kind="stable")
        grouped_atoms = pair_atoms[order]
        grouped = np.repeat(pair_first[order] - _starts(grouped_atoms), grouped_atoms) + np.arange(atoms_held)
        kernel = np.take(exponent, grouped, axis=1)
        np.exp(kernel, out=kernel)
        pair_fields = rows_by_count(kernel, atoms[0, grouped], np.bincount(grouped_atoms).tolist(), order)
        fields[lo:hi] = pair_fields.reshape(hi - lo, mt, q).transpose(0, 2, 1)
    return fields


def _bands(draws: np.ndarray, probs: tuple[float, ...]) -> np.ndarray:
    """`np.quantile(draws, probs, axis=0)` by its default `linear` method,
    bit for bit, from one sort of the sample axis: a (len(probs), ...)
    array.

    The contract holds for finite draws with no -0.0: the sort and numpy's
    partition may order +0.0 and -0.0 differently, and numpy returns NaN
    where a NaN draw sorts.  Each band takes numpy's own formulas: the
    virtual index is (S - 1) q; the lower index is its floor and the upper
    one the next, both the last sample's (index -1) from S - 1 on; the
    weight g is the virtual index minus the lower index, and the band
    between the sorted draws a and b is a + (b - a) g, or b - (b - a) (1 - g)
    where g >= 0.5.
    """
    if not all(0.0 <= pr <= 1.0 for pr in probs):
        raise InvalidArgumentError(f"band probabilities must lie in [0, 1], got {probs}")
    S = draws.shape[0]
    virtual = (S - 1) * np.asarray(probs, dtype=float)
    top = virtual >= S - 1
    lower = np.where(top, -1, np.floor(virtual)).astype(np.intp)
    upper = np.where(top, -1, lower + 1)
    gamma = (virtual - lower).reshape(-1, *(1,) * (draws.ndim - 1))
    ordered = np.sort(draws, axis=0)
    a, b = ordered[lower], ordered[upper]
    diff = b - a
    bands = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=bands, where=gamma >= 0.5)
    return bands


def posterior_predict(samples: list[ChainSample], new_locations: np.ndarray,
                      new_times: np.ndarray, data: SpaceTimeDataset,
                      marginalized: bool = True, seed: int = 0,
                      probs: tuple[float, ...] = (1 / 16, 0.5, 15 / 16),
                      keep_draws: bool = False) -> PredictionBands:
    """Per-sample predictive draws and pointwise quantile bands.

    Predictions run in the (standardized) model scale and are transformed
    back to the original units when the dataset carries statistics.

    Everything is formed over the whole chain: the exponentials of every
    theta, the mapped new locations (`_map_new_locations`), the kernel
    parameter checks, operands and fields (`_chain_fields`), the grid index
    of every new time, the noise (one normal array), the draws and every
    band (one sort of the draws, `_bands`).  Per sample there remain only
    the two products whose rounding follows that sample's own atom count:
    its ksq @ mu^2 row and its kernel exponent.  Each value equals the
    per-sample computation's bit for bit, and each band `np.quantile`'s.
    The draws take S x q x mt floats, and the mapped locations and the
    kernel's left operands S x q x (2p + 2); the map's knot values and the
    fields' kernels, operands and atoms are formed in chunks of samples
    that hold at most `_VALUES_HELD` values (or one sample that needs
    more), so no array grows as the chain's length times the training
    locations or the atoms.
    """
    if not samples:
        raise InvalidArgumentError("empty chain")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    new_locations = np.atleast_2d(np.asarray(new_locations, dtype=float))
    if new_locations.shape[1] != data.p:
        raise InvalidArgumentError(f"prediction points have {new_locations.shape[1]} coordinates, "
                                   f"the training locations {data.p}")
    new_times = np.atleast_1d(np.asarray(new_times, dtype=float))
    layout = ThetaLayout(p=data.p)
    time_idx = _grid_indices(new_times, data.times)
    q, mt = new_locations.shape[0], new_times.size
    phi0_new = effects.phi0_predict(data.locations, data.times, data.y, new_locations, new_times)

    # every normal in one draw, in the order of a loop over samples, then
    # times, then (explicit mode) the effect's q normals and the noise's q
    S = len(samples)
    z = stream(seed, _S_PREDICT).standard_normal((S, mt, q) if marginalized else (S, mt, 2, q))
    thetas = np.array([smp.theta for smp in samples])
    natural = np.exp(thetas)
    mapped = _map_new_locations(_map_grid(data.locations)[0], new_locations, thetas, natural, layout)
    times_new = data.times[time_idx]
    fields = _chain_fields(samples, mapped, natural, layout, time_idx, times_new)
    alpha, ssq_eps, ssq_phi = (np.array([getattr(smp, name) for smp in samples])[:, None, None]
                               for name in ("alpha", "sigma_sq_eps", "sigma_sq_phi"))
    mean = alpha + phi0_new + fields
    if marginalized:
        draws = mean + np.sqrt(ssq_eps + ssq_phi) * z.transpose(0, 2, 1)
    else:
        z_phi, z_eps = z.transpose(2, 0, 3, 1)
        draws = mean + np.sqrt(ssq_phi) * z_phi + np.sqrt(ssq_eps) * z_eps

    if data.standardized:
        draws = draws * data.sd + data.mean
    bands = dict(zip((float(pr) for pr in probs), _bands(draws, probs)))
    return PredictionBands(locations=new_locations, times=new_times, quantiles=bands,
                           draws=draws if keep_draws else None)
