"""Process definition: kernel, monotone coordinate maps, the padded atom
store, field evaluation, observation density, the theta prior, the
atom-process densities and the count factor.

The latent field at time t is a finite sum of bounded kernel evaluations,

    f(s, t) = sum_j K(M(s) - mu_j, t - tau) * beta_j,

with K(d, dt) = exp(-0.5 * sum_l ksq_l * d_l^2 - xi * |dt|) and M an
almost-surely increasing coordinate-wise map built from grid increments
C_l * X_l * (delta s)^r.

Sampling-scale conventions for the fixed-dimension block theta:
nonnegative parameters are carried as logs truncated to [-20, 5], the
autoregression coefficients as (scaled) logits truncated to [-10, 10],
and the map slopes X_l raw on [0, 10].  Priors on transformed
coordinates include the change-of-variable Jacobian; truncation is
enforced by a -inf sentinel without renormalizing (constants cancel in
all Metropolis ratios).

The sampler scores only the terms a move changes, so nothing here forms the
joint log posterior; the tests keep it, the Gibbs scalars' prior and the
one-point field as reference forms (`tests/oracles.py`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .ar import (ArMode, ArSpec, ar_initial_log_density, ar_transition_log_density, rho_from_transformed,
                 step_gaps, transition_moments)
from .errors import InvalidArgumentError

_LOG_2PI = math.log(2.0 * math.pi)

# Truncation bounds (fixed by the model, not configurable).
LOG_LO, LOG_HI = -20.0, 5.0     # log-scale nonnegative parameters
LOGIT_BOUND = 10.0              # transformed autoregression coefficients
COORD_BOUND = 10.0              # atom coordinates mu
X_LO, X_HI = 0.0, 10.0          # map slope variables X_l
MAP_EXPONENT = 2                # exponent r of the map increments C_l X_l (delta s)^r


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelParams:
    """Diagonal-precision spatial decay plus exponential temporal decay."""

    tilde_sigma_sq: np.ndarray  # length p, > 0
    tau: float
    xi: float

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.tilde_sigma_sq, dtype=float))
        object.__setattr__(self, "tilde_sigma_sq", v)
        if not all(0.0 < x < math.inf for x in v.tolist()):
            raise InvalidArgumentError("tilde_sigma_sq entries must be positive and finite")
        if self.tau <= 0.0 or self.xi <= 0.0:
            raise InvalidArgumentError("tau and xi must be positive")

    @property
    def p(self) -> int:
        return self.tilde_sigma_sq.size


@dataclass(frozen=True)
class MonotoneMapParams:
    """Per-dimension increments C_l * X_l * (delta s)^r plus anchor C~_l,
    with r = MAP_EXPONENT."""

    C: np.ndarray
    C_tilde: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        for name in ("C", "C_tilde", "X"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
        # `check_map_params` on p values, in plain Python
        if any(v <= 0.0 for v in self.C.ravel().tolist() + self.C_tilde.ravel().tolist()):
            raise InvalidArgumentError("C, C_tilde must be positive")
        if any(v < 0.0 for v in self.X.ravel().tolist()):
            raise InvalidArgumentError("X entries are |Z| and must be nonnegative")

    @property
    def p(self) -> int:
        return self.C.size


def check_map_params(C: np.ndarray, C_tilde: np.ndarray, X: np.ndarray) -> None:
    """Raise InvalidArgumentError unless every C and C~ is positive and
    every X nonnegative, for arrays of any shape."""
    if np.any(C <= 0.0) or np.any(C_tilde <= 0.0):
        raise InvalidArgumentError("C, C_tilde must be positive")
    if np.any(X < 0.0):
        raise InvalidArgumentError("X entries are |Z| and must be nonnegative")


@dataclass(frozen=True)
class MonotoneMapFit:
    """Map values at the sorted unique training coordinates, per dimension."""

    knots: tuple[np.ndarray, ...]   # sorted unique coordinates
    values: tuple[np.ndarray, ...]  # fitted M_l at the knots


@dataclass
class LatentAtoms:
    """Variable-dimension block for one time index: J (mu, beta) pairs."""

    mu: np.ndarray    # (J, p)
    beta: np.ndarray  # (J,)

    def __post_init__(self):
        self.mu = np.atleast_2d(np.asarray(self.mu, dtype=float))
        self.beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        if self.mu.shape[0] != self.beta.shape[0]:
            raise InvalidArgumentError("mu and beta must agree on the atom count")

    @property
    def count(self) -> int:
        return self.beta.size

    def copy(self) -> "LatentAtoms":
        return LatentAtoms(self.mu.copy(), self.beta.copy())


@dataclass
class AtomStore:
    """The atoms of several time blocks in one padded array.

    `values[:, k, :counts[k]]` holds block k as chain rows [beta | mu_1 ..
    mu_p]; slots from `counts[k]` on are unused and never read, so a block
    changes count by writing one slot and its count, without shifting.
    A count of 0 stands for an absent block (no predecessor or successor).
    """

    values: np.ndarray  # (p+1, blocks, width)
    counts: np.ndarray  # (blocks,) int

    @classmethod
    def from_blocks(cls, blocks, width: int | None = None) -> "AtomStore":
        """Pad a sequence of `LatentAtoms` (None: an absent block) to `width`
        slots, by default the largest count."""
        p = next(a.mu.shape[1] for a in blocks if a is not None)
        counts = np.array([0 if a is None else a.count for a in blocks], dtype=np.int64)
        width = int(counts.max()) if width is None else width
        if width < counts.max():
            raise InvalidArgumentError("atom store narrower than its largest block")
        values = np.zeros((p + 1, len(blocks), width))
        for k, a in enumerate(blocks):
            if a is not None:
                values[0, k, :a.count] = a.beta
                values[1:, k, :a.count] = a.mu.T
        return cls(values, counts)

    @property
    def width(self) -> int:
        return self.values.shape[2]

    def block(self, k: int) -> LatentAtoms:
        """A copy of block k."""
        J = self.counts[k]
        return LatentAtoms(self.values[1:, k, :J].T.copy(), self.values[0, k, :J].copy())

    def blocks(self) -> list[LatentAtoms]:
        return [self.block(k) for k in range(self.counts.size)]

    def trimmed(self) -> "AtomStore":
        """A copy cut to the largest count."""
        return AtomStore(self.values[:, :, :int(self.counts.max())].copy(), self.counts.copy())

    def take(self, index) -> "AtomStore":
        """The blocks at `index`, copied."""
        return AtomStore(self.values[:, index], self.counts[index])

    def put(self, index, blocks: "AtomStore") -> None:
        """Overwrite the blocks at `index` with those of `blocks`."""
        self.values[:, index] = blocks.values
        self.counts[index] = blocks.counts

    def slots(self) -> tuple[np.ndarray, np.ndarray]:
        """(block, slot) of every atom in use, block by block, slots ascending."""
        return np.nonzero(np.arange(self.width) < self.counts[:, None])


@dataclass(frozen=True)
class PriorConfig:
    """Hyperparameters of the independent priors.

    `ig_a`/`ig_b` cover every generic inverse-gamma component; the tight
    pair covers the observation and random-effect variances.
    """

    ig_a: float = 2.01
    ig_b: float = 1.01
    ig_a_tight: float = 1.0e4
    ig_b_tight: float = 1.0
    lambda_a: float = 0.01
    lambda_b: float = 0.001
    nu_var: float = 100.0
    rho_var: float = 100.0
    mu_alpha: float = 0.0

    def __post_init__(self):
        for name in ("ig_a", "ig_b", "ig_a_tight", "ig_b_tight", "lambda_a", "lambda_b", "nu_var", "rho_var"):
            if getattr(self, name) <= 0.0:
                raise InvalidArgumentError(f"prior parameter {name} must be positive")


@dataclass
class ScalarHypers:
    """Scalars updated by Gibbs steps (the zeta block, minus nu/omega_sq)."""

    lam: float
    sigma_sq_eps: float
    alpha: float = 0.0
    sigma_sq_alpha: float = 1.0
    sigma_sq_phi: float = 0.0


# ---------------------------------------------------------------------------
# kernel / map / field
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MapGrid:
    """The terms of the monotone maps that depend on the coordinates alone,
    per dimension: the sorted knots, |s_(1)|^r and the increments
    (s_(i) - s_(i-1))^r.

    Built once per set of training coordinates; `knot_values` combines them
    with the slopes C_l X_l and anchors C~_l of a batch of thetas.  Each
    theta's row takes the same operations on the same operands as it would
    alone, and the running sum adds along the row in knot order, so a row
    does not depend on the others in its batch.
    """

    knots: tuple[np.ndarray, ...]
    lead: tuple[float, ...]        # |s_(1)|^r
    steps: tuple[np.ndarray, ...]  # (s_(i) - s_(i-1))^r for i >= 2

    @classmethod
    def build(cls, coords_per_dim) -> "MapGrid":
        knots, lead, steps = [], [], []
        for ell, coords in enumerate(coords_per_dim):
            c = np.asarray(coords, dtype=float)
            if c.ndim != 1 or c.size == 0:
                raise InvalidArgumentError("each dimension needs a nonempty coordinate vector")
            if c.size > 1 and np.any(np.diff(c) < 0.0):
                raise InvalidArgumentError(f"coordinates for dimension {ell} are not sorted")
            knots.append(c)
            lead.append(abs(c[0]) ** MAP_EXPONENT)
            steps.append(np.diff(c) ** MAP_EXPONENT)
        return cls(tuple(knots), tuple(lead), tuple(steps))

    def knot_values(self, dim: int, slope: np.ndarray, c_tilde: np.ndarray) -> np.ndarray:
        """M_dim at the knots for B thetas, as a (B, K) array: row b for
        slope C X = slope[b] and anchor C~ = c_tilde[b], by the increment
        recursion M(s_(1)) = C~ - C X |s_(1)|^r and
        M(s_(i)) = M(s_(i-1)) + C X (s_(i) - s_(i-1))^r."""
        slope = slope[:, None]
        values = np.empty((slope.shape[0], self.knots[dim].size))
        values[:, :1] = c_tilde[:, None] - slope * self.lead[dim]
        np.cumsum(slope * self.steps[dim], axis=1, out=values[:, 1:])
        values[:, 1:] += values[:, :1]
        return values


def map_extension(knots: np.ndarray, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The data-only terms of extending a map with sorted `knots` to the
    coordinates s: each coordinate's knot i (the nearest lower one, or the
    first), whether it lies below the first knot, and its offset from knot i
    to the power r.  Under a theta with knot values v and slope C X, the map
    at s is v[0] - C X powered below the first knot and v[i] + C X powered
    elsewhere."""
    s = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(s)):
        raise InvalidArgumentError("s_new must be finite")
    below = s < knots[0]
    i = np.maximum(np.searchsorted(knots, s, side="right") - 1, 0)
    offset = np.where(below, knots[0] - s, s - knots[i])
    # A float64 scalar power calls libm pow, which in rare cases rounds
    # differently from the squaring an array power does; the scalar power
    # keeps each value equal to extending its coordinate alone.
    powered = np.array([d ** MAP_EXPONENT for d in offset.ravel()]).reshape(s.shape)
    return i, below, powered


def monotone_map_extend(s_new, dim: int, fit: MonotoneMapFit, mp: MonotoneMapParams) -> np.ndarray:
    """Map values at unseen coordinates via the nearest-lower-knot increment.

    Exact at training knots, monotone between consecutive knots; below the
    smallest knot the same increment is subtracted.  Takes one coordinate or
    an array of them and returns an array of the same shape.
    """
    i, below, powered = map_extension(fit.knots[dim], s_new)
    values, slope = fit.values[dim], mp.C[dim] * mp.X[dim]
    return np.where(below, values[0] - slope * powered, values[i] + slope * powered)


def kernel_exponent(mapped: np.ndarray, mu_rows: np.ndarray, ksq: np.ndarray, time_term,
                    out: np.ndarray | None = None) -> np.ndarray:
    """The kernel's exponent -0.5 * sum_l ksq_l (M_l - mu_l)^2 - time_term
    of every (location, atom) pair: an (n, N) array for the rows of an
    (n, p) mapped-location matrix and the N atom coordinates in the (p, N)
    `mu_rows`, written to `out` when it is given.  `ksq` is the kernel's
    checked length-p precision vector (`KernelParams.tilde_sigma_sq`); the
    exponent does not read tau or xi, which enter through `time_term`.

    The exponent is expanded into one (n, p+2) @ (p+2, N) product, rows
    [ksq * M, -0.5 sum ksq M^2, 1] times columns
    [mu, 1, -0.5 sum ksq mu^2 - time_term].  Expanding the square cancels,
    so the rounding error scales with sum_l ksq_l (M_l^2 + mu_l^2) +
    time_term rather than with the exponent's own size: it is within
    4 (p+2) eps (that sum + 1) of the per-coordinate form.  The product's
    bits can depend on N (numpy and BLAS pick their routine by shape), so a
    caller that must reproduce them keeps the same atoms in one call.
    """
    p = ksq.size
    left = np.empty((mapped.shape[0], p + 2))
    left[:, :p] = mapped * ksq
    left[:, p] = -0.5 * np.einsum("ij,ij->i", left[:, :p], mapped)
    left[:, p + 1] = 1.0
    right = np.empty((p + 2, mu_rows.shape[1]))
    right[:p] = mu_rows
    right[p] = 1.0
    right[p + 1] = -0.5 * (ksq @ (mu_rows * mu_rows))
    right[p + 1] -= time_term
    return np.matmul(left, right, out=out)


def kernel_matrix(mapped: np.ndarray, mu_rows: np.ndarray, kp: KernelParams, time_term) -> np.ndarray:
    """Kernel values exp(-0.5 * sum_l ksq_l (M_l - mu_l)^2 - time_term) of
    every (location, atom) pair, the exponent formed by `kernel_exponent`
    and exponentiated in place, so the values match the per-coordinate form
    in all but the last bits.
    """
    out = kernel_exponent(mapped, mu_rows, kp.tilde_sigma_sq, time_term)
    return np.exp(out, out=out)


def field_values(mapped: np.ndarray, t: float, atoms: LatentAtoms, kp: KernelParams) -> np.ndarray:
    """Vectorized f over the rows of an (n, p) mapped-location matrix."""
    if atoms.count == 0:
        return np.zeros(mapped.shape[0])
    return kernel_matrix(mapped, atoms.mu.T, kp, kp.xi * abs(t - kp.tau)) @ atoms.beta


@dataclass(frozen=True)
class FieldOperands:
    """The atoms of a store laid out for `field_rows`: every atom in
    (count, block, slot) order, so that the blocks with J atoms sit side by
    side, J columns each.

    `mu` is column-major, as a fancy gather of the store lays it out: the
    bits of the kernel's ksq @ mu^2 row follow that layout.  The arrays are
    copies, so they stay valid when the store changes.
    """

    counts: np.ndarray   # (B,) atoms per block
    order: np.ndarray    # (B,) the blocks by count, ties in block order
    block: np.ndarray    # (N,) block of every atom
    slot: np.ndarray     # (N,) slot of every atom
    mu: np.ndarray       # (p, N) coordinates
    beta: np.ndarray     # (N,)
    groups: list[int]    # the number of blocks with 0, 1, 2, .. atoms

    @classmethod
    def build(cls, atoms: AtomStore) -> "FieldOperands":
        counts = atoms.counts.copy()
        order = np.argsort(counts, kind="stable")
        grouped = counts[order]
        rank, slot = np.nonzero(np.arange(atoms.width) < grouped[:, None])
        block = order[rank]
        return cls(counts, order, block, slot, atoms.values[1:, block, slot], atoms.values[0, block, slot],
                   np.bincount(grouped).tolist())

    def rows(self, mapped: np.ndarray, times: np.ndarray, kp: KernelParams) -> np.ndarray:
        """`field_rows(mapped, times, atoms, kp)` for the store these
        operands were built from."""
        n = mapped.shape[0]
        time_term = (kp.xi * np.abs(np.asarray(times, dtype=float) - kp.tau))[self.block]
        if n > 1:
            kernel = kernel_matrix(mapped, self.mu, kp, time_term)
        else:
            # With one location numpy takes a vector product, whose bits
            # follow each column's place: form the exponent in block order,
            # as over the store's own slots, then regroup it.
            place = (np.cumsum(self.counts) - self.counts)[self.block] + self.slot
            mu, block_term = np.empty_like(self.mu), np.empty_like(time_term)
            mu[:, place], block_term[place] = self.mu, time_term
            kernel = kernel_matrix(mapped, mu, kp, block_term)[:, place]
        return rows_by_count(kernel, self.beta, self.groups, self.order)


def rows_by_count(kernel: np.ndarray, beta: np.ndarray, groups, order: np.ndarray) -> np.ndarray:
    """The (B, n) rows of B blocks from an (n, N) kernel and N betas whose
    columns are laid out in (count, block, slot) order: `groups[j]` blocks
    with j atoms each, and `order` the blocks in that order.

    Row b is block b's (n, J) column slice times its J betas.  The g blocks
    with J atoms take one stacked `np.matmul` over a (g, n, J) view of
    their slices: the same routine on the same shapes and strides as each
    block's own `kernel[:, start:end] @ beta`, so each row keeps that
    product's bits.  A block with no atoms gets a row of zeros.
    """
    n = kernel.shape[0]
    grouped = np.zeros((order.size, n, 1))
    g0 = c0 = 0
    for j, g in enumerate(groups):
        if j and g:
            np.matmul(kernel[:, c0:c0 + g * j].reshape(n, g, j).transpose(1, 0, 2),
                      beta[c0:c0 + g * j].reshape(g, j, 1), out=grouped[g0:g0 + g])
        g0, c0 = g0 + g, c0 + g * j
    rows = np.empty((order.size, n))
    rows[order] = grouped[:, :, 0]
    return rows


def field_rows(mapped: np.ndarray, times: np.ndarray, atoms: AtomStore, kp: KernelParams) -> np.ndarray:
    """Fields of the blocks of a store over the rows of an (n, p)
    mapped-location matrix, one (B, n) row per block, where block b sits at
    times[b].

    One (n, sum J) kernel matrix covers every block's atoms, each atom with
    its block's time term, its columns in the order of `FieldOperands`, and
    `rows_by_count` forms the rows with one stacked product per atom count.
    Row b agrees with `field_values(mapped, times[b], atoms.block(b), kp)`
    within the kernel's rounding bound (see `kernel_exponent`), not bit for
    bit: the product's rounding for a column can depend on the other
    columns it is computed with.
    """
    return FieldOperands.build(atoms).rows(mapped, times, kp)


def log_observation_density(y, alpha: float, phi, f, sigma_sq_eff: float):
    """Gaussian log density of y around alpha + phi + f."""
    if sigma_sq_eff <= 0.0:
        raise InvalidArgumentError("effective variance must be positive")
    resid = np.asarray(y, dtype=float) - (alpha + np.asarray(phi, dtype=float) + np.asarray(f, dtype=float))
    return -0.5 * (_LOG_2PI + math.log(sigma_sq_eff)) - 0.5 * resid * resid / sigma_sq_eff


# ---------------------------------------------------------------------------
# theta block: packing, transforms, bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThetaLayout:
    """Index map of the 6p+4 fixed-dimension block in sampling scale.

    Order: X (raw), log C~, log C, log ksq, log tau, log xi,
    logit rho (per dim), log sigma_sq (per dim), logit rho_beta,
    log sigma_sq_beta.
    """

    p: int

    @property
    def dim(self) -> int:
        return 6 * self.p + 4

    @property
    def sl_x(self):
        return slice(0, self.p)

    @property
    def sl_log_c_tilde(self):
        return slice(self.p, 2 * self.p)

    @property
    def sl_log_c(self):
        return slice(2 * self.p, 3 * self.p)

    @property
    def sl_log_ksq(self):
        return slice(3 * self.p, 4 * self.p)

    @property
    def i_log_tau(self):
        return 4 * self.p

    @property
    def i_log_xi(self):
        return 4 * self.p + 1

    @property
    def sl_logit_rho(self):
        return slice(4 * self.p + 2, 5 * self.p + 2)

    @property
    def sl_log_ssq(self):
        return slice(5 * self.p + 2, 6 * self.p + 2)

    @property
    def i_logit_rho_beta(self):
        return 6 * self.p + 2

    @property
    def i_log_ssq_beta(self):
        return 6 * self.p + 3

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper truncation bounds per coordinate: read-only
        arrays, built once per p and shared by every layout of that p."""
        return _theta_bounds(self.p)


@functools.cache
def _theta_bounds(p: int) -> tuple[np.ndarray, np.ndarray]:
    layout = ThetaLayout(p=p)
    lo = np.empty(layout.dim)
    hi = np.empty(layout.dim)
    lo[layout.sl_x], hi[layout.sl_x] = X_LO, X_HI
    for sl in (layout.sl_log_c_tilde, layout.sl_log_c, layout.sl_log_ksq, layout.sl_log_ssq):
        lo[sl], hi[sl] = LOG_LO, LOG_HI
    lo[layout.i_log_tau] = lo[layout.i_log_xi] = lo[layout.i_log_ssq_beta] = LOG_LO
    hi[layout.i_log_tau] = hi[layout.i_log_xi] = hi[layout.i_log_ssq_beta] = LOG_HI
    lo[layout.sl_logit_rho], hi[layout.sl_logit_rho] = -LOGIT_BOUND, LOGIT_BOUND
    lo[layout.i_logit_rho_beta], hi[layout.i_logit_rho_beta] = -LOGIT_BOUND, LOGIT_BOUND
    lo.setflags(write=False)
    hi.setflags(write=False)
    return lo, hi


def theta_in_bounds(theta: np.ndarray, layout: ThetaLayout) -> bool:
    """Whether every coordinate lies within its truncation bounds (a NaN
    does not), in one pass over plain floats."""
    lo, hi = layout.bounds()
    return all(a <= t <= b for a, t, b in zip(lo.tolist(), theta.tolist(), hi.tolist(), strict=True))


def unpack_theta(theta: np.ndarray, layout: ThetaLayout, mode: ArMode):
    """Split the sampling-scale vector into natural-scale parameter groups.

    Returns (KernelParams, MonotoneMapParams, beta ArSpec, list of mu ArSpecs).
    """
    kp = KernelParams(
        tilde_sigma_sq=np.exp(theta[layout.sl_log_ksq]),
        tau=float(np.exp(theta[layout.i_log_tau])),
        xi=float(np.exp(theta[layout.i_log_xi])),
    )
    mp = MonotoneMapParams(
        C=np.exp(theta[layout.sl_log_c]),
        C_tilde=np.exp(theta[layout.sl_log_c_tilde]),
        X=np.asarray(theta[layout.sl_x], dtype=float).copy(),
    )
    beta_spec = ArSpec(
        rho=rho_from_transformed(float(theta[layout.i_logit_rho_beta]), mode),
        sigma_sq=float(np.exp(theta[layout.i_log_ssq_beta])),
        mode=mode,
    )
    mu_specs = [
        ArSpec(
            rho=rho_from_transformed(float(theta[layout.sl_logit_rho][ell]), mode),
            sigma_sq=float(np.exp(theta[layout.sl_log_ssq][ell])),
            mode=mode,
        )
        for ell in range(layout.p)
    ]
    return kp, mp, beta_spec, mu_specs


# ---------------------------------------------------------------------------
# priors
# ---------------------------------------------------------------------------

def _gauss_logpdf_scalar(x: float, mean: float, var: float) -> float:
    return -0.5 * (_LOG_2PI + math.log(var) + (x - mean) ** 2 / var)


def log_prior_theta(theta: np.ndarray, layout: ThetaLayout, nu: np.ndarray,
                    omega_sq: np.ndarray, prior: PriorConfig) -> float:
    """Prior of the fixed-dimension block in sampling coordinates.

    Returns -inf outside the truncation box.  Autoregression coefficients
    carry their prior on the transformed scale directly (no Jacobian); the
    slope variables X_l use the conjugate Gaussian factor N(X | nu, omega_sq)
    restricted to the bound interval, matching the closed-form nu/omega_sq
    updates.
    """
    if not theta_in_bounds(theta, layout):
        return -np.inf
    th, nu, omega_sq = theta.tolist(), np.asarray(nu).tolist(), np.asarray(omega_sq).tolist()
    a, b = prior.ig_a, prior.ig_b
    ig_const = a * math.log(b) - gammaln(a)

    def ig(phi):  # inverse-gamma log density of exp(phi), with the log-scale Jacobian
        return ig_const - (a + 1.0) * phi - b * math.exp(-phi) + phi

    x, c_tilde, c, ksq, rho, ssq = (sl.start for sl in (
        layout.sl_x, layout.sl_log_c_tilde, layout.sl_log_c, layout.sl_log_ksq, layout.sl_logit_rho,
        layout.sl_log_ssq))
    total = 0.0
    for ell in range(layout.p):
        total += _gauss_logpdf_scalar(th[x + ell], nu[ell], omega_sq[ell])
        total += ig(th[c_tilde + ell])
        total += ig(th[c + ell])
        total += ig(th[ksq + ell])
        total += _gauss_logpdf_scalar(th[rho + ell], 0.0, prior.rho_var)
        total += ig(th[ssq + ell])
    total += ig(th[layout.i_log_tau])
    total += ig(th[layout.i_log_xi])
    total += _gauss_logpdf_scalar(th[layout.i_logit_rho_beta], 0.0, prior.rho_var)
    total += ig(th[layout.i_log_ssq_beta])
    return total


# ---------------------------------------------------------------------------
# atom-process density and count factor
# ---------------------------------------------------------------------------

def atoms_in_bounds(atoms: LatentAtoms) -> bool:
    return bool(np.all(np.abs(atoms.mu) <= COORD_BOUND))


def chain_factor(values_curr: np.ndarray, values_prev, j_prev: int, gap, spec: ArSpec):
    """Log density of one coordinate column at time k given its predecessor.

    Atom chains are index-matched across time; chains without a predecessor
    (index beyond the previous count) start from the initial law.
    """
    J = values_curr.size
    shared = min(J, j_prev)
    total = 0.0
    if shared > 0:
        total += float(np.sum(ar_transition_log_density(values_curr[:shared], values_prev[:shared], gap, spec)))
    if J > shared:
        total += float(np.sum(ar_initial_log_density(values_curr[shared:], spec)))
    return total


def atom_block_log_density(atoms_k: LatentAtoms, atoms_prev: LatentAtoms | None,
                           gap, beta_spec: ArSpec, mu_specs) -> float:
    """All incoming process factors of one time block (bounds included)."""
    if not atoms_in_bounds(atoms_k):
        return -np.inf
    if atoms_prev is None:
        total = float(np.sum(ar_initial_log_density(atoms_k.beta, beta_spec)))
        for ell, spec in enumerate(mu_specs):
            total += float(np.sum(ar_initial_log_density(atoms_k.mu[:, ell], spec)))
        return total
    total = chain_factor(atoms_k.beta, atoms_prev.beta, atoms_prev.count, gap, beta_spec)
    for ell, spec in enumerate(mu_specs):
        total += chain_factor(atoms_k.mu[:, ell], atoms_prev.mu[:, ell], atoms_prev.count, gap, spec)
    return total


@dataclass(frozen=True)
class ProcessTable:
    """The Gaussian terms of every process factor under one theta, tabled.

    Rows follow the coordinate chains [beta | mu_1 .. mu_p], columns the
    distinct time gaps of a dataset and, last, the initial law (mean
    multiplier 0), so gap index -1 selects the initial law.
    `log_densities` computes each term with the elementwise operations of
    `atom_block_log_density` but sums a block's terms in another order: per
    chain over the padded slots (linked and initial-law terms together),
    then over chains.  Its values agree with that reference within
    2 L eps sum|t| over the block's L = (p+1) J terms t, not bit for bit;
    the -inf of a block with an atom out of bounds is exact.
    """

    mult: np.ndarray   # (p+1, G+1) transition mean multipliers rho**gap; 0 for the initial law
    var: np.ndarray    # (p+1, G+1) transition variances, then the initial-law variances
    norm: np.ndarray   # (p+1, G+1) log(2 pi) + log(var)

    @classmethod
    def build(cls, gaps: np.ndarray, beta_spec: ArSpec, mu_specs) -> "ProcessTable":
        specs = (beta_spec, *mu_specs)
        shape = (len(specs), len(gaps) + 1)
        mult, var = np.zeros(shape), np.empty(shape)
        for c, spec in enumerate(specs):
            for g, gap in enumerate(gaps):
                mult[c, g], var[c, g] = transition_moments(gap, spec)
            var[c, -1] = spec.initial_variance
        return cls(mult, var, _LOG_2PI + np.log(var))

    def log_densities(self, atoms: AtomStore, prev: AtomStore, g: np.ndarray) -> np.ndarray:
        """Incoming process factors of the blocks of a store in one pass.

        Block b follows block b of `prev` (a count of 0: no predecessor, the
        first time) across the gap of table column g[b].
        Blocks with an atom out of bounds get -inf.  Atom j of a block
        follows atom j of its predecessor while both exist and starts from
        the initial law beyond that.  The atoms' operands
        (`ProcessOperands`) are formed first, then scored (`score`): the
        terms form one (p+1, B, W) array over the first W slots, W the
        largest count of the batch; slots at or past a block's count are
        zeroed before the sums, whose bits depend on W.  An empty batch
        gives an empty array.
        """
        return self.score(ProcessOperands.build(atoms, prev, g))

    def score(self, operands: ProcessOperands) -> np.ndarray:
        """`log_densities` of the blocks whose operands are given."""
        col, shape = operands.col, operands.x.shape

        def lookup(table):
            return table.take(col, axis=1).reshape(shape)

        terms = operands.x - lookup(self.mult) * operands.prev_x
        terms *= terms
        terms /= lookup(self.var)
        terms += lookup(self.norm)
        terms *= -0.5
        terms[:, operands.unused[0], operands.unused[1]] = 0.0
        total = terms.sum(axis=2).sum(axis=0)
        total[operands.out_of_bounds] = -np.inf
        return total


@dataclass(frozen=True)
class ProcessOperands:
    """The atom-only operands of `ProcessTable.log_densities` for a batch of
    B blocks and their predecessors, over the first W slots, W the largest
    count of the batch (0 for an empty batch).

    `x` is a view of the store's values, so it holds the atoms only while
    the store does not change.
    """

    x: np.ndarray              # (p+1, B, W) the blocks' slots
    prev_x: np.ndarray         # (p+1, B, W) each linked slot's predecessor atom, 0 elsewhere
    col: np.ndarray            # (B W,) each slot's table column: its block's gap, or -1 (the initial law)
    unused: tuple              # (block, slot) of every slot at or past its block's count
    out_of_bounds: np.ndarray  # (B,) whether the block has an atom out of bounds

    @classmethod
    def build(cls, atoms: AtomStore, prev: AtomStore, g: np.ndarray) -> "ProcessOperands":
        counts = atoms.counts
        width = int(counts.max()) if counts.size else 0
        slot = np.arange(width)
        used = slot < counts[:, None]
        linked = slot < np.minimum(counts, prev.counts)[:, None]
        x = atoms.values[:, :, :width]
        # Initial-law terms take predecessor 0 and column -1 (multiplier 0).
        prev_x = np.zeros(x.shape)
        shared = min(width, prev.width)
        np.copyto(prev_x[:, :, :shared], prev.values[:, :, :shared], where=linked[:, :shared])
        col = np.where(linked, np.asarray(g)[:, None], -1).ravel()
        out_of_bounds = np.any(~np.all(np.abs(x[1:]) <= COORD_BOUND, axis=0) & used, axis=1)
        return cls(x, prev_x, col, np.nonzero(~used), out_of_bounds)


def atom_process_log_density(atoms: list[LatentAtoms], times: np.ndarray,
                             beta_spec: ArSpec, mu_specs) -> float:
    """Process factors over all time blocks (initial laws plus transitions
    over the gaps of `step_gaps`)."""
    gaps = step_gaps(times, beta_spec.mode)
    total = atom_block_log_density(atoms[0], None, None, beta_spec, mu_specs)
    for k in range(1, len(atoms)):
        if not np.isfinite(total):
            return -np.inf
        total += atom_block_log_density(atoms[k], atoms[k - 1], gaps[k - 1], beta_spec, mu_specs)
    return total


def count_log_factor(J, lam: float):
    """Unnormalized Poisson count factor J log(lam) - log(J!), of one count
    or elementwise of an array of counts.

    The exp(-lam) normalization is constant across J moves and enters the
    lambda update through its conjugate rate instead.
    """
    return J * math.log(lam) - gammaln(J + 1)
