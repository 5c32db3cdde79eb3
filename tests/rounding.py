"""Rounding bounds for batched values checked against per-block references.

The batched process factors sum a block's terms in another order than
`atom_block_log_density`, and the kernel matrix expands its exponent into
one product.  Neither changes which terms are added, only how they round, so
each comparison allows the error a floating-point analysis gives and no more.
"""

import numpy as np

from levyst.ar import ar_initial_log_density, ar_transition_log_density

EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny


def process_tolerance(atoms, prev, gap, specs) -> float:
    """2 L eps sum|t| for one block's process factor: its L = (p+1) J terms
    t (transition terms for the atoms linked to `prev`, initial-law terms
    beyond) summed in two orders, each within (L-1) eps sum|t| of the exact sum."""
    shared = 0 if prev is None else min(atoms.count, prev.count)
    cols = [atoms.beta, *atoms.mu.T]
    prev_cols = [None] * len(cols) if prev is None else [prev.beta, *prev.mu.T]
    abs_sum = 0.0
    for x, x_prev, spec in zip(cols, prev_cols, specs):
        if shared:
            abs_sum += np.abs(ar_transition_log_density(x[:shared], x_prev[:shared], gap, spec)).sum()
        abs_sum += np.abs(ar_initial_log_density(x[shared:], spec)).sum()
    return 2.0 * len(cols) * atoms.count * EPS * abs_sum


def exponent_tolerance(mapped, mu_rows, ksq, time_term):
    """4 (p+2) eps (sum_l ksq_l (M_l^2 + mu_l^2) + time_term + 1) for each
    (location, atom) pair: the kernel exponent as a length p+2 dot product
    errs by (p+2) eps times the sum of its terms' sizes, which is at most the
    bracket; the factor 4 covers forming the terms, the reference's own
    rounding, exp and log."""
    scale = (mapped ** 2 @ ksq)[:, None] + (ksq @ mu_rows ** 2)[None, :] + time_term + 1.0
    return 4.0 * (ksq.size + 2) * EPS * scale


def assert_kernel_close(got, exponent, tol):
    """`got` is exp(exponent) within |log got - exponent| <= tol where it is
    a normal number; where it is subnormal or 0, the exponent lies below the
    normal range (up to tol)."""
    normal = got >= TINY
    assert np.all(np.abs(np.log(got[normal]) - exponent[normal]) <= tol[normal])
    assert np.all(exponent[~normal] <= np.log(TINY) + tol[~normal])


def field_tolerance(kernel, tol, beta):
    """Bound on |f - kernel @ beta| for a field f whose kernel values are
    within exp(+-tol) of `kernel`, summed in any order over the N atoms."""
    per_atom = kernel * (np.expm1(tol) + 2.0 * kernel.shape[1] * EPS) + TINY
    return per_atom @ np.abs(beta)


def assert_factor_close(got, want, tol):
    """A process factor within `tol` of its reference, and -inf exactly
    where the reference is (an atom out of bounds)."""
    assert np.isfinite(got) == np.isfinite(want)
    assert got == want if not np.isfinite(want) else abs(got - want) <= tol
