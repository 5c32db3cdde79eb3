import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import invgamma, norm, poisson

import oracles
from levyst import model
from levyst.ar import ArMode, ArSpec, step_gaps
from levyst.errors import InvalidArgumentError, InvalidStateError
from levyst.model import (
    COORD_BOUND,
    LOG_HI,
    LOG_LO,
    MAP_EXPONENT,
    AtomStore,
    KernelParams,
    LatentAtoms,
    MapGrid,
    MonotoneMapFit,
    MonotoneMapParams,
    PriorConfig,
    ProcessTable,
    ScalarHypers,
    ThetaLayout,
    atom_process_log_density,
    count_log_factor,
    field_rows,
    field_values,
    kernel_matrix,
    log_observation_density,
    log_prior_theta,
    monotone_map_extend,
    theta_in_bounds,
    unpack_theta,
)
from oracles import (atom_block_log_density, f_eval, field_rows_per_block, log_ig_transformed, log_joint_parts,
                     log_joint_posterior, log_prior_zeta, map_extend, map_fit)
from rounding import (assert_factor_close, assert_kernel_close, chain_process_tolerance, exponent_tolerance,
                      field_tolerance, process_tolerance)

KP2 = KernelParams(tilde_sigma_sq=np.array([1.0, 1.0]), tau=1.0, xi=0.5)


def _kernel(delta_s, delta_t, kp):
    """The kernel at one coordinate difference and time difference, from
    `kernel_matrix` with the atom at the origin and tau at 0."""
    mapped = np.atleast_2d(np.asarray(delta_s, dtype=float))
    return float(kernel_matrix(mapped, np.zeros((kp.p, 1)), kp, kp.xi * abs(delta_t))[0, 0])


def test_kernel_values():
    assert _kernel(np.zeros(2), 0.0, KP2) == pytest.approx(1.0)
    got = _kernel(np.array([1.0, 1.0]), 2.0, KP2)
    assert got == pytest.approx(math.exp(-2.0), rel=1e-12)
    kp1 = KernelParams(tilde_sigma_sq=np.array([1.0]), tau=3.0, xi=1.0)
    assert _kernel(np.zeros(1), 1.0, kp1) < _kernel(np.zeros(1), 0.0, kp1)


def test_kernel_rejects_nonfinite():
    with pytest.raises(InvalidArgumentError):
        KernelParams(tilde_sigma_sq=np.array([-1.0]), tau=1.0, xi=1.0)


@given(ds=st.lists(st.floats(-5, 5), min_size=2, max_size=2),
       dt=st.floats(-5, 5))
@settings(max_examples=50, deadline=None)
def test_kernel_bounded_property(ds, dt):
    v = _kernel(np.array(ds), dt, KP2)
    assert 0.0 < v <= 1.0
    if any(abs(x) > 1e-3 for x in ds) or abs(dt) > 1e-3:
        assert v < 1.0


def _map_params(C, C_tilde, X, p=1):
    return MonotoneMapParams(C=np.full(p, C), C_tilde=np.full(p, C_tilde), X=np.full(p, X))


def _grid_fit(coords, mp):
    """The one-dimensional map's knot values under one theta, from `MapGrid`."""
    grid = MapGrid.build(np.asarray(coords)[:, None])
    return MonotoneMapFit(grid.knots, (grid.knot_values(0, mp.C * mp.X, mp.C_tilde)[0],))


def test_map_fit_values():
    mp = _map_params(1.0, 1.0, 0.0)
    fit = _grid_fit(np.array([0.7]), mp)
    assert fit.values[0] == pytest.approx([1.0])

    mp = _map_params(2.0, 1.0, 1.0)
    fit = _grid_fit(np.array([0.0, 0.5, 1.0]), mp)
    np.testing.assert_allclose(fit.values[0], [1.0, 1.5, 2.0])


def test_map_grid_rejects_overflowing_terms():
    # coordinates whose increment or |s_(1)|^r overflows, in either order:
    # raised with no overflow warning
    for far in (np.array([-1.7976931348623157e308, 1e292]), np.array([1e292, -1.7976931348623157e308]),
                np.array([1e200, 1e200])):
        with pytest.raises(InvalidArgumentError, match="dimension 1 overflow"):
            MapGrid.build(np.column_stack([[0.0, 1.0], far]))
    for empty in (np.empty((0, 2)), np.zeros(3)):
        with pytest.raises(InvalidArgumentError, match="nonempty"):
            MapGrid.build(empty)


def test_map_grid_keeps_each_locations_knot():
    """Unsorted, repeated training coordinates: the knots are the sorted
    unique values, and `mapped` gives each location its knot's value."""
    locations = np.array([[0.7, 2.0], [0.1, -1.0], [0.7, 0.5], [0.4, 2.0]])
    grid = MapGrid.build(locations)
    assert [k.tolist() for k in grid.knots] == [[0.1, 0.4, 0.7], [-1.0, 0.5, 2.0]]
    slope, c_tilde = np.array([1.3, 0.2]), np.array([0.5, 2.0])
    mapped = grid.mapped(slope, c_tilde)
    for ell in range(2):
        values = grid.knot_values(ell, slope[ell:ell + 1], c_tilde[ell:ell + 1])[0]
        assert np.array_equal(mapped[:, ell], values[np.searchsorted(grid.knots[ell], locations[:, ell])])


@given(coords=st.lists(st.floats(-3, 3), min_size=1, max_size=8),
       c=st.floats(0.01, 5), ct=st.floats(0.01, 5), x=st.floats(0, 10))
@settings(max_examples=60, deadline=None)
def test_map_fit_nondecreasing_property(coords, c, ct, x):
    coords = np.sort(np.asarray(coords))
    fit = _grid_fit(coords, _map_params(c, ct, x))
    assert np.all(np.diff(fit.values[0]) >= -1e-15)


def test_map_extend():
    mp = _map_params(2.0, 1.0, 1.0)
    fit = _grid_fit(np.array([0.0, 0.5, 1.0]), mp)
    assert monotone_map_extend(0.5, 0, fit, mp) == pytest.approx(1.5)
    assert monotone_map_extend(0.25, 0, fit, mp) == pytest.approx(1.125)
    assert monotone_map_extend(-0.5, 0, fit, mp) == pytest.approx(0.5)
    # monotone against neighbors inside one inter-knot interval
    lo = monotone_map_extend(0.10, 0, fit, mp)
    hi = monotone_map_extend(0.45, 0, fit, mp)
    assert 1.0 <= lo <= hi <= 1.5


def _extend_pointwise(s, dim, fit, mp):
    """One coordinate at a time, with the scalar power of each offset."""
    knots, values = fit.knots[dim], fit.values[dim]
    slope = mp.C[dim] * mp.X[dim]
    if s < knots[0]:
        return float(values[0] - slope * (knots[0] - s) ** MAP_EXPONENT)
    i = int(np.searchsorted(knots, s, side="right")) - 1
    return float(values[i] + slope * (s - knots[i]) ** MAP_EXPONENT)


def test_map_extend_array_matches_pointwise():
    # enough points that squaring in place of the scalar power would show
    rng = np.random.default_rng(4)
    mp = _map_params(1.7, 0.9, 2.3)
    fit = map_fit([np.sort(rng.random(15))], mp)
    pts = np.concatenate([rng.uniform(-1.0, 2.0, 20_000), fit.knots[0]])
    want = np.array([_extend_pointwise(s, 0, fit, mp) for s in pts])
    np.testing.assert_array_equal(monotone_map_extend(pts, 0, fit, mp), want)
    with pytest.raises(InvalidArgumentError):
        monotone_map_extend(np.array([0.2, np.nan]), 0, fit, mp)


def test_map_grid_rows_equal_the_one_theta_recursion():
    """A batch's knot values, and the one-theta extension built on them,
    equal the per-dimension recursion and extension bit for bit."""
    rng = np.random.default_rng(5)
    coords = [np.sort(rng.uniform(-1.0, 2.0, 40)), np.array([0.3])]
    grid = MapGrid.build(np.column_stack([coords[0], np.full(40, 0.3)]))
    slope, c_tilde = rng.uniform(0.01, 20.0, (7, 2)), rng.uniform(0.1, 5.0, (7, 2))
    pts = rng.uniform(-2.0, 3.0, 500)
    for ell in range(2):
        batch = grid.knot_values(ell, slope[:, ell], c_tilde[:, ell])
        for b in range(7):
            mp = MonotoneMapParams(C=slope[b], C_tilde=c_tilde[b], X=np.ones(2))
            want = map_fit(coords, mp)
            assert np.array_equal(batch[b], want.values[ell])
            assert np.array_equal(monotone_map_extend(pts, ell, want, mp), map_extend(pts, ell, want, mp))


@pytest.mark.parametrize("mode", [ArMode.IAR, ArMode.REGULAR_AR1])
def test_process_table_matches_reference_density(mode):
    rng = np.random.default_rng(6)
    gaps = np.array([1.0, 2.0, 3.0]) if mode is ArMode.REGULAR_AR1 else np.array([0.3, 1.0, 2.7])
    for _ in range(300):
        p = int(rng.integers(1, 4))
        rho_lo = 0.05 if mode is ArMode.IAR else -0.95
        specs = [ArSpec(rho=float(rng.uniform(rho_lo, 0.95)), sigma_sq=float(np.exp(rng.uniform(-3, 2))),
                        mode=mode) for _ in range(p + 1)]
        table = ProcessTable.build(gaps, specs[0], specs[1:])
        J, J_prev = (int(v) for v in rng.integers(1, 60, size=2))
        atoms = LatentAtoms(rng.normal(scale=4.0, size=(J, p)), rng.normal(size=J))
        prev = LatentAtoms(rng.normal(scale=4.0, size=(J_prev, p)), rng.normal(size=J_prev))
        g = int(rng.integers(gaps.size))
        # block 0 follows `prev` across gap g, block 1 starts from the initial law
        store = AtomStore.from_blocks([atoms, atoms])
        before = AtomStore.from_blocks([prev, None])
        got = table.log_densities(store, before, np.array([g, -1]))
        want = (atom_block_log_density(atoms, prev, gaps[g], specs[0], specs[1:]),
                atom_block_log_density(atoms, None, None, specs[0], specs[1:]))
        assert_factor_close(got[0], want[0], process_tolerance(atoms, prev, gaps[g], specs))
        assert_factor_close(got[1], want[1], process_tolerance(atoms, None, None, specs))
    # a parity with no blocks (m = 1 has no second parity) scores nothing
    assert table.log_densities(store.take(np.arange(0)), before.take(np.arange(0)), np.arange(0)).shape == (0,)


@given(mode=st.sampled_from(list(ArMode)), p=st.integers(1, 3),
       blocks=st.lists(st.tuples(st.integers(0, 11), st.booleans()), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
@example(mode=ArMode.IAR, p=1, blocks=[(0, False)], seed=0)
@example(mode=ArMode.REGULAR_AR1, p=2, blocks=[(3, False), (0, False), (2, True), (5, False)], seed=1)
@settings(max_examples=200, deadline=None)
def test_process_delegations_match_the_per_block_densities(mode, p, blocks, seed):
    """`model.atom_block_log_density` and `model.atom_process_log_density`,
    each one `ProcessTable` pass, agree with the per-block densities of
    `tests/oracles.py` within their rounding bounds, on a unit grid (the
    regular AR(1), rho of either sign) and an irregular one, with counts
    from 0 and -inf exact where a block has an atom outside the box."""
    rng = np.random.default_rng(seed)
    rho_lo = 0.05 if mode is ArMode.IAR else -0.95
    specs = [ArSpec(rho=float(rng.uniform(rho_lo, 0.95)), sigma_sq=float(np.exp(rng.uniform(-3, 2))), mode=mode)
             for _ in range(p + 1)]
    m = len(blocks)
    times = np.arange(1.0, m + 1.0) if mode is ArMode.REGULAR_AR1 else np.cumsum(rng.uniform(0.2, 3.0, size=m))
    atoms = []
    for J, outside in blocks:
        mu = rng.normal(scale=3.0, size=(J, p))
        if outside and J:
            mu[rng.integers(J), rng.integers(p)] = rng.choice([-1.0, 1.0]) * 10.5
        atoms.append(LatentAtoms(mu, rng.normal(size=J)))
    gaps = step_gaps(times, mode)
    for k, block in enumerate(atoms):
        prev, gap = (None, None) if k == 0 else (atoms[k - 1], gaps[k - 1])
        assert_factor_close(model.atom_block_log_density(block, prev, gap, specs[0], specs[1:]),
                            oracles.atom_block_log_density(block, prev, gap, specs[0], specs[1:]),
                            process_tolerance(block, prev, gap, specs))
    assert_factor_close(model.atom_process_log_density(atoms, times, specs[0], specs[1:]),
                        oracles.atom_process_log_density(atoms, times, specs[0], specs[1:]),
                        chain_process_tolerance(atoms, gaps, specs))


@given(p=st.integers(1, 3), n=st.sampled_from([1, 2, 7, 30, 100]), J=st.integers(0, 11),
       seed=st.integers(0, 2**32 - 1))
@example(p=1, n=1, J=0, seed=0)
@example(p=2, n=1, J=4, seed=1)
@example(p=3, n=30, J=0, seed=2)
@settings(max_examples=300, deadline=None)
def test_field_values_equals_the_per_block_field(p, n, J, seed):
    """`model.field_values`, one `field_rows` call on a one-block store,
    equals the per-block field of `tests/oracles.py` bit for bit, one
    location (numpy's vector product) and no atoms included."""
    rng = np.random.default_rng(seed)
    kp = KernelParams(tilde_sigma_sq=np.exp(rng.uniform(-3.0, 1.0, size=p)), tau=math.exp(rng.uniform(-3.0, 2.0)),
                      xi=math.exp(rng.uniform(-3.0, 0.0)))
    mapped = rng.normal(scale=2.0, size=(n, p))
    atoms = LatentAtoms(rng.normal(scale=2.0, size=(J, p)), rng.normal(size=J))
    t = float(rng.uniform(0.0, 10.0))
    got, want = model.field_values(mapped, t, atoms, kp), oracles.field_values(mapped, t, atoms, kp)
    assert got.shape == want.shape == (n,) and got.tobytes() == want.tobytes()


def test_f_eval_cases():
    kp = KernelParams(tilde_sigma_sq=np.array([1.0, 1.0]), tau=2.0, xi=0.5)
    empty = LatentAtoms(np.zeros((0, 2)), np.zeros(0))
    assert f_eval(np.array([0.3, 0.4]), 1.0, empty, kp) == 0.0

    atoms = LatentAtoms(np.array([[1.0, 1.0]]), np.array([2.0]))
    got = f_eval(np.array([0.0, 0.0]), 4.0, atoms, kp)
    # kernel exp(-0.5*2 - 0.5*|4-2|) = exp(-2)
    assert got == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)

    doubled = LatentAtoms(atoms.mu, 2.0 * atoms.beta)
    assert f_eval(np.array([0.0, 0.0]), 4.0, doubled, kp) == pytest.approx(2 * got)


def test_f_eval_dimension_mismatch():
    kp = KernelParams(tilde_sigma_sq=np.array([1.0]), tau=1.0, xi=1.0)
    atoms = LatentAtoms(np.array([[1.0, 2.0]]), np.array([1.0]))
    with pytest.raises(InvalidArgumentError):
        f_eval(np.array([0.0, 0.0]), 0.0, atoms, kp)


def test_f_eval_continuity_smoke():
    rng = np.random.default_rng(3)
    kp = KernelParams(tilde_sigma_sq=np.array([0.8, 1.3]), tau=0.2, xi=0.4)
    atoms = LatentAtoms(rng.normal(size=(6, 2)), rng.normal(size=6))
    s = np.array([0.4, -0.2])
    f0 = f_eval(s, 1.0, atoms, kp)
    diffs = []
    for h in (1e-3, 1e-5):
        fh = f_eval(s + np.array([h, 0.0]), 1.0, atoms, kp)
        diffs.append(abs(fh - f0))
    assert diffs[1] < diffs[0]
    assert diffs[1] / diffs[0] == pytest.approx(1e-2, rel=0.05)


def test_field_values_matches_f_eval():
    rng = np.random.default_rng(8)
    kp = KernelParams(tilde_sigma_sq=np.array([0.8, 1.3]), tau=0.2, xi=0.4)
    atoms = LatentAtoms(rng.normal(size=(5, 2)), rng.normal(size=5))
    mapped = rng.normal(size=(7, 2))
    vec = field_values(mapped, 2.0, atoms, kp)
    for i in range(7):
        assert vec[i] == pytest.approx(f_eval(mapped[i], 2.0, atoms, kp), rel=1e-12)


def _einsum_exponent(mapped, mu, kp, time_term):
    """The kernel exponent from one (n, N, p) difference array and an einsum,
    the per-coordinate form the expanded product replaced."""
    d = mapped[:, None, :] - mu[None, :, :]
    return -0.5 * np.einsum("njp,p->nj", d * d, kp.tilde_sigma_sq) - time_term


_BOX = st.floats(-COORD_BOUND, COORD_BOUND)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_field_kernel_matches_einsum_reference(p, data):
    """`kernel_matrix`, `field_rows` and `field_values` agree with the einsum
    form over the whole box: atoms anywhere in [-COORD_BOUND, COORD_BOUND],
    mapped locations inside and beyond it, log ksq, log xi and log tau
    anywhere in [LOG_LO, LOG_HI].  Exponents agree within
    `exponent_tolerance` (compared as logs, so kernels that underflow count
    too), fields within `field_tolerance`."""
    log_param = st.floats(LOG_LO, LOG_HI)
    kp = KernelParams(tilde_sigma_sq=np.exp(data.draw(st.lists(log_param, min_size=p, max_size=p))),
                      tau=math.exp(data.draw(log_param)), xi=math.exp(data.draw(log_param)))
    n = data.draw(st.integers(1, 12))
    mapped = np.array(data.draw(st.lists(st.floats(-3 * COORD_BOUND, 3 * COORD_BOUND),
                                         min_size=n * p, max_size=n * p))).reshape(n, p)
    counts = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    blocks = [LatentAtoms(np.array(data.draw(st.lists(_BOX, min_size=J * p, max_size=J * p))).reshape(J, p),
                          np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=J, max_size=J))))
              for J in counts]
    times = np.array(data.draw(st.lists(st.floats(0.0, 10.0), min_size=len(blocks), max_size=len(blocks))))
    rows = field_rows(mapped, times, AtomStore.from_blocks(blocks, width=14), kp)
    for b, atoms in enumerate(blocks):
        time_term = kp.xi * abs(times[b] - kp.tau)
        exponent = _einsum_exponent(mapped, atoms.mu, kp, time_term)
        tol = exponent_tolerance(mapped, atoms.mu.T, kp.tilde_sigma_sq, time_term)
        assert_kernel_close(kernel_matrix(mapped, atoms.mu.T, kp, time_term), exponent, tol)
        want_kernel = np.exp(exponent)
        bound = field_tolerance(want_kernel, tol, atoms.beta)
        assert np.all(np.abs(rows[b] - want_kernel @ atoms.beta) <= bound)
        assert np.all(np.abs(field_values(mapped, times[b], atoms, kp) - want_kernel @ atoms.beta) <= bound)


_COUNT_PATTERNS = ("equal", "distinct", "repeated")


@given(p=st.sampled_from([1, 2, 3]), n=st.sampled_from([1, 2, 7, 30]), j_max=st.integers(1, 9),
       pattern=st.sampled_from(_COUNT_PATTERNS), blocks=st.integers(1, 12), extra=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_field_rows_equal_the_per_block_loop(p, n, j_max, pattern, blocks, extra, seed):
    """`field_rows`, grouped by atom count, equals the per-block loop in
    `tests/oracles.py` bit for bit: over p, n (n = 1 takes numpy's vector
    product), stores whose counts in 1..j_max are all equal, all distinct or
    repeated, stores wider than j_max, and times with repeats."""
    rng = np.random.default_rng(seed)
    if pattern == "equal":
        counts = np.full(blocks, rng.integers(1, j_max + 1))
    elif pattern == "distinct":
        counts = rng.permutation(np.arange(1, j_max + 1))[:blocks]
    else:
        counts = rng.choice(rng.integers(1, j_max + 1, size=2), size=blocks)
    values = 3.0 * rng.standard_normal((p + 1, counts.size, j_max + extra))
    atoms = AtomStore(values, counts.astype(np.int64))
    times = rng.choice(np.array([0.0, 1.0, 2.5, 4.0]), size=counts.size)
    mapped = 2.0 * rng.standard_normal((n, p))
    kp = KernelParams(np.exp(rng.standard_normal(p)), math.exp(rng.standard_normal()),
                      math.exp(rng.standard_normal()))
    assert np.array_equal(field_rows(mapped, times, atoms, kp), field_rows_per_block(mapped, times, atoms, kp))


def test_log_observation_density():
    assert log_observation_density(1.3, 0.3, 0.5, 0.5, 1.0) == pytest.approx(
        -0.5 * math.log(2 * math.pi))
    at_mode = log_observation_density(0.0, 0.0, 0.0, 0.0, 4.0)
    one_sd = log_observation_density(2.0, 0.0, 0.0, 0.0, 4.0)
    assert at_mode - one_sd == pytest.approx(0.5)
    assert log_observation_density(1.0, 0.0, 0.0, 0.0, 4.0) == pytest.approx(
        -0.5 * math.log(8 * math.pi) - 0.125)
    with pytest.raises(InvalidArgumentError):
        log_observation_density(0.0, 0.0, 0.0, 0.0, 0.0)


def test_ig_transformed_matches_scipy_and_integrates():
    a, b = 2.01, 1.01
    for phi in (-3.0, 0.0, 2.0):
        expected = invgamma.logpdf(math.exp(phi), a, scale=b) + phi
        assert log_ig_transformed(phi, a, b) == pytest.approx(expected, rel=1e-10)
    total, _ = quad(lambda u: math.exp(log_ig_transformed(u, a, b)), -20, 5, limit=200)
    mass = invgamma.cdf(math.exp(5.0), a, scale=b) - invgamma.cdf(math.exp(-20.0), a, scale=b)
    assert total == pytest.approx(mass, rel=1e-6)


def test_ig_component_at_one():
    a, b = 2.01, 1.01
    assert log_ig_transformed(0.0, a, b) == pytest.approx(
        a * math.log(b) - math.lgamma(a) - b, rel=1e-12)


def _theta_for(p, layout, mode=ArMode.REGULAR_AR1):
    theta = np.zeros(layout.dim)
    theta[layout.sl_x] = 0.7
    theta[layout.sl_log_c_tilde] = 0.1
    theta[layout.sl_log_c] = -0.4
    theta[layout.sl_log_ksq] = 0.2
    theta[layout.i_log_tau] = -0.3
    theta[layout.i_log_xi] = -0.1
    theta[layout.sl_logit_rho] = 0.4
    theta[layout.sl_log_ssq] = -0.2
    theta[layout.i_logit_rho_beta] = -0.5
    theta[layout.i_log_ssq_beta] = 0.3
    return theta


def test_log_prior_truncation_sentinel():
    layout = ThetaLayout(p=2)
    prior = PriorConfig()
    nu, omega = np.zeros(2), np.ones(2)
    theta = _theta_for(2, layout)
    assert np.isfinite(log_prior_theta(theta, layout, nu, omega, prior))
    bad = theta.copy()
    bad[layout.i_log_tau] = 6.0
    assert log_prior_theta(bad, layout, nu, omega, prior) == -np.inf
    bad2 = theta.copy()
    bad2[layout.sl_x] = -0.1
    assert log_prior_theta(bad2, layout, nu, omega, prior) == -np.inf


def test_log_prior_additivity():
    layout = ThetaLayout(p=1)
    prior = PriorConfig()
    nu, omega = np.zeros(1), np.ones(1)
    theta = _theta_for(1, layout)
    total = log_prior_theta(theta, layout, nu, omega, prior)
    # independent sum assembled from scipy pieces
    pieces = norm.logpdf(theta[layout.sl_x][0], 0.0, 1.0)
    for idx in (layout.sl_log_c_tilde.start, layout.sl_log_c.start, layout.sl_log_ksq.start,
                layout.i_log_tau, layout.i_log_xi, layout.sl_log_ssq.start,
                layout.i_log_ssq_beta):
        pieces += invgamma.logpdf(math.exp(theta[idx]), prior.ig_a, scale=prior.ig_b) + theta[idx]
    for idx in (layout.sl_logit_rho.start, layout.i_logit_rho_beta):
        pieces += norm.logpdf(theta[idx], 0.0, math.sqrt(prior.rho_var))
    assert total == pytest.approx(pieces, rel=1e-10)


def _log_prior_theta_reference(theta, layout, nu, omega_sq, prior):
    """`log_prior_theta` as first written: per-coordinate reads and the
    inverse-gamma constant recomputed in every term."""
    def gauss(x, mean, var):
        return -0.5 * (math.log(2.0 * math.pi) + math.log(var) + (x - mean) ** 2 / var)

    if not theta_in_bounds(theta, layout):
        return -np.inf
    total = 0.0
    for ell in range(layout.p):
        total += gauss(float(theta[layout.sl_x][ell]), float(nu[ell]), float(omega_sq[ell]))
        total += log_ig_transformed(float(theta[layout.sl_log_c_tilde][ell]), prior.ig_a, prior.ig_b)
        total += log_ig_transformed(float(theta[layout.sl_log_c][ell]), prior.ig_a, prior.ig_b)
        total += log_ig_transformed(float(theta[layout.sl_log_ksq][ell]), prior.ig_a, prior.ig_b)
        total += gauss(float(theta[layout.sl_logit_rho][ell]), 0.0, prior.rho_var)
        total += log_ig_transformed(float(theta[layout.sl_log_ssq][ell]), prior.ig_a, prior.ig_b)
    total += log_ig_transformed(float(theta[layout.i_log_tau]), prior.ig_a, prior.ig_b)
    total += log_ig_transformed(float(theta[layout.i_log_xi]), prior.ig_a, prior.ig_b)
    total += gauss(float(theta[layout.i_logit_rho_beta]), 0.0, prior.rho_var)
    total += log_ig_transformed(float(theta[layout.i_log_ssq_beta]), prior.ig_a, prior.ig_b)
    return total


@given(p=st.integers(1, 3), data=st.data())
@settings(max_examples=150, deadline=None)
def test_log_prior_theta_matches_reference(p, data):
    layout = ThetaLayout(p=p)
    lo, hi = layout.bounds()
    spread = data.draw(st.sampled_from([1.0, 1.1]))  # 1.1: some coordinates fall outside the box
    u = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=layout.dim, max_size=layout.dim)))
    mid = 0.5 * (lo + hi)
    theta = mid + spread * (u - 0.5) * (hi - lo)
    positive = st.floats(0.05, 20.0)
    nu = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=p, max_size=p)))
    omega_sq = np.array(data.draw(st.lists(positive, min_size=p, max_size=p)))
    prior = PriorConfig(ig_a=data.draw(positive), ig_b=data.draw(positive), rho_var=data.draw(positive))
    got = log_prior_theta(theta, layout, nu, omega_sq, prior)
    assert got == _log_prior_theta_reference(theta, layout, nu, omega_sq, prior)


def test_theta_bounds_are_shared_and_read_only():
    lo, hi = ThetaLayout(p=2).bounds()
    again = ThetaLayout(p=2).bounds()
    assert again[0] is lo and again[1] is hi
    for arr in (lo, hi):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.5
    assert np.all(lo < hi) and lo.size == ThetaLayout(p=2).dim


def _tiny_joint_inputs():
    layout = ThetaLayout(p=1)
    theta = _theta_for(1, layout)
    atoms = [LatentAtoms(np.array([[0.5]]), np.array([0.8])),
             LatentAtoms(np.array([[0.2]]), np.array([-0.3]))]
    hypers = ScalarHypers(lam=2.0, sigma_sq_eps=0.5, alpha=0.0,
                          sigma_sq_alpha=1.0, sigma_sq_phi=0.0)
    nu, omega = np.zeros(1), np.ones(1)
    y = np.array([[0.3, -0.1], [0.7, 0.2]])
    mapped = np.array([[0.1], [0.9]])
    times = np.array([1.0, 2.0])
    phi0 = np.zeros((2, 2))
    return layout, theta, atoms, hypers, nu, omega, y, mapped, times, phi0


def test_log_joint_matches_independent_assembly():
    layout, theta, atoms, hypers, nu, omega, y, mapped, times, phi0 = _tiny_joint_inputs()
    prior = PriorConfig()
    total = log_joint_posterior(atoms, theta, hypers, nu, omega, None, y, mapped,
                                times, phi0, prior, ArMode.REGULAR_AR1, True)

    kp, _, bspec, mspecs = unpack_theta(theta, layout, ArMode.REGULAR_AR1)
    expected = 0.0
    for k in range(2):
        f = np.array([f_eval(mapped[i], times[k], atoms[k], kp) for i in range(2)])
        expected += norm.logpdf(y[:, k], f, math.sqrt(hypers.sigma_sq_eps)).sum()
    for k in range(2):
        expected += poisson.logpmf(atoms[k].count, hypers.lam) + hypers.lam
    expected += norm.logpdf(atoms[0].beta[0], 0.0, math.sqrt(bspec.initial_variance))
    expected += norm.logpdf(atoms[0].mu[0, 0], 0.0, math.sqrt(mspecs[0].initial_variance))
    expected += norm.logpdf(atoms[1].beta[0], bspec.rho * atoms[0].beta[0],
                            math.sqrt(bspec.sigma_sq * (1 - bspec.rho**2)))
    expected += norm.logpdf(atoms[1].mu[0, 0], mspecs[0].rho * atoms[0].mu[0, 0],
                            math.sqrt(mspecs[0].sigma_sq * (1 - mspecs[0].rho**2)))
    expected += log_prior_theta(theta, layout, nu, omega, prior)
    expected += log_prior_zeta(hypers, nu, omega, prior, marginalized=True, alpha_pinned=True)
    assert total == pytest.approx(expected, rel=1e-10)


def test_log_joint_observation_additivity():
    layout, theta, atoms, hypers, nu, omega, y, mapped, times, phi0 = _tiny_joint_inputs()
    prior = PriorConfig()
    args = (atoms, theta, hypers, nu, omega, None)
    base = log_joint_posterior(*args, y, mapped, times, phi0, prior, ArMode.REGULAR_AR1, True)
    y2 = y.copy()
    y2[1, 1] += 0.7
    moved = log_joint_posterior(*args, y2, mapped, times, phi0, prior, ArMode.REGULAR_AR1, True)
    kp, _, _, _ = unpack_theta(theta, layout, ArMode.REGULAR_AR1)
    f = f_eval(mapped[1], times[1], atoms[1], kp)
    expected_delta = (log_observation_density(y2[1, 1], 0.0, 0.0, f, 0.5)
                      - log_observation_density(y[1, 1], 0.0, 0.0, f, 0.5))
    assert moved - base == pytest.approx(expected_delta, rel=1e-9)


def test_log_joint_single_factor_bookkeeping():
    layout, theta, atoms, hypers, nu, omega, y, mapped, times, phi0 = _tiny_joint_inputs()
    prior = PriorConfig()
    base = log_joint_parts(atoms, theta, hypers, nu, omega, None, y, mapped, times,
                           phi0, prior, ArMode.REGULAR_AR1, True)
    # lambda appears only in the count factor and its own prior
    hypers2 = ScalarHypers(lam=3.0, sigma_sq_eps=0.5, sigma_sq_phi=0.0)
    moved = log_joint_parts(atoms, theta, hypers2, nu, omega, None, y, mapped, times,
                            phi0, prior, ArMode.REGULAR_AR1, True)
    for name in ("likelihood", "atom_process", "theta_prior"):
        assert moved[name] == base[name]
    assert moved["counts"] != base["counts"]
    assert moved["zeta_prior"] != base["zeta_prior"]


def test_log_joint_marginalized_uses_effective_variance():
    """The marginalized likelihood's noise variance is sigma_sq_eps alone:
    that mode holds sigma_sq_phi at 0, and the reference does not read it."""
    layout, theta, atoms, hypers, nu, omega, y, mapped, times, phi0 = _tiny_joint_inputs()
    prior = PriorConfig()
    hypers.sigma_sq_phi = 0.25
    parts = log_joint_parts(atoms, theta, hypers, nu, omega, None, y, mapped, times,
                            phi0, prior, ArMode.REGULAR_AR1, True)
    assert "random_effects" not in parts
    kp, _, _, _ = unpack_theta(theta, layout, ArMode.REGULAR_AR1)
    lik = 0.0
    for k in range(2):
        f = np.array([f_eval(mapped[i], times[k], atoms[k], kp) for i in range(2)])
        lik += norm.logpdf(y[:, k], f, math.sqrt(0.5)).sum()
    assert parts["likelihood"] == pytest.approx(lik, rel=1e-10)


def test_count_factor_is_unnormalized_poisson():
    # differences match Poisson pmf ratios (normalization cancels)
    lam = 2.7
    got = count_log_factor(5, lam) - count_log_factor(3, lam)
    expected = poisson.logpmf(5, lam) - poisson.logpmf(3, lam)
    assert got == pytest.approx(expected, rel=1e-12)


def test_atom_process_enforces_mu_bounds():
    spec = ArSpec(rho=0.5, sigma_sq=1.0, mode=ArMode.REGULAR_AR1)
    atoms = [LatentAtoms(np.array([[11.0]]), np.array([0.0]))]
    assert atom_process_log_density(atoms, np.array([1.0]), spec, [spec]) == -np.inf


def test_theta_bounds_check():
    layout = ThetaLayout(p=2)
    theta = _theta_for(2, layout)
    assert theta_in_bounds(theta, layout)
    theta[layout.i_logit_rho_beta] = 11.0
    assert not theta_in_bounds(theta, layout)
