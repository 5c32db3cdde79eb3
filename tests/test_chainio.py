import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from levyst.chainio import read_chain, scalar_header, write_chain, write_move_stats
from levyst.data import SpaceTimeDataset
from levyst.errors import ParseError
from levyst.model import AtomStore, LatentAtoms, PriorConfig
from levyst.sampler import ChainSample, MoveStats, SamplerConfig, run_chain


def _sample(rng, p=2, m=3, with_phi=False, n=2, iteration=40):
    atoms = []
    for _ in range(m):
        J = int(rng.integers(1, 5))
        atoms.append(LatentAtoms(rng.standard_normal((J, p)), rng.standard_normal(J)))
    return ChainSample(
        iteration=iteration, store=AtomStore.from_blocks(atoms), theta=rng.standard_normal(6 * p + 4),
        lam=float(rng.gamma(3.0)), sigma_sq_eps=0.123456789012345678,
        alpha=-0.25, sigma_sq_alpha=1.5, sigma_sq_phi=0.5 if with_phi else 0.0,
        nu=rng.standard_normal(p), omega_sq=rng.random(p) + 0.1,
        phi=rng.standard_normal((n, m)) if with_phi else None)


@pytest.mark.parametrize("with_phi", [False, True])
def test_chain_round_trip_bit_exact(tmp_path, with_phi):
    rng = np.random.default_rng(1)
    samples = [_sample(rng, with_phi=with_phi, iteration=10 * i) for i in range(4)]
    meta = {"p": 2, "m": 3, "n": 2, "mode": "explicit" if with_phi else "marginalized",
            "seed": 7}
    path = tmp_path / "chain.txt"
    write_chain(path, samples, meta)
    back, meta2 = read_chain(path)
    assert meta2["seed"] == 7
    assert len(back) == 4
    for a, b in zip(samples, back):
        assert a.iteration == b.iteration
        np.testing.assert_array_equal(a.theta, b.theta)
        assert a.lam == b.lam and a.sigma_sq_eps == b.sigma_sq_eps
        np.testing.assert_array_equal(a.nu, b.nu)
        np.testing.assert_array_equal(a.omega_sq, b.omega_sq)
        for xa, xb in zip(a.atoms, b.atoms):
            np.testing.assert_array_equal(xa.mu, xb.mu)
            np.testing.assert_array_equal(xa.beta, xb.beta)
        if with_phi:
            np.testing.assert_array_equal(a.phi, b.phi)
        else:
            assert b.phi is None


def test_chain_file_is_self_describing(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "chain.txt"
    write_chain(path, [_sample(rng)], {"p": 2, "m": 3, "n": 2, "mode": "marginalized"})
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    header = lines[1].split()
    assert header[0] == "iter" and "lambda" in header and "log_tau" in header
    assert header[-1] == "atoms..."


def test_chain_truncated_row_raises(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "chain.txt"
    write_chain(path, [_sample(rng)], {"p": 2, "m": 3, "n": 2, "mode": "marginalized"})
    lines = path.read_text().splitlines()
    lines[2] = " ".join(lines[2].split()[:-3])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError):
        read_chain(path)


@pytest.fixture(scope="module")
def fitted_chains(tmp_path_factory):
    """`write_chain` text of a short fit on a 5 x 4 problem, per mode."""
    rng = np.random.default_rng(8)
    data = SpaceTimeDataset(rng.random((5, 2)), np.arange(1.0, 5.0), rng.standard_normal((5, 4)))
    prior = PriorConfig(ig_a=3.0, ig_b=2.0, ig_a_tight=3.0, ig_b_tight=2.0, lambda_a=6.0, lambda_b=2.0)
    path = tmp_path_factory.mktemp("fitted") / "chain.txt"
    texts = {}
    for mode in ("marginalized", "explicit"):
        res = run_chain(data, SamplerConfig(iterations=12, burn_in=2, thin=2, j_max=6, seed=3), prior,
                        marginalized=mode == "marginalized")
        write_chain(path, res.samples, res.meta)
        texts[mode] = path.read_text()
    return texts


def _rewrite(path) -> str:
    """`write_chain` text of what `read_chain` reads from path."""
    samples, meta = read_chain(path)
    write_chain(path, samples, meta)
    return path.read_text()


@pytest.mark.parametrize("mode", ["marginalized", "explicit"])
def test_fitted_chain_round_trip_keeps_bytes(fitted_chains, tmp_path, mode):
    path = tmp_path / "chain.txt"
    path.write_text(fitted_chains[mode])
    assert _rewrite(path) == fitted_chains[mode]


def _edit_line(text: str, line: int, edit) -> str:
    """text with line `line` replaced by edit(its cells)."""
    lines = text.splitlines()
    lines[line] = " ".join(edit(lines[line].split(" ")))
    return "\n".join(lines) + "\n"


def _set(i: int, token):
    """An edit that sets cell i to token(old cell)."""
    return lambda cells: cells[:i] + [token(cells[i])] + cells[i + 1:]


_COUNT = len(scalar_header(2))  # cell of the first atom count at p = 2

_MALFORMED = {
    "short row": (2, lambda cells: cells[:3]),
    "nan count": (2, _set(_COUNT, lambda _: "nan")),
    "inf count": (2, _set(_COUNT, lambda _: "inf")),
    "fractional count": (2, _set(_COUNT, lambda c: c + ".5")),  # read as the whole count before
    "nan atom": (2, _set(_COUNT + 1, lambda _: "nan")),
    "inf x1": (2, _set(scalar_header(2).index("x1"), lambda _: "inf")),
    "nan phi": (2, lambda cells: cells[:-1] + ["nan"]),
    "meta value": (0, lambda cells: [c.replace("p=2", "p=x") for c in cells]),
    "missing meta": (0, lambda cells: [c for c in cells if not c.startswith("m=")]),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_read_chain_rejects_malformed_rows(fitted_chains, tmp_path, case):
    text = fitted_chains["explicit"]
    mutated = _edit_line(text, *_MALFORMED[case])
    assert mutated != text
    path = tmp_path / "chain.txt"
    path.write_text(mutated)
    with pytest.raises(ParseError):
        read_chain(path)


_TOKENS = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1", "2", "10.5", "1e400", "-0", "x", "1e3",
                           "99999999999", "0.25", ""])


@given(mode=st.sampled_from(["marginalized", "explicit"]), line=st.integers(0, 6),
       where=st.floats(0.0, 1.0, exclude_max=True), op=st.sampled_from(["truncate", "replace", "delete", "repeat"]),
       token=_TOKENS)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_read_chain_fuzzed_rows_round_trip_or_raise(fitted_chains, tmp_path, mode, line, where, op, token):
    """A truncated or mutated line of a real chain either reads as a chain
    that survives a write/read round trip, or raises ParseError."""
    text = fitted_chains[mode]
    line = min(line, len(text.splitlines()) - 1)

    def edit(cells):
        i = max(int(where * len(cells)), 1 if line == 0 else 0)  # keep the "#" marker
        if op == "truncate":
            return cells[:i]
        if op == "delete":
            return cells[:i] + cells[i + 1:]
        if op == "repeat":
            return cells[:i + 1] + cells[i:]
        return cells[:i] + [cells[i].partition("=")[0] + "=" + token if line == 0 else token] + cells[i + 1:]

    path = tmp_path / "chain.txt"
    path.write_text(_edit_line(text, line, edit))
    try:
        first = _rewrite(path)
    except ParseError:
        return
    assert _rewrite(path) == first


def test_move_stats_table(tmp_path):
    stats = MoveStats()
    stats.proposals.update(birth=100, death=50, no_change=150, tmcmc=10, enhance=10)
    stats.accepts.update(birth=9, death=25, no_change=90, tmcmc=2, enhance=3)
    path = tmp_path / "stats.csv"
    write_move_stats(path, stats)
    text = path.read_text().splitlines()
    assert text[0] == "move,proposals,accepts,rate"
    overall = [ln for ln in text if ln.startswith("overall_ttmcmc")][0]
    assert overall.split(",")[3] == "%.6f" % ((9 + 25 + 90) / 300)
