import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from levyst.chainio import read_chain, scalar_header, write_chain, write_move_stats
from levyst.data import SpaceTimeDataset
from levyst.errors import ParseError
from levyst.model import AtomStore, LatentAtoms, PriorConfig
from levyst.sampler import ChainSample, MoveStats, SamplerConfig, run_chain
from oracles import TEXT_EDGE_FLOATS, read_chain_per_cell, write_chain_per_value


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


def test_metadata_values_with_whitespace_round_trip(tmp_path):
    """A metadata value that holds whitespace or "=", or starts with a
    double quote, reads back as written, and so do the plain values beside
    it: no value is cut at its first space into a bogus key."""
    rng = np.random.default_rng(3)
    meta = {"p": 2, "m": 3, "n": 2, "mode": "marginalized", "data": "/tmp/my data/a=b/train.csv",
            "note": '"quoted"\tand\nmore', "empty": ""}
    path = tmp_path / "chain.txt"
    write_chain(path, [_sample(rng)], meta)
    assert len(path.read_text().splitlines()) == 3
    samples, meta2 = read_chain(path)
    assert meta2 == {**meta, "phi_stored": 0} and len(samples) == 1
    write_chain(tmp_path / "again.txt", samples, meta2)
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


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


def _array(a):
    """An array as read: its type, dtype, shape, whether it is C-contiguous
    and owns its data, and its bytes (so the sign of every zero counts)."""
    if a is None:
        return None
    return type(a), a.dtype, a.shape, a.flags.c_contiguous, a.base is None, a.tobytes()


def _outcome(read, path):
    """What a reader makes of a file: the metadata and every sample's
    values, types and array layouts, or its ParseError's message."""
    try:
        samples, meta = read(path)
    except ParseError as exc:
        return "ParseError", str(exc)
    rows = []
    for s in samples:
        scalars = [s.lam, s.sigma_sq_eps, s.alpha, s.sigma_sq_alpha, s.sigma_sq_phi]
        rows.append((type(s.iteration), s.iteration, [(type(v), struct.pack("<d", v)) for v in scalars],
                     *map(_array, (s.nu, s.omega_sq, s.theta, s.phi, s.store.values, s.store.counts))))
    return meta, rows


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
                           "99999999999", "0.25", "", "1\t2", "1  2", "1_0", "\u0661", "nan(1)", "0x1p3",
                           "1.5-2.5", "1\x0c2", "1\x852", "1\xa02", "2 ", "\x00"])


@given(mode=st.sampled_from(["marginalized", "explicit"]), line=st.integers(0, 6),
       where=st.floats(0.0, 1.0, exclude_max=True), op=st.sampled_from(["truncate", "replace", "delete", "repeat"]),
       token=_TOKENS)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_read_chain_fuzzed_rows_round_trip_or_raise(fitted_chains, tmp_path, mode, line, where, op, token):
    """A truncated or mutated line of a real chain either reads as a chain
    that survives a write/read round trip, or raises ParseError; either
    way the outcome is the per-cell reader's."""
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
    assert _outcome(read_chain, path) == _outcome(read_chain_per_cell, path)
    try:
        first = _rewrite(path)
    except ParseError:
        return
    assert _rewrite(path) == first


CELLS = st.one_of(st.sampled_from(TEXT_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def chains(draw):
    """(samples, meta): p 1-3, m 1-4 blocks, n 1-3 locations, phi stored or
    not, and every atom count in 1..j_max."""
    p, m, n = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    j_max = draw(st.integers(1, 4))
    with_phi = draw(st.booleans())
    samples = []
    for _ in range(draw(st.integers(1, 3))):
        counts = draw(st.lists(st.integers(1, j_max), min_size=m, max_size=m))
        atoms = [LatentAtoms(draw(arrays(float, (J, p), elements=CELLS)), draw(arrays(float, J, elements=CELLS)))
                 for J in counts]
        lam, ssq_eps, alpha, ssq_alpha, ssq_phi = draw(st.lists(CELLS, min_size=5, max_size=5))
        samples.append(ChainSample(
            iteration=draw(st.integers(0, 10 ** 6)), store=AtomStore.from_blocks(atoms),
            theta=draw(arrays(float, 6 * p + 4, elements=CELLS)), lam=lam, sigma_sq_eps=ssq_eps, alpha=alpha,
            sigma_sq_alpha=ssq_alpha, sigma_sq_phi=ssq_phi, nu=draw(arrays(float, p, elements=CELLS)),
            omega_sq=draw(arrays(float, p, elements=CELLS)),
            phi=draw(arrays(float, (n, m), elements=CELLS)) if with_phi else None))
    return samples, {"p": p, "m": m, "n": n, "mode": "explicit" if with_phi else "marginalized", "seed": 3}


@given(chain=chains())
@settings(max_examples=200, deadline=None)
def test_write_chain_bytes_equal_per_value_writer(tmp_path_factory, chain):
    """The row-template writer writes the bytes of the per-value writer."""
    samples, meta = chain
    tmp = tmp_path_factory.mktemp("chain")
    write_chain(tmp / "rows.txt", samples, meta)
    write_chain_per_value(tmp / "cells.txt", samples, meta)
    assert (tmp / "rows.txt").read_bytes() == (tmp / "cells.txt").read_bytes()


@given(chain=chains())
@settings(max_examples=200, deadline=None)
def test_read_chain_equals_per_cell_reader(tmp_path_factory, chain):
    """Every value, sign of zero, type and array layout read from a written
    chain is the per-cell reader's."""
    samples, meta = chain
    path = tmp_path_factory.mktemp("chain") / "chain.txt"
    write_chain(path, samples, meta)
    outcome = _outcome(read_chain, path)
    assert outcome[0] != "ParseError"
    assert outcome == _outcome(read_chain_per_cell, path)


def _cell_edit(row: int, cell: int, token: str):
    """A text edit that sets cell `cell` of data row `row` (0 = the first) to token."""
    return lambda text: _edit_line(text, 2 + row, _set(cell, lambda _: token))


def _row_edit(row: int, edit):
    """A text edit that applies edit to the text of data row `row`."""
    return lambda text: _edit_line(text, 2 + row, lambda cells: [edit(" ".join(cells))])


_LAM = 1  # cell of lambda
_PHI_CELLS = 5 * 4  # n x m of the fitted chains

# text edits of the explicit fitted chain, each giving bytes that both readers
# must read alike: rows out of the writer's layout that read, and malformed files
_CORPUS = {
    "tab": _row_edit(0, lambda r: r.replace(" ", "\t", 3)),
    "double spaces": _row_edit(1, lambda r: r.replace(" ", "  ")),
    "trailing space": _row_edit(0, lambda r: r + " "),
    "leading space": _row_edit(0, lambda r: " " + r),
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "form feed in a row": _row_edit(1, lambda r: r.replace(" ", "\x0c", 9).replace("\x0c", " ", 8)),
    "next line in a row": _row_edit(0, lambda r: r.replace(" ", "\x85", 20).replace("\x85", " ", 19)),
    "vertical tab in the metadata line": lambda text: text.replace(" ", "\x0b", 1),
    "underscore digits": _cell_edit(0, _LAM, "1_0"),
    "arabic-indic digits": _cell_edit(1, _LAM, "\u0663.\u0665"),
    "arabic-indic iteration": _cell_edit(0, 0, "\u0661\u0662"),
    "no-break space": _row_edit(0, lambda r: r.replace(" ", "\xa0", 2)),
    "nan(1)": _cell_edit(0, _LAM, "nan(1)"),
    "hex float": _cell_edit(0, _LAM, "0x1p3"),
    "inf": _cell_edit(1, _LAM, "inf"),
    "overflow to inf": _cell_edit(1, _LAM, "1e400"),
    "nan then text": lambda text: _cell_edit(0, _LAM, "nan")(_cell_edit(0, _LAM + 1, "x")(text)),
    "count 0": _cell_edit(0, _COUNT, "0"),
    "count 2.5": _cell_edit(0, _COUNT, "2.5"),
    "count 1e300": _cell_edit(0, _COUNT, "1e300"),
    "count -0": _cell_edit(0, _COUNT, "-0"),
    "truncated scalars": _row_edit(0, lambda r: " ".join(r.split(" ")[:8])),
    "truncated groups": _row_edit(0, lambda r: " ".join(r.split(" ")[:_COUNT])),
    "truncated group": _row_edit(0, lambda r: " ".join(r.split(" ")[:_COUNT + 1])),
    "truncated cells": _row_edit(0, lambda r: " ".join(r.split(" ")[:-3])),
    "extra cells": _row_edit(0, lambda r: r + " 1.5 2"),
    "missing phi": _row_edit(0, lambda r: " ".join(r.split(" ")[:-_PHI_CELLS])),
    "bad rows in order": lambda text: _row_edit(0, lambda r: r + " 1")(_cell_edit(1, _LAM, "x")(text)),
    "blank lines": _row_edit(0, lambda r: "\n \n\t\n" + r + "\n\n"),
    "blank lines then a bad row": lambda text: _row_edit(0, lambda r: "\n \n" + r + "\n")(_cell_edit(1, 3, "x")(text)),
    "iteration only": _row_edit(0, lambda r: r.split(" ")[0]),
    "no data rows": lambda text: "\n".join(text.split("\n")[:2]) + "\n",
    "no header": lambda text: text.split("\n")[0] + "\n",
    "no metadata marker": lambda text: text[2:],
    "bad metadata value": lambda text: text.replace(" p=2 ", " p=x ", 1),
}


@pytest.mark.parametrize("case", list(_CORPUS))
def test_read_chain_outcome_equals_per_cell_reader(fitted_chains, tmp_path, case):
    """On each file of the corpus, the reader returns the per-cell reader's
    values and types, or raises its ParseError with the same message."""
    text = fitted_chains["explicit"]
    edited = _CORPUS[case](text)
    assert edited != text
    path = tmp_path / "chain.txt"
    path.write_bytes(edited.encode("utf-8"))
    assert _outcome(read_chain, path) == _outcome(read_chain_per_cell, path)


@pytest.mark.parametrize("case", ["bad rows in order", "missing phi", "no metadata marker", "crlf"])
def test_undecodable_bytes_win_over_a_row_error(fitted_chains, tmp_path, case):
    """Bytes that are not UTF-8 after a bad row, or after a valid file,
    fail the file as not UTF-8 text, as in the per-cell reader."""
    path = tmp_path / "chain.txt"
    path.write_bytes(_CORPUS[case](fitted_chains["explicit"]).encode("utf-8") + b"1 \xff\n")
    assert _outcome(read_chain, path) == ("ParseError", "chain file is not UTF-8 text")
    assert _outcome(read_chain_per_cell, path) == ("ParseError", "chain file is not UTF-8 text")


@pytest.mark.parametrize("mode", ["marginalized", "explicit"])
def test_write_chain_of_a_fit_equals_per_value_writer(fitted_chains, tmp_path, mode):
    path = tmp_path / "chain.txt"
    path.write_text(fitted_chains[mode])
    samples, meta = read_chain(path)
    write_chain_per_value(path, samples, meta)
    assert path.read_text() == fitted_chains[mode]


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
