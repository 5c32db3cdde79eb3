"""Every chain bit pinned in `tools/chain_digest.expected`, checked in full.

The file is the only record of the digests: the first test runs the tool's
own `--check` comparison against every line of it (the `csv` lines, the
benchmark shapes, the fixture problems and `all:`).  A change that alters
chain bits on purpose re-pins that one file with the tool's output, and
says so.  The tool also reads every chain back and fails unless
`read_chain` returns each stored number bit for bit, so the first test
checks the reader on every pinned chain too.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
EXPECTED = TOOLS / "chain_digest.expected"


@pytest.fixture
def tool(monkeypatch):
    """The `tools/chain_digest.py` module."""
    # importing the tool sets these and puts its checkout's src/ on the path;
    # monkeypatch puts both back at teardown
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("chain_digest", TOOLS / "chain_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _check(tool, path, capsys):
    """The exit code and output of `chain_digest.py --check path`."""
    with pytest.raises(SystemExit) as exit_:
        tool.main(["--check", str(path)])
    return exit_.value.code, capsys.readouterr().out


def test_every_pinned_line_matches(tool, capsys):
    code, out = _check(tool, EXPECTED, capsys)
    assert (code, out) == (0, f"every line matches {EXPECTED}\n"), out


def test_check_prints_the_differing_lines_and_exits_1(tool, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(tool, "digest_lines", lambda workdir: iter(["one: chain=aaaa", "two: chain=bbbb"]))
    all_line = "all: " + tool._hash(b"one: chain=aaaa\ntwo: chain=bbbb")
    exact = tmp_path / "exact.expected"
    exact.write_text(f"one: chain=aaaa\ntwo: chain=bbbb\n{all_line}\n")
    assert _check(tool, exact, capsys) == (0, f"every line matches {exact}\n")
    # one changed digest and one missing line
    stale = tmp_path / "stale.expected"
    stale.write_text(f"one: chain=ffff\n{all_line}\n")
    code, out = _check(tool, stale, capsys)
    assert code == 1
    diff = out.splitlines()
    assert "-one: chain=ffff" in diff and "+one: chain=aaaa" in diff and "+two: chain=bbbb" in diff
    assert all_line not in "\n".join(line for line in diff if line[:1] in "+-")
    assert "every line matches" not in out


def test_round_trip_check_names_a_changed_sample(tool, tmp_path):
    """A chain file whose stored numbers differ from the samples in the last
    bit of one cell fails the tool's read-back check."""
    from levyst.chainio import write_chain
    from levyst.sampler import SamplerConfig, run_chain

    label, train, _, prior, marginalized, *_ = next(iter(tool.fixture_cases()))
    chain = run_chain(train, SamplerConfig(iterations=6, burn_in=0, thin=1, j_max=5, seed=1), prior,
                      marginalized=marginalized)
    path = tmp_path / "chain.txt"
    write_chain(path, chain.samples, chain.meta)
    tool.check_round_trip(chain.samples, path)
    chain.samples[3].theta[0] = np.nextafter(chain.samples[3].theta[0], np.inf)
    with pytest.raises(tool.RoundTripError, match="sample 3 "):
        tool.check_round_trip(chain.samples, path)
    with pytest.raises(tool.RoundTripError, match="6 samples of 7"):
        tool.check_round_trip(chain.samples + chain.samples[:1], path)
