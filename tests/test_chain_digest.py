"""The chains of the fixture problems, pinned bit for bit.

For each of the 8 one-worker fixture problems of `tools/chain_digest.py`
(both time grids, both modes, seeds 1 and 2), the digest of the
`write_chain` bytes, of the predictive draws and the move counts must equal
the line below.  A change that alters chain bits on purpose updates these
lines and `tools/chain_digest.expected` together, and says so; a second
test checks that the two agree.
"""

import importlib.util
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

EXPECTED = [
    "fixture-regular-marginalized seed=1 workers=1: chain=d8edcd0776972132 "
    "draws=4ea9b2e5ac9072ab birth=5/423 death=3/399 no_change=230/378 tmcmc=101/200 enhance=114/200",
    "fixture-regular-marginalized seed=2 workers=1: chain=51ea34221f377a62 "
    "draws=3adf050b361e35e5 birth=5/397 death=5/384 no_change=279/419 tmcmc=106/200 enhance=122/200",
    "fixture-regular-explicit seed=1 workers=1: chain=07c25417fe681b71 "
    "draws=3aedf37e1b34f66f birth=8/419 death=7/399 no_change=245/382 tmcmc=100/200 enhance=113/200",
    "fixture-regular-explicit seed=2 workers=1: chain=d5f8e18c6bd7773b "
    "draws=9c1d91e0b1f2e688 birth=5/405 death=7/371 no_change=296/424 tmcmc=101/200 enhance=119/200",
    "fixture-irregular-marginalized seed=1 workers=1: chain=d9677da59bdfc82d "
    "draws=fb6ce27ebb1fa57d birth=3/423 death=2/399 no_change=227/378 tmcmc=99/200 enhance=112/200",
    "fixture-irregular-marginalized seed=2 workers=1: chain=7463f9292fc307a0 "
    "draws=366429b7ccbda702 birth=4/397 death=4/384 no_change=253/419 tmcmc=98/200 enhance=118/200",
    "fixture-irregular-explicit seed=1 workers=1: chain=ef8d2ffa0519f3e8 "
    "draws=feca1778e99e4c81 birth=3/423 death=3/399 no_change=225/378 tmcmc=99/200 enhance=114/200",
    "fixture-irregular-explicit seed=2 workers=1: chain=76658422dc08ddb8 "
    "draws=12598e0d35d06674 birth=3/397 death=2/384 no_change=253/419 tmcmc=92/200 enhance=120/200",
]


def test_fixture_chains_match_pinned_digests(monkeypatch, tmp_path):
    # importing the tool sets these and puts its checkout's src/ on the path;
    # monkeypatch puts both back at teardown
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("chain_digest", TOOLS / "chain_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    got = [f"{label}: " + tool.digest(*case, tmp_path) for label, *case in tool.fixture_cases((1,))]
    assert got == EXPECTED


def test_expected_file_pins_the_same_fixture_lines():
    """`tools/chain_digest.expected`, which `--check` compares with, holds
    the same one-worker fixture lines as `EXPECTED`."""
    lines = (TOOLS / "chain_digest.expected").read_text().splitlines()
    assert [line for line in lines if line.startswith("fixture-") and " workers=1: " in line] == EXPECTED
