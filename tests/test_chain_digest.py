"""The chains of the fixture problems, pinned bit for bit.

For each of the 8 one-worker fixture problems of `tools/chain_digest.py`
(both time grids, both modes, seeds 1 and 2), the digest of the
`write_chain` bytes, of the predictive draws and the move counts must equal
the line below.  A change that alters chain bits on purpose updates these
lines and says so.
"""

import importlib.util
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

EXPECTED = [
    "fixture-regular-marginalized seed=1 workers=1: chain=ce9800a6c4c70158 "
    "draws=553e1471ed0b1c0c birth=5/408 death=6/395 no_change=267/397 tmcmc=103/200 enhance=111/200",
    "fixture-regular-marginalized seed=2 workers=1: chain=db7e7b6e2981765c "
    "draws=5d92eeb6564eb43a birth=3/414 death=3/411 no_change=242/375 tmcmc=98/200 enhance=119/200",
    "fixture-regular-explicit seed=1 workers=1: chain=0a2d42f92d56b5a4 "
    "draws=c3831fd5fe04edcc birth=4/408 death=6/395 no_change=261/397 tmcmc=91/200 enhance=109/200",
    "fixture-regular-explicit seed=2 workers=1: chain=e052fc44e2ef2e27 "
    "draws=0a0b26d5b59085d4 birth=2/414 death=3/411 no_change=237/375 tmcmc=100/200 enhance=121/200",
    "fixture-irregular-marginalized seed=1 workers=1: chain=f28e56a23525b937 "
    "draws=b653a859257c05b8 birth=2/408 death=3/395 no_change=244/397 tmcmc=96/200 enhance=110/200",
    "fixture-irregular-marginalized seed=2 workers=1: chain=45c8de778bdbe56f "
    "draws=23145ce3bd83096c birth=3/414 death=3/411 no_change=241/375 tmcmc=93/200 enhance=120/200",
    "fixture-irregular-explicit seed=1 workers=1: chain=52dd76c9d24068d1 "
    "draws=dec4612c87164d63 birth=1/408 death=3/395 no_change=240/397 tmcmc=103/200 enhance=110/200",
    "fixture-irregular-explicit seed=2 workers=1: chain=443a275ed56e356b "
    "draws=8bf40dc61c7c45cb birth=2/414 death=2/411 no_change=241/375 tmcmc=96/200 enhance=123/200",
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
