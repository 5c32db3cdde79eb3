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
    "fixture-regular-marginalized seed=1 workers=1: chain=9e0d6c14d3d5d8ec "
    "draws=aff7dbd4587b9d66 birth=5/408 death=6/395 no_change=267/397 tmcmc=103/200 enhance=111/200",
    "fixture-regular-marginalized seed=2 workers=1: chain=2585ab2765fd2438 "
    "draws=dacb231ff40c3569 birth=3/414 death=3/411 no_change=242/375 tmcmc=98/200 enhance=119/200",
    "fixture-regular-explicit seed=1 workers=1: chain=6bcd21a88bf1d946 "
    "draws=4d32e28fbb22363d birth=4/408 death=6/395 no_change=261/397 tmcmc=91/200 enhance=109/200",
    "fixture-regular-explicit seed=2 workers=1: chain=fa357562565be39d "
    "draws=f8aeb9f50926ed1c birth=2/414 death=3/411 no_change=237/375 tmcmc=100/200 enhance=121/200",
    "fixture-irregular-marginalized seed=1 workers=1: chain=1da48297fd6a50f8 "
    "draws=348a8b294878c2c9 birth=2/408 death=3/395 no_change=244/397 tmcmc=96/200 enhance=110/200",
    "fixture-irregular-marginalized seed=2 workers=1: chain=80f94d392c68e3db "
    "draws=809761d181c980a2 birth=3/414 death=3/411 no_change=241/375 tmcmc=93/200 enhance=120/200",
    "fixture-irregular-explicit seed=1 workers=1: chain=e45029ddadc5bb73 "
    "draws=0cdbfe4f710dd74a birth=1/408 death=3/395 no_change=240/397 tmcmc=103/200 enhance=110/200",
    "fixture-irregular-explicit seed=2 workers=1: chain=be5275c2a792d8e3 "
    "draws=7c9bdb67d218e299 birth=2/414 death=2/411 no_change=241/375 tmcmc=96/200 enhance=123/200",
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
