#!/usr/bin/env python3
"""Digest of the data files, chains, predictive draws and move counts of fixed problems.

    python3 tools/chain_digest.py > digest.txt
    python3 tools/chain_digest.py --check tools/chain_digest.expected

Run from the root of a source checkout: the program is imported from that
checkout's `src/`.  Each line names one problem and gives a SHA-256 prefix of
the `write_chain` bytes, one of the `posterior_predict` draws, and the
accepted/proposed count of every move.  A `csv` line per benchmark shape
comes first: SHA-256 prefixes of the `write_csv` bytes of the simulated train
and test sets, and of the arrays `load_csv` reads back from those files.  The
last line digests all lines.  Two commits that write the same files and
sample the same chains print the same output, so comparing the output of two
checkouts with `diff` checks that a change kept every bit.  Every chain is
also read back with `read_chain`: unless each stored number equals the
sampled one bit for bit, the tool prints which sample differs and exits 1.
`--check FILE` compares the output with FILE instead of printing it: it
prints the lines that differ and exits 1 if any do, 0 if none do.
`tools/chain_digest.expected` holds the output of the commit that last
changed chain bits on purpose; it is the only record of those bits, and
Tier-1's `tests/test_chain_digest.py` runs `--check` against all of it.

Problems: the three benchmark shapes (desk size marginalized and explicit,
paper size marginalized) with seeds 101 and 202, and the 4 x 6 test fixture on
a regular and on an irregular time grid in both modes with seeds 1 and 2.
Each is fitted once: the worker count is written only to the chain's
metadata, and the tests show that the draws do not depend on it.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import os
import struct
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import levyst  # noqa: E402
from levyst.chainio import read_chain, write_chain  # noqa: E402
from levyst.data import load_csv, write_csv  # noqa: E402

# (name, n_train, n_test, m, simulator seed, marginalized, iterations); the
# shapes are those of perfbench's workloads, run for about twice as long.
SHAPES = (
    ("desk-marginalized", 30, 10, 20, 7, True, 60),
    ("paper-marginalized", 100, 20, 50, 0, True, 50),
    ("desk-explicit", 30, 10, 20, 7, False, 40),
)
SHAPE_SEEDS = (101, 202)
FIXTURE_TIMES = {"regular": np.arange(1.0, 7.0), "irregular": np.array([0.0, 1.0, 2.5, 3.0, 4.5, 7.0])}
FIXTURE_SEEDS = (1, 2)
FIXTURE_POINTS = np.array([[0.5, 0.5], [0.2, 0.8], [0.9, 0.1]])


def _hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def fixture(times: np.ndarray) -> levyst.SpaceTimeDataset:
    """The tests' 4 x 6 fixture (4 locations, p = 2), standardized."""
    rng = np.random.default_rng(123)
    locs = rng.random((4, 2))
    y = rng.standard_normal((4, 6))
    data, _ = levyst.standardize(levyst.SpaceTimeDataset(locs, times, y))
    return data


def tame_prior() -> levyst.PriorConfig:
    """The tests' informative prior."""
    return levyst.PriorConfig(ig_a=3.0, ig_b=2.0, ig_a_tight=3.0, ig_b_tight=2.0,
                              lambda_a=6.0, lambda_b=2.0, nu_var=1.0, rho_var=1.0)


class RoundTripError(Exception):
    """`read_chain` did not give back the samples that `write_chain` wrote."""


def _stored_bits(s) -> bytes:
    """Every number a chain row stores of sample s, bit for bit."""
    block, slot = s.store.slots()
    scalars = [s.lam, s.sigma_sq_eps, s.alpha, s.sigma_sq_alpha, s.sigma_sq_phi]
    arrays = [s.nu, s.omega_sq, s.theta, s.store.counts, s.store.values[:, block, slot]]
    return b"".join([struct.pack("<q5d", s.iteration, *scalars)] + [np.ascontiguousarray(a).tobytes() for a in arrays]
                    + [b"" if s.phi is None else np.ascontiguousarray(s.phi).tobytes()])


def check_round_trip(samples, path: Path) -> None:
    """Read the chain at path back and raise RoundTripError unless every
    stored number equals the in-memory samples' bit for bit."""
    back, _ = read_chain(path)
    if len(back) != len(samples):
        raise RoundTripError(f"read_chain gave {len(back)} samples of {len(samples)}")
    for i, (a, b) in enumerate(zip(samples, back)):
        if _stored_bits(a) != _stored_bits(b):
            raise RoundTripError(f"read_chain changed sample {i} (iteration {a.iteration})")


def digest(train, cfg, prior, marginalized, points, times, predict_seed, workdir: Path) -> str:
    """The problem's digest line, once its chain reads back bit for bit."""
    chain = levyst.run_chain(train, cfg, prior, marginalized=marginalized)
    path = workdir / "chain.txt"
    write_chain(path, chain.samples, chain.meta)
    check_round_trip(chain.samples, path)
    bands = levyst.posterior_predict(chain.samples, points, times, train, marginalized=marginalized,
                                     seed=predict_seed, keep_draws=True)
    moves = " ".join(f"{m}={chain.stats.accepts[m]}/{chain.stats.proposals[m]}" for m in chain.stats.proposals)
    return f"chain={_hash(path.read_bytes())} draws={_hash(bands.draws.tobytes())} {moves}"


def csv_digest(sim: levyst.GqnResult, workdir: Path) -> str:
    """Digest of the `write_csv` bytes of both splits and of what `load_csv`
    reads back from them."""
    files, arrays = {}, []
    for part in ("train", "test"):
        path = workdir / f"{part}.csv"
        write_csv(getattr(sim, part), path)
        files[part] = _hash(path.read_bytes())
        data = load_csv(path)
        arrays += [data.locations.tobytes(), data.times.tobytes(), data.y.tobytes()]
    return f"train={files['train']} test={files['test']} loaded={_hash(b''.join(arrays))}"


def csv_cases():
    """(label, simulated data) per benchmark shape."""
    for name, n_train, n_test, m, gqn_seed, _, _ in SHAPES:
        yield f"{name} csv", levyst.gqn_simulate(levyst.GqnConfig(n_train=n_train, n_test=n_test, m=m, seed=gqn_seed))


def cases():
    """(label, train, config, prior, marginalized, points, times, predict seed) per problem."""
    for name, n_train, n_test, m, gqn_seed, marginalized, iterations in SHAPES:
        sim = levyst.gqn_simulate(levyst.GqnConfig(n_train=n_train, n_test=n_test, m=m, seed=gqn_seed))
        train, _ = levyst.standardize(sim.train)
        for seed in SHAPE_SEEDS:
            cfg = levyst.SamplerConfig(iterations=iterations, burn_in=0, thin=1, seed=seed)
            yield (f"{name} seed={seed}", train, cfg, levyst.PriorConfig(), marginalized, sim.test.locations,
                   sim.test.times, seed + 1)
    yield from fixture_cases()


def fixture_cases():
    """The fixture problems of `cases`."""
    for grid, times in FIXTURE_TIMES.items():
        train = fixture(times)
        for marginalized in (True, False):
            mode = "marginalized" if marginalized else "explicit"
            for seed in FIXTURE_SEEDS:
                cfg = levyst.SamplerConfig(iterations=200, burn_in=0, thin=1, j_max=5, seed=seed)
                yield (f"fixture-{grid}-{mode} seed={seed}", train, cfg, tame_prior(), marginalized,
                       FIXTURE_POINTS, times, seed + 1)


def digest_lines(workdir: Path):
    """The `csv` lines, then one line per problem of `cases`."""
    for label, sim in csv_cases():
        yield f"{label}: " + csv_digest(sim, workdir)
    for label, *case in cases():
        yield f"{label}: " + digest(*case, workdir)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Digest the chains of fixed problems.")
    parser.add_argument("--check", metavar="FILE", type=Path,
                        help="compare the output with FILE: print the lines that differ and exit 1 if any do")
    args = parser.parse_args(argv)
    expected = args.check.read_text(encoding="utf-8").splitlines() if args.check else None
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        try:
            for line in digest_lines(Path(tmp)):
                if expected is None:
                    print(line, flush=True)
                lines.append(line)
        except RoundTripError as exc:
            sys.exit(f"chain_digest: {exc}")
    lines.append("all: " + _hash("\n".join(lines).encode()))
    if expected is None:
        print(lines[-1])
        return
    diff = list(difflib.unified_diff(expected, lines, str(args.check), "this checkout", n=0, lineterm=""))
    print("\n".join(diff) if diff else f"every line matches {args.check}")
    sys.exit(1 if diff else 0)


if __name__ == "__main__":
    main()
