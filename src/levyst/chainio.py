"""Chain persistence: a self-describing columnar text format.

Line 1 holds `# key=value` metadata, line 2 the header naming every scalar
column, then one row per stored sample.  Atom blocks follow the scalars as
per-time variable-length groups, each led by its explicit count J:

    J mu[1,1] .. mu[1,p] .. mu[J,p] beta[1] .. beta[J]

Floats are written with 17 significant digits, so a write/read round trip is
bit-exact.  A sample cell that is not a finite number fails the read.
"""

from __future__ import annotations

import numpy as np

from .errors import ParseError
from .model import AtomStore, ThetaLayout
from .sampler import ChainSample, MoveStats

_FMT = "%.17g"


def _theta_names(p: int) -> list[str]:
    names = [f"x{l + 1}" for l in range(p)]
    names += [f"log_c_tilde{l + 1}" for l in range(p)]
    names += [f"log_c{l + 1}" for l in range(p)]
    names += [f"log_ksq{l + 1}" for l in range(p)]
    names += ["log_tau", "log_xi"]
    names += [f"logit_rho{l + 1}" for l in range(p)]
    names += [f"log_ssq{l + 1}" for l in range(p)]
    names += ["logit_rho_beta", "log_ssq_beta"]
    return names


def scalar_header(p: int) -> list[str]:
    names = ["iter", "lambda", "sigma_sq_eps", "alpha", "sigma_sq_alpha", "sigma_sq_phi"]
    names += [f"nu{l + 1}" for l in range(p)]
    names += [f"omega_sq{l + 1}" for l in range(p)]
    names += _theta_names(p)
    return names


def _group_cells(store: AtomStore) -> tuple[np.ndarray, ...]:
    """Where a row's atom groups put the blocks of a store.

    Returns the offset of every group's count cell from the first group's,
    plus the end of the last group; the store slots (block, slot) of every
    atom, as `AtomStore.slots` lists them; and the offsets of their beta
    cells and of their (p, N) mu cells.
    """
    counts, p = store.counts, store.values.shape[0] - 1
    group_at = np.concatenate([[0], np.cumsum(1 + counts * (p + 1))])
    block, slot = store.slots()
    first = group_at[block] + 1
    return group_at, block, slot, first + counts[block] * p + slot, first + slot * p + np.arange(p)[:, None]


def write_chain(path, samples: list[ChainSample], meta: dict) -> None:
    p, m = int(meta["p"]), int(meta["m"])
    store_phi = any(s.phi is not None for s in samples)
    meta = dict(meta)
    meta["phi_stored"] = int(store_phi)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + " ".join(f"{k}={v}" for k, v in sorted(meta.items())) + "\n")
        fh.write(" ".join(scalar_header(p) + ["atoms..."]) + "\n")
        for s in samples:
            cells = [str(s.iteration)]
            scalars = [s.lam, s.sigma_sq_eps, s.alpha, s.sigma_sq_alpha, s.sigma_sq_phi]
            scalars += list(s.nu) + list(s.omega_sq) + list(s.theta)
            cells += [_FMT % v for v in scalars]
            # a count J prints the same through _FMT as through str
            group_at, block, slot, beta_at, mu_at = _group_cells(s.store)
            groups = np.empty(group_at[-1])
            groups[group_at[:-1]] = s.store.counts
            groups[beta_at] = s.store.values[0, block, slot]
            groups[mu_at] = s.store.values[1:, block, slot]
            cells += [_FMT % v for v in groups.tolist()]
            if store_phi:
                cells += [_FMT % v for v in s.phi.ravel()]
            fh.write(" ".join(cells) + "\n")


def _meta_int(meta: dict, key: str, lowest: int, default: int | None = None) -> int:
    value = meta.get(key, default)
    if not isinstance(value, int) or value < lowest:
        raise ParseError(f"chain metadata {key}={meta.get(key, '')} is not an integer >= {lowest}")
    return value


def read_chain(path) -> tuple[list[ChainSample], dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise ParseError("chain file is not UTF-8 text") from None
    if len(lines) < 2 or not lines[0].startswith("# "):
        raise ParseError("missing chain metadata line")
    meta: dict = {}
    for token in lines[0][2:].split():
        key, _, value = token.partition("=")
        try:
            meta[key] = int(value)
        except ValueError:
            meta[key] = value
    p, m = _meta_int(meta, "p", 1), _meta_int(meta, "m", 1)
    n = _meta_int(meta, "n", 0, default=0)
    store_phi = bool(_meta_int(meta, "phi_stored", 0, default=0))
    n_scalars = 6 + 2 * p + ThetaLayout(p=p).dim  # len(scalar_header(p)), without building it

    samples: list[ChainSample] = []
    for row_no, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        cells = line.split()
        try:
            it = int(cells[0])
            vals = [float(c) for c in cells[1:]]
        except ValueError:
            raise ParseError(f"row {row_no}: non-numeric cell") from None
        row = np.array(vals)
        if not np.isfinite(row).all():
            raise ParseError(f"row {row_no}: non-finite cell")
        pos = n_scalars - 1
        if len(vals) < pos:
            raise ParseError(f"row {row_no}: truncated scalars")
        lam, ssq_eps, alpha, ssq_alpha, ssq_phi = vals[0:5]
        nu = row[5:5 + p].copy()
        omega_sq = row[5 + p:5 + 2 * p].copy()
        theta = row[5 + 2 * p:pos].copy()
        first, counts = pos, []
        for _ in range(m):
            if pos >= len(vals):
                raise ParseError(f"row {row_no}: truncated atom groups")
            J = vals[pos]
            if not (J.is_integer() and J >= 1):
                raise ParseError(f"row {row_no}: atom count {cells[pos + 1]} is not a whole number >= 1")
            J = int(J)
            pos += 1 + J * (p + 1)
            if pos > len(vals):
                raise ParseError(f"row {row_no}: truncated atom group (J={J})")
            counts.append(J)
        store = AtomStore(np.zeros((p + 1, m, max(counts))), np.array(counts, dtype=np.int64))
        _, block, slot, beta_at, mu_at = _group_cells(store)
        groups = row[first:pos]
        store.values[0, block, slot] = groups[beta_at]
        store.values[1:, block, slot] = groups[mu_at]
        phi = None
        if store_phi:
            if pos + n * m > len(vals):
                raise ParseError(f"row {row_no}: truncated phi field")
            phi = row[pos:pos + n * m].reshape(n, m).copy()
            pos += n * m
        if pos != len(vals):
            raise ParseError(f"row {row_no}: {len(vals) - pos} trailing cells")
        samples.append(ChainSample(
            iteration=it, store=store, theta=theta, lam=lam, sigma_sq_eps=ssq_eps,
            alpha=alpha, sigma_sq_alpha=ssq_alpha, sigma_sq_phi=ssq_phi,
            nu=nu, omega_sq=omega_sq, phi=phi))
    return samples, meta


def write_move_stats(path, stats: MoveStats) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("move,proposals,accepts,rate\n")
        for move in stats.proposals:
            rate = stats.rate(move)
            fh.write(f"{move},{stats.proposals[move]},{stats.accepts[move]},"
                     f"{'' if rate is None else '%.6f' % rate}\n")
        overall = stats.overall_ttmcmc_rate()
        props = sum(stats.proposals[m] for m in ("birth", "death", "no_change"))
        accs = sum(stats.accepts[m] for m in ("birth", "death", "no_change"))
        fh.write(f"overall_ttmcmc,{props},{accs},{'' if overall is None else '%.6f' % overall}\n")
