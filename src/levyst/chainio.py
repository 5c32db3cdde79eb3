"""Chain persistence: a self-describing columnar text format.

Line 1 holds `# key=value` metadata, line 2 the header naming every scalar
column, then one row per stored sample.  A metadata value is written as its
text, or, when that text holds whitespace or starts with a double quote, as
that text encoded as a JSON string, so every value's text reads back as
written.  Atom blocks follow the scalars as per-time variable-length groups,
each led by its explicit count J:

    J mu[1,1] .. mu[1,p] .. mu[J,p] beta[1] .. beta[J]

Floats are written with 17 significant digits, so a write/read round trip is
bit-exact.  A sample cell that is not a finite number fails the read.  The
writer formats each row with one `%` over a row template and writes it at
once, and the reader reads the file one line at a time, so a long chain is
never held as text.  A row in the writer's layout, its cells one space
apart, is parsed in one `np.fromstring` pass; any other row is read cell by
cell with `float`, which gives the same values and names a row's faults.
"""

from __future__ import annotations

import json
import re

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


def _meta_cell(value) -> str:
    """A metadata value as written: its text, or that text as a JSON string
    when it holds whitespace or starts with a double quote."""
    text = str(value)
    if text.startswith('"') or any(c.isspace() for c in text):
        return json.dumps(text)
    return text


# One metadata token, from a non-whitespace character on: a key, then "="
# and a value, which is a JSON string ending at whitespace or the end of the
# line, or else any run of non-whitespace.  A token without "=" is a key with
# an empty value.
_META_TOKEN = re.compile(r'(?=\S)([^\s=]*)(?:=("(?:[^"\\]|\\.)*"(?!\S)|\S*))?')


def _read_meta(text: str) -> dict:
    """The metadata of a line's text after its "# ": a JSON string value
    decoded (one that is not valid JSON kept as written), any other value
    an int where it reads as one and its text otherwise."""
    meta: dict = {}
    for token in _META_TOKEN.finditer(text):
        key, value = token.group(1), token.group(2) or ""
        if value.startswith('"'):
            try:
                meta[key] = json.loads(value)
                continue
            except ValueError:
                pass
        try:
            meta[key] = int(value)
        except ValueError:
            meta[key] = value
    return meta


def write_chain(path, samples: list[ChainSample], meta: dict) -> None:
    """Write the chain: the metadata line, the header, then one row per sample.

    Each row is formatted by one `%` over a row template, "%d" for the
    iteration and " %.17g" for each of its k cells (an atom count J prints
    the same through "%.17g" as through `str`), and written as soon as it
    is formatted, so no more than one row is held as text.
    """
    p, m = int(meta["p"]), int(meta["m"])
    store_phi = any(s.phi is not None for s in samples)
    meta = dict(meta)
    meta["phi_stored"] = int(store_phi)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + " ".join(f"{k}={_meta_cell(v)}" for k, v in sorted(meta.items())) + "\n")
        fh.write(" ".join(scalar_header(p) + ["atoms..."]) + "\n")
        for s in samples:
            group_at, block, slot, beta_at, mu_at = _group_cells(s.store)
            groups = np.empty(group_at[-1])
            groups[group_at[:-1]] = s.store.counts
            groups[beta_at] = s.store.values[0, block, slot]
            groups[mu_at] = s.store.values[1:, block, slot]
            cells = np.concatenate([[s.lam, s.sigma_sq_eps, s.alpha, s.sigma_sq_alpha, s.sigma_sq_phi],
                                    s.nu, s.omega_sq, s.theta, groups,
                                    s.phi.ravel() if store_phi else []])
            fh.write(("%d" + (" " + _FMT) * cells.size + "\n") % (s.iteration, *cells.tolist()))


def _meta_int(meta: dict, key: str, lowest: int, default: int | None = None) -> int:
    value = meta.get(key, default)
    if not isinstance(value, int) or value < lowest:
        raise ParseError(f"chain metadata {key}={meta.get(key, '')} is not an integer >= {lowest}")
    return value


def _row_values(line: str, row_no: int) -> tuple[int, np.ndarray]:
    """A data row's iteration, read with `int`, and its other cells as a
    float array.

    A row in the writer's layout, one space between cells, is parsed by
    one `np.fromstring` pass, which is kept only if it read one finite
    value per space-separated cell.  Every other row, and every row that
    fails, is read cell by cell with `float`, which names its first fault:
    a non-numeric cell, then a non-finite one.
    """
    first, _, cells = line.partition(" ")
    try:
        it = int(first)
        row = np.fromstring(cells, sep=" ")
    except ValueError:
        pass
    else:
        if row.size == cells.count(" ") + 1 and np.isfinite(row).all():
            return it, row
    cells = line.split()
    try:
        it = int(cells[0])
        row = np.array([float(c) for c in cells[1:]])
    except ValueError:
        raise ParseError(f"row {row_no}: non-numeric cell") from None
    if not np.isfinite(row).all():
        raise ParseError(f"row {row_no}: non-finite cell")
    return it, row


def _read_rows(fh) -> tuple[list[ChainSample], dict]:
    """The samples and metadata of an open chain file (`read_chain`)."""
    rows = (row for line in fh for row in line.splitlines())
    meta_line, header = next(rows, None), next(rows, None)
    if header is None or not meta_line.startswith("# "):
        raise ParseError("missing chain metadata line")
    meta = _read_meta(meta_line[2:])
    p, m = _meta_int(meta, "p", 1), _meta_int(meta, "m", 1)
    n = _meta_int(meta, "n", 0, default=0)
    store_phi = bool(_meta_int(meta, "phi_stored", 0, default=0))
    n_scalars = 6 + 2 * p + ThetaLayout(p=p).dim  # len(scalar_header(p)), without building it

    samples: list[ChainSample] = []
    for row_no, line in enumerate(rows, start=3):
        if not line.strip():
            continue
        it, row = _row_values(line, row_no)
        pos = n_scalars - 1
        if row.size < pos:
            raise ParseError(f"row {row_no}: truncated scalars")
        lam, ssq_eps, alpha, ssq_alpha, ssq_phi = row[:5].tolist()
        nu = row[5:5 + p].copy()
        omega_sq = row[5 + p:5 + 2 * p].copy()
        theta = row[5 + 2 * p:pos].copy()
        first, counts = pos, []
        for _ in range(m):
            if pos >= row.size:
                raise ParseError(f"row {row_no}: truncated atom groups")
            J = row.item(pos)
            if not (J.is_integer() and J >= 1):
                raise ParseError(f"row {row_no}: atom count {line.split()[pos + 1]} is not a whole number >= 1")
            J = int(J)
            pos += 1 + J * (p + 1)
            if pos > row.size:
                raise ParseError(f"row {row_no}: truncated atom group (J={J})")
            counts.append(J)
        store = AtomStore(np.zeros((p + 1, m, max(counts))), np.array(counts, dtype=np.int64))
        _, block, slot, beta_at, mu_at = _group_cells(store)
        groups = row[first:pos]
        store.values[0, block, slot] = groups[beta_at]
        store.values[1:, block, slot] = groups[mu_at]
        phi = None
        if store_phi:
            if pos + n * m > row.size:
                raise ParseError(f"row {row_no}: truncated phi field")
            phi = row[pos:pos + n * m].reshape(n, m).copy()
            pos += n * m
        if pos != row.size:
            raise ParseError(f"row {row_no}: {row.size - pos} trailing cells")
        samples.append(ChainSample(
            iteration=it, store=store, theta=theta, lam=lam, sigma_sq_eps=ssq_eps,
            alpha=alpha, sigma_sq_alpha=ssq_alpha, sigma_sq_phi=ssq_phi,
            nu=nu, omega_sq=omega_sq, phi=phi))
    return samples, meta


def read_chain(path) -> tuple[list[ChainSample], dict]:
    """The samples and metadata of a chain file, as `write_chain` wrote them.

    The file is read one line at a time, and each line is split into rows
    by `str.splitlines`, so rows and their numbers are those of the whole
    text's `splitlines`; blank rows are skipped.  A malformed file raises
    ParseError naming its first bad row in file order; within a row the
    faults are checked in the order non-numeric cell, non-finite cell,
    truncated scalars, truncated atom groups, bad atom count, truncated
    atom group, truncated phi field, trailing cells.  A file that is not
    UTF-8 text fails as such, before any row error.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return _read_rows(fh)
            except ParseError:
                while fh.read(1 << 16):  # decode the rest: a decoding fault wins over a row's
                    pass
                raise
    except UnicodeDecodeError:
        raise ParseError("chain file is not UTF-8 text") from None


def write_move_stats(path, stats: MoveStats) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("move,proposals,accepts,rate\n")
        for move in stats.proposals:
            rate = stats.rate(move)
            fh.write(f"{move},{stats.proposals[move]},{stats.accepts[move]},"
                     f"{'' if rate is None else '%.6f' % rate}\n")
        overall = stats.overall_ttmcmc_rate()
        props, accs = stats.ttmcmc_counts()
        fh.write(f"overall_ttmcmc,{props},{accs},{'' if overall is None else '%.6f' % overall}\n")
