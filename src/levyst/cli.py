"""Command-line front end: simulate, fit, predict, diagnose.

Configuration comes from a flat `key = value` text file plus command-line
flags; flags override file values.  `simulate`, `fit` and `predict` take a
`--seed`; `diagnose` draws nothing and takes none.  A flag or configuration
key that a subcommand does not take is a usage error.  Every run writes a
JSON manifest with the full configuration echo, the seed and the package
version, sufficient to reproduce it.  Exit codes: 0 success; 2 for bad
input (usage, configuration, data or file errors: every `ValueError`-kind
package error and every `OSError`); 1 for numeric failures, inconsistent
states and running out of memory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__, chainio, diagnostics
from .data import GqnConfig, SpaceTimeDataset, gqn_simulate, load_csv, standardize, write_csv, write_rows
from .errors import ConfigError, LevystError, ParseError
from .model import COORD_BOUND, PriorConfig
from .sampler import PredictionBands, Sampler, SamplerConfig, posterior_predict, samples_outside_atom_box


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"config line {line_no}: expected key = value")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


# configuration keys -> the converter and the allowed values of their flags,
# which are the keys with dashes for underscores (`build_parser`)
_CONFIG_KEYS = {
    "seed": {"type": int}, "iters": {"type": int}, "burnin": {"type": int}, "thin": {"type": int},
    "jmax": {"type": int}, "scale": {"type": float}, "shrink": {"type": float},
    "marginalized": {"type": int, "choices": (0, 1)}, "c0": {"type": float}, "n_train": {"type": int},
    "n_test": {"type": int}, "m": {"type": int}, "coef_sd": {"type": float},
    "wide_band": {"type": int, "choices": (0, 1)},
}


def _config_value(key: str, raw: str):
    """A config file's value of `key`, converted and checked as its flag's."""
    convert, choices = _CONFIG_KEYS[key]["type"], _CONFIG_KEYS[key].get("choices")
    try:
        value = convert(raw)
    except ValueError:
        raise ConfigError(f"config key {key}: invalid {convert.__name__} value: {raw!r}") from None
    if choices is not None and value not in choices:
        raise ConfigError(f"config key {key}: invalid choice: {value} (choose from {', '.join(map(str, choices))})")
    return value


def _merge_config(args: argparse.Namespace) -> dict:
    merged: dict = {}
    if getattr(args, "config", None):
        file_values = _read_config_file(args.config)
        for key, raw in file_values.items():
            if key not in _CONFIG_KEYS or not hasattr(args, key):
                raise ConfigError(f"config key {key} does not apply to {args.command}")
            merged[key] = _config_value(key, raw)
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def _write_manifest(out_dir: str, command: str, cfg: dict) -> None:
    manifest = {"command": command, "version": __version__, "config": cfg}
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# configuration keys -> the config fields they set; a key the user did not
# give leaves the field at its default
_SAMPLER_FIELDS = {"iters": "iterations", "burnin": "burn_in", "thin": "thin", "jmax": "j_max",
                   "scale": "scale", "shrink": "shrink", "seed": "seed"}
_GQN_FIELDS = ("n_train", "n_test", "m", "coef_sd", "seed")


def _sampler_config(cfg: dict) -> SamplerConfig:
    return SamplerConfig(**{name: cfg[key] for key, name in _SAMPLER_FIELDS.items() if key in cfg})


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    gqn = GqnConfig(**{key: cfg[key] for key in _GQN_FIELDS if key in cfg})
    result = gqn_simulate(gqn)
    os.makedirs(args.out, exist_ok=True)
    write_csv(result.train, os.path.join(args.out, "train.csv"))
    write_csv(result.test, os.path.join(args.out, "test.csv"))
    cfg["n_clamped"] = result.n_clamped
    cfg["seed"] = gqn.seed
    _write_manifest(args.out, "simulate", cfg)
    print(f"simulate: train {result.train.n}x{result.train.m}, "
          f"test {result.test.n}x{result.test.m}, clamped cells {result.n_clamped}")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    raw = load_csv(args.data)
    data, _ = standardize(raw)
    marginalized = bool(cfg.get("marginalized", 1))
    scfg = _sampler_config(cfg)
    if (scfg.iterations - scfg.burn_in) // scfg.thin == 0:
        raise ConfigError(f"iters {scfg.iterations}, burnin {scfg.burn_in} and thin {scfg.thin} store no sample: "
                          "need (iters - burnin) // thin >= 1")
    sampler = Sampler(data, scfg, PriorConfig(), marginalized=marginalized)
    # after the inputs load and the model accepts them, before the run: bad
    # input leaves no directory, and an unusable --out fails before a long fit
    os.makedirs(args.out, exist_ok=True)
    result = sampler.run()
    result.meta["data"] = os.path.abspath(args.data)
    result.meta["standardize_mean"] = data.mean
    result.meta["standardize_sd"] = data.sd
    chainio.write_chain(os.path.join(args.out, "chain.txt"), result.samples, result.meta)
    chainio.write_move_stats(os.path.join(args.out, "movestats.csv"), result.stats)
    cfg["marginalized"] = int(marginalized)
    cfg["seed"] = scfg.seed
    cfg["samples_outside_atom_box"] = outside = samples_outside_atom_box(result.samples, data.locations)
    _write_manifest(args.out, "fit", cfg)
    if outside:
        print(f"warning: {outside} of {len(result.samples)} stored samples map a training location outside "
              f"the atom box [-{COORD_BOUND:g}, {COORD_BOUND:g}], where the field fades", file=sys.stderr)
    overall = result.stats.overall_ttmcmc_rate()
    print(f"fit: {len(result.samples)} stored samples; "
          f"overall TTMCMC acceptance {overall if overall is None else round(overall, 4)}")
    return 0


def _check_training_data(data, meta: dict) -> None:
    """Raise ConfigError unless the standardized `data` has the shape and
    standardization recorded in the chain's metadata (keys it lacks are
    not checked)."""
    found = {"n": data.n, "m": data.m, "p": data.p, "standardize_mean": data.mean, "standardize_sd": data.sd}
    for key, value in found.items():
        if key not in meta:
            continue
        try:
            recorded = float(meta[key])
        except ValueError:
            raise ParseError(f"chain metadata {key}={meta[key]} is not a number") from None
        if recorded != value:
            raise ConfigError(f"--data is not the data the chain was fitted on: its {key} is {value!r}, "
                              f"the chain's is {meta[key]}")


_BAND_NAMES = {1 / 16: "lower_0875", 0.5: "median", 15 / 16: "upper_0875", 0.025: "lower_95", 0.975: "upper_95"}


def write_bands(path, points: SpaceTimeDataset, bands: PredictionBands, probs) -> None:
    """bands.csv: one row per (point, time), s1..sp, t, then the band of each
    probability in probs, named by `_BAND_NAMES` (`write_rows`)."""
    header = [f"s{ell + 1}" for ell in range(points.p)] + ["t"] + [_BAND_NAMES[pr] for pr in probs]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        write_rows(fh, points.locations, points.times, np.stack([bands.quantiles[pr] for pr in probs], axis=-1))


def cmd_predict(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    samples, meta = chainio.read_chain(args.chain)
    if not samples:
        raise ConfigError("chain file holds no samples")
    raw = load_csv(args.data)
    data, _ = standardize(raw)
    _check_training_data(data, meta)
    new = load_csv(args.points)
    marginalized = meta.get("mode", "marginalized") == "marginalized"
    probs = [1 / 16, 0.5, 15 / 16]
    if cfg.get("wide_band"):
        probs = [0.025] + probs + [0.975]
    bands = posterior_predict(samples, new.locations, new.times, data,
                              marginalized=marginalized, seed=cfg.setdefault("seed", 0), probs=tuple(probs))
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "bands.csv")
    write_bands(path, new, bands, probs)
    _write_manifest(args.out, "predict", cfg)
    print(f"predict: bands for {new.n * new.m} points -> {path}")
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    data = load_csv(args.data)
    c0 = cfg.get("c0", 0.26)

    regions = [data.y[i] for i in range(data.n)]
    stat = diagnostics.recursive_stationarity_test(regions, c0=c0)
    span = float(np.hypot(
        np.linalg.norm(data.locations.max(axis=0) - data.locations.min(axis=0)),
        data.times.max() - data.times.min()))
    edges = np.linspace(0.0, max(span, 1e-9), 13)[1:]
    bins = diagnostics.lagged_correlation(data.locations, data.times, data.y, edges)
    summ = diagnostics.normality_summary(data.y)

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "stationarity.csv"), "w", encoding="utf-8") as fh:
        fh.write("region,threshold,distance,posterior_mean,posterior_var\n")
        for j in range(len(regions)):
            fh.write(f"{j + 1},{stat.thresholds[j]:.8g},{stat.distances[j]:.8g},"
                     f"{stat.posterior_mean[j]:.8g},{stat.posterior_var[j]:.8g}\n")

    with open(os.path.join(args.out, "lag_correlation.csv"), "w", encoding="utf-8") as fh:
        fh.write("lag_lo,lag_hi,pairs,correlation\n")
        for b in range(bins.counts.size):
            c = bins.correlation[b]
            fh.write(f"{bins.edges[b]:.8g},{bins.edges[b + 1]:.8g},{bins.counts[b]},"
                     f"{'' if np.isnan(c) else '%.8g' % c}\n")

    with open(os.path.join(args.out, "normality.csv"), "w", encoding="utf-8") as fh:
        fh.write("prob,sample_quantile,normal_quantile\n")
        for pr, sq, nq in zip(summ.probs, summ.sample_q, summ.normal_q):
            fh.write(f"{pr:.8g},{sq:.8g},{nq:.8g}\n")
        fh.write(f"# max_abs_deviation={summ.max_abs_deviation:.8g}\n")

    cfg["c0"] = c0
    _write_manifest(args.out, "diagnose", cfg)
    print(f"diagnose: verdict {stat.verdict}; reports in {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="levyst", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *keys):
        sp.add_argument("--config", help="flat key = value configuration file")
        sp.add_argument("--out", required=True, help="output directory")
        for key in keys:
            sp.add_argument("--" + key.replace("_", "-"), dest=key, **_CONFIG_KEYS[key])

    sp = sub.add_parser("simulate", help="generate synthetic train/test CSVs")
    common(sp, "seed", "n_train", "n_test", "m", "coef_sd")
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("fit", help="run the sampler on a training CSV")
    common(sp, "seed", "iters", "burnin", "thin", "jmax", "scale", "shrink", "marginalized")
    sp.add_argument("--data", required=True)
    sp.set_defaults(fn=cmd_fit)

    sp = sub.add_parser("predict", help="posterior predictive bands at new points")
    common(sp, "seed", "wide_band")
    sp.add_argument("--chain", required=True)
    sp.add_argument("--data", required=True, help="training CSV the chain was fitted on")
    sp.add_argument("--points", required=True, help="CSV of prediction points")
    sp.set_defaults(fn=cmd_predict)

    sp = sub.add_parser("diagnose", help="stationarity/correlation/normality reports")
    common(sp, "c0")
    sp.add_argument("--data", required=True)
    sp.set_defaults(fn=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (LevystError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # bad input is a ValueError-kind package error or a file error;
        # NumericError and InvalidStateError are failures of the run
        return 2 if isinstance(exc, (ValueError, OSError)) else 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
