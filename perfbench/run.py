#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of levyst.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout: the program is imported from `src/`
and nowhere else, and scratch files go to `.bench_build/` and are removed.
Each workload repeats what a user does -- simulate, CSV round trip,
standardize, `run_chain`, `write_chain`, `read_chain`, `posterior_predict` --
for `--seconds` seconds and reports medians.  `--trace 1` alternates
untraced rounds with rounds traced at every layer boundary and reports the
per-layer numbers instead.  Every run checks the program's outputs against
the independent reference in `reference.py`.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
`--workload all` (the default) runs every workload, one process each.
See README.md for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread, so a workload runs one thread (two in the invariance check).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__ directories
import ess  # noqa: E402
import reference  # noqa: E402
from clock import SpeedClock  # noqa: E402
from spans import Tracer, aggregate, pool_usage  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Workload:
    n_train: int
    n_test: int
    m: int
    gqn_seed: int           # fixed, so every --seed fits the same data
    marginalized: bool
    iterations: int         # per timed run_chain call, all stored (no burn-in, thin 1)
    check_iterations: int   # untimed chain for the conjugate PIT tests


WORKLOADS = {
    # Python dispatch bound: AR process factors and per-block streams dominate.
    "desk-marginalized": Workload(30, 10, 20, gqn_seed=7, marginalized=True,
                                  iterations=30, check_iterations=150),
    # Paper size: field evaluation over 100 locations, theta phase, heavy set-up.
    "paper-marginalized": Workload(100, 20, 50, gqn_seed=0, marginalized=True,
                                   iterations=25, check_iterations=60),
    # Explicit effects: the effect Gibbs columns and the n x m field in every chain row.
    "desk-explicit": Workload(30, 10, 20, gqn_seed=7, marginalized=False,
                              iterations=20, check_iterations=100),
}

END_TO_END_UNITS = {
    "setup_s": "s", "fit_ms_per_iter": "ms/iter", "chain_write_s": "s",
    "chain_read_s": "s", "predict_s": "s", "peak_rss_mb": "MB",
}
# Clock key of each timed end-to-end metric.
TIMED_METRICS = {"setup_s": "setup", "fit_ms_per_iter": "run_chain", "chain_write_s": "write_chain",
                 "chain_read_s": "read_chain", "predict_s": "posterior_predict"}
# Scalar traces whose minimum bulk ESS is reported.
ESS_TRACES = ("lambda", "sigma_sq_eps", "sigma_sq_phi", "j_total", "log_tau", "log_xi", "log_ssq_beta")
SETUP_SHARE = 0.15   # share of --seconds spent repeating set-up
MIN_REPEATS = 3      # set-ups and rounds per run, however short --seconds is
# Writing, reading and predicting take tens of milliseconds, so each round
# repeats them to give their medians as many samples as the fit's.
IO_REPEATS = 3       # write_chain then read_chain
PREDICT_REPEATS = 2  # posterior_predict
OPS_PER_ROUND = 1 + 2 * IO_REPEATS + PREDICT_REPEATS
# Timed fits use one worker: with two, the fit's time on a shared 2-core host
# followed thread scheduling more than the program (see README.md).  Two
# workers still fit every chain once, untimed, for the invariance check.
INVARIANCE_WORKERS = 2


def load_program():
    """Import levyst from this checkout's src/, or stop with an error."""
    src = ROOT / "src"
    if not (src / "levyst" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no levyst sources under {src}")
    sys.path.insert(0, str(src))
    import levyst
    import levyst.chainio
    if src.resolve() not in Path(levyst.__file__).resolve().parents:
        raise SystemExit(f"perfbench: levyst imported from {levyst.__file__}, not {src}")
    return levyst, levyst.chainio


class Run:
    """One workload's inputs, clock, operation counts and failure messages."""

    def __init__(self, lv, chainio, wl: Workload, seed: int, workdir: Path):
        self.lv, self.chainio, self.wl, self.workdir = lv, chainio, wl, workdir
        self.chain_seed, self.predict_seed = (int(v) for v in np.random.SeedSequence(seed).generate_state(2))
        self.prior = lv.PriorConfig()
        self.clock = SpeedClock()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def config(self, iterations: int, workers: int = 1):
        return self.lv.SamplerConfig(iterations=iterations, burn_in=0, thin=1,
                                     workers=workers, seed=self.chain_seed)

    def setup(self, tracer: Tracer | None = None):
        """Simulate, write and reload both CSVs, standardize the training set."""
        lv, wl = self.lv, self.wl
        call = tracer.call if tracer else _plain_call
        sim = call("data.gqn_simulate", lv.gqn_simulate,
                   lv.GqnConfig(n_train=wl.n_train, n_test=wl.n_test, m=wl.m, seed=wl.gqn_seed))
        loaded = []
        for part in ("train", "test"):
            path = self.workdir / f"{part}.csv"
            call("data.write_csv", lv.write_csv, getattr(sim, part), path)
            loaded.append(call("data.load_csv", lv.load_csv, path))
        train, _ = call("data.standardize", lv.standardize, loaded[0])
        return sim, loaded, train

    def timed_setup(self, key: str, tracer: Tracer | None = None):
        self.attempted += 1
        return self.clock.time(key, self.setup, tracer)

    def fit_round(self, train, test, tracer: Tracer | None = None) -> dict:
        """The timed user path: fit, then store and reload the chain and
        predict from it, IO_REPEATS and PREDICT_REPEATS times."""
        lv, wl = self.lv, self.wl
        call = tracer.call if tracer else _plain_call
        prefix = "traced." if tracer else ""
        path = self.workdir / "chain.txt"
        self.attempted += OPS_PER_ROUND
        done = 0
        try:
            chain = self.clock.time(prefix + "run_chain", call, "sampler.run_chain", lv.run_chain, train,
                                    self.config(wl.iterations), self.prior,
                                    marginalized=wl.marginalized)
            done += 1
            for _ in range(IO_REPEATS):
                self.clock.time(prefix + "write_chain", call, "chainio.write_chain", self.chainio.write_chain,
                                path, chain.samples, chain.meta)
                done += 1
                stored, _ = self.clock.time(prefix + "read_chain", call, "chainio.read_chain",
                                            self.chainio.read_chain, path)
                done += 1
            for _ in range(PREDICT_REPEATS):
                bands = self.clock.time(prefix + "posterior_predict", call, "sampler.posterior_predict",
                                        lv.posterior_predict, stored, test.locations, test.times, train,
                                        marginalized=wl.marginalized, seed=self.predict_seed,
                                        keep_draws=True)
                done += 1
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += OPS_PER_ROUND - done
            self.problems.append(f"operation {done + 1} of a round raised {exc!r}")
            return {}
        return {"chain": chain, "stored": stored, "bands": bands, "chain_bytes": path.stat().st_size}

    def check(self, failures: list[str], what: str) -> None:
        self.problems += [f"{what}: {msg}" for msg in failures]


def _plain_call(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def check_setup(run: Run, setup) -> None:
    """The CSV round trip is bit-exact and standardization gives mean 0, sd 1."""
    sim, loaded, train = setup
    failures = []
    for original, reloaded in zip((sim.train, sim.test), loaded):
        for field in ("locations", "times", "y"):
            if not np.array_equal(getattr(original, field), getattr(reloaded, field)):
                failures.append(f"CSV round trip changed {field}")
    if abs(train.y.mean()) > 1e-12 or abs(train.y.std() - 1.0) > 1e-12:
        failures.append("standardized responses do not have mean 0 and sd 1")
    run.check(failures, "set-up")


def trace_values(samples, name: str, p: int) -> np.ndarray:
    theta_index = {"log_tau": 4 * p, "log_xi": 4 * p + 1, "log_ssq_beta": 6 * p + 3}
    if name == "lambda":
        return np.array([s.lam for s in samples])
    if name == "j_total":
        return np.array([sum(a.beta.size for a in s.atoms) for s in samples], dtype=float)
    if name in theta_index:
        return np.array([s.theta[theta_index[name]] for s in samples])
    return np.array([getattr(s, name) for s in samples])


def ess_bulk_min(samples, p: int) -> float:
    values = [trace_values(samples, name, p) for name in ESS_TRACES]
    return min(ess.bulk_ess(v) for v in values if np.ptp(v) > 0.0)


def check_outputs(run: Run, first: dict, train, test, fingerprints: list[str]):
    """Every correctness check; returns the untimed check chain.

    The first round's outputs are checked in full and every later round,
    traced or not, must reproduce its chain, as must an untimed fit on the
    thread pool (the README promises the same chain for every worker
    count).  A longer chain from the same
    seed gives the conjugate PIT tests more draws; its first iterations must
    equal the timed chain, since every stream is keyed by iteration.
    """
    wl, p = run.wl, train.p
    j_max = run.config(1).j_max
    chain = first["chain"]
    run.check(reference.support_check(chain.samples, p, j_max, wl.marginalized), "support")
    run.check(reference.move_count_check(chain.stats, wl.iterations, wl.m), "move counts")
    if reference.fingerprint(first["stored"]) != fingerprints[0]:
        run.check(["read_chain did not reproduce every stored float bit for bit"], "chain round trip")
    if len(set(fingerprints)) != 1:
        run.check([f"{len(set(fingerprints))} different chains from one seed"], "determinism")
    failures, zstats = reference.predict_check(first["bands"], chain.samples, train, test, wl.marginalized)
    run.check(failures, "predict check")
    pooled = run.lv.run_chain(train, run.config(wl.iterations, INVARIANCE_WORKERS), run.prior,
                              marginalized=wl.marginalized)
    if reference.fingerprint(pooled.samples) != fingerprints[0]:
        run.check([f"workers={INVARIANCE_WORKERS} chain differs from the one-worker chain"],
                  "worker invariance")

    long_chain = run.lv.run_chain(train, run.config(wl.check_iterations), run.prior,
                                  marginalized=wl.marginalized)
    if reference.fingerprint(long_chain.samples[:wl.iterations]) != fingerprints[0]:
        run.check(["a longer chain from the same seed does not start with the timed chain"], "determinism")
    run.check(reference.support_check(long_chain.samples, p, j_max, wl.marginalized), "support")
    run.check(reference.move_count_check(long_chain.stats, wl.check_iterations, wl.m), "move counts")
    failures, pvalues = reference.fit_check(long_chain.samples, train, run.prior, wl.marginalized)
    run.check(failures, "fit check")
    run.check(ess.self_check(), "ESS estimator")
    detail = {**{f"ks_p.{k}": v for k, v in pvalues.items()}, **zstats}
    print("checks: " + " ".join(f"{k}={v:.4g}" for k, v in detail.items()), file=sys.stderr)
    return long_chain


def install_tracing(tracer: Tracer) -> None:
    """Trace the program's public functions where their callers look them up."""
    import levyst.effects as effects
    import levyst.model as model
    import levyst.runtime as runtime
    import levyst.sampler as sampler

    def field_work(mapped, _t, atoms, _kp):
        n, p = mapped.shape
        j = atoms.count
        tracer.count("field_values.flops", n * j * (4 * p + 5))
        tracer.count("field_values.bytes", 8 * (2 * n * j * p + 2 * n * j))

    def trace(owners, attr, name, on_call=None):
        wrapped = tracer.wrap(getattr(owners[0], attr), name, on_call)
        for owner in owners:
            tracer.patch(owner, attr, wrapped)

    trace([sampler, model], "atom_block_log_density", "model.atom_block_log_density")
    trace([sampler], "atom_process_log_density", "model.atom_process_log_density")
    trace([sampler], "field_values", "model.field_values", field_work)
    trace([sampler], "monotone_map_extend", "model.monotone_map_extend")
    for fn in ("update_time_block", "stream", "loglik_slice", "theta_logpost", "gibbs_update_zeta"):
        trace([sampler], fn, f"sampler.{fn}")
    build = vars(sampler.ThetaCache)["build"].__func__
    tracer.patch(sampler.ThetaCache, "build", classmethod(tracer.wrap(build, "sampler.ThetaCache.build")))
    for fn in ("gibbs_update_phi_column", "phi0_training_matrix", "phi0_predict"):
        trace([effects], fn, f"effects.{fn}")
    tracer.patch(runtime.WorkerPool, "run_phase",
                 tracer.wrap_pool_method(runtime.WorkerPool.run_phase, "runtime.run_phase", wrap_tasks=True))
    tracer.patch(runtime.WorkerPool, "map_indices",
                 tracer.wrap_pool_method(runtime.WorkerPool.map_indices, "runtime.map_indices", wrap_tasks=False))


def layer_metrics(tracer: Tracer, round_out: dict) -> dict[str, float]:
    agg = aggregate(tracer.spans)
    usage = pool_usage(tracer.spans)

    def row(name):
        return agg.get(name, {"calls": 0, "wall": 0.0, "self": 0.0})

    out: dict[str, float] = {}
    for name in ("model.atom_block_log_density", "model.field_values", "model.monotone_map_extend",
                 "sampler.update_time_block", "sampler.stream", "sampler.loglik_slice",
                 "sampler.theta_logpost", "sampler.ThetaCache.build",
                 "effects.gibbs_update_phi_column", "effects.phi0_predict"):
        out[f"{name}.calls"] = row(name)["calls"]
        out[f"{name}.s"] = row(name)["self"]
    for name in ("model.atom_process_log_density", "sampler.gibbs_update_zeta",
                 "effects.phi0_training_matrix", "chainio.write_chain", "chainio.read_chain",
                 "data.gqn_simulate", "data.load_csv"):
        out[f"{name}.s"] = row(name)["self"]
    out["model.field_values.flops_computed"] = tracer.counters["field_values.flops"]
    out["model.field_values.bytes_computed"] = tracer.counters["field_values.bytes"]
    out["chainio.write_chain.bytes"] = round_out["chain_bytes"]
    for name, use in usage.items():
        out[f"{name}.wall_s"] = use["wall"]
        out[f"{name}.busy_s"] = use["busy"]
    wall = sum(use["wall"] for use in usage.values())
    # busy / (wall x workers), with the one worker the timed fits use
    out["runtime.parallel_efficiency"] = sum(use["busy"] for use in usage.values()) / wall if wall else 0.0
    return out


def chain_metrics(timed_chain, long_chain, p: int) -> dict[str, float]:
    """Move counts of one timed fit; atom count and ESS of the check chain."""
    out = {}
    for move, n in timed_chain.stats.proposals.items():
        out[f"sampler.proposals.{move}"] = n
        out[f"sampler.accepts.{move}"] = timed_chain.stats.accepts[move]
    out["sampler.atoms_mean"] = float(np.mean([a.beta.size for s in long_chain.samples for a in s.atoms]))
    out["sampler.ess_bulk_min"] = ess_bulk_min(long_chain.samples, p)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    lv, chainio = load_program()
    wl = WORKLOADS[name]
    workdir = ROOT / ".bench_build" / f"perfbench-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(lv, chainio, wl, seed, workdir)
        clock = run.clock
        start = time.perf_counter()
        first_setup = run.timed_setup("setup")
        while len(clock.raw["setup"]) < MIN_REPEATS or time.perf_counter() - start < SETUP_SHARE * seconds:
            run.timed_setup("setup")
        check_setup(run, first_setup)
        _, (_, test), train = first_setup

        first, fingerprints, layers = None, [], []
        attempts = 0
        while attempts < MIN_REPEATS or time.perf_counter() - start < seconds:
            attempts += 1
            gc.collect()
            out = run.fit_round(train, test)
            if not out:
                continue
            fingerprints.append(reference.fingerprint(out["chain"].samples))
            first = first or out
            if trace:
                gc.collect()
                tracer = Tracer()
                install_tracing(tracer)
                try:
                    run.timed_setup("traced.setup", tracer)
                    traced = run.fit_round(train, test, tracer)
                finally:
                    tracer.restore()
                if traced:
                    fingerprints.append(reference.fingerprint(traced["chain"].samples))
                    layers.append(layer_metrics(tracer, traced))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if first is None:
            raise SystemExit(f"perfbench: every round of {name} failed: {run.problems[:3]}")
        long_chain = check_outputs(run, first, train, test, fingerprints)

        def median_s(key, scaled=True):
            return statistics.median((clock.scaled if scaled else clock.raw)[key])

        if trace:
            metrics = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
            metrics.update(chain_metrics(first["chain"], long_chain, train.p))
            metrics["trace.overhead_ms_per_iter"] = 1000.0 * (
                median_s("traced.run_chain") - median_s("run_chain")) / wl.iterations
            units = {k: _layer_unit(k) for k in metrics}
        else:
            metrics = {key: median_s(clock_key) for key, clock_key in TIMED_METRICS.items()}
            metrics["fit_ms_per_iter"] *= 1000.0 / wl.iterations
            metrics["peak_rss_mb"] = peak_rss_mb
            units = END_TO_END_UNITS
            print("raw wall-time medians (s): " + " ".join(
                f"{key}={median_s(key, scaled=False):.4g}" for key in TIMED_METRICS.values()), file=sys.stderr)
        for problem in run.problems:
            print(f"CHECK FAILED [{name}] {problem}", file=sys.stderr)
        print(f"{name}: {len(clock.raw['run_chain'])} rounds of {wl.iterations} iterations, "
              f"{len(clock.raw['setup'])} set-ups", file=sys.stderr)
        return {
            "correct": not run.problems,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _layer_unit(key: str) -> str:
    if key.endswith(".calls") or key.startswith(("sampler.proposals.", "sampler.accepts.")):
        return "count"
    suffix_units = {".s": "s", ".wall_s": "s", ".busy_s": "s", ".flops_computed": "flop",
                    ".bytes_computed": "B", ".bytes": "B", ".parallel_efficiency": "ratio",
                    ".atoms_mean": "atoms", ".ess_bulk_min": "draws", ".overhead_ms_per_iter": "ms/iter"}
    for suffix, unit in suffix_units.items():
        if key.endswith(suffix):
            return unit
    raise KeyError(key)


def run_all(args) -> dict:
    """Every workload in sequence, each in its own process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            total["metrics"][f"{name}/{key}"] = value
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        for key, metric in result["metrics"].items():
            print(f"{args.workload} {key} {metric['value']:.6g} {metric['unit']}")
        print(f"{args.workload} attempted {result['attempted']} failed {result['failed']} "
              f"correct {str(result['correct']).lower()}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
