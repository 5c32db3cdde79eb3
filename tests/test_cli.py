import errno
import json
import os
from dataclasses import fields, replace

import numpy as np
import pytest

import levyst.cli as cli
from levyst.chainio import read_chain
from levyst.cli import _sampler_config, main
from levyst.data import GqnConfig, SpaceTimeDataset, gqn_simulate, load_csv, write_csv
from levyst.errors import InvalidStateError, NumericError
from levyst.sampler import PredictionBands, SamplerConfig, samples_outside_atom_box
from oracles import TEXT_EDGE_FLOATS, write_bands_per_value


def _run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    code = _run("simulate", "--out", str(out), "--seed", "3",
                "--n-train", "6", "--n-test", "2", "--m", "4")
    assert code == 0
    return out


def test_simulate_outputs(sim_dir):
    train = load_csv(sim_dir / "train.csv")
    test = load_csv(sim_dir / "test.csv")
    assert train.y.shape == (6, 4)
    assert test.y.shape == (2, 4)
    manifest = json.loads((sim_dir / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["config"]["seed"] == 3
    assert "version" in manifest


@pytest.fixture(scope="module")
def fit_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit")
    code = _run("fit", "--data", str(sim_dir / "train.csv"), "--out", str(out),
                "--seed", "5", "--iters", "40", "--burnin", "10", "--thin", "3", "--jmax", "5")
    assert code == 0
    return out


def test_fit_outputs(sim_dir, fit_dir):
    assert (fit_dir / "chain.txt").exists()
    stats = (fit_dir / "movestats.csv").read_text()
    assert stats.startswith("move,proposals")
    manifest = json.loads((fit_dir / "manifest.json").read_text())
    assert manifest["config"]["iters"] == 40
    samples, _ = read_chain(fit_dir / "chain.txt")
    train = load_csv(sim_dir / "train.csv")
    assert manifest["config"]["samples_outside_atom_box"] == samples_outside_atom_box(samples, train.locations)


def test_fit_warns_when_samples_leave_the_atom_box(sim_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "samples_outside_atom_box", lambda samples, locations: 2)
    out = tmp_path / "fit"
    capsys.readouterr()
    assert _run("fit", "--data", str(sim_dir / "train.csv"), "--out", str(out),
                "--iters", "6", "--burnin", "0", "--thin", "2", "--jmax", "4") == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: 2 of 3 stored samples") and "[-10, 10]" in err[0]
    assert json.loads((out / "manifest.json").read_text())["config"]["samples_outside_atom_box"] == 2


def test_fit_deterministic_chain_bytes(sim_dir, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = _run("fit", "--data", str(sim_dir / "train.csv"), "--out", str(out),
                    "--seed", "5", "--iters", "25", "--burnin", "5", "--thin", "4", "--jmax", "5")
        assert code == 0
        outs.append((out / "chain.txt").read_bytes())
    assert outs[0] == outs[1]


def test_fit_does_not_mutate_input(sim_dir, tmp_path):
    before = (sim_dir / "train.csv").read_bytes()
    out = tmp_path / "fit2"
    _run("fit", "--data", str(sim_dir / "train.csv"), "--out", str(out),
         "--seed", "1", "--iters", "12", "--burnin", "2", "--thin", "2", "--jmax", "4")
    assert (sim_dir / "train.csv").read_bytes() == before


def test_fit_defaults_to_one_worker(sim_dir, tmp_path):
    out = tmp_path / "fit1"
    code = _run("fit", "--data", str(sim_dir / "train.csv"), "--out", str(out),
                "--seed", "1", "--iters", "6", "--burnin", "0", "--thin", "2", "--jmax", "4")
    assert code == 0
    _, meta = read_chain(out / "chain.txt")
    assert meta["workers"] == 1


def test_manifests_record_the_seed_used(sim_dir, fit_dir, tmp_path):
    """Without --seed, `simulate` records the simulator's default seed and
    `predict` seed 0, the seeds their runs draw from."""
    assert _run("simulate", "--out", str(tmp_path / "sim"), "--n-train", "5", "--n-test", "2", "--m", "3") == 0
    assert json.loads((tmp_path / "sim" / "manifest.json").read_text())["config"]["seed"] == GqnConfig().seed
    assert _run("predict", "--chain", str(fit_dir / "chain.txt"), "--data", str(sim_dir / "train.csv"),
                "--points", str(sim_dir / "test.csv"), "--out", str(tmp_path / "pred")) == 0
    assert json.loads((tmp_path / "pred" / "manifest.json").read_text())["config"] == {"seed": 0}


@pytest.mark.parametrize("wide_band", [False, True])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_write_bands_bytes_equal_per_value_writer(tmp_path, p, wide_band):
    """bands.csv holds the bytes of the per-value writer, edge values included."""
    rng = np.random.default_rng(p)
    probs = [0.025, 1 / 16, 0.5, 15 / 16, 0.975] if wide_band else [1 / 16, 0.5, 15 / 16]

    def cells(shape):
        return np.where(rng.random(shape) < 0.5, rng.choice(TEXT_EDGE_FLOATS, shape), rng.standard_normal(shape))

    times = np.sort(rng.choice(np.unique(TEXT_EDGE_FLOATS), 4, replace=False))
    new = SpaceTimeDataset(cells((3, p)), times, cells((3, 4)))
    bands = PredictionBands(new.locations, new.times, {pr: cells((3, 4)) for pr in probs})
    cli.write_bands(tmp_path / "bands.csv", new, bands, probs)
    write_bands_per_value(tmp_path / "oracle.csv", new, bands, probs)
    assert (tmp_path / "bands.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_predict_round_trip(sim_dir, fit_dir, tmp_path):
    out = tmp_path / "pred"
    code = _run("predict", "--chain", str(fit_dir / "chain.txt"),
                "--data", str(sim_dir / "train.csv"),
                "--points", str(sim_dir / "test.csv"),
                "--out", str(out), "--seed", "2")
    assert code == 0
    lines = (out / "bands.csv").read_text().splitlines()
    header = lines[0].split(",")
    i_lo, i_md, i_hi = (header.index(c) for c in ("lower_0875", "median", "upper_0875"))
    assert len(lines) == 1 + 2 * 4
    for row in lines[1:]:
        cells = [float(c) for c in row.split(",")]
        assert cells[i_lo] <= cells[i_md] <= cells[i_hi]


def test_predict_reads_the_chain_mode(sim_dir, fit_dir, tmp_path, capsys):
    """A chain whose metadata holds a mode other than marginalized or
    explicit is bad input (exit 2, naming the value), not an explicit-mode
    chain; a chain without a mode predicts as a marginalized one."""
    chain_text = (fit_dir / "chain.txt").read_text()
    assert chain_text.count(" mode=marginalized ") == 1
    paths = {}
    for name, token in (("misnamed", " mode=marginalised "), ("modeless", " ")):
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(chain_text.replace(" mode=marginalized ", token))
    flags = ["--data", str(sim_dir / "train.csv"), "--points", str(sim_dir / "test.csv"), "--seed", "2"]
    capsys.readouterr()
    assert _run("predict", "--chain", str(paths["misnamed"]), *flags, "--out", str(tmp_path / "bad")) == 2
    assert "chain metadata mode=marginalised is neither marginalized nor explicit" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()
    for name, chain in (("marginalized", fit_dir / "chain.txt"), ("modeless", paths["modeless"])):
        assert _run("predict", "--chain", str(chain), *flags, "--out", str(tmp_path / name)) == 0
    assert (tmp_path / "modeless" / "bands.csv").read_bytes() == (tmp_path / "marginalized" / "bands.csv").read_bytes()


def test_diagnose_outputs(sim_dir, tmp_path):
    out = tmp_path / "diag"
    code = _run("diagnose", "--data", str(sim_dir / "train.csv"),
                "--out", str(out), "--c0", "0.3")
    assert code == 0
    for name in ("stationarity.csv", "lag_correlation.csv", "normality.csv"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["c0"] == 0.3


def test_config_file_with_flag_override(sim_dir, tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("iters = 30\nburnin = 10\nthin = 2\njmax = 4\nseed = 8\n")
    out = tmp_path / "fit3"
    code = _run("fit", "--config", str(cfgfile), "--data", str(sim_dir / "train.csv"),
                "--out", str(out), "--iters", "20")
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["iters"] == 20  # flag wins
    assert manifest["config"]["seed"] == 8    # file value kept


def test_usage_errors(sim_dir, fit_dir, tmp_path, capsys):
    # missing data file
    assert _run("fit", "--data", str(tmp_path / "none.csv"),
                "--out", str(tmp_path / "x")) == 2
    # a data file that is not UTF-8 text
    latin = tmp_path / "latin.csv"
    latin.write_bytes(b"s1,t,y\n0,1,\xff\n")
    assert _run("fit", "--data", str(latin), "--out", str(tmp_path / "u")) == 2
    # bad config key
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus = 1\n")
    assert _run("fit", "--config", str(bad), "--data", str(sim_dir / "train.csv"),
                "--out", str(tmp_path / "y")) == 2
    # config values that the flags' converters reject, named by their key
    capsys.readouterr()
    for line, cause in (("iters = abc", "config key iters: invalid int value: 'abc'"),
                        ("marginalized = 7", "config key marginalized: invalid choice: 7")):
        bad.write_text(line + "\n")
        assert _run("fit", "--config", str(bad), "--data", str(sim_dir / "train.csv"),
                    "--out", str(tmp_path / "y")) == 2
        assert cause in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "y")
    # inconsistent sampler settings
    assert _run("fit", "--data", str(sim_dir / "train.csv"),
                "--out", str(tmp_path / "z"), "--iters", "5", "--burnin", "9") == 2
    # a scale that is not positive and finite, and a first stationarity
    # threshold that is not finite and >= 0, named in the message
    capsys.readouterr()
    for argv, cause in [(["fit", "--data", str(sim_dir / "train.csv"), "--iters", "4", "--burnin", "0",
                          "--thin", "1", "--scale", value], "scale") for value in ("nan", "inf")] + [
                        (["diagnose", "--data", str(sim_dir / "train.csv"), "--c0", value], "c0")
                        for value in ("nan", "inf", "-1")]:
        assert _run(*argv, "--out", str(tmp_path / "bad")) == 2, argv
        assert cause in capsys.readouterr().err, argv
        assert not os.path.exists(tmp_path / "bad"), argv
    # a negative seed is a configuration error, named in the message
    capsys.readouterr()
    assert _run("fit", "--data", str(sim_dir / "train.csv"),
                "--out", str(tmp_path / "s"), "--seed", "-1") == 2
    assert "seed" in capsys.readouterr().err
    # simulator settings out of range, named in the message
    for flags, cause in ((["--seed", "-1"], "seed"), (["--m", "0"], "m=0"), (["--coef-sd", "0"], "coef_sd"),
                         (["--n-train", "2800"], "163.7 GiB")):
        assert _run("simulate", "--out", str(tmp_path / "sim"), "--n-train", "4", "--n-test", "1", *flags) == 2
        assert cause in capsys.readouterr().err
    # a negative prediction seed
    assert _run("predict", "--chain", str(fit_dir / "chain.txt"), "--data", str(sim_dir / "train.csv"),
                "--points", str(sim_dir / "test.csv"), "--out", str(tmp_path / "p"), "--seed", "-1") == 2
    assert "seed" in capsys.readouterr().err
    # predicting with data the chain was not fitted on: another shape, or
    # the same grid with other responses (another standardization)
    shifted = tmp_path / "shifted.csv"
    data = load_csv(sim_dir / "train.csv")
    write_csv(replace(data, y=data.y + 1.0), shifted)
    for other, cause in ((sim_dir / "test.csv", "its n is 2, the chain's is 6"), (shifted, "standardize_mean")):
        assert _run("predict", "--chain", str(fit_dir / "chain.txt"), "--data", str(other),
                    "--points", str(sim_dir / "test.csv"), "--out", str(tmp_path / "p")) == 2
        assert cause in capsys.readouterr().err
    # a chain with a non-finite atom cell and theta cell, named by its row
    lines = (fit_dir / "chain.txt").read_text().splitlines()
    cells = lines[2].split(" ")
    cells[-1], cells[lines[1].split(" ").index("x1")] = "nan", "inf"
    broken = tmp_path / "broken.txt"
    broken.write_text("\n".join(lines[:2] + [" ".join(cells)] + lines[3:]) + "\n")
    assert _run("predict", "--chain", str(broken), "--data", str(sim_dir / "train.csv"),
                "--points", str(sim_dir / "test.csv"), "--out", str(tmp_path / "p")) == 2
    assert "row 3: non-finite cell" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "p")
    # unknown flag exits 2 via argparse
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--nonsense"])
    assert exc.value.code == 2
    # no subcommand takes --workers, and diagnose, which draws nothing, takes no --seed
    required = {"simulate": [], "fit": ["--data", str(sim_dir / "train.csv")],
                "predict": ["--chain", str(fit_dir / "chain.txt"), "--data", str(sim_dir / "train.csv"),
                            "--points", str(sim_dir / "test.csv")],
                "diagnose": ["--data", str(sim_dir / "train.csv")]}
    retired = [[command, "--workers", "2"] for command in required] + [["diagnose", "--seed", "1"]]
    capsys.readouterr()
    for command, *flag in retired:
        with pytest.raises(SystemExit) as exc:
            main([command, *required[command], "--out", str(tmp_path / "w"), *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "w")
    # nor a config file that gives them
    cfgfile = tmp_path / "retired.cfg"
    for command, key in [(command, "workers") for command in required] + [("diagnose", "seed")]:
        cfgfile.write_text(f"{key} = 2\n")
        assert _run(command, *required[command], "--config", str(cfgfile), "--out", str(tmp_path / "w")) == 2
        assert f"config key {key} does not apply to {command}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "w")


def test_bad_input_exits_2_naming_the_cause(sim_dir, fit_dir, tmp_path, capsys, monkeypatch):
    train = load_csv(sim_dir / "train.csv")
    test = load_csv(sim_dir / "test.csv")
    three_coordinates = tmp_path / "points3.csv"
    write_csv(SpaceTimeDataset(np.column_stack([test.locations, np.zeros(test.n)]), test.times, test.y),
              three_coordinates)
    constant, one_location, small = tmp_path / "constant.csv", tmp_path / "one.csv", tmp_path / "small.csv"
    write_csv(replace(train, y=np.ones_like(train.y)), constant)
    write_csv(SpaceTimeDataset(train.locations[:1], train.times, train.y[:1]), one_location)
    write_csv(SpaceTimeDataset(train.locations[:2], train.times, train.y[:2]), small)  # 8 cells
    existing = tmp_path / "taken"
    existing.write_text("")
    far = tmp_path / "far.csv"
    write_csv(SpaceTimeDataset(np.column_stack([train.locations[:, 0], train.locations[:, 1] * 1e100]), train.times,
                               train.y), far)
    far_points = tmp_path / "far_points.csv"
    write_csv(SpaceTimeDataset(np.column_stack([np.full(test.n, 1e155), test.locations[:, 1]]), test.times, test.y),
              far_points)
    fit_flags = ["--iters", "4", "--burnin", "0", "--thin", "1", "--jmax", "4"]
    cases = [
        (["fit", "--data", str(constant), "--out", str(tmp_path / "f1"), *fit_flags], ["constant response"]),
        (["fit", "--data", str(one_location), "--out", str(tmp_path / "f2"), *fit_flags], ["two locations"]),
        (["diagnose", "--data", str(small), "--out", str(tmp_path / "d")], ["at least 20 points"]),
        (["fit", "--data", str(tmp_path), "--out", str(tmp_path / "f3"), *fit_flags],
         [os.strerror(errno.EISDIR), str(tmp_path)]),
        (["fit", "--data", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "f4"), *fit_flags],
         [os.strerror(errno.ENOENT), str(tmp_path / "missing.csv")]),
        (["predict", "--chain", str(tmp_path / "missing.txt"), "--data", str(sim_dir / "train.csv"),
          "--points", str(sim_dir / "test.csv"), "--out", str(tmp_path / "p")], [os.strerror(errno.ENOENT)]),
        (["fit", "--data", str(sim_dir / "train.csv"), "--out", str(existing), *fit_flags],
         [os.strerror(errno.EEXIST), str(existing)]),
        (["predict", "--chain", str(fit_dir / "chain.txt"), "--data", str(sim_dir / "train.csv"),
          "--points", str(three_coordinates), "--out", str(tmp_path / "p3")],
         ["prediction points have 3 coordinates, the training locations 2"]),
        (["predict", "--chain", str(fit_dir / "chain.txt"), "--data", str(sim_dir / "train.csv"),
          "--points", str(far_points), "--out", str(tmp_path / "p4")],
         ["prediction points reach 1e+155 beyond the training coordinates of dimension 0"]),
        (["fit", "--data", str(sim_dir / "train.csv"), "--out", str(tmp_path / "f5"),
          "--iters", "100", "--burnin", "95", "--thin", "10", "--jmax", "4"],
         ["iters 100, burnin 95 and thin 10 store no sample"]),
        (["fit", "--data", str(far), "--out", str(tmp_path / "f6"), *fit_flags], ["coordinates of dimension 1"]),
    ]
    capsys.readouterr()
    for argv, causes in cases:
        assert _run(*argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        for cause in causes:
            assert cause in captured.err, (argv, captured.err)
        out = argv[argv.index("--out") + 1]
        assert out == str(existing) or not os.path.exists(out), argv  # bad input leaves no output directory
    # a failure of the run itself still exits 1
    for error in (NumericError("diverged"), InvalidStateError("inconsistent")):
        def failing(_cfg, error=error):
            raise error
        monkeypatch.setattr(cli, "gqn_simulate", failing)
        assert _run("simulate", "--out", str(tmp_path / "sim")) == 1
        assert f"error: {error}" in capsys.readouterr().err


def test_config_key_the_subcommand_does_not_take_is_rejected(sim_dir, tmp_path, capsys):
    for line in ("c0 = 0.3", "n_train = 5"):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"iters = 4\nburnin = 0\nthin = 1\njmax = 4\n{line}\n")
        out = tmp_path / "fit"
        capsys.readouterr()
        assert _run("fit", "--config", str(cfgfile), "--data", str(sim_dir / "train.csv"), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert line.split(" =")[0] in err and "fit" in err
        assert not (out / "manifest.json").exists()


def test_out_of_memory_exits_1(monkeypatch, tmp_path, capsys):
    def exhausted(_cfg):
        raise MemoryError
    monkeypatch.setattr(cli, "gqn_simulate", exhausted)
    assert _run("simulate", "--out", str(tmp_path / "sim")) == 1
    assert "out of memory" in capsys.readouterr().err


def test_sampler_config_takes_only_given_keys():
    assert _sampler_config({}) == SamplerConfig()
    given = {"iters": 40, "burnin": 10, "thin": 3, "jmax": 5, "scale": 0.1, "shrink": 0.2, "seed": 5}
    assert _sampler_config(given) == SamplerConfig(iterations=40, burn_in=10, thin=3, j_max=5, scale=0.1,
                                                   shrink=0.2, seed=5)
    assert _sampler_config({"seed": 4}) == replace(SamplerConfig(), seed=4)


def test_every_config_field_is_set_by_a_config_key():
    """An option that no user can set fails here on the day it is added.
    `SamplerConfig.workers` is the one exception: only the chain's metadata
    and the benchmark's worker-invariance check read it."""
    assert {f.name for f in fields(SamplerConfig)} - {"workers"} <= set(cli._SAMPLER_FIELDS.values())
    assert tuple(f.name for f in fields(GqnConfig)) == cli._GQN_FIELDS


def test_simulate_without_flags_uses_simulator_defaults(monkeypatch, tmp_path):
    seen = []

    def recording_simulate(gqn):
        seen.append(gqn)
        return gqn_simulate(GqnConfig(n_train=3, n_test=1, m=2))

    monkeypatch.setattr(cli, "gqn_simulate", recording_simulate)
    assert _run("simulate", "--out", str(tmp_path / "sim")) == 0
    assert seen == [GqnConfig()]
