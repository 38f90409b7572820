import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from abckit import adjust, cli, orchestrate, statselect, validation
from abckit._kstwo import kstwo_sf
from abckit.errors import NumericalError
from abckit.rejection import retain
from abckit.tableio import (ObservedStats, OutputTag, format_value,
                            read_observed, read_table, tagged_filename,
                            write_observed, write_table, write_tagged)

from conftest import take_rows


def test_estimate_two_models_end_to_end(tmp_path, monkeypatch, norm_table,
                                        unif_table, toy_obs):
    write_table(tmp_path / "normal.txt", norm_table)
    write_table(tmp_path / "uniform.txt", unif_table)
    write_observed(tmp_path / "obs.txt", toy_obs)
    monkeypatch.chdir(tmp_path)
    code = cli.main(["task=estimate", "simName=normal.txt;uniform.txt",
                     "params=1-2", "obsName=obs.txt", "numRetained=300",
                     "maxReadSims=5000", "writeRetained=1", "seed=1",
                     "outputPrefix=ABC"])
    assert code == 0

    fit = read_table(tmp_path / "ABC_modelFit_Obs0.txt")
    probs = fit.values[:, fit.names.index("posteriorProbability")]
    assert fit.values[:, 0].tolist() == [0.0, 1.0]
    assert abs(probs.sum() - 1.0) < 1e-5 and probs[0] > 0.99
    for m in (0, 1):
        dens = read_table(tmp_path / f"ABC_model{m}_MarginalPosteriorDensities_Obs0.txt")
        assert dens.names == ("mu", "mu.density", "sigma2", "sigma2.density")
        assert dens.n_rows == 100
        for name in ("mu", "sigma2"):
            grid = dens.values[:, dens.names.index(name)]
            f = dens.values[:, dens.names.index(f"{name}.density")]
            assert abs(np.sum(f) * (grid[1] - grid[0]) - 1.0) < 0.01
        chars = (tmp_path / f"ABC_model{m}_MarginalPosteriorCharacteristics_Obs0.txt"
                 ).read_text().splitlines()
        assert chars[0].split("\t")[:4] == ["parameter", "mode", "mean", "median"]
        assert [line.split("\t")[0] for line in chars[1:]] == ["mu", "sigma2"]
        best = read_table(tmp_path / f"ABC_model{m}_BestSimsParamStats_Obs0.txt")
        assert best.n_rows == 300


TOY_EST = """[PARAMETERS]
0 mu unif -1 1 output
0 sigma2 unif 0.1 4 output
"""


def _simulate_pipeline(directory, monkeypatch, toy_obs):
    """Standard boosted sampling, a PLS definition fitted to it, then MCMC
    on that definition; returns the bytes of every file written."""
    directory.mkdir()
    monkeypatch.chdir(directory)
    (directory / "toy.est").write_text(TOY_EST)
    write_observed(directory / "obs.txt", toy_obs)
    common = ["task=simulate", "estName=toy.est", "simProgram=toy-normal",
              "doBoosting=1", "seed=3"]
    assert cli.main(common + ["numSims=300", "outName=std"]) == 0
    table = read_table(directory / "std_sampling1.txt", "1-2")
    statselect.fit_pls(table, 2, 5, rng=3).definition.save(
        directory / "lincomb.txt")
    assert cli.main(common + ["samplerType=MCMC", "numSims=400",
                              "numCaliSims=200", "linearCombName=lincomb.txt",
                              "obsName=obs.txt", "outName=mcmc"]) == 0
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_simulate_standard_and_mcmc_end_to_end(tmp_path, monkeypatch,
                                               toy_obs):
    first = _simulate_pipeline(tmp_path / "a", monkeypatch, toy_obs)
    std = read_table(tmp_path / "a" / "std_sampling1.txt", "1-2")
    assert std.n_rows == 300
    assert len(std.stat_names) == 8 + 8 * 9 // 2          # boosted
    mcmc = read_table(tmp_path / "a" / "mcmc_sampling1.txt", "1-2")
    assert mcmc.n_rows == 400 - 40                         # 10 % burn-in
    assert mcmc.names[-1] == "distance"
    assert mcmc.stat_names[:8] == std.stat_names[:8]
    second = _simulate_pipeline(tmp_path / "b", monkeypatch, toy_obs)
    assert first == second


def test_boosted_mcmc_ignores_the_observation_column_order(tmp_path,
                                                          monkeypatch, toy_obs):
    # the observation's boosted products are named in the simulator's
    # column order, whatever the order of the observation file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "toy.est").write_text(TOY_EST)
    order = [1, 0] + list(range(2, len(toy_obs.names)))
    permuted = ObservedStats([toy_obs.names[j] for j in order],
                             toy_obs.values[order])
    written = []
    for name, obs in (("in", toy_obs), ("perm", permuted)):
        write_observed(tmp_path / f"{name}.obs", obs)
        assert cli.main(["task=simulate", "samplerType=MCMC",
                         "estName=toy.est", "simProgram=toy-normal",
                         "doBoosting=1", f"obsName={name}.obs",
                         "numSims=200", "numCaliSims=200", "seed=1",
                         f"outName={name}"]) == 0
        written.append((tmp_path / f"{name}_sampling1.txt").read_bytes())
    assert written[0] == written[1]


def test_simulate_table_does_not_depend_on_the_block_size(tmp_path,
                                                         monkeypatch):
    (tmp_path / "toy.est").write_text(TOY_EST)
    written = []
    for block in (1, 256):
        monkeypatch.setattr(orchestrate, "SIM_BLOCK", block)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["task=simulate", "estName=toy.est",
                         "simProgram=toy-normal", "doBoosting=1", "seed=4",
                         "numSims=600", f"outName=b{block}"]) == 0
        written.append((tmp_path / f"b{block}_sampling1.txt").read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("setting, key", [
    ("numCaliSims=50", "numCaliSims"),
    ("thresholdProp=2", "thresholdProp"),
    ("mcmcBurnIn=1.5", "mcmcBurnIn"),
    ("numSims=0", "numSims"),
    ("numSims=inf", "numSims"),
    ("numSims=50.7", "numSims"),
    ("seed=-1", "seed"),
    ("seed=1e30", "seed"),
])
def test_simulate_mcmc_range_check_is_a_config_error(tmp_path, monkeypatch,
                                                     caplog, toy_obs,
                                                     setting, key):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "toy.est").write_text(TOY_EST)
    write_observed(tmp_path / "obs.txt", toy_obs)
    code = cli.main(["task=simulate", "samplerType=MCMC", "estName=toy.est",
                     "simProgram=toy-normal", "numSims=100",
                     "obsName=obs.txt", setting])
    assert code == 1
    errors = [r.getMessage() for r in caplog.records
              if r.levelno == logging.ERROR]
    assert len(errors) == 1 and key in errors[0]
    assert not list(tmp_path.glob("*_sampling1.txt"))


@pytest.mark.parametrize("value, want", [
    ("12", 12), ("1e3", 1000), ("-0.0", 0), ("2.0e1", 20),
    ("9007199254740993", 2**53 + 1),
])
def test_get_int_takes_integer_and_integral_float_literals(value, want):
    cfg = cli.Config()
    cfg.set("seed", value)
    got = cfg.get_int("seed")
    assert got == want and type(got) is int


def test_config_error_exits_1_without_traceback(tmp_path, toy_obs):
    (tmp_path / "toy.est").write_text(TOY_EST)
    write_observed(tmp_path / "obs.txt", toy_obs)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "abckit.cli", "task=simulate",
         "samplerType=MCMC", "estName=toy.est", "simProgram=toy-normal",
         "numSims=100", "obsName=obs.txt", "numCaliSims=50"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "configuration error: numCaliSims" in proc.stderr


def test_tukey_pvalue_on_too_few_retained_is_a_config_error(
        tmp_path, norm_table, unif_table, toy_obs):
    # the depth P-value needs at least 10 retained rows
    _write_toy_inputs(tmp_path, norm_table, unif_table, toy_obs, rows=200)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "abckit.cli", "task=estimate",
         "simName=normal.txt", "params=1-2", "obsName=obs.txt",
         "numRetained=8", "maxReadSims=200", "tukeyPValue=5", "seed=1",
         "outputPrefix=ABC"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "configuration error: tukeyPValue" in proc.stderr
    assert "numRetained" in proc.stderr
    assert not list(tmp_path.glob("ABC_*"))


def _write_toy_inputs(directory, norm_table, unif_table, toy_obs, rows=2000):
    """The first ``rows`` simulations of each toy model and the toy
    observation, as the CLI reads them."""
    write_table(directory / "normal.txt", take_rows(norm_table, range(rows)))
    write_table(directory / "uniform.txt", take_rows(unif_table, range(rows)))
    write_observed(directory / "obs.txt", toy_obs)


def _column(table, name):
    return table.values[:, table.names.index(name)]


def _logged_pvalues(caplog):
    """The P-values of the model-fit log lines, in order."""
    out = []
    for record in caplog.records:
        msg = record.getMessage()
        if " fit: marginal density " in msg:
            out += [float(part.split(")")[0]) for part in msg.split("(P=")[1:]]
    return out


def test_estimate_with_every_diagnostic_end_to_end(tmp_path, monkeypatch,
                                                   caplog, norm_table,
                                                   unif_table, toy_obs):
    _write_toy_inputs(tmp_path, norm_table, unif_table, toy_obs)
    monkeypatch.chdir(tmp_path)
    caplog.set_level(logging.INFO)
    code = cli.main(["task=estimate", "simName=normal.txt;uniform.txt",
                     "params=1-2", "obsName=obs.txt", "numRetained=200",
                     "maxReadSims=5000", "seed=2", "outputPrefix=ABC",
                     "posteriorDensityPoints=60",
                     "jointPosteriors=mu,sigma2",
                     "jointPosteriorDensityPoints=30",
                     "marDensPValue=100", "tukeyPValue=100",
                     "retainedValidation=6", "randomValidation=6",
                     "modelChoiceValidation=4"])
    assert code == 0

    for m in (0, 1):
        dens = read_table(tmp_path / f"ABC_model{m}_MarginalPosteriorDensities_Obs0.txt")
        assert dens.n_rows == 60
        for name in ("mu", "sigma2"):
            grid, f = _column(dens, name), _column(dens, f"{name}.density")
            assert np.all(f >= 0)
            assert np.trapezoid(f, grid) == pytest.approx(1.0, abs=1e-4)

        joint = read_table(tmp_path / f"ABC_model{m}_jointPosterior_1_2_Obs0.txt")
        assert joint.names == ("mu", "sigma2", "density", "HDI")
        assert joint.n_rows == 30 * 30
        mu, sigma2 = _column(joint, "mu"), _column(joint, "sigma2")
        assert np.all(np.diff(mu[:30]) > 0) and np.all(sigma2[:30] == sigma2[0])
        cell = (mu[1] - mu[0]) * (sigma2[30] - sigma2[0])
        density, hdi = _column(joint, "density"), _column(joint, "HDI")
        assert np.all(density >= 0)
        assert density.sum() * cell == pytest.approx(1.0, abs=1e-4)
        assert np.all((hdi >= 0) & (hdi <= 1 + 1e-5))
        # the densest cell has the smallest credible level
        assert hdi[np.argmax(density)] == hdi.min()

        for tag in ("RetainedValidation_Obs0", "RandomValidation"):
            val = read_table(tmp_path / f"ABC_model{m}_{tag}.txt")
            assert 0 < val.n_rows <= 6
            for name in ("mu", "sigma2"):
                for kind in ("quantile", "HDI"):
                    col = _column(val, f"{name}_{kind}")
                    assert np.all((col >= 0) & (col <= 1))

    pvalues = _logged_pvalues(caplog)
    assert len(pvalues) == 4                 # marginal and Tukey, per model
    assert all(0 <= p <= 1 for p in pvalues)

    raw = read_table(tmp_path / "ABC_modelChoiceValidation.txt")
    assert raw.n_rows == 8
    probs = raw.values[:, 1:]
    assert np.all((probs >= 0) & (probs <= 1))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-5)
    confusion = (tmp_path / "ABC_confusionMatrix.txt").read_text().splitlines()
    assert confusion[0].split("\t")[:3] == ["trueModel", "chosen0", "chosen1"]
    counts = [[float(v) for v in line.split("\t")[1:3]] for line in confusion[1:]]
    assert [sum(row) for row in counts] == [4.0, 4.0]


def test_estimate_plot_data_writes_rejection_densities(tmp_path, monkeypatch,
                                                       norm_table, unif_table,
                                                       toy_obs):
    _write_toy_inputs(tmp_path, norm_table, unif_table, toy_obs)
    monkeypatch.chdir(tmp_path)
    code = cli.main(["task=estimate", "simName=normal.txt", "params=1-2",
                     "obsName=obs.txt", "numRetained=200", "maxReadSims=5000",
                     "seed=2", "outputPrefix=ABC", "plotData=1"])
    assert code == 0
    dens = read_table(tmp_path / "ABC_model0_rejectionDensities_Obs0.txt")
    assert dens.names == ("mu", "mu.density", "sigma2", "sigma2.density")
    assert dens.n_rows == 512
    for name in ("mu", "sigma2"):
        grid, f = _column(dens, name), _column(dens, f"{name}.density")
        assert np.all(f >= 0) and np.all(np.diff(grid) > 0)
        # a kernel density on a grid padded by 10 % holds nearly all mass
        assert 0.9 < np.trapezoid(f, grid) <= 1.0 + 1e-4


def test_two_model_rejection_densities_come_from_the_retained_rows(
        tmp_path, monkeypatch, norm_table, unif_table, toy_obs):
    _write_toy_inputs(tmp_path, norm_table, unif_table, toy_obs)
    monkeypatch.chdir(tmp_path)
    code = cli.main(["task=estimate", "simName=normal.txt;uniform.txt",
                     "params=1-2", "obsName=obs.txt", "numRetained=200",
                     "maxReadSims=5000", "seed=2", "outputPrefix=ABC",
                     "plotData=1", "writeRetained=1"])
    assert code == 0
    for m in (0, 1):
        best = read_table(tmp_path / f"ABC_model{m}_BestSimsParamStats_Obs0.txt")
        dens = read_table(tmp_path / f"ABC_model{m}_rejectionDensities_Obs0.txt")
        for name in ("mu", "sigma2"):
            lo, hi = _column(best, name).min(), _column(best, name).max()
            grid = _column(dens, name)
            # the kernel grid spans the retained range padded by 10 %
            np.testing.assert_allclose(
                [grid[0], grid[-1]],
                [lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo)], rtol=1e-5)


def test_pruned_statistics_leave_the_observation_too(tmp_path, monkeypatch,
                                                      caplog, norm_table,
                                                      unif_table, toy_obs):
    _write_toy_inputs(tmp_path, norm_table, unif_table, toy_obs)
    monkeypatch.chdir(tmp_path)
    code = cli.main(["task=estimate", "simName=normal.txt;uniform.txt",
                     "params=1-2", "obsName=obs.txt", "numRetained=200",
                     "maxReadSims=5000", "seed=2", "outputPrefix=ABC",
                     "pruneCorrelatedStats=1", "maxCor=0.9",
                     "writeRetained=1"])
    assert code == 0
    assert "pruned 2 correlated statistic(s): median, range" in caplog.text
    for m in (0, 1):
        best = read_table(tmp_path / f"ABC_model{m}_BestSimsParamStats_Obs0.txt")
        assert best.names == ("mu", "sigma2", "mean", "var", "min", "max",
                              "Q1", "Q3", "distance")


def test_transform_end_to_end(tmp_path, monkeypatch, norm_table):
    monkeypatch.chdir(tmp_path)
    table = take_rows(norm_table, np.arange(400))
    write_table(tmp_path / "sims.txt", table)
    comb = statselect.fit_pls(table, 3, 5, rng=4).definition
    comb.save(tmp_path / "lincomb.txt")
    code = cli.main(["task=transform", "linearCombName=lincomb.txt",
                     "input=sims.txt", "output=out.txt", "params=1-2",
                     "numLinearComb=2"])
    assert code == 0
    out = read_table(tmp_path / "out.txt", "1-2")
    assert out.names == ("mu", "sigma2", "LinearCombination_1",
                         "LinearCombination_2")
    assert out.n_rows == 400
    sims = read_table(tmp_path / "sims.txt", "1-2")
    np.testing.assert_array_equal(out.params, sims.params)
    reloaded = statselect.LinearCombDef.load(tmp_path / "lincomb.txt")
    want = statselect.transform(sims, reloaded, 2)
    printed = np.vectorize(lambda v: float(format_value(v)))(want.stats)
    np.testing.assert_array_equal(out.stats, printed)


def test_find_stats_model_choice_end_to_end(tmp_path, monkeypatch, norm_table,
                                            unif_table, toy_obs):
    _write_toy_inputs(tmp_path, norm_table, unif_table, toy_obs, rows=1000)
    monkeypatch.chdir(tmp_path)
    code = cli.main(["task=findStatsModelChoice",
                     "simName=normal.txt;uniform.txt", "params=1-2",
                     "maxReadSims=5000", "numRetained=200",
                     "modelChoiceValidation=5", "maxCorSSFinder=0",
                     "seed=3", "outputPrefix=ABC"])
    assert code == 0
    lines = (tmp_path / "ABC_searchStatsgreedySearch.txt").read_text().splitlines()
    header = lines[0].split("\t")
    assert header == ["rank", "power", "largestPairwiseCorrelation",
                      "nStatistics", "statistics"]
    rows = [line.split("\t") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
    powers = [float(r[1]) for r in rows]
    assert all(0 <= p <= 1 for p in powers)
    assert powers == sorted(powers, reverse=True)
    assert {r[4] for r in rows if r[3] == "1"} <= set(norm_table.stat_names)


def _error_lines(caplog):
    return [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]


@pytest.mark.parametrize("task, settings, limit", [
    ("estimate", ["obsName=obs.txt", "numRetained=301"], 300),
    ("estimate", ["obsName=obs.txt", "numRetained=0"], 300),
    ("estimate", ["obsName=obs.txt", "numRetained=300",
                  "randomValidation=2"], 299),
    ("findStatsModelChoice", ["numRetained=300", "modelChoiceValidation=2"],
     299),
])
def test_num_retained_range_check_is_a_config_error(tmp_path, monkeypatch,
                                                    caplog, norm_table,
                                                    unif_table, toy_obs, task,
                                                    settings, limit):
    _write_toy_inputs(tmp_path, norm_table, unif_table, toy_obs, rows=300)
    monkeypatch.chdir(tmp_path)
    code = cli.main([f"task={task}", "simName=normal.txt;uniform.txt",
                     "params=1-2", "maxReadSims=5000", "outputPrefix=ABC",
                     *settings])
    assert code == 1
    errors = _error_lines(caplog)
    assert len(errors) == 1
    assert "numRetained" in errors[0] and f"between 1 and {limit}" in errors[0]
    assert not list(tmp_path.glob("ABC_*"))


@pytest.mark.parametrize("key", ["marDensPValue", "tukeyPValue"])
@pytest.mark.parametrize("value", [0, 201, 500])
def test_fit_pvalue_count_range_check_is_a_config_error(tmp_path, monkeypatch,
                                                        caplog, norm_table,
                                                        unif_table, toy_obs,
                                                        key, value):
    _write_toy_inputs(tmp_path, norm_table, unif_table, toy_obs, rows=300)
    monkeypatch.chdir(tmp_path)
    code = cli.main(["task=estimate", "simName=normal.txt;uniform.txt",
                     "params=1-2", "obsName=obs.txt", "numRetained=200",
                     "maxReadSims=5000", "outputPrefix=ABC",
                     f"{key}={value}"])
    assert code == 1
    errors = _error_lines(caplog)
    assert len(errors) == 1
    assert errors[0].endswith(f"{key} must be between 1 and numRetained "
                              f"(200), got {value}")
    assert not list(tmp_path.glob("ABC_*"))


ROWS = "the rows of the smallest table (300)"
ROWS_LESS_ONE = "the rows of the smallest table less one (299)"


@pytest.mark.parametrize("task, setting, limit", [
    ("estimate", "randomValidation=-1", ROWS_LESS_ONE),
    ("estimate", "randomValidation=300", ROWS_LESS_ONE),
    ("estimate", "randomValidation=5000", ROWS_LESS_ONE),
    ("estimate", "retainedValidation=-1", "numRetained (200)"),
    ("estimate", "retainedValidation=201", "numRetained (200)"),
    ("estimate", "modelChoiceValidation=-1", ROWS),
    ("estimate", "modelChoiceValidation=301", ROWS),
    ("estimate", "modelChoiceValidation=400", ROWS),
    ("findStatsModelChoice", "modelChoiceValidation=-1", ROWS),
    ("findStatsModelChoice", "modelChoiceValidation=0", ROWS),
    ("findStatsModelChoice", "modelChoiceValidation=301", ROWS),
])
def test_validation_count_range_check_is_a_config_error(tmp_path, monkeypatch,
                                                        caplog, norm_table,
                                                        unif_table, toy_obs,
                                                        task, setting, limit):
    _write_toy_inputs(tmp_path, norm_table, unif_table, toy_obs, rows=300)
    monkeypatch.chdir(tmp_path)
    code = cli.main([f"task={task}", "simName=normal.txt;uniform.txt",
                     "params=1-2", "obsName=obs.txt", "numRetained=200",
                     "maxReadSims=5000", "outputPrefix=ABC", setting])
    assert code == 1
    errors = _error_lines(caplog)
    key, value = setting.split("=")
    low = 1 if task == "findStatsModelChoice" else 0
    assert len(errors) == 1
    assert errors[0].endswith(f"{key} must be between {low} and {limit}, "
                              f"got {value}")
    assert not list(tmp_path.glob("ABC_*"))


def test_model_choice_validation_with_one_model_is_a_config_error(
        tmp_path, monkeypatch, caplog, norm_table, unif_table, toy_obs):
    _write_toy_inputs(tmp_path, norm_table, unif_table, toy_obs, rows=300)
    monkeypatch.chdir(tmp_path)
    code = cli.main(["task=estimate", "simName=normal.txt", "params=1-2",
                     "obsName=obs.txt", "numRetained=200", "maxReadSims=5000",
                     "outputPrefix=ABC", "modelChoiceValidation=5"])
    assert code == 1
    errors = _error_lines(caplog)
    assert len(errors) == 1
    assert errors[0].endswith("modelChoiceValidation needs at least two "
                              "models")
    assert not list(tmp_path.glob("ABC_*"))


def test_obs_name_and_estimation_type_are_used_keys(tmp_path, monkeypatch,
                                                    caplog, norm_table,
                                                    unif_table, toy_obs):
    _write_toy_inputs(tmp_path, norm_table, unif_table, toy_obs, rows=300)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "toy.est").write_text(TOY_EST)
    shared = ["obsName=obs.txt", "estimationType=standard", "seed=1"]
    with caplog.at_level(logging.INFO, logger="abckit"):
        assert cli.main(["task=simulate", "estName=toy.est",
                         "simProgram=toy-normal", "numSims=20",
                         *shared]) == 0
        assert cli.main(["task=findStatsModelChoice",
                         "simName=normal.txt;uniform.txt", "params=1-2",
                         "maxReadSims=5000", "numRetained=100",
                         "modelChoiceValidation=2", "maxCorSSFinder=0",
                         "outputPrefix=ABC", *shared]) == 0
    assert not [r for r in caplog.records if "was not used" in r.getMessage()]


def test_joint_grid_file_equals_the_row_list(tmp_path, monkeypatch,
                                             norm_table, unif_table, toy_obs):
    _write_toy_inputs(tmp_path, norm_table, unif_table, toy_obs, rows=500)
    monkeypatch.chdir(tmp_path)
    code = cli.main(["task=estimate", "simName=normal.txt", "params=1-2",
                     "obsName=obs.txt", "numRetained=100", "maxReadSims=5000",
                     "outputPrefix=ABC", "jointPosteriors=sigma2,mu",
                     "jointPosteriorDensityPoints=40"])
    assert code == 0
    table = read_table("normal.txt", "1-2", max_rows=5000)
    r = retain(table, read_observed("obs.txt")[0], count=100)
    joint = adjust.joint_posterior(adjust.glm_fit(r), r,
                                   params=["sigma2", "mu"], n_points=40)
    ref = tmp_path / "ref"
    ref.mkdir()
    path = write_tagged("ABC", OutputTag.JOINT_POSTERIOR,
                        (["sigma2", "mu", "density", "HDI"],
                         list(joint.rows())),
                        model_index=0, obs_index=0, joint_params=[2, 1],
                        directory=ref)
    written = tmp_path / path.name
    assert written.read_bytes() == path.read_bytes()
    assert len(written.read_bytes().splitlines()) == 1 + 40 * 40


# a fresh interpreter: runs the CLI with the arguments given and prints
# its exit code, whether any scipy module was loaded after the import of the
# CLI and after the run, whether the run took a KS tail that needs
# scipy.special.smirnov, and whether scipy.stats was loaded after the run
SCIPY_PROBE = """
import sys
import abckit.cli
from abckit import _kstwo

def scipy_loaded():
    return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)

imported = scipy_loaded()
twice_smirnov, tails = _kstwo._twice_smirnov, []
_kstwo._twice_smirnov = lambda n, x: tails.append(x) or twice_smirnov(n, x)
code = abckit.cli.main(sys.argv[1:])
print(code, imported, scipy_loaded(), bool(tails),
      "scipy.stats" in sys.modules)
"""

ESTIMATE_ARGS = ["task=estimate", "simName=normal.txt;uniform.txt",
                 "params=1-2", "obsName=obs.txt", "numRetained=100",
                 "maxReadSims=5000", "seed=4", "posteriorDensityPoints=40"]


def _run_fresh(directory, script, args):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", script, *args],
                          cwd=directory, env=env, capture_output=True,
                          text=True, timeout=300)


@pytest.mark.parametrize("args", [
    [*ESTIMATE_ARGS, "retainedValidation=20", "randomValidation=20",
     "modelChoiceValidation=2"],
    [*ESTIMATE_ARGS, "plotData=1"],
    ["task=simulate", "estName=toy.est", "simProgram=toy-normal",
     "numSims=50", "seed=1", "outName=sim"],
], ids=["validation", "plotData", "simulate"])
def test_scipy_stats_is_never_loaded(tmp_path, norm_table, unif_table,
                                     toy_obs, args):
    # nor any other scipy module, unless a KS test of the validation lands
    # on a tail computed by scipy.special.smirnov (which the toy's 20
    # replicates do: its HDI KS statistics reach 0.5); scipy.stats never
    _write_toy_inputs(tmp_path, norm_table, unif_table, toy_obs, rows=300)
    (tmp_path / "toy.est").write_text(TOY_EST)
    proc = _run_fresh(tmp_path, SCIPY_PROBE, args)
    fields = proc.stdout.split()
    assert fields[:2] == ["0", "False"], proc.stderr
    _, _, loaded, tails, stats = fields
    assert loaded == tails
    assert stats == "False"
    if "randomValidation=20" not in args:
        assert tails == "False"
    if "plotData=1" in args:
        assert (tmp_path / "ABC_GLM_model1_rejectionDensities_Obs0.txt"
                ).exists()
    elif args[0] == "task=simulate":
        assert read_table(tmp_path / "sim_sampling1.txt").n_rows == 50
    else:
        # every validation ran, and the coverage tests with it
        assert proc.stderr.count(": 0 of 20 replicates failed\n") == 2 + 2
        assert proc.stderr.count(": quantile KS ") == 2 * 2 + 2 * 2
        assert (tmp_path / "ABC_GLM_confusionMatrix.txt").exists()


# a fresh interpreter: the KS survival function at a branch that calls
# scipy.special.smirnov, then a run with the arguments given
LAZY_SCIPY_PROBE = """
import sys
import abckit.cli
from abckit._kstwo import kstwo_sf

special = "scipy.special" in sys.modules
sf = kstwo_sf(0.6, 20)
print(special, repr(sf), "scipy.special" in sys.modules)
print(abckit.cli.main(sys.argv[1:]))
"""

NORM_EST = """[PARAMETERS]
0 mu norm -1 1 0.5 0.3 output
0 sigma2 unif 0.1 4 output
"""


def test_scipy_special_is_loaded_on_first_use(tmp_path, monkeypatch):
    args = ["task=simulate", "estName=norm.est", "simProgram=toy-normal",
            "numSims=50", "seed=1", "outName=sim"]
    for name in ("fresh", "ref"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "norm.est").write_text(NORM_EST)
    proc = _run_fresh(tmp_path / "fresh", LAZY_SCIPY_PROBE, args)
    lines = proc.stdout.splitlines()
    assert lines == ["False {!r} True".format(kstwo_sf(0.6, 20)), "0"], \
        proc.stderr
    # the truncated-normal prior draws what it draws in this process
    monkeypatch.chdir(tmp_path / "ref")
    assert cli.main(args) == 0
    fresh, ref = (tmp_path / name / "sim_sampling1.txt"
                  for name in ("fresh", "ref"))
    assert fresh.read_bytes() == ref.read_bytes()
    mu = read_table(fresh).values[:, 0]
    assert len(mu) == 50 and mu.min() >= -1 and mu.max() <= 1


def test_validation_logs_failed_replicates_and_skipped_coverage(
        tmp_path, monkeypatch, caplog, norm_table, unif_table, toy_obs):
    _write_toy_inputs(tmp_path, norm_table, unif_table, toy_obs, rows=300)
    monkeypatch.chdir(tmp_path)
    caplog.set_level(logging.INFO)
    estimator = validation._glm_estimator
    calls = []

    def model1_every_third_fails(table, pseudo, exclude, settings):
        calls.append(exclude)
        if len(calls) > 20 and len(calls) % 3 == 0:
            raise NumericalError("planted failure")
        return estimator(table, pseudo, exclude, settings)

    monkeypatch.setattr(validation, "_glm_estimator",
                        model1_every_third_fails)
    code = cli.main(["task=estimate", "simName=normal.txt;uniform.txt",
                     "params=1-2", "obsName=obs.txt", "numRetained=100",
                     "maxReadSims=5000", "seed=4", "outputPrefix=ABC",
                     "posteriorDensityPoints=40", "randomValidation=20"])
    assert code == 0
    lines = [r.getMessage() for r in caplog.records
             if r.levelno == logging.INFO and "validation" in r.getMessage()]
    # model 0 fails none and runs its coverage tests, one line a parameter;
    # model 1 fails calls 21, 24, ..., 39
    assert lines[0] == "random validation (model 0): 0 of 20 replicates failed"
    for line, name in zip(lines[1:3], ("mu", "sigma2")):
        assert line.startswith(f"random validation (model 0) {name}: "
                               "quantile KS ")
    assert lines[3:] == ["random validation (model 1): 7 of 20 replicates "
                         "failed; coverage tests skipped: need at least 20 "
                         "successful rows, have 13"]
    args = [r.args[:3] for r in caplog.records
            if r.msg.startswith("%s: %d of %d replicates failed")]
    assert args == [("random validation (model 0)", 0, 20),
                    ("random validation (model 1)", 7, 20)]
    for m, rows in ((0, 20), (1, 13)):
        assert read_table(tmp_path / f"ABC_model{m}_RandomValidation.txt"
                          ).n_rows == rows


def test_num_linear_comb_range_check_is_a_config_error(tmp_path, monkeypatch,
                                                       caplog, norm_table):
    monkeypatch.chdir(tmp_path)
    table = take_rows(norm_table, np.arange(200))
    write_table(tmp_path / "sims.txt", table)
    statselect.fit_pls(table, 1, 5, rng=4).definition.save(
        tmp_path / "lincomb.txt")
    code = cli.main(["task=transform", "linearCombName=lincomb.txt",
                     "input=sims.txt", "output=out.txt", "params=1-2",
                     "numLinearComb=3"])
    assert code == 1
    errors = _error_lines(caplog)
    assert len(errors) == 1
    assert "numLinearComb" in errors[0] and "between 1 and 1" in errors[0]
    assert not (tmp_path / "out.txt").exists()


def test_oversized_joint_grid_is_a_config_error(tmp_path, monkeypatch, caplog,
                                                norm_table, unif_table,
                                                toy_obs):
    _write_toy_inputs(tmp_path, norm_table, unif_table, toy_obs, rows=500)
    monkeypatch.chdir(tmp_path)
    code = cli.main(["task=estimate", "simName=normal.txt", "params=1-2",
                     "obsName=obs.txt", "numRetained=100", "maxReadSims=5000",
                     "jointPosteriors=mu,sigma2",
                     "jointPosteriorDensityPoints=1001"])
    assert code == 1
    errors = _error_lines(caplog)
    assert len(errors) == 1 and "at most 1000 points" in errors[0]


BAD_ESTIMATE_SETTINGS = [
    (["diracPeakWidth=0"], "diracPeakWidth must be positive"),
    (["posteriorDensityPoints=1"], "posteriorDensityPoints must be at least 2"),
    (["jointPosteriors=mu,sigma2", "jointPosteriorDensityPoints=1"],
     "at least 2 points per parameter"),
    (["jointPosteriors=mu,sigma2", "jointPosteriorDensityPoints=2000"],
     "at most 1000 points"),
    (["jointPosteriors=mu"], "2 to 4 different parameters"),
    (["jointPosteriors=mu,foo"], "2 to 4 different parameters"),
    (["jointPosteriors=mu,mu"], "2 to 4 different parameters"),
    (["pruneCorrelatedStats=1", "maxCor=2"], "maxCor must be in (0, 1]"),
]


@pytest.mark.parametrize("settings, message", BAD_ESTIMATE_SETTINGS,
                         ids=[" ".join(s) for s, _ in BAD_ESTIMATE_SETTINGS])
def test_estimate_settings_are_checked_before_any_output(tmp_path, monkeypatch,
                                                         caplog, norm_table,
                                                         unif_table, toy_obs,
                                                         settings, message):
    _write_toy_inputs(tmp_path, norm_table, unif_table, toy_obs, rows=300)
    monkeypatch.chdir(tmp_path)
    code = cli.main(["task=estimate", "simName=normal.txt;uniform.txt",
                     "params=1-2", "obsName=obs.txt", "numRetained=100",
                     "maxReadSims=5000", "outputPrefix=ABC", "writeRetained=1",
                     *settings])
    assert code == 1
    errors = _error_lines(caplog)
    assert len(errors) == 1 and message in errors[0]
    assert not list(tmp_path.glob("ABC_*"))


def test_two_models_unstandardized_keep_raw_distances(tmp_path, monkeypatch,
                                                      norm_table, unif_table,
                                                      toy_obs):
    # standardizeStats=0 measures the distances on the raw statistics,
    # with two models as with one
    _write_toy_inputs(tmp_path, norm_table, unif_table, toy_obs, rows=500)
    monkeypatch.chdir(tmp_path)
    code = cli.main(["task=estimate", "simName=normal.txt;uniform.txt",
                     "params=1-2", "obsName=obs.txt", "numRetained=50",
                     "maxReadSims=5000", "outputPrefix=ABC", "writeRetained=1",
                     "standardizeStats=0"])
    assert code == 0
    for m in (0, 1):
        best = read_table(tmp_path / f"ABC_model{m}_BestSimsParamStats_Obs0.txt",
                          "1-2")
        stats = best.stat_matrix(toy_obs.names)
        raw = np.sqrt(((stats - toy_obs.values) ** 2).sum(axis=1))
        np.testing.assert_allclose(_column(best, "distance"), raw, rtol=1e-4)


def test_model_choice_validation_honours_standardize_stats(
        tmp_path, monkeypatch, norm_table, unif_table, toy_obs):
    # the files equal the library call with the same scale and seed; only
    # model-choice validation is asked for, so it is the first to draw
    _write_toy_inputs(tmp_path, norm_table, unif_table, toy_obs, rows=500)
    monkeypatch.chdir(tmp_path)
    tables = [read_table(name, "1-2") for name in ("normal.txt", "uniform.txt")]
    written = []
    for flag in (0, 1):
        assert cli.main(["task=estimate", "simName=normal.txt;uniform.txt",
                         "params=1-2", "obsName=obs.txt", "numRetained=50",
                         "maxReadSims=5000", f"outputPrefix=S{flag}",
                         f"standardizeStats={flag}",
                         "modelChoiceValidation=15", "seed=3"]) == 0
        settings = validation.GlmSettings(50, standardize=bool(flag))
        cm, raw = validation.model_choice_validate(tables, 15, settings,
                                                   np.random.default_rng(3))
        for tag, payload in ((OutputTag.CONFUSION_MATRIX,
                              validation.confusion_table(cm)),
                             (OutputTag.MODEL_CHOICE_VALIDATION,
                              validation.raw_choice_table(raw))):
            want = write_tagged(f"lib{flag}", tag, payload).read_bytes()
            assert (tmp_path / tagged_filename(f"S{flag}", tag)
                    ).read_bytes() == want
        written.append(want)
    assert written[0] != written[1]


TOY_EST_BAD_VARIANCE = """[PARAMETERS]
0 mu unif -1 1 output
0 sigma2 unif -1 1 output
"""


@pytest.mark.parametrize("program", ["toy-normal", "toy-uniform"])
@pytest.mark.parametrize("sampler", [
    [],
    ["samplerType=MCMC", "numCaliSims=200", "obsName=obs.txt"],
])
def test_toy_variance_below_zero_is_a_simulator_failure(tmp_path, monkeypatch,
                                                        caplog, toy_obs,
                                                        sampler, program):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "toy.est").write_text(TOY_EST_BAD_VARIANCE)
    write_observed(tmp_path / "obs.txt", toy_obs)
    code = cli.main(["task=simulate", "estName=toy.est",
                     f"simProgram={program}", "numSims=100", "seed=1",
                     *sampler])
    assert code == 4
    errors = _error_lines(caplog)
    assert len(errors) == 1
    assert "simulator failure: toy model variance must be positive, got -" \
        in errors[0]
    assert not list(tmp_path.glob("*_sampling1.txt"))


def test_non_finite_observed_statistic_exits_2(tmp_path, monkeypatch, caplog,
                                               norm_table, unif_table,
                                               toy_obs):
    _write_toy_inputs(tmp_path, norm_table, unif_table, toy_obs, rows=300)
    values = [format_value(v) for v in toy_obs.values]
    values[toy_obs.names.index("median")] = "nan"
    (tmp_path / "obs.txt").write_text(
        "\t".join(toy_obs.names) + "\n" + "\t".join(values) + "\n")
    monkeypatch.chdir(tmp_path)
    code = cli.main(["task=estimate", "simName=normal.txt;uniform.txt",
                     "params=1-2", "obsName=obs.txt", "numRetained=100",
                     "maxReadSims=5000", "outputPrefix=ABC"])
    assert code == 2
    errors = _error_lines(caplog)
    assert len(errors) == 1 and "not finite: median" in errors[0]
    assert not list(tmp_path.glob("ABC_*"))


def test_threads_is_an_unknown_key(tmp_path, monkeypatch, caplog):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "toy.est").write_text(TOY_EST)
    with caplog.at_level(logging.INFO, logger="abckit"):
        code = cli.main(["task=simulate", "estName=toy.est",
                         "simProgram=toy-normal", "numSims=20", "seed=1",
                         "threads=4"])
    assert code == 0
    warnings = [r.getMessage() for r in caplog.records
                if r.levelno == logging.WARNING]
    assert warnings == ["setting threads='4' was not used (unknown key)"]


# External simulators for the exec-args, exec-files and easyabc bindings.
# Each writes the parameters it is given back as its statistics and logs its
# call number and arguments.  On the call numbers listed in the file
# "fail" it exits 1, on those in "silent" it exits 0 without writing its
# statistics, on those in "empty" it writes an empty statistics file, and
# on those in "nan" it writes "nan" for mu.  They are POSIX sh scripts:
# every simulation starts a process, and a Python interpreter takes about
# 0.1 s to start on a 2-vCPU VM, which would make the three MCMC runs (140
# simulations each) take most of a minute.
SIM_PREAMBLE = """#!/bin/sh
n=$(( $(cat '{state}/calls' 2>/dev/null || echo 0) + 1 ))
echo "$n" > '{state}/calls'
"""
SIM_FAIL = """echo "$n $mu $sigma2" >> '{state}/log'
if grep -qx "$n" '{state}/fail' 2>/dev/null; then
    echo "call $n failed" >&2
    exit 1
fi
if grep -qx "$n" '{state}/silent' 2>/dev/null; then
    exit 0
fi
if grep -qx "$n" '{state}/empty' 2>/dev/null; then
    : > output; : > summary_stats-temp.txt
    exit 0
fi
if grep -qx "$n" '{state}/nan' 2>/dev/null; then
    mu=nan
fi
"""
SIMULATORS = {
    # simArgs="mu sigma2": the values come as arguments
    "exec-args": SIM_PREAMBLE + 'mu=$1; sigma2=$2\n' + SIM_FAIL
    + "printf 's1 s2\\n%s %s\\n' \"$mu\" \"$sigma2\" > summary_stats-temp.txt\n",
    # the rendered template holds the values; its name is the argument
    "exec-files": SIM_PREAMBLE + 'set -- $(cat "$1"); mu=$1; sigma2=$2\n'
    + SIM_FAIL
    + "printf 's1 s2\\n%s %s\\n' \"$mu\" \"$sigma2\" > summary_stats-temp.txt\n",
    # easyabc: one value per line in "input", statistics only in "output"
    "easyabc": SIM_PREAMBLE + 'set -- $(cat input); mu=$1; sigma2=$2\n'
    + SIM_FAIL + "echo \"$mu $sigma2\" > output\n",
}
BINDING_KEYS = {
    "exec-args": ["simArgs=mu sigma2"],
    "exec-files": ["simInputName=input.tpl", "simArgs=SIMINPUTNAME"],
    "easyabc": [],
}


def _external_simulator(directory, mode, fail=(), kind="fail"):
    """Write the simulator of ``mode`` (and its template) into
    ``directory``, failing as ``kind`` ("fail", "silent", "empty" or
    "nan") on the calls ``fail``; returns the CLI settings that select
    it."""
    sim = directory / "sim.sh"
    sim.write_text(SIMULATORS[mode].format(state=directory))
    sim.chmod(0o755)
    (directory / "input.tpl").write_text("mu\nsigma2\n")
    (directory / kind).write_text("".join(f"{n}\n" for n in fail))
    (directory / "toy.est").write_text(TOY_EST)
    return ["task=simulate", "estName=toy.est", f"simProgram={sim}",
            *BINDING_KEYS[mode]]


def _simulator_calls(directory):
    """(call number, mu, sigma2) of every simulation started."""
    rows = [line.split() for line in
            (directory / "log").read_text().splitlines()]
    return [(int(n), float(mu), float(s2)) for n, mu, s2 in rows]


def _retried_then_skipped(directory, monkeypatch, caplog, mode, kind):
    """Run five draws with calls 2, 5 and 6 failing as ``kind``: call 2's
    retry (call 3) succeeds, the fourth draw fails twice and is skipped.
    Returns the one warning."""
    monkeypatch.chdir(directory)
    settings = _external_simulator(directory, mode, (2, 5, 6), kind)
    with caplog.at_level(logging.INFO, logger="abckit"):
        code = cli.main(settings + ["numSims=5", "seed=2", "outName=ext"])
    assert code == 0
    calls = _simulator_calls(directory)
    assert [n for n, *_ in calls] == list(range(1, 8))
    assert calls[1][1:] == calls[2][1:] and calls[4][1:] == calls[5][1:]
    assert len({c[1:] for c in calls}) == 5
    # the table holds the successful calls' values, in order, written
    # with 6 significant digits: no row carries another draw's statistics
    table = read_table(directory / "ext_sampling1.txt", "1-2")
    want = np.array([c[1:] for c in calls if c[0] in (1, 3, 4, 7)])
    np.testing.assert_allclose(table.params, want, rtol=1e-5)
    np.testing.assert_allclose(table.stats, want, rtol=1e-5)
    names = ("stat_1", "stat_2") if mode == "easyabc" else ("s1", "s2")
    assert table.stat_names == names
    warnings = [r.getMessage() for r in caplog.records
                if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert warnings[0].startswith("simulation failed twice, skipping draw: ")
    assert any(r.getMessage() == "performed 4 simulation(s), 1 failure(s)"
               for r in caplog.records)
    return warnings[0]


@pytest.mark.parametrize("mode", sorted(SIMULATORS))
def test_external_standard_sampler_retries_then_skips(tmp_path, monkeypatch,
                                                      caplog, mode):
    warning = _retried_then_skipped(tmp_path, monkeypatch, caplog, mode,
                                    "fail")
    assert warning.endswith("exited with 1: call 6 failed")


@pytest.mark.parametrize("kind, message", [
    ("silent", "statistics file {stats} was not produced"),
    ("empty", "statistics file {stats} has no value line"),
    ("nan", "simulator '{sim}' produced non-finite statistics"),
], ids=["silent", "empty", "nan"])
@pytest.mark.parametrize("mode", sorted(SIMULATORS))
def test_silent_or_non_finite_simulation_is_retried_then_skipped(
        tmp_path, monkeypatch, caplog, mode, kind, message):
    # a simulator that exits 0 without writing its statistics file must not
    # be credited with the previous call's file, and an empty file or a
    # non-finite statistic fails the simulation as an exit code would
    warning = _retried_then_skipped(tmp_path, monkeypatch, caplog, mode,
                                    kind)
    stats = "output" if mode == "easyabc" else "summary_stats-temp.txt"
    assert warning.endswith(message.format(stats=stats,
                                           sim=tmp_path / "sim.sh"))


@pytest.mark.parametrize("mode", sorted(SIMULATORS))
def test_external_mcmc_sampler(tmp_path, monkeypatch, caplog, mode):
    monkeypatch.chdir(tmp_path)
    settings = _external_simulator(tmp_path, mode)
    names = ("stat_1", "stat_2") if mode == "easyabc" else ("s1", "s2")
    write_observed(tmp_path / "obs.txt",
                   ObservedStats(names, np.array([0.2, 2.0])))
    with caplog.at_level(logging.INFO, logger="abckit"):
        code = cli.main(settings + ["samplerType=MCMC", "numSims=40",
                                    "numCaliSims=100", "obsName=obs.txt",
                                    "seed=3", "outName=chain"])
    assert code == 0
    assert len(_simulator_calls(tmp_path)) == 140
    chain = read_table(tmp_path / "chain_sampling1.txt", "1-2")
    assert chain.names == ("mu", "sigma2") + names + ("distance",)
    assert chain.n_rows == 40 - 4
    np.testing.assert_allclose(chain.values[:, 2:4], chain.params, rtol=1e-5)
    assert np.all(chain.values[:, -1] > 0)
    assert np.all((chain.params >= [-1, 0.1]) & (chain.params <= [1, 4]))
    chains = [r.args for r in caplog.records
              if r.msg.startswith("chain of %d steps")]
    assert len(chains) == 1 and chains[0][0] == 40 and chains[0][1] > 0


def test_external_mcmc_non_finite_simulation_rejects_the_proposal(
        tmp_path, monkeypatch, caplog):
    # calls 1-100 calibrate; call 110 is step 10 and call 111 its retry
    monkeypatch.chdir(tmp_path)
    settings = _external_simulator(tmp_path, "exec-args", (110, 111), "nan")
    write_observed(tmp_path / "obs.txt",
                   ObservedStats(("s1", "s2"), np.array([0.2, 2.0])))
    with caplog.at_level(logging.INFO, logger="abckit"):
        code = cli.main(settings + ["samplerType=MCMC", "numSims=40",
                                    "numCaliSims=100", "obsName=obs.txt",
                                    "seed=3", "outName=chain"])
    assert code == 0
    calls = _simulator_calls(tmp_path)
    assert len(calls) == 141 and calls[109][1:] == calls[110][1:]
    warnings = [r.getMessage() for r in caplog.records
                if r.levelno == logging.WARNING]
    assert warnings == [
        "simulation failed twice, rejecting the proposal: simulator "
        f"'{tmp_path / 'sim.sh'}' produced non-finite statistics"]
    # the rejected step 10 repeats the state of step 9 (rows 4 and 5 after
    # the burn-in of 4 records)
    chain = read_table(tmp_path / "chain_sampling1.txt", "1-2")
    assert chain.n_rows == 36 and np.isfinite(chain.values).all()
    np.testing.assert_array_equal(chain.values[5], chain.values[4])


def renaming_model(after):
    """A builtin whose second statistic is named "t" on its first ``after``
    calls and "u" from then on; with ``batch``, its batch function makes
    every row's statistics non-finite, so each row goes to the per-draw
    retry."""
    calls = []

    def model(draw, rng):
        calls.append(1)
        second = "t" if len(calls) <= after else "u"
        return ("s", second), [draw["mu"] + rng.normal(), draw["sigma2"]]

    def batch(names, values, rng):
        return ("s", "t"), np.full((len(values), 2), math.nan)

    model.batch = batch
    return model


@pytest.mark.parametrize("sampler, after, batch", [
    ([], 10, False),
    ([], 10, True),
    (["samplerType=MCMC", "numCaliSims=100", "obsName=obs.txt"], 105, False),
], ids=["standard", "standard-batch", "mcmc"])
def test_statistics_header_change_exits_4(tmp_path, monkeypatch, caplog,
                                          sampler, after, batch):
    model = renaming_model(after)
    if not batch:
        del model.batch
    monkeypatch.setitem(orchestrate.BUILTIN_MODELS, "renaming", model)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "toy.est").write_text(TOY_EST)
    write_observed(tmp_path / "obs.txt",
                   ObservedStats(("s", "t"), np.array([0.2, 2.0])))
    code = cli.main(["task=simulate", "estName=toy.est",
                     "simProgram=renaming", "numSims=20", "seed=1",
                     *sampler])
    assert code == 4
    assert _error_lines(caplog) == [
        "simulator failure: statistics header changed between simulations "
        "(('s', 't') -> ('s', 'u'))"]
    assert not list(tmp_path.glob("*_sampling1.txt"))


@pytest.mark.parametrize("mode", ["builtin", "easyabc"])
def test_post_processor_keys_are_unused_without_an_exec_binding(
        tmp_path, monkeypatch, caplog, mode):
    monkeypatch.chdir(tmp_path)
    if mode == "builtin":
        (tmp_path / "toy.est").write_text(TOY_EST)
        settings = ["task=simulate", "estName=toy.est",
                    "simProgram=toy-normal"]
    else:
        settings = _external_simulator(tmp_path, mode)
    with caplog.at_level(logging.INFO, logger="abckit"):
        code = cli.main(settings + ["sumStatProgram=/bin/false",
                                    "sumStatName=foo.txt", "numSims=5",
                                    "seed=1"])
    assert code == 0
    warnings = [r.getMessage() for r in caplog.records
                if r.levelno == logging.WARNING]
    assert warnings == ["setting sumStatName='foo.txt' was not used",
                        "setting sumStatProgram='/bin/false' was not used"]
