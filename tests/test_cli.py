import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from abckit import (adjust, cli, forkmap, modelchoice, orchestrate,
                    statselect, validation)
from abckit._kstwo import kstwo_sf
from abckit.errors import NumericalError
from abckit.rejection import retain
from abckit.tableio import (ObservedStats, OutputTag, SimulationTable,
                            format_value,
                            read_observed, read_table, tagged_filename,
                            write_observed, write_table, write_tagged)

from conftest import take_rows
from test_forkmap import Handshake


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


def test_marginal_density_pvalue_alone_needs_no_ten_rows(
        tmp_path, norm_table, unif_table, toy_obs):
    # the 10-row rule is the depth test's: a run that asks only for the
    # marginal density test runs on fewer retained rows
    _write_toy_inputs(tmp_path, norm_table, unif_table, toy_obs, rows=200)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "abckit.cli", "task=estimate",
         "simName=normal.txt", "params=1-2", "obsName=obs.txt",
         "numRetained=8", "maxReadSims=200", "marDensPValue=5", "seed=1",
         "outputPrefix=ABC"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    fit = [line for line in proc.stderr.splitlines() if " fit: " in line]
    assert len(fit) == 1
    assert "fit: marginal density " in fit[0]
    assert "Tukey depth" not in fit[0]


@pytest.mark.parametrize("given, run, shown", [
    ("marDensPValue", "marginal_density_pvalue", "marginal density"),
    ("tukeyPValue", "tukey_pvalue", "Tukey depth"),
])
def test_each_fit_test_runs_on_its_own_setting_only(
        tmp_path, monkeypatch, caplog, norm_table, unif_table, toy_obs,
        given, run, shown):
    _write_toy_inputs(tmp_path, norm_table, unif_table, toy_obs, rows=300)
    monkeypatch.chdir(tmp_path)
    caplog.set_level(logging.INFO)
    calls = {"marginal_density_pvalue": [], "tukey_pvalue": []}
    for name in calls:
        def spy(*args, _run=getattr(validation, name), _name=name, **kwargs):
            calls[_name].append(args[2])      # the count of rows checked
            return _run(*args, **kwargs)
        monkeypatch.setattr(validation, name, spy)
    code = cli.main(["task=estimate", "simName=normal.txt;uniform.txt",
                     "params=1-2", "obsName=obs.txt", "numRetained=30",
                     "maxReadSims=300", "seed=2", "outputPrefix=ABC",
                     f"{given}=20"])
    assert code == 0
    # once per model, on the count its setting gives; the other test never
    assert calls == {**dict.fromkeys(calls, []), run: [20, 20]}
    fit = [r.getMessage() for r in caplog.records if " fit: " in r.msg]
    assert len(fit) == 2
    assert all(shown in line and line.count("(P=") == 1 for line in fit)


def test_fit_record_with_both_tests_keeps_its_format_and_args(
        tmp_path, monkeypatch, caplog, norm_table, unif_table, toy_obs):
    # the record's format string and args are read by tools that parse
    # the log; both tests given, they are the one line of both results
    _write_toy_inputs(tmp_path, norm_table, unif_table, toy_obs, rows=300)
    monkeypatch.chdir(tmp_path)
    caplog.set_level(logging.INFO)
    results = {"marginal_density_pvalue": [], "tukey_pvalue": []}
    for name in results:
        def spy(*args, _run=getattr(validation, name), _name=name, **kwargs):
            out = _run(*args, **kwargs)
            results[_name].append(out)
            return out
        monkeypatch.setattr(validation, name, spy)
    code = cli.main(["task=estimate", "simName=normal.txt;uniform.txt",
                     "params=1-2", "obsName=obs.txt", "numRetained=30",
                     "maxReadSims=300", "seed=2", "outputPrefix=ABC",
                     "marDensPValue=20", "tukeyPValue=25"])
    assert code == 0
    fit = [r for r in caplog.records if " fit: " in r.msg]
    assert [r.msg for r in fit] == 2 * ["obs %d model %d fit: marginal "
                                        "density %.6g (P=%.4g), Tukey depth "
                                        "%.4g (P=%.4g)"]
    for m, record in enumerate(fit):
        p_marginal, log_density = results["marginal_density_pvalue"][m]
        p_tukey, depth = results["tukey_pvalue"][m]
        assert record.args == (0, m, adjust.safe_exp(log_density),
                               p_marginal, depth, p_tukey)


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


def _write_observation_of(path, obs, names):
    write_observed(path, ObservedStats(names, obs.vector(names)))


def test_every_retention_reads_the_observed_statistics(
        tmp_path, monkeypatch, norm_table, unif_table, toy_obs):
    # the estimate and all three validations retain on the 3 statistics
    # the observation names, not on the 8 of the tables
    _write_toy_inputs(tmp_path, norm_table, unif_table, toy_obs, rows=300)
    names = ("var", "mean", "Q3")
    _write_observation_of(tmp_path / "obs.txt", toy_obs, names)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(forkmap, "cpu_count", lambda: 1)
    seen = []

    def spy(table, obs, *args, **kwargs):
        seen.append(frozenset(obs.names))
        return retain(table, obs, *args, **kwargs)

    monkeypatch.setattr(validation, "retain", spy)
    monkeypatch.setattr(modelchoice, "retain", spy)
    code = cli.main(["task=estimate", "simName=normal.txt;uniform.txt",
                     "params=1-2", "obsName=obs.txt", "numRetained=100",
                     "maxReadSims=5000", "seed=2", "outputPrefix=ABC",
                     "randomValidation=20", "retainedValidation=20",
                     "modelChoiceValidation=5"])
    assert code == 0
    # per model: the estimate, the retained-validation pool and 40
    # replicates; per model-choice query, one retention per model
    assert len(seen) == 2 * (1 + 1 + 40) + 2 * 5 * 2
    assert set(seen) == {frozenset(names)}


def test_pruning_walks_the_observed_statistics_only(tmp_path, monkeypatch,
                                                    caplog, norm_table,
                                                    unif_table, toy_obs):
    # median correlates with mean beyond 0.9, but the run does not use mean
    _write_toy_inputs(tmp_path, norm_table, unif_table, toy_obs)
    _write_observation_of(tmp_path / "obs.txt", toy_obs, ("var", "median"))
    monkeypatch.chdir(tmp_path)
    code = cli.main(["task=estimate", "simName=normal.txt;uniform.txt",
                     "params=1-2", "obsName=obs.txt", "numRetained=200",
                     "maxReadSims=5000", "seed=2", "outputPrefix=ABC",
                     "pruneCorrelatedStats=1", "maxCor=0.9",
                     "writeRetained=1"])
    assert code == 0
    assert "pruned" not in caplog.text
    for m in (0, 1):
        best = read_table(tmp_path / f"ABC_model{m}_BestSimsParamStats_Obs0.txt")
        assert best.names == ("mu", "sigma2", "var", "median", "distance")


def test_model_without_an_observed_statistic_is_an_input_error(
        tmp_path, monkeypatch, caplog, norm_table, unif_table, toy_obs):
    _write_toy_inputs(tmp_path, norm_table, unif_table, toy_obs, rows=300)
    short = [n for n in unif_table.stat_names if n != "Q1"]
    write_table(tmp_path / "uniform.txt",
                take_rows(unif_table, range(300)).with_stats(short))
    monkeypatch.chdir(tmp_path)
    code = cli.main(["task=estimate", "simName=normal.txt;uniform.txt",
                     "params=1-2", "obsName=obs.txt", "numRetained=100",
                     "maxReadSims=5000", "seed=2", "outputPrefix=ABC"])
    assert code == 2
    errors = _error_lines(caplog)
    assert len(errors) == 1
    assert errors[0].endswith("uniform.txt: statistics not in table: Q1")
    assert not list(tmp_path.glob("ABC_*"))


def test_extra_statistic_of_a_model_is_not_used(tmp_path, monkeypatch,
                                                norm_table, unif_table,
                                                toy_obs):
    # the same bytes as a run on the table without that column
    _write_toy_inputs(tmp_path, norm_table, unif_table, toy_obs, rows=300)
    table = read_table(tmp_path / "uniform.txt", "1-2")
    extra = np.random.default_rng(5).normal(size=(table.n_rows, 1))
    write_table(tmp_path / "wide.txt", SimulationTable(
        table.names + ("extra",), np.hstack([table.values, extra]),
        table.param_idx, table.stat_idx + (len(table.names),)))
    monkeypatch.chdir(tmp_path)
    written = []
    for second in ("uniform", "wide"):
        (tmp_path / second).mkdir()
        code = cli.main(["task=estimate", f"simName=normal.txt;{second}.txt",
                         "params=1-2", "obsName=obs.txt", "numRetained=100",
                         "maxReadSims=5000", "seed=2",
                         f"outputPrefix={second}/ABC", "writeRetained=1",
                         "randomValidation=5", "modelChoiceValidation=3"])
        assert code == 0
        written.append({p.name: p.read_bytes()
                        for p in sorted((tmp_path / second).iterdir())})
    assert len(written[0]) > 10 and written[0] == written[1]


def test_model_tables_share_one_statistic_order(tmp_path, monkeypatch,
                                               norm_table, unif_table,
                                               toy_obs):
    # a model table with its statistic columns in another order is narrowed
    # to the first table's order, and the run writes the same bytes
    _write_toy_inputs(tmp_path, norm_table, unif_table, toy_obs, rows=300)
    table = read_table(tmp_path / "uniform.txt", "1-2")
    write_table(tmp_path / "reversed.txt",
                table.with_stats(table.stat_names[::-1]))
    monkeypatch.chdir(tmp_path)
    cfg = cli.Config()
    cfg.load_args(["simName=normal.txt;reversed.txt", "params=1-2",
                   "maxReadSims=5000"])
    _, tables = cli._split_models(cfg, obs_path="obs.txt")
    assert tables[1].stat_names == tables[0].stat_names
    written = []
    for second in ("uniform", "reversed"):
        (tmp_path / second).mkdir()
        code = cli.main(["task=estimate", f"simName=normal.txt;{second}.txt",
                         "params=1-2", "obsName=obs.txt", "numRetained=100",
                         "maxReadSims=5000", "seed=2",
                         f"outputPrefix={second}/ABC", "writeRetained=1",
                         "retainedValidation=5", "randomValidation=5",
                         "modelChoiceValidation=3"])
        assert code == 0
        written.append({p.name: p.read_bytes()
                        for p in sorted((tmp_path / second).iterdir())})
    assert len(written[0]) > 10 and written[0] == written[1]


def test_observation_column_order_changes_no_output(tmp_path, monkeypatch,
                                                   caplog, norm_table,
                                                   unif_table, toy_obs):
    # the run reads its statistics in the tables' column order: an
    # observation file that lists them in another order writes the same
    # bytes and logs the same lines, settings aside
    _write_toy_inputs(tmp_path, norm_table, unif_table, toy_obs)
    names = [toy_obs.names[j] for j in (5, 1, 7, 0, 3, 6, 2, 4)]
    _write_observation_of(tmp_path / "permuted.txt", toy_obs, names)
    monkeypatch.chdir(tmp_path)
    caplog.set_level(logging.INFO)
    written, logged = [], []
    for obs in ("obs", "permuted"):
        (tmp_path / obs).mkdir()
        caplog.clear()
        code = cli.main(["task=estimate", "simName=normal.txt;uniform.txt",
                         "params=1-2", f"obsName={obs}.txt",
                         "numRetained=200", "maxReadSims=5000", "seed=1",
                         f"outputPrefix={obs}/ABC", "writeRetained=1",
                         "marDensPValue=50", "tukeyPValue=50",
                         "retainedValidation=5", "randomValidation=5",
                         "modelChoiceValidation=3",
                         "jointPosteriors=mu,sigma2",
                         "jointPosteriorDensityPoints=20"])
        assert code == 0
        written.append({p.name: p.read_bytes()
                        for p in sorted((tmp_path / obs).iterdir())})
        logged.append([r.getMessage() for r in caplog.records
                       if not r.getMessage().startswith("setting ")])
    assert len(written[0]) == 15 and written[0] == written[1]
    assert any(" fit: marginal density " in m for m in logged[0])
    assert logged[0] == logged[1]


def _write_two_valued_inputs():
    """Tables ``a.txt`` and ``b.txt`` of 300 rows with the parameters ``t``
    and a two-valued ``K``, and an observation ``obs.txt``."""
    rng = np.random.default_rng(0)
    for m, name in enumerate(("a.txt", "b.txt")):
        t = rng.uniform(size=300)
        write_table(name, SimulationTable(
            ("t", "K", "s0", "s1"),
            np.column_stack([t, rng.integers(0, 2, size=300),
                             t + rng.normal(size=300),
                             0.5 * m + rng.normal(size=300)]),
            (0, 1), (2, 3)))
    write_observed("obs.txt", ObservedStats(("s0", "s1"), np.array([1.0, 0.5])))


def test_failed_model_choice_query_is_left_out(tmp_path, monkeypatch, caplog):
    # a two-valued parameter is constant among the few rows some queries
    # retain: those queries warn and are left out, and the run goes on
    monkeypatch.chdir(tmp_path)
    caplog.set_level(logging.INFO)
    _write_two_valued_inputs()
    for task in (["task=findStatsModelChoice"],
                 ["task=estimate", "obsName=obs.txt"]):
        caplog.clear()
        code = cli.main(task + ["simName=a.txt;b.txt", "params=1-2",
                                "maxReadSims=300", "numRetained=4",
                                "modelChoiceValidation=10", "seed=1",
                                "outputPrefix=K"])
        assert code == 0
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelno == logging.WARNING]
        assert warnings
        assert set(warnings) == {"model choice validation query failed: "
                                 "parameter(s) constant among retained "
                                 "simulations: K"}
    # the estimate's validation counts its failed queries, and its files
    # hold the others
    failed = [r.args for r in caplog.records
              if r.msg == "model choice validation: %d of %d queries failed"]
    assert failed == [(len(warnings), 20)]
    raw = read_table(tmp_path / "K_modelChoiceValidation.txt")
    assert raw.n_rows == 20 - len(warnings)
    confusion = read_table(tmp_path / "K_confusionMatrix.txt")
    assert confusion.values[:, 1:3].sum() == raw.n_rows


@pytest.mark.parametrize("task", [
    ["task=findStatsModelChoice"],
    ["task=estimate", "obsName=obs.txt"],
], ids=["findStatsModelChoice", "estimate"])
def test_num_retained_must_exceed_the_parameters_plus_one(
        tmp_path, monkeypatch, caplog, task):
    # ABC-GLM fits 2 parameters and an intercept: 3 retained rows are a
    # configuration error, found once the tables are read and before any
    # query runs; 4 are enough
    monkeypatch.chdir(tmp_path)
    _write_two_valued_inputs()
    monkeypatch.setattr(forkmap, "cpu_count", lambda: 1)
    queries = []

    def counting(*args, **kwargs):
        queries.append(args[1])
        return modelchoice.glm_model_choice(*args, **kwargs)

    monkeypatch.setattr(cli, "glm_model_choice", counting)
    monkeypatch.setattr(validation, "glm_model_choice", counting)
    args = task + ["simName=a.txt;b.txt", "params=1-2", "maxReadSims=300",
                   "modelChoiceValidation=10", "seed=1", "outputPrefix=K"]
    assert cli.main(args + ["numRetained=3"]) == 1
    assert _error_lines(caplog) == [
        "configuration error: numRetained must be at least the most "
        "parameters of any model + 2 (4), got 3"]
    assert not any(r.exc_info or r.exc_text for r in caplog.records)
    assert not list(tmp_path.glob("K_*"))
    assert queries == []
    assert cli.main(args + ["numRetained=4"]) == 0
    assert queries and list(tmp_path.glob("K_*"))


def test_estimate_writes_and_logs_alike_at_1_and_2_cpus(
        tmp_path, monkeypatch, caplog, norm_table, unif_table, toy_obs):
    # at 2 CPUs a child runs validation items (the handshake makes it run
    # a model-choice query), and the files and log records are those of 1
    _write_toy_inputs(tmp_path, norm_table, unif_table, toy_obs, rows=500)
    monkeypatch.chdir(tmp_path)
    caplog.set_level(logging.INFO)
    choose = validation.glm_model_choice
    written, logged = [], []
    for cpus in (1, 2):
        monkeypatch.setattr(forkmap, "cpu_count", lambda: cpus)
        if cpus == 2:
            handshake = Handshake()

            def glm_model_choice(*args):
                handshake.in_child()
                return choose(*args)

            monkeypatch.setattr(validation, "glm_model_choice",
                                glm_model_choice)
        (tmp_path / f"cpu{cpus}").mkdir()
        caplog.clear()
        code = cli.main(["task=estimate", "simName=normal.txt;uniform.txt",
                         "params=1-2", "obsName=obs.txt", "numRetained=100",
                         "maxReadSims=5000", "seed=4",
                         f"outputPrefix=cpu{cpus}/ABC", "writeRetained=1",
                         "plotData=1", "posteriorDensityPoints=40",
                         "jointPosteriors=mu,sigma2",
                         "jointPosteriorDensityPoints=20",
                         "marDensPValue=50", "tukeyPValue=50",
                         "retainedValidation=6", "randomValidation=6",
                         "modelChoiceValidation=4"])
        assert code == 0
        written.append({p.name: p.read_bytes()
                        for p in sorted((tmp_path / f"cpu{cpus}").iterdir())})
        logged.append([(r.name, r.levelno, r.getMessage())
                       for r in caplog.records
                       if " outputPrefix = " not in r.getMessage()])
    assert len(written[0]) == 17 and written[0] == written[1]
    assert any(" fit: marginal density " in m for _, _, m in logged[0])
    assert logged[0] == logged[1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_mcmc_takes_exactly_one_observation(tmp_path, monkeypatch, caplog,
                                            toy_obs):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "toy.est").write_text(TOY_EST)
    write_observed(tmp_path / "obs.txt", toy_obs)
    with open(tmp_path / "obs.txt", "a") as fh:
        fh.write("\t".join(format_value(v) for v in toy_obs.values) + "\n")

    def no_chain(*args, **kwargs):
        raise AssertionError("the chain ran")

    monkeypatch.setattr(cli, "run_mcmc", no_chain)
    code = cli.main(["task=simulate", "samplerType=MCMC", "estName=toy.est",
                     "simProgram=toy-normal", "numSims=100",
                     "numCaliSims=200", "obsName=obs.txt", "seed=1"])
    assert code == 1
    errors = [r.getMessage() for r in caplog.records
              if r.levelno == logging.ERROR]
    assert errors == ["configuration error: the MCMC sampler takes exactly "
                      "one observation, obs.txt holds 2 value lines"]
    assert not list(tmp_path.glob("*_sampling1.txt"))


def test_narrowed_table_shares_the_values_read(norm_table):
    table = take_rows(norm_table, range(50))
    names = table.stat_names[::-1][:3]
    got = cli._narrowed("sims.txt", table, names)
    assert np.shares_memory(got.values, table.values)
    want = table.with_stats(names)
    assert got.param_names == want.param_names
    assert got.stat_names == want.stat_names
    np.testing.assert_array_equal(got.params, want.params)
    np.testing.assert_array_equal(got.stats, want.stats)


def test_pruned_tables_share_the_values_read(tmp_path, monkeypatch,
                                             norm_table, unif_table, toy_obs):
    _write_toy_inputs(tmp_path, norm_table, unif_table, toy_obs, rows=300)
    monkeypatch.chdir(tmp_path)
    read = []

    def spy(*args, **kwargs):
        read.append(read_table(*args, **kwargs))
        return read[-1]

    monkeypatch.setattr(cli, "read_table", spy)
    cfg = cli.Config()
    cfg.load_args(["simName=normal.txt;uniform.txt", "params=1-2",
                   "maxReadSims=300", "pruneCorrelatedStats=1", "maxCor=0.9"])
    _, tables = cli._split_models(cfg, "obs.txt")
    assert len(tables) == len(read) == 2
    # the pruning dropped statistics, and no table was copied
    assert len(tables[0].stat_names) < len(read[0].stat_names)
    for got, table in zip(tables, read):
        assert got.stat_names == tables[0].stat_names
        assert np.shares_memory(got.values, table.values)
        want = table.with_stats(got.stat_names)
        np.testing.assert_array_equal(got.params, want.params)
        np.testing.assert_array_equal(got.stats, want.stats)


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
    # the lower bound needs no table, so it is checked before any is read
    if "numRetained=0" in settings:
        assert errors[0].endswith("numRetained must be at least 1, got 0")
    else:
        assert "numRetained must be at most the rows of the smallest table" \
            in errors[0] and f"({limit}), got " in errors[0]
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
    # both bounds need no table, so they are checked before any is read
    assert errors[0].endswith(f"{key} must be at least 1 and at most "
                              f"numRetained (200), got {value}")
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
    # the bounds that need no table are checked before any is read
    if key == "retainedValidation":
        assert errors[0].endswith(f"{key} must be at least 0 and at most "
                                  f"{limit}, got {value}")
    elif int(value) < low:
        assert errors[0].endswith(f"{key} must be at least {low}, "
                                  f"got {value}")
    else:
        assert errors[0].endswith(f"{key} must be at most {limit}, "
                                  f"got {value}")
    assert not list(tmp_path.glob("ABC_*"))


# every input a task reads is missing: reading one would exit 2
MISSING_INPUTS = {
    "estimate": ["simName=missing.txt;missing2.txt", "params=1-2",
                 "obsName=obs.txt", "numRetained=20",
                 "modelChoiceValidation=5", "maxReadSims=5000",
                 "outputPrefix=ABC"],
    "simulate": ["samplerType=MCMC", "estName=toy.est",
                 "simProgram=toy-normal", "obsName=obs.txt", "numSims=200",
                 "linearCombName=lincomb.txt", "outName=sims"],
    "transform": ["linearCombName=lincomb.txt", "input=sims.txt",
                  "output=out.txt", "params=1-2"],
}
MISSING_INPUTS["findStatsModelChoice"] = MISSING_INPUTS["estimate"]
PRUNE = "pruneCorrelatedStats=1 "
JOINT = "jointPosteriors=mu,sigma2 "


@pytest.mark.parametrize("task, setting, message", [
    ("estimate", "posteriorDensityPoints=1",
     "posteriorDensityPoints must be at least 2 and at most 1000000, got 1"),
    ("estimate", "diracPeakWidth=0", "diracPeakWidth must be greater than 0"),
    ("findStatsModelChoice", "diracPeakWidth=-1",
     "diracPeakWidth must be greater than 0, got -1.0"),
    ("findStatsModelChoice", "maxCorSSFinder=nan",
     "maxCorSSFinder must be a finite number, got 'nan'"),
    ("findStatsModelChoice", "maxCorSSFinder=-1",
     "maxCorSSFinder must be at least 0 and at most 1, got -1.0"),
    ("findStatsModelChoice", "maxCorSSFinder=1.5",
     "maxCorSSFinder must be at least 0 and at most 1, got 1.5"),
    ("estimate", "randomValidation=-1",
     "randomValidation must be at least 0, got -1"),
    ("estimate", "retainedValidation=-1",
     "retainedValidation must be at least 0 and at most numRetained (20), "
     "got -1"),
    ("estimate", "modelChoiceValidation=-1",
     "modelChoiceValidation must be at least 0, got -1"),
    ("estimate", "marDensPValue=0", "marDensPValue must be at least 1 and at "
     "most numRetained (20), got 0"),
    ("estimate", "tukeyPValue=0", "tukeyPValue must be at least 1 and at most "
     "numRetained (20), got 0"),
    ("findStatsModelChoice", "modelChoiceValidation=0",
     "modelChoiceValidation must be at least 1, got 0"),
    # every other numeric key of each task, and nan and inf for each float
    ("estimate", "numRetained=0", "numRetained must be at least 1, got 0"),
    ("estimate", "maxReadSims=0", "maxReadSims must be at least 1, got 0"),
    ("estimate", PRUNE + "maxCor=0",
     "maxCor must be greater than 0 and at most 1, got 0.0"),
    ("estimate", PRUNE + "maxCor=nan", "maxCor must be a finite number"),
    ("estimate", PRUNE + "maxCor=inf", "maxCor must be a finite number"),
    ("estimate", "diracPeakWidth=nan", "diracPeakWidth must be a finite"),
    ("estimate", "diracPeakWidth=inf", "diracPeakWidth must be a finite"),
    ("estimate", JOINT + "jointPosteriorDensityPoints=1",
     "jointPosteriorDensityPoints must be at least 2, got 1"),
    ("estimate", "marDensPValue=21",
     "marDensPValue must be at least 1 and at most numRetained (20), got 21"),
    ("estimate", "tukeyPValue=21",
     "tukeyPValue must be at least 1 and at most numRetained (20), got 21"),
    ("estimate", "retainedValidation=21", "retainedValidation must be at "
     "least 0 and at most numRetained (20), got 21"),
    ("estimate", "seed=-1", "seed must be at least 0, got -1"),
    ("findStatsModelChoice", "numRetained=0",
     "numRetained must be at least 1, got 0"),
    ("findStatsModelChoice", "maxReadSims=-3",
     "maxReadSims must be at least 1, got -3"),
    ("findStatsModelChoice", PRUNE + "maxCor=1.5",
     "maxCor must be greater than 0 and at most 1, got 1.5"),
    ("findStatsModelChoice", PRUNE + "maxCor=nan", "maxCor must be a finite"),
    ("findStatsModelChoice", PRUNE + "maxCor=inf", "maxCor must be a finite"),
    ("findStatsModelChoice", "diracPeakWidth=nan",
     "diracPeakWidth must be a finite number"),
    ("findStatsModelChoice", "diracPeakWidth=inf",
     "diracPeakWidth must be a finite number"),
    ("findStatsModelChoice", "maxCorSSFinder=inf",
     "maxCorSSFinder must be a finite number, got 'inf'"),
    ("findStatsModelChoice", "seed=-1", "seed must be at least 0, got -1"),
    ("simulate", "numSims=0", "numSims must be at least 1, got 0"),
    ("simulate", "numCaliSims=99",
     "numCaliSims: n_calibration must be at least 100, got 99"),
    ("simulate", "thresholdProp=0", "thresholdProp: threshold_prop must be"),
    ("simulate", "thresholdProp=nan", "thresholdProp must be a finite"),
    ("simulate", "thresholdProp=inf", "thresholdProp must be a finite"),
    ("simulate", "rangeProp=0", "rangeProp: range_prop must be finite and "
     "positive, got 0.0"),
    ("simulate", "rangeProp=nan", "rangeProp must be a finite number"),
    ("simulate", "rangeProp=inf", "rangeProp must be a finite number"),
    ("simulate", "mcmcSampling=0", "mcmcSampling, numSims: sampling_interval"),
    ("simulate", "mcmcSampling=500",
     "mcmcSampling, numSims: sampling_interval must be at least 1 and at "
     "most chain_length (200), got 500"),
    ("simulate", "mcmcBurnIn=1", "mcmcBurnIn: burn_in_frac must be in"),
    ("simulate", "mcmcBurnIn=nan", "mcmcBurnIn must be a finite number"),
    ("simulate", "mcmcBurnIn=inf", "mcmcBurnIn must be a finite number"),
    ("simulate", "seed=-1", "seed must be at least 0, got -1"),
    ("transform", "numLinearComb=0", "numLinearComb must be at least 1"),
    ("transform", "seed=-1", "seed must be at least 0, got -1"),
])
def test_bad_setting_is_reported_before_the_tables_are_read(
        tmp_path, monkeypatch, caplog, capsys, task, setting, message):
    monkeypatch.chdir(tmp_path)
    code = cli.main([f"task={task}", *MISSING_INPUTS[task],
                     *setting.split()])
    assert code == 1
    errors = _error_lines(caplog)
    assert len(errors) == 1
    assert message in errors[0]
    assert "Traceback" not in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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
                         joint.matrix()),
                        model_index=0, obs_index=0, joint_params=[2, 1],
                        directory=ref)
    written = tmp_path / path.name
    assert written.read_bytes() == path.read_bytes()
    assert len(written.read_bytes().splitlines()) == 1 + 40 * 40


# a fresh interpreter: runs the CLI with the arguments given and prints
# its exit code, whether any scipy module was loaded after the import of the
# CLI, whether multiprocessing or concurrent.futures was (the validation
# workers are forked without them), whether any scipy module was loaded
# after the run, whether the run took a KS tail that needs
# scipy.special.smirnov, and whether scipy.stats was loaded after the run
SCIPY_PROBE = """
import sys
import abckit.cli
from abckit import _kstwo

def scipy_loaded():
    return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)

imported = scipy_loaded()
pools = any(m in sys.modules for m in ("multiprocessing", "concurrent.futures"))
twice_smirnov, tails = _kstwo._twice_smirnov, []
_kstwo._twice_smirnov = lambda n, x: tails.append(x) or twice_smirnov(n, x)
code = abckit.cli.main(sys.argv[1:])
print(code, imported, pools, scipy_loaded(), bool(tails),
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
    assert fields[:3] == ["0", "False", "False"], proc.stderr
    _, _, _, loaded, tails, stats = fields
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
    uniform = read_table(tmp_path / "uniform.txt", "1-2").values

    def model1_every_third_row_fails(table, pseudo, exclude, settings):
        # a replicate may run in a forked child: the failures are planted
        # by the left-out row, and each replicate appends its row to a file
        model = int(np.array_equal(table.values, uniform))
        with open(tmp_path / "left_out.txt", "a") as fh:
            fh.write(f"{model} {exclude}\n")
        if model == 1 and exclude % 3 == 0:
            raise NumericalError("planted failure")
        return estimator(table, pseudo, exclude, settings)

    monkeypatch.setattr(validation, "_glm_estimator",
                        model1_every_third_row_fails)
    code = cli.main(["task=estimate", "simName=normal.txt;uniform.txt",
                     "params=1-2", "obsName=obs.txt", "numRetained=100",
                     "maxReadSims=5000", "seed=4", "outputPrefix=ABC",
                     "posteriorDensityPoints=40", "randomValidation=20"])
    assert code == 0
    left_out = [tuple(map(int, line.split())) for line in
                (tmp_path / "left_out.txt").read_text().splitlines()]
    assert sorted(m for m, _ in left_out) == [0] * 20 + [1] * 20
    failed = sum(m == 1 and i % 3 == 0 for m, i in left_out)
    assert failed == 4
    lines = [r.getMessage() for r in caplog.records
             if r.levelno == logging.INFO and "validation" in r.getMessage()]
    # model 0 fails none and runs its coverage tests, one line a parameter;
    # model 1 fails the 4 of its 20 left-out rows that 3 divides (60, 144,
    # 147 and 171)
    assert lines[0] == "random validation (model 0): 0 of 20 replicates failed"
    for line, name in zip(lines[1:3], ("mu", "sigma2")):
        assert line.startswith(f"random validation (model 0) {name}: "
                               "quantile KS ")
    assert lines[3:] == ["random validation (model 1): 4 of 20 replicates "
                         "failed; coverage tests skipped: need at least 20 "
                         "successful rows, have 16"]
    args = [r.args[:3] for r in caplog.records
            if r.msg.startswith("%s: %d of %d replicates failed")]
    assert args == [("random validation (model 0)", 0, 20),
                    ("random validation (model 1)", 4, 20)]
    warnings = [r.getMessage() for r in caplog.records
                if r.levelno == logging.WARNING]
    assert warnings == ["validation replicate failed: planted failure"] * 4
    for m, rows in ((0, 20), (1, 16)):
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
    assert errors[0].endswith("numLinearComb must be at most the components "
                              "in lincomb.txt (1), got 3")
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
    (["diracPeakWidth=0"], "diracPeakWidth must be greater than 0"),
    (["posteriorDensityPoints=1"], "posteriorDensityPoints must be at least 2"),
    (["posteriorDensityPoints=1000001"], "at most 1000000, got 1000001"),
    (["jointPosteriors=mu,sigma2", "jointPosteriorDensityPoints=1"],
     "jointPosteriorDensityPoints must be at least 2, got 1"),
    (["jointPosteriors=mu,sigma2", "jointPosteriorDensityPoints=2000"],
     "at most 1000 points"),
    (["jointPosteriors=mu"], "2 to 4 different parameters"),
    (["jointPosteriors=mu,foo"],
     "jointPosteriors names foo, not a parameter of every model"),
    (["jointPosteriors=mu,mu"], "2 to 4 different parameters"),
    (["pruneCorrelatedStats=1", "maxCor=2"],
     "maxCor must be greater than 0 and at most 1, got 2.0"),
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


@pytest.mark.parametrize("prior, expression", [
    ("unif 700 800", "exp(X)"),
    ("unif 400 500", "pow10(X)"),
    ("unif -2 -1", "X^0.5"),
    ("unif 1 2", "X*1e308*10"),
])
@pytest.mark.parametrize("sampler", [
    [],
    ["samplerType=MCMC", "numCaliSims=200", "obsName=obs.txt"],
], ids=["standard", "mcmc"])
def test_complex_parameter_failure_is_a_numerical_failure(
        tmp_path, monkeypatch, caplog, capsys, toy_obs, sampler, prior,
        expression):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "toy.est").write_text(
        f"{TOY_EST}0 X {prior} hide\n"
        f"[COMPLEX PARAMETERS]\n0 C = {expression} output\n")
    write_observed(tmp_path / "obs.txt", toy_obs)
    code = cli.main(["task=simulate", "estName=toy.est",
                     "simProgram=toy-normal", "numSims=100", "seed=1",
                     *sampler])
    assert code == 3
    errors = _error_lines(caplog)
    assert len(errors) == 1
    assert errors[0].startswith("numerical failure: ")
    assert repr(expression) in errors[0]
    assert "Traceback" not in capsys.readouterr().err + caplog.text
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


def test_external_mcmc_counts_proposals_whose_simulation_failed(
        tmp_path, monkeypatch, caplog):
    # calls 1-100 calibrate, step n is call 100 + n until the first retry:
    # steps 10 and 18 fail twice (calls 110-111 and 119-120), call 130 fails
    # once and its retry (call 131) succeeds
    monkeypatch.chdir(tmp_path)
    settings = _external_simulator(tmp_path, "exec-args",
                                   (110, 111, 119, 120, 130))
    write_observed(tmp_path / "obs.txt",
                   ObservedStats(("s1", "s2"), np.array([0.2, 2.0])))
    runs = []
    run_mcmc = cli.run_mcmc
    monkeypatch.setattr(cli, "run_mcmc",
                        lambda *a, **kw: runs.append(run_mcmc(*a, **kw))
                        or runs[-1])
    with caplog.at_level(logging.INFO, logger="abckit"):
        code = cli.main(settings + ["samplerType=MCMC", "numSims=40",
                                    "numCaliSims=100", "obsName=obs.txt",
                                    "seed=3", "outName=chain"])
    assert code == 0
    assert len(_simulator_calls(tmp_path)) == 100 + 40 + 3
    assert [(run.failed_simulations, run.outside_domain) for run in runs] \
        == [(2, 0)]
    messages = [r.getMessage() for r in caplog.records]
    at = messages.index("0 proposal(s) rejected outside the transform domain")
    assert messages[at + 1] == ("2 proposal(s) rejected after their "
                                "simulation failed twice")
    assert sum(m.startswith("simulation failed twice, rejecting the "
                            "proposal: ") for m in messages) == 2


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
