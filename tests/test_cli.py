import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from abckit import cli, orchestrate, statselect
from abckit.tableio import (ObservedStats, format_value, read_table,
                            write_observed, write_table)


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


def _write_toy_inputs(directory, norm_table, unif_table, toy_obs, rows=2000):
    """The first ``rows`` simulations of each toy model and the toy
    observation, as the CLI reads them."""
    write_table(directory / "normal.txt", norm_table.take_rows(np.arange(rows)))
    write_table(directory / "uniform.txt", unif_table.take_rows(np.arange(rows)))
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


def test_transform_end_to_end(tmp_path, monkeypatch, norm_table):
    monkeypatch.chdir(tmp_path)
    table = norm_table.take_rows(np.arange(400))
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


def test_num_linear_comb_range_check_is_a_config_error(tmp_path, monkeypatch,
                                                       caplog, norm_table):
    monkeypatch.chdir(tmp_path)
    table = norm_table.take_rows(np.arange(200))
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
# Each writes the parameters it is given back as its statistics, logs its
# call number and arguments, and fails on the call numbers listed in the
# file "fail".  They are POSIX sh scripts: every simulation starts a
# process, and a Python interpreter takes about 0.1 s to start on a 2-vCPU
# VM, which would make the three MCMC runs (140 simulations each) take
# most of a minute.
SIM_PREAMBLE = """#!/bin/sh
n=$(( $(cat '{state}/calls' 2>/dev/null || echo 0) + 1 ))
echo "$n" > '{state}/calls'
"""
SIM_FAIL = """echo "$n $mu $sigma2" >> '{state}/log'
if grep -qx "$n" '{state}/fail' 2>/dev/null; then
    echo "call $n failed" >&2
    exit 1
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


def _external_simulator(directory, mode, fail=()):
    """Write the simulator of ``mode`` (and its template) into
    ``directory``; returns the CLI settings that select it."""
    sim = directory / "sim.sh"
    sim.write_text(SIMULATORS[mode].format(state=directory))
    sim.chmod(0o755)
    (directory / "input.tpl").write_text("mu\nsigma2\n")
    (directory / "fail").write_text("".join(f"{n}\n" for n in fail))
    (directory / "toy.est").write_text(TOY_EST)
    return ["task=simulate", "estName=toy.est", f"simProgram={sim}",
            *BINDING_KEYS[mode]]


def _simulator_calls(directory):
    """(call number, mu, sigma2) of every simulation started."""
    rows = [line.split() for line in
            (directory / "log").read_text().splitlines()]
    return [(int(n), float(mu), float(s2)) for n, mu, s2 in rows]


@pytest.mark.parametrize("mode", sorted(SIMULATORS))
def test_external_standard_sampler_retries_then_skips(tmp_path, monkeypatch,
                                                      caplog, mode):
    # call 2 fails and its retry (call 3) succeeds; calls 5 and 6 fail, so
    # the fourth draw is skipped
    monkeypatch.chdir(tmp_path)
    settings = _external_simulator(tmp_path, mode, fail=(2, 5, 6))
    with caplog.at_level(logging.INFO, logger="abckit"):
        code = cli.main(settings + ["numSims=5", "seed=2", "outName=ext"])
    assert code == 0
    calls = _simulator_calls(tmp_path)
    assert [n for n, *_ in calls] == list(range(1, 8))
    assert calls[1][1:] == calls[2][1:] and calls[4][1:] == calls[5][1:]
    assert len({c[1:] for c in calls}) == 5
    # the table holds the successful calls' values, in order, written
    # with 6 significant digits
    table = read_table(tmp_path / "ext_sampling1.txt", "1-2")
    want = np.array([c[1:] for c in calls if c[0] in (1, 3, 4, 7)])
    np.testing.assert_allclose(table.params, want, rtol=1e-5)
    np.testing.assert_allclose(table.stats, want, rtol=1e-5)
    names = ("stat_1", "stat_2") if mode == "easyabc" else ("s1", "s2")
    assert table.stat_names == names
    warnings = [r.getMessage() for r in caplog.records
                if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert warnings[0].startswith("simulation failed twice, skipping draw: ")
    assert warnings[0].endswith("exited with 1: call 6 failed")
    assert any(r.getMessage() == "performed 4 simulation(s), 1 failure(s)"
               for r in caplog.records)


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
