import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from abckit import cli, statselect
from abckit.tableio import read_table, write_observed, write_table


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
