import numpy as np

from abckit import cli
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
