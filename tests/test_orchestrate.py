import dataclasses
import logging
import math

import numpy as np
import pytest
from scipy import stats as sps

from abckit import models
from abckit.errors import SimulatorError
from abckit.orchestrate import (McmcConfig, SimulatorBinding, calibrate,
                                run_mcmc, run_standard)
from abckit.priors import log_prior_density, parse_est
from abckit.tableio import ObservedStats
from abckit.statselect import LinearCombDef

TOY_EST = """[PARAMETERS]
0 mu unif -1 1 output
0 sigma2 unif 0.1 4 output
"""

# one component on the sample mean; "min" only has to be in the domain
# (loading 0): y = 1 + (x - vmin) / (vmax - vmin) must stay above 0
WIDE_DEFINITION = """mean 10 -10 1 1 0 1 1
min 10 -10 1 1 0 1 0
"""
# here min <= -2 gives y <= 0
NARROW_DEFINITION = """mean 10 -10 1 1 0 1 1
min 0 -1 1 1 0 1 0
"""


class TestMcmcConfig:
    @pytest.mark.parametrize("kwargs, field", [
        ({"n_calibration": 50}, "n_calibration"),
        ({"threshold_prop": 1.5}, "threshold_prop"),
        ({"threshold_prop": 0.005}, "n_calibration"),
        ({"range_prop": 0.0}, "range_prop"),
        ({"starting_point": "middle"}, "starting_point"),
        ({"chain_length": 0}, "chain_length"),
        ({"sampling_interval": 0}, "sampling_interval"),
        ({"burn_in_frac": 1.0}, "burn_in_frac"),
        ({"burn_in_frac": -0.1}, "burn_in_frac"),
    ])
    def test_range_checks_name_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            McmcConfig(**kwargs)


class TestRunMcmc:
    def test_domain_errors_count_as_rejections(self, tmp_path, toy_obs,
                                               caplog):
        (tmp_path / "wide.txt").write_text(WIDE_DEFINITION)
        (tmp_path / "narrow.txt").write_text(NARROW_DEFINITION)
        wide = LinearCombDef.load(tmp_path / "wide.txt")
        narrow = LinearCombDef.load(tmp_path / "narrow.txt")
        est = parse_est(TOY_EST)
        binding = SimulatorBinding.builtin("toy-normal")
        cfg = McmcConfig(n_calibration=200, threshold_prop=0.2,
                         chain_length=300, lincomb=wide)
        rng = np.random.default_rng(4)
        cal = calibrate(est, binding, toy_obs, cfg, rng)
        # the narrow definition transforms every in-domain vector as the
        # wide one does, but some proposals fall outside its domain
        narrow_cal = dataclasses.replace(cal, lincomb=narrow)
        with caplog.at_level(logging.INFO, logger="abckit"):
            run = run_mcmc(est, binding, toy_obs, cfg, rng,
                           calibration=narrow_cal)
        assert run.outside_domain > 0
        assert 0 < run.acceptance_rate < 1
        assert run.table.n_rows == 270
        assert any(r.getMessage() == f"{run.outside_domain} proposal(s) "
                   "rejected outside the transform domain"
                   for r in caplog.records)
        mins = run.table.values[:, run.table.names.index("min")]
        moved = mins != cal.start_stats[list(cal.sim_stat_names).index("min")]
        assert moved.any() and np.all(mins[moved] > -2.0)

        same = run_mcmc(est, binding, toy_obs, cfg, np.random.default_rng(4),
                        calibration=cal)
        assert same.outside_domain == 0


def flaky_model(fail_calls):
    """A builtin that raises on the given (1-based) calls and otherwise
    returns the draw's mu as its one statistic."""
    seen = []

    def model(draw, rng):
        seen.append(draw["mu"])
        if len(seen) in fail_calls:
            raise SimulatorError(f"call {len(seen)} failed")
        return ("m",), [draw["mu"] + rng.normal()]

    model.seen = seen
    return model


class TestRetry:
    def run(self, monkeypatch, caplog, fail_calls, n_sims=4):
        self.model = flaky_model(fail_calls)
        monkeypatch.setitem(models.BUILTIN_MODELS, "flaky", self.model)
        est = parse_est(TOY_EST)
        with caplog.at_level(logging.INFO, logger="abckit"):
            return run_standard(est, SimulatorBinding.builtin("flaky"),
                                n_sims, np.random.default_rng(5))

    def test_one_failure_is_retried_with_the_same_draw(self, monkeypatch,
                                                       caplog):
        run = self.run(monkeypatch, caplog, {2})
        assert run.failures == 0 and run.table.n_rows == 4
        assert len(self.model.seen) == 5
        assert self.model.seen[1] == self.model.seen[2]
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

    def test_two_failures_skip_the_draw(self, monkeypatch, caplog):
        run = self.run(monkeypatch, caplog, {2, 3})
        assert run.failures == 1 and run.table.n_rows == 3
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelno == logging.WARNING]
        assert warnings == ["simulation failed twice, skipping draw: "
                            "call 3 failed"]
        assert any(r.getMessage() == "performed 3 simulation(s), 1 failure(s)"
                   for r in caplog.records)


def noise_model(draw, rng):
    """A builtin whose one statistic ignores the parameters."""
    return ("s",), [rng.normal()]


class TestIntegerProposals:
    """With every simulation accepted, the chain samples the prior; for an
    integer parameter that is the prior density on the integers within its
    bounds, ends included."""

    @pytest.mark.parametrize("prior", ["unif 0 10", "norm 0 10 3 2.5"])
    def test_chain_marginal_matches_discrete_prior(self, monkeypatch, prior):
        monkeypatch.setitem(models.BUILTIN_MODELS, "noise", noise_model)
        est = parse_est(f"[PARAMETERS]\n1 k {prior} output\n")
        binding = SimulatorBinding.builtin("noise")
        obs = ObservedStats(("s",), np.array([0.0]))
        cfg = McmcConfig(n_calibration=100, chain_length=20_000,
                         sampling_interval=10, burn_in_frac=0.05,
                         do_boxcox=False)
        rng = np.random.default_rng(21)
        cal = calibrate(est, binding, obs, cfg, rng)
        cal = dataclasses.replace(cal, epsilon=math.inf,
                                  widths=np.array([2.5]))
        run = run_mcmc(est, binding, obs, cfg, rng, calibration=cal)
        assert run.acceptance_rate > 0.5
        k = run.table.values[:, run.table.names.index("k")]
        np.testing.assert_array_equal(k, np.round(k))
        lattice = np.arange(11)
        weights = np.exp([log_prior_density(est, {"k": v}) for v in lattice])
        counts = np.bincount(k.astype(int), minlength=11)
        assert len(counts) == 11
        expected = weights / weights.sum() * len(k)
        assert sps.chisquare(counts, expected).pvalue > 0.001
