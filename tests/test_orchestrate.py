import dataclasses
import logging
import math
import tempfile

import numpy as np
import pytest
from scipy import stats as sps

from abckit import models, orchestrate, statselect
from abckit.errors import SimulatorError, TableFormatError
from abckit.orchestrate import (McmcConfig, SimulatorBinding, calibrate,
                                run_mcmc, run_standard)
from abckit.priors import (complete_rows, log_prior_density, parse_est,
                           sample_rows)
from abckit.tableio import ObservedStats
from abckit.statselect import LinearCombDef, StatMap, boost, fit_pls

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
        narrow_map = StatMap(cal.sim_stat_names, cfg.do_boosting, narrow,
                             apply_boxcox=cfg.do_boxcox).select(
                                 cal.retained.stat_names)
        narrow_cal = dataclasses.replace(cal, stat_map=narrow_map)
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


RULES_EST = """[PARAMETERS]
0 mu norm -1 1 0 0.5 output
1 sigma2 logunif 1 4 output
0 shift unif -1 0.5 hide
0 scale fixed 2 hide
[RULES]
mu > shift
[COMPLEX PARAMETERS]
0 spread = sigma2 * scale output
"""

SFS_EST = """[PARAMETERS]
0 LOG10_N_CUR unif 2 4 hide
0 LOG10_OMEGA unif -1 1 output
0 TAU unif 0 1 output
[COMPLEX PARAMETERS]
1 N_CUR = pow10(LOG10_N_CUR) output
0 OMEGA = pow10(LOG10_OMEGA) hide
"""
# the sample size varies from draw to draw
SFS_SIZES_EST = SFS_EST.replace(
    "[COMPLEX", "1 SAMPLE_SIZE unif 8 12 output\n[COMPLEX")


class TestBatchInvariance:
    """A seed gives the same table whatever the block size."""

    def per_block(self, monkeypatch, run):
        out = []
        for block in (1, 7, 256):
            monkeypatch.setattr(orchestrate, "SIM_BLOCK", block)
            out.append(run())
        return out

    @pytest.mark.parametrize("model, est_text", [
        ("toy-normal", TOY_EST), ("toy-uniform", TOY_EST),
        ("toy-normal", RULES_EST), ("sfs-neutral-growth", SFS_EST),
        ("sfs-neutral-growth", SFS_SIZES_EST),
    ], ids=["toy-normal", "toy-uniform", "rules", "sfs", "sfs-sizes"])
    def test_run_standard(self, monkeypatch, model, est_text):
        est = parse_est(est_text)
        binding = SimulatorBinding.builtin(model)
        runs = self.per_block(monkeypatch, lambda: run_standard(
            est, binding, 600, np.random.default_rng(12), record="all"))
        first = runs[0].table
        assert first.n_rows == 600 and runs[0].failures == 0
        for run in runs[1:]:
            assert run.table.names == first.names
            assert run.table.values.tobytes() == first.values.tobytes()

    def test_batch_rows_are_per_draw_results(self):
        # the batch function gives what per-draw calls give on one stream
        for model, est_text in (("toy-normal", TOY_EST),
                                ("toy-uniform", RULES_EST),
                                ("sfs-neutral-growth", SFS_EST),
                                ("sfs-neutral-growth", SFS_SIZES_EST)):
            est = parse_est(est_text)
            values = complete_rows(est, sample_rows(
                est, np.random.default_rng(16), 50))
            per_draw = models.BUILTIN_MODELS[model]
            rng = np.random.default_rng(13)
            one = [per_draw(dict(zip(est.all_names, row)), rng)
                   for row in values.tolist()]
            names, batch = per_draw.batch(est.all_names, values,
                                          np.random.default_rng(13))
            assert {r[0] for r in one} == {names}
            assert batch.tobytes() == np.array([r[1] for r in one]).tobytes()

    def test_calibrate(self, monkeypatch, toy_obs):
        est = parse_est(TOY_EST)
        binding = SimulatorBinding.builtin("toy-normal")
        cfg = McmcConfig(n_calibration=300, threshold_prop=0.1,
                         starting_point="random")
        cals = self.per_block(monkeypatch, lambda: calibrate(
            est, binding, toy_obs, cfg, np.random.default_rng(14)))
        for cal in cals[1:]:
            assert cal.table.values.tobytes() == cals[0].table.values.tobytes()
            assert cal.epsilon == cals[0].epsilon
            assert cal.start_raw == cals[0].start_raw
            assert cal.widths.tobytes() == cals[0].widths.tobytes()

    def test_retries_draw_from_their_own_stream(self, monkeypatch):
        # a statistic is non-finite whenever its noise exceeds 1.5 (about
        # 7 % of attempts): most failed draws succeed on the retry, some
        # fail twice and are skipped, at the same draws for every block size
        def per_draw(draw, rng):
            e = rng.normal()
            return ("s",), [draw["mu"] + e if e < 1.5 else math.inf]

        def batch(names, values, rng):
            e = rng.normal(size=(len(values), 1))
            return ("s",), np.where(e < 1.5, values[:, :1] + e, math.inf)

        per_draw.batch = batch
        monkeypatch.setitem(models.BUILTIN_MODELS, "spiky", per_draw)
        est = parse_est(TOY_EST)
        runs = self.per_block(monkeypatch, lambda: run_standard(
            est, SimulatorBinding.builtin("spiky"), 400,
            np.random.default_rng(15)))
        assert 0 < runs[0].failures < 10
        for run in runs[1:]:
            assert run.failures == runs[0].failures
            assert run.table.values.tobytes() == runs[0].table.values.tobytes()
        # with the batch function removed, the per-draw path gives the same
        del per_draw.batch
        run = run_standard(est, SimulatorBinding.builtin("spiky"), 400,
                           np.random.default_rng(15))
        assert run.table.values.tobytes() == runs[0].table.values.tobytes()


class TestBindingChecks:
    """A binding is checked before any scratch directory is made."""

    @pytest.fixture(autouse=True)
    def scratch(self, tmp_path, monkeypatch):
        self.tmp = tmp_path / "tmp"
        self.tmp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(self.tmp))
        sim = tmp_path / "sim.sh"
        sim.write_text("#!/bin/sh\n")
        sim.chmod(0o755)
        self.sim = sim
        (tmp_path / "plain.sh").write_text("#!/bin/sh\n")

    def check(self, binding, message):
        with pytest.raises(SimulatorError, match=message):
            run_standard(parse_est(TOY_EST), binding, 5, 1)
        assert not list(self.tmp.iterdir())

    def test_missing_simulator(self, tmp_path):
        self.check(SimulatorBinding.exec_args(tmp_path / "none.sh", "mu"),
                   "^simulator '.*none.sh' is not an executable file$")

    def test_simulator_that_is_not_executable(self, tmp_path):
        self.check(SimulatorBinding.easyabc(tmp_path / "plain.sh"),
                   "^simulator '.*plain.sh' is not an executable file$")

    def test_missing_post_processor(self, tmp_path):
        self.check(SimulatorBinding.exec_args(
            self.sim, "mu", sum_stat_program=str(tmp_path / "post.sh")),
            "^post-processor '.*post.sh' is not an executable file$")

    def test_missing_template(self, tmp_path):
        self.check(SimulatorBinding.exec_files(
            self.sim, tmp_path / "none.tpl", "SIMINPUTNAME"),
            "^input template '.*none.tpl' not found$")

    def test_unknown_builtin(self):
        self.check(SimulatorBinding.builtin("no-such-model"),
                   "^no builtin model 'no-such-model'; available: .*"
                   "toy-normal")


def test_every_simulation_failing_is_a_simulator_error(monkeypatch):
    # the batch and its retries all give non-finite statistics
    def per_draw(draw, rng):
        return ("s",), [math.inf]

    per_draw.batch = lambda names, values, rng: (
        ("s",), np.full((len(values), 1), math.inf))
    monkeypatch.setitem(models.BUILTIN_MODELS, "broken", per_draw)
    with pytest.raises(SimulatorError, match="^every simulation failed"):
        run_standard(parse_est(TOY_EST), SimulatorBinding.builtin("broken"),
                     5, 1)


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


def old_distance(cal, cfg, names, values):
    """The chain distance as it was composed before the statistic map:
    boost the named vector, apply the definition to it by name (as a
    one-row matrix), pick the retained statistics by name, standardize,
    take the norm."""
    names, v = list(names), np.asarray(values, dtype=float)
    if cfg.do_boosting:
        n = len(names)
        pairs = [(a, b) for a in range(n) for b in range(a, n)]
        names += [f"{names[a]}_X_{names[b]}" for a, b in pairs]
        v = np.concatenate([v, [v[a] * v[b] for a, b in pairs]])
    comb = cfg.lincomb
    if comb is not None:
        pos = {n: j for j, n in enumerate(names)}
        vec = v[[pos[n] for n in comb.stat_names]]
        scores = comb.scores(vec, apply_boxcox=cfg.do_boxcox)[0]
        keep = [j for j, n in enumerate(names) if n not in comb.stat_names]
        names = [names[j] for j in keep] + [
            f"LinearCombination_{i + 1}" for i in range(comb.n_components)]
        v = np.concatenate([v[keep], scores])
    lookup = dict(zip(names, v))
    vec = np.array([lookup[n] for n in cal.retained.stat_names])
    std = cal.retained.standardizer
    return float(np.linalg.norm(std.transform(vec)
                                - std.transform(cal.retained.obs)))


class TestChainMap:
    """The chain maps each simulated vector through one map resolved in
    calibration."""

    @pytest.fixture(scope="class")
    def setup(self):
        est = parse_est(TOY_EST)
        binding = SimulatorBinding.builtin("toy-normal")
        table = run_standard(est, binding, 300, np.random.default_rng(7)).table
        sims = run_standard(est, binding, 200, np.random.default_rng(8)).table
        combs = {False: fit_pls(table, 3, cv_folds=5, rng=1).definition,
                 True: fit_pls(boost(table), 3, cv_folds=5,
                               rng=1).definition}
        return est, binding, sims, combs

    def calibration(self, setup, toy_obs, boosting, with_comb, boxcox):
        est, binding, _, combs = setup
        cfg = McmcConfig(n_calibration=300, threshold_prop=0.1,
                         chain_length=50,
                         lincomb=combs[boosting] if with_comb else None,
                         do_boxcox=boxcox, do_boosting=boosting)
        return cfg, calibrate(est, binding, toy_obs, cfg,
                              np.random.default_rng(9))

    @pytest.mark.parametrize("boxcox", [True, False])
    @pytest.mark.parametrize("with_comb", [True, False])
    @pytest.mark.parametrize("boosting", [True, False])
    def test_distance_equals_old_composition(self, setup, toy_obs, boosting,
                                             with_comb, boxcox):
        sims = setup[2]
        cfg, cal = self.calibration(setup, toy_obs, boosting, with_comb,
                                    boxcox)
        assert cal.sim_stat_names == sims.stat_names
        compared = 0
        for values in sims.stats:
            try:
                want = old_distance(cal, cfg, sims.stat_names, values)
            except TableFormatError:
                with pytest.raises(TableFormatError):
                    cal.distance(values)
                continue
            assert cal.distance(values) == want
            compared += 1
        assert compared >= 190

    def test_outside_the_boxcox_domain_raises(self, setup, toy_obs):
        cfg, cal = self.calibration(setup, toy_obs, False, True, True)
        values = setup[2].stats[0].copy()
        j = cfg.lincomb.stat_names.index("min")
        spec = cfg.lincomb.boxcox[j]
        values[cal.sim_stat_names.index("min")] = (
            spec.vmin - 3.0 * (spec.vmax - spec.vmin))
        with pytest.raises(TableFormatError,
                           match="^min: value .* at row 1 outside the "
                                 "transform domain$"):
            cal.distance(values)

    def test_no_names_handled_per_step(self, setup, toy_obs, monkeypatch):
        est, binding = setup[:2]
        cfg, cal = self.calibration(setup, toy_obs, True, True, True)
        counts = {"ObservedStats": 0, "StatMap": 0, "boost_observed": 0,
                  "transform": 0}

        def counting(key, original):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ObservedStats, "__post_init__",
                            counting("ObservedStats",
                                     ObservedStats.__post_init__))
        monkeypatch.setattr(StatMap, "__init__",
                            counting("StatMap", StatMap.__init__))
        for name in ("boost_observed", "transform"):
            monkeypatch.setattr(statselect, name,
                                counting(name, getattr(statselect, name)))
        # the counters see what calibration builds ...
        calibrate(est, binding, toy_obs, cfg, np.random.default_rng(9))
        assert counts["ObservedStats"] and counts["StatMap"]
        # ... and a chain builds none of it
        counts.update(dict.fromkeys(counts, 0))
        run = run_mcmc(est, binding, toy_obs, cfg, np.random.default_rng(10),
                       calibration=cal)
        assert run.steps == 50
        assert counts == dict.fromkeys(counts, 0)

    @pytest.mark.parametrize("boosting", [True, False])
    def test_start_distance_is_a_step_distance(self, setup, toy_obs,
                                               boosting):
        est, binding = setup[:2]
        cfg, cal = self.calibration(setup, toy_obs, boosting, True, True)
        assert cal.start_distance == cal.distance(cal.start_stats)
        cfg = dataclasses.replace(cfg, burn_in_frac=0.0)
        # the start state is recorded only if the first proposal is
        # rejected; which seeds give such a chain depends on the stream
        for seed in range(11, 41):
            run = run_mcmc(est, binding, toy_obs, cfg,
                           np.random.default_rng(seed), calibration=cal)
            # the records before the first accepted move carry the start
            names = run.table.names
            stats = run.table.values[:, [names.index(n)
                                         for n in cal.sim_stat_names]]
            dist = run.table.values[:, names.index("distance")]
            unmoved = np.all(stats == cal.start_stats, axis=1)
            if unmoved[0]:
                break
        assert unmoved[0]
        first_move = int(np.argmin(unmoved)) if not unmoved.all() else None
        start_rows = dist[:first_move]
        assert np.all(start_rows.view(np.int64)
                      == np.float64(cal.distance(cal.start_stats)).view(
                          np.int64))
