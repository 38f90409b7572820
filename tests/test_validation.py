import logging
import math

import numpy as np
import pytest
from scipy import stats as sps

from abckit import forkmap, validation
from abckit._kstwo import kstwo_sf
from abckit.adjust import GlmFit, glm_fit, glm_posterior
from abckit.errors import NumericalError, TableFormatError
from abckit.modelchoice import glm_model_choice
from abckit.rejection import Standardizer, abs_correlations, retain
from abckit.statselect import MIN_GAIN, greedy_search, subset_power
from abckit.tableio import ObservedStats, SimulationTable
from abckit.validation import (ConfusionMatrix, GlmSettings,
                               ModelChoiceSettings, ValidationRow,
                               coverage_tests, cross_validate, fit_pvalues,
                               marginal_density_pvalue,
                               model_choice_validate, tukey_depth,
                               tukey_pvalue, validation_table)

from conftest import (observed_at, take_rows, two_tables,
                      uniform_prior_estimator)
from test_forkmap import Handshake, workers  # noqa: F401 (a fixture)


def gaussian_cloud_retained(rng, n=400, d=2, obs=None):
    params = rng.uniform(size=(n, 1))
    stats = rng.normal(size=(n, d))
    names = ("p0",) + tuple(f"s{i}" for i in range(d))
    table = SimulationTable(names, np.column_stack([params, stats]), (0,),
                            tuple(range(1, d + 1)))
    obs = np.zeros(d) if obs is None else np.asarray(obs, dtype=float)
    return retain(table, ObservedStats(table.stat_names, obs), count=n)


def exact_tukey_depth_2d(points, x):
    """Exhaustive enumeration over the critical directions (perpendicular
    to every point difference), evaluated at breakpoints and between them."""
    diffs = np.atleast_2d(points) - np.asarray(x, dtype=float)
    ang = np.arctan2(diffs[:, 1], diffs[:, 0])
    crit = np.mod(np.concatenate([ang + np.pi / 2, ang - np.pi / 2,
                                  ang, ang + np.pi]), 2 * np.pi)
    crit = np.unique(crit)
    mids = (crit + np.diff(np.concatenate([crit, [crit[0] + 2 * np.pi]])) / 2)
    best = len(diffs)
    for a in np.concatenate([crit, mids]):
        u = np.array([math.cos(a), math.sin(a)])
        proj = diffs @ u
        best = min(best, int((proj <= 0).sum()), int((proj >= 0).sum()))
    return min(best / len(diffs), 0.5)


class TestTukeyDepth:
    def test_one_dimensional_rank_formula(self):
        rng = np.random.default_rng(70)
        pts = rng.normal(size=(200, 1))
        dirs = np.array([[1.0], [-1.0]])
        for x in (-0.7, 0.0, 1.3):
            got = tukey_depth(pts, np.array([[x]]), dirs)[0]
            f = (pts[:, 0] <= x).mean()
            assert got == pytest.approx(min(f, 1 - f))

    def test_median_depth_half(self):
        pts = np.arange(101.0).reshape(-1, 1)
        dirs = np.array([[1.0], [-1.0]])
        assert tukey_depth(pts, np.array([[50.0]]), dirs)[0] == pytest.approx(0.5)

    def test_outside_hull_is_zero(self):
        rng = np.random.default_rng(71)
        pts = rng.normal(size=(100, 2))
        dirs = rng.normal(size=(500, 2))
        assert tukey_depth(pts, np.array([[20.0, 0.0]]), dirs)[0] == 0.0

    def test_random_projection_close_to_exact_2d(self):
        rng = np.random.default_rng(72)
        pts = rng.multivariate_normal([0, 0], [[1, 0.6], [0.6, 1]], size=50)
        dirs = rng.normal(size=(1000, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        for x in ([0.1, 0.0], [0.8, 0.9], [-1.5, 0.4]):
            approx = tukey_depth(pts, np.array([x]), dirs)[0]
            exact = exact_tukey_depth_2d(pts, x)
            assert approx >= exact - 1e-12   # upper bound
            assert approx - exact <= 0.05

    def test_monotone_in_directions(self):
        rng = np.random.default_rng(73)
        pts = rng.normal(size=(80, 3))
        dirs = rng.normal(size=(400, 3))
        x = np.array([[0.2, -0.1, 0.3]])
        d_small = tukey_depth(pts, x, dirs[:50])[0]
        d_large = tukey_depth(pts, x, dirs)[0]
        assert d_large <= d_small

    def test_pvalue_outside_hull_exactly_zero(self):
        rng = np.random.default_rng(74)
        pts = rng.normal(size=(300, 3))
        p, depth = tukey_pvalue(pts, np.array([15.0, 0.0, 0.0]),
                                n_projections=500, rng=75)
        assert depth == 0.0 and p == 0.0

    def test_pvalue_centered_obs_is_high(self):
        rng = np.random.default_rng(76)
        pts = rng.normal(size=(400, 2))
        p, depth = tukey_pvalue(pts, np.zeros(2), n_projections=500, rng=77)
        assert depth > 0.3 and p > 0.9

    def test_needs_points(self):
        with pytest.raises(ValueError):
            tukey_pvalue(np.zeros((5, 2)), np.zeros(2))

    @pytest.mark.parametrize("n_check", [0, 51, 400])
    def test_pvalue_checks_at_most_the_cloud(self, n_check):
        pts = np.random.default_rng(80).normal(size=(50, 2))
        with pytest.raises(ValueError, match=f"cannot check {n_check} of 50"):
            tukey_pvalue(pts, np.zeros(2), n_check=n_check, rng=1)


def searchsorted_depth(proj, qproj):
    """Tukey depth from projections, one direction at a time with
    ``searchsorted`` on the sorted cloud: the earlier ``tukey_depth``,
    kept as the reference."""
    n = len(proj)
    depth = np.full(len(qproj), np.inf)
    for j in range(proj.shape[1]):
        col = np.sort(proj[:, j])
        le = np.searchsorted(col, qproj[:, j], side="right")
        ge = n - np.searchsorted(col, qproj[:, j], side="left")
        depth = np.minimum(depth, np.minimum(le, ge))
    return np.minimum(depth / n, 0.5)


def depth_cases():
    rng = np.random.default_rng(81)
    cases = []
    for n, d, k in [(300, 1, 7), (500, 8, 300), (257, 2, 128), (60, 3, 129)]:
        pts = rng.normal(size=(n, d))
        # exact ties from rounding, and whole duplicated points
        pts[: n // 2] = np.round(pts[: n // 2], 1)
        pts[-5:] = pts[:5]
        dirs = rng.normal(size=(k, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        dirs[:d] = np.eye(d)              # axis directions keep the ties
        cases.append((pts, dirs))
    return cases


def sorted_runs_depth(points, dirs):
    """``tukey_depth(points, None, dirs)`` with every block's counts read
    off the runs of ties of its sorted projections: the earlier
    ``_cloud_depth_counts``, kept as the reference."""
    proj = points @ dirs.T
    n = len(points)
    depth = np.full(n, np.inf)
    for j in range(0, proj.shape[1], validation._DEPTH_BLOCK):
        block = proj[:, j:j + validation._DEPTH_BLOCK].T
        b = len(block)
        order = np.argsort(block, axis=1)
        ranked = np.take_along_axis(block, order, axis=1)
        pos = np.arange(n)
        starts = np.ones((b, n), dtype=bool)
        np.not_equal(ranked[:, 1:], ranked[:, :-1], out=starts[:, 1:])
        first = np.where(starts, pos, 0)
        np.maximum.accumulate(first, axis=1, out=first)
        ends = np.ones((b, n), dtype=bool)
        ends[:, :-1] = starts[:, 1:]
        last = np.where(ends, pos, n)[:, ::-1]
        last = np.minimum.accumulate(last, axis=1)[:, ::-1]
        counts = np.empty((b, n), dtype=np.intp)
        np.put_along_axis(counts, order, np.minimum(last + 1, n - first),
                          axis=1)
        depth = np.minimum(depth, counts.min(axis=0))
    return np.minimum(depth / n, 0.5)


def tied_blocks(points, dirs):
    """Whether each block of directions has two equal projections."""
    proj = np.sort(points @ dirs.T, axis=0)
    tied = (proj[1:] == proj[:-1]).any(axis=0)
    return [bool(tied[j:j + validation._DEPTH_BLOCK].any())
            for j in range(0, len(dirs), validation._DEPTH_BLOCK)]


class TestCloudDepthScatter:
    """The cloud's depths by rank scatter equal the earlier route, which
    read every count off the runs of ties, to the bit."""

    @staticmethod
    def cloud(kind):
        rng = np.random.default_rng(84)
        n, d, k = 500, 3, 1000
        dirs = rng.normal(size=(k, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        if kind == "integer":
            points = rng.integers(0, 1000, size=(n, d)).astype(float)
            # an axis direction ties the integer coordinates: one in each
            # of the first six blocks of 128, none in the last two
            dirs[[0, 128, 256, 384, 512, 640]] = np.eye(d)[[0, 1, 2, 0, 1, 2]]
        else:
            points = rng.normal(size=(n, d))
        if kind == "duplicated":
            points[-40:] = points[:40]
        return points, dirs

    @pytest.mark.parametrize("kind", ["distinct", "duplicated", "integer"])
    def test_equals_the_runs_of_ties(self, kind):
        points, dirs = self.cloud(kind)
        got = tukey_depth(points, None, dirs)
        assert got.tobytes() == sorted_runs_depth(points, dirs).tobytes()
        # the case is the one it is meant to be
        tied = tied_blocks(points, dirs)
        assert len(tied) == 8
        want = {"distinct": 0, "duplicated": 8, "integer": 6}[kind]
        assert sum(tied) == want

    def test_counts_of_a_block_with_and_without_ties(self):
        proj = np.array([[3.0, 1.0, 2.0, 5.0, 4.0],
                         [3.0, 1.0, 3.0, 5.0, 1.0]])
        assert validation._cloud_depth_counts(proj[:1]).tolist() == [
            [3, 1, 2, 1, 2]]
        assert validation._cloud_depth_counts(proj).tolist() == [
            [3, 1, 2, 1, 2], [3, 2, 3, 1, 2]]


class TestTukeyDepthByRanks:
    @pytest.mark.parametrize("case", range(4))
    def test_cloud_depth_equals_searchsorted(self, case):
        pts, dirs = depth_cases()[case]
        proj = pts @ dirs.T
        want = searchsorted_depth(proj, proj)
        got = tukey_depth(pts, None, dirs)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", range(4))
    def test_query_depth_equals_searchsorted(self, case):
        pts, dirs = depth_cases()[case]
        rng = np.random.default_rng(82 + case)
        queries = np.vstack([rng.normal(size=(20, pts.shape[1])), pts[:7],
                             np.round(rng.normal(size=(5, pts.shape[1])), 1),
                             np.full((1, pts.shape[1]), 50.0)])
        want = searchsorted_depth(pts @ dirs.T, queries @ dirs.T)
        got = tukey_depth(pts, queries, dirs)
        assert got.tobytes() == want.tobytes()

    def test_query_groups_bound_the_comparisons(self, monkeypatch):
        from abckit import validation
        pts, dirs = depth_cases()[2]
        queries = pts[::3]
        want = tukey_depth(pts, queries, dirs)
        monkeypatch.setattr(validation, "_DEPTH_ELEMENTS", 1)
        assert tukey_depth(pts, queries, dirs).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_check", [None, 1, 37, 500])
    def test_pvalue_equals_searchsorted(self, n_check):
        from abckit.validation import _unit_directions
        pts, _ = depth_cases()[1]
        obs = pts[3] + 0.01
        p, depth = tukey_pvalue(pts, obs, n_check, n_projections=300, rng=83)
        dirs = _unit_directions(pts.shape[1], 300, np.random.default_rng(83))
        proj = pts @ dirs.T
        want_obs = searchsorted_depth(proj, np.atleast_2d(obs) @ dirs.T)[0]
        want_sim = searchsorted_depth(proj, proj)[:n_check or len(pts)]
        assert depth == want_obs
        assert p == float((want_sim <= want_obs).mean())


class TestFitPValues:
    @pytest.fixture(scope="class")
    def cloud(self):
        r = gaussian_cloud_retained(np.random.default_rng(84), n=60)
        return glm_fit(r), r

    @pytest.mark.parametrize("n_marginal, n_tukey, checked", [
        (None, None, 60), (30, None, 60), (None, 20, 60), (30, 40, 40),
        (45, 12, 45), (60, 60, 60)])
    def test_n_checked_is_what_was_checked(self, cloud, n_marginal, n_tukey,
                                           checked):
        fit, r = cloud
        pv = fit_pvalues(fit, r, n_marginal=n_marginal, n_tukey=n_tukey,
                         n_projections=50, rng=1)
        assert pv.n_checked == checked

    @pytest.mark.parametrize("counts", [{"n_marginal": 61}, {"n_tukey": 61},
                                        {"n_marginal": 0}, {"n_tukey": 0}])
    def test_counts_beyond_the_retained_set_raise(self, cloud, counts):
        fit, r = cloud
        with pytest.raises(ValueError, match="cannot check"):
            fit_pvalues(fit, r, n_projections=50, rng=1, **counts)


class TestMarginalDensityPValue:
    def test_centroid_observation_near_one(self):
        rng = np.random.default_rng(78)
        r = gaussian_cloud_retained(rng)
        fit = glm_fit(r)
        p, _ = marginal_density_pvalue(fit, r)
        assert p > 0.95

    def test_far_observation_zero(self):
        rng = np.random.default_rng(79)
        r = gaussian_cloud_retained(rng, obs=[10.0, 10.0])
        fit = glm_fit(r)
        p, _ = marginal_density_pvalue(fit, r)
        assert p == 0.0

    def test_uniform_over_cloud_members(self):
        from abckit.adjust import glm_log_marginal_densities

        rng = np.random.default_rng(80)
        r = gaussian_cloud_retained(rng, n=1000)
        fit = glm_fit(r)
        # the P-value of a cloud member is its density rank, which must be
        # uniform; spot-check a few members against the one-at-a-time path
        lds = glm_log_marginal_densities(fit, r, r.stats_std)
        chosen = rng.choice(1000, size=500, replace=False)
        ps = (lds[None, :] <= lds[chosen, None]).mean(axis=1)
        assert sps.kstest(ps, "uniform").pvalue > 0.01
        for i in chosen[:3]:
            got, obs_ld = marginal_density_pvalue(fit,
                                                  observed_at(r, r.stats[i]))
            # the observation and the cloud share one evidence call, so a
            # member compared with itself ties exactly
            assert obs_ld == lds[i]
            assert got == ps[list(chosen).index(i)]

    def test_every_cloud_member_ties_with_itself(self):
        from abckit.adjust import glm_log_marginal_densities

        rng = np.random.default_rng(80)
        r = gaussian_cloud_retained(rng, n=200)
        fit = glm_fit(r)
        lds = glm_log_marginal_densities(fit, r, r.stats_std)
        for i in range(r.n):
            got, obs_ld = marginal_density_pvalue(fit,
                                                  observed_at(r, r.stats[i]))
            assert obs_ld == lds[i]
            assert got == (lds <= lds[i]).mean()

    def test_n_check_bound(self):
        rng = np.random.default_rng(81)
        r = gaussian_cloud_retained(rng, n=50)
        fit = glm_fit(r)
        with pytest.raises(ValueError):
            marginal_density_pvalue(fit, r, n_check=51)


class TestCrossValidate:
    def make_table(self, rng, n=2000, noise=0.05):
        p = rng.uniform(size=n)
        s = p + noise * rng.normal(size=n)
        return SimulationTable(("p0", "s0"), np.column_stack([p, s]),
                               (0,), (1,))

    def test_prior_estimator_gives_uniform_pit(self):
        rng = np.random.default_rng(82)
        table = self.make_table(rng)
        rows = cross_validate(table, "random", 1000, rng=83,
                              estimator=uniform_prior_estimator)
        q = np.array([r.quantile["p0"] for r in rows])
        ks = sps.kstest(q, "uniform").statistic
        assert ks < 1.63 / math.sqrt(len(q))   # the 1% critical value

    def test_noiseless_linear_mode_hits_truth(self):
        rng = np.random.default_rng(84)
        table = self.make_table(rng, n=500, noise=0.0)
        settings = GlmSettings(num_retained=60, n_points=200)
        rows = cross_validate(table, "random", 20, settings, rng=85)
        for row in rows:
            assert row.error is None
            # the mode is a grid point: allow half the grid spacing
            spacing = 1.2 * 60 / 500 / 199
            assert abs(row.mode["p0"] - row.truth["p0"]) < spacing

    def test_toy_model_modes_track_truth(self, norm_table):
        rows = cross_validate(norm_table, "random", 150,
                              GlmSettings(num_retained=1000), rng=86)
        ok = [r for r in rows if r.error is None]
        truth = np.array([r.truth["mu"] for r in ok])
        mode = np.array([r.mode["mu"] for r in ok])
        assert np.corrcoef(truth, mode)[0, 1] > 0.9

    def test_retained_mode_needs_obs(self):
        rng = np.random.default_rng(87)
        with pytest.raises(ValueError):
            cross_validate(self.make_table(rng), "retained", 10)

    def test_retained_mode_picks_among_retained(self):
        rng = np.random.default_rng(88)
        table = self.make_table(rng, n=800)
        obs = ObservedStats(("s0",), np.array([0.4]))
        settings = GlmSettings(num_retained=100)
        kept = retain(table, obs, count=100).indices
        truths = table.params[kept, 0]
        rows = cross_validate(table, "retained", 30, settings, rng=89, obs=obs)
        for row in rows:
            assert row.truth["p0"] in truths

    def test_estimator_failures_recorded(self):
        rng = np.random.default_rng(90)
        table = self.make_table(rng, n=100)

        # a replicate may run in a forked child, so the failures are
        # planted by the left-out row: the even ones of the rows chosen
        # (33 66 85 28 78 10 83 79 49 26)
        def flaky(t, pseudo, exclude):
            if exclude % 2 == 0:
                raise NumericalError(f"boom {exclude}")
            return uniform_prior_estimator(t, pseudo, exclude)

        rows = cross_validate(table, "random", 10, rng=91, estimator=flaky)
        chosen = np.random.default_rng(91).choice(np.arange(100), size=10,
                                                  replace=False)
        assert [r.truth["p0"] for r in rows] == table.params[chosen, 0].tolist()
        assert [r.error for r in rows] == [
            None if i % 2 else f"boom {i}" for i in chosen]
        assert sum(r.error is not None for r in rows) == 5
        assert sum(r.error is None for r in rows) == 5

    def test_validation_table_layout(self):
        row = ValidationRow({"a": 1.0}, {"a": 2.0}, {"a": 3.0}, {"a": 4.0},
                            {"a": 0.5}, {"a": 0.9})
        header, rows = validation_table([row], ("a",))
        assert header == ["a", "a_mode", "a_mean", "a_median", "a_quantile",
                          "a_HDI"]
        assert rows == [[1.0, 2.0, 3.0, 4.0, 0.5, 0.9]]


def without_row(table, i):
    return take_rows(table, np.delete(np.arange(table.n_rows), i))


def copying_estimator(settings):
    """The default estimator, fitted on a copy of the table without the
    left-out row."""
    def estimate(table, pseudo, exclude):
        scale = (None if settings.standardize
                 else Standardizer.identity(table.stat_names))
        r = retain(without_row(table, exclude), pseudo,
                   settings.num_retained, scale)
        return glm_posterior(glm_fit(r), r, n_points=settings.n_points,
                             dirac_peak_width=settings.dirac_peak_width)
    return estimate


class TestLeaveOneOutLoops:
    """The validation loops leave rows out with ``exclude=`` and give what
    copying the tables without those rows gives, to the last bit."""

    @pytest.mark.parametrize("mode, standardize", [
        ("random", True), ("retained", True), ("random", False),
        ("retained", False)],
        ids=["random", "retained", "random-raw", "retained-raw"])
    def test_cross_validate_matches_copies(self, norm_table, toy_obs, mode,
                                           standardize):
        table = take_rows(norm_table, np.arange(2000))
        settings = GlmSettings(num_retained=200, n_points=50,
                               standardize=standardize)
        obs = toy_obs if mode == "retained" else None
        got = cross_validate(table, mode, 15, settings, rng=41, obs=obs)
        want = cross_validate(table, mode, 15, settings, rng=41, obs=obs,
                              estimator=copying_estimator(settings))
        assert all(row.error is None for row in got)
        assert got == want

    @pytest.mark.parametrize("settings", [
        GlmSettings(num_retained=100),
        GlmSettings(num_retained=40),
        GlmSettings(num_retained=100, dirac_peak_width=0.05),
        GlmSettings(num_retained=100, standardize=False),
    ])
    def test_model_choice_validate_matches_copies(self, settings):
        tables = two_tables(np.random.default_rng(42), separation=1.0)
        _, got = model_choice_validate(tables, 20, settings, rng=43)
        rng = np.random.default_rng(43)
        want = []
        for m, table in enumerate(tables):
            for i in rng.choice(table.n_rows, size=20, replace=False):
                pseudo = ObservedStats(table.stat_names, table.stats[i])
                trimmed = list(tables)
                trimmed[m] = without_row(table, i)
                result = glm_model_choice(trimmed, pseudo,
                                          settings.num_retained,
                                          settings.dirac_peak_width,
                                          standardize=settings.standardize)
                want.append((m, result.probabilities))
        assert len(got) == len(want) == 40
        for (m, probs), (m_want, probs_want) in zip(got, want):
            assert m == m_want
            np.testing.assert_array_equal(probs, probs_want)


class TestCoverage:
    def make_rows(self, qs):
        return [ValidationRow({"a": 0.0}, quantile={"a": q}, hdi={"a": q})
                for q in qs]

    def test_evenly_spaced_input_passes(self):
        rows = self.make_rows((np.arange(100) + 0.5) / 100)
        t = coverage_tests(rows)["a"]
        assert t["quantile_p"] > 0.99 and t["hdi_p"] > 0.99

    def test_constant_input_fails(self):
        rows = self.make_rows(np.full(100, 0.5))
        t = coverage_tests(rows)["a"]
        assert t["quantile_p"] < 1e-6

    def test_needs_rows(self):
        with pytest.raises(ValueError):
            coverage_tests(self.make_rows([0.5] * 5))


class TestSimulationBasedCalibration:
    """SBC (Talts et al. 2018) of the ABC-GLM posterior: with truths drawn
    from the prior, the posterior quantile of each truth and the smallest
    credible level containing it are both uniform on [0, 1] when the
    posterior is right.  The model is conjugate normal, ``theta ~ N(0, 1)``
    with the statistics ``theta + N(0, 0.5^2)`` and ``theta + N(0, 1)``, on
    which the local likelihood is exactly linear and Gaussian.  The seeds,
    the 400 replicates and the 1% threshold were fixed before the first
    run."""

    SEED = 20261018
    THRESHOLD = 0.01

    def test_glm_posterior_quantiles_are_uniform(self):
        rng = np.random.default_rng(self.SEED)
        n = 5000
        theta = rng.normal(size=n)
        stats = theta[:, None] + rng.normal(size=(n, 2)) * [0.5, 1.0]
        table = SimulationTable(("p0", "s0", "s1"),
                                np.column_stack([theta, stats]), (0,), (1, 2))
        rows = cross_validate(table, "random", 400,
                              GlmSettings(num_retained=500), rng=self.SEED + 1)
        assert all(r.error is None for r in rows)
        tests = coverage_tests(rows)["p0"]
        assert tests["quantile_p"] > self.THRESHOLD
        assert tests["hdi_p"] > self.THRESHOLD


# (n, d) points reaching every branch of the method selection of the exact
# two-sided KS survival function, with points just either side of each
# threshold: on n (140, 100000), on n d (1/2, 1, n - 1), on d (1/2), on
# n d^2 (0.754693, 4 for n <= 140; 2.2, 370 above) and on n d^1.5 (1.4)
def _either_side(n, d):
    return [(n, d * f) for f in (0.99, 0.999999, 1.0, 1.000001, 1.01)]


KS_BRANCH_POINTS = [
    (20, 0.0), (20, 0.025), (20, 1.0), (20, 1.5), (1, 0.7), (2, 0.8),
    # just above 1/(2n), where n d rounds back down to 1/2
    (21, float(np.nextafter(0.5 / 21, 1.0))),
    *_either_side(20, 0.5 / 20), *_either_side(500, 0.5 / 500),
    *_either_side(20, 1 / 20), *_either_side(140, 1 / 140),
    *_either_side(141, 1 / 141), *_either_side(2000, 1 / 2000),
    (140, 0.006), (141, 0.006), (145, 0.0063),
    *_either_side(20, 19 / 20), *_either_side(3, 2 / 3),
    *_either_side(20, 0.5), *_either_side(500, 0.5),
    *_either_side(20, math.sqrt(0.754693 / 20)),
    *_either_side(140, math.sqrt(0.754693 / 140)),
    *_either_side(20, math.sqrt(4 / 20)),
    *_either_side(140, math.sqrt(4 / 140)),
    (20, 0.45), (140, 0.3), (21, 0.15), (40, 0.2),
    *_either_side(500, math.sqrt(370 / 500)),
    *_either_side(2000, math.sqrt(370 / 2000)),
    *_either_side(500, math.sqrt(2.2 / 500)),
    *_either_side(2000, math.sqrt(2.2 / 2000)),
    *_either_side(500, (1.4 / 500) ** (2 / 3)),
    *_either_side(2000, (1.4 / 2000) ** (2 / 3)),
    (500, 0.01), (500, 0.05), (2000, 0.02), (141, 0.05), (141, 0.1),
    (100000, 1e-4), (100001, 1e-4), (200000, 0.002),
    # Pelz-Good below z = 0.0417, where its series underflows
    (200000, 1e-5),
]


class TestKolmogorovSmirnov:
    def test_sf_equals_scipy_at_every_branch(self):
        wrong = [(n, d) for n, d in KS_BRANCH_POINTS
                 if kstwo_sf(d, n).hex() != float(sps.kstwo.sf(d, n)).hex()]
        assert wrong == []

    def test_sf_equals_scipy_on_random_points(self):
        rng = np.random.default_rng(95)
        for n in (1, 5, 20, 21, 40, 139, 140, 141, 500, 2000):
            for d in np.concatenate([rng.uniform(0, 1, 40),
                                     rng.uniform(0, 3 / math.sqrt(n), 40),
                                     rng.uniform(0.3 / n, 3 / n, 20)]):
                want = float(sps.kstwo.sf(d, n))
                assert kstwo_sf(d, n).hex() == want.hex(), (n, d)

    def test_nan_statistic(self):
        assert math.isnan(kstwo_sf(math.nan, 20))

    @staticmethod
    def sample(kind, n, rng):
        if kind == "uniform":
            x = rng.uniform(size=n)
        elif kind == "skewed":
            x = rng.beta(1.3, 1.0, size=n)
        elif kind == "ties":
            x = np.round(rng.uniform(0.3, 0.7, size=n), 1)
        else:
            # piled 1 ulp above 1, and no value at 1: the statistic is
            # read at the first value of the pile, where the CDF clips
            x = rng.uniform(0.5, 0.9, size=n)
            x[0] = 0.0
            x[1: int(0.6 * n)] = np.nextafter(1.0, 2.0)
            return x
        x[:3] = [0.0, 1.0, np.nextafter(1.0, 2.0)]
        x[3] = x[4]
        return rng.permutation(x)

    @pytest.mark.parametrize("n", [20, 21, 40, 140, 141, 500, 2000])
    def test_coverage_tests_equal_scipy_kstest(self, n):
        rng = np.random.default_rng(n)
        for kinds in (("uniform", "skewed"), ("ties", "top")):
            q, h = (self.sample(kind, n, rng) for kind in kinds)
            rows = [ValidationRow({"a": 0.0}, quantile={"a": qi},
                                  hdi={"a": hi}) for qi, hi in zip(q, h)]
            got = coverage_tests(rows)["a"]
            for col, key in ((q, "quantile"), (h, "hdi")):
                want = sps.kstest(col, "uniform")
                assert got[f"{key}_ks"].hex() == float(want.statistic).hex()
                assert got[f"{key}_p"].hex() == float(want.pvalue).hex()


class TestModelChoiceValidation:
    def test_indistinguishable_models_near_half(self):
        rng = np.random.default_rng(92)
        tables = two_tables(rng)
        settings = GlmSettings(num_retained=100)
        cm, raw = model_choice_validate(tables, 100, settings, rng=93)
        assert cm.counts.sum(axis=1).tolist() == [100, 100]
        assert 0.35 < cm.overall_accuracy < 0.65
        assert len(raw) == 200
        for _, probs in raw:
            assert probs.sum() == pytest.approx(1.0)

    def test_disjoint_models_perfect(self):
        rng = np.random.default_rng(94)
        tables = []
        for m in range(3):
            p = rng.uniform(size=(200, 1))
            s = 100.0 * m + 0.1 * rng.normal(size=(200, 2))
            tables.append(SimulationTable(("t", "s0", "s1"),
                                          np.column_stack([p, s]),
                                          (0,), (1, 2)))
        settings = GlmSettings(num_retained=50)
        cm, _ = model_choice_validate(tables, 40, settings, rng=95)
        assert cm.overall_accuracy == 1.0
        np.testing.assert_allclose(cm.per_model_accuracy, 1.0)

    def test_former_settings_call(self):
        # the one call perfbench/workloads.py makes
        dirac = 0.003
        settings = ModelChoiceSettings("glm", 50, None, dirac)
        assert settings == GlmSettings(50, dirac_peak_width=dirac)
        tables = two_tables(np.random.default_rng(96), separation=1.0)
        cm, raw = model_choice_validate(tables, 10, settings, rng=97)
        cm_want, raw_want = model_choice_validate(
            tables, 10, GlmSettings(50, dirac_peak_width=dirac), rng=97)
        np.testing.assert_array_equal(cm.counts, cm_want.counts)
        for (m, probs), (m_want, probs_want) in zip(raw, raw_want, strict=True):
            assert m == m_want
            np.testing.assert_array_equal(probs, probs_want)
        with pytest.raises(ValueError, match="rejection"):
            ModelChoiceSettings("rejection", 50, None, dirac)
        with pytest.raises(ValueError, match="tol=0.1"):
            ModelChoiceSettings("glm", 50, 0.1, dirac)

    def test_n_val_bound(self):
        rng = np.random.default_rng(98)
        tables = two_tables(rng, separation=1.0)
        with pytest.raises(ValueError):
            model_choice_validate(tables, 401, rng=99)


class TestModelChoiceCalibration:
    """Calibration of the ABC-GLM model probabilities: among
    pseudo-observations given probability p for model 0, a share near p
    comes from model 0.  Both models have the parameter ``t ~ U(0, 2)`` and
    the statistics ``(t, c_m) + N(0, 0.5^2 I)`` with ``c = (0, 1)``, so the
    local likelihood of each is exactly linear and Gaussian, and the second
    statistic alone tells the models apart.  Equal draws per model make the
    model prior uniform, as ``glm_model_choice`` assumes.  The raw rows are
    binned by p0 into five equal bins; each bin of at least 20 rows must
    hold a share of model-0 rows within 3 binomial standard errors of its
    mean p0.  The seeds, sizes, bins and bound were fixed before the first
    run."""

    SEED = 20261020
    ROWS, RETAINED, N_VAL = 3000, 300, 300
    EDGES = np.linspace(0.0, 1.0, 6)
    MIN_ROWS, BOUND = 20, 3.0

    def test_model_probabilities_are_calibrated(self):
        rng = np.random.default_rng(self.SEED)
        tables = []
        for c in (0.0, 1.0):
            t = rng.uniform(0.0, 2.0, self.ROWS)
            s = np.column_stack([t, np.full(self.ROWS, c)])
            s += 0.5 * rng.normal(size=(self.ROWS, 2))
            tables.append(SimulationTable(("t", "s0", "s1"),
                                          np.column_stack([t, s]),
                                          (0,), (1, 2)))
        settings = GlmSettings(num_retained=self.RETAINED)
        _, raw = model_choice_validate(tables, self.N_VAL, settings,
                                       rng=self.SEED + 1)
        truth = np.array([m == 0 for m, _ in raw], dtype=float)
        p0 = np.array([probs[0] for _, probs in raw])
        bins = np.clip(np.digitize(p0, self.EDGES) - 1, 0, len(self.EDGES) - 2)
        checked = 0
        for b in range(len(self.EDGES) - 1):
            inside = bins == b
            n = int(inside.sum())
            if n < self.MIN_ROWS:
                continue
            checked += 1
            mean_p = p0[inside].mean()
            se = np.sqrt(mean_p * (1.0 - mean_p) / n)
            share = truth[inside].mean()
            assert abs(share - mean_p) <= self.BOUND * se, (b, n, share,
                                                            mean_p)
        assert checked >= 3


def k_tables(rng, n=300):
    """Two models whose parameter ``K`` takes the values 0 and 1 alone, so
    a query whose few retained rows share one ``K`` cannot be fitted."""
    out = []
    for m in range(2):
        t = rng.uniform(size=n)
        k = rng.integers(0, 2, size=n)
        s = np.column_stack([t + rng.normal(size=n),
                             0.5 * m + rng.normal(size=n)])
        out.append(SimulationTable(("t", "K", "s0", "s1"),
                                   np.column_stack([t, k, s]), (0, 1), (2, 3)))
    return out


class TestFailureRule:
    """One failure rule for every validation: an ``AbckitError`` of one
    query is a warning, in item order, and leaves that query out; a
    validation whose every query fails raises the first error."""

    def queries_alone(self, tables, n_val, count, seed):
        """Each query of ``model_choice_validate(..., rng=seed)`` run by
        ``glm_model_choice`` alone: ``(model, probabilities or error)``."""
        rng = np.random.default_rng(seed)
        draws = [(m, rng.choice(t.n_rows, size=n_val, replace=False))
                 for m, t in enumerate(tables)]
        out = []
        for m, rows in draws:
            for row in rows:
                pseudo = ObservedStats(tables[m].stat_names,
                                       tables[m].stats[row])
                try:
                    out.append((m, glm_model_choice(
                        tables, pseudo, count, exclude=(m, int(row))
                    ).probabilities))
                except NumericalError as exc:
                    out.append((m, exc))
        return out

    def test_model_choice_validation_leaves_failed_queries_out(
            self, workers, caplog):
        tables = k_tables(np.random.default_rng(0))
        want = self.queries_alone(tables, 10, 4, seed=100)
        failed = [str(r) for _, r in want if isinstance(r, NumericalError)]
        assert 0 < len(failed) < len(want)
        with caplog.at_level(logging.WARNING):
            cm, raw = model_choice_validate(tables, 10, GlmSettings(4),
                                            rng=100)
        assert [r.getMessage() for r in caplog.records] == [
            f"model choice validation query failed: {e}" for e in failed]
        kept = [(m, p) for m, p in want if not isinstance(p, NumericalError)]
        assert len(raw) == len(kept)
        for (m, probs), (m_want, probs_want) in zip(raw, kept):
            assert m == m_want
            assert probs.tobytes() == probs_want.tobytes()
        counts = np.zeros((2, 2), dtype=int)
        for m, probs in kept:
            counts[m, np.argmax(probs)] += 1
        np.testing.assert_array_equal(cm.counts, counts)

    def test_model_choice_validation_whose_every_query_fails_raises(self):
        tables = k_tables(np.random.default_rng(0))
        constant = [SimulationTable(t.names, np.column_stack(
            [t.values[:, 0], np.zeros(t.n_rows), t.values[:, 2:]]),
            t.param_idx, t.stat_idx) for t in tables]
        with pytest.raises(NumericalError, match="constant .*: K$"):
            model_choice_validate(constant, 5, GlmSettings(20), rng=1)

    def test_cross_validation_whose_every_replicate_fails_raises(
            self, workers):
        def estimator(table, pseudo, exclude):
            raise NumericalError(f"row {exclude}")

        table = TestCrossValidate().make_table(np.random.default_rng(5),
                                               n=100)
        first = np.random.default_rng(6).choice(100, size=4, replace=False)[0]
        with pytest.raises(NumericalError, match=f"^row {first}$"):
            cross_validate(table, "random", 4, rng=6, estimator=estimator)


def reference_greedy_search(tables, n_val, settings, max_cor, rng):
    """The greedy search scoring one subset at a time, each validated on
    copies of the tables with its statistics alone.  Returns the power of
    every subset and the subsets each step scored, in order."""
    rng = np.random.default_rng(rng)
    names = list(tables[0].stat_names)
    corr = abs_correlations(tables, names)
    idx_of = {n: i for i, n in enumerate(names)}
    evaluated, steps = {}, [[]]

    def power(subset):
        if subset not in evaluated:
            cm, _ = model_choice_validate(
                [t.with_stats(subset) for t in tables], n_val, settings, rng)
            evaluated[subset] = cm.overall_accuracy
            steps[-1].append(subset)
        return evaluated[subset]

    current = (max(names, key=lambda n: power((n,))),)
    while True:
        candidates = [current + (n,) for n in names if n not in current
                      and not any(corr[idx_of[n], idx_of[m]] > max_cor
                                  for m in current)]
        if not candidates:
            break
        steps.append([])
        best = max(candidates, key=power)
        if power(best) - power(current) < MIN_GAIN:
            break
        current = best
    return evaluated, steps


class TestBatchedGreedySearch:
    """The greedy search scores each step's subsets with one fork-map, on
    column selections, and finds what scoring them one by one on copies
    finds, to the last bit, at any number of CPUs."""

    N_VAL = 8
    SETTINGS = GlmSettings(num_retained=60)

    def make_tables(self, n=300):
        # weakly informative statistics, and s1copy an exact copy of s1
        rng = np.random.default_rng(4)
        tables = []
        for m in range(2):
            t = rng.uniform(size=n)
            s = 0.35 * m + rng.normal(size=(n, 4)) + 0.3 * t[:, None]
            tables.append(SimulationTable(
                ("t", "s0", "s1", "s2", "s3", "s1copy"),
                np.column_stack([t, s, s[:, 1]]), (0,), tuple(range(1, 6))))
        return tables

    def test_batched_scores_equal_the_one_by_one_loop(self, workers,
                                                      monkeypatch):
        tables = self.make_tables()
        calls = []
        fork_map = forkmap.fork_map

        def counting_fork_map(fn, items):
            items = list(items)
            calls.append(len(items))
            return fork_map(fn, items)

        if workers == 2:
            handshake, choose = Handshake(), validation.glm_model_choice

            def glm_model_choice(*args):
                handshake.in_child()
                return choose(*args)

            monkeypatch.setattr(validation, "glm_model_choice",
                                glm_model_choice)
        monkeypatch.setattr(forkmap, "fork_map", counting_fork_map)
        results = greedy_search(tables, self.N_VAL, self.SETTINGS, 1.0,
                                rng=104)
        monkeypatch.undo()     # the reference below runs the originals
        monkeypatch.setattr(forkmap, "cpu_count", lambda: 1)
        want, steps = reference_greedy_search(tables, self.N_VAL,
                                              self.SETTINGS, 1.0, 104)
        # a free search of at least three scored steps, one of which has
        # a tie for the best subset
        assert len(steps) >= 3
        assert any(sum(want[s] == max(want[s] for s in step) for s in step)
                   > 1 for step in steps)
        assert [(r.names, r.power.hex()) for r in results] == sorted(
            ((s, p.hex()) for s, p in want.items()),
            key=lambda item: (-float.fromhex(item[1]), len(item[0])))
        assert calls == [len(step) * 2 * self.N_VAL for step in steps]

    def test_subset_power_is_the_one_subset_case(self, workers):
        tables = self.make_tables()
        names = ("s3", "s0")
        cm, _ = model_choice_validate([t.with_stats(names) for t in tables],
                                      self.N_VAL, self.SETTINGS, rng=105)
        got = subset_power(tables, names, self.N_VAL, self.SETTINGS, rng=105)
        assert got.hex() == cm.overall_accuracy.hex()

    def test_subset_missing_from_a_table_fails_before_any_query(
            self, monkeypatch):
        tables = self.make_tables()
        maps = []
        monkeypatch.setattr(forkmap, "fork_map",
                            lambda fn, items: maps.append(items))
        with pytest.raises(TableFormatError, match="not in table: nope"):
            validation.model_choice_validations(
                tables, [("s1",), ("s2", "nope")], self.N_VAL, self.SETTINGS,
                rng=107)
        assert maps == []

    def test_validations_split_back_per_subset(self):
        tables = self.make_tables()
        subsets = [("s1",), tables[0].stat_names, ("s2", "s1copy")]
        got = validation.model_choice_validations(
            tables, subsets, self.N_VAL, self.SETTINGS, rng=106)
        rng = np.random.default_rng(106)
        assert len(got) == len(subsets)
        for names, (cm, raw) in zip(subsets, got):
            restricted = [t.with_stats(names) for t in tables]
            cm_want, raw_want = model_choice_validate(
                restricted, self.N_VAL, self.SETTINGS, rng)
            np.testing.assert_array_equal(cm.counts, cm_want.counts)
            assert [(m, p.tobytes()) for m, p in raw] == [
                (m, p.tobytes()) for m, p in raw_want]
