import numpy as np
import pytest
from scipy import stats as sps

from abckit.errors import NumericalError, TableFormatError
from abckit.statselect import (LAMBDA_GRID, LAMBDA_SNAP, BoxCoxSpec,
                               LinearCombDef, _dominant_eigenvector,
                               _kernel_pls, boost, boost_observed, fit_boxcox,
                               fit_pls, transform)
from abckit.tableio import ObservedStats, SimulationTable

from conftest import make_toy_table

SIZES = (20, 37, 100, 333, 1000, 5000)


def oracle_lambda(y):
    """Grid argmax of scipy's profile log-likelihood, snapped like
    ``fit_boxcox``; ``y`` holds one column per statistic."""
    lls = np.array([sps.boxcox_llf(lam, y, axis=0) for lam in LAMBDA_GRID])
    lamb = LAMBDA_GRID[np.argmax(lls, axis=0)]
    return np.where(np.abs(lamb) < LAMBDA_SNAP, 0.0, lamb)


def sample_columns(rng, n):
    """Six columns of each kind: normal, gamma, lognormal, heavy-tailed,
    near-constant and mostly-tied."""
    k = 6
    near_constant = 1e3 + 1e-9 * rng.normal(size=(n, k))
    tied = np.where(rng.random((n, k)) < 0.9, 2.5, rng.normal(size=(n, k)))
    tied[:2] = [[2.0], [3.0]]          # every column keeps a range
    return np.column_stack([
        rng.normal(rng.uniform(-5, 5, k), rng.uniform(0.1, 10, k), (n, k)),
        rng.gamma(rng.uniform(0.3, 5, k), size=(n, k)),
        rng.lognormal(0.0, rng.uniform(0.1, 2.0, k), (n, k)),
        rng.standard_t(rng.uniform(1.0, 3.0, k), (n, k)),
        near_constant,
        tied,
    ])


def scalar_normalize(x, spec):
    """One statistic normalized the way the transform is defined, with
    scalar exponents."""
    y = 1.0 + (np.asarray(x, dtype=float) - spec.vmin) / (spec.vmax - spec.vmin)
    if spec.lamb == 0:
        bc = np.log(y) * spec.gm
    else:
        bc = (y**spec.lamb - 1.0) / (spec.lamb * spec.gm**(spec.lamb - 1.0))
    return (bc - spec.mean) / spec.sd


def grid_definition(rng, n_components=2):
    """One statistic per grid lambda, with random transform numbers."""
    m = LAMBDA_GRID.size
    specs = tuple(BoxCoxSpec(vmax=float(lo + w), vmin=float(lo), lamb=float(lam),
                             gm=float(g), mean=float(mu), sd=float(sd))
                  for lo, w, lam, g, mu, sd in zip(
                      rng.normal(0, 5, m), rng.uniform(0.1, 20, m), LAMBDA_GRID,
                      rng.uniform(1.0, 2.0, m), rng.normal(size=m),
                      rng.uniform(0.1, 3, m)))
    names = tuple(f"s{j}" for j in range(m))
    return LinearCombDef(names, specs, rng.normal(size=(m, n_components)))


def definition_rows(comb, rng, n):
    """In-domain statistics: y between 0.5 and 2.5."""
    c = np.array([[s.vmin, s.vmax] for s in comb.boxcox])
    y = rng.uniform(0.5, 2.5, (n, len(comb.stat_names)))
    return c[:, 0] + (y - 1.0) * (c[:, 1] - c[:, 0])


class TestFitBoxCox:
    def test_lambda_matches_scipy_argmax(self):
        rng = np.random.default_rng(7)
        n_columns = 0
        for n in SIZES:
            x = sample_columns(rng, n)
            y = 1.0 + (x - x.min(axis=0)) / (x.max(axis=0) - x.min(axis=0))
            got = [fit_boxcox(x[:, j], f"s{j}").lamb for j in range(x.shape[1])]
            np.testing.assert_array_equal(got, oracle_lambda(y))
            n_columns += x.shape[1]
        assert n_columns >= 200

    def test_spec_standardizes_the_fitted_values(self):
        x = np.random.default_rng(8).gamma(2.0, size=400)
        spec = fit_boxcox(x, "g")
        z = spec.apply(x, "g")
        assert spec.vmin == x.min() and spec.vmax == x.max()
        assert spec.gm == pytest.approx(np.exp(np.log(
            1.0 + (x - x.min()) / np.ptp(x)).mean()))
        assert abs(z.mean()) < 1e-12 and z.std() == pytest.approx(1.0)
        np.testing.assert_array_equal(z, scalar_normalize(x, spec))

    def test_constant_statistic_raises(self):
        with pytest.raises(NumericalError, match="flat: constant"):
            fit_boxcox(np.full(10, 3.0), "flat")


class TestNormalized:
    @pytest.mark.parametrize("n", [1, 7, 1000])
    def test_batch_equals_each_column_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        comb = grid_definition(rng)
        x = definition_rows(comb, rng, n)
        z = comb.normalized(x)
        assert {0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0} <= set(LAMBDA_GRID)
        for j, (name, spec) in enumerate(zip(comb.stat_names, comb.boxcox)):
            np.testing.assert_array_equal(z[:, j], spec.apply(x[:, j], name))
            np.testing.assert_array_equal(z[:, j], scalar_normalize(x[:, j], spec))

    def test_without_boxcox_passes_values_through(self):
        rng = np.random.default_rng(3)
        comb = grid_definition(rng)
        x = definition_rows(comb, rng, 5)
        np.testing.assert_array_equal(comb.normalized(x, apply_boxcox=False), x)
        np.testing.assert_array_equal(comb.scores(x, 1, apply_boxcox=False),
                                      x @ comb.loadings[:, :1])

    def test_out_of_domain_names_statistic_and_row(self):
        rng = np.random.default_rng(4)
        comb = grid_definition(rng)
        x = definition_rows(comb, rng, 6)
        spec = comb.boxcox[5]
        x[3, 5] = spec.vmin - 2.0 * (spec.vmax - spec.vmin)   # y = -1
        x[4, 9] = comb.boxcox[9].vmin - 5.0 * (comb.boxcox[9].vmax
                                               - comb.boxcox[9].vmin)
        with pytest.raises(TableFormatError,
                           match=r"^s5: value .* at row 4 outside the "
                                 r"transform domain$"):
            comb.normalized(x)
        with pytest.raises(TableFormatError, match="at row 4 outside"):
            spec.apply(x[:, 5], "s5")

    def test_degenerate_range_raises_in_column_order(self):
        rng = np.random.default_rng(5)
        comb = grid_definition(rng)
        specs = list(comb.boxcox)
        specs[7] = BoxCoxSpec(1.0, 1.0, 0.0, 1.5, 0.0, 1.0)
        bad = LinearCombDef(comb.stat_names, tuple(specs), comb.loadings)
        x = definition_rows(comb, rng, 3)
        with pytest.raises(NumericalError, match="^s7: degenerate range"):
            bad.normalized(x)
        x[0, 2] = specs[2].vmin - 3.0 * (specs[2].vmax - specs[2].vmin)
        with pytest.raises(TableFormatError, match="^s2: value"):
            bad.normalized(x)


class TestLinearCombDef:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        comb = grid_definition(rng, n_components=3)
        path = comb.save(tmp_path / "def.txt")
        back = LinearCombDef.load(path)
        assert back.stat_names == comb.stat_names
        assert back.n_components == 3
        for a, b in zip(back.boxcox, comb.boxcox):
            np.testing.assert_allclose(
                [a.vmax, a.vmin, a.lamb, a.gm, a.mean, a.sd],
                [b.vmax, b.vmin, b.lamb, b.gm, b.mean, b.sd], rtol=1e-11)
        np.testing.assert_allclose(back.loadings, comb.loadings, rtol=1e-11)
        assert back.save(tmp_path / "again.txt").read_text() == path.read_text()
        x = definition_rows(comb, rng, 20)
        np.testing.assert_allclose(back.scores(x), comb.scores(x),
                                   rtol=1e-8, atol=1e-8)

    @pytest.mark.parametrize("text, message", [
        ("", "empty definition"),
        ("a 1 0 0 1 0 1\n", "six transform numbers"),
        ("a 1 0 0 1 0 1 x\n", "non-numeric"),
        ("a 2 1 0 1 0 1 0.5\nb 2 1 0 1 0 1 0.5 0.1\n", "inconsistent"),
        ("a 2 1 0 1 0 1 1\nb 2 1 0.5 -1 0 1 1\n", ":2: Box-Cox numbers need"),
        ("a 2 1 1 1 0 0 1\n", "positive geometric mean and sd"),
        ("a 2 1 0 1 0 1 1\nb 2 1 0 1 0 1 nan\n", "def.txt:2: non-finite"),
        ("a inf 1 0 1 0 1 1\n", "def.txt:1: non-finite"),
    ])
    def test_load_rejects_malformed_files(self, tmp_path, text, message):
        path = tmp_path / "def.txt"
        path.write_text(text)
        with pytest.raises(TableFormatError, match=message):
            LinearCombDef.load(path)

    def test_needs_one_transform_per_statistic(self):
        spec = BoxCoxSpec(2.0, 1.0, 0.0, 1.4, 0.0, 1.0)
        with pytest.raises(TableFormatError, match="Box-Cox row"):
            LinearCombDef(("a", "b"), (spec,), np.ones((2, 1)))


class TestTransform:
    def table_and_definition(self):
        rng = np.random.default_rng(9)
        comb = grid_definition(rng, n_components=2)
        stats = definition_rows(comb, rng, 30)
        extra = rng.normal(size=(30, 1))
        params = rng.normal(size=(30, 2))
        names = ("p0", "p1") + comb.stat_names[::-1] + ("other",)
        values = np.column_stack([params, stats[:, ::-1], extra])
        m = len(comb.stat_names)
        table = SimulationTable(names, values, (0, 1), tuple(range(2, m + 3)))
        return table, comb

    @pytest.mark.parametrize("apply_boxcox", [True, False])
    def test_table_row_equals_observation(self, apply_boxcox):
        table, comb = self.table_and_definition()
        out = transform(table, comb, apply_boxcox=apply_boxcox)
        assert out.names == ("p0", "p1", "other", "LinearCombination_1",
                             "LinearCombination_2")
        assert out.param_idx == (0, 1) and out.stat_idx == (2, 3, 4)
        stat_names = table.names[2:]
        for i in (0, 13, 29):
            obs = ObservedStats(stat_names, table.values[i, 2:])
            got = transform(obs, comb, apply_boxcox=apply_boxcox)
            assert got.names == out.names[2:]
            assert got.values[0] == out.values[i, 2]
            np.testing.assert_allclose(got.values[1:], out.values[i, 3:],
                                       rtol=1e-12, atol=1e-12)

    def test_fewer_components(self):
        table, comb = self.table_and_definition()
        out = transform(table, comb, n_components=1)
        assert out.names[-1] == "LinearCombination_1"
        np.testing.assert_allclose(
            out.values[:, -1],
            transform(table, comb).values[:, -2], rtol=1e-12, atol=1e-12)

    def test_missing_statistics(self):
        table, comb = self.table_and_definition()
        obs = ObservedStats(("s0", "other"), [1.0, 2.0])
        with pytest.raises(TableFormatError, match="missing from observation"):
            transform(obs, comb)
        with pytest.raises(TableFormatError, match="missing from table"):
            transform(table.with_stats(["s0"]), comb)


class TestBoost:
    def test_products_and_observation_agree(self):
        rng = np.random.default_rng(10)
        names = ("p", "a", "b", "c")
        table = SimulationTable(names, rng.normal(size=(4, 4)), (0,), (1, 2, 3))
        out = boost(table)
        assert out.stat_names == ("a", "b", "c", "a_X_a", "a_X_b", "a_X_c",
                                  "b_X_b", "b_X_c", "c_X_c")
        v = table.values
        np.testing.assert_array_equal(out.values[:, -4], v[:, 1] * v[:, 3])
        obs = boost_observed(ObservedStats(("a", "b", "c"), v[2, 1:]))
        assert obs.names == out.stat_names
        np.testing.assert_array_equal(obs.values, out.values[2, 1:])


class TestPls:
    def test_kernel_pls_recovers_rank_k_problem(self):
        rng = np.random.default_rng(12)
        n, m, p, k = 300, 8, 2, 3
        t_true = rng.normal(size=(n, k))
        x = t_true @ rng.normal(size=(k, m))
        y = t_true @ rng.normal(size=(k, p))
        x -= x.mean(axis=0)
        y -= y.mean(axis=0)
        r, q = _kernel_pls(x.T @ x, x.T @ y, k)
        t = x @ r
        # the scores are orthogonal, span the latent space and reproduce
        # the data
        np.testing.assert_allclose(np.triu(t.T @ t, 1), 0.0, atol=1e-8)
        pl = x.T @ t / (t * t).sum(axis=0)
        np.testing.assert_allclose(t @ pl.T, x, atol=1e-9)
        np.testing.assert_allclose(t @ q.T, y, atol=1e-9)
        want_r, want_q = exact_pls(x, y, k)
        sign = np.sign((r * want_r).sum(axis=0))
        np.testing.assert_allclose(r * sign, want_r, atol=1e-9)
        np.testing.assert_allclose(q * sign, want_q, atol=1e-9)

    @pytest.mark.parametrize("k_max, cv_folds, arg", [
        (0, 5, "k_max"), (3, 1, "cv_folds"), (3, 0, "cv_folds")])
    def test_fit_pls_rejects_bad_counts(self, k_max, cv_folds, arg):
        table = make_toy_table("normal", 100, 4)
        with pytest.raises(ValueError, match=f"^{arg} must be at least"):
            fit_pls(table, k_max, cv_folds, rng=1)

    @pytest.mark.parametrize("n, k_max, cv_folds, n_train", [
        (8, 5, 2, 4),      # each fold trains on 4 rows, rank 3
        (9, 4, 2, 4),      # folds of 5 and 4 rows: the smallest trains k_max
        (10, 6, 3, 6)])    # folds of 4, 3 and 3 rows
    def test_fit_pls_rejects_folds_below_k_max_plus_one(self, n, k_max,
                                                        cv_folds, n_train):
        table = make_toy_table("normal", n, 1)
        with pytest.raises(ValueError,
                           match=f"smallest training fold has {n_train} rows"):
            fit_pls(table, k_max, cv_folds, rng=1)

    @pytest.mark.parametrize("n, k_max, cv_folds", [(10, 4, 2), (10, 5, 3)])
    def test_fit_pls_accepts_a_fold_of_k_max_plus_one(self, n, k_max,
                                                     cv_folds):
        # the smallest training fold has exactly k_max + 1 rows
        res = fit_pls(make_toy_table("normal", n, 1), k_max, cv_folds, rng=1)
        assert res.rmsep.shape == (k_max, 2)
        assert np.isfinite(res.rmsep).all()

    def test_fit_pls_scores_match_transform(self):
        rng = np.random.default_rng(13)
        n = 400
        params = rng.uniform(1.0, 2.0, (n, 2))
        stats = np.column_stack([
            params[:, 0] + 0.05 * rng.normal(size=n),
            params[:, 1] ** 2 + 0.05 * rng.normal(size=n),
            params.sum(axis=1) + 0.1 * rng.normal(size=n),
            rng.normal(size=n)])
        names = ("a", "b", "s0", "s1", "s2", "s3")
        table = SimulationTable(names, np.column_stack([params, stats]),
                                (0, 1), (2, 3, 4, 5))
        res = fit_pls(table, k_max=3, cv_folds=5, rng=1)
        assert res.definition.stat_names == ("s0", "s1", "s2", "s3")
        assert res.rmsep.shape == (3, 2) and 1 <= res.recommended <= 3
        assert np.all(res.rmsep[-1] < 0.1)       # parameter sd is about 0.29
        lc = transform(table, res.definition).values[:, -3:]
        np.testing.assert_allclose(lc - lc.mean(axis=0), res.scores,
                                   atol=1e-9)


def exact_pls(x, y, k):
    """PLS by regression deflation with each weight vector the exact
    dominant left singular vector of the deflated ``X'Y``: the fixed point
    of NIPALS, reached without iterating.  Returns the projection
    ``R = W (P'W)^-1`` and the y-loadings Q of centered ``x`` and ``y``."""
    x, y = x.copy(), y.copy()
    w, pl, q = (np.zeros((x.shape[1], k)), np.zeros((x.shape[1], k)),
                np.zeros((y.shape[1], k)))
    for c in range(k):
        w[:, c] = np.linalg.svd(x.T @ y)[0][:, 0]
        t = x @ w[:, c]
        pl[:, c] = x.T @ t / (t @ t)
        q[:, c] = y.T @ t / (t @ t)
        x -= np.outer(t, pl[:, c])
        y -= np.outer(t, q[:, c])
    return w @ np.linalg.inv(pl.T @ w), q


def normalized(table):
    """The Box-Cox normalized statistics, the standardized parameters and
    the parameter sds, as ``fit_pls`` prepares them."""
    stats = table.stats
    z = np.column_stack([fit_boxcox(stats[:, j], name).apply(stats[:, j])
                         for j, name in enumerate(table.stat_names)])
    y_sd = table.params.std(axis=0)
    return z, (table.params - table.params.mean(axis=0)) / y_sd, y_sd


def exact_pls_cv(table, k_max, cv_folds, rng):
    """Cross-validated RMSEP and recommended count by refitting
    :func:`exact_pls` on every fold."""
    rng = np.random.default_rng(rng)
    n = table.n_rows
    z, y, y_sd = normalized(table)
    folds = np.array_split(rng.permutation(n), cv_folds)
    sq_err = np.zeros((k_max, y.shape[1]))
    for fold in folds:
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        zc = z[mask] - z[mask].mean(axis=0)
        yc = y[mask] - y[mask].mean(axis=0)
        r, q = exact_pls(zc, yc, k_max)
        z_test = z[fold] - z[mask].mean(axis=0)
        for k in range(1, k_max + 1):
            pred = y[mask].mean(axis=0) + z_test @ (r[:, :k] @ q[:, :k].T)
            sq_err[k - 1] += ((y[fold] - pred) ** 2).sum(axis=0)
    rmsep = np.sqrt(sq_err / n) * y_sd
    ok = np.all(rmsep <= 1.01 * rmsep.min(axis=0), axis=1)
    return rmsep, int(np.nonzero(ok)[0][0]) + 1


CV_TABLES = [
    ("normal", 1500, 5, True, 5, 10),
    ("normal", 1500, 3, True, 5, 10),
    ("uniform", 1000, 11, True, 5, 10),
    ("normal", 300, 21, False, 3, 5),
]


class TestPlsCrossValidation:
    """The definition and the folds are fitted by kernel PLS on
    cross-products; they match PLS by exact SVD deflation, which is what
    NIPALS converges to."""

    @pytest.mark.parametrize("model, rows, seed, boosted, k_max, folds",
                             CV_TABLES)
    def test_rmsep_matches_nipals_refits(self, model, rows, seed, boosted,
                                         k_max, folds):
        table = make_toy_table(model, rows, seed)
        if boosted:
            table = boost(table)
        res = fit_pls(table, k_max, folds, rng=seed)
        want, recommended = exact_pls_cv(table, k_max, folds, seed)
        np.testing.assert_allclose(res.rmsep, want, rtol=1e-9, atol=0)
        assert res.recommended == recommended

    @pytest.mark.parametrize("model, rows, seed, boosted, k_max, folds",
                             CV_TABLES)
    def test_loadings_match_exact_pls(self, model, rows, seed, boosted,
                                      k_max, folds):
        table = make_toy_table(model, rows, seed)
        if boosted:
            table = boost(table)
        got = fit_pls(table, k_max, folds, rng=seed).definition.loadings
        z, y, _ = normalized(table)
        want = exact_pls(z - z.mean(axis=0), y - y.mean(axis=0), k_max)[0]
        want *= np.sign(want[np.abs(want).argmax(axis=0), range(k_max)])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_one_parameter(self):
        table = make_toy_table("normal", 400, 8)
        table = SimulationTable(table.names[1:], table.values[:, 1:], (0,),
                                tuple(range(1, 9)))
        res = fit_pls(table, 4, 5, rng=8)
        want, recommended = exact_pls_cv(table, 4, 5, 8)
        np.testing.assert_allclose(res.rmsep, want, rtol=1e-9, atol=0)
        assert res.recommended == recommended

    @pytest.mark.parametrize("p", [2, 3, 6])
    def test_dominant_eigenvector(self, p):
        rng = np.random.default_rng(p)
        for scale in (1e-8, 1.0, 1e8):
            a = rng.normal(size=(p, p))
            g = scale * a @ a.T
            want = np.linalg.eigh(g)[1][:, -1]
            got = _dominant_eigenvector(g)
            assert abs(abs(got @ want) - 1) < 1e-12
        # eigenvalues 1e-9 apart are still told apart
        g = np.diag([1.0 - 1e-9, 1.0] + [0.5] * (p - 2))
        np.testing.assert_allclose(np.abs(_dominant_eigenvector(g)),
                                   np.eye(p)[1], atol=1e-12)
        assert not _dominant_eigenvector(np.zeros((p, p))).any()
