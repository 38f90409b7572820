import dataclasses
import math

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import gaussian_kde, multivariate_normal, norm

from abckit import adjust
from abckit.adjust import (GlmFit, GridPosterior, glm_fit,
                           glm_log_marginal_densities,
                           glm_log_marginal_density, glm_posterior,
                           joint_posterior, log_sum_exp, safe_exp,
                           weighted_density)
from abckit.errors import ConfigError, NumericalError
from abckit.rejection import Standardizer, retain
from abckit.tableio import ObservedStats, SimulationTable

from conftest import observed_at, traced_peak


def build_table(params, stats, pnames=None, snames=None):
    params = np.atleast_2d(params)
    stats = np.atleast_2d(stats)
    pnames = pnames or tuple(f"p{i}" for i in range(params.shape[1]))
    snames = snames or tuple(f"s{i}" for i in range(stats.shape[1]))
    return SimulationTable(pnames + snames, np.column_stack([params, stats]),
                           tuple(range(len(pnames))),
                           tuple(range(len(pnames), len(pnames) + len(snames))))


def retained_from(params, stats, obs_values, count=None, standardize=True):
    table = build_table(params, stats)
    obs = ObservedStats(table.stat_names, np.asarray(obs_values, dtype=float))
    scale = None if standardize else Standardizer.identity(table.stat_names)
    return retain(table, obs, count or table.n_rows, scale)


class TestGlmFit:
    def test_matches_least_squares_oracle(self):
        rng = np.random.default_rng(40)
        params = rng.uniform(0, 5, size=(200, 2))
        stats = params @ rng.normal(size=(2, 3)) + rng.normal(size=(200, 3))
        r = retained_from(params, stats, rng.normal(size=3))
        fit = glm_fit(r)
        # explicit normal-equation solve on the same internal mapping
        lo, hi = r.params.min(axis=0), r.params.max(axis=0)
        u = (r.params - lo) / (hi - lo)
        design = np.column_stack([np.ones(len(u)), u])
        coef = np.linalg.inv(design.T @ design) @ design.T @ r.stats_std
        np.testing.assert_allclose(fit.intercept, coef[0], atol=1e-8)
        np.testing.assert_allclose(fit.coeff, coef[1:].T, atol=1e-8)
        resid = r.stats_std - design @ coef
        sigma = resid.T @ resid / (200 - 3) + 1e-8 * np.eye(3)
        np.testing.assert_allclose(fit.sigma, sigma, atol=1e-8)

    def test_independent_stats_give_zero_slopes(self):
        rng = np.random.default_rng(41)
        params = rng.uniform(size=(2000, 1))
        stats = rng.normal(size=(2000, 2))
        r = retained_from(params, stats, [0.0, 0.0])
        fit = glm_fit(r)
        assert np.abs(fit.coeff).max() < 0.3
        np.testing.assert_allclose(fit.sigma, np.cov(r.stats_std.T), atol=0.1)

    def test_noiseless_linear_slope(self):
        rng = np.random.default_rng(42)
        theta = rng.uniform(0, 2, size=(50, 1))
        stats = 3.0 * theta
        r = retained_from(theta, stats, [1.0], standardize=False)
        fit = glm_fit(r)
        # the slope on the original parameter scale
        np.testing.assert_allclose(fit.coeff / (fit.hi - fit.lo), [[3.0]],
                                   atol=1e-8)
        assert np.all(fit.sigma <= 2e-8)

    def test_rank_deficient_parameters(self):
        rng = np.random.default_rng(43)
        base = rng.uniform(size=(30, 1))
        params = np.column_stack([base, base])
        r = retained_from(params, rng.normal(size=(30, 2)), [0.0, 0.0])
        with pytest.raises(NumericalError, match="rank-deficient"):
            glm_fit(r)

    def test_constant_parameter(self):
        rng = np.random.default_rng(44)
        params = np.column_stack([np.full(30, 2.0)])
        r = retained_from(params, rng.normal(size=(30, 2)), [0.0, 0.0])
        with pytest.raises(NumericalError, match="constant"):
            glm_fit(r)


def conjugate_setup(seed=45, n=5000, noise_sd=0.5, obs=0.8):
    rng = np.random.default_rng(seed)
    theta = rng.normal(0.0, 1.0, size=(n, 1))
    stats = theta + noise_sd * rng.normal(size=(n, 1))
    r = retained_from(theta, stats, [obs])
    return r, glm_fit(r)


class TestGlmPosterior:
    def test_grid_normalized(self):
        r, fit = conjugate_setup()
        post, _ = glm_posterior(fit, r)
        g, f = post.density("p0")
        assert np.trapezoid(f, g) == pytest.approx(1.0, abs=1e-6)

    def test_conjugate_normal_oracle(self):
        # theta ~ N(0,1), s = theta + e, e ~ N(0, 0.25): the posterior for
        # s_obs = 0.8 is N(0.64, 0.2)
        r, fit = conjugate_setup()
        post, _ = glm_posterior(fit, r, n_points=200)
        g, f = post.density("p0")
        target = norm.pdf(g, loc=0.64, scale=math.sqrt(0.2))
        target /= np.trapezoid(target, g)
        tv = 0.5 * np.trapezoid(np.abs(f - target), g)
        assert tv < 0.02

    def test_mode_is_grid_argmax_and_quantiles_monotone(self):
        r, fit = conjugate_setup()
        post, chars = glm_posterior(fit, r)
        g, f = post.density("p0")
        ch = chars["p0"]
        assert ch.mode == g[np.argmax(f)]
        qs = [ch.quantiles[q] for q in sorted(ch.quantiles)]
        assert all(a <= b for a, b in zip(qs, qs[1:]))
        assert ch.hdi50[0] >= ch.hdi95[0] and ch.hdi50[1] <= ch.hdi95[1]

    def test_hdi_bounds_capture_mass(self):
        r, fit = conjugate_setup()
        post, chars = glm_posterior(fit, r, n_points=400)
        g, f = post.density("p0")
        lo, hi = chars["p0"].hdi50
        inside = (g >= lo) & (g <= hi)
        mass = np.trapezoid(np.where(inside, f, 0.0), g)
        assert mass == pytest.approx(0.5, abs=0.02)

    def test_flattened_likelihood_returns_prior_mixture(self):
        r, fit = conjugate_setup(n=400)
        flat = dataclasses.replace(fit, sigma=fit.sigma * 1e12)
        post, _ = glm_posterior(flat, r, n_points=300)
        g, f = post.density("p0")
        # direct equal-weight peak mixture on the same grid
        span = fit.hi[0] - fit.lo[0]
        tau = adjust.DEFAULT_PEAK_WIDTH * span
        mix = norm.pdf(g[None, :], loc=r.params[:, 0][:, None],
                       scale=tau).mean(axis=0)
        mix /= np.trapezoid(mix, g)
        tv = 0.5 * np.trapezoid(np.abs(f - mix), g)
        assert tv < 0.01

    def test_quantile_of_and_hdi_level_of(self):
        r, fit = conjugate_setup()
        post, _ = glm_posterior(fit, r, n_points=300)
        # quantile of the posterior median is one half
        med = post.quantile("p0", 0.5)
        assert post.quantile_of("p0", med) == pytest.approx(0.5, abs=0.01)
        mode = post.characteristics("p0").mode
        assert post.hdi_level_of("p0", mode) < 0.05
        assert post.hdi_level_of("p0", 1e6) == pytest.approx(1.0, abs=1e-6)


def manual_flat_fit(n_stats=2, n_params=2, sigma=None):
    """A fit with zero slopes: posterior equals the smoothed prior."""
    sigma = np.eye(n_stats) if sigma is None else sigma
    return GlmFit(tuple(f"p{i}" for i in range(n_params)),
                  tuple(f"s{i}" for i in range(n_stats)),
                  np.zeros(n_stats), np.zeros((n_stats, n_params)), sigma,
                  np.zeros(n_params), np.ones(n_params))


class TestGaussianCore:
    @pytest.mark.parametrize("matrix", [
        [[1.0, np.nan], [np.nan, 1.0]],
        [[np.inf, 0.0], [0.0, 1.0]],
        [[1.0, 0.0], [0.0, np.nan]],
    ], ids=["nan-off-diagonal", "inf-diagonal", "nan-last"])
    def test_cholesky_refuses_non_finite_input(self, matrix):
        # LAPACK factors each of these into NaN entries without an error
        with pytest.raises(NumericalError,
                           match="^residual covariance has non-finite"):
            adjust._cholesky(np.array(matrix), "residual covariance")

    def test_cholesky_refuses_indefinite_input(self):
        with pytest.raises(NumericalError,
                           match="^posterior precision not positive definite"):
            adjust._cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]),
                             "posterior precision")

    def test_log_kernel_matches_direct_solve(self, monkeypatch):
        rng = np.random.default_rng(53)
        a_mat = rng.normal(size=(3, 3))
        chol = np.linalg.cholesky(a_mat @ a_mat.T + 0.1 * np.eye(3))
        # far from the origin, where |x|^2 + |y|^2 - 2 x'y would cancel
        # without the centring
        a = rng.normal(size=(50, 3)) + 1e4
        b = rng.normal(size=(40, 3)) + 1e4 + 1
        diff = (a[:49, None, :] - b[None, :, :]).reshape(-1, 3)
        sq = (np.linalg.solve(chol, diff.T) ** 2).sum(axis=0).reshape(49, 40)
        # blocks of two rows, the last one short
        monkeypatch.setattr(adjust, "_BLOCK_ELEMENTS", 90)
        blocks = list(adjust._gaussian_log_kernel(chol, a[:49], b))
        assert [(row, col) for row, col, _ in blocks] == [
            (row, 0) for row in range(0, 49, 2)]
        assert max(blk.size for _, _, blk in blocks) <= 90
        got = np.vstack([blk for _, _, blk in blocks])
        np.testing.assert_allclose(got, -0.5 * sq, rtol=1e-10, atol=1e-12)
        # two rows leave 77 columns of budget (156 // 2 - 1), one row 155:
        # tiles of 64 and 128 columns, the last one taking the lone 129th
        monkeypatch.setattr(adjust, "_TILE_ELEMENTS", 156)
        b = rng.normal(size=(129, 3)) + 1e4 + 1
        diff = (a[:49, None, :] - b[None, :, :]).reshape(-1, 3)
        sq = (np.linalg.solve(chol, diff.T) ** 2).sum(axis=0).reshape(49, 129)
        monkeypatch.setattr(adjust, "_BLOCK_ELEMENTS", 2 * 129)
        tiles = list(adjust._gaussian_log_kernel(chol, a[:49], b, tiled=True))
        assert [(row, col, tile.shape) for row, col, tile in tiles] == [
            (row, col, (2 if row < 48 else 1, width))
            for row in range(0, 49, 2)
            for col, width in ([(0, 64), (64, 65)] if row < 48
                               else [(0, 129)])]
        got = np.zeros((49, 129))
        for row, col, tile in tiles:
            got[row:row + len(tile), col:col + tile.shape[1]] = tile
        np.testing.assert_allclose(got, -0.5 * sq, rtol=1e-10, atol=1e-12)

    def test_joint_grid_matches_direct_mixture(self, monkeypatch):
        # blocks of 7 components
        monkeypatch.setattr(adjust, "_BLOCK_ELEMENTS", 7 * 25 * 25)
        r, _ = conjugate_setup(n=300)
        rng = np.random.default_rng(54)
        params = np.column_stack([r.params[:, 0], rng.normal(size=r.n)])
        stats = np.column_stack([r.stats[:, 0],
                                 params[:, 1] + 0.3 * rng.normal(size=r.n)])
        r2 = retained_from(params, stats, [0.8, 0.1])
        fit = glm_fit(r2)
        joint = joint_posterior(fit, r2, n_points=25)
        # the mixture evaluated point by point with scipy, on the same grid
        mix = adjust._glm_mixture(fit, r2, adjust.DEFAULT_PEAK_WIDTH)
        ugrids = [(g - fit.lo[k]) / (fit.hi[k] - fit.lo[k])
                  for k, g in enumerate(joint.grids)]
        cov = mix.cov.copy()
        for k, ug in enumerate(ugrids):
            cov[k, k] = max(cov[k, k], ((ug[1] - ug[0]) / 2) ** 2)
        mesh = np.stack(np.meshgrid(*ugrids, indexing="ij"), axis=-1)
        want = sum(w * multivariate_normal(mean=m, cov=cov).pdf(mesh)
                   for w, m in zip(mix.weights, mix.means))
        want /= want.sum() * joint.cell_volume
        np.testing.assert_allclose(joint.density, want, rtol=1e-9,
                                   atol=1e-12 * want.max())


def whole_row_log_kernel(chol, a, b):
    """The Gaussian core's log kernel in row blocks that span all of ``b``,
    each written three times: the earlier ``_gaussian_log_kernel``, kept as
    the reference."""
    centre = b.mean(axis=0)
    chol_inv = np.linalg.inv(chol)
    wa = (a - centre) @ chol_inv.T
    wb = chol_inv @ (b - centre).T
    half_a = 0.5 * (wa**2).sum(axis=1)
    half_b = 0.5 * (wb**2).sum(axis=0)
    rows = max(1, adjust._BLOCK_ELEMENTS // max(len(b), 1))
    for start in range(0, len(a), rows):
        block = wa[start:start + rows] @ wb
        block -= half_a[start:start + rows, None]
        block -= half_b
        yield start, block


def unmasked_mixture_on_grid(mix, sel, ugrids):
    """The grid density with ``exp`` taken of every log kernel of whole
    row blocks: the earlier ``_mixture_on_grid``, kept as the reference."""
    cov = mix.cov[np.ix_(sel, sel)].copy()
    for j, ug in enumerate(ugrids):
        cov[j, j] = max(cov[j, j], ((ug[1] - ug[0]) / 2) ** 2)
    chol = adjust._cholesky(cov, "posterior covariance")
    mesh = np.meshgrid(*ugrids, indexing="ij")
    pts = np.column_stack([m.ravel(order="F") for m in mesh])
    w = mix.weights
    dens = np.zeros(len(pts))
    for start, block in whole_row_log_kernel(chol, mix.means[:, sel], pts):
        dens += w[start:start + len(block)] @ np.exp(block, out=block)
    return dens


def old_joint_rows(joint):
    """The earlier ``JointGridPosterior.rows``, kept as the reference."""
    shape = joint.density.shape
    idx = np.indices(shape).reshape(len(shape), -1, order="F").T
    for ind in idx:
        coords = [joint.grids[k][ind[k]] for k in range(len(shape))]
        yield (*coords, float(joint.density[tuple(ind)]),
               float(joint.hdi[tuple(ind)]))


class TestGridExp:
    def test_exp_zero_is_the_last_zero(self):
        zero = adjust._EXP_ZERO
        above = np.nextafter(zero, 0.0)
        assert np.exp(zero) == 0.0 and np.exp(above) > 0.0
        assert np.exp(np.full(9, zero)).max() == 0.0
        assert np.exp(np.full(9, above)).min() > 0.0
        assert math.exp(zero) == 0.0

    @pytest.mark.parametrize("sel", [[0], [1], [0, 1]])
    def test_grid_equals_unmasked_exp(self, monkeypatch, sel):
        # narrow components in the middle of the grid: the log kernels reach
        # far below the last zero of exp, and some grid cells are subnormal
        rng = np.random.default_rng(55)
        n = 40
        means = rng.uniform(0.35, 0.65, size=(n, 2))
        cov = np.array([[1e-4, 2e-5], [2e-5, 1.5e-4]])
        mix = adjust._Mixture(rng.normal(scale=3.0, size=n), means, cov)
        ugrids = [np.linspace(-0.5, 1.5, 1000 if len(sel) == 1 else 80)
                  for _ in sel]
        # blocks of 7 components, the last one short
        monkeypatch.setattr(adjust, "_BLOCK_ELEMENTS",
                            7 * int(np.prod([len(g) for g in ugrids])))
        want = unmasked_mixture_on_grid(mix, sel, ugrids)
        got = adjust._mixture_on_grid(mix, sel, ugrids)
        assert got.tobytes() == want.tobytes()
        # the case is the one it is meant to be
        chol = np.linalg.cholesky(cov[np.ix_(sel, sel)])
        mesh = np.meshgrid(*ugrids, indexing="ij")
        pts = np.column_stack([m.ravel(order="F") for m in mesh])
        logk = np.vstack([b for _, b in whole_row_log_kernel(
            chol, means[:, sel], pts)])
        assert (logk < adjust._EXP_ZERO).mean() > 0.1
        tiny = np.finfo(float).tiny               # the smallest normal
        assert np.any((np.exp(logk) > 0) & (np.exp(logk) < tiny))
        assert np.any((want > 0) & (want < tiny))

    @pytest.mark.parametrize("n_points", [641, 45, 13, 7],
                             ids=["1-param", "2-params", "3-params",
                                  "4-params"])
    def test_tiles_equal_whole_row_blocks(self, monkeypatch, n_points):
        # 40 narrow components in the middle of the grid, in row blocks of
        # 3 (the last one a single row); tiles of 128 columns, 384 for the
        # single row.  No point count is a multiple of a tile, and 641 =
        # 5 * 128 + 1 leaves a lone column for the tile before it to take.
        # Each whole row block has fewer than 2304 * 4 values, the size from
        # which OpenBLAS may split a matrix-vector product over threads.
        sel = list(range({641: 1, 45: 2, 13: 3, 7: 4}[n_points]))
        rng = np.random.default_rng(57)
        n = 40
        means = rng.uniform(0.35, 0.65, size=(n, 4))
        a = rng.normal(size=(4, 4))
        cov = 1e-4 * (a @ a.T / 4 + np.eye(4))
        mix = adjust._Mixture(rng.normal(scale=3.0, size=n), means, cov)
        ugrids = [np.linspace(-0.5, 1.5, n_points) for _ in sel]
        monkeypatch.setattr(adjust, "_BLOCK_ELEMENTS",
                            3 * n_points ** len(sel))
        monkeypatch.setattr(adjust, "_TILE_ELEMENTS", 400)
        want = unmasked_mixture_on_grid(mix, sel, ugrids)
        got = adjust._mixture_on_grid(mix, sel, ugrids)
        assert got.tobytes() == want.tobytes()
        # the case is the one it is meant to be
        mesh = np.meshgrid(*ugrids, indexing="ij")
        pts = np.column_stack([m.ravel(order="F") for m in mesh])
        chol = np.linalg.cholesky(cov[np.ix_(sel, sel)])
        shapes = [(row, tile.shape) for row, _, tile in
                  adjust._gaussian_log_kernel(chol, means[:, sel], pts,
                                              tiled=True)]
        assert shapes[-1][0] == 39 and shapes[-1][1][0] == 1
        assert max(shape[1] for _, shape in shapes) < len(pts)
        if len(sel) <= 2:
            tiny = np.finfo(float).tiny
            assert np.any((want > 0) & (want < tiny))

    def test_joint_grid_memory_is_bounded(self):
        # 500 retained on a 100^2 grid: a whole row block of 200 components
        # is 16 MB, a tile 1 MiB
        bound = 4_000_000                      # bytes, fixed before the first run
        rng = np.random.default_rng(58)
        params = rng.uniform(size=(500, 2))
        stats = params + 0.3 * rng.normal(size=(500, 2))
        r = retained_from(params, stats, [0.5, 0.4])
        fit = glm_fit(r)
        _, peak = traced_peak(joint_posterior, fit, r, n_points=100)
        assert peak < bound


class TestJointRows:
    @pytest.mark.parametrize("shape", [(4, 7), (3, 5, 2)])
    def test_rows_equal_the_old_generator(self, shape):
        rng = np.random.default_rng(56)
        grids = tuple(np.sort(rng.normal(size=k)) for k in shape)
        density = rng.exponential(size=shape)
        density.flat[:3] = [0.0, 5e-324, 1e-310]
        joint = adjust.JointGridPosterior(
            tuple(f"p{k}" for k in range(len(shape))), grids, density,
            rng.uniform(size=shape), 0.5)
        want = list(old_joint_rows(joint))
        matrix = joint.matrix()
        assert matrix.shape == (int(np.prod(shape)), len(shape) + 2)
        assert matrix.tobytes() == np.array(want).tobytes()


class TestJointPosterior:
    def test_independent_mixture_factorizes(self):
        # equal weights (zero slopes) on a lattice of peaks: the joint grid
        # is an exact product of its marginals
        grid = np.linspace(0.1, 0.9, 5)
        xx, yy = np.meshgrid(grid, grid)
        params = np.column_stack([xx.ravel(), yy.ravel()])
        stats = np.zeros((len(params), 2))
        r = retained_from(params, stats, [0.5, 0.5], standardize=False)
        fit = manual_flat_fit()
        joint = joint_posterior(fit, r, params=["p0", "p1"], n_points=40)
        mass = joint.density * joint.cell_volume
        mx = mass.sum(axis=1)
        my = mass.sum(axis=0)
        np.testing.assert_allclose(mass, np.outer(mx, my), atol=1e-10)

    def test_hdi_tracks_mass_accumulation(self):
        r, fit = conjugate_setup(n=500)
        rng = np.random.default_rng(46)
        params = np.column_stack([r.params[:, 0], rng.normal(size=r.n)])
        stats = r.stats
        r2 = retained_from(params, stats, [0.8])
        fit2 = glm_fit(r2)
        joint = joint_posterior(fit2, r2, n_points=60)
        mass = joint.density * joint.cell_volume
        # the mass inside any credible level approximates that level
        for level in (0.5, 0.95):
            inside = mass[joint.hdi <= level].sum()
            assert inside == pytest.approx(level, abs=2 * mass.max())

    def test_hdi_monotone_in_density(self):
        r, fit = conjugate_setup(n=300)
        rng = np.random.default_rng(47)
        params = np.column_stack([r.params[:, 0], rng.normal(size=r.n)])
        r2 = retained_from(params, r.stats, [0.8])
        joint = joint_posterior(glm_fit(r2), r2, n_points=30)
        d = joint.density.ravel()
        h = joint.hdi.ravel()
        order = np.argsort(d)[::-1]
        assert np.all(np.diff(h[order]) >= -1e-12)

    def test_grid_size_checked_before_any_work(self):
        # 100^4 points would take gigabytes per array; the check comes
        # before the retained set is even looked at
        with pytest.raises(ConfigError, match="at most 31 points"):
            joint_posterior(manual_flat_fit(n_params=4), None, n_points=100)
        # 100^3 is allowed, one more point per parameter is not
        assert 100**3 <= adjust.JOINT_GRID_MAX_POINTS
        with pytest.raises(ConfigError, match="at most 100 points"):
            joint_posterior(manual_flat_fit(n_params=3), None, n_points=101)

    def test_dimension_guard(self):
        fit = manual_flat_fit(n_params=5)
        with pytest.raises(ValueError, match="2 to 4"):
            joint_posterior(fit, None, params=list(fit.param_names))

    def test_symmetric_density_hdi_half(self):
        # symmetric unimodal: the 0.5 credible set holds half the mass
        grid = np.linspace(0.2, 0.8, 7)
        xx, yy = np.meshgrid(grid, grid)
        params = np.column_stack([xx.ravel(), yy.ravel()])
        r = retained_from(params, np.zeros((len(params), 2)), [0.0, 0.0],
                          standardize=False)
        joint = joint_posterior(manual_flat_fit(), r, n_points=50)
        mass = joint.density * joint.cell_volume
        inside = mass[joint.hdi <= 0.5].sum()
        # the 8-fold symmetry creates exact density ties; a whole tie group
        # sits on either side of the boundary
        assert inside == pytest.approx(0.5, abs=8 * mass.max())
        assert inside <= 0.5 + 1e-9


class TestMarginalDensity:
    def test_far_observation_vanishes(self):
        rng = np.random.default_rng(48)
        r = retained_from(rng.uniform(size=(200, 1)),
                          rng.normal(size=(200, 3)), [12.0, -12.0, 12.0])
        fit = glm_fit(r)
        assert safe_exp(glm_log_marginal_density(fit, r)) < 1e-12

    @pytest.mark.parametrize("width", [0.0, -0.01, math.nan, math.inf])
    def test_peak_width_must_be_finite_and_positive(self, width):
        # an infinite width is a bad argument, not a numerical failure
        rng = np.random.default_rng(48)
        r = retained_from(rng.uniform(size=(200, 1)),
                          rng.normal(size=(200, 3)), [0.1, -0.1, 0.1])
        with pytest.raises(ValueError, match="dirac peak width"):
            glm_log_marginal_density(glm_fit(r), r, dirac_peak_width=width)
        with pytest.raises(ValueError, match="dirac peak width"):
            glm_posterior(glm_fit(r), r, dirac_peak_width=width)

    def test_zero_slope_single_peak_is_plain_gaussian(self):
        sigma = np.array([[1.0, 0.3], [0.3, 2.0]])
        fit = manual_flat_fit(sigma=sigma)
        params = np.tile([0.25, 0.75], (5, 1))
        stats = np.tile([0.0, 0.0], (5, 1))
        r = retained_from(params, stats, [0.4, -0.3], standardize=False)
        got = safe_exp(glm_log_marginal_density(fit, r,
                                                dirac_peak_width=1e-9))
        want = multivariate_normal(mean=[0, 0], cov=sigma).pdf([0.4, -0.3])
        assert got == pytest.approx(want, rel=1e-6)

    def test_monte_carlo_integration_oracle(self):
        rng = np.random.default_rng(49)
        theta = rng.uniform(0, 4, size=(300, 1))
        stats = np.column_stack([theta[:, 0] + rng.normal(size=300) * 0.7,
                                 0.5 * theta[:, 0] + rng.normal(size=300)])
        r = retained_from(theta, stats, [2.2, 1.0])
        fit = glm_fit(r)
        got = safe_exp(glm_log_marginal_density(fit, r))
        # draw from the peak-mixture prior, average the likelihood
        n_mc = 1_000_000
        mc_rng = np.random.default_rng(50)
        u_peaks = fit.to_internal(r.params)[:, 0]
        j = mc_rng.integers(0, len(u_peaks), n_mc)
        u = u_peaks[j] + adjust.DEFAULT_PEAK_WIDTH * mc_rng.normal(size=n_mc)
        centers = fit.intercept[None, :] + u[:, None] * fit.coeff[:, 0][None, :]
        diff = r.obs_std[None, :] - centers
        prec = np.linalg.inv(fit.sigma)
        quad = np.einsum("nd,dq,nq->n", diff, prec, diff)
        dens = np.exp(-0.5 * quad) / (
            2 * math.pi * math.sqrt(np.linalg.det(fit.sigma)))
        est = dens.mean()
        se = dens.std(ddof=1) / math.sqrt(n_mc)
        assert abs(got - est) < 3 * se

    def test_monte_carlo_oracle_on_a_known_linear_gaussian_model(self):
        # S = c + B u + eps, eps ~ N(0, Sigma), one parameter u on [0, 1],
        # prior peaks N(u_j, tau^2); the bound (5 Monte Carlo standard
        # errors) was set before the first run
        c = np.array([0.3, -0.2])
        b = np.array([[1.5], [-0.8]])
        sigma = np.array([[0.5, 0.1], [0.1, 0.4]])
        fit = GlmFit(("u",), ("s0", "s1"), c, b, sigma, np.zeros(1),
                     np.ones(1))
        rng = np.random.default_rng(57)
        peaks = rng.uniform(size=(60, 1))
        obs = np.array([1.1, -0.5])
        r = retained_from(peaks, np.zeros((60, 2)), obs, standardize=False)
        tau = 0.05
        got = safe_exp(glm_log_marginal_density(fit, r, dirac_peak_width=tau))

        n_mc = 200_000
        mc_rng = np.random.default_rng(58)
        j = mc_rng.integers(0, len(peaks), n_mc)
        u = peaks[j, 0] + tau * mc_rng.normal(size=n_mc)
        diff = obs[None, :] - (c[None, :] + u[:, None] * b[:, 0][None, :])
        quad = np.einsum("nd,dq,nq->n", diff, np.linalg.inv(sigma), diff)
        dens = np.exp(-0.5 * quad) / (
            2 * math.pi * math.sqrt(np.linalg.det(sigma)))
        est = dens.mean()
        se = dens.std(ddof=1) / math.sqrt(n_mc)
        assert abs(got - est) < 5 * se

    def test_batch_matches_single(self):
        rng = np.random.default_rng(51)
        r = retained_from(rng.uniform(size=(80, 1)), rng.normal(size=(80, 2)),
                          [0.2, -0.2])
        fit = glm_fit(r)
        batch = glm_log_marginal_densities(fit, r, r.stats_std[:5])
        singles = [glm_log_marginal_density(fit, observed_at(r, r.stats[i]))
                   for i in range(5)]
        np.testing.assert_allclose(batch, singles, rtol=1e-10)


class TestLogSumExp:
    """Bit for bit what scipy's logsumexp gives, on rows of every kind."""

    def rows(self):
        rng = np.random.default_rng(70)
        out = []
        for n in (1, 2, 5, 40, 1000):
            for scale in (1.0, 50.0, 700.0):
                a = scale * rng.normal(size=(6, n))
                out += [a, np.round(a / scale * 2)]         # ties at the max
                lone = np.full((3, n), -np.inf)
                lone[:, 0] = a[:3, 0]                       # all -inf but one
                out += [lone, np.full((2, n), -np.inf)]
                out += [a - 1e4, a - 745.0 * 3]             # deep underflow
        return out

    def test_rows_match_scipy(self):
        for a in self.rows():
            np.testing.assert_array_equal(log_sum_exp(a, axis=1),
                                          logsumexp(a, axis=1))
            np.testing.assert_array_equal(log_sum_exp(a[0]), logsumexp(a[0]))

    def test_ties_at_the_maximum(self):
        a = np.array([-3.0, 2.0, 2.0, 2.0, -0.5])
        assert log_sum_exp(a) == logsumexp(a)
        assert log_sum_exp(a) == pytest.approx(
            math.log(3 * math.exp(2.0) + math.exp(-3.0) + math.exp(-0.5)))

    def test_special_values(self):
        assert log_sum_exp(np.array([-np.inf, 1.5, -np.inf])) == 1.5
        assert log_sum_exp(np.full(4, -np.inf)) == -np.inf
        assert log_sum_exp(np.array([0.0, np.inf])) == np.inf
        assert math.isnan(log_sum_exp(np.array([0.0, np.nan])))
        assert log_sum_exp(np.array([-1e5, -1e5 - 800.0])) == -1e5


class TestWeightedDensity:
    def test_integrates_to_one(self):
        rng = np.random.default_rng(52)
        x = rng.normal(size=500)
        g, f = weighted_density(x)
        assert np.trapezoid(f, g) == pytest.approx(1.0, abs=0.05)

    def test_degenerate_sample_rejected(self):
        with pytest.raises(NumericalError):
            weighted_density(np.ones(50))

    def test_matches_gaussian_kde(self):
        rng = np.random.default_rng(54)

        def rounded(size):  # many ties
            return np.round(rng.normal(size=size), 1)

        for draw in (rng.normal, rng.uniform, rng.lognormal, rounded):
            for n in (4, 9, 57, 400, 3000):
                x = draw(size=n)
                lo, hi = x.min(), x.max()
                g, f = weighted_density(x)
                pad = 0.1 * (hi - lo)
                want = np.linspace(lo - pad, hi + pad, 512)
                assert np.abs(g - want).max() <= 1e-14 * (hi - lo)
                kde = gaussian_kde(x, "silverman")(want)
                seen = kde >= 1e-10 * kde.max()
                np.testing.assert_allclose(f[seen], kde[seen], rtol=1e-10)

    def test_narrow_kernel_integrates_to_one(self):
        # the Silverman bandwidth of the central cluster is far below a
        # grid step of the range the two outliers set; floored at half a
        # step, the kernels stay representable on the grid
        rng = np.random.default_rng(7)
        x = np.concatenate([rng.normal(0, 1e-4, 20000), [-1.0, 1.0]])
        g, f = weighted_density(x)
        assert np.trapezoid(f, g) == pytest.approx(1.0, abs=0.02)


class TestCredibleLevels:
    """The credible level rule on random marginal grids with tied
    densities and runs of zero cells."""

    @staticmethod
    def grids():
        rng = np.random.default_rng(55)
        for _ in range(300):
            n = int(rng.integers(3, 120))
            values = np.append(rng.uniform(size=int(rng.integers(1, 6))), 0.0)
            f = np.sort(rng.choice(values, n))
            f[-1] = max(f[-1], 0.5)
            # rising then falling, so each credible set is one interval
            left = rng.uniform(size=n) < 0.5
            f = np.concatenate([f[left], f[~left][::-1]])
            yield rng, np.cumsum(rng.uniform(0.5, 1.5, n)), f

    @staticmethod
    def masses(g, f):
        # trapezoid mass of each grid point, normalized
        d = np.diff(g)
        mass = f * (np.append(d, 0.0) + np.insert(d, 0, 0.0)) / 2
        return mass / mass.sum()

    def test_hdi_bounds_hold_the_level(self):
        for _, g, f in self.grids():
            mass = self.masses(g, f)
            post = GridPosterior(("p",), (g,), (f,))
            for level in (0.5, 0.95):
                lo, hi = post.hdi_bounds("p", level)
                inside = (g >= lo) & (g <= hi)
                threshold = f[inside].min()
                np.testing.assert_array_equal(inside, f >= threshold)
                assert mass[f >= threshold].sum() >= level - 1e-12
                assert mass[f > threshold].sum() < level + 1e-12

    def test_hdi_level_of_is_the_mass_at_least_as_dense(self):
        for rng, g, f in self.grids():
            f = rng.permutation(f)
            mass = self.masses(g, f)
            post = GridPosterior(("p",), (g,), (f,))
            values = np.concatenate([rng.choice(g, 10),
                                     rng.uniform(g[0] - 1, g[-1] + 1, 10)])
            for v in values:
                fv = np.interp(v, g, f, left=0.0, right=0.0)
                assert abs(post.hdi_level_of("p", v)
                           - mass[f >= fv].sum()) <= 1e-14
