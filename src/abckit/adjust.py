"""ABC-GLM posteriors and marginal densities of retained simulations.

ABC-GLM (Leuenberger & Wegmann 2010) fits a local Gaussian likelihood
``S = c + B theta + eps``, ``eps ~ N(0, Sigma)``, to the retained
(standardized) statistics by least squares.  Combined with a prior
represented as a Gaussian mixture with one narrow peak per retained
parameter vector, everything downstream is closed form: the model marginal
density used for model choice, grid posteriors, and joint posteriors with
credible levels.  All of it rests on one Gaussian core, numpy only: a
Cholesky factor and the whitened squared distances between two point sets,
computed in blocks of bounded size.  :func:`weighted_density` draws the
kernel density of the retained values (the rejection posterior) on the same
core.  The observation is always the one the retained set was retained for.

The core's blocks.  A row block takes as many points of the first set as
``_BLOCK_ELEMENTS`` pairs allow, and all of the second.  Evidences come in
row blocks, because each observation's ``log_sum_exp`` needs its whole
row.  A grid cuts each row block further into column tiles of about
``_TILE_ELEMENTS`` pairs (1 MiB), which stay in cache from the product
through ``exp`` to the weighted sum.  The weighted sum still adds one row
block's partial sum at a time: that grouping fixes its rounding, so the
tiles leave every density as whole row blocks gave it, to the bit.  The one
exception is a BLAS that computes the last columns of a large product with
another kernel than those of a small one: OpenBLAS on AVX-512 does so above
10^6 multiply-adds, and there the last (points mod 16) cells of a grid can
move in their last bits.

Parameters are mapped linearly onto [0, 1] internally (using the retained
range) for numerical stability; all reported quantities are on the
original scale.  Every grid spans the retained range of its parameter
padded by 10% on each side.  The peak width of the prior mixture is a
fraction of the retained range per parameter (default 0.01).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .rejection import RetainedSet

__all__ = [
    "GlmFit", "GridPosterior", "JointGridPosterior",
    "PosteriorCharacteristics", "check_joint_grid", "glm_fit",
    "glm_posterior", "joint_posterior", "glm_log_marginal_density",
    "glm_log_marginal_densities", "log_sum_exp", "safe_exp",
    "weighted_density",
]

DEFAULT_PEAK_WIDTH = 0.01
DEFAULT_GRID_POINTS = 100
GRID_PADDING = 0.1
QUANTILE_LEVELS = (0.025, 0.25, 0.5, 0.75, 0.975)
# largest joint grid (points over all parameters): 100^3 fits, 100^4 does not
JOINT_GRID_MAX_POINTS = 1_000_000
# pairs in a row block of the Gaussian core: it bounds the rows taken at
# once, and so the grouping, and with it the bits, of a grid's weighted sum
_BLOCK_ELEMENTS = 2_000_000
# pairs in a column tile of a grid (1 MiB of doubles, held in a core's L2
# cache from the product through exp to the weighted sum)
_TILE_ELEMENTS = 2**17
# the largest double whose exp is 0.0 (exp of the next one up is 5e-324)
_EXP_ZERO = -745.1332191019412


def safe_exp(x: float) -> float:
    """``exp(x)``, infinite where the result overflows a float."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def log_sum_exp(a, axis=None):
    """``log(sum(exp(a)))`` over ``axis`` (all elements by default), with
    the algorithm of ``scipy.special.logsumexp`` (scipy 1.17) and its
    results to the last bit: the maximum and the count ``m`` of entries
    tied with it are taken out of the sum, so the result is
    ``log1p(rest / m) + log(m) + max`` with ``rest`` the sum of the other
    entries' ``exp(a - max)``; a result that is not finite (all entries
    ``-inf``, an infinite or NaN entry) is ``log(sum(exp(a)))``."""
    a = np.asarray(a, dtype=float)
    a_max = a.max(axis=axis, keepdims=True)
    at_max = a == a_max
    m = at_max.sum(axis=axis, keepdims=True, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        rest = np.exp(np.where(at_max, -np.inf, a) - a_max).sum(
            axis=axis, keepdims=True)
        out = np.log1p(rest / m) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            direct = np.log(np.exp(a).sum(axis=axis, keepdims=True))
            out = np.where(finite, out, direct)
    out = out.squeeze(axis=axis)
    return out[()] if out.ndim == 0 else out


def weighted_density(samples):
    """Gaussian kernel density of a sample on 512 points spanning its
    range padded by 10% on each side.  Returns ``(grid, density)``.

    The equal-weight mixture of one component per value, with Silverman's
    bandwidth (floored at half a grid step) and ``gaussian_kde``'s
    normalization."""
    samples = np.asarray(samples, dtype=float).ravel()
    lo, hi = samples.min(), samples.max()
    if hi == lo:
        raise NumericalError("cannot estimate a density from a degenerate sample")
    u = (samples - lo) / (hi - lo)
    ug = _unit_grid(512)
    var = max(u.var(ddof=1) * (0.75 * len(u)) ** -0.4,
              ((ug[1] - ug[0]) / 2) ** 2)
    mix = _Mixture(np.zeros(len(u)), u[:, None], np.array([[var]]))
    f = _mixture_on_grid(mix, [0], [ug]) / math.sqrt(2 * math.pi * var)
    return lo + ug * (hi - lo), f / (hi - lo)


def _unit_grid(n_points: int) -> np.ndarray:
    """``n_points`` over the unit range padded by ``GRID_PADDING``."""
    return np.linspace(-GRID_PADDING, 1.0 + GRID_PADDING, n_points)


# ---------------------------------------------------------------------------
# the Gaussian local-likelihood model


@dataclass(frozen=True)
class GlmFit:
    """Fitted local likelihood ``S_std = c + B u + eps`` with
    ``u = (theta - lo) / (hi - lo)`` the internally rescaled parameters."""

    param_names: tuple[str, ...]
    stat_names: tuple[str, ...]
    intercept: np.ndarray     # (d,)
    coeff: np.ndarray         # (d, p), internal scale
    sigma: np.ndarray         # (d, d) residual covariance
    lo: np.ndarray            # (p,) parameter range mapped to 0
    hi: np.ndarray            # (p,) parameter range mapped to 1

    def to_internal(self, theta: np.ndarray) -> np.ndarray:
        return (theta - self.lo) / (self.hi - self.lo)


def glm_fit(retained: RetainedSet) -> GlmFit:
    """Least-squares fit of the standardized statistics on the retained
    parameters, with a small ridge floor on the residual covariance."""
    theta = retained.params
    z = retained.stats_std
    n, p = theta.shape
    if n <= p + 1:
        raise NumericalError(
            f"need more retained simulations ({n}) than parameters + 1 ({p + 1})")
    lo = theta.min(axis=0)
    hi = theta.max(axis=0)
    if np.any(hi <= lo):
        flat = [retained.param_names[j] for j in np.nonzero(hi <= lo)[0]]
        raise NumericalError(
            f"parameter(s) constant among retained simulations: {', '.join(flat)}")
    u = (theta - lo) / (hi - lo)
    design = np.column_stack([np.ones(n), u])
    coef, _, rank, _ = np.linalg.lstsq(design, z, rcond=None)
    if rank < p + 1:
        raise NumericalError("rank-deficient parameter design")
    resid = z - design @ coef
    dof = max(n - p - 1, 1)
    sigma = resid.T @ resid / dof + 1e-8 * np.eye(z.shape[1])
    return GlmFit(retained.param_names, retained.stat_names,
                  coef[0], coef[1:].T, sigma, lo, hi)


def _cholesky(matrix: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor of ``matrix``, or :class:`NumericalError`
    naming ``what`` when it is not finite or not positive definite (LAPACK
    would factor NaN or inf entries into a NaN factor without an error)."""
    if not np.isfinite(matrix).all():
        raise NumericalError(f"{what} has non-finite entries")
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what} not positive definite: {exc}") from None


def _gaussian_log_kernel(chol: np.ndarray, a: np.ndarray, b: np.ndarray,
                         tiled: bool = False):
    """Log Gaussian kernel ``-|L^-1 (a_i - b_j)|^2 / 2`` of every pair of
    rows of ``a`` and ``b``: the squared Mahalanobis distance under the
    covariance factored as ``L L'``, halved and negated.

    Yields ``(row, col, block)`` with ``block[i, j]`` for row ``row + i`` of
    ``a`` and row ``col + j`` of ``b``.  The rows of ``a`` come in row blocks
    of ``_BLOCK_ELEMENTS // len(b)`` rows (at least one, the last one
    short), and a block spans all of ``b``.  With ``tiled``, each row block
    of ``r`` rows comes instead in column tiles of a multiple of 64 columns
    and at most ``max(_TILE_ELEMENTS, 65 r)`` values, the last tile short
    (but never a lone column, which numpy would take as a dot product).

    Each block is one matrix product, ``x'y - |x|^2/2 - |y|^2/2`` of the
    whitened rows.  A tile starts at a multiple of 64 columns, so the BLAS
    kernel splits it into the SIMD widths it splits the whole row into, and
    the tile is the same slice of the whole block to the bit (one exception:
    see the module docstring).  Both sets are centred on the mean of ``b``
    first, which keeps the cancellation small near ``b``, and whitened by
    one product with ``L^-1``.
    """
    centre = b.mean(axis=0)
    chol_inv = np.linalg.inv(chol)
    wa = (a - centre) @ chol_inv.T
    wb = chol_inv @ (b - centre).T
    half_a = 0.5 * (wa**2).sum(axis=1)
    half_b = 0.5 * (wb**2).sum(axis=0)
    n = len(b)
    rows = max(1, _BLOCK_ELEMENTS // max(n, 1))
    for row in range(0, len(a), rows):
        wa_rows = wa[row:row + rows]
        half_rows = half_a[row:row + rows, None]
        cols = (64 * max(1, (_TILE_ELEMENTS // len(wa_rows) - 1) // 64)
                if tiled else max(n, 1))
        col = 0
        for end in [*range(cols, n - 1, cols), n]:
            block = wa_rows @ wb[:, col:end]
            block -= half_rows
            block -= half_b[col:end]
            yield row, col, block
            col = end


def _log_evidences(fit: GlmFit, retained: RetainedSet, z: np.ndarray,
                   tau: float):
    """Log evidence of each standardized observation (row of ``z``) under
    each prior peak ``N(u_j, tau^2 I)``: ``log N(z; c + B u_j, Sigma +
    tau^2 B B')``, yielded in row blocks as ``(start, block)``."""
    if not 0 < tau < math.inf:
        raise ValueError(f"dirac peak width must be finite and positive, got {tau}")
    b = fit.coeff
    centres = fit.intercept + fit.to_internal(retained.params) @ b.T
    chol = _cholesky(fit.sigma + tau**2 * (b @ b.T), "likelihood covariance")
    const = (-0.5 * b.shape[0] * math.log(2 * math.pi)
             - np.log(np.diag(chol)).sum())
    for start, _, block in _gaussian_log_kernel(chol, np.atleast_2d(z),
                                                centres):
        block += const
        yield start, block


@dataclass(frozen=True)
class _Mixture:
    """Posterior as a Gaussian mixture: one component per retained draw."""

    log_weights: np.ndarray   # (n,) unnormalized: component evidences
    means: np.ndarray         # (n, p) internal scale
    cov: np.ndarray           # (p, p) shared, internal scale

    @property
    def weights(self) -> np.ndarray:
        w = np.exp(self.log_weights - self.log_weights.max())
        return w / w.sum()


def _glm_mixture(fit: GlmFit, retained: RetainedSet,
                 dirac_peak_width: float) -> _Mixture:
    """Combine the fitted likelihood at the retained set's observation
    with the peak-mixture prior; all Gaussian algebra is closed form.

    Each prior peak ``N(u_j, tau^2 I)`` contributes its evidence as the
    component weight and a posterior component with precision
    ``Q = B' Sigma^-1 B + I / tau^2``.
    """
    tau = float(dirac_peak_width)
    z = retained.obs_std
    _, log_w = next(_log_evidences(fit, retained, z, tau))
    b = fit.coeff
    # with M = L L', M^-1 = L^-1' L^-1
    l_inv = np.linalg.inv(_cholesky(fit.sigma, "residual covariance"))
    sig_inv_b = l_inv.T @ (l_inv @ b)
    p_inv = np.linalg.inv(_cholesky(
        b.T @ sig_inv_b + np.eye(b.shape[1]) / tau**2, "posterior precision"))
    cov = p_inv.T @ p_inv
    base = (z - fit.intercept) @ sig_inv_b           # B' Sigma^-1 (z - c)
    u = fit.to_internal(retained.params)
    means = (cov @ (base[:, None] + u.T / tau**2)).T
    return _Mixture(log_w[0], means, cov)


def glm_log_marginal_densities(fit: GlmFit, retained: RetainedSet, z,
                               dirac_peak_width: float = DEFAULT_PEAK_WIDTH
                               ) -> np.ndarray:
    """Log of the prior-weighted likelihood integral (the model marginal
    density) at many pseudo-observations at once.

    ``z`` is an (m, d) matrix of statistic vectors (or one vector) in
    ``fit.stat_names`` order, on the retained set's distance scale, as
    ``retained.obs_std`` and ``retained.stats_std`` are.
    """
    z = np.atleast_2d(z)
    out = np.empty(len(z))
    for start, log_ev in _log_evidences(fit, retained, z,
                                        float(dirac_peak_width)):
        out[start:start + len(log_ev)] = log_sum_exp(log_ev, axis=1)
    return out - math.log(retained.n)


def glm_log_marginal_density(fit: GlmFit, retained: RetainedSet,
                             dirac_peak_width: float = DEFAULT_PEAK_WIDTH) -> float:
    """Log marginal density at the retained set's observation;
    :func:`safe_exp` gives the density itself."""
    return float(glm_log_marginal_densities(fit, retained, retained.obs_std,
                                            dirac_peak_width)[0])


# ---------------------------------------------------------------------------
# grid posteriors


@dataclass(frozen=True)
class PosteriorCharacteristics:
    param: str
    mode: float
    mean: float
    median: float
    quantiles: dict[float, float]
    hdi50: tuple[float, float]
    hdi95: tuple[float, float]


@dataclass(frozen=True)
class GridPosterior:
    """Marginal posterior densities on per-parameter grids, each normalized
    to integrate to one (trapezoid rule)."""

    param_names: tuple[str, ...]
    grids: tuple[np.ndarray, ...]
    densities: tuple[np.ndarray, ...]

    def density(self, param: str):
        i = self.param_names.index(param)
        return self.grids[i], self.densities[i]

    def mean(self, param: str) -> float:
        g, f = self.density(param)
        return float(np.trapezoid(g * f, g))

    def _cdf(self, param: str):
        g, f = self.density(param)
        cdf = np.concatenate([[0.0], np.cumsum(np.diff(g) * (f[1:] + f[:-1]) / 2)])
        if cdf[-1] > 0:
            cdf = cdf / cdf[-1]
        return g, cdf

    def quantile(self, param: str, q) -> np.ndarray:
        g, cdf = self._cdf(param)
        return np.interp(q, cdf, g)

    def quantile_of(self, param: str, value: float) -> float:
        """Posterior mass below ``value`` (the probability integral
        transform of a known true value)."""
        g, cdf = self._cdf(param)
        return float(np.interp(value, g, cdf, left=0.0, right=1.0))

    def hdi_level_of(self, param: str, value: float) -> float:
        """Smallest highest-density credible level containing ``value``."""
        g, f = self.density(param)
        fv = float(np.interp(value, g, f, left=0.0, right=0.0))
        dens, levels, _ = _credible_levels(f, _cell_masses(g, f))
        return float(levels[np.searchsorted(dens, fv)])

    def hdi_bounds(self, param: str, level: float) -> tuple[float, float]:
        g, f = self.density(param)
        # the densest group of equal densities whose level reaches
        # ``level``, or the least dense group when none does
        dens, levels, _ = _credible_levels(f, _cell_masses(g, f))
        inside = g[f >= dens[max(np.count_nonzero(levels >= level) - 1, 0)]]
        return float(inside.min()), float(inside.max())

    def characteristics(self, param: str) -> PosteriorCharacteristics:
        g, f = self.density(param)
        mode = float(g[int(np.argmax(f))])
        qs = dict(zip(QUANTILE_LEVELS,
                      self.quantile(param, QUANTILE_LEVELS).tolist()))
        return PosteriorCharacteristics(
            param, mode, self.mean(param), qs[0.5], qs,
            self.hdi_bounds(param, 0.5), self.hdi_bounds(param, 0.95))


def _cell_masses(grid: np.ndarray, density: np.ndarray) -> np.ndarray:
    # trapezoid mass attributed to each grid point
    w = np.zeros_like(grid)
    d = np.diff(grid)
    w[:-1] += d / 2
    w[1:] += d / 2
    m = density * w
    total = m.sum()
    return m / total if total > 0 else m


def _credible_levels(density: np.ndarray, mass: np.ndarray):
    """Distinct densities (ascending), the credible level of each (the mass
    of the cells at least as dense), and each cell's index among them."""
    dens, cell = np.unique(density, return_inverse=True)
    levels = np.cumsum(np.bincount(cell, weights=mass)[::-1])[::-1]
    return dens, levels, cell


@dataclass(frozen=True)
class JointGridPosterior:
    """Joint posterior on a tensor grid with, at every grid point, the
    smallest highest-density credible level containing that point."""

    param_names: tuple[str, ...]
    grids: tuple[np.ndarray, ...]
    density: np.ndarray   # shape (len(g1), len(g2), ...), sums to 1/cell_volume
    hdi: np.ndarray       # same shape, in [0, 1]
    cell_volume: float

    def matrix(self) -> np.ndarray:
        """The grid as a (cells, k + 2) matrix of rows (coords..., density,
        hdi), first parameter varying fastest."""
        mesh = np.meshgrid(*self.grids, indexing="ij")
        return np.column_stack([a.ravel(order="F")
                                for a in (*mesh, self.density, self.hdi)])

    def rows(self):
        """Iterate the rows of :meth:`matrix` as tuples of floats."""
        yield from map(tuple, self.matrix().tolist())


def _mixture_on_grid(mix: _Mixture, sel, ugrids) -> np.ndarray:
    """Unnormalized density of the mixture's margin over parameters
    ``sel`` at the points of the tensor grid ``ugrids`` (first parameter
    varying fastest).  Each variance is floored at (half a grid step)^2, so
    posteriors narrower than the grid stay representable.

    ``exp`` is evaluated only on log kernels of at least :data:`_EXP_ZERO`;
    every other cell is set to 0.0, which is what ``exp`` returns there,
    only several times faster.  The matrix fed to the weighted sum is the
    same to the bit, subnormal cells included."""
    cov = mix.cov[np.ix_(sel, sel)].copy()
    for j, ug in enumerate(ugrids):
        cov[j, j] = max(cov[j, j], ((ug[1] - ug[0]) / 2) ** 2)
    chol = _cholesky(cov, "posterior covariance")
    mesh = np.meshgrid(*ugrids, indexing="ij")
    pts = np.column_stack([m.ravel(order="F") for m in mesh])
    w = mix.weights
    dens = np.zeros(len(pts))
    # room for the largest tile _gaussian_log_kernel yields
    mask = np.empty(max(_TILE_ELEMENTS, 65 * len(w)), dtype=bool)
    # one row per component: numpy's exp is much slower on underflowing
    # arguments when they interleave with others than in contiguous runs
    for row, col, tile in _gaussian_log_kernel(chol, mix.means[:, sel], pts,
                                               tiled=True):
        live = mask[:tile.size].reshape(tile.shape)
        np.greater_equal(tile, _EXP_ZERO, out=live)
        np.exp(tile, out=tile, where=live)
        np.logical_not(live, out=live)
        np.copyto(tile, 0.0, where=live)
        dens[col:col + tile.shape[1]] += w[row:row + len(tile)] @ tile
    return dens


def glm_posterior(fit: GlmFit, retained: RetainedSet,
                  n_points: int = DEFAULT_GRID_POINTS,
                  dirac_peak_width: float = DEFAULT_PEAK_WIDTH):
    """Marginal posterior densities and their characteristics.

    The grid per parameter spans the retained range padded by 10%.
    Returns ``(GridPosterior, {param: PosteriorCharacteristics})``.
    """
    mix = _glm_mixture(fit, retained, dirac_peak_width)
    ug = _unit_grid(n_points)
    grids, densities = [], []
    for k in range(len(fit.param_names)):
        span = fit.hi[k] - fit.lo[k]
        g = fit.lo[k] + ug * span
        f = _mixture_on_grid(mix, [k], [ug]) / span
        total = np.trapezoid(f, g)
        if not total > 0:
            raise NumericalError(
                f"posterior mass for {fit.param_names[k]} fell outside the grid")
        grids.append(g)
        densities.append(f / total)
    post = GridPosterior(fit.param_names, tuple(grids), tuple(densities))
    chars = {name: post.characteristics(name) for name in fit.param_names}
    return post, chars


def check_joint_grid(n_params: int, n_points: int) -> None:
    """Raise a :class:`ConfigError` unless :func:`joint_posterior` can
    compute a grid of ``n_points`` per parameter over ``n_params``."""
    if n_points < 2:
        raise ConfigError(f"a joint grid needs at least 2 points per "
                          f"parameter, got {n_points}")
    if n_points ** n_params > JOINT_GRID_MAX_POINTS:
        feasible = int(JOINT_GRID_MAX_POINTS ** (1 / n_params) + 1e-9)
        raise ConfigError(
            f"a joint grid of {n_points}^{n_params} points exceeds the "
            f"limit of {JOINT_GRID_MAX_POINTS}; use at most {feasible} points "
            "per parameter")


def joint_posterior(fit: GlmFit, retained: RetainedSet, params=None,
                    n_points: int = DEFAULT_GRID_POINTS,
                    dirac_peak_width: float = DEFAULT_PEAK_WIDTH
                    ) -> JointGridPosterior:
    """Joint posterior of 2 to 4 parameters on a tensor grid.

    The credible level at each grid point is the smallest posterior mass of
    the density super-level set containing it, found by ranking grid cells
    by density and accumulating their mass.
    """
    params = list(params) if params is not None else list(fit.param_names)
    if not 2 <= len(params) <= 4:
        raise ValueError("joint grids support 2 to 4 parameters "
                         f"(got {len(params)}); use sampling beyond that")
    check_joint_grid(len(params), n_points)
    sel = [fit.param_names.index(name) for name in params]
    mix = _glm_mixture(fit, retained, dirac_peak_width)
    ugrids = [_unit_grid(n_points)] * len(sel)
    dens = _mixture_on_grid(mix, sel, ugrids)

    spans = np.array([fit.hi[k] - fit.lo[k] for k in sel])
    cell_u = np.prod([ug[1] - ug[0] for ug in ugrids])
    total = dens.sum() * cell_u
    if not total > 0:
        raise NumericalError("joint posterior mass fell outside the grid")
    dens /= total
    cell_volume = cell_u * float(np.prod(spans))
    dens_raw = dens / np.prod(spans)

    _, levels, cell = _credible_levels(dens_raw, dens_raw * cell_volume)
    shape = tuple(len(g) for g in ugrids)
    grids = tuple(fit.lo[k] + ugrids[j] * spans[j] for j, k in enumerate(sel))
    return JointGridPosterior(
        tuple(params), grids,
        dens_raw.reshape(shape, order="F"),
        levels[cell].reshape(shape, order="F"),
        cell_volume)

