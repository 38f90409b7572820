"""Summary-statistic engineering.

* ``boost`` augments a table with all squares and pairwise products of its
  statistics, exposing nonlinear information to the linear methods.
* Box-Cox normalization per statistic: values are first mapped affinely
  into [1, 2] using the observed range, then power-transformed with a
  profile-likelihood lambda, then standardized.
* Partial least squares finds linear combinations of the normalized
  statistics that covary with the parameters.  One engine, kernel PLS on
  the centered cross-products ``Z'Z`` and ``Z'Y`` (multi-response), fits
  the written definition and every cross-validation fold; the component
  count is chosen from the cross-validated prediction-error curve.
* A definition file stores, per statistic, the six Box-Cox numbers
  (max, min, lambda, geometric mean, mean, sd) followed by one loading per
  component; ``transform`` applies such a definition to tables or observed
  statistics.
* :class:`StatMap` resolves the names for boosting and a definition once;
  ``boost``, ``boost_observed``, ``transform`` and the MCMC chain's
  distance apply such a map to a table or to one-row matrices.
* A greedy search ranks statistic subsets by their power to discriminate
  between models, measured by model-choice cross-validation; it stops when
  the best addition gains less than :data:`MIN_GAIN`, skipping statistics
  too correlated (:func:`abckit.rejection.abs_correlations`) with it.
  Each step validates all its new subsets with one fork-map
  (:func:`abckit.validation.model_choice_validations`), on column
  selections of the tables rather than copies; :mod:`abckit.forkmap`
  states which CPUs run the queries.
"""

from __future__ import annotations

import copy
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericalError, TableFormatError
from .rejection import abs_correlations
from .tableio import ObservedStats, SimulationTable
from .validation import GlmSettings, model_choice_validations

log = logging.getLogger(__name__)

__all__ = [
    "BoxCoxSpec", "LinearCombDef", "StatMap", "SubsetResult", "boost",
    "boost_observed", "fit_boxcox", "fit_pls", "transform", "greedy_search",
    "subset_power",
]

LAMBDA_GRID = np.round(np.arange(-2.0, 2.0 + 1e-9, 0.1), 10)
LAMBDA_SNAP = 0.05
COMPONENT_PREFIX = "LinearCombination"
# smallest gain in power for which the greedy search adds a statistic
MIN_GAIN = 0.005


# ---------------------------------------------------------------------------
# Box-Cox normalization


@dataclass(frozen=True)
class BoxCoxSpec:
    """Normalization of one statistic: shift into [1, 2] by the observed
    range, power-transform, standardize."""

    vmax: float
    vmin: float
    lamb: float
    gm: float
    mean: float
    sd: float

    def __post_init__(self):
        if not (self.gm > 0 and self.sd > 0):
            raise TableFormatError(
                "Box-Cox numbers need a positive geometric mean and sd, "
                f"got {self.gm} and {self.sd}")

    def apply(self, x, name="statistic"):
        x = np.asarray(x)
        z = _BoxCoxColumns((self,)).apply(x.reshape(-1, 1), (name,))
        return z.reshape(x.shape)


# numpy raises an array to these scalar exponents by reciprocal, square
# root and square, which can differ from pow() in the last bit
_FAST_EXPONENTS = (-1.0, 0.5, 2.0)


class _BoxCoxColumns:
    """The Box-Cox numbers of several statistics as per-column arrays, so
    that one broadcast normalizes every column of a matrix.

    The power transform is (y**lamb - 1) / scale, or log(y) * scale where
    lamb is 0, with scale = lamb * gm**(lamb - 1) (gm where lamb is 0).
    Columns whose lambda is 0 or one of :data:`_FAST_EXPONENTS` are redone
    with that scalar, so a batch equals column-at-a-time bit for bit.
    """

    def __init__(self, specs):
        # span and scale in scalar arithmetic: numpy's vectorized pow can
        # differ from the C library's in the last bit
        span = np.array([s.vmax - s.vmin for s in specs], dtype=float)
        self.degenerate = span <= 0
        self.span = np.where(self.degenerate, 1.0, span)
        self.vmin = np.array([s.vmin for s in specs], dtype=float)
        self.lamb = np.array([s.lamb for s in specs], dtype=float)
        self.scale = np.array([s.gm if s.lamb == 0
                               else s.lamb * s.gm ** (s.lamb - 1.0)
                               for s in specs], dtype=float)
        self.mean = np.array([s.mean for s in specs], dtype=float)
        self.sd = np.array([s.sd for s in specs], dtype=float)
        self.scalar_cols = [(e, np.nonzero(self.lamb == e)[0])
                            for e in (0.0,) + _FAST_EXPONENTS
                            if (self.lamb == e).any()]

    def apply(self, x: np.ndarray, names) -> np.ndarray:
        """Normalize the columns of ``x`` (rows x statistics); the first
        column with a degenerate range or a value below the domain raises."""
        y = 1.0 + (x - self.vmin) / self.span
        outside = y <= 0
        bad = self.degenerate | outside.any(axis=0)
        if bad.any():
            j = int(np.argmax(bad))
            if self.degenerate[j]:
                raise NumericalError(
                    f"{names[j]}: degenerate range in the transform")
            i = int(np.argmax(outside[:, j]))
            raise TableFormatError(
                f"{names[j]}: value {x[i, j]} at row {i + 1} outside the "
                "transform domain")
        bc = (y ** self.lamb - 1.0) / self.scale
        for e, cols in self.scalar_cols:
            if e == 0:
                bc[:, cols] = np.log(y[:, cols]) * self.scale[cols]
            else:
                bc[:, cols] = (y[:, cols] ** e - 1.0) / self.scale[cols]
        return (bc - self.mean) / self.sd


_NONZERO = LAMBDA_GRID != 0
# values of y**lambda the profile likelihood holds at once
_PROFILE_BLOCK = 1 << 20


def _profile_loglik(logy: np.ndarray) -> np.ndarray:
    """Box-Cox profile log-likelihood of y = exp(logy) at every lambda of
    :data:`LAMBDA_GRID`, by the formula of ``scipy.stats.boxcox_llf``:
    (lambda - 1) sum(log y) - n/2 (log var(y**lambda) - 2 log|lambda|),
    with log var(log y) at lambda 0."""
    n = logy.size
    lam = LAMBDA_GRID[_NONZERO]
    rows = max(1, _PROFILE_BLOCK // n)
    var = np.concatenate([
        np.exp(np.multiply.outer(lam[s:s + rows], logy)).var(axis=1)
        for s in range(0, lam.size, rows)])
    logvar = np.empty(LAMBDA_GRID.size)
    logvar[_NONZERO] = np.log(var) - 2.0 * np.log(np.abs(lam))
    logvar[~_NONZERO] = np.log(logy.var())
    return (LAMBDA_GRID - 1.0) * logy.sum() - n / 2 * logvar


def fit_boxcox(values, name="statistic") -> BoxCoxSpec:
    """Fit the transform to observed values: lambda maximizes the normal
    profile log-likelihood on a grid over [-2, 2] (snapped to 0, the log
    transform, when small)."""
    x = np.asarray(values, dtype=float)
    vmin, vmax = float(x.min()), float(x.max())
    if vmax <= vmin:
        raise NumericalError(f"{name}: constant statistic, cannot transform")
    logy = np.log(1.0 + (x - vmin) / (vmax - vmin))
    lamb = float(LAMBDA_GRID[int(np.argmax(_profile_loglik(logy)))])
    if abs(lamb) < LAMBDA_SNAP:
        lamb = 0.0
    gm = float(np.exp(logy.mean()))
    # mean 0 and sd 1 leave the power transform unstandardized
    bc = BoxCoxSpec(vmax, vmin, lamb, gm, 0.0, 1.0).apply(x, name)
    sd = float(bc.std(ddof=0))
    if sd == 0:
        raise NumericalError(f"{name}: constant statistic after transform")
    return BoxCoxSpec(vmax, vmin, lamb, gm, float(bc.mean()), sd)


# ---------------------------------------------------------------------------
# linear-combination definitions


@dataclass(frozen=True)
class LinearCombDef:
    """Per-statistic Box-Cox numbers plus a loading matrix
    (statistics x components); row order defines the file order."""

    stat_names: tuple[str, ...]
    boxcox: tuple[BoxCoxSpec, ...]
    loadings: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "loadings",
                           np.atleast_2d(np.asarray(self.loadings, dtype=float)))
        if self.loadings.shape[0] != len(self.stat_names):
            raise TableFormatError("one loading row per statistic required")
        if self.loadings.shape[1] < 1:
            raise TableFormatError("need at least one component")
        if len(self.boxcox) != len(self.stat_names):
            raise TableFormatError("one Box-Cox row per statistic required")
        object.__setattr__(self, "_columns", _BoxCoxColumns(self.boxcox))

    @property
    def n_components(self) -> int:
        return self.loadings.shape[1]

    def normalized(self, stats: np.ndarray, apply_boxcox: bool = True) -> np.ndarray:
        stats = np.atleast_2d(stats)
        if not apply_boxcox:
            return stats
        return self._columns.apply(stats, self.stat_names)

    def scores(self, stats: np.ndarray, n_components=None,
               apply_boxcox: bool = True) -> np.ndarray:
        k = self.n_components if n_components is None else int(n_components)
        if not 1 <= k <= self.n_components:
            raise ValueError(f"have {self.n_components} components, asked for {k}")
        return self.normalized(stats, apply_boxcox) @ self.loadings[:, :k]

    def save(self, path) -> Path:
        path = Path(path)
        with open(path, "w") as fh:
            for j, name in enumerate(self.stat_names):
                bc = self.boxcox[j]
                nums = [bc.vmax, bc.vmin, bc.lamb, bc.gm, bc.mean, bc.sd,
                        *self.loadings[j]]
                fh.write(" ".join([name] + [format(v, ".12g") for v in nums]) + "\n")
        return path

    @classmethod
    def load(cls, path) -> "LinearCombDef":
        names, specs, rows = [], [], []
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            if not line.strip():
                continue
            fields = line.split()
            if len(fields) < 8:
                raise TableFormatError(
                    "definition rows need a name, six transform numbers and "
                    "at least one loading", path=path, line=lineno)
            try:
                nums = [float(v) for v in fields[1:]]
            except ValueError:
                raise TableFormatError("non-numeric field", path=path,
                                       line=lineno) from None
            if not all(map(math.isfinite, nums)):
                raise TableFormatError("non-finite number", path=path, line=lineno)
            try:
                specs.append(BoxCoxSpec(*nums[:6]))
            except TableFormatError as exc:
                raise TableFormatError(str(exc), path=path,
                                       line=lineno) from None
            names.append(fields[0])
            rows.append(nums[6:])
        if not rows:
            raise TableFormatError("empty definition file", path=path)
        k = len(rows[0])
        if any(len(r) != k for r in rows):
            raise TableFormatError("inconsistent component counts", path=path)
        return cls(tuple(names), tuple(specs), np.array(rows))


# ---------------------------------------------------------------------------
# the statistic map: boosting, then a definition


class StatMap:
    """Boosting, then a linear-combination definition, resolved once for
    named input columns.

    Boosting appends ``a_X_b``, the product of every pair ``a <= b`` of
    statistic columns (``stat_idx``, all by default).  A definition then
    replaces its columns by ``LinearCombination_1..k`` and passes the
    others through; ``source`` names the input when they are missing.
    Applying the map to an (n, d) matrix handles no names.  The matrix
    product rounds by shape, so a single vector is mapped as a one-row
    matrix, as :func:`transform` maps an observation.
    """

    def __init__(self, names, boosting: bool = False,
                 comb: LinearCombDef | None = None, n_components=None,
                 apply_boxcox: bool = True, stat_idx=None,
                 source: str = "table"):
        self.names = mid = tuple(names)
        stats = np.arange(len(mid)) if stat_idx is None else np.array(
            stat_idx, dtype=int)
        self.pairs = None
        if boosting:
            a, b = np.triu_indices(len(stats))
            self.pairs = (stats[a], stats[b])
            mid += tuple(f"{mid[i]}_X_{mid[j]}" for i, j in zip(*self.pairs))
        self.stat_cols = tuple(stats) + tuple(range(len(self.names), len(mid)))
        self.comb, self.pick = comb, None
        self.keep, self.out_names = np.arange(len(mid)), mid
        if comb is None:
            return
        col = {n: i for i, n in enumerate(mid)}
        missing = [n for n in comb.stat_names if n not in col]
        if missing:
            raise TableFormatError(
                f"statistics missing from {source}: {', '.join(missing)}")
        self.comb_idx = np.array([col[n] for n in comb.stat_names])
        self.k = comb.n_components if n_components is None else int(n_components)
        self.apply_boxcox = apply_boxcox
        self.keep = np.array([i for i, n in enumerate(mid)
                              if n not in comb.stat_names], dtype=int)
        self.out_names = tuple(mid[i] for i in self.keep) + tuple(
            f"{COMPONENT_PREFIX}_{i + 1}" for i in range(self.k))

    def select(self, names) -> "StatMap":
        """The same map with only the output columns ``names``."""
        out = copy.copy(self)
        pick = np.array([self.out_names.index(n) for n in names], dtype=int)
        out.pick = pick if self.pick is None else self.pick[pick]
        out.out_names = tuple(names)
        return out

    def __call__(self, x) -> np.ndarray:
        """Map the rows of ``x`` (n x len(names)) to the output columns."""
        x = np.asarray(x, dtype=float)
        if self.pairs is not None:
            x = np.column_stack([x, x[:, self.pairs[0]] * x[:, self.pairs[1]]])
        if self.comb is not None:
            scores = self.comb.scores(x[:, self.comb_idx], self.k,
                                      self.apply_boxcox)
            x = np.column_stack([x[:, self.keep], scores])
        return x if self.pick is None else x[:, self.pick]

    def observation(self, obs: ObservedStats) -> ObservedStats:
        """The map of an observation, as a one-row matrix."""
        return ObservedStats(self.out_names, self(obs.values[None, :])[0])

    def table(self, table: SimulationTable) -> SimulationTable:
        """Parameters that pass through stay parameters; statistics and new
        columns are statistics."""
        pos = {int(c): j for j, c in enumerate(self.keep)}
        param_idx = tuple(pos[i] for i in table.param_idx if i in pos)
        stat_idx = tuple(pos[i] for i in self.stat_cols if i in pos)
        stat_idx += tuple(range(len(self.keep), len(self.out_names)))
        return SimulationTable(self.out_names, self(table.values), param_idx,
                               stat_idx)


def boost(table: SimulationTable) -> SimulationTable:
    """Append all squares and pairwise products of the statistics."""
    if not table.stat_names:
        raise TableFormatError("table has no statistics to boost")
    return StatMap(table.names, boosting=True,
                   stat_idx=table.stat_idx).table(table)


def boost_observed(obs: ObservedStats) -> ObservedStats:
    return StatMap(obs.names, boosting=True,
                   source="observation").observation(obs)


def transform(data, comb: LinearCombDef, n_components=None,
              apply_boxcox: bool = True):
    """Apply a linear-combination definition.

    Columns named in the definition are replaced by
    ``LinearCombination_1..k``; every other column (parameters included)
    passes through untouched.  Works on simulation tables or observed
    statistics; the map is row-wise, so it commutes with row selection.
    """
    if isinstance(data, ObservedStats):
        return StatMap(data.names, comb=comb, n_components=n_components,
                       apply_boxcox=apply_boxcox,
                       source="observation").observation(data)
    return StatMap(data.names, comb=comb, n_components=n_components,
                   apply_boxcox=apply_boxcox,
                   stat_idx=data.stat_idx).table(data)


# ---------------------------------------------------------------------------
# partial least squares (kernel PLS)


# rows per block of the cross-products: one product over all rows leaves
# about 0.3 MB more of the BLAS packing buffers resident in the process
_CROSS_ROWS = 128


def _cross_products(x: np.ndarray, y: np.ndarray):
    """``X'X`` and ``X'Y``, summed over blocks of ``_CROSS_ROWS`` rows."""
    xx = np.zeros((x.shape[1], x.shape[1]))
    xy = np.zeros((x.shape[1], y.shape[1]))
    for start in range(0, len(x), _CROSS_ROWS):
        block = x[start:start + _CROSS_ROWS]
        xx += block.T @ block
        xy += block.T @ y[start:start + _CROSS_ROWS]
    return xx, xy


def _dominant_eigenvector(g: np.ndarray) -> np.ndarray:
    """Eigenvector of the largest eigenvalue of a symmetric positive
    semi-definite matrix, by squaring it 40 times (the other eigenvalues
    fall by their ratio to the largest raised to the power 2**40); a zero
    matrix gives a zero vector."""
    for _ in range(40):
        top = np.abs(g).max()
        if top == 0:
            return g[:, 0]
        g = g / top
        g = g @ g
    v = g[:, int(np.argmax((g * g).sum(axis=0)))]
    return v / np.linalg.norm(v)


def _kernel_pls(xx: np.ndarray, xy: np.ndarray, k: int):
    """PLS from the cross-products ``X'X`` and ``X'Y`` of centered data
    (Dayal & MacGregor 1997, improved kernel algorithm 1).

    Returns the projection R (scores ``T = X R``) and the y-loadings Q; the
    regression on the first ``c`` components is ``R[:, :c] Q[:, :c]'``.
    The weights are those of NIPALS with regression deflation at its fixed
    point, found without iterating.
    """
    xy = xy.copy()
    m, p = xy.shape
    r_all = np.zeros((m, k))
    p_all = np.zeros((m, k))
    q_all = np.zeros((p, k))
    for c in range(k):
        # the dominant left singular vector of X'Y
        w = xy[:, 0].copy() if p == 1 else xy @ _dominant_eigenvector(xy.T @ xy)
        nw = np.linalg.norm(w)
        if nw == 0:
            raise NumericalError("statistics fully deflated before "
                                 f"component {c + 1}")
        w /= nw
        r = w - r_all[:, :c] @ (p_all[:, :c].T @ w)
        xxr = xx @ r
        tt = r @ xxr
        p_all[:, c] = xxr / tt
        q_all[:, c] = r @ xy / tt
        xy -= tt * np.outer(p_all[:, c], q_all[:, c])
        r_all[:, c] = r
    return r_all, q_all


def _centered_pls(z: np.ndarray, y: np.ndarray, k: int):
    """Kernel PLS of ``y`` on ``z``, both centered by their column means.

    Returns the means of ``z`` and ``y``, the projection R and the
    y-loadings Q.
    """
    z_mean, y_mean = z.mean(axis=0), y.mean(axis=0)
    r, q = _kernel_pls(*_cross_products(z - z_mean, y - y_mean), k)
    return z_mean, y_mean, r, q


def _fix_signs(r):
    """Flip each component so that its largest loading is positive."""
    for c in range(r.shape[1]):
        j = int(np.argmax(np.abs(r[:, c])))
        if r[j, c] < 0:
            r[:, c] *= -1
    return r


@dataclass(frozen=True)
class PlsResult:
    definition: LinearCombDef
    scores: np.ndarray          # training scores, one column per component
    rmsep: np.ndarray           # (k_max, n_params), original parameter scale
    recommended: int
    param_names: tuple[str, ...]


def fit_pls(table: SimulationTable, k_max: int, cv_folds: int = 10,
            rng=None) -> PlsResult:
    """Fit Box-Cox plus PLS components to a simulation table.

    Statistics are Box-Cox normalized first; kernel PLS on the centered
    cross-products then extracts up to ``k_max`` components, with each
    component's weights the exact dominant singular vector of the deflated
    ``Z'Y``.  The root-mean-square error of prediction per parameter and
    component count comes from ``cv_folds``-fold cross-validation, each
    fold refitted the same way.  The recommended count is the smallest
    whose error is within 1% of the curve minimum for every parameter.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    if cv_folds < 2:
        raise ValueError(f"cv_folds must be at least 2, got {cv_folds}")
    rng = np.random.default_rng(rng)
    n = table.n_rows
    if n <= k_max + cv_folds:
        raise ValueError(f"need more than {k_max + cv_folds} rows, have {n}")
    # the centred statistics of t training rows have rank at most t - 1, so
    # components beyond that would be fitted to rounding noise
    n_train = n - math.ceil(n / cv_folds)
    if n_train <= k_max:
        raise ValueError(
            f"the smallest training fold has {n_train} rows ({n} rows in "
            f"{cv_folds} folds); {k_max} components need at least "
            f"{k_max + 1}")
    if k_max > len(table.stat_names):
        raise ValueError("more components than statistics requested")
    stats = table.stats
    specs = tuple(fit_boxcox(stats[:, j], name)
                  for j, name in enumerate(table.stat_names))
    z = _BoxCoxColumns(specs).apply(stats, table.stat_names)
    y_raw = table.params
    y_mean, y_sd = y_raw.mean(axis=0), y_raw.std(axis=0, ddof=0)
    if np.any(y_sd == 0):
        raise NumericalError("constant parameter; nothing to predict")
    y = (y_raw - y_mean) / y_sd

    z_mean, _, r, _ = _centered_pls(z, y, k_max)
    r = _fix_signs(r)
    definition = LinearCombDef(table.stat_names, specs, r)

    folds = np.array_split(rng.permutation(n), cv_folds)
    sq_err = np.zeros((k_max, y.shape[1]))
    for fold in folds:
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        zf_mean, yf_mean, rf, qf = _centered_pls(z[mask], y[mask], k_max)
        # predictions with 1..k_max components: cumulative sums of each
        # component's score times its y-loadings
        scores = (z[fold] - zf_mean) @ rf
        pred = yf_mean + np.cumsum(scores.T[:, :, None] * qf.T[:, None, :],
                                   axis=0)
        sq_err += ((y[fold] - pred) ** 2).sum(axis=1)
    rmsep = np.sqrt(sq_err / n) * y_sd

    best = rmsep.min(axis=0)
    ok = np.all(rmsep <= 1.01 * best, axis=1)
    recommended = int(np.nonzero(ok)[0][0]) + 1
    return PlsResult(definition, (z - z_mean) @ r, rmsep, recommended,
                     table.param_names)


# ---------------------------------------------------------------------------
# greedy statistic search for model choice


@dataclass(frozen=True)
class SubsetResult:
    names: tuple[str, ...]
    power: float
    max_pair_cor: float

    @property
    def size(self) -> int:
        return len(self.names)


def _powers(tables, subsets, n_val: int, settings: GlmSettings | None,
            rng) -> list[float]:
    """The power of each subset, all validated with one fork-map."""
    return [cm.overall_accuracy for cm, _ in model_choice_validations(
        tables, subsets, n_val, settings, rng)]


def subset_power(tables, names, n_val: int,
                 settings: GlmSettings | None = None, rng=None) -> float:
    """Discriminating power of a statistic subset: overall accuracy of
    model-choice cross-validation restricted to those statistics.  This is
    the case of one subset of what :func:`greedy_search` scores per step;
    the queries read the subset's columns of the full tables."""
    return _powers(tables, [tuple(names)], n_val, settings, rng)[0]


def greedy_search(tables, n_val: int, settings: GlmSettings | None = None,
                  max_cor: float = 1.0, rng=None) -> list[SubsetResult]:
    """Greedy forward search for the statistic subset that best separates
    the models.

    Every single statistic is scored first; statistics are then added to
    the best subset one at a time, skipping candidates whose absolute
    correlation with an included statistic exceeds ``max_cor``, until the
    best addition improves the power by less than :data:`MIN_GAIN`.  Every
    evaluated subset is returned, ranked by power and then by size (the
    smallest of equally powerful sets first).

    The subsets of one step (the singles, then each step's candidates) are
    scored together: their validation rows are drawn in order, as scoring
    them one by one would draw them, and all their queries run through one
    fork-map.  On equal power the first subset in that order wins.
    """
    rng = np.random.default_rng(rng)
    names = list(tables[0].stat_names)
    corr = abs_correlations(tables, names)
    idx_of = {n: i for i, n in enumerate(names)}

    def pair_cor(subset):
        if len(subset) < 2:
            return 0.0
        ids = [idx_of[n] for n in subset]
        return float(max(corr[a, b] for i, a in enumerate(ids)
                         for b in ids[i + 1:]))

    evaluated: dict[tuple[str, ...], float] = {}

    def best_of(subsets):
        new = [s for s in subsets if s not in evaluated]
        if new:
            evaluated.update(zip(new, _powers(tables, new, n_val, settings,
                                              rng)))
        return max(subsets, key=evaluated.__getitem__)

    current = best_of([(n,) for n in names])
    while True:
        candidates = []
        for n in names:
            if n in current:
                continue
            if any(corr[idx_of[n], idx_of[m]] > max_cor for m in current):
                continue
            candidates.append(current + (n,))
        if not candidates:
            break
        best = best_of(candidates)
        if evaluated[best] - evaluated[current] < MIN_GAIN:
            break
        current = best

    results = [SubsetResult(subset, pw, pair_cor(subset))
               for subset, pw in evaluated.items()]
    results.sort(key=lambda r: (-r.power, r.size))
    return results


def greedy_search_table(results: list[SubsetResult]):
    header = ["rank", "power", "largestPairwiseCorrelation", "nStatistics",
              "statistics"]
    rows = [[rank, r.power, r.max_pair_cor, r.size, ",".join(r.names)]
            for rank, r in enumerate(results, start=1)]
    return header, rows
