"""Diagnostics for estimations and model choice.

Model fit is probed with two statistics of the observation a retained set
carries, relative to its cloud: its marginal density under the fitted
likelihood model and its Tukey (halfspace) depth, each turned into a
P-value by ranking it among the cloud.  The depth is that of random
projections (Cuesta-Albertos & Nieto-Reyes 2008); the depths of the
cloud's own points come by rank scatter: each direction's projections are
sorted once, and the count of each sorted position goes back to its point.
Estimation accuracy and bias are probed by leave-one-out cross-validation
on pseudo-observed data sets, recording point estimates, the posterior
quantile of the true value, and the smallest credible level containing
it; Kolmogorov-Smirnov tests of those two columns against the uniform
distribution check coverage, with the exact two-sided P-value of Simard &
L'Ecuyer (2011, J. Stat. Softw. 39(11)), ported from SciPy's
``scipy/stats/_ksstats.py`` into :mod:`abckit._kstwo` so that this module
does not import ``scipy.stats``.
Model choice by ABC-GLM marginal densities is validated the same way,
yielding a confusion matrix and the raw posterior model probabilities of
each pseudo-observation.  One settings type, :class:`GlmSettings`, serves
both: it gives every retention its count and, by ``standardize``, its
scale.

The replicates of a cross-validation and the queries of a model-choice
validation are independent: they run on every CPU, by the rule of
:func:`abckit.forkmap.fork_map`, after all the random draws, so the
outputs and the log do not depend on the number of CPUs.  The
model-choice validations of several statistic subsets (one step of the
greedy statistic search) go through one fork-map:
:func:`model_choice_validations` draws the rows of every subset first, in
the order that one validation per subset would draw them, and each query
reads only its subset's columns of the full tables.

Both validations follow one failure rule (:func:`_each_query`): a
replicate or query that raises an ``AbckitError`` (a degenerate
pseudo-observation, say, whose retained parameters are constant) is
logged as a warning in item order and left out of the written files and
of the confusion counts; a validation in which every item fails raises
its first error, and any other exception ends the run.  The command line
logs how many items of each validation failed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import adjust, forkmap
from ._kstwo import kstwo_sf
from .errors import AbckitError
from .modelchoice import glm_model_choice
from .rejection import RetainedSet, Standardizer, retain
from .tableio import ObservedStats, SimulationTable

log = logging.getLogger(__name__)

__all__ = [
    "FitPValues", "ValidationRow", "ConfusionMatrix", "GlmSettings",
    "marginal_density_pvalue", "tukey_depth", "tukey_pvalue", "fit_pvalues",
    "cross_validate", "coverage_tests", "model_choice_validate",
    "model_choice_validations",
]


# ---------------------------------------------------------------------------
# model-fit P-values


@dataclass(frozen=True)
class FitPValues:
    marginal_density: float
    log_marginal_density: float
    marginal_pvalue: float
    tukey_depth: float
    tukey_pvalue: float
    n_checked: int


def marginal_density_pvalue(fit, retained: RetainedSet, n_check=None,
                            dirac_peak_width=adjust.DEFAULT_PEAK_WIDTH):
    """Fraction of retained simulations whose marginal density is at most
    the observation's.  Returns ``(pvalue, log_density_obs)``."""
    n_check = retained.n if n_check is None else int(n_check)
    if not 1 <= n_check <= retained.n:
        raise ValueError(f"cannot check {n_check} of {retained.n} retained rows")
    # the observation and the cloud go through one call, so a cloud member
    # compared with itself ties exactly
    z = np.vstack([retained.obs_std, retained.stats_std[:n_check]])
    ld = adjust.glm_log_marginal_densities(fit, retained, z, dirac_peak_width)
    return float((ld[1:] <= ld[0]).mean()), float(ld[0])


def _unit_directions(dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=(n, dim))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return v / norms


# directions, and comparisons of explicit queries, handled at once by
# tukey_depth, to bound its temporaries
_DEPTH_BLOCK = 128
_DEPTH_ELEMENTS = 2_000_000


def _cloud_depth_counts(proj: np.ndarray) -> np.ndarray:
    """``min(#{p <= p_i}, #{p >= p_i})`` for every entry ``p_i`` of each
    row of ``proj``, counted within its row.  Each row is sorted once, and
    the counts of each sorted position are scattered back to the entries by
    the sort's permutation.  Without a tie among the rows, the entry at
    sorted position ``r`` counts ``min(r + 1, n - r)``; otherwise a value's
    counts are read off where its run of ties ends and starts."""
    b, n = proj.shape
    order = np.argsort(proj, axis=1)
    ranked = np.take_along_axis(proj, order, axis=1)
    pos = np.arange(n)
    starts = np.ones((b, n), dtype=bool)
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=starts[:, 1:])
    if starts.all():
        first, last = pos, pos
    else:
        first = np.where(starts, pos, 0)
        np.maximum.accumulate(first, axis=1, out=first)
        ends = np.ones((b, n), dtype=bool)
        ends[:, :-1] = starts[:, 1:]
        last = np.where(ends, pos, n)[:, ::-1]
        last = np.minimum.accumulate(last, axis=1)[:, ::-1]
    counts = np.empty((b, n), dtype=np.intp)
    np.put_along_axis(counts, order, np.minimum(last + 1, n - first), axis=1)
    return counts


def tukey_depth(points: np.ndarray, queries: np.ndarray | None,
                directions: np.ndarray) -> np.ndarray:
    """Random-projection halfspace depth of each query in the point cloud.

    For every direction the depth contribution is the smaller of the
    fractions of points projecting at or below / at or above the query; the
    depth is the minimum over directions.  Points of the cloud itself
    therefore have depth >= 1/n, while a query outside the convex hull has
    depth 0.  Adding directions can only lower the value (it is an upper
    bound on the exact depth).

    ``queries=None`` asks for the depth of every cloud point.  Each point's
    projection is then its row of the cloud's own product, and the counts
    come from ranks: every direction's projections are sorted once, and
    each rank's count is scattered back to its point (see
    :func:`_cloud_depth_counts`).  For explicit queries the points at or
    below and at or above each query are counted directly, which suits a
    few queries; pass ``None`` rather than the cloud itself.  Directions
    are taken :data:`_DEPTH_BLOCK` at a time, and explicit queries in
    groups of at most :data:`_DEPTH_ELEMENTS` comparisons.
    """
    points = np.atleast_2d(points)
    n = len(points)
    proj = points @ directions.T                  # (n, k)
    if queries is None:
        depth = np.full(n, np.inf)
        for j in range(0, proj.shape[1], _DEPTH_BLOCK):
            counts = _cloud_depth_counts(proj[:, j:j + _DEPTH_BLOCK].T)
            depth = np.minimum(depth, counts.min(axis=0))
        return np.minimum(depth / n, 0.5)
    qproj = np.atleast_2d(queries) @ directions.T  # (m, k)
    depth = np.full(len(qproj), np.inf)
    rows = max(1, _DEPTH_ELEMENTS // max(n * _DEPTH_BLOCK, 1))
    for i in range(0, len(qproj), rows):
        for j in range(0, proj.shape[1], _DEPTH_BLOCK):
            p = proj[None, :, j:j + _DEPTH_BLOCK]
            q = qproj[i:i + rows, None, j:j + _DEPTH_BLOCK]
            le = (p <= q).sum(axis=1)
            ge = (p >= q).sum(axis=1)
            depth[i:i + rows] = np.minimum(depth[i:i + rows],
                                           np.minimum(le, ge).min(axis=1))
    return np.minimum(depth / n, 0.5)


def tukey_pvalue(points: np.ndarray, obs: np.ndarray, n_check=None,
                 n_projections: int = 1000, rng=None):
    """Fraction of the first ``n_check`` cloud points (all by default)
    with depth at most the observation's.  Returns ``(pvalue,
    depth_obs)``."""
    rng = np.random.default_rng(rng)
    points = np.atleast_2d(points)
    if len(points) < 10:
        raise ValueError("need at least 10 points for a depth P-value")
    n_check = len(points) if n_check is None else int(n_check)
    if not 1 <= n_check <= len(points):
        raise ValueError(f"cannot check {n_check} of {len(points)} points")
    dirs = _unit_directions(points.shape[1], n_projections, rng)
    obs_depth = float(tukey_depth(points, np.atleast_2d(obs), dirs)[0])
    sim_depth = tukey_depth(points, None, dirs)[:n_check]
    return float((sim_depth <= obs_depth).mean()), obs_depth


def fit_pvalues(fit, retained: RetainedSet, n_marginal=None, n_tukey=None,
                n_projections: int = 1000, rng=None,
                dirac_peak_width=adjust.DEFAULT_PEAK_WIDTH) -> FitPValues:
    """Both model-fit tests of the retained set's observation against the
    set itself, each on its first ``n_marginal`` / ``n_tukey`` retained
    rows (all by default; a count outside 1 to ``retained.n`` is a
    ``ValueError``).  ``n_checked`` is the larger of the two counts.  Only
    perfbench and the tests call it; ROADMAP item 1 deletes it and
    :class:`FitPValues`."""
    n_marginal = retained.n if n_marginal is None else int(n_marginal)
    n_tukey = retained.n if n_tukey is None else int(n_tukey)
    marg_p, obs_ld = marginal_density_pvalue(fit, retained, n_marginal,
                                             dirac_peak_width)
    tuk_p, depth = tukey_pvalue(retained.stats_std, retained.obs_std,
                                n_tukey, n_projections, rng)
    return FitPValues(adjust.safe_exp(obs_ld), obs_ld, marg_p, depth, tuk_p,
                      max(n_marginal, n_tukey))


def _each_query(fn, groups, what: str) -> list[list]:
    """``fn`` of every item of ``groups``, one list of items per
    validation, through one :func:`abckit.forkmap.fork_map`, under the
    failure rule of every validation: an item whose ``fn`` raises an
    ``AbckitError`` gives that error in place of its result, and logs it as
    the warning ``"<what> failed: <error>"`` among its own records, so in
    item order.  A validation in which every item fails raises its first
    error; any other exception ends every validation.  Returns the results
    of each group."""
    def attempt(item):
        try:
            return fn(item)
        except AbckitError as exc:
            log.warning("%s failed: %s", what, exc)
            return exc

    results = iter(forkmap.fork_map(attempt,
                                    [item for g in groups for item in g]))
    out = [[next(results) for _ in group] for group in groups]
    for group in out:
        if group and all(isinstance(r, AbckitError) for r in group):
            raise group[0]
    return out


# ---------------------------------------------------------------------------
# cross-validation of parameter estimates


@dataclass(frozen=True)
class GlmSettings:
    """Settings shared by estimation and model-choice runs (retention size,
    posterior grid resolution, Dirac peak width and the distance scale)."""

    num_retained: int = 1000
    n_points: int = adjust.DEFAULT_GRID_POINTS
    dirac_peak_width: float = adjust.DEFAULT_PEAK_WIDTH
    standardize: bool = True


@dataclass
class ValidationRow:
    truth: dict[str, float]
    mode: dict[str, float] = field(default_factory=dict)
    mean: dict[str, float] = field(default_factory=dict)
    median: dict[str, float] = field(default_factory=dict)
    quantile: dict[str, float] = field(default_factory=dict)
    hdi: dict[str, float] = field(default_factory=dict)
    error: str | None = None


def _scale(table: SimulationTable, settings: GlmSettings):
    # None fits the scale to the table; the identity keeps raw statistics
    return None if settings.standardize else Standardizer.identity(table.stat_names)


def _glm_estimator(table: SimulationTable, pseudo: ObservedStats,
                   exclude: int, settings: GlmSettings
                   ) -> tuple[adjust.GridPosterior, dict]:
    r = retain(table, pseudo, settings.num_retained, _scale(table, settings),
               exclude)
    fit = adjust.glm_fit(r)
    return adjust.glm_posterior(fit, r, n_points=settings.n_points,
                                dirac_peak_width=settings.dirac_peak_width)


def cross_validate(table: SimulationTable, mode: str, n_val: int,
                   settings: GlmSettings | None = None, rng=None,
                   obs: ObservedStats | None = None, estimator=None
                   ) -> list[ValidationRow]:
    """Leave-one-out validation on ``n_val`` pseudo-observed simulations.

    ``mode`` is ``"random"`` (pseudo-observations drawn from the whole
    table, i.e. from the prior) or ``"retained"`` (drawn among the
    simulations retained for the actual observation, which must then be
    given).  Each chosen row is left out, the posterior is estimated from
    the remainder, and the point estimates plus the posterior quantile and
    smallest credible level of the true value are recorded.  A replicate
    whose estimator raises an ``AbckitError`` keeps its row with the error
    (``ValidationRow.error``), under the failure rule of
    :func:`_each_query`: a validation whose every replicate fails raises.

    ``estimator(table, pseudo, exclude)`` returns the pair ``(post,
    chars)`` for the pseudo-observation from the full table without row
    ``exclude``: a :class:`GridPosterior` and its
    :class:`PosteriorCharacteristics` by parameter name, as
    :func:`abckit.adjust.glm_posterior` returns them.  The default retains
    (``retain(..., exclude=exclude)``) and fits ABC-GLM with ``settings``.
    The replicates run through :func:`abckit.forkmap.fork_map`, so the
    estimator may run in a forked child: it must be a function of its
    arguments, and what else it changes stays in the child.
    """
    rng = np.random.default_rng(rng)
    settings = settings or GlmSettings()
    estimator = estimator or (
        lambda t, p, i: _glm_estimator(t, p, i, settings))
    if n_val >= table.n_rows:
        raise ValueError(f"n_val must be below the table size {table.n_rows}")
    if mode == "random":
        pool = np.arange(table.n_rows)
    elif mode == "retained":
        if obs is None:
            raise ValueError("retained validation needs the actual observation")
        kept = retain(table, obs, settings.num_retained,
                      _scale(table, settings))
        pool = np.asarray(kept.indices)
    else:
        raise ValueError(f"unknown validation mode {mode!r}")
    chosen = rng.choice(pool, size=min(n_val, len(pool)), replace=False)

    pnames = table.param_names
    snames = table.stat_names
    chosen = [int(i) for i in chosen]

    def truth(i: int) -> dict[str, float]:
        return dict(zip(pnames, table.values[i, list(table.param_idx)]))

    def replicate(i: int) -> ValidationRow:
        pseudo = ObservedStats(snames, table.values[i, list(table.stat_idx)])
        post, chars = estimator(table, pseudo, i)
        row = ValidationRow(truth(i))
        for name in pnames:
            ch = chars[name]
            row.mode[name] = ch.mode
            row.mean[name] = ch.mean
            row.median[name] = ch.median
            row.quantile[name] = post.quantile_of(name, row.truth[name])
            row.hdi[name] = post.hdi_level_of(name, row.truth[name])
        return row

    results = _each_query(replicate, [chosen], "validation replicate")[0]
    return [ValidationRow(truth(i), error=str(r))
            if isinstance(r, AbckitError) else r
            for i, r in zip(chosen, results)]


def validation_table(rows: list[ValidationRow], param_names):
    """Arrange validation rows for the tagged output file."""
    header = []
    for p in param_names:
        header += [p, f"{p}_mode", f"{p}_mean", f"{p}_median",
                   f"{p}_quantile", f"{p}_HDI"]
    out = []
    for row in rows:
        if row.error is not None:
            continue
        rec = []
        for p in param_names:
            rec += [row.truth[p], row.mode[p], row.mean[p], row.median[p],
                    row.quantile[p], row.hdi[p]]
        out.append(rec)
    return header, out


def _ks_uniform(values) -> tuple[float, float]:
    """Two-sided one-sample Kolmogorov-Smirnov test of ``values`` against
    the uniform distribution on [0, 1]: ``(statistic, pvalue)``.

    The statistic is computed as ``scipy.stats.ks_1samp`` does, ``D =
    max(D+, D-)`` over the sorted values with the uniform CDF taken as a
    clip to [0, 1], and the P-value is the exact finite-``n`` survival
    function of Simard & L'Ecuyer (2011) in :mod:`abckit._kstwo`, so both
    floats equal those of ``scipy.stats.kstest(values, "uniform")``
    (whose last clip of the P-value to [0, 1] is already done there).
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    cdf = np.clip(x, 0.0, 1.0)
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    d = float(max(d_plus, d_minus))
    return d, kstwo_sf(d, n)


def coverage_tests(rows: list[ValidationRow]) -> dict[str, dict[str, float]]:
    """Kolmogorov-Smirnov uniformity tests (:func:`_ks_uniform`) of the
    posterior-quantile and credible-level columns, per parameter.

    Under unbiased posteriors both are uniform on [0, 1].
    """
    ok = [r for r in rows if r.error is None]
    if len(ok) < 20:
        raise ValueError(f"need at least 20 successful rows, have {len(ok)}")
    out = {}
    for name in ok[0].truth:
        q = np.array([r.quantile[name] for r in ok])
        h = np.array([r.hdi[name] for r in ok])
        q_ks, q_p = _ks_uniform(q)
        h_ks, h_p = _ks_uniform(h)
        out[name] = {"quantile_ks": q_ks, "quantile_p": q_p,
                     "hdi_ks": h_ks, "hdi_p": h_p}
    return out


# ---------------------------------------------------------------------------
# model-choice validation


@dataclass(frozen=True)
class ConfusionMatrix:
    counts: np.ndarray            # [true, chosen]

    @property
    def per_model_accuracy(self) -> np.ndarray:
        totals = self.counts.sum(axis=1)
        with np.errstate(invalid="ignore"):
            return np.where(totals > 0, np.diag(self.counts) / totals, np.nan)

    @property
    def overall_accuracy(self) -> float:
        return float(np.trace(self.counts) / self.counts.sum())


def model_choice_validate(tables, n_val: int,
                          settings: GlmSettings | None = None, rng=None):
    """Cross-validate model choice with ``n_val`` pseudo-observations drawn
    from each model.

    Each drawn simulation is left out of its source table
    (``exclude=(model, row)``), model choice is run on the remainder, and
    the preferred model recorded.  Only the retention count, the Dirac
    peak width and ``standardize`` of ``settings`` are used.  Every
    model's rows are drawn first; the queries then run through
    :func:`abckit.forkmap.fork_map`.  Returns the confusion matrix and the
    raw rows ``(true_model, probabilities)``.  A query that raises an
    ``AbckitError`` is left out of both, under the failure rule of
    :func:`_each_query`: a validation whose every query fails raises.
    This is the case of one subset, the first table's statistics in its
    order, of :func:`model_choice_validations`.
    """
    return model_choice_validations(tables, [tables[0].stat_names], n_val,
                                    settings, rng)[0]


def model_choice_validations(tables, subsets, n_val: int,
                             settings: GlmSettings | None = None, rng=None):
    """:func:`model_choice_validate` of the tables restricted to each
    statistic subset in ``subsets`` (a sequence of statistic names, in the
    order the distances read them), with one
    :func:`abckit.forkmap.fork_map` for all.

    The rows of every subset are drawn first, subset by subset and model
    by model, as one validation per subset in turn would draw them; each
    row's values of the subset are its query's observation, and a subset
    that a table lacks is a ``TableFormatError`` before any query runs.
    :func:`abckit.modelchoice.glm_model_choice` reads only the columns the
    observation names, so each result equals that of the tables copied
    with the subset alone (``SimulationTable.with_stats``).  Returns one
    ``(confusion matrix, raw rows)`` per subset, in order.
    """
    rng = np.random.default_rng(rng)
    settings = settings or GlmSettings()
    n_models = len(tables)
    if n_val > min(t.n_rows for t in tables):
        raise ValueError("n_val exceeds the smallest table")
    groups = []
    for names in subsets:
        group = []
        for m, table in enumerate(tables):
            rows = rng.choice(table.n_rows, size=n_val, replace=False)
            stats = table.values[np.ix_(rows, table.stat_columns(names))]
            group += [(m, int(row), ObservedStats(names, values))
                      for row, values in zip(rows, stats)]
        groups.append(group)

    def query(item: tuple[int, int, ObservedStats]) -> np.ndarray:
        m, row, pseudo = item
        return glm_model_choice(tables, pseudo, settings.num_retained,
                                settings.dirac_peak_width, (m, row),
                                settings.standardize).probabilities

    out = []
    for group, results in zip(groups, _each_query(
            query, groups, "model choice validation query")):
        counts = np.zeros((n_models, n_models), dtype=int)
        raw = [(m, probs) for (m, *_), probs in zip(group, results)
               if not isinstance(probs, AbckitError)]
        for m, probs in raw:
            counts[m, int(np.argmax(probs))] += 1
        out.append((ConfusionMatrix(counts), raw))
    return out


def confusion_table(cm: ConfusionMatrix):
    n = cm.counts.shape[0]
    header = ["trueModel"] + [f"chosen{j}" for j in range(n)] + \
             [f"fraction{j}" for j in range(n)] + ["accuracy"]
    rows = []
    totals = cm.counts.sum(axis=1)
    for m in range(n):
        frac = cm.counts[m] / totals[m] if totals[m] else np.zeros(n)
        rows.append([m, *cm.counts[m].tolist(), *frac.tolist(),
                     cm.per_model_accuracy[m]])
    return header, rows


def raw_choice_table(raw):
    n_models = len(raw[0][1]) if raw else 0
    header = ["trueModel"] + [f"pABCmodel{j}" for j in range(n_models)]
    rows = [[t, *probs.tolist()] for t, probs in raw]
    return header, rows


def ModelChoiceSettings(method: str = "glm", num_retained: int = 1000,
                        tol: float | None = None,
                        dirac_peak_width: float = adjust.DEFAULT_PEAK_WIDTH,
                        standardize: bool = True) -> GlmSettings:
    """The :class:`GlmSettings` equal to the former model-choice settings.

    It exists only for the call in ``perfbench/workloads.py`` and is
    deleted with ROADMAP item 1.  ABC-GLM is the only model-choice method,
    so any other ``method`` or a ``tol`` is a ``ValueError``.
    """
    if method != "glm" or tol is not None:
        raise ValueError(f"model choice is by ABC-GLM with a retention "
                         f"count only, got method={method!r}, tol={tol!r}")
    return GlmSettings(num_retained, dirac_peak_width=dirac_peak_width,
                       standardize=standardize)
