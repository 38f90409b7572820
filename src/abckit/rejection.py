"""The basic rejection step: standardize statistics, rank simulations by
distance to the observed statistics, keep the closest.

:func:`retain` is the one retention engine; estimation, model choice and
every leave-one-out loop call it with a count and a scale.  Distances are
Euclidean over statistics standardized by the mean and standard deviation
of the simulation set, or by a supplied scale (pooled over several
models, or :meth:`Standardizer.identity` for raw statistics); the
observation is mapped through the same transform.

Selection partitions the distances around the ``count``-th smallest and
sorts only the rows below it plus the first rows, in row order, that tie
with it, so the kept indices equal a full stable sort cut at ``count``:
ties at the cutoff are broken by row order and results are deterministic.

A leave-one-out replicate passes ``exclude=i`` instead of copying the
table without row ``i``: that row is left out of the fitted
standardization, of the row count that bounds ``count`` and of the
candidate rows, while the returned indices still refer to the full table.

Retention builds no block of rows by statistics: each scale and each
distance is computed one gathered column at a time, and the rounding
follows the order of the sums.  Each scale sums one contiguous column of
the pooled rows (numpy's pairwise sum, the bits of ``mean(axis=0)`` and
``std(axis=0)`` over a column-major block), and each distance adds a
row's squared standardized statistics in column order (the bits of that
block's ``sum(axis=1)``).  A table read from a file is column-major, so
each gather copies one contiguous run per table; the strided read of a
row-major table gathers the same column, and so gives the same bits.

:func:`abs_correlations`, which builds its own block of the pooled
statistics, is the correlation matrix that statistic pruning and the
statistic-subset search read.  Pruning returns the names it keeps, to
which the command line narrows every table, as views over the values read.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, TableFormatError
from .tableio import ObservedStats, SimulationTable

log = logging.getLogger(__name__)

__all__ = ["Standardizer", "RetainedSet", "abs_correlations",
           "prune_correlated", "retain"]


@dataclass(frozen=True)
class Standardizer:
    """Per-statistic center (mean) and scale (standard deviation)."""

    names: tuple[str, ...]
    center: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, tables, names, exclude=None) -> "Standardizer":
        """The mean and standard deviation (``ddof=0``) of each statistic
        ``names`` over the rows of all ``tables`` pooled, less the row
        that ``exclude=(model, row)`` names.

        Each statistic's pooled column is gathered once into one buffer;
        its mean is subtracted and the result squared in place, so the
        fit holds one column of the pooled rows, never all statistics."""
        names = tuple(names)
        skip = [None] * len(tables)
        if exclude is not None:
            model, row = exclude
            if not 0 <= row < tables[model].n_rows:
                raise ValueError(f"excluded row {row} outside model {model}'s "
                                 f"{tables[model].n_rows} rows")
            skip[model] = row
        cols = [t.stat_columns(names) for t in tables]
        column = np.empty(sum(t.n_rows for t in tables) - (exclude is not None))
        center, scale = np.empty(len(names)), np.empty(len(names))
        for j in range(len(names)):
            _gather_column(tables, [c[j] for c in cols], skip, column)
            center[j] = column.mean()
            column -= center[j]
            scale[j] = np.sqrt(np.square(column, out=column).mean())
        return cls(names, center, scale)

    @classmethod
    def identity(cls, names) -> "Standardizer":
        k = len(names)
        return cls(tuple(names), np.zeros(k), np.ones(k))

    def transform(self, x: np.ndarray) -> np.ndarray:
        scale = np.where(self.scale > 0, self.scale, 1.0)
        return (np.asarray(x, dtype=float) - self.center) / scale

    def subset(self, names) -> "Standardizer":
        idx = [self.names.index(n) for n in names]
        return Standardizer(tuple(names), self.center[idx], self.scale[idx])


@dataclass(frozen=True)
class RetainedSet:
    """The retained simulations, ordered by ascending distance.

    Carries, gathered once, the pieces every downstream method needs:
    the matched statistic names, the standardizer that defined the
    distance, the observed vector and the retained rows, raw and on the
    distance scale.  Every estimate for the observation reads it from here;
    ABC-GLM fits and scores on the distance scale (``obs_std``,
    ``stats_std``).
    """

    indices: np.ndarray
    distances: np.ndarray
    stat_names: tuple[str, ...]
    standardizer: Standardizer
    obs: np.ndarray          # raw observed values for stat_names
    obs_std: np.ndarray
    param_names: tuple[str, ...]
    params: np.ndarray
    stats: np.ndarray
    stats_std: np.ndarray

    @property
    def epsilon(self) -> float:
        return float(self.distances[-1])

    @property
    def n(self) -> int:
        return len(self.indices)


def _gather_column(tables, cols, skip, out) -> np.ndarray:
    """Write column ``cols[m]`` of each table ``tables[m]`` in turn, less
    its row ``skip[m]`` where that is not None, into the 1-D ``out``."""
    start = 0
    for table, c, s in zip(tables, cols, skip):
        column = table.values[:, c]
        for part in ((column,) if s is None else (column[:s], column[s + 1:])):
            out[start:start + len(part)] = part
            start += len(part)
    return out


def abs_correlations(tables, names) -> np.ndarray:
    """Absolute Pearson correlations between the statistics ``names`` over
    the rows of all ``tables`` pooled.  A constant statistic correlates 0
    with every statistic, itself included.  It gathers its own
    column-major block of the pooled statistics."""
    cols = [t.stat_columns(names) for t in tables]
    pooled = np.empty((sum(t.n_rows for t in tables), len(names)), order="F")
    for j in range(len(names)):
        _gather_column(tables, [c[j] for c in cols], [None] * len(tables),
                       pooled[:, j])
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.corrcoef(pooled, rowvar=False)
    return np.abs(np.nan_to_num(np.atleast_2d(c)))


def prune_correlated(table: SimulationTable, max_cor: float):
    """Greedily drop statistics too correlated with an already kept one.

    Walks the statistic columns in order and drops any whose absolute
    Pearson correlation (:func:`abs_correlations`) with a kept statistic
    exceeds ``max_cor`` (``max_cor = 1.0`` keeps everything).  Returns
    the names ``(kept, dropped)``, kept a tuple in column order; no table
    is copied.
    """
    if not 0 < max_cor <= 1:
        raise ValueError(f"max_cor must be in (0, 1], got {max_cor}")
    if table.n_rows < 2:
        raise TableFormatError("need at least 2 rows to measure correlations")
    names = table.stat_names
    corr = abs_correlations([table], names)
    kept: list[int] = []
    for j in range(len(names)):
        if not any(corr[j, k] > max_cor for k in kept):
            kept.append(j)
    dropped = [n for j, n in enumerate(names) if j not in kept]
    if dropped:
        log.warning("pruned %d correlated statistic(s): %s",
                    len(dropped), ", ".join(dropped))
    return tuple(names[j] for j in kept), dropped


def _nearest(dist: np.ndarray, count: int) -> np.ndarray:
    """Indices of the ``count`` smallest distances in ascending order, ties
    by row order: ``np.argsort(dist, kind="stable")[:count]`` without
    sorting the rows beyond the cutoff."""
    if count < len(dist):
        cutoff = np.partition(dist, count - 1)[count - 1]
        below = np.flatnonzero(dist < cutoff)
        at = np.flatnonzero(dist == cutoff)[:count - len(below)]
        rows = np.concatenate([below, at])
    else:
        rows = np.arange(len(dist))
    return rows[np.argsort(dist[rows], kind="stable")]


def _distances(table, cols, exclude, std, obs_std) -> np.ndarray:
    """Euclidean distances of the rows of ``table`` but ``exclude`` to
    ``obs_std``, over the columns ``cols`` on the scale ``std`` (every
    scale positive).  Each column is gathered, put through
    :meth:`Standardizer.transform` and squared in one buffer, and added
    to the distances in column order; the buffer is freed on return,
    before the selection copies the distances."""
    n_rows = table.n_rows - (exclude is not None)
    column, dist = np.empty(n_rows), np.zeros(n_rows)
    for j, c in enumerate(cols):
        _gather_column([table], [c], [exclude], column)
        column -= std.center[j]
        column /= std.scale[j]
        column -= obs_std[j]
        dist += np.square(column, out=column)
    return np.sqrt(dist, out=dist)


def retain(table: SimulationTable, obs: ObservedStats, count,
           standardizer: Standardizer | None = None,
           exclude: int | None = None) -> RetainedSet:
    """Retain the ``count`` simulations closest to the observation.

    Statistics are matched by exact name (order-independent); every
    observed statistic must be present in the table and finite.  The
    ``standardizer`` sets the scale (e.g. pooled over several models);
    without one, a standardizer is fitted to the table.

    ``exclude`` names one row to leave out, as if the table had been copied
    without it: it is not in the fitted standardization, not counted in
    the rows that bound ``count``, and never retained.  The returned
    indices refer to the full table either way.

    The kept rows are the ``count`` closest, ordered by distance with ties
    broken by row order (see :func:`_nearest`).

    A zero-variance statistic is excluded from the distance with a warning
    when it matches the observed value exactly, and is a hard error when it
    contradicts it (the model cannot produce the data).
    """
    if table.n_rows == 0:
        raise NumericalError("cannot retain from an empty table")
    matched = list(obs.names)
    cols = table.stat_columns(matched)
    obs_vec = obs.values
    bad = [n for n, v in zip(matched, obs_vec) if not np.isfinite(v)]
    if bad:
        raise TableFormatError(
            f"observed statistic(s) not finite: {', '.join(bad)}")

    if exclude is not None:
        exclude = int(exclude)
        if not 0 <= exclude < table.n_rows:
            raise ValueError(f"excluded row {exclude} outside the table's "
                             f"{table.n_rows} rows")
    count = int(count)
    n_rows = table.n_rows - (exclude is not None)
    if count <= 0:
        raise ValueError("retention count must be positive")
    if count > n_rows:
        raise ValueError(f"cannot retain {count} of {n_rows} rows")
    std = (Standardizer.fit([table], matched,
                            None if exclude is None else (0, exclude))
           if standardizer is None else standardizer.subset(matched))

    first = table.values[int(exclude == 0)]   # the first candidate row
    keep = []
    for j, name in enumerate(matched):
        if std.scale[j] > 0:
            keep.append(j)
        elif np.isclose(first[cols[j]], obs_vec[j]):
            log.warning("statistic %s is constant and matches the observation; "
                        "excluded from the distance", name)
        else:
            raise NumericalError(
                f"statistic {name} is constant at {first[cols[j]]} but "
                f"observed {obs_vec[j]}; the model cannot reproduce the data")
    if not keep:
        raise NumericalError("no usable statistics left for the distance")
    if len(keep) < len(matched):
        matched = [matched[j] for j in keep]
        cols = [cols[j] for j in keep]
        std = std.subset(matched)
    obs_std = std.transform(obs_vec[keep])
    dist = _distances(table, cols, exclude, std, obs_std)
    order = _nearest(dist, count)
    indices = order if exclude is None else order + (order >= exclude)
    params = table.values[np.ix_(indices, table.param_idx)]
    stats = table.values[np.ix_(indices, cols)]
    return RetainedSet(indices, dist[order], tuple(matched), std,
                       obs_vec[keep], obs_std, table.param_names, params,
                       stats, std.transform(stats))
