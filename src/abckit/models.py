"""Built-in simulators and statistic calculators.

The toy models draw ``TOY_SAMPLE_SIZE`` values from a normal or a uniform
distribution parameterized by mean and variance, and summarize them with
eight classic statistics.  The population-genetics part computes the
standard site-frequency-spectrum summaries (segregating sites, pairwise
diversity, Watterson's theta, Tajima's D) of spectra given as count
vectors, as the builtin ``sfs-neutral-growth`` simulator draws them.  A
toy-model variance that is not positive is a :class:`SimulatorError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import SimulatorError

__all__ = [
    "TOY_STAT_NAMES", "TOY_SAMPLE_SIZE", "SFS_STAT_NAMES", "ToyParams",
    "toy_stats", "toy_stats_matrix", "simulate_toy", "sfs_stats",
    "BUILTIN_MODELS",
]

TOY_STAT_NAMES = ("mean", "var", "median", "min", "max", "range", "Q1", "Q3")
TOY_SAMPLE_SIZE = 100          # values per toy-model simulation
SFS_STAT_NAMES = ("sfs1", "S", "pi", "thita", "taj_D")


@dataclass(frozen=True)
class ToyParams:
    mu: float
    sigma2: float

    def __post_init__(self):
        if not self.sigma2 > 0:
            raise SimulatorError(f"toy model variance must be positive, "
                                 f"got {self.sigma2}")


def _type7(s: np.ndarray, q: float):
    """Quantile ``q`` of the sorted samples along the last axis of ``s``
    by linear interpolation (type 7), with the two-sided formula of
    ``np.quantile``."""
    h = (s.shape[-1] - 1) * q
    i = int(h)
    t = h - i
    a, b = s[..., i], s[..., i + 1]
    d = b - a
    return b - d * (1.0 - t) if t >= 0.5 else a + d * t


def toy_stats(sample) -> np.ndarray:
    """Eight summary statistics of a sample of at least 4 values, in
    :data:`TOY_STAT_NAMES` order: mean, unbiased (n-1) variance, median,
    min, max, range and the type-7 (linearly interpolated) quartiles.

    Each value equals bit for bit what ``np.mean``, ``np.var(ddof=1)``,
    ``np.median``, ``np.min``, ``np.max`` and ``np.quantile`` give (only
    the sign of a zero may differ in a sample holding both 0.0 and -0.0);
    the order statistics come from one sort.
    """
    x = np.asarray(sample, dtype=float).ravel()
    n = x.size
    if n < 4:
        raise ValueError("need at least 4 values")
    s = np.sort(x)
    if np.isnan(s[-1]):
        return np.full(len(TOY_STAT_NAMES), np.nan)
    lo, hi = s[0], s[-1]
    m = n // 2
    median = s[m] if n % 2 else (s[m - 1] + s[m]) / 2.0
    return np.array([x.mean(), x.var(ddof=1), median,
                     lo, hi, hi - lo, _type7(s, 0.25), _type7(s, 0.75)])


def toy_stats_matrix(samples: np.ndarray) -> np.ndarray:
    """Row-wise :func:`toy_stats` for an (n, sample_size) matrix, equal to
    it bit for bit; the order statistics come from one sort of the
    matrix."""
    x = np.asarray(samples, dtype=float)
    n = x.shape[1]
    if n < 4:
        raise ValueError("need at least 4 values")
    s = np.sort(x, axis=1)
    lo, hi = s[:, 0], s[:, -1]
    m = n // 2
    median = s[:, m] if n % 2 else (s[:, m - 1] + s[:, m]) / 2.0
    out = np.column_stack([x.mean(axis=1), x.var(axis=1, ddof=1), median,
                           lo, hi, hi - lo, _type7(s, 0.25), _type7(s, 0.75)])
    out[np.isnan(hi)] = np.nan
    return out


def simulate_toy(model: str, params: ToyParams, rng: np.random.Generator) -> np.ndarray:
    """Simulate one data set under the normal or uniform model and return
    its summary statistics.

    The uniform model is parameterized by mean and variance; the bounds are
    a = mu - sqrt(3 sigma2) and b = mu + sqrt(3 sigma2).
    """
    if model == "normal":
        x = rng.normal(params.mu, math.sqrt(params.sigma2), TOY_SAMPLE_SIZE)
    elif model == "uniform":
        half = math.sqrt(3.0 * params.sigma2)
        x = rng.uniform(params.mu - half, params.mu + half, TOY_SAMPLE_SIZE)
    else:
        raise ValueError(f"unknown toy model {model!r}")
    return toy_stats(x)


def uniform_bounds(mu, sigma2):
    """Bounds ``(a, b)`` of the uniform with mean ``mu`` and variance
    ``sigma2``; scalars or arrays."""
    half = np.sqrt(3.0 * sigma2)
    return mu - half, mu + half


# ---------------------------------------------------------------------------
# site frequency spectrum


def sfs_stats(counts) -> np.ndarray:
    """Summary statistics of a site frequency spectrum, in
    :data:`SFS_STAT_NAMES` order: singletons, segregating sites, pairwise
    diversity, Watterson's theta, Tajima's D.

    ``counts`` holds the site counts indexed by derived-allele count 0..n
    of a haploid sample of size n (length n + 1), or one such spectrum per
    row of a matrix, which gives one row of statistics per spectrum.  Only
    the polymorphic classes 1..n-1 enter; D is defined as 0 when S <= 1.
    """
    rows = np.atleast_2d(np.asarray(counts, dtype=float))
    n = rows.shape[1] - 1
    c = rows[:, 1:n]
    i = np.arange(1, n)
    S = c.sum(axis=1)
    pair_sum = (i * (n - i) * c).sum(axis=1)
    a1 = float((1.0 / i).sum())
    a2 = float((1.0 / i**2).sum())
    pi = 2.0 * pair_sum / (n * (n - 1))
    theta_w = S / a1
    b1 = (n + 1) / (3.0 * (n - 1))
    b2 = 2.0 * (n**2 + n + 3) / (9.0 * n * (n - 1))
    c1 = b1 - 1.0 / a1
    c2 = b2 - (n + 2) / (a1 * n) + a2 / a1**2
    e1 = c1 / a1
    e2 = c2 / (a1**2 + a2)
    with np.errstate(divide="ignore", invalid="ignore"):
        taj_d = (pi - S / a1) / np.sqrt(e1 * S + e2 * S * (S - 1))
    out = np.column_stack([rows[:, 1], S, pi, theta_w,
                           np.where(S > 1, taj_d, 0.0)])
    return out if np.ndim(counts) == 2 else out[0]


# ---------------------------------------------------------------------------
# builtin simulator bindings


def _toy_columns(names) -> tuple[int, int]:
    # prefer canonical names, otherwise the first two values in order
    if "mu" in names and "sigma2" in names:
        return names.index("mu"), names.index("sigma2")
    if len(names) < 2:
        raise SimulatorError("toy models need two parameters (mean, variance)")
    return 0, 1


def _toy_args(draw: Mapping[str, float]) -> ToyParams:
    i, j = _toy_columns(tuple(draw))
    ordered = list(draw.values())
    return ToyParams(float(ordered[i]), float(ordered[j]))


def _toy_matrix_args(names, values):
    """The (mu, sigma2) columns of a block of draws, checked as
    :class:`ToyParams` checks one draw."""
    i, j = _toy_columns(names)
    sigma2 = values[:, j]
    bad = np.flatnonzero(~(sigma2 > 0))
    if bad.size:
        raise SimulatorError(f"toy model variance must be positive, "
                             f"got {sigma2[bad[0]]}")
    return values[:, i], sigma2


def _builtin_toy_normal(draw, rng):
    return TOY_STAT_NAMES, simulate_toy("normal", _toy_args(draw), rng)


def _batch_toy_normal(names, values, rng):
    mu, sigma2 = _toy_matrix_args(names, values)
    shape = (len(values), TOY_SAMPLE_SIZE)
    x = rng.normal(mu[:, None], np.sqrt(sigma2)[:, None], shape)
    return TOY_STAT_NAMES, toy_stats_matrix(x)


def _builtin_toy_uniform(draw, rng):
    return TOY_STAT_NAMES, simulate_toy("uniform", _toy_args(draw), rng)


def _batch_toy_uniform(names, values, rng):
    a, b = uniform_bounds(*_toy_matrix_args(names, values))
    shape = (len(values), TOY_SAMPLE_SIZE)
    return TOY_STAT_NAMES, toy_stats_matrix(rng.uniform(a[:, None], b[:, None],
                                                        shape))


def _builtin_sfs(draw, rng):
    values = np.array([list(draw.values())], dtype=float)
    _, stats = _batch_sfs(tuple(draw), values, rng)
    return SFS_STAT_NAMES, stats[0]


def _batch_sfs(names, values, rng):
    """Crude spectrum simulator for a population of size N_CUR that was
    N_CUR * OMEGA until TAU * 2 * N_CUR generations ago.

    Expected class counts interpolate between the equilibrium 1/i spectra
    of the current and ancestral sizes, with the recent classes reflecting
    the current size.  Not a coalescent; intended for exercising the
    pipeline, not for real inference.
    """
    rows = len(values)

    def column(name, default):
        if name in names:
            return values[:, names.index(name)]
        return np.full(rows, default)

    sizes = column("SAMPLE_SIZE", 24).astype(int)
    if np.any(sizes != sizes[0]):
        # one row at a time, so the Poisson draws stay in row order
        return SFS_STAT_NAMES, np.vstack(
            [_batch_sfs(names, values[k:k + 1], rng)[1] for k in range(rows)])
    n = int(sizes[0])
    if n < 4:
        raise ValueError("sample size must be at least 4")
    sites = column("NUM_SITES", 10_000.0)
    theta_cur = 4.0 * column("N_CUR", 10_000.0) * column("MUTRATE", 2.5e-8) * sites
    i = np.arange(1, n)
    # classes coalescing more recently than the size change see N_CUR
    recent = np.exp(-i * np.maximum(column("TAU", 1.0), 0.0)[:, None])
    expected = theta_cur[:, None] / i * (
        recent + (1.0 - recent) * column("OMEGA", 1.0)[:, None])
    counts = np.zeros((rows, n + 1))
    counts[:, 1:n] = rng.poisson(np.clip(expected, 0.0, None))
    counts[:, 0] = np.maximum(sites - counts[:, 1:n].sum(axis=1), 0.0)
    return SFS_STAT_NAMES, sfs_stats(counts)


# a per-draw model ``(draw, rng) -> (names, values)`` may carry a ``batch``
# function ``(names, values (B, p), rng) -> (names, (B, s))`` that gives,
# row for row, what B per-draw calls give on the same generator
_builtin_toy_normal.batch = _batch_toy_normal
_builtin_toy_uniform.batch = _batch_toy_uniform
_builtin_sfs.batch = _batch_sfs

BUILTIN_MODELS = {
    "toy-normal": _builtin_toy_normal,
    "toy-uniform": _builtin_toy_uniform,
    "sfs-neutral-growth": _builtin_sfs,
}
