"""Built-in simulators and statistic calculators.

The toy models draw a sample of fixed size from a normal or a uniform
distribution parameterized by mean and variance, and summarize it with
eight classic statistics.  The population-genetics part computes the
standard site-frequency-spectrum summaries (segregating sites, pairwise
diversity, Watterson's theta, Tajima's D) and can read the DAF-style
spectrum files produced by coalescent simulators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import SimulatorError, TableFormatError

__all__ = [
    "TOY_STAT_NAMES", "SFS_STAT_NAMES", "ToyParams", "Sfs",
    "toy_stats", "toy_stats_matrix", "simulate_toy", "sfs_stats",
    "tau_to_generations", "read_daf_sfs", "daf_to_stats_file",
    "BUILTIN_MODELS",
]

TOY_STAT_NAMES = ("mean", "var", "median", "min", "max", "range", "Q1", "Q3")
SFS_STAT_NAMES = ("sfs1", "S", "pi", "thita", "taj_D")


@dataclass(frozen=True)
class ToyParams:
    mu: float
    sigma2: float
    sample_size: int = 100

    def __post_init__(self):
        if self.sigma2 <= 0:
            raise ValueError(f"variance must be positive, got {self.sigma2}")


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
        x = rng.normal(params.mu, math.sqrt(params.sigma2), params.sample_size)
    elif model == "uniform":
        half = math.sqrt(3.0 * params.sigma2)
        x = rng.uniform(params.mu - half, params.mu + half, params.sample_size)
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


@dataclass(frozen=True)
class Sfs:
    """Site counts indexed by derived-allele count 0..n for a haploid
    sample of size n (length n+1)."""

    counts: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(float(c) for c in self.counts))
        if any(c < 0 for c in self.counts):
            raise ValueError("negative site count")
        if len(self.counts) < 5:
            raise ValueError("sample size must be at least 4")

    @property
    def n(self) -> int:
        return len(self.counts) - 1


def sfs_stats(sfs: Sfs) -> np.ndarray:
    """Summary statistics of a site frequency spectrum, in
    :data:`SFS_STAT_NAMES` order: singletons, segregating sites, pairwise
    diversity, Watterson's theta, Tajima's D.

    Only the polymorphic classes 1..n-1 enter; D is defined as 0 when
    S <= 1.
    """
    return _sfs_stats_rows(np.asarray(sfs.counts)[None, :])[0]


def _sfs_stats_rows(counts: np.ndarray) -> np.ndarray:
    """:func:`sfs_stats` of each row of an (B, n + 1) count matrix."""
    n = counts.shape[1] - 1
    c = counts[:, 1:n]
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
    return np.column_stack([counts[:, 1], S, pi, theta_w,
                            np.where(S > 1, taj_d, 0.0)])


def tau_to_generations(tau: float, n_cur: float) -> float:
    """Convert an event age in units of the current population size into
    generations: t = tau * 2 * N."""
    if tau < 0 or n_cur <= 0:
        raise ValueError("need tau >= 0 and n_cur > 0")
    return tau * 2.0 * n_cur


def read_daf_sfs(path) -> Sfs:
    """Read a derived-allele-frequency spectrum file.

    These files have two preamble lines, then one tab/space-separated line
    whose first field is a row label followed by the counts for classes
    0..n (so n is the field count minus two).
    """
    lines = [l for l in Path(path).read_text().splitlines() if l.strip()]
    if len(lines) < 3:
        raise TableFormatError("spectrum file needs 3 lines", path=path)
    fields = lines[2].split()
    try:
        counts = [float(v) for v in fields[1:]]
    except ValueError:
        raise TableFormatError("non-numeric site count", path=path, line=3) from None
    return Sfs(tuple(counts))


def daf_to_stats_file(daf_path, out_path="summary_stats-temp.txt") -> Path:
    """Summarize a spectrum file into a statistics file (header + values)."""
    values = sfs_stats(read_daf_sfs(daf_path))
    out = Path(out_path)
    with open(out, "w") as fh:
        fh.write("\t".join(SFS_STAT_NAMES) + "\n")
        fh.write("\t".join(format(v, ".10g") for v in values) + "\n")
    return out


# ---------------------------------------------------------------------------
# builtin simulator bindings


def _draw_values(draw) -> dict:
    # accept a ParamDraw or any plain mapping
    if hasattr(draw, "output_names"):
        return dict(draw.values)
    return dict(draw)


def _toy_columns(names) -> tuple[int, int]:
    # prefer canonical names, otherwise the first two values in order
    if "mu" in names and "sigma2" in names:
        return names.index("mu"), names.index("sigma2")
    if len(names) < 2:
        raise SimulatorError("toy models need two parameters (mean, variance)")
    return 0, 1


def _toy_args(draw: Mapping[str, float]) -> ToyParams:
    vals = _draw_values(draw)
    i, j = _toy_columns(tuple(vals))
    ordered = list(vals.values())
    return ToyParams(float(ordered[i]), float(ordered[j]))


def _toy_matrix_args(names, values):
    """The (mu, sigma2) columns of a block of draws, checked as
    :class:`ToyParams` checks one draw."""
    i, j = _toy_columns(names)
    sigma2 = values[:, j]
    bad = np.flatnonzero(sigma2 <= 0)
    if bad.size:
        raise ValueError(f"variance must be positive, got {sigma2[bad[0]]}")
    return values[:, i], sigma2


def _builtin_toy_normal(draw, rng):
    return TOY_STAT_NAMES, simulate_toy("normal", _toy_args(draw), rng)


def _batch_toy_normal(names, values, rng):
    mu, sigma2 = _toy_matrix_args(names, values)
    shape = (len(values), ToyParams.sample_size)
    x = rng.normal(mu[:, None], np.sqrt(sigma2)[:, None], shape)
    return TOY_STAT_NAMES, toy_stats_matrix(x)


def _builtin_toy_uniform(draw, rng):
    return TOY_STAT_NAMES, simulate_toy("uniform", _toy_args(draw), rng)


def _batch_toy_uniform(names, values, rng):
    a, b = uniform_bounds(*_toy_matrix_args(names, values))
    shape = (len(values), ToyParams.sample_size)
    return TOY_STAT_NAMES, toy_stats_matrix(rng.uniform(a[:, None], b[:, None],
                                                        shape))


def _builtin_sfs(draw, rng):
    vals = _draw_values(draw)
    names = tuple(vals)
    _, stats = _batch_sfs(names, np.array([[float(vals[n]) for n in names]]),
                          rng)
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
    return SFS_STAT_NAMES, _sfs_stats_rows(counts)


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
