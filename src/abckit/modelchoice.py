"""Posterior model probabilities and Bayes factors from one or more
simulation tables, by ABC-GLM (Leuenberger & Wegmann 2010): retain per
model, fit the local Gaussian likelihood, and compare the resulting
marginal densities; with one table it is the estimation step alone.
Retention standardizes with a single transform fitted to the pooled
statistics so the models live on one scale; ``standardize=False``
measures distances on the raw statistics instead.

Model priors are equal, whatever the table sizes.  The fitted density of
a model is that of its ``k`` retained simulations, a truncation of the
``N_m`` rows its table drew from the prior, so each evidence is scaled by
the truncation's mass ``k / N_m``; unscaled, the implied prior of a model
would be proportional to its table's rows (a mean log Bayes factor error
of +0.77 at 6000 against 3000 rows, +1.37 at 12000 against 3000, +0.06 at
3000 against 3000, with 300 retained).  What the scale does not remove is
the bias of the truncation itself: the Gaussian likelihood fitted to a
truncated cloud has tails that fall faster than the truncated density it
stands for, so the probabilities are overconfident near 0 and 1.  On a
model pair whose exact log Bayes factor is known, with 3000 rows each, the
median error of the log Bayes factor among queries whose exact ``p0`` is
below 0.02 (at least 0.98) was -0.09 (-0.34) with all 2999 rows retained,
-3.74 (+3.17) with 1000 and -3.97 (+3.09) with 300, while the queries in
between erred by at most 0.15 at 300.

The pooled scale is fitted once for each table set and statistic names:
the observations after the first that name the same statistics reuse it
(a key of the tables' ``token``s, one slot).  The fit
(:meth:`abckit.rejection.Standardizer.fit`) gathers one pooled column at
a time, so neither it nor retention holds a block of the pooled rows by
statistics.

The observation names the statistics, in its order (the command line
passes them in the tables' column order); every table must hold them,
and no other statistic is read.  A query on a subset of the
statistics (a subset that the greedy search scores) passes an
observation of that subset.

``exclude=(model, row)`` asks for a leave-one-out replicate: that
simulation is left out of the pooled standardization and of the retention
(see :func:`abckit.rejection.retain`), as if its table had been copied
without it.
Its pooled scale differs from one replicate to the next, so it is fitted
for each query, less that row, and never read from, or stored in, the one
slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import adjust
from .rejection import RetainedSet, Standardizer, retain
from .tableio import ObservedStats, OutputTag, write_tagged

__all__ = ["ModelChoiceResult", "glm_model_choice", "write_model_fit"]


@dataclass(frozen=True)
class ModelChoiceResult:
    """Per-model evidence and the derived probabilities.

    ``densities`` holds the ABC-GLM marginal densities, each scaled by the
    retained share of its table (the evidences); ``log_densities``
    is the stable representation actually used for the probabilities and
    Bayes factors.  ``retained`` and ``fits`` hold each model's retained
    set and likelihood fit, in table order.
    """

    densities: np.ndarray
    log_densities: np.ndarray
    probabilities: np.ndarray
    retained: tuple[RetainedSet, ...]
    fits: tuple

    @property
    def n_models(self) -> int:
        return len(self.probabilities)

    @property
    def bayes_factors(self) -> np.ndarray:
        """Matrix with entry (i, j) = evidence_i / evidence_j."""
        ld = self.log_densities
        with np.errstate(over="ignore"):
            return np.exp(ld[:, None] - ld[None, :])


# the pooled scale last fitted, under its key: the tables' tokens and the
# statistic names (one slot)
_last_scale: tuple = (None, None)


def _pooled_scale(tables, names) -> Standardizer:
    """:meth:`Standardizer.fit` of ``tables`` pooled, fitted once for each
    table set and statistic names."""
    global _last_scale
    key = (tuple(t.token for t in tables), names)
    slot = _last_scale  # read once: another thread may rebind it
    if slot[0] != key:
        slot = _last_scale = (key, Standardizer.fit(tables, names))
    return slot[1]


def glm_model_choice(tables, obs: ObservedStats, count,
                     dirac_peak_width: float = adjust.DEFAULT_PEAK_WIDTH,
                     exclude=None, standardize: bool = True
                     ) -> ModelChoiceResult:
    """Model probabilities from the fitted local-likelihood marginal
    densities, one model at a time, on the pooled standardization (on the
    raw statistics with ``standardize=False``) of the statistics ``obs``
    names; a table without one of them is a ``TableFormatError``.  Each
    model's log evidence is the log density of its retained set plus
    ``log(k / N_m)``, the retained share of its table (of ``N_m - 1`` rows
    for the model that ``exclude`` leaves a row out of).  One table gives
    its retained set and fit with probability 1."""
    names = obs.names
    if not standardize:
        pooled_std = Standardizer.identity(names)
    elif exclude is None:
        pooled_std = _pooled_scale(tables, names)
    else:
        pooled_std = Standardizer.fit(tables, names, exclude)
    retained, fits, log_dens = [], [], []
    for m, t in enumerate(tables):
        row = exclude[1] if exclude is not None and exclude[0] == m else None
        r = retain(t, obs, count, pooled_std, exclude=row)
        fit = adjust.glm_fit(r)
        # the retained rows' share of the rows drawn from the model's prior
        n_rows = t.n_rows - (row is not None)
        log_dens.append(adjust.glm_log_marginal_density(
            fit, r, dirac_peak_width=dirac_peak_width) + np.log(r.n / n_rows))
        retained.append(r)
        fits.append(fit)
    log_dens = np.array(log_dens)
    probs = np.exp(log_dens - adjust.log_sum_exp(log_dens))
    dens = np.array([adjust.safe_exp(v) for v in log_dens])
    return ModelChoiceResult(dens, log_dens, probs, tuple(retained),
                             tuple(fits))


def write_model_fit(result: ModelChoiceResult, prefix: str, obs_index=0,
                    directory="."):
    """Write the model-fit file: one row per model with its marginal
    density, posterior probability, and Bayes factor against model 0."""
    bf0 = result.bayes_factors[:, 0]
    header = ["model", "marginalDensity", "posteriorProbability", "BFvsModel0"]
    rows = [[m, result.densities[m], result.probabilities[m], bf0[m]]
            for m in range(result.n_models)]
    return write_tagged(prefix, OutputTag.MODEL_FIT, (header, rows),
                        obs_index=obs_index, directory=directory)
