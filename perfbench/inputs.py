"""Seeded benchmark inputs, generated without the program under test.

The toy problem of ABCtoolbox: a sample of 100 values drawn from a normal
or a uniform distribution with mean ``mu`` and variance ``sigma2``, summarized
by eight statistics.  This module has its own samplers and its own
statistics so that no change to ``abckit`` can move the inputs.  It needs
numpy only.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path
from statistics import NormalDist

import numpy as np

MODELS = ("normal", "uniform")
PARAM_NAMES = ("mu", "sigma2")
STAT_NAMES = ("mean", "var", "median", "min", "max", "range", "Q1", "Q3")
PRIOR_BOUNDS = {"mu": (-1.0, 1.0), "sigma2": (0.1, 4.0)}
# observations are generated away from the prior edges, where the
# generating model is not always the more probable one
TRUTH_BOUNDS = {"mu": (-0.5, 0.5), "sigma2": (0.5, 3.0)}
SAMPLE_SIZE = 100
CHUNK_ROWS = 20_000

EST_TEXT = """[PARAMETERS]
0 mu unif -1 1 output
0 sigma2 unif 0.1 4 output
"""


def toy_stats(samples: np.ndarray) -> np.ndarray:
    """Row-wise mean, variance (n-1), median, min, max, range, quartiles."""
    q1, med, q3 = np.quantile(samples, [0.25, 0.5, 0.75], axis=1)
    lo, hi = samples.min(axis=1), samples.max(axis=1)
    return np.column_stack([samples.mean(axis=1), samples.var(axis=1, ddof=1),
                            med, lo, hi, hi - lo, q1, q3])


def draw_samples(model: str, mu: np.ndarray, sigma2: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    n = len(mu)
    if model == "normal":
        return rng.normal(mu[:, None], np.sqrt(sigma2)[:, None],
                          (n, SAMPLE_SIZE))
    half = np.sqrt(3.0 * sigma2)[:, None]
    return rng.uniform(mu[:, None] - half, mu[:, None] + half,
                       (n, SAMPLE_SIZE))


def write_toy_table(path: Path, model: str, n_rows: int,
                    rng: np.random.Generator) -> None:
    """Prior-predictive table: mu, sigma2 and the eight statistics."""
    with open(path, "w") as fh:
        fh.write("\t".join(PARAM_NAMES + STAT_NAMES) + "\n")
        for start in range(0, n_rows, CHUNK_ROWS):
            n = min(CHUNK_ROWS, n_rows - start)
            mu = rng.uniform(*PRIOR_BOUNDS["mu"], n)
            sigma2 = rng.uniform(*PRIOR_BOUNDS["sigma2"], n)
            stats = toy_stats(draw_samples(model, mu, sigma2, rng))
            np.savetxt(fh, np.column_stack([mu, sigma2, stats]),
                       fmt="%.8g", delimiter="\t")


def typical_sample(model: str, mu: float, sigma2: float) -> np.ndarray:
    """The sample of size 100 at the quantiles (i + 0.5) / 100 of the model.

    A random sample of 100 normal values can look uniform: on one seed the
    uniform model got probability 0.62.  The checks need observations whose
    generating model is the more probable one for any seed.
    """
    u = (np.arange(SAMPLE_SIZE) + 0.5) / SAMPLE_SIZE
    if model == "normal":
        z = np.array([NormalDist().inv_cdf(p) for p in u])
        return mu + math.sqrt(sigma2) * z
    return mu + math.sqrt(3.0 * sigma2) * (2.0 * u - 1.0)


def write_observations(path: Path, models, rng: np.random.Generator) -> list:
    """One observation per entry of ``models``: the statistics of a typical
    sample at a random (mu, sigma2).  Returns the generating truth of each,
    in file order."""
    truth, rows = [], []
    for model in models:
        mu = rng.uniform(*TRUTH_BOUNDS["mu"])
        sigma2 = rng.uniform(*TRUTH_BOUNDS["sigma2"])
        rows.append(toy_stats(typical_sample(model, mu, sigma2)[None, :])[0])
        truth.append({"model": model, "model_index": MODELS.index(model),
                      "mu": mu, "sigma2": sigma2})
    with open(path, "w") as fh:
        fh.write("\t".join(STAT_NAMES) + "\n")
        np.savetxt(fh, np.array(rows), fmt="%.10g", delimiter="\t")
    return truth


def generate(directory: Path, seed: int, table_rows: int, n_obs: int) -> dict:
    """Write the inputs of one workload into ``directory`` (replaced).

    ``table_rows > 0`` writes one prior-predictive table per model
    (``<model>.txt``); ``table_rows == 0`` writes the est file ``toy.est``
    for the simulate workload.  Observations alternate between the models,
    starting with normal.  The tables depend on ``seed`` and ``table_rows``
    only, so two workloads with equal sizes share their tables.
    """
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    if table_rows:
        for m, model in enumerate(MODELS):
            write_toy_table(directory / f"{model}.txt", model, table_rows,
                            np.random.default_rng([seed, m]))
    else:
        (directory / "toy.est").write_text(EST_TEXT)
    models = [MODELS[k % len(MODELS)] for k in range(n_obs)]
    truth = write_observations(directory / "obs.txt", models,
                               np.random.default_rng([seed, len(MODELS)]))
    manifest = {"seed": seed, "table_rows": table_rows, "truth": truth}
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest


def load(directory: Path, seed: int, table_rows: int, n_obs: int):
    """The manifest of inputs already written for these settings, or
    ``None``."""
    path = directory / "manifest.json"
    if not path.exists():
        return None
    manifest = json.loads(path.read_text())
    if (manifest["seed"], manifest["table_rows"], len(manifest["truth"])) != \
            (seed, table_rows, n_obs):
        return None
    return manifest
