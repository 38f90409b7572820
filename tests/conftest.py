import dataclasses
import tracemalloc

import numpy as np
import pytest

from abckit.adjust import GridPosterior
from abckit.models import TOY_STAT_NAMES, toy_stats_matrix, uniform_bounds
from abckit.tableio import ObservedStats, SimulationTable

# the fixed observation used throughout (statistics of a standard-normal
# sample of size 100)
TOY_OBS_VALUES = (0.102, 1.14, 0.0788, -2.02, 3.16, 5.18, -0.598, 0.799)

N_SIMS = 10_000
SAMPLE_SIZE = 100
SEED_NORMAL = 20260810
SEED_UNIFORM = 20260811


def make_toy_table(model: str, n_sims: int, seed: int,
                   sample_size: int = SAMPLE_SIZE) -> SimulationTable:
    """Simulate the toy model directly (vectorized), with the priors
    mu ~ U[-1, 1] and sigma2 ~ U[0.1, 4]."""
    rng = np.random.default_rng(seed)
    mu = rng.uniform(-1.0, 1.0, n_sims)
    sigma2 = rng.uniform(0.1, 4.0, n_sims)
    if model == "normal":
        samples = rng.normal(mu[:, None], np.sqrt(sigma2)[:, None],
                             (n_sims, sample_size))
    else:
        a, b = uniform_bounds(mu, sigma2)
        samples = rng.uniform(a[:, None], b[:, None], (n_sims, sample_size))
    stats = toy_stats_matrix(samples)
    names = ("mu", "sigma2") + TOY_STAT_NAMES
    return SimulationTable(names, np.column_stack([mu, sigma2, stats]),
                           (0, 1), tuple(range(2, 10)))


def traced_peak(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), peak)``: the result of the call and the
    peak, in bytes, of the memory that ``tracemalloc`` traced while it
    ran."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def take_rows(table: SimulationTable, idx) -> SimulationTable:
    """The rows ``idx`` of ``table``, as a table of their own."""
    return SimulationTable(table.names, table.values[np.asarray(idx)],
                           table.param_idx, table.stat_idx)


def observed_at(retained, stats):
    """The retained set with its observation moved to the raw statistics
    ``stats``."""
    return dataclasses.replace(retained, obs=stats,
                               obs_std=retained.standardizer.transform(stats))


def uniform_prior_estimator(table, pseudo, exclude):
    """A cross-validation estimator giving every pseudo-observation the
    uniform posterior of ``p0`` on [0, 1]."""
    grid = np.linspace(0.0, 1.0, 256)
    post = GridPosterior(("p0",), (grid,), (np.ones_like(grid),))
    return post, {"p0": post.characteristics("p0")}


def two_tables(rng, n=400, separation=0.0):
    """Two tables of ``n`` rows: a uniform parameter ``t`` and two standard
    normal statistics, shifted by ``separation`` in the second."""
    out = []
    for m in range(2):
        p = rng.uniform(size=(n, 1))
        s = m * separation + rng.normal(size=(n, 2))
        out.append(SimulationTable(("t", "s0", "s1"),
                                   np.column_stack([p, s]), (0,), (1, 2)))
    return out


@pytest.fixture(scope="session")
def toy_obs() -> ObservedStats:
    return ObservedStats(TOY_STAT_NAMES, np.array(TOY_OBS_VALUES))


@pytest.fixture(scope="session")
def norm_table() -> SimulationTable:
    return make_toy_table("normal", N_SIMS, SEED_NORMAL)


@pytest.fixture(scope="session")
def unif_table() -> SimulationTable:
    return make_toy_table("uniform", N_SIMS, SEED_UNIFORM)
