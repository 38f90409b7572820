"""Sizes of the four workloads, at full size and at the reduced size of the
smoke test, and the figures derived from their phase timers.  Needs no
``abckit``, so the parent process of a run never imports the program."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EstimateSize:
    table_rows: int
    n_obs: int
    num_retained: int
    write_retained: bool = False
    joint_points: int = 0            # 0: no joint grid
    n_pvalue: int = 0                # marginal and Tukey P-value checks each
    retained_validation: int = 0
    random_validation: int = 0
    choice_validation: int = 0


@dataclass(frozen=True)
class SimulateSize:
    num_sims: int
    pls_rows: int
    pls_components: int
    pls_folds: int
    calibration_sims: int
    chain_steps: int


@dataclass(frozen=True)
class FindStatsSize:
    table_rows: int
    num_retained: int
    choice_validation: int


SIZES = {
    "full": {
        "estimate-large": EstimateSize(table_rows=80_000, n_obs=4,
                                       num_retained=2000, write_retained=True),
        "estimate-diag": EstimateSize(table_rows=20_000, n_obs=2,
                                      num_retained=500, joint_points=100,
                                      n_pvalue=500, retained_validation=20,
                                      random_validation=20,
                                      choice_validation=10),
        "simulate": SimulateSize(num_sims=4000, pls_rows=1500,
                                 pls_components=5, pls_folds=10,
                                 calibration_sims=500, chain_steps=1000),
        "findstats": FindStatsSize(table_rows=20_000, num_retained=1000,
                                   choice_validation=15),
    },
    "small": {
        "estimate-large": EstimateSize(table_rows=3000, n_obs=2,
                                       num_retained=300, write_retained=True),
        "estimate-diag": EstimateSize(table_rows=2000, n_obs=2,
                                      num_retained=200, joint_points=20,
                                      n_pvalue=100, retained_validation=20,
                                      random_validation=20,
                                      choice_validation=4),
        "simulate": SimulateSize(num_sims=600, pls_rows=300, pls_components=3,
                                 pls_folds=5, calibration_sims=200,
                                 chain_steps=300),
        "findstats": FindStatsSize(table_rows=2000, num_retained=200,
                                   choice_validation=4),
    },
}


def input_shape(size) -> tuple[int, int]:
    """(table rows, observations) of the inputs a workload needs."""
    if isinstance(size, EstimateSize):
        return size.table_rows, size.n_obs
    if isinstance(size, FindStatsSize):
        return size.table_rows, 1
    return 0, 1


# figures of one workload's own phases, reported with the per-layer metrics
WORKLOAD_METRICS = ("diagnostics_s", "validation_reps_per_s", "draws_per_s",
                    "pls_s", "mcmc_steps_per_s", "subsets_per_s")


def workload_metrics(size, phases: dict) -> dict:
    """The figures of the workload's own phases; zero where a workload
    has no such phase."""
    def rate(count, seconds):
        return count / seconds if seconds else 0.0

    out = dict.fromkeys(WORKLOAD_METRICS, 0.0)
    if isinstance(size, EstimateSize):
        if size.joint_points or size.n_pvalue:
            out["diagnostics_s"] = phases.get("diagnostics_s", 0.0)
        out["validation_reps_per_s"] = rate(phases.get("validation_reps", 0),
                                            phases.get("validation_s"))
    elif isinstance(size, SimulateSize):
        out["draws_per_s"] = rate(size.num_sims, phases.get("standard_s"))
        out["pls_s"] = phases.get("pls_s", 0.0)
        out["mcmc_steps_per_s"] = rate(size.chain_steps, phases.get("mcmc_s"))
    else:
        out["subsets_per_s"] = rate(phases.get("subsets", 0),
                                    phases.get("findstats_s"))
    return out
