"""Simulation-based (likelihood-free) Bayesian inference toolkit.

The pieces follow the ABCtoolbox pipeline: simulate from priors or along
an ABC-MCMC chain (:mod:`abckit.orchestrate`, :mod:`abckit.priors`,
:mod:`abckit.models`), retain the simulations closest to the observed
statistics (:mod:`abckit.rejection`), fit the ABC-GLM local likelihood to
them for posteriors and marginal densities (:mod:`abckit.adjust`), choose
among models by those densities (:mod:`abckit.modelchoice`), test model
fit and validate estimation and model choice (:mod:`abckit.validation`),
and engineer the summary statistics themselves
(:mod:`abckit.statselect`).  File formats live in
:mod:`abckit.tableio`; ``abckit.cli`` exposes the same pipeline as a
command line tool.
"""

__version__ = "0.1.0"

from .adjust import (GlmFit, GridPosterior, JointGridPosterior,
                     PosteriorCharacteristics, glm_fit,
                     glm_log_marginal_densities, glm_log_marginal_density,
                     glm_posterior, joint_posterior, safe_exp, weighted_density)
from .errors import (AbckitError, ConfigError, EstParseError, EvalError,
                     NumericalError, SimulatorError, TableFormatError)
from .modelchoice import ModelChoiceResult, glm_model_choice
from .models import (SFS_STAT_NAMES, TOY_STAT_NAMES, ToyParams, sfs_stats,
                     simulate_toy, toy_stats)
from .orchestrate import (Calibration, McmcConfig, SimulatorBinding,
                          calibrate, run_mcmc, run_standard)
from .priors import EstModel, eval_expr, parse_est, sample
from .rejection import RetainedSet, Standardizer, prune_correlated, retain
from .statselect import (BoxCoxSpec, LinearCombDef, boost, fit_boxcox,
                         fit_pls, greedy_search, transform)
from .tableio import (ObservedStats, OutputTag, SimulationTable,
                      read_observed, read_table, write_tagged)
from .validation import (ConfusionMatrix, GlmSettings, coverage_tests,
                         cross_validate, fit_pvalues, marginal_density_pvalue,
                         model_choice_validate, tukey_depth, tukey_pvalue)

__all__ = [name for name in dir() if not name.startswith("_")]
