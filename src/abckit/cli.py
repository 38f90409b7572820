"""Command line front end.

Settings come from an optional input file (one ``key value`` pair per
line, the value being the rest of the line) overridden by ``key=value``
command line tokens; boolean flags may appear without a value.  The task
key selects what to do:

* ``estimate``: rejection + adjusted posteriors from simulation tables,
  with optional joint grids, fit tests, cross-validation, and (for
  semicolon-separated multi-model inputs) model choice;
* ``simulate``: drive a builtin or external simulator under the standard
  prior sampler or the MCMC sampler;
* ``transform``: apply a linear-combination definition file to a table or
  an observation;
* ``findStatsModelChoice``: greedy search for the statistic subset that
  best discriminates between models.

Every number a setting gives must be finite.  Each bound that needs no
input is checked before any input is read, so a bad setting exits 1
whether the files exist or not; the bounds that come from the inputs (the
rows of the smallest table, the most parameters of any model, the
components of a definition, the parameters of ``jointPosteriors``) are
checked after they are read.
Unknown keys, and keys the task does not use, warn but do not abort.
Every run logs a header with the version, the random seed (drawn when
none is given) and every setting given in the input file or on the
command line, so runs can be replicated; defaults are not logged.  Exit
codes: 0 success, 1 configuration error, 2 input/output error, 3
numerical failure, 4 simulator failure.  ``estimate`` only logs some
results: the fit P-values, the coverage KS tests of each
cross-validation, the model-choice validation accuracy and the counts of
failed replicates and queries.  The run record of ROADMAP item 2 is to
hold them.  Each fit test runs only when its own setting gives its count
of retained rows (``marDensPValue`` the marginal density, ``tukeyPValue``
the Tukey depth), and one line per model and observation logs those run.
"""

from __future__ import annotations

import logging
import secrets
import sys
from pathlib import Path

import numpy as np

from . import __version__, adjust, statselect, validation
from .errors import (ConfigError, EvalError, NumericalError, SimulatorError,
                     TableFormatError)
from .modelchoice import glm_model_choice, write_model_fit
from .models import BUILTIN_MODELS
from .orchestrate import McmcConfig, SimulatorBinding, run_mcmc, run_standard
from .priors import parse_est_file
from .rejection import prune_correlated
from .statselect import LinearCombDef
from .tableio import (ObservedStats, OutputTag, SimulationTable,
                      in_table_order, read_observed, read_table, write_table,
                      write_tagged)

log = logging.getLogger("abckit")

_ALIASES = {
    "obsPValue": "marDensPValue",
    "linearComb": "linearCombName",
}

_KNOWN_KEYS = {
    "task", "estimationType", "params", "simName", "obsName", "numRetained",
    "maxReadSims", "pruneCorrelatedStats", "maxCor", "outputPrefix",
    "writeRetained", "standardizeStats", "marDensPValue", "tukeyPValue",
    "modelChoiceValidation", "randomValidation", "retainedValidation",
    "posteriorDensityPoints", "diracPeakWidth", "jointPosteriors",
    "jointPosteriorDensityPoints", "samplerType", "numSims", "outName",
    "estName", "simProgram", "simArgs", "simInputName", "sumStatProgram",
    "sumStatArgs", "sumStatName", "doBoxCox", "linearCombName",
    "numLinearComb", "doBoosting", "numCaliSims", "thresholdProp",
    "rangeProp", "startingPoint", "mcmcSampling", "mcmcBurnIn",
    "maxCorSSFinder", "seed", "plotData", "input", "output",
}

_TRUE = {"", "1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _strip_quotes(v: str) -> str:
    v = v.strip()
    if len(v) >= 2 and v[0] == v[-1] and v[0] in "'\"":
        return v[1:-1]
    return v


class Config:
    """Flat key/value settings with typed accessors and consumption
    tracking (so leftover keys can be reported)."""

    def __init__(self):
        self.values: dict[str, str] = {}
        self.consumed: set[str] = set()

    def _canon(self, key: str) -> str:
        return _ALIASES.get(key, key)

    def set(self, key: str, value: str) -> None:
        self.values[self._canon(key)] = _strip_quotes(value)

    def load_file(self, path) -> None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"input file {path} not found")
        for raw in path.read_text().splitlines():
            line = raw.strip()
            if not line or line.startswith("#") or line.startswith("//"):
                continue
            parts = line.split(None, 1)
            self.set(parts[0], parts[1] if len(parts) > 1 else "")

    def load_args(self, tokens) -> None:
        file_loaded = False
        for tok in tokens:
            if "=" in tok:
                key, value = tok.split("=", 1)
                self.set(key.strip(), value)
            elif not file_loaded and ("." in tok or "/" in tok or Path(tok).exists()):
                self.load_file(tok)
                file_loaded = True
            else:
                self.set(tok, "")

    def has(self, key: str) -> bool:
        key = self._canon(key)
        if key in self.values:
            self.consumed.add(key)
            return True
        return False

    def get(self, key: str, default=None):
        key = self._canon(key)
        if key in self.values:
            self.consumed.add(key)
            return self.values[key]
        return default

    def require(self, key: str) -> str:
        v = self.get(key)
        if v is None or v == "":
            raise ConfigError(f"the task requires the key {key!r}")
        return v

    def get_int(self, key: str, default=None, low=None, high=None, what=None):
        """An integer, or an integral float literal up to 2**53, in range."""
        v = self.get(key)
        if v is None:
            return default
        try:
            n = int(v)
        except ValueError:
            x = _float(v)
            if not (x.is_integer() and abs(x) <= 2**53):
                raise ConfigError(f"{key} must be an integer, got {v!r}") from None
            n = int(x)
        _check_range(key, n, low, high, what=what)
        return n

    def require_int(self, key: str, low=None) -> int:
        self.require(key)
        return self.get_int(key, low=low)

    def get_float(self, key: str, default=None, low=None, high=None, above=None):
        """A finite number, in range."""
        v = self.get(key)
        if v is None:
            return default
        x = _float(v)
        if not np.isfinite(x):
            raise ConfigError(f"{key} must be a finite number, got {v!r}")
        _check_range(key, x, low, high, above)
        return x

    def get_bool(self, key: str, default=False) -> bool:
        v = self.get(key)
        if v is None:
            return default
        lv = v.lower()
        if lv in _TRUE:
            return True
        if lv in _FALSE:
            return False
        raise ConfigError(f"{key} must be boolean-like, got {v!r}")

    def warn_unknown(self) -> None:
        for key in sorted(set(self.values) - self.consumed):
            note = "" if key in _KNOWN_KEYS else " (unknown key)"
            log.warning("setting %s=%r was not used%s", key,
                        self.values[key], note)


def _float(v: str) -> float:
    """``v`` as a float, NaN when it is not a number."""
    try:
        return float(v)
    except ValueError:
        return float("nan")


def _check_range(key: str, x, low=None, high=None, above=None,
                 what=None) -> None:
    """Raise the ``ConfigError`` of a setting ``key`` whose value ``x``, if
    set, breaks ``x >= low``, ``x > above`` or ``x <= high``.  ``what``
    names the bound read from the inputs: ``high``, or ``low`` without
    one."""
    if x is not None and ((low is not None and x < low)
                          or (above is not None and x <= above)
                          or (high is not None and x > high)):
        if what is not None and high is not None:
            high = f"{what} ({high})"
        elif what is not None:
            low = f"{what} ({low})"
        rules = [f"{rule} {bound}" for rule, bound in (
            ("at least", low), ("greater than", above), ("at most", high))
            if bound is not None]
        raise ConfigError(f"{key} must be {' and '.join(rules)}, got {x}")


# ---------------------------------------------------------------------------
# shared pieces


def _narrowed(path, table, names):
    """The table read from ``path`` with the statistics ``names`` alone, in
    their order, over the same values; an empty table, or one without some
    of ``names``, is a ``TableFormatError`` naming ``path``."""
    if table.n_rows == 0:
        raise TableFormatError(f"{path} contains no usable simulations")
    try:
        cols = table.stat_columns(names)
    except TableFormatError as exc:
        raise TableFormatError(str(exc), path=path) from None
    return SimulationTable(table.names, table.values, table.param_idx, cols)


def _split_models(cfg: Config, obs_path=None, two_models=None):
    """The observations at ``obs_path`` (None without it) and the tables,
    all narrowed to the run's statistics, which each table must hold: those
    observed (the first table's without it), less those
    ``pruneCorrelatedStats`` drops, in the first table's column order
    (:func:`abckit.tableio.in_table_order`), whatever the observation
    file's.  ``two_models`` names what needs two models or more.  The
    settings are checked before anything is read."""
    sim_names = [s for s in cfg.require("simName").split(";") if s]
    specs = [s for s in cfg.require("params").split(";") if s]
    if len(specs) == 1 and len(sim_names) > 1:
        specs = specs * len(sim_names)
    if len(specs) != len(sim_names):
        raise ConfigError("simName and params list different model counts")
    if two_models and len(sim_names) < 2:
        raise ConfigError(f"{two_models} needs at least two models")
    max_read = cfg.require_int("maxReadSims", low=1)
    prune = cfg.get_bool("pruneCorrelatedStats", False)
    max_cor = cfg.get_float("maxCor", 1.0, above=0, high=1) if prune else None
    observed = read_observed(obs_path) if obs_path else None
    tables = [read_table(name, spec, max_rows=max_read)
              for name, spec in zip(sim_names, specs)]
    names = tables[0].stat_names
    if observed:
        names = in_table_order(observed[0].names, names)
    if prune:
        names, _ = prune_correlated(
            _narrowed(sim_names[0], tables[0], names), max_cor)
    tables = [_narrowed(*pair, names) for pair in zip(sim_names, tables)]
    if observed:
        observed = [ObservedStats(names, obs.vector(names)) for obs in observed]
    return observed, tables


# bounds read from the tables: leave-one-out retains from one row fewer
_ROWS = "the rows of the smallest table"
_ROWS_LESS_ONE = _ROWS + " less one"


def _check_fit_count(num_retained: int, tables) -> None:
    # ABC-GLM fits each model's parameters and an intercept to more rows
    most = max(len(t.param_names) for t in tables)
    _check_range("numRetained", num_retained, low=most + 2,
                 what="the most parameters of any model + 2")


def _joint_groups(cfg: Config):
    """The groups of ``jointPosteriors`` (``;`` between groups, ``,`` within
    one) and, if there is one, ``jointPosteriorDensityPoints``."""
    groups, n_points = [], None
    for group in filter(None, (cfg.get("jointPosteriors") or "").split(";")):
        names = [n.strip() for n in group.split(",") if n.strip()]
        if len(set(names)) != len(names) or not 2 <= len(names) <= 4:
            raise ConfigError(f"jointPosteriors group {group!r} must name 2 "
                              "to 4 different parameters")
        if n_points is None:
            n_points = cfg.get_int("jointPosteriorDensityPoints", 100, low=2)
        adjust.check_joint_grid(len(names), n_points)
        groups.append(names)
    return groups, n_points


def _densities_payload(post: adjust.GridPosterior):
    header, cols = [], []
    for name in post.param_names:
        g, f = post.density(name)
        header += [name, f"{name}.density"]
        cols += [g, f]
    rows = np.column_stack(cols)
    return header, rows


def _characteristics_payload(chars: dict):
    header = ["parameter", "mode", "mean", "median",
              *(f"q{q}" for q in adjust.QUANTILE_LEVELS),
              "HDI50lower", "HDI50upper", "HDI95lower", "HDI95upper"]
    rows = []
    for name, ch in chars.items():
        rows.append([name, ch.mode, ch.mean, ch.median,
                     *(ch.quantiles[q] for q in adjust.QUANTILE_LEVELS),
                     *ch.hdi50, *ch.hdi95])
    return header, rows


def _best_sims_payload(retained):
    header = list(retained.param_names) + list(retained.stat_names) + ["distance"]
    return header, np.column_stack([retained.params, retained.stats,
                                    retained.distances])


def _rejection_densities_payload(retained):
    # gnuplot-ready kernel densities of the retained parameter values, none
    # of them constant (glm_fit has checked)
    header, cols = [], []
    for j, name in enumerate(retained.param_names):
        header += [name, f"{name}.density"]
        cols += adjust.weighted_density(retained.params[:, j])
    return header, np.column_stack(cols)


# ---------------------------------------------------------------------------
# tasks


def _task_estimate(cfg: Config, rng) -> None:
    standardize = cfg.get_bool("standardizeStats", True)
    prefix = cfg.get("outputPrefix", "ABC_GLM")
    n_points = cfg.get_int("posteriorDensityPoints", 100, low=2,
                           high=adjust.JOINT_GRID_MAX_POINTS)
    dirac = cfg.get_float("diracPeakWidth", adjust.DEFAULT_PEAK_WIDTH,
                          above=0)
    write_retained = cfg.get_bool("writeRetained", False)
    joint_groups, joint_points = _joint_groups(cfg)
    num_retained = cfg.require_int("numRetained", low=1)
    per_retained = dict(high=num_retained, what="numRetained")
    # a validation count of 0, or none, turns that validation off
    n_marg = cfg.get_int("marDensPValue", low=1, **per_retained)
    n_tukey = cfg.get_int("tukeyPValue", low=1, **per_retained)
    n_random = cfg.get_int("randomValidation", low=0)
    n_retained_val = cfg.get_int("retainedValidation", low=0, **per_retained)
    n_mc_val = cfg.get_int("modelChoiceValidation", low=0)
    if n_tukey and num_retained < 10:
        raise ConfigError(f"tukeyPValue needs numRetained of at least 10, "
                          f"got {num_retained}")
    plot_data = cfg.get_bool("plotData", False)
    # every step reads the run's statistics in the tables' column order
    obs_list, tables = _split_models(
        cfg, cfg.require("obsName"),
        two_models="modelChoiceValidation" if n_mc_val else None)
    _check_fit_count(num_retained, tables)
    missing = [n for group in joint_groups for n in group
               if any(n not in t.param_names for t in tables)]
    if missing:
        raise ConfigError(f"jointPosteriors names {', '.join(missing)}, not a "
                          "parameter of every model")
    rows = min(t.n_rows for t in tables)
    loo = bool(n_random or n_retained_val or n_mc_val)
    _check_range("numRetained", num_retained, high=rows - int(loo),
                 what=_ROWS_LESS_ONE if loo else _ROWS)
    _check_range("randomValidation", n_random, high=rows - 1, what=_ROWS_LESS_ONE)
    _check_range("modelChoiceValidation", n_mc_val, high=rows, what=_ROWS)
    settings = validation.GlmSettings(num_retained, n_points, dirac, standardize)

    def unit(k, m, obs, r, fit):
        """The files of model ``m`` for observation ``k``, each yielded as
        ``(tag, payload, joint_params)`` once computed, among its logs."""
        if write_retained:
            yield OutputTag.BEST_SIMS, _best_sims_payload(r), None
        post, chars = adjust.glm_posterior(fit, r, n_points=n_points,
                                           dirac_peak_width=dirac)
        yield OutputTag.MARGINAL_DENSITIES, _densities_payload(post), None
        yield (OutputTag.MARGINAL_CHARACTERISTICS,
               _characteristics_payload(chars), None)
        if plot_data:
            yield (OutputTag.REJECTION_DENSITIES,
                   _rejection_densities_payload(r), None)
        for name, ch in chars.items():
            log.info("obs %d model %d %s: mode %.6g, mean %.6g, "
                     "median %.6g", k, m, name, ch.mode, ch.mean, ch.median)
        for names in joint_groups:
            joint = adjust.joint_posterior(fit, r, params=names,
                                           n_points=joint_points,
                                           dirac_peak_width=dirac)
            idx = [list(r.param_names).index(n) + 1 for n in names]
            yield (OutputTag.JOINT_POSTERIOR,
                   (names + ["density", "HDI"], joint.matrix()), idx)
        tests, args = [], [k, m]
        if n_marg:
            p, log_density = validation.marginal_density_pvalue(
                fit, r, n_marg, dirac)
            tests.append("marginal density %.6g (P=%.4g)")
            args += [adjust.safe_exp(log_density), p]
        if n_tukey:
            p, depth = validation.tukey_pvalue(r.stats_std, r.obs_std,
                                               n_tukey, rng=rng)
            tests.append("Tukey depth %.4g (P=%.4g)")
            args += [depth, p]
        if tests:
            log.info("obs %d model %d fit: " + ", ".join(tests), *args)
        if n_retained_val:
            rows = validation.cross_validate(
                tables[m], "retained", n_retained_val, settings, rng, obs=obs)
            yield from _validation_file(
                OutputTag.RETAINED_VALIDATION, rows, r.param_names,
                f"retained validation (model {m}, obs {k})")

    for k, obs in enumerate(obs_list):
        choice = glm_model_choice(tables, obs, num_retained, dirac,
                                  standardize=standardize)
        if len(tables) > 1:
            write_model_fit(choice, prefix, obs_index=k)
            for m in range(len(tables)):
                log.info("obs %d model %d: marginal density %.6g, "
                         "posterior probability %.6g", k, m,
                         choice.densities[m], choice.probabilities[m])
        for m, (r, fit) in enumerate(zip(choice.retained, choice.fits)):
            for tag, payload, joint in unit(k, m, obs, r, fit):
                write_tagged(prefix, tag, payload, model_index=m,
                             obs_index=k, joint_params=joint)

    if n_random:
        for m, table in enumerate(tables):
            rows = validation.cross_validate(table, "random", n_random,
                                             settings, rng)
            for tag, payload, _ in _validation_file(
                    OutputTag.RANDOM_VALIDATION, rows, table.param_names,
                    f"random validation (model {m})"):
                write_tagged(prefix, tag, payload, model_index=m)
    if n_mc_val:
        cm, raw = validation.model_choice_validate(tables, n_mc_val,
                                                   settings, rng)
        # the files hold the successful queries only
        log.info("model choice validation: %d of %d queries failed",
                 n_mc_val * len(tables) - len(raw), n_mc_val * len(tables))
        write_tagged(prefix, OutputTag.CONFUSION_MATRIX,
                     validation.confusion_table(cm))
        write_tagged(prefix, OutputTag.MODEL_CHOICE_VALIDATION,
                     validation.raw_choice_table(raw))
        log.info("model choice validation accuracy: %s (overall %.4g)",
                 np.round(cm.per_model_accuracy, 4).tolist(),
                 cm.overall_accuracy)


def _validation_file(tag, rows, param_names, label: str):
    """The file of a cross-validation's rows, yielded as ``(tag, payload,
    None)``, then the failed count and coverage tests, logged."""
    # the file holds the successful replicates only
    yield tag, validation.validation_table(rows, param_names), None
    failed = sum(row.error is not None for row in rows)
    try:
        tests = validation.coverage_tests(rows)
    except ValueError as exc:
        log.info("%s: %d of %d replicates failed; coverage tests skipped: %s",
                 label, failed, len(rows), exc)
        return
    log.info("%s: %d of %d replicates failed", label, failed, len(rows))
    for name, t in tests.items():
        log.info("%s %s: quantile KS %.4g (P=%.4g), HDI KS %.4g (P=%.4g)",
                 label, name, t["quantile_ks"], t["quantile_p"],
                 t["hdi_ks"], t["hdi_p"])


def _binding_from_config(cfg: Config) -> SimulatorBinding:
    # builtin and easyabc leave the post-processor keys unread (and warned)
    program = cfg.require("simProgram")
    if program in BUILTIN_MODELS:
        return SimulatorBinding.builtin(program)
    sim_args = cfg.get("simArgs", "")
    template = cfg.get("simInputName")
    if not template and not sim_args:
        return SimulatorBinding.easyabc(program)
    sum_kw = {}
    if cfg.has("sumStatProgram"):
        sum_kw["sum_stat_program"] = cfg.get("sumStatProgram")
        sum_kw["sum_stat_args"] = cfg.get("sumStatArgs", "")
    stats_file = cfg.get("sumStatName")
    if stats_file:
        sum_kw["stats_file"] = stats_file
    if template:
        return SimulatorBinding.exec_files(program, template, sim_args, **sum_kw)
    return SimulatorBinding.exec_args(program, sim_args, **sum_kw)


# the keys that set McmcConfig's fields, which its range checks name
_MCMC_KEYS = {
    "n_calibration": "numCaliSims", "threshold_prop": "thresholdProp",
    "range_prop": "rangeProp", "starting_point": "startingPoint",
    "sampling_interval": "mcmcSampling", "chain_length": "numSims",
    "burn_in_frac": "mcmcBurnIn",
}


def _task_simulate(cfg: Config, rng) -> None:
    est_path = cfg.require("estName")
    n_sims = cfg.require_int("numSims", low=1)
    sampler = cfg.get("samplerType", "standard")
    mcmc = sampler.lower() == "mcmc"
    if not mcmc and sampler.lower() != "standard":
        raise ConfigError(f"unsupported samplerType {sampler!r} "
                          "(use standard or MCMC)")
    binding = _binding_from_config(cfg)
    out_name = cfg.get("outName", "sims")
    boost_flag = cfg.get_bool("doBoosting", False)
    cfg.has("obsName")  # marks the key used: only the chain needs it
    if mcmc:
        obs_path = cfg.require("obsName")
        comb_path = cfg.get("linearCombName")
        try:
            # the definition is loaded with the other inputs, below
            mcfg = McmcConfig(
                n_calibration=cfg.get_int("numCaliSims", 1000),
                threshold_prop=cfg.get_float("thresholdProp", 0.1),
                range_prop=cfg.get_float("rangeProp", 1.0),
                starting_point=cfg.get("startingPoint", "best"),
                chain_length=n_sims,
                sampling_interval=cfg.get_int("mcmcSampling", 1),
                burn_in_frac=cfg.get_float("mcmcBurnIn", 0.1),
                do_boxcox=cfg.get_bool("doBoxCox", bool(comb_path)),
                do_boosting=boost_flag)
        except ValueError as exc:
            keys = [key for field, key in _MCMC_KEYS.items() if field in str(exc)]
            raise ConfigError(f"{', '.join(keys)}: {exc}") from None

    est = parse_est_file(est_path)
    if mcmc:
        observed = read_observed(obs_path)
        if len(observed) != 1:
            raise ConfigError(f"the MCMC sampler takes exactly one "
                              f"observation, {obs_path} holds "
                              f"{len(observed)} value lines")
        obs = observed[0]
        if comb_path:
            from dataclasses import replace
            mcfg = replace(mcfg, lincomb=LinearCombDef.load(comb_path))
        run = run_mcmc(est, binding, obs, mcfg, rng)
        log.info("chain of %d steps, acceptance rate %.4g, tolerance %.6g",
                 run.steps, run.acceptance_rate, run.epsilon)
        table = run.table
    else:
        table = run_standard(est, binding, n_sims, rng).table
        if boost_flag:
            table = statselect.boost(table)
    path = write_table(f"{out_name}_sampling1.txt", table)
    log.info("wrote %s", path)


def _task_transform(cfg: Config, rng) -> None:
    comb_path = cfg.require("linearCombName")
    in_path = cfg.require("input")
    out_path = cfg.require("output")
    k = cfg.get_int("numLinearComb", low=1)
    apply_boxcox = cfg.get_bool("doBoxCox", True)
    comb = LinearCombDef.load(comb_path)
    k = comb.n_components if k is None else k
    _check_range("numLinearComb", k, high=comb.n_components,
                 what=f"the components in {comb_path}")
    table = read_table(in_path, cfg.get("params", ""))
    out = statselect.transform(table, comb, k, apply_boxcox)
    write_table(out_path, out)
    log.info("wrote %s (%d row(s), %d component(s))", out_path, out.n_rows, k)


def _task_findstats(cfg: Config, rng) -> None:
    cfg.has("obsName")  # marks the key used: the search needs no observation
    n_val = cfg.require_int("modelChoiceValidation", low=1)
    max_cor = cfg.get_float("maxCorSSFinder", 1.0, low=0, high=1)
    dirac = cfg.get_float("diracPeakWidth", adjust.DEFAULT_PEAK_WIDTH,
                          above=0)
    prefix = cfg.get("outputPrefix", "ABC_GLM")
    num_retained = cfg.require_int("numRetained", low=1)
    _, tables = _split_models(cfg, two_models="findStatsModelChoice")
    _check_fit_count(num_retained, tables)
    rows = min(t.n_rows for t in tables)
    _check_range("numRetained", num_retained, high=rows - 1, what=_ROWS_LESS_ONE)
    _check_range("modelChoiceValidation", n_val, high=rows, what=_ROWS)
    settings = validation.GlmSettings(num_retained, dirac_peak_width=dirac)
    results = statselect.greedy_search(tables, n_val, settings, max_cor, rng)
    write_tagged(prefix, OutputTag.GREEDY_SEARCH,
                 statselect.greedy_search_table(results))
    best = results[0]
    log.info("best subset: %s (power %.4g)", ",".join(best.names), best.power)


_TASKS = {
    "estimate": _task_estimate,
    "simulate": _task_simulate,
    "transform": _task_transform,
    "findStatsModelChoice": _task_findstats,
}


def dispatch(cfg: Config) -> int:
    task = cfg.get("task")
    if not task:
        raise ConfigError("no task given (estimate, simulate, transform or "
                          "findStatsModelChoice)")
    runner = _TASKS.get(task)
    if runner is None:
        lowered = {t.lower(): f for t, f in _TASKS.items()}
        runner = lowered.get(task.lower())
    if runner is None:
        raise ConfigError(f"unknown task {task!r}")
    cfg.has("estimationType")  # marks the key used: there is one type
    seed = cfg.get_int("seed", secrets.randbits(32), low=0)
    log.info("version %s, seed %d", __version__, seed)
    for key in sorted(cfg.values):
        log.info("setting %s = %s", key, cfg.values[key] or "(flag)")
    rng = np.random.default_rng(seed)
    runner(cfg, rng)
    cfg.warn_unknown()
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    cfg = Config()
    try:
        cfg.load_args(sys.argv[1:] if argv is None else list(argv))
        return dispatch(cfg)
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        return 1
    except (TableFormatError, OSError) as exc:
        log.error("input/output error: %s", exc)
        return 2
    except (NumericalError, EvalError) as exc:
        log.error("numerical failure: %s", exc)
        return 3
    except SimulatorError as exc:
        log.error("simulator failure: %s", exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())
