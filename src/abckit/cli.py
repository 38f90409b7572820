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

Unknown keys warn but do not abort.  Every run logs a header with the
version, the random seed, and the resolved configuration, so runs can be
replicated.  Exit codes: 0 success, 1 configuration error, 2 input/output
error, 3 numerical failure, 4 simulator failure.
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
from .tableio import (ObservedStats, OutputTag, read_observed, read_table,
                      write_table, write_tagged)

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

    def get_int(self, key: str, default=None):
        """An integer literal, or an integral float literal up to 2**53."""
        v = self.get(key)
        if v is None:
            return default
        try:
            return int(v)
        except ValueError:
            pass
        try:
            x = float(v)
            if x.is_integer() and abs(x) <= 2**53:
                return int(x)
        except ValueError:
            pass
        raise ConfigError(f"{key} must be an integer, got {v!r}")

    def require_int(self, key: str) -> int:
        self.require(key)
        return self.get_int(key)

    def get_float(self, key: str, default=None):
        v = self.get(key)
        if v is None:
            return default
        try:
            return float(v)
        except ValueError:
            raise ConfigError(f"{key} must be a number, got {v!r}") from None

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


# ---------------------------------------------------------------------------
# shared pieces


def _split_models(cfg: Config):
    """The tables and the statistics ``pruneCorrelatedStats`` dropped."""
    sim_names = [s for s in cfg.require("simName").split(";") if s]
    specs = [s for s in cfg.require("params").split(";") if s]
    if len(specs) == 1 and len(sim_names) > 1:
        specs = specs * len(sim_names)
    if len(specs) != len(sim_names):
        raise ConfigError("simName and params list different model counts")
    max_read = cfg.require_int("maxReadSims")
    tables = [read_table(name, spec, max_rows=max_read)
              for name, spec in zip(sim_names, specs)]
    for name, t in zip(sim_names, tables):
        if t.n_rows == 0:
            raise TableFormatError(f"{name} contains no usable simulations")
    max_cor = cfg.get_float("maxCor", 1.0)
    if not cfg.get_bool("pruneCorrelatedStats", False):
        return tables, []
    if not 0 < max_cor <= 1:
        raise ConfigError(f"maxCor must be in (0, 1], got {max_cor}")
    pruned, dropped = prune_correlated(tables[0], max_cor)
    return [t.with_stats([n for n in pruned.stat_names if n in t.stat_names])
            for t in tables], dropped


def _without(obs: ObservedStats, dropped) -> ObservedStats:
    """The observation without the statistics pruned from the tables."""
    keep = [n for n in obs.names if n not in dropped]
    return ObservedStats(keep, obs.vector(keep))


def _num_retained(cfg: Config, tables, leave_one_out: bool) -> int:
    # a leave-one-out replicate retains from a table one row short
    k = cfg.require_int("numRetained")
    limit = min(t.n_rows for t in tables) - int(leave_one_out)
    if not 1 <= k <= limit:
        raise ConfigError(f"numRetained must be between 1 and {limit} (the "
                          "rows of the smallest table, less one with "
                          f"leave-one-out validation), got {k}")
    return k


def _check_count(key: str, n, low: int, high: int, what: str) -> None:
    """Raise a ``ConfigError`` unless the count ``n`` set by ``key`` is
    unset or between ``low`` and ``high``, which ``what`` names."""
    if n is not None and not low <= n <= high:
        raise ConfigError(f"{key} must be between {low} and {what} ({high}), "
                          f"got {n}")


def _dirac_peak_width(cfg: Config) -> float:
    dirac = cfg.get_float("diracPeakWidth", adjust.DEFAULT_PEAK_WIDTH)
    if not dirac > 0:
        raise ConfigError(f"diracPeakWidth must be positive, got {dirac}")
    return dirac


def _joint_groups(cfg: Config, tables, n_points: int) -> list[list[str]]:
    """The parameter groups of ``jointPosteriors``: ``;`` between groups,
    ``,`` within one."""
    groups = []
    for group in filter(None, (cfg.get("jointPosteriors") or "").split(";")):
        names = [n.strip() for n in group.split(",") if n.strip()]
        if (len(set(names)) != len(names) or not 2 <= len(names) <= 4
                or any(n not in t.param_names for t in tables for n in names)):
            raise ConfigError(f"jointPosteriors group {group!r} must name 2 "
                              "to 4 different parameters of every model")
        adjust.check_joint_grid(len(names), n_points)
        groups.append(names)
    return groups


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
    rows = np.column_stack([retained.params, retained.stats,
                            retained.distances])
    return header, rows.tolist()


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
    tables, dropped = _split_models(cfg)
    obs_list = [_without(obs, dropped)
                for obs in read_observed(cfg.require("obsName"))]
    standardize = cfg.get_bool("standardizeStats", True)
    prefix = cfg.get("outputPrefix", "ABC_GLM")
    n_points = cfg.get_int("posteriorDensityPoints", 100)
    dirac = _dirac_peak_width(cfg)
    write_retained = cfg.get_bool("writeRetained", False)
    joint_points = cfg.get_int("jointPosteriorDensityPoints", 100)
    joint_groups = _joint_groups(cfg, tables, joint_points)
    n_marg = cfg.get_int("marDensPValue")
    n_tukey = cfg.get_int("tukeyPValue")
    n_random = cfg.get_int("randomValidation")
    n_retained_val = cfg.get_int("retainedValidation")
    n_mc_val = cfg.get_int("modelChoiceValidation")
    plot_data = cfg.get_bool("plotData", False)
    if n_points < 2:
        raise ConfigError(f"posteriorDensityPoints must be at least 2, "
                          f"got {n_points}")
    # a validation count of 0, or none, turns that validation off
    min_rows = min(t.n_rows for t in tables)
    _check_count("randomValidation", n_random, 0, min_rows - 1,
                 "the rows of the smallest table less one")
    _check_count("modelChoiceValidation", n_mc_val, 0, min_rows,
                 "the rows of the smallest table")
    if n_mc_val and len(tables) < 2:
        raise ConfigError("modelChoiceValidation needs at least two models")
    num_retained = _num_retained(cfg, tables,
                                 bool(n_random or n_retained_val or n_mc_val))
    _check_count("retainedValidation", n_retained_val, 0, num_retained,
                 "numRetained")
    _check_count("marDensPValue", n_marg, 1, num_retained, "numRetained")
    _check_count("tukeyPValue", n_tukey, 1, num_retained, "numRetained")
    if n_tukey and num_retained < 10:
        raise ConfigError(f"tukeyPValue needs numRetained of at least 10, "
                          f"got {num_retained}")
    settings = validation.GlmSettings(num_retained, n_points, dirac, standardize)

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
            if write_retained:
                write_tagged(prefix, OutputTag.BEST_SIMS,
                             _best_sims_payload(r), model_index=m, obs_index=k)
            post, chars = adjust.glm_posterior(fit, r, n_points=n_points,
                                               dirac_peak_width=dirac)
            write_tagged(prefix, OutputTag.MARGINAL_DENSITIES,
                         _densities_payload(post), model_index=m, obs_index=k)
            write_tagged(prefix, OutputTag.MARGINAL_CHARACTERISTICS,
                         _characteristics_payload(chars),
                         model_index=m, obs_index=k)
            if plot_data:
                write_tagged(prefix, OutputTag.REJECTION_DENSITIES,
                             _rejection_densities_payload(r),
                             model_index=m, obs_index=k)
            for name, ch in chars.items():
                log.info("obs %d model %d %s: mode %.6g, mean %.6g, "
                         "median %.6g", k, m, name, ch.mode, ch.mean, ch.median)
            for names in joint_groups:
                joint = adjust.joint_posterior(fit, r, params=names,
                                               n_points=joint_points,
                                               dirac_peak_width=dirac)
                idx = [list(r.param_names).index(n) + 1 for n in names]
                header = names + ["density", "HDI"]
                write_tagged(prefix, OutputTag.JOINT_POSTERIOR,
                             (header, joint.matrix()),
                             model_index=m, obs_index=k, joint_params=idx)
            if n_marg or n_tukey:
                pv = validation.fit_pvalues(fit, r, n_marginal=n_marg,
                                            n_tukey=n_tukey, rng=rng,
                                            dirac_peak_width=dirac)
                log.info("obs %d model %d fit: marginal density %.6g "
                         "(P=%.4g), Tukey depth %.4g (P=%.4g)", k, m,
                         pv.marginal_density, pv.marginal_pvalue,
                         pv.tukey_depth, pv.tukey_pvalue)
            if n_retained_val:
                rows = validation.cross_validate(
                    tables[m], "retained", n_retained_val, settings, rng, obs=obs)
                write_tagged(prefix, OutputTag.RETAINED_VALIDATION,
                             validation.validation_table(rows, r.param_names),
                             model_index=m, obs_index=k)
                _log_coverage(rows, f"retained validation (model {m}, obs {k})")

    if n_random:
        for m, table in enumerate(tables):
            rows = validation.cross_validate(table, "random", n_random,
                                             settings, rng)
            write_tagged(prefix, OutputTag.RANDOM_VALIDATION,
                         validation.validation_table(rows, table.param_names),
                         model_index=m)
            _log_coverage(rows, f"random validation (model {m})")
    if n_mc_val:
        cm, raw = validation.model_choice_validate(tables, n_mc_val,
                                                   settings, rng)
        write_tagged(prefix, OutputTag.CONFUSION_MATRIX,
                     validation.confusion_table(cm))
        write_tagged(prefix, OutputTag.MODEL_CHOICE_VALIDATION,
                     validation.raw_choice_table(raw))
        log.info("model choice validation accuracy: %s (overall %.4g)",
                 np.round(cm.per_model_accuracy, 4).tolist(),
                 cm.overall_accuracy)


def _log_coverage(rows, label: str) -> None:
    # the validation files hold the successful replicates only
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


# McmcConfig fields and the keys that set them (numSims, the chain length,
# is checked before); McmcConfig's range checks name the fields
_MCMC_KEYS = {
    "n_calibration": "numCaliSims", "threshold_prop": "thresholdProp",
    "range_prop": "rangeProp", "starting_point": "startingPoint",
    "sampling_interval": "mcmcSampling", "burn_in_frac": "mcmcBurnIn",
}


def _task_simulate(cfg: Config, rng) -> None:
    est = parse_est_file(cfg.require("estName"))
    n_sims = cfg.require_int("numSims")
    if n_sims < 1:
        raise ConfigError(f"numSims must be at least 1, got {n_sims}")
    binding = _binding_from_config(cfg)
    sampler = cfg.get("samplerType", "standard")
    out_name = cfg.get("outName", "sims")
    boost_flag = cfg.get_bool("doBoosting", False)

    if sampler.lower() == "mcmc":
        obs = read_observed(cfg.require("obsName"))[0]
        comb_path = cfg.get("linearCombName")
        comb = LinearCombDef.load(comb_path) if comb_path else None
        try:
            mcfg = McmcConfig(
                n_calibration=cfg.get_int("numCaliSims", 1000),
                threshold_prop=cfg.get_float("thresholdProp", 0.1),
                range_prop=cfg.get_float("rangeProp", 1.0),
                starting_point=cfg.get("startingPoint", "best"),
                chain_length=n_sims,
                sampling_interval=cfg.get_int("mcmcSampling", 1),
                burn_in_frac=cfg.get_float("mcmcBurnIn", 0.1),
                lincomb=comb,
                do_boxcox=cfg.get_bool("doBoxCox", comb is not None),
                do_boosting=boost_flag)
        except ValueError as exc:
            keys = [key for field, key in _MCMC_KEYS.items() if field in str(exc)]
            raise ConfigError(f"{', '.join(keys)}: {exc}") from None
        run = run_mcmc(est, binding, obs, mcfg, rng)
        log.info("chain of %d steps, acceptance rate %.4g, tolerance %.6g",
                 run.steps, run.acceptance_rate, run.epsilon)
        table = run.table
    elif sampler.lower() == "standard":
        cfg.has("obsName")  # marks the key used: only the chain needs it
        result = run_standard(est, binding, n_sims, rng)
        log.info("%d simulation(s) kept, %d failed", result.table.n_rows,
                 result.failures)
        table = result.table
        if boost_flag:
            table = statselect.boost(table)
    else:
        raise ConfigError(f"unsupported samplerType {sampler!r} "
                          "(use standard or MCMC)")
    path = write_table(f"{out_name}_sampling1.txt", table)
    log.info("wrote %s", path)


def _task_transform(cfg: Config, rng) -> None:
    comb = LinearCombDef.load(cfg.require("linearCombName"))
    in_path = cfg.require("input")
    out_path = cfg.require("output")
    k = cfg.get_int("numLinearComb", comb.n_components)
    if not 1 <= k <= comb.n_components:
        raise ConfigError(f"numLinearComb must be between 1 and "
                          f"{comb.n_components} (the components in "
                          f"{cfg.get('linearCombName')}), got {k}")
    apply_boxcox = cfg.get_bool("doBoxCox", True)
    table = read_table(in_path, cfg.get("params", ""))
    out = statselect.transform(table, comb, k, apply_boxcox)
    write_table(out_path, out)
    log.info("wrote %s (%d row(s), %d component(s))", out_path, out.n_rows, k)


def _task_findstats(cfg: Config, rng) -> None:
    tables, _ = _split_models(cfg)
    if len(tables) < 2:
        raise ConfigError("findStatsModelChoice needs at least two models")
    cfg.has("obsName")  # marks the key used: the search needs no observation
    n_val = cfg.require_int("modelChoiceValidation")
    _check_count("modelChoiceValidation", n_val, 1,
                 min(t.n_rows for t in tables), "the rows of the smallest table")
    num_retained = _num_retained(cfg, tables, leave_one_out=True)
    max_cor = cfg.get_float("maxCorSSFinder", 1.0)
    dirac = _dirac_peak_width(cfg)
    prefix = cfg.get("outputPrefix", "ABC_GLM")
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
    seed = cfg.get_int("seed")
    if seed is None:
        seed = secrets.randbits(32)
    elif seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
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
