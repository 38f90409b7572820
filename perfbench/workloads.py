"""The four workloads, and the checks on what they write.

Each workload is a closed loop of one client in one process: the steps run
one after another, each starting when the previous one returned.  They
call ``abckit`` through module attributes (``tableio.read_table``, never a
name imported from it), so the wrappers of :mod:`tracing` see every call.

The estimate workloads call the library functions that ``cli`` task
``estimate`` calls, in the same order, and write the same tagged files
with row lists.  They do not go through ``cli.main`` because that task
always exits 3 today: ``write_tagged`` tests ``if not rows`` on the ndarray
of marginal densities.  Once that is fixed they can move onto
``cli.main``.  ``simulate`` and ``findstats`` go through ``cli.main``.

Checks hold for any seed and allow for the 6 significant digits of the
written files, so they do not depend on tie-breaking or random streams.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from abckit import adjust, cli, modelchoice, statselect, tableio, validation
from abckit.errors import AbckitError

import inputs
from sizes import EstimateSize, FindStatsSize, SimulateSize

PREFIX = "est"
# relative tolerance of a value written with 6 significant digits, with room
# for a product or a sum of a few of them
WRITTEN_RTOL = 2e-5


@dataclass
class Tally:
    """Operations attempted and failed, checks, and phase timers."""

    attempted: int = 0
    failed: int = 0
    failed_checks: int = 0
    messages: list = field(default_factory=list)
    phases: dict = field(default_factory=dict)

    def ops(self, attempted: int, failed: int = 0, what: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.messages.append(f"{failed} of {attempted} failed: {what}")

    def call(self, what: str, fn, *args, **kwargs):
        """Run one operation; a raised ``AbckitError`` counts as failed."""
        try:
            result = fn(*args, **kwargs)
        except AbckitError as exc:
            self.ops(1, 1, f"{what}: {type(exc).__name__}: {exc}")
            return None
        self.ops(1)
        return result

    def cli(self, argv) -> bool:
        code = cli.main(argv)
        self.ops(1, int(code != 0), f"cli {argv[0]} exited {code}")
        return code == 0

    def check(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failed_checks += 1
            self.messages.append(f"check failed: {what}")

    def add(self, phase: str, value: float) -> None:
        self.phases[phase] = self.phases.get(phase, 0.0) + value


class LogTap(logging.Handler):
    """Keeps the program's log records, to read the counts it reports."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.records: list[logging.LogRecord] = []

    def emit(self, record):
        self.records.append(record)

    def args_of(self, fmt: str) -> list[tuple]:
        return [r.args for r in self.records if r.msg == fmt]


# ---------------------------------------------------------------------------
# estimate, on the library path


def _densities_rows(post):
    header, cols = [], []
    for name in post.param_names:
        g, f = post.density(name)
        header += [name, f"{name}.density"]
        cols += [g, f]
    return header, np.column_stack(cols).tolist()


def _characteristics_rows(chars):
    header = ["parameter", "mode", "mean", "median"] + \
        [f"q{q}" for q in adjust.QUANTILE_LEVELS] + \
        ["HDI50lower", "HDI50upper", "HDI95lower", "HDI95upper"]
    rows = [[name, ch.mode, ch.mean, ch.median,
             *(ch.quantiles[q] for q in adjust.QUANTILE_LEVELS),
             *ch.hdi50, *ch.hdi95] for name, ch in chars.items()]
    return header, rows


def _best_sims_rows(r):
    header = list(r.param_names) + list(r.stat_names) + ["distance"]
    return header, np.column_stack([r.params, r.stats, r.distances]).tolist()


def _validate(tally: Tally, rows, tag, param_names, **index) -> None:
    tally.ops(len(rows), sum(r.error is not None for r in rows),
              f"{tag.value} replicates")
    tableio.write_tagged(PREFIX, tag,
                         validation.validation_table(rows, param_names), **index)
    try:
        validation.coverage_tests(rows)
    except ValueError:
        pass


def estimate(size: EstimateSize, in_dir: Path, seed: int, tally: Tally):
    """Task ``estimate`` on the two toy models; returns the fit P-values
    of every (observation, model)."""
    dirac = adjust.DEFAULT_PEAK_WIDTH
    k_ret = size.num_retained
    tables = [tableio.read_table(in_dir / f"{model}.txt", "1-2",
                                 max_rows=size.table_rows)
              for model in inputs.MODELS]
    obs_list = tableio.read_observed(in_dir / "obs.txt")
    settings = validation.GlmSettings(k_ret, adjust.DEFAULT_GRID_POINTS,
                                      dirac, True)
    rng = np.random.default_rng(seed)
    pvalues = []
    for k, obs in enumerate(obs_list):
        choice = modelchoice.glm_model_choice(tables, obs, k_ret, dirac)
        modelchoice.write_model_fit(choice, PREFIX, obs_index=k)
        for m, (r, fit) in enumerate(zip(choice.retained, choice.fits)):
            index = {"model_index": m, "obs_index": k}
            if size.write_retained:
                tableio.write_tagged(PREFIX, tableio.OutputTag.BEST_SIMS,
                                     _best_sims_rows(r), **index)
            post, chars = adjust.glm_posterior(fit, r, n_points=settings.n_points,
                                               dirac_peak_width=dirac)
            tableio.write_tagged(PREFIX, tableio.OutputTag.MARGINAL_DENSITIES,
                                 _densities_rows(post), **index)
            tableio.write_tagged(PREFIX,
                                 tableio.OutputTag.MARGINAL_CHARACTERISTICS,
                                 _characteristics_rows(chars), **index)
            t0 = time.perf_counter()
            if size.joint_points:
                joint = adjust.joint_posterior(fit, r, params=["mu", "sigma2"],
                                               n_points=size.joint_points,
                                               dirac_peak_width=dirac)
                tableio.write_tagged(PREFIX, tableio.OutputTag.JOINT_POSTERIOR,
                                     (["mu", "sigma2", "density", "HDI"],
                                      list(joint.rows())),
                                     joint_params=[1, 2], **index)
            if size.n_pvalue:
                pvalues.append(validation.fit_pvalues(
                    fit, r, n_marginal=size.n_pvalue, n_tukey=size.n_pvalue,
                    rng=rng, dirac_peak_width=dirac))
            t1 = time.perf_counter()
            tally.add("diagnostics_s", t1 - t0)
            if size.retained_validation:
                rows = validation.cross_validate(
                    tables[m], "retained", size.retained_validation, settings,
                    rng, obs=obs)
                _validate(tally, rows, tableio.OutputTag.RETAINED_VALIDATION,
                          r.param_names, **index)
                tally.add("validation_reps", len(rows))
            tally.add("validation_s", time.perf_counter() - t1)

    t1 = time.perf_counter()
    for m, table in enumerate(tables if size.random_validation else ()):
        rows = validation.cross_validate(table, "random",
                                         size.random_validation, settings, rng)
        _validate(tally, rows, tableio.OutputTag.RANDOM_VALIDATION,
                  table.param_names, model_index=m)
        tally.add("validation_reps", len(rows))
    if size.choice_validation:
        mc_settings = validation.ModelChoiceSettings("glm", k_ret, None, dirac)
        cm, raw = validation.model_choice_validate(
            tables, size.choice_validation, mc_settings, rng)
        tally.ops(len(raw))
        tableio.write_tagged(PREFIX, tableio.OutputTag.CONFUSION_MATRIX,
                             validation.confusion_table(cm))
        tableio.write_tagged(PREFIX, tableio.OutputTag.MODEL_CHOICE_VALIDATION,
                             validation.raw_choice_table(raw))
        tally.add("validation_reps", len(raw))
    tally.add("validation_s", time.perf_counter() - t1)
    return pvalues


def run_estimate(size: EstimateSize, in_dir: Path, seed: int, tally: Tally):
    pvalues = tally.call("estimate", estimate, size, in_dir, seed, tally)
    return pvalues is not None, pvalues


# ---------------------------------------------------------------------------
# simulate and findstats, through the command line front end


def run_simulate(size: SimulateSize, in_dir: Path, seed: int, tally: Tally):
    est = f"estName={in_dir / 'toy.est'}"
    t0 = time.perf_counter()
    ok = tally.cli(["task=simulate", est, "simProgram=toy-normal",
                    f"numSims={size.num_sims}", "doBoosting=1",
                    "outName=std", f"seed={seed}"])
    tally.add("standard_s", time.perf_counter() - t0)
    if not ok:
        return False, None
    table = tally.call("read", tableio.read_table, "std_sampling1.txt", "1-2",
                       max_rows=size.pls_rows)
    if table is None:
        return False, None
    t0 = time.perf_counter()
    pls = tally.call("fit_pls", statselect.fit_pls, table, size.pls_components,
                     size.pls_folds, np.random.default_rng(seed))
    if pls is None:
        return False, None
    pls.definition.save("lincomb.txt")
    tally.add("pls_s", time.perf_counter() - t0)
    t0 = time.perf_counter()
    ok = tally.cli(["task=simulate", "samplerType=MCMC", est,
                    "simProgram=toy-normal", f"numSims={size.chain_steps}",
                    f"numCaliSims={size.calibration_sims}",
                    "linearCombName=lincomb.txt", "doBoosting=1",
                    f"obsName={in_dir / 'obs.txt'}", "outName=mcmc",
                    f"seed={seed}"])
    tally.add("mcmc_s", time.perf_counter() - t0)
    return ok, None


def run_findstats(size: FindStatsSize, in_dir: Path, seed: int, tally: Tally):
    # maxCorSSFinder=0 skips every candidate correlated with the best single
    # statistic, so the search scores the eight singles and stops: the work
    # of a run does not depend on the data.  Left free, the greedy path
    # scored 21 or 26 subsets depending on the seed.
    sims = ";".join(str(in_dir / f"{m}.txt") for m in inputs.MODELS)
    t0 = time.perf_counter()
    ok = tally.cli(["task=findStatsModelChoice", f"simName={sims}",
                    "params=1-2", f"maxReadSims={size.table_rows}",
                    f"numRetained={size.num_retained}",
                    f"modelChoiceValidation={size.choice_validation}",
                    "maxCorSSFinder=0", f"outputPrefix={PREFIX}", f"seed={seed}"])
    tally.add("findstats_s", time.perf_counter() - t0)
    return ok, None


RUNNERS = {
    EstimateSize: run_estimate,
    SimulateSize: run_simulate,
    FindStatsSize: run_findstats,
}


# ---------------------------------------------------------------------------
# checks


def read_written(path: Path):
    """Header and rows of a tab-separated file written by the program;
    cells that are not numbers stay strings."""
    lines = path.read_text().splitlines()
    header = lines[0].split("\t")
    rows = []
    for line in lines[1:]:
        row = []
        for cell in line.split("\t"):
            try:
                row.append(float(cell))
            except ValueError:
                row.append(cell)
        rows.append(row)
    return header, rows


def _columns(path: Path) -> dict[str, np.ndarray]:
    header, rows = read_written(path)
    values = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return {name: values[:, j] for j, name in enumerate(header)}


def _tagged(tag, **index) -> Path:
    return Path(tableio.tagged_filename(PREFIX, tag, **index))


def _within_prior(cols, tally: Tally, what: str) -> None:
    for name, (lo, hi) in inputs.PRIOR_BOUNDS.items():
        tally.check(np.all((cols[name] >= lo) & (cols[name] <= hi)),
                    f"{what}: {name} outside the prior bounds")


def check_estimate(size: EstimateSize, manifest, pvalues, tally: Tally) -> None:
    tag = tableio.OutputTag
    for k, truth in enumerate(manifest["truth"]):
        fit = _columns(_tagged(tag.MODEL_FIT, obs_index=k))
        probs = fit["posteriorProbability"]
        tally.check(abs(probs.sum() - 1) < 1e-4,
                    f"obs {k}: model probabilities sum to {probs.sum()}")
        tally.check(int(np.argmax(probs)) == truth["model_index"],
                    f"obs {k}: generating model {truth['model']} does not win "
                    f"({probs.tolist()})")
        for m in range(len(inputs.MODELS)):
            index = {"model_index": m, "obs_index": k}
            dens = _columns(_tagged(tag.MARGINAL_DENSITIES, **index))
            for name in inputs.PARAM_NAMES:
                mass = np.trapezoid(dens[f"{name}.density"], dens[name])
                tally.check(abs(mass - 1) < 1e-3,
                            f"obs {k} model {m}: {name} density integrates to {mass}")
            header, rows = read_written(_tagged(tag.MARGINAL_CHARACTERISTICS,
                                                **index))
            qcols = [header.index(f"q{q}") for q in adjust.QUANTILE_LEVELS]
            for row in rows:
                q = np.array([row[j] for j in qcols])
                tally.check(np.all(np.diff(q) >= 0),
                            f"obs {k} model {m}: {row[0]} quantiles unordered")
            if size.write_retained:
                best = _columns(_tagged(tag.BEST_SIMS, **index))
                tally.check(len(best["distance"]) == size.num_retained,
                            f"obs {k} model {m}: retained row count")
                tally.check(np.all(np.diff(best["distance"]) >= 0),
                            f"obs {k} model {m}: retained rows not by distance")
            if size.joint_points:
                joint = _columns(_tagged(tag.JOINT_POSTERIOR, joint_params=[1, 2],
                                         **index))
                cell = 1.0
                for name in inputs.PARAM_NAMES:
                    g = np.unique(joint[name])
                    cell *= (g[-1] - g[0]) / (len(g) - 1)
                mass = joint["density"].sum() * cell
                tally.check(abs(mass - 1) < 1e-3,
                            f"obs {k} model {m}: joint density sums to {mass}")
                hdi = joint["HDI"]
                tally.check(np.all((hdi >= 0) & (hdi <= 1 + WRITTEN_RTOL)),
                            f"obs {k} model {m}: joint HDI level outside [0, 1]")
            if size.retained_validation:
                _check_validation(_tagged(tag.RETAINED_VALIDATION, **index),
                                  tally)
    for pv in pvalues:
        tally.check(0 <= pv.marginal_pvalue <= 1 and 0 <= pv.tukey_pvalue <= 1,
                    f"fit P-values outside [0, 1]: {pv}")
    if size.random_validation:
        for m in range(len(inputs.MODELS)):
            _check_validation(_tagged(tag.RANDOM_VALIDATION, model_index=m),
                              tally)
    if size.choice_validation:
        header, rows = read_written(_tagged(tag.CONFUSION_MATRIX))
        chosen = [j for j, h in enumerate(header) if h.startswith("chosen")]
        for row in rows:
            tally.check(sum(row[j] for j in chosen) == size.choice_validation,
                        "confusion matrix row count")
        raw = _columns(_tagged(tag.MODEL_CHOICE_VALIDATION))
        total = sum(v for name, v in raw.items() if name.startswith("pABC"))
        tally.check(np.all(np.abs(total - 1) < 1e-4),
                    "validation model probabilities do not sum to 1")


def _check_validation(path: Path, tally: Tally) -> None:
    cols = _columns(path)
    for name in inputs.PARAM_NAMES:
        for kind in ("quantile", "HDI"):
            v = cols[f"{name}_{kind}"]
            tally.check(np.all((v >= 0) & (v <= 1 + WRITTEN_RTOL)),
                        f"{path.name}: {name}_{kind} outside [0, 1]")


def check_simulate(size: SimulateSize, log: LogTap, tally: Tally) -> None:
    std = _columns(Path("std_sampling1.txt"))
    tally.check(len(std["mu"]) == size.num_sims,
                f"standard run wrote {len(std['mu'])} of {size.num_sims} rows")
    _within_prior(std, tally, "standard run")
    products = 0
    for name, values in std.items():
        if "_X_" in name:
            a, b = name.split("_X_")
            tally.check(np.allclose(values, std[a] * std[b], rtol=WRITTEN_RTOL,
                                    atol=0),
                        f"boosted column {name} is not {a} * {b}")
            products += 1
    n_stats = len(inputs.STAT_NAMES)
    tally.check(products == n_stats * (n_stats + 1) // 2,
                f"{products} boosted columns")
    comb_rows = Path("lincomb.txt").read_text().split("\n")
    tally.check(sum(bool(r) for r in comb_rows) == n_stats + products,
                "linear-combination definition row count")
    chain = _columns(Path("mcmc_sampling1.txt"))
    expected = size.chain_steps - int(size.chain_steps * 0.1)
    tally.check(len(chain["mu"]) == expected,
                f"chain wrote {len(chain['mu'])} of {expected} states")
    _within_prior(chain, tally, "chain")
    chains = log.args_of("chain of %d steps, acceptance rate %.4g, "
                         "tolerance %.6g")
    tally.check(len(chains) == 1 and chains[0][0] == size.chain_steps
                and chains[0][1] > 0,
                f"chain steps and acceptance rate as logged: {chains}")
    # each standard run (the sampler's and the calibration) logs its draws
    runs = log.args_of("performed %d simulation(s), %d failure(s)")
    tally.check(len(runs) == 2, f"{len(runs)} standard runs logged")
    for kept, failed in runs:
        tally.ops(kept + failed, failed, "simulation draws skipped")


def check_findstats(size: FindStatsSize, tally: Tally) -> None:
    header, rows = read_written(_tagged(tableio.OutputTag.GREEDY_SEARCH))
    power = np.array([row[header.index("power")] for row in rows])
    tally.check(len(rows) == len(inputs.STAT_NAMES),
                f"greedy search scored {len(rows)} subsets")
    tally.check(np.all((power >= 0) & (power <= 1)),
                "greedy search power outside [0, 1]")
    tally.add("subsets", len(rows))


def check(size, manifest, result, log: LogTap, tally: Tally) -> None:
    if isinstance(size, EstimateSize):
        check_estimate(size, manifest, result, tally)
    elif isinstance(size, SimulateSize):
        check_simulate(size, log, tally)
    else:
        check_findstats(size, tally)
