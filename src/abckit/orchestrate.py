"""Driving simulators: prior (standard) sampling and a likelihood-free
MCMC sampler with a calibration phase.

A :class:`SimulatorBinding` describes how one simulation is produced:

* ``builtin``: an in-process model registered in :mod:`abckit.models`;
* ``exec-args``: an executable whose command line contains parameter-name
  tokens that are replaced by the drawn values;
* ``exec-files``: like exec-args, but a template input file is additionally
  rendered (parameter tokens substituted) and saved next to the run; the
  token ``SIMINPUTNAME`` refers to the rendered file, whose name is the
  template name with ``-temp`` inserted before the extension;
* ``easyabc``: an executable that reads a file ``input`` (one parameter
  value per line) and writes a file ``output`` (statistic values only,
  named ``stat_1`` to ``stat_k``).

An optional post-processor runs after every simulation, e.g. to turn raw
simulator output into a statistics file.  Statistics are read from a
header + values file (default ``summary_stats-temp.txt``).  Each run works
inside a private scratch directory so fixed filenames cannot collide.

Seed rule.  A sampler derives its own generators from the one it is given
(``Generator.spawn``), each consumed in a fixed order:

* :func:`run_standard` spawns three: the prior draws (rows of uniforms,
  see :mod:`abckit.priors`), the simulator noise of each draw's first
  attempt, and the noise of retries.  A builtin model with a batch
  function simulates ``SIM_BLOCK`` draws per call and reads the noise
  row-major, so the noise of draw *i* is what a call for it alone would
  read; draws are taken in order and retries in the order of the draws
  that failed.  The table therefore does not depend on the block size.
* :func:`calibrate` runs :func:`run_standard` on the generator it is given
  and draws a random starting point from that generator itself.
* :func:`run_mcmc` calibrates first (unless given a calibration), then
  spawns three more: the chain's proposals and acceptance tests, the
  simulator noise and the retries.
"""

from __future__ import annotations

import logging
import math
import os
import re
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericalError, SimulatorError, TableFormatError
from .models import BUILTIN_MODELS
from .priors import (EstModel, complete_draw, complete_rows,
                     log_prior_density, sample_rows)
from .rejection import RetainedSet, retain
from .statselect import LinearCombDef, StatMap
from .tableio import ObservedStats, SimulationTable

log = logging.getLogger(__name__)

__all__ = [
    "SimulatorBinding", "SimulationRun", "McmcConfig", "Calibration",
    "McmcRun", "run_standard", "calibrate", "run_mcmc",
]

SIMINPUT_TOKEN = "SIMINPUTNAME"
DEFAULT_STATS_FILE = "summary_stats-temp.txt"
# draws per call of a builtin model's batch function
SIM_BLOCK = 256
# seconds an external simulator or post-processor may run
SIM_TIMEOUT = 300.0
_NON_FINITE = "produced non-finite statistics"


def _fmt_param(v: float) -> str:
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return format(float(v), ".12g")


def _substitute(text: str, values: dict[str, str]) -> str:
    if not values:
        return text
    names = sorted(values, key=len, reverse=True)
    pattern = re.compile("|".join(re.escape(n) for n in names))
    return pattern.sub(lambda m: values[m.group(0)], text)


@dataclass(frozen=True)
class SimulatorBinding:
    """How to produce one simulation and collect its statistics."""

    mode: str                      # builtin | exec-args | exec-files | easyabc
    program: str = ""
    sim_args: str = ""
    input_template: str | None = None
    sum_stat_program: str | None = None
    sum_stat_args: str = ""
    stats_file: str = DEFAULT_STATS_FILE

    @classmethod
    def builtin(cls, name: str) -> "SimulatorBinding":
        if name not in BUILTIN_MODELS:
            raise SimulatorError(
                f"no builtin model {name!r}; available: "
                + ", ".join(sorted(BUILTIN_MODELS)))
        return cls("builtin", program=name)

    @classmethod
    def exec_args(cls, program, sim_args="", **kw) -> "SimulatorBinding":
        return cls("exec-args", program=str(program), sim_args=sim_args, **kw)

    @classmethod
    def exec_files(cls, program, input_template, sim_args="", **kw) -> "SimulatorBinding":
        return cls("exec-files", program=str(program), sim_args=sim_args,
                   input_template=str(input_template), **kw)

    @classmethod
    def easyabc(cls, program) -> "SimulatorBinding":
        return cls("easyabc", program=str(program))

    def validate(self) -> None:
        if self.mode == "builtin":
            if self.program not in BUILTIN_MODELS:
                raise SimulatorError(f"unknown builtin model {self.program!r}")
            return
        prog = Path(self.program)
        if not prog.exists() or not os.access(prog, os.X_OK):
            raise SimulatorError(f"simulator {self.program!r} is not an "
                                 "executable file")
        if self.mode == "exec-files":
            if not self.input_template or not Path(self.input_template).exists():
                raise SimulatorError(
                    f"input template {self.input_template!r} not found")
        if self.sum_stat_program is not None:
            p = Path(self.sum_stat_program)
            if not p.exists() or not os.access(p, os.X_OK):
                raise SimulatorError(
                    f"post-processor {self.sum_stat_program!r} is not an "
                    "executable file")


def _rendered_input_name(template: str) -> str:
    t = Path(template)
    return t.stem + "-temp" + t.suffix


class _Runner:
    """Executes a binding inside one scratch directory."""

    def __init__(self, binding: SimulatorBinding):
        binding.validate()
        self.binding = binding
        self.scratch = None
        self.template_text = None
        if binding.mode != "builtin":
            self.scratch = Path(tempfile.mkdtemp(prefix="abck-sim-"))
            self.program = str(Path(binding.program).resolve())
            if binding.sum_stat_program:
                self.post = str(Path(binding.sum_stat_program).resolve())
            else:
                self.post = None
            if binding.mode == "exec-files":
                self.template_text = Path(binding.input_template).read_text()
                self.rendered_name = _rendered_input_name(binding.input_template)

    def close(self):
        if self.scratch is not None:
            shutil.rmtree(self.scratch, ignore_errors=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _run(self, argv):
        try:
            proc = subprocess.run(argv, cwd=self.scratch, capture_output=True,
                                  text=True, timeout=SIM_TIMEOUT)
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise SimulatorError(f"failed to run {argv[0]}: {exc}") from None
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout or "").strip().splitlines()[-3:]
            raise SimulatorError(
                f"{argv[0]} exited with {proc.returncode}: " + " | ".join(tail))

    def _read_stats(self, path: Path):
        if not path.exists():
            raise SimulatorError(f"statistics file {path.name} was not produced")
        lines = [l.split() for l in path.read_text().splitlines() if l.strip()]
        binding = self.binding
        try:
            if binding.mode == "easyabc":
                values = [float(v) for v in lines[0]]
                names = tuple(f"stat_{i + 1}" for i in range(len(values)))
            else:
                if len(lines) < 2:
                    raise SimulatorError(
                        f"statistics file {path.name} needs a header and a "
                        "value line")
                names = tuple(lines[0])
                values = [float(v) for v in lines[1]]
        except ValueError as exc:
            raise SimulatorError(
                f"non-numeric statistic in {path.name}: {exc}") from None
        if len(names) != len(values):
            raise SimulatorError(
                f"{path.name}: {len(names)} names but {len(values)} values")
        return tuple(names), np.array(values)

    def simulate(self, draw: dict, rng) -> tuple[tuple[str, ...], np.ndarray]:
        binding = self.binding
        if binding.mode == "builtin":
            names, values = BUILTIN_MODELS[binding.program](draw, rng)
            values = np.asarray(values, dtype=float)
            if not np.isfinite(values).all():
                raise SimulatorError(f"builtin model {binding.program} "
                                     f"{_NON_FINITE}")
            return tuple(names), values

        subs = {name: _fmt_param(v) for name, v in draw.items()}
        if binding.mode == "exec-files":
            rendered = _substitute(self.template_text, subs)
            (self.scratch / self.rendered_name).write_text(rendered)
            subs[SIMINPUT_TOKEN] = self.rendered_name
        if binding.mode == "easyabc":
            lines = [_fmt_param(v) for v in draw.values()]
            (self.scratch / "input").write_text("\n".join(lines) + "\n")
            argv = [self.program]
        else:
            argv = [self.program] + [
                _substitute(tok, subs) for tok in binding.sim_args.split()]
        self._run(argv)
        if self.post is not None:
            post_argv = [self.post] + [
                _substitute(tok, subs) for tok in binding.sum_stat_args.split()]
            self._run(post_argv)
        stats_name = "output" if binding.mode == "easyabc" else binding.stats_file
        return self._read_stats(self.scratch / stats_name)

    def simulate_with_retry(self, draw: dict, rng, retry_rng,
                            on_failure: str):
        """:meth:`simulate`, retried once with the same parameters and noise
        from ``retry_rng``; ``None`` (and a warning ending in
        ``on_failure``) if both attempts fail."""
        try:
            return self.simulate(draw, rng)
        except SimulatorError as exc:
            return self._retry(draw, retry_rng, on_failure, exc)

    def _retry(self, draw: dict, retry_rng, on_failure: str, exc):
        log.debug("simulation failed, retrying once: %s", exc)
        try:
            return self.simulate(draw, retry_rng)
        except SimulatorError as exc:
            log.warning("simulation failed twice, %s: %s", on_failure, exc)
            return None

    def simulate_rows(self, est: EstModel, values: np.ndarray, rng, retry_rng,
                      on_failure: str):
        """Simulate each row of ``values`` (columns ``est.all_names``) as
        :meth:`simulate_with_retry` does.  Returns the statistic names
        (``None`` if every row failed), a statistics matrix and the mask of
        the rows that succeeded.  A builtin with a batch function simulates
        all rows in one call; any other binding goes row by row."""
        batch = None
        if self.binding.mode == "builtin":
            batch = getattr(BUILTIN_MODELS[self.binding.program], "batch", None)
        if batch is None:
            return self._simulate_each(est, values, rng, retry_rng, on_failure)
        stat_names, stats = batch(est.all_names, values, rng)
        stats = np.asarray(stats, dtype=float)
        ok = np.isfinite(stats).all(axis=1)
        problem = f"builtin model {self.binding.program} {_NON_FINITE}"
        for i in np.flatnonzero(~ok):
            draw = dict(zip(est.all_names, values[i].tolist()))
            result = self._retry(draw, retry_rng, on_failure, problem)
            if result is not None:
                stats[i], ok[i] = result[1], True
        return tuple(stat_names), stats, ok

    def _simulate_each(self, est, values, rng, retry_rng, on_failure):
        stat_names, rows = None, []
        ok = np.zeros(len(values), dtype=bool)
        for i, row in enumerate(values.tolist()):
            draw = dict(zip(est.all_names, row))
            result = self.simulate_with_retry(draw, rng, retry_rng, on_failure)
            if result is None:
                continue
            stat_names = _same_header(stat_names, result[0])
            rows.append(result[1])
            ok[i] = True
        stats = np.zeros((len(values), len(stat_names or ())))
        if rows:
            stats[ok] = rows
        return stat_names, stats, ok


def _same_header(known, names):
    if known is not None and names != known:
        raise SimulatorError("statistics header changed between simulations "
                             f"({known} -> {names})")
    return names


@dataclass(frozen=True)
class SimulationRun:
    """Outcome of a standard sampling run; ``table.n_rows + failures``
    equals ``attempts``."""

    table: SimulationTable
    attempts: int
    failures: int


def run_standard(est: EstModel, binding: SimulatorBinding, n_sims: int,
                 rng=None, record: str = "output") -> SimulationRun:
    """Simulate ``n_sims`` draws from the prior, in blocks of
    ``SIM_BLOCK`` draws (see the seed rule in the module docstring).

    Each failed simulation is retried once with the same parameters, then
    logged and skipped.  ``record`` selects which parameters become table
    columns: the output-flagged ones (default) or ``"all"`` declared names.
    """
    rng = np.random.default_rng(rng)
    if n_sims <= 0:
        raise ValueError("n_sims must be positive")
    prior_rng, noise_rng, retry_rng = rng.spawn(3)
    param_names = est.all_names if record == "all" else est.output_names
    param_cols = [est.all_names.index(n) for n in param_names]
    blocks = []
    stat_names = None
    failures = 0
    with _Runner(binding) as runner:
        for start in range(0, n_sims, SIM_BLOCK):
            raw = sample_rows(est, prior_rng, min(SIM_BLOCK, n_sims - start))
            values = complete_rows(est, raw)
            names, stats, ok = runner.simulate_rows(est, values, noise_rng,
                                                    retry_rng, "skipping draw")
            failures += int(np.count_nonzero(~ok))
            if names is None:
                continue
            stat_names = _same_header(stat_names, names)
            blocks.append(np.hstack([values[ok][:, param_cols], stats[ok]]))
    if stat_names is None:
        raise SimulatorError("every simulation failed; nothing to report")
    log.info("performed %d simulation(s), %d failure(s)", n_sims - failures,
             failures)
    names = tuple(param_names) + stat_names
    table = SimulationTable(names, np.concatenate(blocks),
                            tuple(range(len(param_names))),
                            tuple(range(len(param_names), len(names))))
    return SimulationRun(table, n_sims, failures)


# ---------------------------------------------------------------------------
# MCMC with calibration


@dataclass(frozen=True)
class McmcConfig:
    n_calibration: int = 1000
    threshold_prop: float = 0.1
    range_prop: float = 1.0
    starting_point: str = "best"      # best | random
    chain_length: int = 10_000
    sampling_interval: int = 1
    burn_in_frac: float = 0.1
    lincomb: LinearCombDef | None = None
    do_boxcox: bool = True
    do_boosting: bool = False

    def __post_init__(self):
        # every message names the fields it checks
        if self.n_calibration < 100:
            raise ValueError(f"n_calibration must be at least 100, got "
                             f"{self.n_calibration}")
        if not 0 < self.threshold_prop < 1:
            raise ValueError(f"threshold_prop must be in (0, 1), got "
                             f"{self.threshold_prop}")
        if math.ceil(self.threshold_prop * self.n_calibration) < 10:
            raise ValueError("threshold_prop * n_calibration would retain "
                             "fewer than 10 calibration points")
        if self.range_prop <= 0:
            raise ValueError(f"range_prop must be positive, got "
                             f"{self.range_prop}")
        if self.starting_point not in ("best", "random"):
            raise ValueError(f"starting_point must be 'best' or 'random', "
                             f"got {self.starting_point!r}")
        if self.chain_length < 1:
            raise ValueError(f"chain_length must be >= 1, got "
                             f"{self.chain_length}")
        if self.sampling_interval < 1:
            raise ValueError(f"sampling_interval must be >= 1, got "
                             f"{self.sampling_interval}")
        if not 0 <= self.burn_in_frac < 1:
            raise ValueError(f"burn_in_frac must be in [0, 1), got "
                             f"{self.burn_in_frac}")


@dataclass(frozen=True)
class Calibration:
    """Tuning derived from prior simulations: the distance threshold,
    per-parameter proposal widths, the starting state, and the statistic
    map fixed for the chain: ``stat_map`` takes the raw simulated
    statistics to ``retained.stat_names``, whose standardizer gives the
    distance."""

    epsilon: float
    widths: np.ndarray                   # per raw prior parameter
    start_raw: dict[str, float]
    start_stats: np.ndarray              # raw simulator statistics
    start_distance: float                # distance() of start_stats
    retained: RetainedSet
    stat_map: StatMap
    table: SimulationTable

    @property
    def sim_stat_names(self) -> tuple[str, ...]:
        return self.stat_map.names

    def distance(self, values) -> float:
        """Distance of one simulated statistics vector (in
        ``sim_stat_names`` order) to the observation; the vector is
        mapped as a one-row matrix, as the observation was."""
        return _chain_distance(self.stat_map, self.retained, values)


def _chain_distance(stat_map: StatMap, retained: RetainedSet, values) -> float:
    x = np.asarray(values, dtype=float)[None, :]
    z = retained.standardizer.transform(stat_map(x)[0])
    return float(np.linalg.norm(z - retained.obs_std))


def calibrate(est: EstModel, binding: SimulatorBinding, obs: ObservedStats,
              cfg: McmcConfig, rng=None) -> Calibration:
    """Prior pre-simulation phase: fixes the tolerance (the distance of the
    ceil(threshold_prop * n)-th nearest calibration point), the proposal
    widths (range_prop times the retained parameter standard deviations),
    and the starting state (nearest retained point, or a random one)."""
    rng = np.random.default_rng(rng)
    run = run_standard(est, binding, cfg.n_calibration, rng, record="all")
    if run.failures:
        log.warning("%d calibration simulation(s) failed", run.failures)
    table = run.table
    sim_stat_names = table.stat_names
    chain = dict(boosting=cfg.do_boosting, comb=cfg.lincomb,
                 apply_boxcox=cfg.do_boxcox)
    ttable = StatMap(table.names, stat_idx=table.stat_idx, **chain).table(table)
    # boosted products are named in the simulator's column order
    rank = {n: i for i, n in enumerate(sim_stat_names)}
    names = sorted(obs.names, key=lambda n: rank.get(n, len(rank)))
    tobs = StatMap(names, source="observation", **chain).observation(
        ObservedStats(names, obs.vector(names)))
    k = math.ceil(cfg.threshold_prop * ttable.n_rows)
    retained = retain(ttable, tobs, count=k)
    epsilon = retained.epsilon

    prior_names = est.prior_names
    col = {n: j for j, n in enumerate(retained.param_names)}
    widths = np.array([cfg.range_prop * retained.params[:, col[n]].std(ddof=0)
                       for n in prior_names])

    strict = np.nonzero(retained.distances < epsilon)[0]
    if strict.size == 0:
        raise NumericalError("all retained calibration points sit exactly at "
                             "the tolerance; cannot pick a starting state")
    if cfg.starting_point == "best":
        pick = int(retained.indices[0])
    else:
        pick = int(retained.indices[rng.choice(strict)])
    start_raw = {n: float(table.values[pick, col[n]]) for n in prior_names}
    start_stats = table.stat_matrix(sim_stat_names)[pick]
    stat_map = StatMap(sim_stat_names, **chain).select(retained.stat_names)
    # the distance every step computes, not the retention's batched one,
    # which can differ in the last bits
    start_distance = _chain_distance(stat_map, retained, start_stats)
    return Calibration(epsilon, widths, start_raw, start_stats, start_distance,
                       retained, stat_map, table)


def _reflect(x: float, lo: float, hi: float) -> float:
    span = hi - lo
    if span <= 0:
        return lo
    t = (x - lo) % (2.0 * span)
    if t > span:
        t = 2.0 * span - t
    return lo + t


def _lattice_step(x: float, w: float, lo: float, hi: float, rng) -> float:
    """Random-walk proposal of an integer parameter: a step of 1 to
    ``max(1, int(w))`` units either way, each equally likely, reflected on
    the integers in ``[lo, hi]``.  The mirrors sit half a unit beyond the
    end points (a step from ``lo`` to ``lo - 1`` stays at ``lo``), which
    makes the proposal symmetric on the lattice, its ends included."""
    first = math.ceil(lo)
    size = math.floor(hi) - first + 1
    if size < 2:
        return x
    reach = max(1, int(w))
    step = int(rng.integers(-reach, reach))
    step += step >= 0
    k = (int(x) - first + step) % (2 * size)
    if k >= size:
        k = 2 * size - 1 - k
    return float(first + k)


@dataclass(frozen=True)
class McmcRun:
    table: SimulationTable
    acceptance_rate: float
    epsilon: float
    steps: int
    calibration: Calibration
    outside_domain: int         # proposals rejected by the Box-Cox domain


def run_mcmc(est: EstModel, binding: SimulatorBinding, obs: ObservedStats,
             cfg: McmcConfig, rng=None, calibration: Calibration | None = None
             ) -> McmcRun:
    """Likelihood-free MCMC: a classic random walk whose likelihood ratio
    is replaced by the indicator of the simulated statistics landing within
    the calibrated tolerance of the observation.

    Proposals perturb each raw parameter by a uniform step reflected at the
    prior bounds, an integer parameter by a uniform integer step reflected
    on the integers within them (both symmetric, so only the prior ratio
    enters the acceptance test); draws violating a rule are rejected
    outright, and so are simulations with a statistic outside the domain
    of the calibration's Box-Cox transform (counted in
    ``outside_domain``).  The chain state (the output values of its draw,
    taken when it was accepted, its statistics and distance) is recorded
    every ``sampling_interval`` steps; the first ``burn_in_frac`` of the
    records is discarded.
    """
    rng = np.random.default_rng(rng)
    cal = calibration if calibration is not None else calibrate(
        est, binding, obs, cfg, rng)
    chain_rng, noise_rng, retry_rng = rng.spawn(3)
    prior_names = est.prior_names

    raw = dict(cal.start_raw)
    draw = complete_draw(est, raw)
    out = np.array([draw[n] for n in est.output_names])
    stats = np.asarray(cal.start_stats, dtype=float)
    dist = cal.start_distance
    log_prior = log_prior_density(est, raw)

    records = []
    accepted = 0
    outside_domain = 0
    checked_early = False
    with _Runner(binding) as runner:
        for step in range(1, cfg.chain_length + 1):
            proposal = {}
            for j, name in enumerate(prior_names):
                spec = est.priors[j]
                lo, hi = spec.bounds
                w = cal.widths[j]
                x = raw[name]
                if w > 0 and hi > lo:
                    if spec.integer:
                        x = _lattice_step(x, w, lo, hi, chain_rng)
                    else:
                        x = _reflect(x + chain_rng.uniform(-w, w), lo, hi)
                proposal[name] = x
            if all(rule.holds(proposal) for rule in est.rules):
                draw = complete_draw(est, proposal)
                result = runner.simulate_with_retry(
                    draw, noise_rng, retry_rng, "rejecting the proposal")
                if result is not None:
                    names, values = result
                    if tuple(names) != cal.sim_stat_names:
                        raise SimulatorError(
                            "statistics header changed during the chain")
                    try:
                        new_dist = cal.distance(values)
                    except TableFormatError as exc:
                        # the header matches the calibration's, so only a
                        # value outside the Box-Cox domain lands here
                        log.debug("proposal rejected: %s", exc)
                        outside_domain += 1
                        new_dist = math.inf
                    new_log_prior = log_prior_density(est, proposal)
                    if (new_dist < cal.epsilon
                            and math.log(chain_rng.uniform())
                            < new_log_prior - log_prior):
                        raw, stats, dist = proposal, values, new_dist
                        out = np.array([draw[n] for n in est.output_names])
                        log_prior = new_log_prior
                        accepted += 1
            if step % cfg.sampling_interval == 0:
                records.append(np.concatenate([out, stats, [dist]]))
            if not checked_early and step >= min(1000, cfg.chain_length):
                checked_early = True
                if accepted / step < 0.001:
                    raise NumericalError(
                        f"acceptance rate {accepted}/{step} below 0.1% over "
                        "the first steps; recalibrate with a larger tolerance")

    burn = int(len(records) * cfg.burn_in_frac)
    kept = records[burn:]
    if not kept:
        raise NumericalError("no recorded samples after burn-in")
    names = est.output_names + cal.sim_stat_names + ("distance",)
    table = SimulationTable(names, np.array(kept),
                            tuple(range(len(est.output_names))),
                            tuple(range(len(est.output_names),
                                        len(names) - 1)))
    log.info("%d proposal(s) rejected outside the transform domain",
             outside_domain)
    return McmcRun(table, accepted / cfg.chain_length, cal.epsilon,
                   cfg.chain_length, cal, outside_domain)
