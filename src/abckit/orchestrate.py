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

Failure rule.  Whatever the binding, a simulation fails when the simulator
raises or exits non-zero, leaves no statistics file, or gives a non-finite
statistic.  Only the statistics file is removed before each external run,
so a run that writes none cannot pass off the previous run's; the rest of
the scratch directory is kept (Hudson's ``ms`` keeps its ``seedms`` there).
A failed simulation is retried once with the same parameters, then skipped
by the standard sampler or rejected by the chain, with a warning.  Header
rule: the first success fixes the statistic names (the chain takes its
calibration's); other names abort the run with :class:`SimulatorError`.

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
from .tableio import ObservedStats, SimulationTable, in_table_order

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


def _executable(path: str, role: str) -> str:
    p = Path(path)
    if not p.is_file() or not os.access(p, os.X_OK):
        raise SimulatorError(f"{role} {path!r} is not an executable file")
    return str(p.resolve())


class _Runner:
    """Runs one binding's simulations by the failure and header rules of
    the module docstring; the binding is checked here, next to the paths
    the checks guard.  :meth:`_attempt` removes the statistics file it will
    read, runs once and raises :class:`SimulatorError` on a failure;
    :meth:`simulate` retries once.  ``stat_names`` is set by the first
    success, or given (the chain's are its calibration's); a success with
    other names raises :class:`SimulatorError`."""

    def __init__(self, binding: SimulatorBinding,
                 stat_names: tuple[str, ...] | None = None):
        self.binding = binding
        self.stat_names = stat_names
        self.model = None
        self.scratch = None
        if binding.mode == "builtin":
            self.model = BUILTIN_MODELS.get(binding.program)
            if self.model is None:
                raise SimulatorError(
                    f"no builtin model {binding.program!r}; available: "
                    + ", ".join(sorted(BUILTIN_MODELS)))
            return
        self.program = _executable(binding.program, "simulator")
        self.post = binding.sum_stat_program and _executable(
            binding.sum_stat_program, "post-processor")
        if binding.mode == "exec-files":
            template = Path(binding.input_template or "")
            if not template.is_file():
                raise SimulatorError(
                    f"input template {binding.input_template!r} not found")
            self.template_text = template.read_text()
            self.rendered_name = template.stem + "-temp" + template.suffix
        self.stats_name = ("output" if binding.mode == "easyabc"
                           else binding.stats_file)
        self.scratch = Path(tempfile.mkdtemp(prefix="abck-sim-"))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.scratch is not None:
            shutil.rmtree(self.scratch, ignore_errors=True)

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

    def _run_external(self, draw: dict):
        binding = self.binding
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
        path = self.scratch / self.stats_name
        path.unlink(missing_ok=True)
        self._run(argv)
        if self.post:
            self._run([self.post] + [
                _substitute(tok, subs) for tok in binding.sum_stat_args.split()])
        if not path.exists():
            raise SimulatorError(f"statistics file {path.name} was not produced")
        lines = [l.split() for l in path.read_text().splitlines() if l.strip()]
        if binding.mode == "easyabc" and lines:      # values only
            lines.insert(0, [f"stat_{i + 1}" for i in range(len(lines[0]))])
        if len(lines) < 2:
            raise SimulatorError(f"statistics file {path.name} has no value "
                                 "line")
        try:
            values = [float(v) for v in lines[1]]
        except ValueError as exc:
            raise SimulatorError(
                f"non-numeric statistic in {path.name}: {exc}") from None
        if len(lines[0]) != len(values):
            raise SimulatorError(f"{path.name}: {len(lines[0])} names but "
                                 f"{len(values)} values")
        return lines[0], values

    def _attempt(self, draw: dict, rng):
        """One simulation of ``draw``: its statistic names and values, or
        :class:`SimulatorError` by the failure rule."""
        if self.model is not None:
            names, values = self.model(draw, rng)
        else:
            names, values = self._run_external(draw)
        values = np.asarray(values, dtype=float)
        if not np.isfinite(values).all():
            raise SimulatorError(f"simulator {self.binding.program!r} "
                                 "produced non-finite statistics")
        return tuple(names), values

    def _check_header(self, names: tuple[str, ...]) -> None:
        if self.stat_names is None:
            self.stat_names = names
        elif names != self.stat_names:
            raise SimulatorError("statistics header changed between simulations "
                                 f"({self.stat_names} -> {names})")

    def simulate(self, draw: dict, rng, retry_rng, on_failure: str):
        """The statistics of ``draw`` (in ``stat_names`` order): an attempt
        on ``rng``, retried once with noise from ``retry_rng``; ``None``,
        after a warning ending in ``on_failure``, if both fail."""
        try:
            names, values = self._attempt(draw, rng)
        except SimulatorError as exc:
            return self._retry(draw, retry_rng, on_failure, exc)
        self._check_header(names)
        return values

    def _retry(self, draw: dict, retry_rng, on_failure: str, exc):
        log.debug("simulation failed, retrying once: %s", exc)
        try:
            names, values = self._attempt(draw, retry_rng)
        except SimulatorError as exc:
            log.warning("simulation failed twice, %s: %s", on_failure, exc)
            return None
        self._check_header(names)
        return values

    def simulate_rows(self, names, values: np.ndarray, rng, retry_rng,
                      on_failure: str):
        """Simulate each row of ``values`` (columns ``names``) as
        :meth:`simulate` does.  Returns a statistics matrix (columns
        ``stat_names``) and the mask of the rows that succeeded.  A builtin
        with a batch function simulates all rows in one call, then the rows
        with a non-finite statistic are retried in order; any other binding
        goes row by row."""
        batch = getattr(self.model, "batch", None)
        if batch is None:
            rows = [self.simulate(dict(zip(names, row)), rng, retry_rng,
                                  on_failure) for row in values.tolist()]
            ok = np.array([r is not None for r in rows], dtype=bool)
            stats = np.zeros((len(rows), len(self.stat_names or ())))
            if ok.any():
                stats[ok] = [r for r in rows if r is not None]
            return stats, ok
        stat_names, stats = batch(names, values, rng)
        stats = np.asarray(stats, dtype=float)
        ok = np.isfinite(stats).all(axis=1)
        if ok.any():
            self._check_header(tuple(stat_names))
        for i in np.flatnonzero(~ok):
            draw = dict(zip(names, values[i].tolist()))
            result = self._retry(draw, retry_rng, on_failure,
                                 "non-finite statistics")
            if result is not None:
                stats[i], ok[i] = result, True
        return stats, ok


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
    failures = 0
    with _Runner(binding) as runner:
        for start in range(0, n_sims, SIM_BLOCK):
            raw = sample_rows(est, prior_rng, min(SIM_BLOCK, n_sims - start))
            values = complete_rows(est, raw)
            stats, ok = runner.simulate_rows(est.all_names, values, noise_rng,
                                             retry_rng, "skipping draw")
            failures += int(np.count_nonzero(~ok))
            if ok.any():
                blocks.append(np.hstack([values[ok][:, param_cols],
                                         stats[ok]]))
    stat_names = runner.stat_names
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
    """Settings of :func:`calibrate` and :func:`run_mcmc`.  A ``ValueError``
    names the fields of the first rule broken: ``n_calibration >= 100``;
    ``0 < threshold_prop < 1``; ``threshold_prop * n_calibration > 9`` (the
    calibration keeps 10 points); ``range_prop`` finite and positive (or no
    proposal moves); ``starting_point`` ``best`` or ``random``; ``1 <=
    sampling_interval <= chain_length`` (a state is recorded); and
    ``0 <= burn_in_frac < 1`` (one outlasts the burn-in)."""

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
        for holds, message in (
                (self.n_calibration >= 100, "n_calibration must be at least "
                 f"100, got {self.n_calibration}"),
                (0 < self.threshold_prop < 1, "threshold_prop must be in "
                 f"(0, 1), got {self.threshold_prop}"),
                (self.threshold_prop * self.n_calibration > 9, "threshold_prop"
                 " * n_calibration would retain fewer than 10 points"),
                (0 < self.range_prop < math.inf, "range_prop must be finite "
                 f"and positive, got {self.range_prop}"),
                (self.starting_point in ("best", "random"), "starting_point "
                 f"must be 'best' or 'random', got {self.starting_point!r}"),
                (1 <= self.sampling_interval <= self.chain_length,
                 "sampling_interval must be at least 1 and at most "
                 f"chain_length ({self.chain_length}), got "
                 f"{self.sampling_interval}"),
                (0 <= self.burn_in_frac < 1, "burn_in_frac must be in "
                 f"[0, 1), got {self.burn_in_frac}")):
            if not holds:
                raise ValueError(message)


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
    and the starting state (nearest retained point, or a random one).  The
    chain reads the observed statistics in the simulator's column order
    (:func:`abckit.tableio.in_table_order`), whatever the observation's."""
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
    names = in_table_order(obs.names, sim_stat_names)
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
    start_stats = table.values[pick, list(table.stat_idx)]
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
    failed_simulations: int     # proposals whose simulation failed twice


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
    ``outside_domain``) and proposals whose simulation failed twice
    (counted in ``failed_simulations``).  The chain state (the output
    values of its draw, taken when it was accepted, its statistics and
    distance) is recorded every ``sampling_interval`` steps; the first
    ``burn_in_frac`` of the records is discarded.
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
    outside_domain = failed_simulations = 0
    checked_early = False
    with _Runner(binding, cal.sim_stat_names) as runner:
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
                values = runner.simulate(draw, noise_rng, retry_rng,
                                         "rejecting the proposal")
                if values is None:
                    failed_simulations += 1
                else:
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
    log.info("%d proposal(s) rejected after their simulation failed twice",
             failed_simulations)
    return McmcRun(table, accepted / cfg.chain_length, cal.epsilon,
                   cfg.chain_length, cal, outside_domain, failed_simulations)
