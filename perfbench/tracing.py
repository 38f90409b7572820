"""Outside-in tracing of ``abckit``: spans and counters recorded by
wrappers around the program's public functions.

The program is not changed.  :meth:`Recorder.install` replaces each traced
function in every ``abckit.*`` namespace that binds it (``cli`` imports
``read_table`` by name, ``validation.retain`` is ``rejection.retain``), so
calls made inside the program are seen too.  Each call records a span:
name, start, end, parent span and the run id.  Spans stay in memory until
the run ends.  A span's self time is its duration minus the durations of
its direct children; calls are nested on one thread, so children never
overlap.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _read_table(c, args, kwargs, result):
    c["rows"] += result.n_rows
    c["mb"] += os.path.getsize(_arg(args, kwargs, 0, "path")) / 1e6


def _write_table(c, args, kwargs, result):
    c["rows"] += _arg(args, kwargs, 1, "table").n_rows


def _write_tagged(c, args, kwargs, result):
    c["files"] += 1


def _retain(c, args, kwargs, result):
    c["rows_scanned"] += _arg(args, kwargs, 0, "table").n_rows
    c["rows_kept"] += result.n


def _joint_posterior(c, args, kwargs, result):
    c["grid_points"] += result.density.size


def _cross_validate(c, args, kwargs, result):
    c["replicates"] += len(result)
    c["failed"] += sum(row.error is not None for row in result)


def _model_choice_validate(c, args, kwargs, result):
    c["queries"] += len(result[1])


def _run_standard(c, args, kwargs, result):
    c["draws"] += result.attempts
    c["failures"] += result.failures


def _run_mcmc(c, args, kwargs, result):
    c["steps"] += result.steps
    c["accepted"] += result.acceptance_rate * result.steps


def _greedy_search(c, args, kwargs, result):
    c["subsets"] += len(result)


# Every public module-level function a workload calls, except per-cell
# and per-file helpers too small to time (format_value, tagged_filename,
# parse_param_spec, parse_est_file, the *_table payload builders) and
# cli.dispatch, which only sits between cli.main and the task.
TRACED = {
    "tableio.read_table": _read_table,
    "tableio.read_observed": None,
    "tableio.write_table": _write_table,
    "tableio.write_tagged": _write_tagged,
    "priors.sample": None,
    "priors.log_prior_density": None,
    "models.simulate_toy": None,
    "models.toy_stats": None,
    "orchestrate.run_standard": _run_standard,
    "orchestrate.calibrate": None,
    "orchestrate.run_mcmc": _run_mcmc,
    "rejection.retain": _retain,
    "adjust.glm_fit": None,
    "adjust.glm_posterior": None,
    "adjust.joint_posterior": _joint_posterior,
    "adjust.glm_log_marginal_density": None,
    "adjust.glm_log_marginal_densities": None,
    "modelchoice.glm_model_choice": None,
    "modelchoice.write_model_fit": None,
    "validation.fit_pvalues": None,
    "validation.marginal_density_pvalue": None,
    "validation.tukey_pvalue": None,
    "validation.tukey_depth": None,
    "validation.cross_validate": _cross_validate,
    "validation.coverage_tests": None,
    "validation.model_choice_validate": _model_choice_validate,
    "statselect.boost": None,
    "statselect.boost_observed": None,
    "statselect.transform": None,
    "statselect.fit_boxcox": None,
    "statselect.fit_pls": None,
    "statselect.greedy_search": _greedy_search,
    "statselect.subset_power": None,
    "cli.main": None,
}

# counters reported per function, with the unit of each
COUNTERS = {
    "tableio.read_table": {"rows": "count", "mb": "MB"},
    "tableio.write_table": {"rows": "count"},
    "tableio.write_tagged": {"files": "count"},
    "rejection.retain": {"rows_scanned": "count", "kept_frac": "ratio"},
    "adjust.joint_posterior": {"grid_points": "count"},
    "validation.cross_validate": {"replicates": "count", "failed": "count"},
    "validation.model_choice_validate": {"queries": "count"},
    "orchestrate.run_standard": {"draws": "count", "failures": "count"},
    "orchestrate.run_mcmc": {"steps": "count", "acceptance_rate": "ratio"},
    "statselect.greedy_search": {"subsets": "count"},
}


def _ratio(part, whole):
    return part / whole if whole else 0.0


class Recorder:
    """Spans and counters of one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []           # (name, start, end, parent)
        self.stack: list[int] = []
        self.counters = {name: defaultdict(float) for name in COUNTERS}

    def wrap(self, name, fn, count):
        spans, stack = self.spans, self.stack
        counters = self.counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid] = (name, start, time.perf_counter(), parent)
                stack.pop()
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever an ``abckit`` module binds
        it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "abckit" or n.startswith("abckit."))]
        for name, count in TRACED.items():
            module, func = name.split(".")
            original = getattr(sys.modules[f"abckit.{module}"], func)
            wrapper = self.wrap(name, original, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (name, start, end, parent) in enumerate(self.spans)]

    def layer_metrics(self) -> dict[str, float]:
        """``calls``, ``s`` and ``self_s`` of every traced function, plus
        the counters; functions never called report zeros."""
        out = {}
        for name in TRACED:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for (name, start, end, _), self_s in zip(self.spans, self.self_times()):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += self_s
        for name, units in COUNTERS.items():
            c = self.counters[name]
            for key in units:
                if key == "kept_frac":
                    value = _ratio(c["rows_kept"], c["rows_scanned"])
                elif key == "acceptance_rate":
                    value = _ratio(c["accepted"], c["steps"])
                else:
                    value = c[key]
                out[f"{name}.{key}"] = value
        return out

    def write(self, path) -> None:
        """Write the spans, one per line: run id, span id, parent, name,
        start and end in seconds."""
        with open(path, "w") as fh:
            fh.write("run\tspan\tparent\tname\tstart\tend\n")
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{self.run_id}\t{sid}\t{parent}\t{name}\t"
                         f"{start:.9f}\t{end:.9f}\n")
