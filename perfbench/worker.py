"""Repetitions of one workload, each in a process forked from one that has
just imported ``abckit``.

Usage (from ``run.py``, with ``src`` of the checkout on ``PYTHONPATH``)::

    python3 perfbench/worker.py <workload> <size> <inputs dir> <seed> \
        <trace 0|1> <window end> <work dir> <result json>

The first thing it does is ``import abckit.cli``, timed: that is the set-up
every command line run pays.  It then forks one child per repetition until
``time.time()`` reaches the window end, so every repetition starts from the
state of a command line run that has just imported the program, without
paying the import again.  A child runs the workload in ``<work dir>/rep``, checks the
outputs and reports its measurements; with ``trace 1`` untraced and traced
children alternate.  BLAS must be limited to one thread by the environment:
the process forks, and may hold no other thread when it does.
"""

from __future__ import annotations

import time

_t0 = time.perf_counter()
import abckit.cli  # noqa: E402  (timed: the set-up of every run)
IMPORT_S = time.perf_counter() - _t0

import gc  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import sizes  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def reference_s() -> float:
    """Time of a fixed computation of the benchmark's own, about 0.1 s:
    numpy quantiles and least squares, and a loop of Python dictionary
    updates.  A shared machine's speed can drift by half over tens of
    seconds; timed right before and after a repetition, this measures the
    speed of that moment.  It runs in the parent, so the memory it uses is not in the
    repetition's peak."""
    t0 = time.perf_counter()
    matrix = np.random.default_rng(0).normal(size=(8000, 100))
    np.quantile(matrix, [0.25, 0.5, 0.75], axis=1)
    np.linalg.lstsq(matrix[:, :20], matrix[:, 20], rcond=None)
    table = {}
    for i in range(240_000):
        table[i % 997] = table.get(i % 997, 0) + i * i
    return time.perf_counter() - t0


def repetition(size, in_dir: Path, seed: int, manifest, run_id: str,
               traced: bool) -> dict:
    """Run the workload once in the current directory and check it."""
    tap = workloads.LogTap()
    logging.getLogger("abckit").addHandler(tap)
    tally = workloads.Tally()
    recorder = None
    if traced:
        recorder = tracing.Recorder(run_id)
        recorder.install()

    t0 = time.perf_counter()
    ok, result = workloads.RUNNERS[type(size)](size, in_dir, seed, tally)
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if ok:
        try:
            workloads.check(size, manifest, result, tap, tally)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            tally.check(False, f"outputs unreadable: {type(exc).__name__}: {exc}")
    else:
        tally.check(False, "workload did not complete")
    out = {"traced": traced, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
    if recorder is not None:
        covered = sum(recorder.self_times())
        tally.check(covered <= wall_s,
                    f"self times sum to {covered} s, above the wall {wall_s} s")
        recorder.write("spans.tsv")
        out["layers"] = recorder.layer_metrics()
    out.update(attempted=tally.attempted, failed=tally.failed,
               failed_checks=tally.failed_checks, messages=tally.messages[:20],
               workload_metrics=sizes.workload_metrics(size, tally.phases))
    return out


def forked(rep_dir: Path, result_path: Path, *args) -> dict:
    """Run :func:`repetition` in a child process and return its report,
    with the reference time around it as ``ref_s``."""
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    result_path.unlink(missing_ok=True)
    ref_before = reference_s()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.chdir(rep_dir)
            result_path.write_text(json.dumps(repetition(*args)))
            code = 0
        except Exception:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    ref_s = (ref_before + reference_s()) / 2
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SystemExit(f"repetition exited {code}")
    return {**json.loads(result_path.read_text()), "ref_s": ref_s}


def main(argv) -> int:
    workload, size_name, in_dir, seed, trace, window_end, work, out_path = argv
    in_dir, work = Path(in_dir), Path(work)
    seed, trace, window_end = int(seed), trace == "1", float(window_end)
    size = sizes.SIZES[size_name][workload]
    manifest = json.loads((in_dir / "manifest.json").read_text())
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    # children would otherwise copy every inherited object when the
    # collector first visits it
    gc.freeze()

    reps = []
    while True:
        n_traced = sum(r["traced"] for r in reps)
        n_plain = len(reps) - n_traced
        if (time.time() >= window_end and n_plain
                and (n_traced or not trace)):
            break
        traced = trace and n_traced < n_plain
        run_id = f"{workload}-{seed}-{len(reps)}"
        rep = forked(work / "rep", work / "rep.json", size, in_dir, seed,
                     manifest, run_id, traced)
        reps.append(rep)
        print(f"{run_id} {'traced' if traced else 'untraced'}: wall "
              f"{rep['wall_s']:.4f} s, failed {rep['failed']}", flush=True)

    Path(out_path).write_text(json.dumps({
        "import_s": IMPORT_S,
        "reps": reps,
        "abckit_file": abckit.cli.__file__,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__,
                     "python": sys.version.split()[0]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
