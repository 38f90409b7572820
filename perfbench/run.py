"""Benchmark of abckit: four seeded workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload estimate-diag --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1

One run writes the workload's inputs for the seed (once, outside any
timing) under ``.perfbench_work/``, then measures for ``--seconds``: two
fresh interpreters only import ``abckit`` (set-up samples), then
``worker.py`` imports it (the third sample) and forks one repetition after
another until the window closes; each runs the workload once and checks
its outputs.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics of ``BENCHMARK.json``,
each the median over the repetitions.  With ``--trace 1`` untraced and
traced repetitions alternate, and the object holds the per-layer metrics:
calls, time and self time of each traced function, the counters, the
workload's own phase figures (from the untraced repetitions) and the
tracing overhead.  ``--all`` runs every workload both ways, prints one row
per workload and writes ``.perfbench_work/results.json``.

BLAS runs on one thread in every repetition.  The script exits with code 2
when the directory is not an abckit checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import inputs
import sizes

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
BLAS_THREADS = 1
TIME_LIMIT_S = 170
# set-up samples per run: the worker's import and fresh interpreters that
# only import
SETUP_SAMPLES = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import abckit.cli; "
                "print(time.perf_counter() - t)")


def fail(message: str, code: int = 1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_contract(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def environment(root: Path, seed: int, worker_versions: dict) -> dict:
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "seed": seed, **worker_versions}


def ensure_inputs(work: Path, seed: int, size) -> Path:
    directory = work / "inputs"
    rows, n_obs = sizes.input_shape(size)
    if inputs.load(directory, seed, rows, n_obs) is None:
        inputs.generate(directory, seed, rows, n_obs)
    return directory


def worker_env(root: Path, tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(tmp)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_process(argv, cwd: Path, env: dict, log_path: Path, deadline: float,
                what: str) -> str:
    """Run a child process to completion (its whole process group is
    killed at the deadline) and return its standard output."""
    with open(log_path, "a") as log:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                                stderr=log, text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            fail(f"{what} passed the time limit; see {log_path}")
    if proc.returncode != 0:
        tail = log_path.read_text().splitlines()[-15:]
        fail(f"{what} exited {proc.returncode}:\n" + "\n".join(tail))
    return out


def measure(root: Path, workload: str, seed: int, seconds: float, traced: bool,
            size_name: str = "full") -> tuple[dict, dict]:
    """Run repetitions of one workload for ``seconds``; returns the result
    object of the contract and the recorded environment."""
    deadline = time.monotonic() + TIME_LIMIT_S
    contract = load_contract(root)
    size = sizes.SIZES[size_name][workload]
    work = root / WORK_DIR / workload
    in_dir = ensure_inputs(work, seed, size)
    tmp = work / "tmp"
    tmp.mkdir(exist_ok=True)
    env = worker_env(root, tmp)
    log_path = work / "worker.log"
    log_path.write_text("")

    # the measured window holds the set-up samples and the repetitions
    window_end = time.time() + seconds
    setups = [float(run_process([sys.executable, "-c", IMPORT_PROBE], tmp, env,
                                log_path, deadline, "import probe"))
              for _ in range(SETUP_SAMPLES - 1)]
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    run_process([sys.executable, str(HERE / "worker.py"), workload, size_name,
                 str(in_dir.resolve()), str(seed), str(int(traced)),
                 str(window_end), str(work.resolve()), str(result_path.resolve())],
                tmp, env, log_path, deadline, f"{workload} worker")
    worker = json.loads(result_path.read_text())
    expected = (root / "src" / "abckit").resolve()
    if Path(worker["abckit_file"]).resolve().parent != expected:
        fail(f"imported abckit from {worker['abckit_file']}, not {expected}")
    setups.append(worker["import_s"])

    every = worker["reps"]
    for r in every:
        print(f"{workload} seed {seed} {'traced' if r['traced'] else 'untraced'}"
              f" repetition: wall {r['wall_s']:.4f} s, reference "
              f"{r['ref_s']:.4f} s, failed {r['failed']}"
              + "".join(f"\n  {m}" for m in r["messages"]))
    print(f"{workload} seed {seed} set-up: "
          + ", ".join(f"{v:.4f} s" for v in setups))
    plain = [r for r in every if not r["traced"]]
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    if traced:
        tr = [r for r in every if r["traced"]]
        values = {name: median([r["layers"][name] for r in tr])
                  for name in tr[0]["layers"]}
        for name in plain[0]["workload_metrics"]:
            values[name] = median([r["workload_metrics"][name] for r in plain])
        values["wall_s"] = median([r["wall_s"] for r in plain])
        values["failed_frac"] = failed / attempted
        values["trace_overhead_s"] = (median([r["wall_s"] for r in tr])
                                      - median([r["wall_s"] for r in plain]))
        declared = contract["per_layer"]
    else:
        values = {"setup_s": median(setups),
                  "rel_wall": median([r["wall_s"] / r["ref_s"] for r in plain]),
                  "peak_rss_mb": median([r["peak_rss_mb"] for r in plain])}
        declared = contract["end_to_end"]
    names = [m["name"] for m in declared]
    if set(names) != set(values):
        fail("measured metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(names) - set(values))}, "
             f"undeclared {sorted(set(values) - set(names))}")
    result = {
        "correct": all(r["failed_checks"] == 0 for r in every),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    return result, environment(root, seed, worker["versions"])


def check_checkout(root: Path) -> None:
    for need in ("BENCHMARK.json", "src/abckit/__init__.py"):
        if not (root / need).is_file():
            fail(f"{root} is not an abckit checkout: {need} is missing", 2)


def run_all(root: Path, seed: int, seconds: float, size_name: str) -> None:
    contract = load_contract(root)
    report = {}
    env = None
    for w in contract["workloads"]:
        name = w["name"]
        report[name] = {}
        for traced in (False, True):
            result, env = measure(root, name, seed, seconds, traced, size_name)
            report[name]["traced" if traced else "untraced"] = result
    print("\nenvironment: " + json.dumps(env))
    for name, runs in report.items():
        cells = [f"{m}={v['value']:.6g} {v['unit']}"
                 for m, v in runs["untraced"]["metrics"].items()]
        layer = runs["traced"]["metrics"]
        cells += [f"{m}={layer[m]['value']:.6g} {layer[m]['unit']}"
                  for m in sizes.WORKLOAD_METRICS if layer[m]["value"]]
        cells += [f"{m}={layer[m]['value']:.6g} {layer[m]['unit']}"
                  for m in ("wall_s", "failed_frac", "trace_overhead_s")]
        correct = runs["untraced"]["correct"] and runs["traced"]["correct"]
        print(f"{name}: " + ", ".join(cells) + f", correct={correct}")
    path = root / WORK_DIR / "results.json"
    path.write_text(json.dumps({"environment": env, "size": size_name,
                                "seconds": seconds, "workloads": report},
                               indent=1))
    print(f"wrote {path}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(sizes.SIZES),
                        default="full",
                        help="'small' is the reduced size of the smoke test")
    args = parser.parse_args(argv)
    root = Path.cwd()
    check_checkout(root)
    if args.seconds is None:
        args.seconds = load_contract(root)["run_seconds"]
    if args.all:
        run_all(root, args.seed, args.seconds, args.size)
        return
    if args.workload not in sizes.SIZES[args.size]:
        fail(f"unknown workload {args.workload!r}", 2)
    result, env = measure(root, args.workload, args.seed, args.seconds,
                          bool(args.trace), args.size)
    print("environment: " + json.dumps(env))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
