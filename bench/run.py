"""corrqec benchmark: three workloads, end-to-end timings, traced per-layer breakdown.

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py                     # every workload, packaged seeds, both modes
  python3 bench/run.py --record-reference  # rewrite bench/reference.json

Run from the root of a checkout; the program is imported from its `src`.
With --trace 0 the metrics are the end-to-end ones in BENCHMARK.json, with
--trace 1 the per-layer ones.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the full record,
with the machine and software, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DEADLINE_S = 175.0
SETUP_PROBES = 3
# One BLAS thread: on a shared two-core box, two threads on the small matrices
# here more than doubled the run-to-run spread of unraveling_grid.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def spawn_worker(workload, seed, phase, seconds, deadline) -> dict:
    """Run bench/worker.py in a fresh interpreter and return its JSON line."""
    OUT.mkdir(exist_ok=True)
    log = OUT / f"{workload}-{phase}.log"
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--phase", phase, "--seconds", repr(seconds), "--workdir", str(OUT)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    argv += ["--spawned-at", repr(time.monotonic())]
    with open(log, "w") as err:
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                                  stderr=err, text=True, timeout=deadline - time.monotonic())
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} {phase}: timed out; see {log}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {phase}: worker exited {proc.returncode}; see {log}")
    return json.loads(lines[-1])


def tail_percentile(samples):
    """Highest of p50..p99.9 with at least ten samples beyond it, or None."""
    ordered = sorted(samples)
    for p in (99.9, 99.0, 90.0, 75.0, 50.0):
        if len(ordered) * (1 - p / 100) >= 10:
            return p, ordered[min(len(ordered) - 1, int(len(ordered) * p / 100))]
    return None


def describe(name, unit, samples) -> str:
    median = statistics.median(samples)
    tail = tail_percentile(samples)
    spread = f"p{tail[0]:g} {tail[1]:.6g}" if tail else "no tail percentile (<20 samples)"
    return f"  {name:<18} {median:>14.6g} {unit:<6} median of n={len(samples)}, {spread}"


def machine_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = child_env()
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        commit = lines[1] if top.returncode == 0 and Path(lines[0]) == ROOT else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: v for k, v in sorted(env.items()) if k.endswith("_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
    }


def measure(workload, seed, seconds, deadline, definition) -> dict:
    """Untraced run: setup probes in fresh interpreters, then the timed sweeps."""
    probes = [spawn_worker(workload, seed, "setup", seconds, deadline)
              for _ in range(SETUP_PROBES)]
    result = spawn_worker(workload, seed, "measure", seconds, deadline)
    probes.append(result)
    sweeps = result["sweeps"]
    run_s = [s["seconds"] for s in sweeps]
    samples = {"run_s": run_s, "setup_s": [p["setup_s"] for p in probes],
               "peak_rss_mb": [result["peak_rss_mb"]]}
    for name, count in result["work"].items():
        samples[f"{name}_per_s"] = [count / t for t in run_s]
    samples.update(run_wall_s=[s["wall_s"] for s in sweeps],
                   setup_wall_s=[p["setup_wall_s"] for p in probes],
                   host_slice_ms=[s["slice_s"] * 1e3 for s in sweeps])
    units = {m["name"]: m["unit"] for m in definition["end_to_end"]}
    units.update(rk4_steps_per_s="1/s", traj_steps_per_s="1/s",
                 run_wall_s="s", setup_wall_s="s", host_slice_ms="ms")
    result["lines"] = [describe(name, units[name], values) for name, values in samples.items()]
    result["metrics"] = {name: statistics.median(samples[name]) for name in units
                         if name in samples}
    result["samples"] = samples
    return result


def traced(workload, seed, seconds, deadline, definition) -> dict:
    result = spawn_worker(workload, seed, "trace", seconds, deadline)
    result["metrics"] = metrics = result.pop("per_layer")
    result["lines"] = [
        f"  {m['name']:<32} {metrics[m['name']]:>14.6g} {m['unit']}" if m["name"] in metrics
        else f"  {m['name']:<32} {'absent':>14}"
        for m in definition["per_layer"]
    ]
    return result


def run_one(workload, seed, seconds, trace, definition, deadline) -> dict:
    kind = "per_layer" if trace else "end_to_end"
    result = (traced(workload, seed, seconds, deadline, definition) if trace
              else measure(workload, seed, seconds, deadline, definition))
    declared = {m["name"]: m["unit"] for m in definition[kind]}
    reported = {k: result["metrics"][k] for k in declared if k in result["metrics"]}
    missing = set(declared) - set(reported) - set(result.get("absent", ()))
    if missing:
        raise BenchError(f"{workload}: metrics not produced: {sorted(missing)}")
    attempted = sum(s["points"] for s in result["sweeps"])
    failed = sum(s["failed"] for s in result["sweeps"])
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in reported.items()},
    }
    record = dict(result, workload=workload, seed_option=seed, trace=trace,
                  machine=machine_info(), summary=summary)
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{workload} (workload seed {result['workload_seed']}, "
          f"{'traced' if trace else 'untraced'}; record in {path.relative_to(ROOT)})")
    print("\n".join(result["lines"]))
    print(f"  {'failed_frac':<18} {failed / attempted:>14.6g} {'':<6} "
          f"{failed} of {attempted} sweep points")
    for sweep in result["sweeps"]:
        for message in sweep["failures"]:
            print(f"  FAILED: {message}")
    return summary


def record_reference(deadline):
    reference = {}
    for workload in ("density_scaling", "trajectory_qec"):
        reference.update(spawn_worker(workload, None, "record", 0, deadline))
    reference["recorded_at"] = machine_info()["git_commit"]
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed variant; default: the packaged seeds")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "corrqec" / "__init__.py").is_file():
        print(f"error: no corrqec sources under {SRC}", file=sys.stderr)
        return 2
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in definition["workloads"]]
    seconds = args.seconds or definition["run_seconds"]
    compileall.compile_dir(SRC, quiet=1)
    OUT.mkdir(exist_ok=True)

    try:
        if args.record_reference:
            record_reference(time.monotonic() + 900)
            return 0
        if args.workload is not None:
            if args.workload not in names:
                parser.error(f"--workload must be one of {names}")
            deadline = time.monotonic() + DEADLINE_S
            summary = run_one(args.workload, args.seed, seconds, bool(args.trace),
                              definition, deadline)
            print(json.dumps(summary))
            return 0
        summaries = {}
        for name in names:
            for trace in (False, True):
                deadline = time.monotonic() + DEADLINE_S
                summaries[(name, trace)] = run_one(name, args.seed, seconds, trace,
                                                   definition, deadline)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": {f"{name}.{metric}": value
                    for (name, trace), s in summaries.items() if not trace
                    for metric, value in s["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
