"""Benchmark of the blindjam simulator.

    python3 perfbench/run.py --workload rate --seed 1 --seconds 58 --trace 0

Run from the repository root (any working directory works: paths are taken
from this file). Workloads: rate, lattice; ``NOTES.md``
says why each exists and which per-layer metric moves which end-to-end one.

``--trace 0`` measures end to end: set-up time is the median of several
fresh processes that import blindjam and build the workload's inputs, then
one more fresh process repeats the workload's calls for ``--seconds``.
``--trace 1`` spends half of ``--seconds`` untraced and half with every
layer's public functions wrapped, and reports per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the raw samples and the machine facts. Outputs go to ``perfbench/out``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("rate", "lattice")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
# BLAS stays single-threaded, so the sweeps' own pool (two threads for the
# M=2 sweeps of the rate workload) is the only parallelism. Two memory
# settings keep the kernel's page handling out of the timings, because its
# cost swings with the rest of the machine: numpy's request for transparent
# huge pages is off, and glibc keeps freed blocks in one heap instead of
# handing each large array back to the kernel and faulting it in again on
# the next call (NOTES.md has the numbers).
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "NUMPY_MADVISE_HUGEPAGE": "0",
             "MALLOC_MMAP_THRESHOLD_": str(1 << 30), "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
             "MALLOC_ARENA_MAX": "1"}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB", "se_max": "1"}


def layer_unit(name: str) -> str:
    words = name.split(".", 1)[1].split("_")
    if words[-2:] == ["per", "s"]:
        return "1/s"
    if "s" in words:
        return "s"
    if name.endswith(("ratio", "efficiency", "coverage")):
        return "ratio"
    return "count"


class BenchError(RuntimeError):
    pass


def _remaining(t_start: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - t_start)
    if left <= 0:
        raise BenchError("out of time")
    return left


def time_setup(cmd, env, t_start) -> float:
    """Seconds from starting a fresh worker until it has built its inputs."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        try:
            proc.communicate(timeout=_remaining(t_start))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("set-up process timed out")
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up process failed with exit code {proc.returncode}")
    return elapsed


def measure(args, t_start) -> tuple[dict, dict]:
    out = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    base = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
            "--size", args.size, "--out", out]
    env = dict(os.environ, **CHILD_ENV)
    setups = []
    if args.trace == 0:
        setups = [time_setup(base + ["--setup-only"], env, t_start)
                  for _ in range(SETUP_SAMPLES)]
    cmd = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                              timeout=_remaining(t_start))
    except subprocess.TimeoutExpired:
        raise BenchError("measurement process timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"measurement process failed with exit code {proc.returncode}")
    report = json.loads(lines[-1])
    report["setup_s"] = setups
    report["fail_ratio"] = report["failed"] / report["attempted"]
    if args.trace == 0:
        values = {"setup_s": statistics.median(setups),
                  "wall_s": statistics.median(report["wall_s"]),
                  "peak_rss_mb": report["peak_rss_mb"],
                  "se_max": report["se_max"]}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in report["layers"].items()}
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"report": report, "metrics": metrics}, fh, indent=1)
    return report, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: minimal inputs for the smoke test")
    args = ap.parse_args(argv)
    t_start = time.perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "blindjam", "__init__.py")):
        print(f"error: no blindjam sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    try:
        report, metrics = measure(args, t_start)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({k: report[k] for k in
                      ("machine", "workers", "setup_s", "wall_s", "fail_ratio",
                       "rows_mismatched_units") if k in report}))
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
