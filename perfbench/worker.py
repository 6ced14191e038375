"""One measurement process of the benchmark; ``run.py`` starts it.

With ``--setup-only`` it imports blindjam, builds the workload's inputs and
prints ``ready``: ``run.py`` times that from process start. Otherwise it
repeats the workload's calls for ``--seconds`` and prints one JSON object
with the unit times, output checks and (``--trace 1``) per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _read(path) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def machine_facts() -> dict:
    import numpy
    import scipy

    model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, index, "level"))
        kind = _read(os.path.join(base, index, "type"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = _read(os.path.join(base, index, "size"))
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "l2": caches.get("l2", "unknown"), "l3": caches.get("l3", "unknown"),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _repeat(run_unit, seconds: float, on_unit, warmup: bool = True) -> list[float]:
    """Run units until another one would overrun ``seconds`` (at least one
    timed unit). With ``warmup``, one untimed unit runs first: it pays for
    growing the heap and filling caches, which later units reuse."""
    t_start = time.perf_counter()
    if warmup:
        on_unit(run_unit())
    walls = []
    while True:
        t0 = time.perf_counter()
        results = run_unit()
        walls.append(time.perf_counter() - t0)
        on_unit(results)
        spent = time.perf_counter() - t_start
        if spent + statistics.fmean(walls) > seconds:
            return walls


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import blindjam

    if not os.path.abspath(blindjam.__file__).startswith(SRC + os.sep):
        print(f"error: imported blindjam from {blindjam.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from workloads import SIZES, WORKLOADS, Workload, traced_modules

    os.makedirs(args.out, exist_ok=True)
    workload = Workload(WORKLOADS[args.workload], args.seed, SIZES[args.size], args.out)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    checks = []
    canon = []

    def judge(results):
        checked, rows = workload.check(results)
        checks.append(checked)
        canon.append(rows)

    report = {"machine": machine_facts(), "workers": workload.workers}
    if args.trace == 0:
        walls = _repeat(workload.run, args.seconds, judge)
    else:
        from tracer import Tracer, unit_metrics

        walls = _repeat(workload.run, args.seconds / 2, judge)
        tracer = Tracer()
        tracer.install(traced_modules())
        roots = []

        def traced_unit():
            tracer.run += 1
            with tracer.span("bench.unit") as root:
                results = workload.run()
            roots.append(root)
            return results

        try:
            traced_walls = _repeat(traced_unit, args.seconds / 2, judge, warmup=False)
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(args.out, "spans.jsonl"))
        untraced = statistics.median(walls)
        per_unit = [unit_metrics(tracer.spans, root, untraced) for root in roots]
        report["layers"] = {k: statistics.median(u[k] for u in per_unit)
                            for k in per_unit[0]}
        report["traced_wall_s"] = traced_walls
    # every repeat, traced or not, must give the first unit's rows exactly
    mismatched = sum(1 for rows in canon[1:] if rows != canon[0])
    report.update(
        wall_s=walls,
        attempted=sum(c.attempted for c in checks),
        failed=min(sum(c.attempted for c in checks),
                   sum(c.failed for c in checks)
                   + mismatched * checks[0].attempted),
        rows_mismatched_units=mismatched,
        se_max=max(c.se_max for c in checks),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
