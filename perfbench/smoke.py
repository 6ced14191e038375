"""Smoke test of the benchmark at tiny sizes (about two minutes on 2 cores).

    python3 perfbench/smoke.py

For every workload it runs ``run.py --size tiny`` untraced and traced with
seed 1, and untraced again with seed 2. Each run must exit 0, print a last
line with exactly the four result keys, report no failed output cell, and
print every metric ``BENCHMARK.json`` names with the unit it declares. The
traced run must cover at least 95% of its wall time with top-level spans.
Last, a copy of the benchmark without the sources must fail without printing
a result. Exits 1 on the first violation.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def fail(msg: str) -> None:
    print(f"smoke: FAIL {msg}", file=sys.stderr)
    sys.exit(1)


def run(workload: str, seed: int, trace: int, script: str = RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=180)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for wl in (w["name"] for w in spec["workloads"]):
        for seed, trace in ((1, 0), (1, 1), (2, 0)):
            label = f"{wl} seed={seed} trace={trace}"
            proc = run(wl, seed, trace)
            if proc.returncode != 0:
                fail(f"{label}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                fail(f"{label}: {result['failed']} of {result['attempted']} cells failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace].items()) ^ set(got.items()))
                fail(f"{label}: metrics or units differ from BENCHMARK.json: {missing}")
            if trace == 1 and result["metrics"]["trace.coverage"]["value"] < 0.95:
                fail(f"{label}: top-level spans cover "
                     f"{result['metrics']['trace.coverage']['value']:.3f} of wall time")
            print(f"smoke: ok {label}", flush=True)

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run("lattice", 1, 0, os.path.join(bare, "perfbench", "run.py"))
        if proc.returncode == 0 or proc.stdout.strip():
            fail("a checkout without src/ ran or printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke: ok without sources, run refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
