"""The benchmark's workloads call blindjam and read its results; a change to a
result type or signature they use must fail here, not only in the benchmark
run. Each workload runs at its "tiny" size and its own checks must pass."""
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", ["rate", "lattice"])
def test_workload_runs_and_passes_its_checks(name, seed, tmp_path):
    wl = _load("workloads")
    workload = wl.Workload(wl.WORKLOADS[name], seed, wl.SIZES["tiny"], str(tmp_path))
    checked, _ = workload.check(workload.run())
    assert checked.attempted > 0
    assert checked.failed == 0, f"{checked.failed} of {checked.attempted} cells failed"


def test_traced_tiny_rate_unit_counts(tmp_path):
    # one traced unit, as perfbench/run.py --size tiny --trace 1 --seed 5 times
    # it: the work counted per layer, whichever way the cells are scheduled
    wl, tracer_mod = _load("workloads"), _load("tracer")
    workload = wl.Workload(wl.WORKLOADS["rate"], 5, wl.SIZES["tiny"], str(tmp_path))
    tracer = tracer_mod.Tracer()
    tracer.install(wl.traced_modules())
    try:
        tracer.run += 1
        with tracer.span("bench.unit") as root:
            results = workload.run()
    finally:
        tracer.uninstall()
    assert workload.check(results)[0].failed == 0
    layers = tracer_mod.unit_metrics(tracer.spans, root, root.duration)
    assert {k: layers[k] for k in ("experiments.cells", "infometrics.rate_bound_calls",
                                   "infometrics.entropy_calls",
                                   "infometrics.logpdf_queries")} == {
        "experiments.cells": 15, "infometrics.rate_bound_calls": 15,
        "infometrics.entropy_calls": 54, "infometrics.logpdf_queries": 27_000}


@pytest.mark.xfail(strict=True, raises=TypeError, reason=(
    "perfbench's tracer closes a pool thread's last cell span only when a sweep_power "
    "or sweep_ser span ends, and compare_schemes runs its cells outside both: each "
    "pool thread's last cell stays open and unit_metrics subtracts from None"))
def test_traced_compare_on_two_workers_closes_every_cell(tmp_path):
    wl, tracer_mod = _load("workloads"), _load("tracer")
    from blindjam import cli

    tracer = tracer_mod.Tracer()
    tracer.install(wl.traced_modules())
    try:
        tracer.run += 1
        with tracer.span("bench.unit") as root:
            rc = cli.entrypoint(["compare", "--m", "1", "--p", "1e2,1e3,1e4", "--draws", "2",
                                 "--mi-samples", "300", "--workers", "2",
                                 "--out", str(tmp_path / "c.csv")])
    finally:
        tracer.uninstall()
    assert rc == 0
    layers = tracer_mod.unit_metrics(tracer.spans, root, root.duration)
    assert layers["experiments.cells"] == 18
